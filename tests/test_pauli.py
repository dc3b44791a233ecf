"""Pauli-coordinate plumbing: bases, generators, propagation, powers."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from noiselab.pauli import (
    PauliVector,
    PowerEngine,
    SIGMA_X,
    SIGMA_Z,
    build_generator,
    density_matrix,
    from_density_matrix,
    partial_trace_tls,
    pauli_basis,
    pauli_string_matrix,
    propagate,
    purity,
)

L_AD = np.array([[0.0, 1.0], [0.0, 0.0]])


@pytest.mark.parametrize("q", [1, 2])
def test_basis_orthogonality(q):
    basis = pauli_basis(q)
    assert len(basis) == 4**q
    for i, fi in enumerate(basis):
        for j, fj in enumerate(basis):
            tr = np.trace(fi @ fj)
            assert tr == pytest.approx(2**q if i == j else 0.0, abs=1e-12)


def test_pauli_string_matrix_matches_kron():
    zx = pauli_string_matrix("ZX", 2)
    assert np.allclose(zx, np.kron(SIGMA_Z, SIGMA_X))
    with pytest.raises(ValueError):
        pauli_string_matrix("XQ", 2)
    with pytest.raises(ValueError):
        pauli_string_matrix("X", 2)


def test_state_constructors():
    assert np.allclose(PauliVector.ground().coeffs, [1, 0, 0, 1])
    assert np.allclose(PauliVector.plus().coeffs, [1, 1, 0, 0])
    tls = PauliVector.plus_tls_ground()
    assert tls.q == 2
    # qubit (x) TLS ground: IX-block coefficients vanish, qubit marginal is |+>
    assert np.allclose(partial_trace_tls(tls).coeffs, [1, 1, 0, 0])


def test_c0_must_be_one():
    with pytest.raises(ValueError):
        PauliVector(np.array([0.9, 0.0, 0.0, 0.0]))


def test_density_matrix_roundtrip():
    state = PauliVector(np.array([1.0, 0.3, -0.2, 0.4]))
    rho = density_matrix(state)
    assert np.trace(rho) == pytest.approx(1.0, abs=1e-14)
    back = from_density_matrix(rho)
    assert np.allclose(back.coeffs, state.coeffs, atol=1e-14)


def test_build_generator_validation():
    with pytest.raises(ValueError):
        build_generator([], [(L_AD, -0.1)], 1)
    with pytest.raises(ValueError):
        build_generator([("Q", 1.0)], [], 1)
    with pytest.raises(ValueError):
        build_generator([], [(np.eye(3), 0.1)], 1)
    gen = build_generator([("Z", 0.1)], [(L_AD, 0.05)], 1)
    assert np.all(gen.entries[0] == 0.0)  # trace preservation row, exactly


def test_dephasing_coherence_rate():
    # pure dephasing at rate g decays c_x as exp(-2 g t)
    g = 0.07
    gen = build_generator([], [(SIGMA_Z, g)], 1)
    for t in (0.5, 2.0, 11.0):
        out = propagate(gen, t).apply(PauliVector.plus())
        assert out.coeffs[1] == pytest.approx(np.exp(-2.0 * g * t), rel=1e-12)
        assert out.coeffs[0] == 1.0  # bit-exact through expm


def test_amplitude_damping_rates():
    g = 0.05
    gen = build_generator([], [(L_AD, g)], 1)
    for t in (1.0, 7.0):
        out = propagate(gen, t).apply(PauliVector.plus())
        assert out.coeffs[1] == pytest.approx(np.exp(-0.5 * g * t), rel=1e-12)
        assert out.coeffs[3] == pytest.approx(1.0 - np.exp(-g * t), rel=1e-12)


def test_detuning_rotates_at_twice_the_coefficient():
    d = 0.3
    gen = build_generator([("Z", d)], [], 1)
    out = propagate(gen, 1.0).apply(PauliVector.plus())
    assert out.coeffs[1] == pytest.approx(np.cos(2.0 * d), abs=1e-12)
    assert out.coeffs[2] == pytest.approx(np.sin(2.0 * d), abs=1e-12)


def test_superoperator_composition_order():
    gen_z = build_generator([("Z", 0.2)], [], 1)
    gen_d = build_generator([], [(SIGMA_Z, 0.1)], 1)
    a, b = propagate(gen_z, 1.0), propagate(gen_d, 1.0)
    ab = (a @ b).apply(PauliVector.plus())  # b acts first
    manual = a.apply(b.apply(PauliVector.plus()))
    assert np.allclose(ab.coeffs, manual.coeffs, atol=1e-14)


def test_power_engine_matches_matrix_power():
    gen = build_generator([("Z", 0.11)], [(L_AD, 0.02), (SIGMA_Z, 0.01)], 1)
    sup = propagate(gen, 8.0)
    engine = PowerEngine(sup.matrix)
    assert engine._use_eig
    ns = np.array([0, 1, 5, 17])
    c0 = PauliVector.plus().coeffs
    states = engine.states(ns, c0)
    for row, n in zip(states, ns):
        ref = np.linalg.matrix_power(sup.matrix, int(n)) @ c0
        assert np.allclose(row, ref, atol=1e-10)
        assert row[0] == 1.0


def test_power_engine_fallback_matches_matrix_power():
    # a Jordan block has no eigenvector basis, so the engine must take the
    # matrix_power route
    mat = np.eye(4)
    mat[1, 1] = mat[2, 2] = 0.9
    mat[1, 2] = 1.0
    engine = PowerEngine(mat)
    assert not engine._use_eig
    ns = np.array([0, 1, 2, 7, 30])
    c0 = np.array([1.0, 0.2, -0.5, 0.3])
    states = engine.states(ns, c0)
    for row, n in zip(states, ns):
        assert np.array_equal(row, np.linalg.matrix_power(mat, int(n)) @ c0)


def test_power_engine_validates_n():
    sup = propagate(build_generator([("Z", 0.1)], [], 1), 1.0)
    engine = PowerEngine(sup.matrix)
    c0 = PauliVector.plus().coeffs
    with pytest.raises(ValueError):
        engine.states(np.array([-1]), c0)
    with pytest.raises(ValueError):
        engine.states(np.array([1.5]), c0)
    with pytest.raises(ValueError):
        engine.states(np.array([True]), c0)
    with pytest.raises(ValueError):
        engine.states(np.array([[1]]), c0)


def test_purity_values():
    assert purity(PauliVector.plus()) == pytest.approx(1.0, abs=1e-14)
    assert purity(PauliVector(np.array([1.0, 0.0, 0.0, 0.0]))) == pytest.approx(0.5, abs=1e-14)


# ---------------------------------------------------------------------------
# properties

def _random_generator(seed: int):
    rng = np.random.default_rng(seed)
    return build_generator(
        [("Z", rng.uniform(-0.5, 0.5)), ("X", rng.uniform(-0.2, 0.2))],
        [(L_AD, rng.uniform(0, 0.1)), (SIGMA_Z, rng.uniform(0, 0.1))],
        1,
    )


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10_000), t1=st.floats(0.05, 5.0), t2=st.floats(0.05, 5.0))
def test_semigroup_property(seed, t1, t2):
    gen = _random_generator(seed)
    joint = propagate(gen, t1 + t2)
    split = propagate(gen, t1) @ propagate(gen, t2)
    assert np.allclose(joint.matrix, split.matrix, atol=1e-11)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10_000), t=st.floats(0.1, 20.0))
def test_two_state_distance_contracts(seed, t):
    # trace-distance proxy: Euclidean Bloch distance between any two states
    # never grows under a completely positive trace-preserving map
    gen = _random_generator(seed)
    sup = propagate(gen, t)
    rng = np.random.default_rng(seed + 1)
    v = rng.uniform(-1, 1, 3)
    w = rng.uniform(-1, 1, 3)
    for u in (v, w):
        norm = np.linalg.norm(u)
        if norm > 1:
            u /= norm * 1.0001
    a = sup.apply(PauliVector(np.concatenate([[1.0], v])))
    b = sup.apply(PauliVector(np.concatenate([[1.0], w])))
    before = np.linalg.norm(v - w)
    after = np.linalg.norm(a.coeffs[1:] - b.coeffs[1:])
    assert after <= before + 1e-10


@settings(max_examples=30, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10_000), n=st.integers(0, 60))
def test_c0_pinned_under_powers(seed, n):
    gen = _random_generator(seed)
    sup = propagate(gen, 3.0)
    out = PowerEngine(sup.matrix).states(np.array([n]), PauliVector.plus().coeffs)
    assert out[0, 0] == 1.0
