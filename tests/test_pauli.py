"""Pauli-coordinate plumbing: bases, generators, propagation, powers."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from noiselab.models import QubitTLSParams
from noiselab.oracles import draw_markovian, draw_qubit_tls
from noiselab.pauli import (
    PauliVector,
    PowerEngine,
    SIGMA_X,
    SIGMA_Z,
    build_generator,
    density_matrix,
    from_density_matrix,
    pauli_basis,
    pauli_string_matrix,
    propagate,
)
from noiselab.schedule import PseudoidentitySchedule, schedule_superoperator

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
    assert np.allclose(tls.coeffs[[0, 4, 8, 12]], [1, 1, 0, 0])


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
    assert np.all(gen[0] == 0.0)  # trace preservation row, exactly


def test_dephasing_coherence_rate():
    # pure dephasing at rate g decays c_x as exp(-2 g t)
    g = 0.07
    gen = build_generator([], [(SIGMA_Z, g)], 1)
    for t in (0.5, 2.0, 11.0):
        out = propagate(gen, t) @ PauliVector.plus().coeffs
        assert out[1] == pytest.approx(np.exp(-2.0 * g * t), rel=1e-12)
        assert out[0] == 1.0  # bit-exact through expm


def test_amplitude_damping_rates():
    g = 0.05
    gen = build_generator([], [(L_AD, g)], 1)
    for t in (1.0, 7.0):
        out = propagate(gen, t) @ PauliVector.plus().coeffs
        assert out[1] == pytest.approx(np.exp(-0.5 * g * t), rel=1e-12)
        assert out[3] == pytest.approx(1.0 - np.exp(-g * t), rel=1e-12)


def test_detuning_rotates_at_twice_the_coefficient():
    d = 0.3
    gen = build_generator([("Z", d)], [], 1)
    out = propagate(gen, 1.0) @ PauliVector.plus().coeffs
    assert out[1] == pytest.approx(np.cos(2.0 * d), abs=1e-12)
    assert out[2] == pytest.approx(np.sin(2.0 * d), abs=1e-12)


def test_power_engine_validates_n():
    sup = propagate(build_generator([("Z", 0.1)], [], 1), 1.0)
    engine = PowerEngine(sup)
    c0 = PauliVector.plus().coeffs
    with pytest.raises(ValueError):
        engine.states(np.array([-1]), c0)
    with pytest.raises(ValueError):
        engine.states(np.array([1.5]), c0)
    with pytest.raises(ValueError):
        engine.states(np.array([True]), c0)
    with pytest.raises(ValueError):
        engine.states(np.array([[1]]), c0)
    with pytest.raises(ValueError):
        engine.states(np.array([0]), PauliVector.plus_tls_ground().coeffs)


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
    assert np.allclose(joint, split, atol=1e-11)


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
    a = sup @ np.concatenate([[1.0], v])
    b = sup @ np.concatenate([[1.0], w])
    before = np.linalg.norm(v - w)
    after = np.linalg.norm(a[1:] - b[1:])
    assert after <= before + 1e-10


@settings(max_examples=30, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10_000), n=st.integers(0, 60))
def test_c0_pinned_under_powers(seed, n):
    gen = _random_generator(seed)
    sup = propagate(gen, 3.0)
    out = PowerEngine(sup).states(np.array([n]), PauliVector.plus().coeffs)
    assert out[0, 0] == 1.0


# a Jordan block has no eigenvector basis at all
_JORDAN = np.eye(4)
_JORDAN[1, 1] = _JORDAN[2, 2] = 0.9
_JORDAN[1, 2] = 1.0
_THETAS = st.sampled_from([0.0, math.pi / 5.0, 2.0 * math.pi / 5.0, math.pi])


def _block_and_state(params, theta):
    sup = schedule_superoperator(params, PseudoidentitySchedule(theta_full=theta, n_values=(0,)))
    c0 = PauliVector.plus_tls_ground() if sup.shape[0] == 16 else PauliVector.plus()
    return sup, c0.coeffs


def _drawn_block(draw, seed, theta):
    return _block_and_state(draw(np.random.default_rng(seed)), theta)


def _critical_tls_block(theta, delta):
    # kappa = 8 nu_zx is the TLS critical damping, where the block is defective
    nu = 0.01
    params = QubitTLSParams(delta_omega=0.003, gamma_ad=1e-4, gamma_d=3e-4,
                            nu_zx=nu, kappa=8.0 * nu * (1.0 + delta))
    return _block_and_state(params, theta)


_BLOCKS = st.one_of(
    st.builds(_drawn_block, st.sampled_from([draw_markovian, draw_qubit_tls]),
              st.integers(0, 10_000), _THETAS),
    st.just((_JORDAN, np.array([1.0, 0.2, -0.5, 0.3]))),
    st.builds(_critical_tls_block, _THETAS, st.sampled_from([1e-4, 1e-6, 1e-8, 0.0])),
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(block=_BLOCKS, ns=st.lists(st.integers(0, 200), min_size=1, max_size=12))
@example(block=_critical_tls_block(0.0, 1e-6), ns=[150, 0, 70, 70, 10])
def test_power_engine_matches_matrix_power(block, ns):
    # any order, repeats included, and near-defective blocks
    mat, c0 = block
    out = PowerEngine(mat).states(np.array(ns), c0)
    for row, n in zip(out, ns):
        assert np.max(np.abs(row - np.linalg.matrix_power(mat, n) @ c0)) <= 1e-12
    assert np.all(out[:, 0] == 1.0)


def test_power_engine_fallback_matches_matrix_power():
    # the Jordan block has no eigenvector basis; stepping along the grid
    # multiplies by Lambda^gap, so rows agree with matrix_power to roundoff
    # rather than bit for bit
    c0 = np.array([1.0, 0.2, -0.5, 0.3])
    ns = np.array([0, 1, 2, 7, 30])
    states = PowerEngine(_JORDAN).states(ns, c0)
    for row, n in zip(states, ns):
        assert np.max(np.abs(row - np.linalg.matrix_power(_JORDAN, int(n)) @ c0)) <= 1e-12
