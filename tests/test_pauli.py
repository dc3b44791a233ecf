"""Pauli-coordinate plumbing: bases, generators, propagation, powers."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from noiselab import pauli
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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("index", [1, 3])
def test_state_coefficients_must_be_finite(bad, index):
    coeffs = np.array([1.0, 0.1, 0.0, 0.2])
    coeffs[index] = bad
    with pytest.raises(ValueError, match="non-finite"):
        PauliVector(coeffs)
    tls = np.zeros(16)
    tls[[0, 4 * index + 1]] = 1.0, bad
    with pytest.raises(ValueError, match="non-finite"):
        PauliVector(tls)


def test_density_matrix_roundtrip():
    state = PauliVector(np.array([1.0, 0.3, -0.2, 0.4]))
    rho = density_matrix(state)
    assert np.trace(rho) == pytest.approx(1.0, abs=1e-14)
    back = from_density_matrix(rho)
    assert np.allclose(back.coeffs, state.coeffs, atol=1e-14)


@pytest.mark.parametrize(
    "rho",
    [
        np.array([[1.0, 5.0], [0.0, 0.0]]),  # would read as a Bloch vector of length 5
        np.eye(2) / 2 + 1j * np.eye(2),  # anti-Hermitian part, dropped by .real
        np.kron(np.eye(2) / 2, np.array([[1.0, 1e-6], [0.0, 0.0]])),
    ],
)
def test_non_hermitian_density_matrix_rejected(rho):
    with pytest.raises(ValueError, match="not Hermitian"):
        from_density_matrix(rho)


def test_hermitian_roundoff_accepted():
    rho = density_matrix(PauliVector(np.array([1.0, 0.3, -0.2, 0.4])))
    rho[0, 1] += 1e-12j
    assert np.allclose(from_density_matrix(rho).coeffs, [1.0, 0.3, -0.2, 0.4], atol=1e-11)


def test_build_generator_validation():
    with pytest.raises(ValueError):
        build_generator([], [(L_AD, -0.1)], 1)
    with pytest.raises(ValueError):
        build_generator([("Q", 1.0)], [], 1)
    with pytest.raises(ValueError):
        build_generator([], [(np.eye(3), 0.1)], 1)
    gen = build_generator([("Z", 0.1)], [(L_AD, 0.05)], 1)
    assert np.all(gen[0] == 0.0)  # trace preservation row, exactly

    pauli._projection.cache_clear()
    nan_jump = L_AD.astype(complex)
    nan_jump[1, 0] = math.nan
    inf_jump = np.kron(L_AD, np.eye(2)).astype(complex)
    inf_jump[0, 3] = complex(0.0, math.inf)
    bad = [
        ([("Z", math.nan)], [], 1),
        ([("XI", math.inf)], [], 2),
        ([("Z", 0.1 + 0.2j)], [], 1),
        ([("Z", "0.1")], [], 1),
        ([("Z", True)], [], 1),
        ([], [("Z", math.inf)], 1),
        ([], [(L_AD, math.nan)], 1),
        ([("X", 0.3)], [(nan_jump, 0.1)], 1),
        ([("ZX", 0.3)], [(inf_jump, 0.1)], 2),
        ([("Z", 0.1)], [], True),
        ([("Z", 0.1)], [], 3),
    ]
    for hamiltonian, dissipators, q in bad:
        with pytest.raises(ValueError):
            build_generator(hamiltonian, dissipators, q)
    # rejected before any term, valid or not, reaches the cache
    assert pauli._projection.cache_info().currsize == 0


def test_pauli_string_table_is_read_only():
    zx = pauli_string_matrix("ZX", 2)
    assert not zx.flags.writeable
    with pytest.raises(ValueError):
        zx[0, 0] = 2.0
    assert pauli_string_matrix("X", 1) is not SIGMA_X
    with pytest.raises(ValueError):
        pauli_string_matrix("X", True)


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
# generator assembly against the per-element trace projection

def _reference_generator(hamiltonian, dissipators, q):
    """l_ji = 2^{-q} Tr[F_j L[F_i]], one basis element and one trace at a time,
    with H summed first and every jump applied to each F_i."""
    dim = 2**q
    basis = pauli_basis(q)
    h = np.zeros((dim, dim), dtype=complex)
    for label, coeff in hamiltonian:
        h = h + coeff * pauli_string_matrix(label, q)
    jumps = [(pauli_string_matrix(j, q) if isinstance(j, str) else np.asarray(j, dtype=complex), r)
             for j, r in dissipators]
    entries = np.zeros((4**q, 4**q))
    for i, fi in enumerate(basis):
        image = -1j * (h @ fi - fi @ h)
        for op, rate in jumps:
            ldl = op.conj().T @ op
            image = image + rate * (op @ fi @ op.conj().T - 0.5 * (ldl @ fi + fi @ ldl))
        proj = np.array([np.trace(fj @ image) for fj in basis]) / dim
        assert np.abs(proj.imag).max() <= 1e-12
        entries[:, i] = proj.real
    entries[0, :] = 0.0
    return entries


def _labels(q):
    return ["".join(p) for p in itertools.product("IXYZ", repeat=q)]


def _random_jump(seed, q):
    rng = np.random.default_rng(seed)
    return rng.uniform(-1, 1, (2**q, 2**q)) + 1j * rng.uniform(-1, 1, (2**q, 2**q))


@st.composite
def _gkls_terms(draw):
    q = draw(st.sampled_from([1, 2]))
    coeff = st.floats(-2.0, 2.0, allow_nan=False)
    rate = st.floats(0.0, 1.0, allow_nan=False)
    hamiltonian = draw(st.lists(st.tuples(st.sampled_from(_labels(q)), coeff), max_size=5))
    jump = st.one_of(st.sampled_from(_labels(q)),
                     st.builds(_random_jump, st.integers(0, 2**32 - 1), st.just(q)))
    dissipators = draw(st.lists(st.tuples(jump, rate), max_size=4))
    return hamiltonian, dissipators, q


@settings(max_examples=150, deadline=None, derandomize=True)
@given(terms=_gkls_terms())
@example(terms=([("XI", 0.3), ("ZI", 0.002), ("ZX", 0.0027)],
                [(np.kron(L_AD, np.eye(2)), 3.6e-5), ("ZI", 1.9e-4), (np.kron(np.eye(2), L_AD), 0.01)], 2))
@example(terms=([], [(1e4 * _random_jump(0, 2), 1e-14)], 2))
def test_build_generator_matches_trace_projection(terms):
    gen = build_generator(*terms)
    ref = _reference_generator(*terms)
    assert gen.dtype == np.float64 and gen.flags.writeable
    assert np.max(np.abs(gen - ref)) <= 1e-14
    assert np.all(gen[0] == 0.0)


def test_cold_and_warm_cache_give_identical_generators():
    specs = [
        ([("X", 0.4), ("Z", -0.01)], [(L_AD, 2e-3), ("Z", 1e-3)], 1),
        ([("XI", -0.4), ("ZI", 0.002), ("ZX", 0.0027)],
         [(np.kron(L_AD, np.eye(2)), 3.6e-5), ("ZI", 1.9e-4), (np.kron(np.eye(2), L_AD), 0.02)], 2),
        ([("YZ", 0.7)], [(_random_jump(1, 2), 0.3), ("XY", 0.1)], 2),
        ([], [(_random_jump(2, 1), 0.25)], 1),
    ]
    pauli._projection.cache_clear()
    cold = [build_generator(*spec) for spec in specs]
    warm = [build_generator(*spec) for spec in specs]
    pauli._projection.cache_clear()
    reverse = [build_generator(*spec) for spec in reversed(specs)][::-1]
    for a, b, c in zip(cold, warm, reverse):
        assert a.tobytes() == b.tobytes() == c.tobytes()
    # a caller may scribble on its generator; the cached terms are read-only
    assert not pauli._projection(1, "D", L_AD.astype(complex).tobytes()).flags.writeable
    cold[0][:] = 1.0
    assert build_generator(*specs[0]).tobytes() == warm[0].tobytes()
    info = pauli._projection.cache_info()
    assert info.maxsize == 64 and info.currsize == 14


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
