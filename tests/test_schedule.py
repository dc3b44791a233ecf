"""Pseudoidentity schedules: validation, the two-half block, echo identities,
error scaling."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm_frechet

from conftest import relative_step_jacobian
from noiselab.models import (
    MODEL_TAGS,
    PARAM_NAMES,
    RATES,
    MarkovianParams,
    PMMEParams,
    QubitTLSParams,
    UnsupportedModelError,
    generator_terms,
    markovian_generator,
    markovian_idle_bloch,
    pmme_idle_bloch,
    qubit_tls_generator,
    qubit_tls_idle_bloch,
)
from noiselab.oracles import draw_markovian, draw_qubit_tls
from noiselab.pauli import PauliVector, PowerEngine, propagate
from noiselab.schedule import (
    PseudoidentitySchedule,
    bloch_jacobian,
    bloch_trajectory,
    predict_trajectory,
    pseudoidentity_unitary,
    schedule_superoperator,
)

NOISELESS_M = MarkovianParams(delta_omega=0.0, gamma_ad=0.0, gamma_d=0.0)
NOISELESS_T = QubitTLSParams(delta_omega=0.0, gamma_ad=0.0, gamma_d=0.0, nu_zx=0.0, kappa=0.0)


def _sched(theta, n_values=(0, 1, 2), m=4):
    return PseudoidentitySchedule(theta_full=theta, n_values=tuple(n_values), m=m)


# ---------------------------------------------------------------------------
# validation

def test_schedule_validation():
    with pytest.raises(ValueError):
        _sched(1.0, n_values=())
    with pytest.raises(ValueError):
        _sched(1.0, n_values=(0, 2, 1))
    with pytest.raises(ValueError):
        PseudoidentitySchedule(theta_full=1.0, n_values=(0,), bases=("Q",))
    # bases are canonicalised to X, Y, Z order
    s = PseudoidentitySchedule(theta_full=1.0, n_values=(0,), bases=("Z", "X"))
    assert s.bases == ("X", "Z")
    assert s.duration == 8
    assert s.theta_gate == pytest.approx(0.25)


def test_schedule_dict_roundtrip():
    s = _sched(1.3, n_values=(0, 5, 10), m=3)
    assert PseudoidentitySchedule.from_dict(s.to_dict()) == s
    with pytest.raises(ValueError):
        PseudoidentitySchedule.from_dict({"theta_full": 1.0, "n_values": [0], "junk": 1})


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n_values": (0, 2.5, 7.9)},
        {"n_values": (0, True)},
        {"n_values": (0, "3")},
        {"n_values": (0, math.inf)},
        {"m": 4.5},
        {"m": True},
        {"m": np.bool_(True)},
        {"m": 0},
    ],
)
def test_schedule_rejects_non_integral_counts(kwargs):
    with pytest.raises(ValueError):
        PseudoidentitySchedule(**{"theta_full": 1.0, "n_values": (0, 1), **kwargs})


@pytest.mark.parametrize(
    "bad",
    [
        {"theta_full": True},
        {"theta_full": "0.5"},
        {"theta_full": None},
        {"theta_full": math.nan},
        {"bases": "XZ"},
    ],
)
def test_schedule_from_dict_rejects_coercible_values(bad):
    with pytest.raises(ValueError):
        PseudoidentitySchedule.from_dict({"theta_full": 1.0, "n_values": [0, 1], **bad})


def test_schedule_accepts_integral_numbers():
    s = PseudoidentitySchedule(theta_full=1.0, n_values=(np.int64(0), 3.0), m=2.0)
    assert s.n_values == (0, 3) and s.m == 2
    assert all(type(n) is int for n in s.n_values) and type(s.m) is int


# ---------------------------------------------------------------------------
# the two-half block against the gate-by-gate product

@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 10_000),
    tls=st.booleans(),
    theta=st.floats(-4 * math.pi, 4 * math.pi),
    m=st.integers(1, 8),
)
def test_block_equals_gate_by_gate_product(seed, tls, theta, m):
    rng = np.random.default_rng(seed)
    if tls:
        params, generator = draw_qubit_tls(rng), qubit_tls_generator
    else:
        params, generator = draw_markovian(rng), markovian_generator
    omega = theta / (2 * m)
    plus = propagate(generator(params, omega), 1.0)
    minus = propagate(generator(params, -omega), 1.0)
    slow = np.eye(plus.shape[0])
    for gate in [plus] * m + [minus] * m:
        slow = gate @ slow
    sup = schedule_superoperator(params, _sched(theta, m=m))
    assert np.max(np.abs(sup - slow)) < 1e-11


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 10_000),
    tls=st.booleans(),
    theta=st.floats(0.0, 4 * math.pi),
    m=st.integers(1, 8),
)
def test_block_is_array_with_exact_trace_row(seed, tls, theta, m):
    # the trace row is exact, so any unit-trace state keeps c_0 = 1 bit for bit
    rng = np.random.default_rng(seed)
    params = draw_qubit_tls(rng) if tls else draw_markovian(rng)
    sup = schedule_superoperator(params, _sched(theta, m=m))
    dim = 16 if tls else 4
    assert type(sup) is np.ndarray and sup.dtype == np.float64 and sup.shape == (dim, dim)
    assert np.array_equal(sup[0], np.eye(dim)[0])
    c = np.concatenate([[1.0], rng.uniform(-1.0, 1.0, dim - 1)])
    assert (sup @ c)[0] == 1.0


# ---------------------------------------------------------------------------
# echo identities

@pytest.mark.parametrize("theta", [0.4, 2.0, math.pi, 2 * math.pi, 5.7])
def test_noiseless_pseudoidentity_is_identity(theta):
    sup = schedule_superoperator(NOISELESS_M, _sched(theta))
    assert np.max(np.abs(sup - np.eye(4))) < 1e-12


def test_idle_pseudoidentity_equals_free_evolution():
    p = MarkovianParams(delta_omega=0.05, gamma_ad=0.003, gamma_d=0.007)
    sup = schedule_superoperator(p, _sched(0.0))
    idle = propagate(markovian_generator(p), 8.0)
    assert np.max(np.abs(sup - idle)) < 1e-12


def test_detuning_phase_accumulates_when_idle():
    # phase 2 delta_omega per gate unit, exactly, over the idle block
    p = MarkovianParams(delta_omega=0.02, gamma_ad=0.0, gamma_d=0.0)
    traj = predict_trajectory(p, _sched(0.0, n_values=(0, 1, 7)))
    for n in (0, 1, 7):
        phase = 2.0 * p.delta_omega * 8.0 * n
        assert traj[n][0] == pytest.approx(math.cos(phase), abs=1e-10)
        assert traj[n][1] == pytest.approx(math.sin(phase), abs=1e-10)


def test_drive_rescales_detuning_by_sinc():
    # first-order average Hamiltonian: the toggling-frame sigma_z averages to
    # sin(theta_full)/theta_full over each half, so the block phase is
    # 2 delta_omega 2m sinc(theta_full)
    p = MarkovianParams(delta_omega=0.002, gamma_ad=0.0, gamma_d=0.0)
    for theta in (0.5, 2.0):
        traj = predict_trajectory(p, _sched(theta, n_values=(0, 10)))
        phase = math.atan2(traj[10][1], traj[10][0])
        expected = 2.0 * p.delta_omega * 80.0 * math.sin(theta) / theta
        assert phase == pytest.approx(expected, rel=0.05)


def test_trajectory_matches_matrix_power():
    p = QubitTLSParams(delta_omega=0.01, gamma_ad=0.001, gamma_d=0.002, nu_zx=0.03, kappa=0.05)
    sched = _sched(1.5, n_values=(0, 3, 11))
    traj = predict_trajectory(p, sched)
    sup = schedule_superoperator(p, sched)
    c0 = PauliVector.plus_tls_ground().coeffs
    for n in sched.n_values:
        ref = np.linalg.matrix_power(sup, n) @ c0
        assert np.allclose(traj[n], ref[[4, 8, 12]], atol=1e-9)


def test_idle_trajectory_matches_closed_forms():
    sched = _sched(0.0, n_values=(0, 2, 9))
    cases = [
        (MarkovianParams(delta_omega=0.03, gamma_ad=0.002, gamma_d=0.004), markovian_idle_bloch),
        (
            QubitTLSParams(delta_omega=0.03, gamma_ad=0.002, gamma_d=0.004, nu_zx=0.02, kappa=0.1),
            qubit_tls_idle_bloch,
        ),
        (
            PMMEParams(delta_omega=0.03, gamma_ad=0.002, gamma_d=0.004, gamma_z=0.0008, b=-0.0004),
            pmme_idle_bloch,
        ),
    ]
    for params, closed in cases:
        traj = predict_trajectory(params, sched)
        for n in sched.n_values:
            assert np.allclose(traj[n], closed(params, np.array([8.0 * n]))[0], atol=1e-10)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10_000), tls=st.booleans(), m=st.integers(1, 8))
def test_idle_closed_form_matches_block_engine(seed, tls, m):
    # the idle fast path against the engine route it replaces
    rng = np.random.default_rng(seed)
    params = draw_qubit_tls(rng) if tls else draw_markovian(rng)
    sched = _sched(0.0, n_values=range(151), m=m)
    engine = PowerEngine(schedule_superoperator(params, sched))
    if tls:
        slow = engine.states(np.arange(151), PauliVector.plus_tls_ground().coeffs)[:, [4, 8, 12]]
    else:
        slow = engine.states(np.arange(151), PauliVector.plus().coeffs)[:, 1:4]
    assert np.max(np.abs(bloch_trajectory(params, sched) - slow)) < 1e-11


# ---------------------------------------------------------------------------
# closed-form trajectory Jacobian

# Per-parameter ranges, each well away from zero.  At the 2 pi echo the
# delta_omega, nu_zx and kappa columns shrink by orders of magnitude, and a
# difference oracle resolves a column to 1e-6 only while the parameter's
# first-order effect on the trajectory stays well above its roundoff (about
# 1e-14 per point, over a relative step of 1e-3).  At the fits' m = 4 these
# ranges keep every column there (worst 3.5e-7 over their corners); the
# insensitive points below them are checked against an exact reference in
# test_jacobian_at_the_echo_matches_the_frechet_product_rule.
_PARAM_RANGES = {
    "delta_omega": (5e-3, 2e-2), "gamma_ad": (1e-5, 1e-3), "gamma_d": (1e-5, 1e-3),
    "nu_zx": (5e-3, 2e-2), "kappa": (1e-2, 0.05),
}
_GRID = tuple(range(0, 151, 10))


@pytest.mark.parametrize("theta", [0.0, 1e-3, math.pi / 5, math.pi, 2.0 * math.pi, -math.pi / 3])
@pytest.mark.parametrize("model, columns", [
    ("markovian", (0, 1, 2)),
    ("qubit_tls", (0, 1, 2, 3)),  # kappa frozen at 0
    ("qubit_tls", (0, 1, 2, 3, 4)),
])
@settings(max_examples=15, deadline=None, derandomize=True)
@given(units=st.lists(st.floats(0.0, 1.0), min_size=5, max_size=5), negative=st.booleans())
def test_jacobian_matches_finite_differences(model, columns, theta, units, negative):
    names = PARAM_NAMES[model]
    values = np.array([lo + (hi - lo) * u for n, u in zip(names, units) for lo, hi in [_PARAM_RANGES[n]]])
    values[0] *= -1.0 if negative else 1.0  # delta_omega of either sign
    values[[i for i in range(len(names)) if i not in columns]] = 0.0
    sched = PseudoidentitySchedule(theta_full=theta, n_values=_GRID)

    def predict(x):
        v = values.copy()
        v[list(columns)] = x
        return bloch_trajectory(MODEL_TAGS[model](*v), sched)

    jac = bloch_jacobian(MODEL_TAGS[model](*values), sched, columns)
    oracle = relative_step_jacobian(predict, values[list(columns)], [names[i] in RATES for i in columns])
    assert jac.shape == (len(_GRID), 3, len(columns))
    for i, col in enumerate(columns):
        err = np.linalg.norm(jac[..., i] - oracle[..., i])
        assert err <= 1e-6 * np.linalg.norm(oracle[..., i]), (names[col], err)


@pytest.mark.parametrize("params", [
    MarkovianParams(delta_omega=0.0, gamma_ad=1e-5, gamma_d=1e-5),
    QubitTLSParams(delta_omega=0.0, gamma_ad=1e-5, gamma_d=1e-5, nu_zx=1e-4, kappa=1e-4),
    QubitTLSParams(delta_omega=-0.01, gamma_ad=1e-5, gamma_d=1e-5, nu_zx=1e-4, kappa=0.0),
])
@pytest.mark.parametrize("m", [1, 2, 4])
def test_jacobian_at_the_echo_matches_the_frechet_product_rule(params, m):
    # At the 2 pi echo with no detuning or a weak TLS, columns fall to 1e-8
    # of the others, below any difference oracle.  The reference is built
    # from scipy's separate Frechet derivative (Al-Mohy & Higham 2009) of
    # each half: d Lambda = dE_- E_+ + E_- dE_+, then d Lambda^n c0 stepped
    # as d s_{n+1} = Lambda d s_n + d Lambda s_n.
    sched = _sched(2.0 * math.pi, n_values=_GRID, m=m)
    model = "markovian" if isinstance(params, MarkovianParams) else "qubit_tls"
    generator = markovian_generator if model == "markovian" else qubit_tls_generator
    omega = sched.theta_full / (2.0 * m)
    c0 = (PauliVector.plus() if model == "markovian" else PauliVector.plus_tls_ground()).coeffs
    axes = [1, 2, 3] if model == "markovian" else [4, 8, 12]
    columns = range(len(PARAM_NAMES[model]))
    jac = bloch_jacobian(params, sched, columns)
    for i, term in zip(columns, generator_terms(model)):
        e_plus, de_plus = expm_frechet(m * generator(params, omega), m * term)
        e_minus, de_minus = expm_frechet(m * generator(params, -omega), m * term)
        lam, dlam = e_minus @ e_plus, de_minus @ e_plus + e_minus @ de_plus
        state, dstate, ref = c0, np.zeros_like(c0), []
        for n in range(_GRID[-1] + 1):
            if n in _GRID:
                ref.append(dstate[axes])
            state, dstate = lam @ state, lam @ dstate + dlam @ state
        ref = np.array(ref)
        assert np.linalg.norm(jac[..., i] - ref) <= 1e-6 * np.linalg.norm(ref), i


def test_jacobian_leaves_out_unlisted_parameters():
    p = QubitTLSParams(delta_omega=0.002, gamma_ad=3.6e-5, gamma_d=1.9e-4, nu_zx=0.0027, kappa=0.01)
    sched = _sched(math.pi / 5, n_values=range(0, 61, 10))
    full = bloch_jacobian(p, sched, range(5))
    assert np.allclose(bloch_jacobian(p, sched, [3, 0]), full[:, :, [3, 0]], rtol=1e-10, atol=1e-14)


def test_pmme_jacobian_is_idle_only():
    p = PMMEParams(delta_omega=0.01, gamma_ad=0.0, gamma_d=0.0, gamma_z=0.001, b=0.0)
    assert bloch_jacobian(p, _sched(0.0), [3, 4]).shape == (3, 3, 2)
    with pytest.raises(UnsupportedModelError):
        bloch_jacobian(p, _sched(1.0), [0])


def test_pmme_rejects_driven_schedule():
    p = PMMEParams(delta_omega=0.01, gamma_ad=0.0, gamma_d=0.0, gamma_z=0.001, b=0.0)
    with pytest.raises(UnsupportedModelError):
        bloch_trajectory(p, _sched(1.0))
    with pytest.raises(UnsupportedModelError):
        predict_trajectory(p, _sched(1.0))
    with pytest.raises(UnsupportedModelError):
        schedule_superoperator(p, _sched(0.0))


def test_two_pi_suppresses_tls_signature():
    # driving at theta_full = 2 pi echoes the TLS coupling away almost fully,
    # while the idle sequence dephases deeply over the same horizon
    p = QubitTLSParams(delta_omega=0.0, gamma_ad=0.0, gamma_d=0.0, nu_zx=0.02, kappa=0.0)
    n_values = tuple(range(0, 21))
    driven = predict_trajectory(p, _sched(2 * math.pi, n_values=n_values))
    idle = predict_trajectory(p, _sched(0.0, n_values=n_values))
    dev_driven = max(abs(driven[n][0] - 1.0) for n in n_values)
    dev_idle = max(abs(idle[n][0] - 1.0) for n in n_values)
    assert dev_driven < 0.02
    assert dev_idle > 1.0  # cos(2 nu t) swings negative over this range


# ---------------------------------------------------------------------------
# composite-unitary error scaling

def test_unitary_mirror_is_exact():
    for theta in (0.3, 1.7, 2 * math.pi):
        u = pseudoidentity_unitary(theta, m=4)
        assert np.max(np.abs(u - np.eye(2))) < 1e-14


def test_over_rotation_cancels_exactly():
    # both halves share the drive axis, so the mirrored block inverts itself
    for eps in (0.01, 0.05):
        u = pseudoidentity_unitary(2 * math.pi, m=4, over_rotation=eps)
        dev = np.max(np.abs(u - np.eye(2)))
        assert dev < eps**2  # comfortably O(eps^2); measured ~1e-17


def test_sigma_z_error_cubic_phase():
    # residual diagonal phase of the 2 pi sequence grows as pi eps^3
    for eps in (0.01, 0.03, 0.05):
        u = pseudoidentity_unitary(2 * math.pi, m=4, sigma_z_error=eps)
        phase = abs(np.angle(u[0, 0]))
        assert phase == pytest.approx(math.pi * eps**3, rel=0.2)


def test_sigma_z_error_quintic_off_diagonal():
    for eps in (0.02, 0.05):
        u = pseudoidentity_unitary(2 * math.pi, m=4, sigma_z_error=eps)
        assert abs(u[0, 1]) == pytest.approx((math.pi**2 / 2.0) * eps**5, rel=0.3)


def test_unitary_m_is_a_positive_integer():
    # the schedule's rule for m: no bool, any integral number
    with pytest.raises(ValueError):
        pseudoidentity_unitary(1.1, m=True)
    u = pseudoidentity_unitary(1.1, m=np.int64(4), over_rotation=0.02)
    assert np.array_equal(u, pseudoidentity_unitary(1.1, m=4, over_rotation=0.02))


def test_unitary_stays_unitary():
    u = pseudoidentity_unitary(1.1, m=4, over_rotation=0.02, sigma_z_error=0.03)
    assert np.allclose(u @ u.conj().T, np.eye(2), atol=1e-12)
