"""Noise-model generators, closed forms, numeric oracles, and the mapping."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import draw_markovian, draw_pmme, draw_qubit_tls
from noiselab.models import (
    MarkovianParams,
    PMMEParams,
    QubitTLSParams,
    effective_dephasing,
    map_pmme_to_qubit_tls,
    map_qubit_tls_to_pmme,
    markovian_generator,
    markovian_idle_bloch,
    model_tag,
    params_from_dict,
    params_to_dict,
    pmme_idle_bloch,
    pmme_numeric_oracle,
    qubit_tls_generator,
    qubit_tls_idle_bloch,
)
from noiselab.oracles import evolve_state
from noiselab.pauli import (
    PauliVector,
    PowerEngine,
    partial_trace_tls,
    pauli_string_matrix,
    propagate,
)

L_AD = np.array([[0.0, 1.0], [0.0, 0.0]])


# ---------------------------------------------------------------------------
# parameter containers

def test_rate_validation():
    with pytest.raises(ValueError):
        MarkovianParams(delta_omega=0.0, gamma_ad=-1e-9, gamma_d=0.0)
    with pytest.raises(ValueError):
        QubitTLSParams(delta_omega=0.0, gamma_ad=0.0, gamma_d=0.0, nu_zx=-0.1, kappa=0.0)
    with pytest.raises(ValueError):
        PMMEParams(delta_omega=0.0, gamma_ad=0.0, gamma_d=0.0, gamma_z=-1e-12, b=0.0)
    # b may be negative (it often is)
    PMMEParams(delta_omega=0.0, gamma_ad=0.0, gamma_d=0.0, gamma_z=0.01, b=-0.02)


def test_dict_roundtrip():
    rng = np.random.default_rng(0)
    for draw in (draw_markovian, draw_qubit_tls, draw_pmme):
        p = draw(rng)
        d = params_to_dict(p)
        assert d["model"] == model_tag(p)
        assert params_from_dict(d) == p
    with pytest.raises(ValueError):
        params_from_dict({"model": "markovian", "delta_omega": 0, "gamma_ad": 0, "gamma_d": 0, "zzz": 1})
    with pytest.raises(ValueError):
        params_from_dict({"delta_omega": 0.0})


# ---------------------------------------------------------------------------
# Markovian generator vs RK4

def test_markovian_generator_vs_rk4():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(10):
        p = draw_markovian(rng)
        gen = markovian_generator(p)
        h = p.delta_omega * pauli_string_matrix("Z", 1)
        jumps = [(L_AD, p.gamma_ad), (pauli_string_matrix("Z", 1), p.gamma_d)]
        for t in (0.7, 6.0, 25.0):
            ours = propagate(gen, t).apply(PauliVector.plus())
            ref = evolve_state(h, jumps, PauliVector.plus(), t)
            worst = max(worst, float(np.max(np.abs(ours.coeffs - ref.coeffs))))
    assert worst < 1e-9


def test_markovian_idle_bloch_matches_generator():
    rng = np.random.default_rng(3)
    for _ in range(5):
        p = draw_markovian(rng)
        gen = markovian_generator(p)
        t = np.array([0.0, 1.3, 8.0, 40.0])
        closed = markovian_idle_bloch(p, t)
        for row, ti in zip(closed, t):
            out = propagate(gen, ti).apply(PauliVector.plus())
            assert np.allclose(row, out.coeffs[1:], atol=1e-11)


def test_driven_generator_rotates_x_axis():
    p = MarkovianParams(delta_omega=0.0, gamma_ad=0.0, gamma_d=0.0)
    gen = markovian_generator(p, drive=math.pi / 4)
    out = propagate(gen, 1.0).apply(PauliVector.ground())
    # Omega t = pi/4 is a half-angle: Bloch rotation about +x by pi/2, z -> -y
    assert out.coeffs[2] == pytest.approx(-1.0, abs=1e-12)
    assert out.coeffs[3] == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# qubit-TLS: 16-dim engine vs closed form vs RK4

def _tls_idle_engine_bloch(p: QubitTLSParams, ns: np.ndarray, step: float) -> np.ndarray:
    sup = propagate(qubit_tls_generator(p), step)
    engine = PowerEngine(sup.matrix)
    states = engine.states(ns, PauliVector.plus_tls_ground().coeffs)
    return states[:, [4, 8, 12]]


def test_tls_closed_form_vs_engine():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(30):
        p = draw_qubit_tls(rng)
        ns = np.arange(0, 41)
        closed = qubit_tls_idle_bloch(p, ns * 5.0)
        engine = _tls_idle_engine_bloch(p, ns, 5.0)
        worst = max(worst, float(np.max(np.abs(closed - engine))))
    assert worst < 1e-10


def test_tls_engine_vs_rk4():
    rng = np.random.default_rng(5)
    p = draw_qubit_tls(rng)
    h = p.delta_omega * pauli_string_matrix("ZI", 2) + p.nu_zx * pauli_string_matrix("ZX", 2)
    jumps = [
        (np.kron(L_AD, np.eye(2)), p.gamma_ad),
        (pauli_string_matrix("ZI", 2), p.gamma_d),
        (np.kron(np.eye(2), L_AD), p.kappa),
    ]
    for t in (2.0, 15.0):
        ours = propagate(qubit_tls_generator(p), t).apply(PauliVector.plus_tls_ground())
        ref = evolve_state(h, jumps, PauliVector.plus_tls_ground(), t)
        assert np.allclose(ours.coeffs, ref.coeffs, atol=1e-8)


def test_tls_beat_structure_kappa_zero():
    # without TLS relaxation the coherence is an exact two-phasor beat
    p = QubitTLSParams(delta_omega=0.05, gamma_ad=0.0, gamma_d=0.003, nu_zx=0.02, kappa=0.0)
    for t in (3.0, 17.0, 60.0):
        env = math.exp(-2.0 * p.gamma_d * t)
        cx, cy, cz = qubit_tls_idle_bloch(p, np.array([t]))[0]
        assert cx == pytest.approx(env * math.cos(2 * p.delta_omega * t) * math.cos(2 * p.nu_zx * t), abs=1e-12)
        assert cy == pytest.approx(env * math.sin(2 * p.delta_omega * t) * math.cos(2 * p.nu_zx * t), abs=1e-12)
        assert cz == pytest.approx(0.0, abs=1e-12)


def test_tls_analytic_single_time():
    # a scalar time gives one row, equal to the engine's qubit marginal
    p = QubitTLSParams(delta_omega=0.1, gamma_ad=0.01, gamma_d=0.005, nu_zx=0.03, kappa=0.08)
    bloch = qubit_tls_idle_bloch(p, 12.0)
    full = propagate(qubit_tls_generator(p), 12.0).apply(PauliVector.plus_tls_ground())
    assert bloch.shape == (1, 3)
    assert np.allclose(bloch[0], full.coeffs[[4, 8, 12]], atol=1e-12)


def test_engine_marginal_matches_partial_trace():
    p = QubitTLSParams(delta_omega=0.07, gamma_ad=0.004, gamma_d=0.002, nu_zx=0.05, kappa=0.1)
    sup = propagate(qubit_tls_generator(p), 9.0)
    full = sup.apply(PauliVector.plus_tls_ground())
    marg = partial_trace_tls(full)
    assert np.allclose(marg.coeffs[1:], full.coeffs[[4, 8, 12]], atol=1e-14)


# ---------------------------------------------------------------------------
# memory bracket robustness

def test_bracket_no_overflow_at_long_times():
    # underdamped, overdamped, and critically damped all stay finite at huge t
    cases = [
        QubitTLSParams(delta_omega=0.0, gamma_ad=0.0, gamma_d=0.0, nu_zx=0.3, kappa=0.01),
        QubitTLSParams(delta_omega=0.0, gamma_ad=0.0, gamma_d=0.0, nu_zx=0.001, kappa=1.0),
        QubitTLSParams(delta_omega=0.0, gamma_ad=0.0, gamma_d=0.0, nu_zx=0.05, kappa=0.4),
    ]
    t = np.array([0.0, 1.0, 1e3, 1e5])
    for p in cases:
        out = qubit_tls_idle_bloch(p, t)
        assert np.all(np.isfinite(out))
        assert np.all(np.abs(out) <= 1.0 + 1e-9)
        assert np.allclose(out[0], [1.0, 0.0, 0.0], atol=1e-14)  # t = 0


def test_bracket_continuous_at_degenerate_split():
    # kappa/4 = 2 nu: the cosh/sinh argument crosses zero; check continuity
    nu = 0.05
    base = dict(delta_omega=0.0, gamma_ad=0.0, gamma_d=0.0)
    t = np.linspace(0.0, 80.0, 30)
    at = qubit_tls_idle_bloch(QubitTLSParams(nu_zx=nu, kappa=8.0 * nu, **base), t)
    lo = qubit_tls_idle_bloch(QubitTLSParams(nu_zx=nu, kappa=8.0 * nu * (1 - 1e-7), **base), t)
    hi = qubit_tls_idle_bloch(QubitTLSParams(nu_zx=nu, kappa=8.0 * nu * (1 + 1e-7), **base), t)
    assert np.max(np.abs(at - lo)) < 1e-6
    assert np.max(np.abs(at - hi)) < 1e-6


# ---------------------------------------------------------------------------
# memory-kernel model

def test_pmme_closed_form_vs_numeric_oracle():
    rng = np.random.default_rng(21)
    t = np.arange(0.0, 10.0 + 1e-12, 0.01)
    worst = 0.0
    for _ in range(5):
        p = draw_pmme(rng)
        numeric = np.array([s.coeffs[1:] for s in pmme_numeric_oracle(p, t)])
        worst = max(worst, float(np.max(np.abs(numeric - pmme_idle_bloch(p, t)))))
    assert worst < 1e-5


def test_pmme_oracle_second_order_convergence():
    # deliberately stiff draw; halving the step must cut the error by >= 3x
    p = PMMEParams(delta_omega=0.5, gamma_ad=0.0, gamma_d=0.0, gamma_z=0.5, b=0.3)
    errs = []
    for h in (0.01, 0.005):
        t = np.arange(0.0, 5.0 + 1e-12, h)
        numeric = np.array([s.coeffs[1:] for s in pmme_numeric_oracle(p, t)])
        errs.append(float(np.max(np.abs(numeric - pmme_idle_bloch(p, t)))))
    assert errs[0] / errs[1] >= 3.0


def test_pmme_oracle_grid_validation():
    p = PMMEParams(delta_omega=0.1, gamma_ad=0.0, gamma_d=0.0, gamma_z=0.01, b=0.0)
    with pytest.raises(ValueError):
        pmme_numeric_oracle(p, [0.0, 0.1, 0.3])  # non-uniform
    with pytest.raises(ValueError):
        pmme_numeric_oracle(p, [0.0, 0.1, 0.2])  # step too coarse
    with pytest.raises(ValueError):
        pmme_numeric_oracle(p, [0.5, 0.51, 0.52])  # must start at 0


def test_pmme_gamma_z_zero_is_markovian():
    p = PMMEParams(delta_omega=0.08, gamma_ad=0.004, gamma_d=0.009, gamma_z=0.0, b=0.7)
    m = MarkovianParams(delta_omega=0.08, gamma_ad=0.004, gamma_d=0.009)
    t = np.linspace(0.0, 50.0, 23)
    assert np.allclose(pmme_idle_bloch(p, t), markovian_idle_bloch(m, t), atol=1e-14)


# ---------------------------------------------------------------------------
# model mapping

def test_mapping_formulas():
    p = QubitTLSParams(delta_omega=0.01, gamma_ad=0.002, gamma_d=0.003, nu_zx=0.05, kappa=0.12)
    mapped = map_qubit_tls_to_pmme(p)
    assert mapped.gamma_z == 2.0 * p.nu_zx**2
    assert mapped.b == 0.5 * p.kappa - 4.0 * p.nu_zx**2
    back = map_pmme_to_qubit_tls(mapped)
    assert back == p


def test_mapped_idle_trajectories_identical():
    rng = np.random.default_rng(7)
    t = np.linspace(0.0, 100.0, 101)
    worst = 0.0
    for _ in range(10):
        p = draw_qubit_tls(rng, with_gamma_ad=False)
        dev = np.max(np.abs(qubit_tls_idle_bloch(p, t) - pmme_idle_bloch(map_qubit_tls_to_pmme(p), t)))
        worst = max(worst, float(dev))
    assert worst < 1e-12


def test_mapping_infeasible_inverse():
    p = PMMEParams(delta_omega=0.0, gamma_ad=0.0, gamma_d=0.0, gamma_z=0.001, b=-0.01)
    with pytest.raises(ValueError, match="kappa"):
        map_pmme_to_qubit_tls(p)


def test_effective_dephasing_mapping_invariant():
    p = QubitTLSParams(delta_omega=0.0, gamma_ad=0.0, gamma_d=0.004, nu_zx=0.03, kappa=0.2)
    assert effective_dephasing(p) == pytest.approx(0.004 + 0.2 / 8.0, abs=1e-15)
    assert effective_dephasing(map_qubit_tls_to_pmme(p)) == pytest.approx(effective_dephasing(p), abs=1e-15)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(
    nu=st.floats(0.0, 0.5),
    kappa=st.floats(0.0, 1.0),
    gd=st.floats(0.0, 0.1),
    dw=st.floats(-0.5, 0.5),
)
def test_map_roundtrip_property(nu, kappa, gd, dw):
    p = QubitTLSParams(delta_omega=dw, gamma_ad=0.0, gamma_d=gd, nu_zx=nu, kappa=kappa)
    back = map_pmme_to_qubit_tls(map_qubit_tls_to_pmme(p))
    assert back.nu_zx == pytest.approx(p.nu_zx, abs=1e-12)
    assert back.kappa == pytest.approx(p.kappa, abs=1e-12)
