"""Noise-model generators, closed forms, numeric oracles, and the mapping."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from noiselab.models import (
    MODEL_TAGS,
    PARAM_NAMES,
    RATES,
    MarkovianParams,
    PMMEParams,
    QubitTLSParams,
    effective_dephasing,
    generator_terms,
    idle_bloch_jacobian,
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
from noiselab.oracles import (
    draw_markovian,
    draw_pmme,
    draw_qubit_tls,
    evolve_state,
    markovian_engine_vs_rk4,
    pmme_closed_form_vs_kernel_integration,
    qubit_tls_engine_vs_closed_form,
    tls_pmme_mapped_equivalence,
)
from conftest import relative_step_jacobian
from noiselab.pauli import (
    PauliVector,
    density_matrix,
    from_density_matrix,
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


@pytest.mark.parametrize("model", sorted(MODEL_TAGS))
def test_exactly_the_rates_reject_negative_values(model):
    cls = MODEL_TAGS[model]
    assert PARAM_NAMES[model] == tuple(params_to_dict(cls()))[1:]
    for name in PARAM_NAMES[model]:
        if name in RATES:
            with pytest.raises(ValueError, match=name):
                cls(**{name: -1e-3})
        else:
            assert getattr(cls(**{name: -1e-3}), name) == -1e-3


@pytest.mark.parametrize("value", [True, "0.01", None, math.nan])
def test_params_reject_coercible_values(value):
    with pytest.raises(ValueError):
        params_from_dict({"model": "markovian", "delta_omega": value, "gamma_ad": 0, "gamma_d": 0})
    with pytest.raises(ValueError):
        params_from_dict({"model": "markovian", "delta_omega": 0, "gamma_ad": value, "gamma_d": 0})


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
    assert markovian_engine_vs_rk4(np.random.default_rng(11), 10) < 1e-9


def test_markovian_idle_bloch_matches_generator():
    rng = np.random.default_rng(3)
    for _ in range(5):
        p = draw_markovian(rng)
        gen = markovian_generator(p)
        t = np.array([0.0, 1.3, 8.0, 40.0])
        closed = markovian_idle_bloch(p, t)
        for row, ti in zip(closed, t):
            out = propagate(gen, ti) @ PauliVector.plus().coeffs
            assert np.allclose(row, out[1:], atol=1e-11)


@pytest.mark.parametrize("draw, generator", [
    (draw_markovian, markovian_generator), (draw_qubit_tls, qubit_tls_generator),
])
def test_generator_is_the_drive_plus_its_unit_terms(draw, generator):
    rng = np.random.default_rng(4)
    for _ in range(5):
        p, drive = draw(rng), rng.normal()
        terms = generator_terms(model_tag(p))
        assert terms.shape[0] == len(PARAM_NAMES[model_tag(p)]) and not terms.flags.writeable
        values = [getattr(p, name) for name in PARAM_NAMES[model_tag(p)]]
        rebuilt = generator(type(p)(), drive) + np.tensordot(values, terms, axes=1)
        assert np.allclose(generator(p, drive), rebuilt, rtol=0.0, atol=1e-15)


def test_driven_generator_rotates_x_axis():
    p = MarkovianParams(delta_omega=0.0, gamma_ad=0.0, gamma_d=0.0)
    gen = markovian_generator(p, drive=math.pi / 4)
    out = propagate(gen, 1.0) @ PauliVector.ground().coeffs
    # Omega t = pi/4 is a half-angle: Bloch rotation about +x by pi/2, z -> -y
    assert out[2] == pytest.approx(-1.0, abs=1e-12)
    assert out[3] == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# qubit-TLS: 16-dim engine vs closed form vs RK4

def test_tls_closed_form_vs_engine():
    assert qubit_tls_engine_vs_closed_form(np.random.default_rng(42), 30) < 1e-10


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
        ours = propagate(qubit_tls_generator(p), t) @ PauliVector.plus_tls_ground().coeffs
        ref = evolve_state(h, jumps, PauliVector.plus_tls_ground(), t)
        assert np.allclose(ours, ref.coeffs, atol=1e-8)


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
    full = propagate(qubit_tls_generator(p), 12.0) @ PauliVector.plus_tls_ground().coeffs
    assert bloch.shape == (1, 3)
    assert np.allclose(bloch[0], full[[4, 8, 12]], atol=1e-12)


def test_engine_marginal_matches_partial_trace():
    p = QubitTLSParams(delta_omega=0.07, gamma_ad=0.004, gamma_d=0.002, nu_zx=0.05, kappa=0.1)
    full = propagate(qubit_tls_generator(p), 9.0) @ PauliVector.plus_tls_ground().coeffs
    # trace the TLS (second factor) out of the density matrix directly
    rho = density_matrix(PauliVector(full)).reshape(2, 2, 2, 2)
    marg = from_density_matrix(np.einsum("ajbj->ab", rho))
    assert np.allclose(marg.coeffs, full[[0, 4, 8, 12]], atol=1e-14)


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
# closed-form idle Jacobian

_IDLE_T = 8.0 * np.arange(0, 151, 10)  # t = 2 m n on the README idle grid, m = 4
_IDLE_BLOCH = {
    "markovian": markovian_idle_bloch,
    "qubit_tls": qubit_tls_idle_bloch,
    "pmme": pmme_idle_bloch,
}


def _jacobian_case(regime, base, nu, g, q, r):
    """One parameter set per branch of the bracket derivatives."""
    if regime == "markovian":
        return MarkovianParams(**base)
    if regime == "kappa_zero":
        return QubitTLSParams(nu_zx=nu, kappa=0.0, **base)
    if regime == "underdamped":
        return QubitTLSParams(nu_zx=nu, kappa=8.0 * nu * (0.05 + 0.9 * q), **base)
    if regime == "overdamped":
        return QubitTLSParams(nu_zx=nu, kappa=8.0 * nu * (1.1 + 5.0 * q), **base)
    if regime == "critical":
        # kappa/4 = 2 nu to 1e-10: |t D| < 1e-3 on the whole grid
        return QubitTLSParams(nu_zx=nu, kappa=8.0 * nu * (1.0 + 1e-10 * (2.0 * q - 1.0)), **base)
    if regime == "large_kappa":
        # overdamped at kappa t up to 6000, far past where cosh(t D) overflows
        kappa = 1.0 + 4.0 * q
        return QubitTLSParams(nu_zx=kappa * (0.2 + 0.7 * r) / 8.0, kappa=kappa, **base)
    if regime == "pmme_gamma_z_zero":
        return PMMEParams(gamma_z=0.0, b=-0.01 + 0.06 * q, **base)
    if regime == "pmme_physical":
        return PMMEParams(gamma_z=g, b=-2.0 * g + 0.05 * q, **base)
    assert regime == "pmme_below_minus_two_gamma_z"
    return PMMEParams(gamma_z=g, b=-2.0 * g - 1e-6 - 1e-3 * q, **base)


@pytest.mark.parametrize("regime", [
    "markovian", "kappa_zero", "underdamped", "overdamped", "critical", "large_kappa",
    "pmme_gamma_z_zero", "pmme_physical", "pmme_below_minus_two_gamma_z",
])
@settings(max_examples=15, deadline=None, derandomize=True)
@given(
    dw=st.floats(-0.01, 0.01),
    gad=st.floats(1e-5, 1e-3),
    gd=st.floats(1e-5, 1e-3),
    nu=st.floats(1e-4, 1e-2),
    g=st.floats(1e-5, 1e-3),
    q=st.floats(0.0, 1.0),
    r=st.floats(0.0, 1.0),
)
def test_idle_jacobian_matches_finite_differences(regime, dw, gad, gd, nu, g, q, r):
    params = _jacobian_case(regime, dict(delta_omega=dw, gamma_ad=gad, gamma_d=gd), nu, g, q, r)
    tag = model_tag(params)
    names = PARAM_NAMES[tag]
    if regime == "critical":
        s = params.kappa / 4.0
        assert _IDLE_T[-1] * math.sqrt(abs(s * s - 4.0 * params.nu_zx**2)) < 1e-3
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        jac = idle_bloch_jacobian(params, _IDLE_T)
    assert jac.shape == (len(_IDLE_T), 3, len(names))
    assert np.all(np.isfinite(jac))
    oracle = relative_step_jacobian(
        lambda x: _IDLE_BLOCH[tag](MODEL_TAGS[tag](*x), _IDLE_T),
        [getattr(params, n) for n in names], [n in RATES for n in names],
    )
    # per column; the floor covers d/db at gamma_z = 0, identically zero
    floor = 1e-9 * np.linalg.norm(oracle)
    for i, name in enumerate(names):
        err = np.linalg.norm(jac[..., i] - oracle[..., i])
        assert err <= 1e-6 * np.linalg.norm(oracle[..., i]) + floor, (name, err)


# ---------------------------------------------------------------------------
# memory-kernel model

def test_pmme_closed_form_vs_numeric_oracle():
    assert pmme_closed_form_vs_kernel_integration(np.random.default_rng(21), 5) < 1e-5


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
    assert tls_pmme_mapped_equivalence(np.random.default_rng(7), 10) < 1e-12


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
