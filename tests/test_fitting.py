"""Model fitting: loss definition, exact recovery, invariants, uncertainty,
and drive-dependence ratios."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import relative_step_jacobian
from noiselab.analysis import detect_nonmarkovianity, record_table
from noiselab.fitting import (
    FitConfig,
    FitResult,
    _base_seeds,
    _build_blocks,
    _jacobian_function,
    _make_layout,
    _residual_function,
    _starts,
    fit_model,
    fit_to_dict,
    loss,
    parameter_ratios,
)
from noiselab.models import (
    RATES,
    MarkovianParams,
    PMMEParams,
    QubitTLSParams,
    UnsupportedModelError,
)
from noiselab.optim import central_jacobian, covariance_from_jacobian, minimize_multistart
from noiselab.oracles import draw_markovian, draw_pmme, draw_qubit_tls
from noiselab.schedule import PseudoidentitySchedule
from noiselab.synth import generate_batch, records_by_theta

IDLE = PseudoidentitySchedule(theta_full=0.0, n_values=tuple(range(0, 151, 10)))
SHORT_DRIVEN = PseudoidentitySchedule(theta_full=1.2566370614359172, n_values=tuple(range(0, 61, 10)))
PI_5 = replace(IDLE, theta_full=math.pi / 5)
_PAIR = (math.pi / 5, 0.0)
MARKOV = MarkovianParams(delta_omega=0.01, gamma_ad=1e-4, gamma_d=3e-4)
TLS = QubitTLSParams(delta_omega=0.002, gamma_ad=3.6e-5, gamma_d=1.9e-4, nu_zx=0.0027, kappa=0.0)
PMME = PMMEParams(delta_omega=0.002, gamma_ad=3.6e-5, gamma_d=1.9e-4, gamma_z=1.458e-5, b=-2.916e-5)


# ---------------------------------------------------------------------------
# loss

class TestLoss:
    def test_truth_parameters_give_zero_loss_on_exact_data(self):
        recs = generate_batch(TLS, IDLE, 0, 0)
        assert loss(TLS, recs) < 1e-20

    @pytest.mark.parametrize("draw", [draw_markovian, draw_qubit_tls, draw_pmme])
    def test_exact_idle_records_and_fits_share_one_prediction(self, draw):
        # records and loss both read schedule.bloch_trajectory, so the
        # residual at the generating parameters is exactly zero
        rng = np.random.default_rng(11)
        for _ in range(10):
            params, m = draw(rng), int(rng.integers(1, 9))
            sched = replace(IDLE, m=m)
            assert loss(params, generate_batch(params, sched, 0, 0), m=m) == 0.0

    @pytest.mark.parametrize("draw", [draw_markovian, draw_qubit_tls])
    def test_exact_driven_records_fit_their_truth(self, draw):
        # n = 0 values pass through sample_shots' clamp to [-1, 1], so
        # driven records agree to rounding, not exactly
        rng = np.random.default_rng(12)
        for _ in range(5):
            params, m = draw(rng), int(rng.integers(1, 9))
            sched = replace(SHORT_DRIVEN, m=m)
            driven = records_by_theta(generate_batch(params, sched, 0, 0))[sched.theta_full]
            assert loss(params, driven, m=m) < 1e-29

    def test_single_perturbed_record_contributes_its_square(self):
        recs = generate_batch(MARKOV, IDLE, 0, 0)
        delta = 0.0125
        recs[5] = replace(recs[5], expval=recs[5].expval - delta)
        assert loss(MARKOV, recs) == pytest.approx(delta**2, rel=1e-12)

    def test_duplicate_records_rejected(self):
        recs = generate_batch(MARKOV, IDLE, 0, 0)
        with pytest.raises(ValueError):
            loss(MARKOV, recs + recs[:1])

    def test_partial_basis_coverage_rejected(self):
        recs = [r for r in generate_batch(MARKOV, IDLE, 0, 0) if not (r.n == 50 and r.basis == "Y")]
        with pytest.raises(ValueError):
            loss(MARKOV, recs)

    def test_uneven_basis_coverage_names_theta(self):
        recs = [r for r in generate_batch(MARKOV, SHORT_DRIVEN, 0, 0)
                if not (r.theta_full != 0.0 and r.n == 50 and r.basis == "Y")]
        with pytest.raises(ValueError, match=r"theta=1\.2566.*n=50 is missing bases \['Y'\]"):
            fit_model("markovian", recs, FitConfig(starts=2))

    def test_consistent_partial_basis_set_fits(self):
        recs = [r for r in generate_batch(MARKOV, IDLE, 0, 0) if r.basis != "Y"]
        ns, bases, _ = record_table(recs)
        assert bases == ("X", "Z") and ns.tolist() == list(IDLE.n_values)
        fit = fit_model("markovian", recs, FitConfig(starts=4))
        assert fit.n_points == 2 * len(IDLE.n_values)
        assert fit.loss < 1e-15


# ---------------------------------------------------------------------------
# exact recovery (no shot noise)

class TestExactRecovery:
    def test_markovian_idle(self):
        recs = generate_batch(MARKOV, IDLE, 0, 0)
        fit = fit_model("markovian", recs, FitConfig(starts=6))
        assert fit.converged
        assert fit.loss < 1e-15
        for name in ("delta_omega", "gamma_ad", "gamma_d"):
            assert getattr(fit.params, name) == pytest.approx(getattr(MARKOV, name), abs=1e-6)

    def test_qubit_tls_idle(self):
        recs = generate_batch(TLS, IDLE, 0, 0)
        fit = fit_model("qubit_tls", recs, FitConfig(starts=6))
        assert fit.converged
        assert fit.loss < 1e-15
        for name in ("delta_omega", "gamma_ad", "gamma_d", "nu_zx"):
            assert getattr(fit.params, name) == pytest.approx(getattr(TLS, name), abs=1e-6)
        assert fit.params.kappa == 0.0  # frozen by default

    def test_pmme_idle_all_free(self):
        recs = generate_batch(PMME, IDLE, 0, 0)
        fit = fit_model("pmme", recs, FitConfig(starts=8))
        assert fit.converged
        assert fit.loss < 1e-12
        for name in ("delta_omega", "gamma_ad", "gamma_d"):
            assert getattr(fit.params, name) == pytest.approx(getattr(PMME, name), abs=1e-5)

    def test_pmme_idle_tied_kernel(self):
        recs = generate_batch(PMME, IDLE, 0, 0)
        fit = fit_model("pmme", recs, FitConfig(starts=8, tie_b=True))
        assert fit.converged
        assert fit.params.gamma_z == pytest.approx(PMME.gamma_z, rel=1e-3)
        assert fit.params.b == pytest.approx(-2.0 * fit.params.gamma_z, abs=1e-15)

    def test_joint_pair_with_shared_rates(self):
        recs = generate_batch(MARKOV, SHORT_DRIVEN, 0, 0)
        fit = fit_model("markovian", recs, FitConfig(starts=6))
        assert fit.converged
        assert fit.loss < 1e-12
        assert set(fit.params_by_theta) == {0.0, SHORT_DRIVEN.theta_full}
        p0 = fit.params_by_theta[0.0]
        pt = fit.params_by_theta[SHORT_DRIVEN.theta_full]
        # rates are shared, frequencies fitted per theta
        assert p0.gamma_ad == pt.gamma_ad
        assert p0.gamma_d == pt.gamma_d
        assert p0.delta_omega == pytest.approx(MARKOV.delta_omega, abs=1e-6)
        assert pt.delta_omega == pytest.approx(MARKOV.delta_omega, abs=1e-5)


# ---------------------------------------------------------------------------
# pipeline invariants

class TestInvariants:
    def test_refit_of_self_generated_data_is_a_fixed_point(self):
        noisy = generate_batch(TLS, IDLE, 1024, 3)
        first = fit_model("qubit_tls", noisy, FitConfig(starts=6))
        regenerated = generate_batch(first.params, IDLE, 0, 0)
        assert loss(first.params, regenerated) < 1e-20
        second = fit_model("qubit_tls", regenerated, FitConfig(starts=6))
        assert second.loss < 1e-10
        for name in ("delta_omega", "gamma_ad", "gamma_d", "nu_zx"):
            assert getattr(second.params, name) == pytest.approx(
                getattr(first.params, name), abs=1e-7
            )

    def test_rmse_matches_independent_recomputation(self):
        dense = PseudoidentitySchedule(theta_full=0.0, n_values=tuple(range(0, 31)))
        recs = generate_batch(TLS, dense, 1024, 2)
        fit = fit_model("qubit_tls", recs, FitConfig(starts=6))
        n_max = max(r.n for r in recs)
        assert fit.rmse == math.sqrt(fit.loss / (3 * (n_max + 1)))
        assert fit.n_points == 3 * (n_max + 1)

    def test_unconstrained_joint_fit_decouples(self):
        recs = generate_batch(MARKOV, SHORT_DRIVEN, 1024, 5)
        joint = fit_model("markovian", recs, FitConfig(shared=(), starts=6))
        groups = records_by_theta(recs)
        separate = sum(
            fit_model("markovian", groups[t], FitConfig(starts=6)).loss for t in groups
        )
        assert joint.loss == pytest.approx(separate, abs=1e-10)

    def test_same_config_refits_identically(self):
        recs = generate_batch(TLS, IDLE, 1024, 9)
        a = fit_model("qubit_tls", recs, FitConfig(starts=4))
        b = fit_model("qubit_tls", recs, FitConfig(starts=4))
        assert np.array_equal(a.free_values, b.free_values)
        assert a.loss == b.loss and a.nfev == b.nfev


# ---------------------------------------------------------------------------
# configuration and validation

class TestConfig:
    @pytest.mark.parametrize("field, bad", [
        ("starts", 0), ("starts", -5), ("starts", True), ("starts", 2.5),
        ("m", 0), ("m", 2.5), ("m", True),
        ("seed", -3), ("seed", True), ("seed", 2.5),
    ])
    def test_bad_counts_rejected(self, field, bad):
        with pytest.raises(ValueError, match=field):
            FitConfig(**{field: bad})

    def test_unknown_model_rejected(self):
        recs = generate_batch(MARKOV, IDLE, 0, 0)
        with pytest.raises(ValueError, match="unknown model"):
            fit_model("lindblad", recs)

    def test_memory_kernel_rejects_driven_records(self):
        recs = generate_batch(MARKOV, SHORT_DRIVEN, 0, 0)
        with pytest.raises(UnsupportedModelError):
            fit_model("pmme", recs)

    def test_more_than_one_pair_rejected(self):
        recs = []
        for theta in (0.5, 1.0, 1.5):
            sched = replace(IDLE, theta_full=theta)
            recs.extend(r for r in generate_batch(MARKOV, sched, 0, 0) if r.theta_full == theta)
        with pytest.raises(ValueError, match="pair"):
            fit_model("markovian", recs)

    def test_freezing_unknown_parameter_rejected(self):
        recs = generate_batch(MARKOV, IDLE, 0, 0)
        with pytest.raises(ValueError, match="freeze"):
            fit_model("markovian", recs, FitConfig(frozen={"nu_zx": 0.0}))

    @pytest.mark.parametrize("frozen", [
        {"gamma_ad": -1.0}, {"gamma_ad": float("nan")}, {"kappa": True}, {"kappa": "0.001"},
    ])
    def test_bad_frozen_value_rejected(self, frozen):
        recs = generate_batch(TLS, IDLE, 0, 0)
        with pytest.raises(ValueError, match="frozen"):
            fit_model("qubit_tls", recs, FitConfig(frozen=frozen))

    def test_sharing_unknown_parameter_rejected(self):
        recs = generate_batch(MARKOV, SHORT_DRIVEN, 0, 0)
        with pytest.raises(ValueError, match="shared"):
            fit_model("markovian", recs, FitConfig(shared=("nu_zx",)))

    def test_tied_kernel_only_for_memory_model(self):
        recs = generate_batch(MARKOV, IDLE, 0, 0)
        with pytest.raises(ValueError, match="tie_b"):
            fit_model("markovian", recs, FitConfig(tie_b=True))

    def test_tied_kernel_conflicts_with_freezing_it(self):
        recs = generate_batch(PMME, IDLE, 0, 0)
        with pytest.raises(ValueError, match="tie_b"):
            fit_model("pmme", recs, FitConfig(tie_b=True, frozen={"b": 0.0}))

    @pytest.mark.parametrize("model, frozen", [
        ("markovian", {"delta_omega": 0.0, "gamma_ad": 0.0, "gamma_d": 0.0}),
        ("qubit_tls", {"delta_omega": 0.0, "gamma_ad": 0.0, "gamma_d": 0.0, "nu_zx": 0.0, "kappa": 0.0}),
    ])
    def test_every_parameter_frozen_rejected(self, model, frozen):
        recs = generate_batch(TLS, IDLE, 0, 0)
        with pytest.raises(ValueError, match=f"no free parameters: every {model} parameter is frozen"):
            fit_model(model, recs, FitConfig(frozen=frozen))

    def test_frozen_value_is_pinned(self):
        recs = generate_batch(TLS, IDLE, 0, 0)
        fit = fit_model("qubit_tls", recs, FitConfig(starts=4, frozen={"gamma_ad": 1e-3}))
        assert fit.params.gamma_ad == 1e-3
        assert "gamma_ad" not in fit.free_names


# ---------------------------------------------------------------------------
# closed-form Jacobian of every fit

# per-base-name ranges for slot vectors, rates well above zero
_SLOT_RANGES = {
    "delta_omega": (-0.01, 0.01), "gamma_ad": (1e-5, 1e-3), "gamma_d": (1e-5, 1e-3),
    "nu_zx": (1e-4, 1e-2), "kappa": (1e-4, 0.05), "gamma_z": (1e-5, 1e-3), "b": (-2e-3, 0.05),
}
_IDLE_LAYOUTS = [
    ("markovian", {}),
    ("markovian", {"frozen": {"delta_omega": 0.002}}),
    ("qubit_tls", {}),  # kappa frozen at 0 by default
    ("qubit_tls", {"frozen": {}}),
    ("qubit_tls", {"frozen": {"gamma_ad": 3.6e-5, "nu_zx": 0.0027}}),
    ("pmme", {}),
    ("pmme", {"frozen": {"b": -1e-4}}),
    ("pmme", {"tie_b": True}),
    ("pmme", {"frozen": {"gamma_ad": 3.6e-5}, "tie_b": True}),
]


def _slot_vector(layout, units):
    names = [n.split("@")[0] for n in layout.names]
    return np.array([lo + (hi - lo) * u for n, u in zip(names, units) for lo, hi in [_SLOT_RANGES[n]]])


class TestIdleJacobian:
    @pytest.mark.parametrize("model, kwargs", _IDLE_LAYOUTS)
    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(units=st.lists(st.floats(0.0, 1.0), min_size=5, max_size=5))
    def test_fit_jacobian_matches_finite_differences(self, model, kwargs, units):
        blocks = _build_blocks(generate_batch(TLS, IDLE, 1024, 0), 4)
        layout = _make_layout(model, [0.0], FitConfig(**kwargs))
        x = _slot_vector(layout, units)
        jac = _jacobian_function(layout, blocks)(x)
        oracle = relative_step_jacobian(
            _residual_function(layout, blocks), x, [n.split("@")[0] in RATES for n in layout.names]
        )
        assert jac.shape == (len(IDLE.bases) * len(IDLE.n_values), len(layout.names))
        for i, name in enumerate(layout.names):
            err = np.linalg.norm(jac[:, i] - oracle[:, i])
            assert err <= 1e-6 * np.linalg.norm(oracle[:, i]), (name, err)

    def test_build_places_shared_per_theta_and_frozen_values(self):
        layout = _make_layout("qubit_tls", [0.0, 1.2], FitConfig(shared=("gamma_d",), frozen={"gamma_ad": 1e-4}))
        x = np.random.default_rng(3).uniform(1e-5, 1e-2, len(layout.names))
        slots = dict(zip(layout.names, x))
        for theta, p in layout.build(x).items():
            assert p.gamma_ad == 1e-4 and p.gamma_d == slots["gamma_d"]
            for name in ("delta_omega", "nu_zx", "kappa"):
                assert getattr(p, name) == slots[layout.slot(name, theta)]

    def test_driven_pair_gets_a_closed_form_jacobian(self):
        recs = generate_batch(MARKOV, SHORT_DRIVEN, 0, 0)
        blocks = _build_blocks(recs, 4)
        layout = _make_layout("markovian", [b.theta for b in blocks], FitConfig())
        x = layout.vector({"delta_omega": 0.01, "gamma_ad": 1e-4, "gamma_d": 3e-4})
        jac = _jacobian_function(layout, blocks)(x)
        assert jac.shape == (len(recs), len(layout.names)) and np.all(np.isfinite(jac))
        assert fit_model("markovian", recs, FitConfig(starts=2)).njev > 0

    @pytest.mark.parametrize("model, kwargs, thetas", [
        ("markovian", {}, _PAIR),
        ("qubit_tls", {}, _PAIR),  # kappa frozen at 0
        ("qubit_tls", {"frozen": {}, "shared": ("gamma_ad", "gamma_d", "kappa")}, _PAIR),
        ("qubit_tls", {"frozen": {}, "shared": ()}, _PAIR),
        ("markovian", {}, _PAIR[:1]),
        ("qubit_tls", {"frozen": {}}, _PAIR[:1]),
    ])
    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(units=st.lists(st.floats(0.0, 1.0), min_size=10, max_size=10))
    def test_driven_fit_jacobian_matches_finite_differences(self, model, kwargs, thetas, units):
        records = [r for r in generate_batch(TLS, PI_5, 1024, 0) if r.theta_full in thetas]
        blocks = _build_blocks(records, 4)
        layout = _make_layout(model, [b.theta for b in blocks], FitConfig(**kwargs))
        x = _slot_vector(layout, units)
        jac = _jacobian_function(layout, blocks)(x)
        oracle = relative_step_jacobian(
            _residual_function(layout, blocks), x, [n.split("@")[0] in RATES for n in layout.names]
        )
        assert jac.shape == (len(records), len(layout.names))
        for i, name in enumerate(layout.names):
            err = np.linalg.norm(jac[:, i] - oracle[:, i])
            assert err <= 1e-6 * np.linalg.norm(oracle[:, i]), (name, err)

    def test_idle_fit_counts_jacobian_evaluations(self):
        recs = generate_batch(TLS, IDLE, 1024, 9)
        a = fit_model("qubit_tls", recs, FitConfig(starts=4))
        b = fit_model("qubit_tls", recs, FitConfig(starts=4))
        assert a.njev > 0
        assert a.njev == b.njev and fit_to_dict(a)["njev"] == a.njev

    @pytest.mark.parametrize("model, kwargs", [
        ("qubit_tls", {}), ("markovian", {}), ("pmme", {"tie_b": True}),
    ])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_closed_form_fit_matches_the_finite_difference_fit(self, model, kwargs, seed):
        # README truth at 1024 shots; the reference runs the same starts
        # through scipy's forward differences and central_jacobian
        records = generate_batch(TLS, IDLE, 1024, seed)
        config = FitConfig(starts=8, **kwargs)
        fit = fit_model(model, records, config)

        blocks = _build_blocks(records, config.m)
        layout = _make_layout(model, [0.0], config)
        residuals = _residual_function(layout, blocks)
        base = _base_seeds(model, blocks, config)
        lower, upper, scale = layout.bounds_and_scale(base)
        ref = minimize_multistart(residuals, _starts(layout, base, config), lower, upper, scale, jac=None)
        _, sigma, _ = covariance_from_jacobian(central_jacobian(residuals, ref.x), ref.fun, fit.n_points)

        assert ref.njev == 0 and fit.njev > 0
        closed = _jacobian_function(layout, blocks)(fit.free_values)
        assert np.array_equal(fit.covariance, covariance_from_jacobian(closed, fit.loss, fit.n_points)[0])
        assert fit.loss == pytest.approx(ref.fun, rel=1e-8)
        assert [fit.sigmas[n] for n in layout.names] == pytest.approx(sigma, rel=0.01)
        assert 3 * fit.nfev <= ref.nfev


# ---------------------------------------------------------------------------
# driven (theta, 0) pairs against scipy's forward differences

class TestDrivenPairFits:
    @pytest.mark.parametrize("model, starts", [("markovian", 2), ("qubit_tls", 1)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_closed_form_fit_matches_the_finite_difference_fit(self, model, starts, seed):
        # README truth, pi/5 pair at 16384 shots with the benchmark's starts;
        # the reference runs the same starts through scipy's forward
        # differences and takes sigma from central_jacobian
        records = generate_batch(TLS, PI_5, 16384, seed)
        config = FitConfig(starts=starts)
        fit = fit_model(model, records, config)

        blocks = _build_blocks(records, config.m)
        layout = _make_layout(model, [b.theta for b in blocks], config)
        residuals = _residual_function(layout, blocks)
        base = _base_seeds(model, blocks, config)
        lower, upper, scale = layout.bounds_and_scale(base)
        ref = minimize_multistart(residuals, _starts(layout, base, config), lower, upper, scale, jac=None)
        cov, sigma, _ = covariance_from_jacobian(central_jacobian(residuals, ref.x), ref.fun, fit.n_points)

        assert ref.njev == 0 and fit.njev > 0
        assert fit.loss == pytest.approx(ref.fun, rel=1e-8)
        assert [fit.sigmas[n] for n in layout.names] == pytest.approx(sigma, rel=0.01)
        assert 2 * (fit.nfev + fit.njev) <= ref.nfev
        # the markovian misfit's delta_omega ratio is flat to 24 % (its
        # sigma): within the optimiser's tolerances both fits stop up to
        # 6e-5 of it from the fully polished optimum, so there the ratios
        # agree far inside their sigma, and to 1e-6 on the qubit_tls fit
        reference = replace(fit, free_values=ref.x, covariance=cov)
        for new, old in zip(parameter_ratios(fit), parameter_ratios(reference), strict=True):
            assert new.parameter == old.parameter
            assert abs(new.value - old.value) <= 1e-4 * old.sigma
            if model == "qubit_tls":
                assert new.value == pytest.approx(old.value, rel=1e-6)

    def test_sigma_at_an_active_bound_is_two_sided(self):
        # exact records with gamma_ad = 0: the fit ends on the rate's bound,
        # where the closed-form column is the derivative itself (a clamped
        # difference would see only the side above zero)
        truth = MarkovianParams(delta_omega=0.002, gamma_ad=0.0, gamma_d=1.9e-4)
        records = generate_batch(truth, PI_5, 0, 0)
        fit = fit_model("markovian", records, FitConfig(starts=8))
        assert fit.params_by_theta[0.0].gamma_ad < 1e-9

        blocks = _build_blocks(records, 4)
        layout = _make_layout("markovian", [b.theta for b in blocks], FitConfig())
        jac = _jacobian_function(layout, blocks)(fit.free_values)
        cov, sigma, degenerate = covariance_from_jacobian(jac, fit.loss, fit.n_points)
        assert np.array_equal(fit.covariance, cov)
        k = layout.names.index("gamma_ad")
        assert math.isfinite(fit.sigmas["gamma_ad"]) and fit.sigmas["gamma_ad"] == sigma[k] > 0.0
        oracle = relative_step_jacobian(
            _residual_function(layout, blocks), fit.free_values, [n.split("@")[0] in RATES for n in layout.names]
        )
        assert np.linalg.norm(jac[:, k] - oracle[:, k]) <= 1e-6 * np.linalg.norm(oracle[:, k])
        assert fit.degenerate == (np.linalg.cond(jac.T @ jac) > 1e12) == degenerate


# ---------------------------------------------------------------------------
# uncertainty

class TestUncertainty:
    def test_fit_carries_covariance_and_sigmas(self):
        recs = generate_batch(TLS, IDLE, 1024, 0)
        fit = fit_model("qubit_tls", recs, FitConfig(starts=6))
        assert fit.covariance is not None
        assert set(fit.sigmas) == set(fit.free_names)
        assert all(s > 0 for s in fit.sigmas.values())
        assert np.allclose(fit.covariance, fit.covariance.T)


# ---------------------------------------------------------------------------
# physical region of the memory kernel

class TestPhysicalRegion:
    def test_kernel_below_minus_two_gamma_z_is_flagged(self):
        recs = generate_batch(PMME, IDLE, 1024, 0)
        fit = fit_model("pmme", recs, FitConfig(starts=2, frozen={"gamma_z": 1e-4, "b": -3e-4}))
        assert fit.params.b < -2.0 * fit.params.gamma_z
        assert fit.physical is False
        assert fit_to_dict(fit)["physical"] is False

    def test_tied_kernel_is_physical(self):
        recs = generate_batch(PMME, IDLE, 1024, 0)
        fit = fit_model("pmme", recs, FitConfig(starts=2, tie_b=True))
        assert fit.physical is True
        assert fit_to_dict(fit)["physical"] is True

    def test_memoryless_and_tls_fits_are_physical(self):
        recs = generate_batch(TLS, IDLE, 1024, 0)
        for model in ("markovian", "qubit_tls"):
            assert fit_model(model, recs, FitConfig(starts=2)).physical is True


# ---------------------------------------------------------------------------
# the README library quick start

def test_readme_quick_start_recovers_nu_within_sigma():
    records = generate_batch(TLS, IDLE, shots=1024, seed=7)
    report = detect_nonmarkovianity(records)
    fit = fit_model("qubit_tls", records, FitConfig(starts=8))
    assert report.verdict == "non_markovian"
    assert abs(report.purity.f_p * math.pi / TLS.nu_zx - 1.0) < 0.01
    assert abs(fit.params.nu_zx - TLS.nu_zx) <= fit.sigmas["nu_zx"]


# ---------------------------------------------------------------------------
# drive-dependence ratios

def _handmade_joint_fit(num, den, var_num, var_den, cov_nd) -> FitResult:
    cov = np.array([[var_den, cov_nd], [cov_nd, var_num]])
    return FitResult(
        model="markovian",
        params_by_theta={
            0.0: MarkovianParams(delta_omega=den, gamma_ad=0.0, gamma_d=0.0),
            2.0: MarkovianParams(delta_omega=num, gamma_ad=0.0, gamma_d=0.0),
        },
        free_names=("delta_omega@0", "delta_omega@2"),
        free_values=np.array([den, num]),
        loss=0.0,
        rmse=0.0,
        n_points=12,
        converged=True,
        nfev=1,
        njev=0,
        covariance=cov,
        sigmas={"delta_omega@0": math.sqrt(var_den), "delta_omega@2": math.sqrt(var_num)},
    )


class TestRatios:
    def test_hand_checked_error_propagation(self):
        fit = _handmade_joint_fit(num=1.0, den=2.0, var_num=0.04, var_den=0.09, cov_nd=0.01)
        (est,) = parameter_ratios(fit)
        assert est.parameter == "delta_omega"
        assert est.theta_full == 2.0
        assert est.value == pytest.approx(0.5, abs=1e-15)
        # r^2 (sa^2/a^2 + sb^2/b^2 - 2 c/(ab)) = 0.25 (0.04 + 0.0225 - 0.01)
        assert est.sigma == pytest.approx(math.sqrt(0.013125), abs=1e-15)
        assert not est.unstable

    def test_cross_term_can_be_dropped(self):
        fit = _handmade_joint_fit(num=1.0, den=2.0, var_num=0.04, var_den=0.09, cov_nd=0.01)
        (est,) = parameter_ratios(fit, drop_cross_term=True)
        assert est.sigma == pytest.approx(0.125, abs=1e-15)

    def test_zero_numerator_keeps_its_sigma(self):
        # r = 0: sigma^2 = (sa^2 + r^2 sb^2 - 2 r c) / b^2 = 0.04 / 0.25
        fit = _handmade_joint_fit(num=0.0, den=0.5, var_num=0.04, var_den=0.01, cov_nd=0.0)
        (est,) = parameter_ratios(fit)
        assert est.value == 0.0
        assert est.sigma == pytest.approx(0.4, abs=1e-15)

    def test_denominator_near_zero_flags_unstable(self):
        fit = _handmade_joint_fit(num=1.0, den=2.0, var_num=0.04, var_den=0.49, cov_nd=0.0)
        (est,) = parameter_ratios(fit)
        assert est.unstable

    def test_zero_denominator_returns_nan(self):
        fit = _handmade_joint_fit(num=1.0, den=0.0, var_num=0.04, var_den=0.09, cov_nd=0.0)
        (est,) = parameter_ratios(fit)
        assert math.isnan(est.value)
        assert est.unstable

    def test_single_theta_fit_rejected(self):
        recs = generate_batch(MARKOV, IDLE, 0, 0)
        fit = fit_model("markovian", recs, FitConfig(starts=4))
        with pytest.raises(ValueError, match="joint"):
            parameter_ratios(fit)

    def test_exact_joint_fit_gives_unit_ratio(self):
        recs = generate_batch(MARKOV, SHORT_DRIVEN, 0, 0)
        fit = fit_model("markovian", recs, FitConfig(starts=6))
        ests = {e.parameter: e for e in parameter_ratios(fit)}
        assert ests["delta_omega"].value == pytest.approx(1.0, abs=1e-4)
        assert not ests["delta_omega"].unstable


# ---------------------------------------------------------------------------
# serialisation

class TestSerialisation:
    def test_fit_report_is_json_serialisable(self):
        recs = generate_batch(TLS, IDLE, 1024, 1)
        fit = fit_model("qubit_tls", recs, FitConfig(starts=4))
        d = fit_to_dict(fit)
        text = json.dumps(d, sort_keys=True)
        back = json.loads(text)
        assert back["model"] == "qubit_tls"
        assert back["converged"] is True
        assert set(back["sigmas"]) == set(fit.free_names)
        assert back["rmse"] == fit.rmse
        assert "0.0" in back["params_by_theta"]
