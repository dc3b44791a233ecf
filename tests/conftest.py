"""Shared fixtures: the 50-seed recovery study.

The recovery study is the expensive shared artifact: 50 independent
1024-shot idle datasets from the same TLS ground truth, each fitted with
both the qubit-TLS and the (deliberately wrong) Markovian model.  Fit
accuracy, reported-sigma calibration, and the model-misfit RMSE gap are
all read off this one session-scoped run.  Random parameter draws live in
`noiselab.oracles`, next to the checks that use them.

`relative_step_jacobian` is the finite-difference oracle that closed-form
Jacobians are tested against.
"""

import time

import numpy as np
import pytest

from noiselab.models import QubitTLSParams
from noiselab.fitting import FitConfig, fit_model
from noiselab.schedule import PseudoidentitySchedule
from noiselab.synth import generate_batch

# ground truth for the shot-noise recovery study (relaxed-units analogue of
# a slow TLS on a driven transmon)
STUDY_TRUTH = QubitTLSParams(
    delta_omega=0.002, gamma_ad=3.6e-5, gamma_d=1.9e-4, nu_zx=0.0027, kappa=0.0
)
STUDY_SCHEDULE = PseudoidentitySchedule(theta_full=0.0, n_values=tuple(range(0, 151, 10)))
STUDY_SHOTS = 1024
STUDY_SEEDS = 50


def relative_step_jacobian(f, x, nonneg) -> np.ndarray:
    """d f / d x by differences with step h_i = 1e-3 max(|x_i|, 1e-5),
    Richardson-extrapolated over h and h/2 (error O(h^4)).

    A coordinate flagged in nonneg that would step below zero takes the
    one-sided three-point difference instead of the central one.  Unlike
    optim.central_jacobian's absolute 1e-6 floor, the step scales with
    rates far below 1e-6.
    """
    x = np.asarray(x, dtype=float)

    def shifted(i, dx):
        y = x.copy()
        y[i] += dx
        return np.asarray(f(y), dtype=float)

    cols = []
    for i, lower_bounded in enumerate(nonneg):
        h = 1e-3 * max(abs(x[i]), 1e-5)
        one_sided = lower_bounded and x[i] - h < 0.0

        def diff(h):
            if one_sided:
                return (-3.0 * shifted(i, 0.0) + 4.0 * shifted(i, h) - shifted(i, 2.0 * h)) / (2.0 * h)
            return (shifted(i, h) - shifted(i, -h)) / (2.0 * h)

        cols.append((4.0 * diff(h / 2.0) - diff(h)) / 3.0)
    return np.stack(cols, axis=-1)


@pytest.fixture(scope="session")
def recovery_study():
    """Fit both models to 50 independent noisy realisations of STUDY_TRUTH."""
    t0 = time.time()
    config = FitConfig(starts=8, seed=0)
    out = {
        "nu": [], "domega": [], "sigma_nu": [], "sigma_domega": [],
        "rmse_tls": [], "rmse_markovian": [], "converged": [],
    }
    for seed in range(STUDY_SEEDS):
        records = generate_batch(STUDY_TRUTH, STUDY_SCHEDULE, STUDY_SHOTS, seed=seed)
        fit = fit_model("qubit_tls", records, config)
        misfit = fit_model("markovian", records, config)
        out["nu"].append(fit.params.nu_zx)
        out["domega"].append(fit.params.delta_omega)
        out["sigma_nu"].append(fit.sigmas["nu_zx"])
        out["sigma_domega"].append(fit.sigmas["delta_omega"])
        out["rmse_tls"].append(fit.rmse)
        out["rmse_markovian"].append(misfit.rmse)
        out["converged"].append(fit.converged)
    result = {k: np.asarray(v) for k, v in out.items()}
    result["elapsed"] = time.time() - t0
    result["truth"] = STUDY_TRUTH
    return result
