"""Shared nonlinear least-squares machinery.

All model fits in this package are small (1-10 parameter) smooth least-squares
problems with nasty multimodality in the frequency directions, so the strategy
is everywhere the same: from each of several starts, minimise the sum of
squared residuals with the bounded trust-region reflective method of Branch,
Coleman & Li (1999) (`scipy.optimize.least_squares`, method "trf") under the
caller's box bounds and per-parameter scales, and keep the best start.
A caller with a closed-form Jacobian passes it (every noise-model fit and
the purity fit do); otherwise (`analysis.fit_single_frequency`) the steps
use scipy's forward differences ("2-point"), whose probes are residual
evaluations too.  Uncertainties come from the Jacobian of the residual
vector at the optimum (the same closed form; `central_jacobian` is the
central-difference oracle that tests check closed forms against),

    C = (J^T J)^{-1} * L_min / (N - p) ,

with a pseudo-inverse (and a degeneracy flag) when J^T J is ill-conditioned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.optimize import least_squares


@dataclass
class MultistartResult:
    x: np.ndarray
    fun: float  # sum of squared residuals at x
    success: bool  # whether the winning start met a convergence tolerance
    # residual evaluations over all starts, finite-difference Jacobian probes
    # included when no jac is given
    nfev: int
    # closed-form Jacobian evaluations over all starts; 0 when no jac is given
    njev: int


def minimize_multistart(
    residuals: Callable[[np.ndarray], np.ndarray],
    starts: Sequence[np.ndarray],
    lower: np.ndarray,
    upper: np.ndarray,
    scale: np.ndarray | None = None,
    maxfev: int = 1600,
    jac: Callable[[np.ndarray], np.ndarray] | None = None,
) -> MultistartResult:
    """Bounded trust-region least squares from each start; keep the best.

    residuals maps a parameter vector to a 1-d residual vector.  Starts are
    clipped into [lower, upper]; a start whose residuals are not all finite
    there is skipped, and ValueError is raised if no start is left.  scale
    holds per-parameter magnitudes (the trust region's x_scale).  jac maps a
    parameter vector to the residual Jacobian d r / d x and is handed to
    `least_squares` as is, and its evaluations count in njev; None keeps
    its forward differences ("2-point"), whose probes count in nfev and
    leave njev at 0.  maxfev caps the residual evaluations of each start,
    not counting Jacobian probes.
    """
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    if scale is None:
        scale = np.ones_like(lower)
    scale = np.asarray(scale, dtype=float)
    if np.any(scale <= 0) or not np.all(np.isfinite(scale)):
        raise ValueError("scales must be positive and finite")

    nfev = njev = 0

    def counted(x: np.ndarray) -> np.ndarray:
        nonlocal nfev
        nfev += 1
        return np.asarray(residuals(x), dtype=float)

    best = None
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        for x0 in starts:
            x0 = np.clip(np.asarray(x0, dtype=float), lower, upper)
            if not np.all(np.isfinite(counted(x0))):
                continue
            res = least_squares(
                counted, x0, jac="2-point" if jac is None else jac, bounds=(lower, upper),
                x_scale=scale, method="trf", max_nfev=maxfev,
            )
            if jac is not None:
                njev += res.njev
            if best is None or res.cost < best.cost:
                best = res
    if best is None:
        raise ValueError("no start has finite residuals")
    return MultistartResult(
        x=best.x, fun=2.0 * float(best.cost), success=bool(best.success), nfev=nfev, njev=njev
    )


def central_jacobian(
    residuals: Callable[[np.ndarray], np.ndarray], x: np.ndarray
) -> np.ndarray:
    """d r / d x by central differences, step max(1e-6, 1e-4 |x_i|)."""
    x = np.asarray(x, dtype=float)
    r0 = np.asarray(residuals(x))
    jac = np.empty((r0.shape[0], x.shape[0]))
    for i in range(x.shape[0]):
        h = max(1e-6, 1e-4 * abs(x[i]))
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        jac[:, i] = (np.asarray(residuals(xp)) - np.asarray(residuals(xm))) / (2.0 * h)
    return jac


def covariance_from_jacobian(
    jac: np.ndarray, loss: float, n_points: int
) -> tuple[np.ndarray, np.ndarray, bool]:
    """(C, sigma, degenerate) with C = (J^T J)^{-1} s^2, s^2 = L/(N - p).

    Ill-conditioned J^T J (cond > 1e12) switches to the pseudo-inverse and
    flags the fit as degenerate rather than failing.
    """
    n_par = jac.shape[1]
    jtj = jac.T @ jac
    dof = max(n_points - n_par, 1)
    s2 = max(loss, 0.0) / dof
    s2 = max(s2, 1e-24)  # exact-data floor: keeps z-scores finite
    degenerate = n_points <= n_par
    cond = np.linalg.cond(jtj)
    if not np.isfinite(cond) or cond > 1e12:
        inv = np.linalg.pinv(jtj)
        degenerate = True
    else:
        inv = np.linalg.inv(jtj)
    cov = inv * s2
    cov = 0.5 * (cov + cov.T)
    sigma = np.sqrt(np.clip(np.diag(cov), 0.0, None))
    return cov, sigma, degenerate
