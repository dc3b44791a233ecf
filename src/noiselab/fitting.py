"""Least-squares noise-model fits to pseudoidentity record sets.

The residual vector holds the differences between measured and predicted
expectation values over every (n, basis) pair, concatenated over a
(theta_full, 0) pair of record sets with a configurable subset of parameters
shared between the two ("joint fit").  The loss L is its sum of squares, and
reported alongside is

    RMSE = sqrt(L / #points) ,

whose floor for binomially sampled data sits at the per-record shot noise
2 sqrt(p(1-p)/shots) ~ 1/sqrt(shots).

Minimisation is multi-start bounded trust-region least squares on that
residual vector (`optim.minimize_multistart`).  Start 0 seeds frequencies
from damped-phasor extraction of <sx> + i<sy> (idle precession advances the
phase by 2 delta_omega per gate unit; a TLS splits it into
2(delta_omega +/- nu_zx)) and decay rates from the envelope; the remaining
starts jitter those seeds.

Every fit hands the optimiser the closed-form Jacobian of its residual
vector, `schedule.bloch_jacobian` chained through the layout's constant
slot matrices (the idle closed form's derivative on an idle block, the
augmented block generator's exponential on a driven one), and takes its
uncertainties C = (J^T J)^{-1} L/(N-p) from the same J.  At an active
bound that is the two-sided derivative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .analysis import extract_phasors, peak_threshold, record_table, records_shots, uniform_grid
from .models import MODEL_TAGS, PARAM_NAMES, RATES, NoiseParams, PMMEParams, UnsupportedModelError
from .models import _check_finite, _check_rate, params_to_dict
from .optim import covariance_from_jacobian, minimize_multistart
from .schedule import PseudoidentitySchedule, _count, _half_length, bloch_jacobian, bloch_trajectory
# unused here; perfbench's tracer test reads fitting.schedule_superoperator (ROADMAP item 1)
from .schedule import schedule_superoperator
from .synth import ExperimentRecord, records_by_theta

# per-parameter magnitude floors for optimizer scaling
_SCALE_FLOOR = {
    "delta_omega": 1e-3,
    "gamma_ad": 1e-4,
    "gamma_d": 1e-4,
    "nu_zx": 1e-3,
    "kappa": 1e-3,
    "gamma_z": 1e-5,
    "b": 1e-3,
}

_DEFAULT_FROZEN = {
    "markovian": {},
    # kappa and nu_zx are barely distinguishable at realistic drifts; fits
    # freeze the TLS relaxation unless explicitly released
    "qubit_tls": {"kappa": 0.0},
    "pmme": {},
}


@dataclass(frozen=True)
class FitConfig:
    """Knobs of fit_model.

    shared: parameters with a single value across the (theta, 0) pair in a
        joint fit (ignored for single-theta fits).
    frozen: parameters pinned to fixed values; None selects the model default
        (qubit_tls pins kappa = 0).  Pass {} to free everything.
    tie_b: for pmme, eliminate b via b = -2 gamma_z (zero-effective-rate
        constraint that cures the gamma_z/b degeneracy).
    m: half-length of the pseudoidentity the records came from.
    """

    shared: tuple[str, ...] = ("gamma_ad", "gamma_d")
    frozen: Mapping[str, float] | None = None
    tie_b: bool = False
    starts: int = 16
    seed: int = 0
    m: int = 4

    def __post_init__(self):
        starts = _count(self.starts, "starts")
        if starts < 1:
            raise ValueError(f"starts must be at least 1, got {self.starts!r}")
        object.__setattr__(self, "starts", starts)
        seed = _count(self.seed, "seed")
        if seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "m", _half_length(self.m))


@dataclass
class FitResult:
    model: str
    params_by_theta: dict[float, NoiseParams]
    free_names: tuple[str, ...]
    free_values: np.ndarray
    loss: float
    rmse: float
    n_points: int
    converged: bool
    nfev: int
    njev: int  # closed-form Jacobian evaluations over all starts
    covariance: np.ndarray
    sigmas: dict[str, float]
    degenerate: bool = False

    @property
    def params(self) -> NoiseParams:
        if len(self.params_by_theta) != 1:
            raise ValueError("joint fit: use params_by_theta")
        return next(iter(self.params_by_theta.values()))

    @property
    def physical(self) -> bool:
        """False when a fitted memory kernel is non-contractive, b < -2 gamma_z."""
        return all(not isinstance(p, PMMEParams) or p.b >= -2.0 * p.gamma_z
                   for p in self.params_by_theta.values())


@dataclass(frozen=True)
class RatioEstimate:
    """x(theta)/x(0) for one per-theta parameter, with propagated sigma."""

    parameter: str
    theta_full: float
    value: float
    sigma: float
    unstable: bool


# ---------------------------------------------------------------------------
# record blocks

@dataclass
class _ThetaBlock:
    theta: float
    ns: np.ndarray
    bases: tuple[str, ...]
    cols: list[int]  # bloch_trajectory column of each basis
    data: np.ndarray  # (len(ns), len(bases))
    schedule: PseudoidentitySchedule
    shots: int

    def residual(self, params: NoiseParams) -> np.ndarray:
        """Measured minus predicted values, shaped like data."""
        return self.data - bloch_trajectory(params, self.schedule)[:, self.cols]


def _build_blocks(records: Sequence[ExperimentRecord], m: int) -> list[_ThetaBlock]:
    """One block per theta_full, ascending: its analysis.record_table and the
    shot count of its records.  A table error names its theta."""
    if not records:
        raise ValueError("no records to fit")
    blocks = []
    for theta, recs in records_by_theta(records).items():
        try:
            ns, bases, data = record_table(recs)
        except ValueError as exc:
            raise ValueError(f"theta={theta}: {exc}") from exc
        sched = PseudoidentitySchedule(theta_full=theta, n_values=tuple(int(v) for v in ns), m=m, bases=bases)
        blocks.append(
            _ThetaBlock(
                theta=theta, ns=ns, bases=bases, cols=["XYZ".index(b) for b in bases],
                data=data, schedule=sched, shots=records_shots(recs),
            )
        )
    return blocks


def loss(params: NoiseParams, records: Sequence[ExperimentRecord], m: int = 4) -> float:
    """Sum of squared residuals over all (n, basis) pairs of one theta set."""
    blocks = _build_blocks(records, m)
    if len(blocks) != 1:
        raise ValueError("loss expects records for a single theta_full; fit_model handles pairs")
    resid = blocks[0].residual(params)
    return float(np.sum(resid * resid))


# ---------------------------------------------------------------------------
# free-parameter layout

@dataclass
class _Layout:
    model: str
    thetas: tuple[float, ...]
    frozen: dict[str, float]
    shared: tuple[str, ...]
    per_theta: tuple[str, ...]
    tie_b: bool
    names: tuple[str, ...] = field(init=False)
    # theta -> A_theta, a (len(PARAM_NAMES[model]), len(names)) array: the
    # parameters of theta are offset + A_theta x (frozen values in offset,
    # shared slots in every A_theta, b = -2 gamma_z folded in by tie_b), so
    # A_theta is d p_theta / d x
    slot_matrix: dict[float, np.ndarray] = field(init=False)
    offset: np.ndarray = field(init=False)

    def __post_init__(self):
        slots = list(self.shared)
        for theta in self.thetas:
            for name in self.per_theta:
                slots.append(self.slot(name, theta))
        self.names = tuple(slots)
        params = PARAM_NAMES[self.model]
        self.offset = np.array([self.frozen.get(name, 0.0) for name in params])
        self.slot_matrix = {}
        for theta in self.thetas:
            a = np.zeros((len(params), len(self.names)))
            for name in self.shared:
                a[params.index(name), self.names.index(name)] = 1.0
            for name in self.per_theta:
                a[params.index(name), self.names.index(self.slot(name, theta))] = 1.0
            if self.tie_b:
                a[params.index("b")] = -2.0 * a[params.index("gamma_z")]
            self.slot_matrix[theta] = a

    def slot(self, name: str, theta: float) -> str:
        if len(self.thetas) == 1:
            return name
        return f"{name}@{theta:.6g}"

    def bounds_and_scale(self, seeds: Mapping[str, float]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        base = [n if "@" not in n else n.split("@")[0] for n in self.names]
        lower = np.array([0.0 if n in RATES else -np.inf for n in base])
        upper = np.full(len(base), np.inf)
        scale = np.array([max(abs(seeds.get(n, 0.0)), _SCALE_FLOOR[n]) for n in base])
        return lower, upper, scale

    def vector(self, values: Mapping[str, float]) -> np.ndarray:
        """Per-base-name values -> full slot vector."""
        out = np.empty(len(self.names))
        for i, slot in enumerate(self.names):
            base = slot.split("@")[0]
            out[i] = values[base]
        return out

    def build(self, x: np.ndarray) -> dict[float, NoiseParams]:
        cls = MODEL_TAGS[self.model]
        params = PARAM_NAMES[self.model]
        out = {}
        for theta, a in self.slot_matrix.items():
            values = self.offset + a.dot(x)
            # the optimiser stays inside the rate bounds; only the tests'
            # finite-difference oracles (central_jacobian) probe a rate
            # epsilon below zero
            out[theta] = cls(*(max(0.0, v) if n in RATES else v for n, v in zip(params, values)))
        return out


def _make_layout(model: str, thetas: Sequence[float], config: FitConfig) -> _Layout:
    names = PARAM_NAMES[model]
    frozen_src = _DEFAULT_FROZEN[model] if config.frozen is None else config.frozen
    frozen = {}
    for key, value in frozen_src.items():
        if key not in names:
            raise ValueError(f"cannot freeze {key!r}: not a {model} parameter")
        frozen[key] = (_check_rate if key in RATES else _check_finite)(f"frozen {key}", value)
    tie_b = bool(config.tie_b)
    if tie_b and model != "pmme":
        raise ValueError("tie_b only applies to pmme fits")
    if tie_b and ("b" in frozen or "gamma_z" in frozen):
        raise ValueError("tie_b conflicts with freezing b or gamma_z")
    free = [n for n in names if n not in frozen and not (tie_b and n == "b")]
    if not free:
        raise ValueError(f"no free parameters: every {model} parameter is frozen")
    if len(thetas) > 1:
        shared = tuple(n for n in free if n in config.shared)
        bad = set(config.shared) - set(names)
        if bad:
            raise ValueError(f"shared parameters {sorted(bad)} are not {model} parameters")
    else:
        shared = ()
    per_theta = tuple(n for n in free if n not in shared)
    return _Layout(
        model=model, thetas=tuple(thetas), frozen=frozen, shared=shared,
        per_theta=per_theta, tie_b=tie_b,
    )


# ---------------------------------------------------------------------------
# seeding

def _phasor_seeds(block: _ThetaBlock, m: int) -> dict[str, float]:
    """Frequency/decay seeds from the idle complex series, if extractable."""
    out: dict[str, float] = {}
    if "X" not in block.bases or "Y" not in block.bases or block.ns.shape[0] < 4:
        return out
    if not uniform_grid(block.ns):
        return out
    per_sample = 2.0 * m * float(block.ns[1] - block.ns[0])  # gate units per sample
    z = block.data[:, block.bases.index("X")] + 1j * block.data[:, block.bases.index("Y")]
    n = z.shape[0]
    comps, _ = extract_phasors(z, peak_threshold(block.shots, n), max_components=3)
    if not comps:
        return out
    comps = sorted(comps, key=lambda c: -abs(c.amplitude))[:2]
    omegas = sorted(c.omega / per_sample for c in comps)
    if len(omegas) == 2:
        out["delta_omega"] = (omegas[1] + omegas[0]) / 4.0
        out["nu_zx"] = max((omegas[1] - omegas[0]) / 4.0, 1e-6)
    else:
        out["delta_omega"] = omegas[0] / 2.0
        span = per_sample * n
        out["nu_zx"] = max(math.pi / (4.0 * span), 1e-6)
    main = max(comps, key=lambda c: abs(c.amplitude))
    gamma_total = 0.5 * main.decay / per_sample  # envelope ~ exp(-2 gamma_eff t)
    out["gamma_d"] = max(gamma_total, 1e-7)
    return out


def _ad_seed(block: _ThetaBlock) -> float:
    if "Z" not in block.bases or block.ns.shape[0] < 3:
        return 1e-6
    w = 1.0 - block.data[:, block.bases.index("Z")]
    t = block.ns * block.schedule.duration
    mask = w > 5e-3
    if mask.sum() < 3 or np.ptp(t[mask]) == 0:
        return 1e-6
    slope = np.polyfit(t[mask], np.log(w[mask]), 1)[0]
    return max(-slope, 1e-7)


def _base_seeds(model: str, blocks: list[_ThetaBlock], config: FitConfig) -> dict[str, float]:
    """Start-0 values in PARAM_NAMES[model] order (_jitter draws in that order)."""
    seeds = {name: 0.0 for name in PARAM_NAMES[model]}
    seeds.update({"gamma_ad": 1e-6, "gamma_d": 1e-5, "nu_zx": 1e-3})
    idle = [b for b in blocks if b.theta == 0.0]
    src = idle[0] if idle else blocks[0]
    seeds.update(_phasor_seeds(src, config.m))
    seeds["gamma_ad"] = _ad_seed(src)
    if model == "pmme":
        nu = seeds["nu_zx"]
        seeds["gamma_z"] = max(2.0 * nu * nu, 1e-8)
        seeds["b"] = -2.0 * seeds["gamma_z"]
    return {name: seeds[name] for name in PARAM_NAMES[model]}


def _jitter(seeds: dict[str, float], rng: np.random.Generator) -> dict[str, float]:
    out = dict(seeds)
    for name in out:
        if name in ("delta_omega", "nu_zx"):
            out[name] = out[name] * (1.0 + 0.5 * rng.standard_normal()) + 1e-4 * rng.standard_normal()
        elif name == "b":
            out[name] = out[name] * (1.0 + 0.5 * rng.standard_normal()) + 1e-3 * rng.standard_normal()
        else:
            out[name] = out[name] * math.exp(rng.standard_normal() * math.log(3.0))
    if "delta_omega" in out and "nu_zx" in out and rng.uniform() < 0.25:
        out["delta_omega"], out["nu_zx"] = out["nu_zx"], abs(out["delta_omega"])
    return out


def _starts(layout: _Layout, base: dict[str, float], config: FitConfig) -> list[np.ndarray]:
    """The base seeds, then config.starts - 1 jitters of them, as slot vectors."""
    starts = [layout.vector(base)]
    for s in range(1, config.starts):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=config.seed, spawn_key=(s,)))
        starts.append(layout.vector(_jitter(base, rng)))
    return starts


# ---------------------------------------------------------------------------
# fitting

def _residual_function(layout: _Layout, blocks: list[_ThetaBlock]):
    """x -> measured minus predicted values over every block, flattened."""

    def residuals(x: np.ndarray) -> np.ndarray:
        params = layout.build(x)
        return np.concatenate([block.residual(params[block.theta]).ravel() for block in blocks])

    return residuals


def _jacobian_function(layout: _Layout, blocks: list[_ThetaBlock]):
    """x -> d residuals / d x in closed form.

    Per block that is -(d bloch / d p)[:, cols, :] @ A_theta, flattened like
    the residuals, with d bloch / d p from `schedule.bloch_jacobian` taken
    only for the parameters that have a nonzero row in A_theta.
    """
    width = len(layout.names)
    # theta -> (the parameters with a nonzero row in A_theta, those rows)
    reduced = {}
    for theta, a in layout.slot_matrix.items():
        rows = np.flatnonzero(a.any(axis=1))
        reduced[theta] = (rows, a[rows])

    def jacobian(x: np.ndarray) -> np.ndarray:
        params = layout.build(x)
        out = []
        for b in blocks:
            rows, a = reduced[b.theta]
            out.append(-(bloch_jacobian(params[b.theta], b.schedule, rows)[:, b.cols, :] @ a).reshape(-1, width))
        return np.concatenate(out)

    return jacobian


def fit_model(
    model: str,
    records: Sequence[ExperimentRecord],
    config: FitConfig | None = None,
) -> FitResult:
    """Fit one noise model to records of a single theta or a (theta, 0) pair.

    Joint fits share config.shared parameters across the pair.  Memory-kernel
    (pmme) fits accept idle records only.  A fit whose winning start does not
    converge within the evaluation budget comes back flagged
    (converged=False), not raised.
    """
    if model not in PARAM_NAMES:
        raise ValueError(f"unknown model {model!r}; expected one of {sorted(PARAM_NAMES)}")
    config = config or FitConfig()
    blocks = _build_blocks(records, config.m)
    thetas = [b.theta for b in blocks]
    if model == "pmme" and any(t != 0.0 for t in thetas):
        raise UnsupportedModelError(
            "memory-kernel parameters only predict idle records; fit theta_full = 0 data"
        )
    if len(blocks) > 2:
        raise ValueError(f"fit one (theta, 0) pair at a time, got thetas {thetas}")
    layout = _make_layout(model, thetas, config)
    residuals = _residual_function(layout, blocks)
    jacobian = _jacobian_function(layout, blocks)

    base = _base_seeds(model, blocks, config)
    lower, upper, scale = layout.bounds_and_scale(base)
    best = minimize_multistart(residuals, _starts(layout, base, config), lower, upper, scale, jac=jacobian)

    n_points = sum(b.data.size for b in blocks)
    cov, sigma, degenerate = covariance_from_jacobian(jacobian(best.x), best.fun, n_points)
    return FitResult(
        model=model,
        params_by_theta=layout.build(best.x),
        free_names=layout.names,
        free_values=best.x,
        loss=best.fun,
        rmse=math.sqrt(best.fun / n_points),
        n_points=n_points,
        converged=bool(best.success),
        nfev=best.nfev,
        njev=best.njev,
        covariance=cov,
        sigmas=dict(zip(layout.names, sigma)),
        degenerate=bool(degenerate),
    )


def parameter_ratios(fit: FitResult, drop_cross_term: bool = False) -> list[RatioEstimate]:
    """Drive dependence x(theta)/x(0) of every per-theta free parameter.

    First-order error propagation including the fitted covariance between
    numerator and denominator (dropped on request); a denominator within
    3 sigma of zero flags the ratio as unstable.
    """
    thetas = sorted(fit.params_by_theta)
    if len(thetas) != 2 or 0.0 not in thetas:
        raise ValueError("ratios need a joint (theta, 0) fit")
    theta = [t for t in thetas if t != 0.0][0]
    index = {name: i for i, name in enumerate(fit.free_names)}
    out = []
    seen = []
    for name in fit.free_names:
        base = name.split("@")[0]
        if "@" not in name or base in seen:
            continue
        seen.append(base)
        slot_num = f"{base}@{theta:.6g}"
        slot_den = f"{base}@{0.0:.6g}"
        if slot_num not in index or slot_den not in index:
            continue
        i, j = index[slot_num], index[slot_den]
        a, b = fit.free_values[i], fit.free_values[j]
        sa2, sb2 = fit.covariance[i, i], fit.covariance[j, j]
        cab = 0.0 if drop_cross_term else fit.covariance[i, j]
        unstable = bool(abs(b) < 3.0 * math.sqrt(max(sb2, 0.0)))
        if b == 0.0:
            out.append(RatioEstimate(base, theta, float("nan"), float("inf"), True))
            continue
        r = a / b
        var = (sa2 + r * r * sb2 - 2.0 * r * cab) / (b * b)
        out.append(RatioEstimate(base, theta, float(r), math.sqrt(max(var, 0.0)), unstable))
    return out


# ---------------------------------------------------------------------------
# serialisation

def fit_to_dict(fit: FitResult) -> dict:
    return {
        "model": fit.model,
        "params_by_theta": {repr(t): params_to_dict(p) for t, p in fit.params_by_theta.items()},
        "free_names": list(fit.free_names),
        "free_values": [float(v) for v in fit.free_values],
        "loss": fit.loss,
        "rmse": fit.rmse,
        "n_points": fit.n_points,
        "converged": bool(fit.converged),
        "nfev": fit.nfev,
        "njev": fit.njev,
        "degenerate": bool(fit.degenerate),
        "physical": fit.physical,
        "sigmas": {k: float(v) for k, v in fit.sigmas.items()},
        "covariance": [[float(v) for v in row] for row in fit.covariance],
    }
