"""Model-free signatures of non-Markovianity and campaign-level statistics.

Three detectors run on a single-theta record set:

1. Purity oscillation.  From |+> a Markovian channel decays the purity
   monotonically, while coherent exchange with a memory (TLS) makes it
   oscillate.  We fit

       p(n) = (1 + cos^2(2 pi f_p n T) e^{-gamma_p n T}) / 2 ,   T = 2 m,

   and report a profile-likelihood z-score for f_p > 0 (the covariance
   z-score is ill-defined at the f_p = 0 boundary where dp/df vanishes).
   `_scan_z` assumes a chi^2_2 null for the likelihood ratio at a fixed
   frequency and a Sidak correction for the scan over the frequency bins, so
   z = 3 is a nominal one-sided tail of 1.35e-3 per record set.  That null
   has not been checked against a measured null tail: memoryless records
   can exceed 3 (theta_full = 2 pi echo records reached 3.46).
   On a uniform grid the fit starts from the matrix-pencil poles of 2p - 1,
   which for this model is a sum of damped exponentials; a non-uniform or
   very short grid starts from a 15-point grid around the periodogram peak.
   One closed-form Jacobian serves the trust-region steps, the f_p = 0 null
   fit and sigma(f_p).

2. Dominant-frequency count of z_n = <sx> + i <sy>.  Markovian evolution
   contributes a single damped phasor (a +/- theta pair under drive, which
   counts once); a coherent TLS splits it in two.  The damped phasors come
   from one matrix-pencil pass (Hua & Sarkar 1990): the poles are read off
   the leading singular subspace of the series' Hankel matrix and the
   amplitudes solved linearly, so an off-bin tone is one pole and its window
   leakage is never miscounted.  A component counts when its own
   periodogram peak exceeds 5 x the shot-noise floor
   2 sqrt(p(1-p)/shots) / sqrt(N).

3. Residual of the single-frequency form g0 + g1 r^n cos(n th + g2) + g3 d^n,
   which any time-independent Markovian map must satisfy exactly.  Only
   (r, th, d) are searched; the form is linear in (g0, g1 cos g2,
   -g1 sin g2, g3), so those are solved by linear least squares at every
   step (variable projection, Golub & Pereyra 1973).  A fit residual far
   above shot noise plus a multi-peak spectrum flags memory.

Every detector, the spline and `fitting` read a record set through one
parser, `record_table`.  A record set's shot count is the median over its
records with shots > 0 (`records_shots`), and a periodogram peak counts
above `peak_threshold`; `fitting` uses the same two rules.

Campaign statistics aggregate per-day ratio estimates r_i +/- s_i with
inverse-variance weights and split the spread into the fit-error part
sigma_fit = (sum 1/s_i^2)^{-1/2} and the excess-scatter part
sigma_disp = sqrt(sum w_i (r_i - rbar)^2 / sum w_i).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.special import erfcinv

from .optim import covariance_from_jacobian, minimize_multistart
from .schedule import _half_length
from .synth import ExperimentRecord

_SIGMA_FLOOR = 1e-12
# a periodogram peak counts when it exceeds this many shot-noise floors
_PEAK_SIGMAS = 5.0


# ---------------------------------------------------------------------------
# record wrangling

def record_table(records: Sequence[ExperimentRecord]) -> tuple[np.ndarray, tuple[str, ...], np.ndarray]:
    """(ns, bases, values): the one parser from a single-theta record set to
    arrays.

    ns is the sorted n grid, bases the bases present in X, Y, Z order, and
    values[i, j] the expectation value at ns[i] in bases[j].  Mixed theta, a
    duplicate (n, basis), or an n lacking a basis that another n has raises.
    """
    thetas = {r.theta_full for r in records}
    if len(thetas) != 1:
        raise ValueError(f"expected records for a single theta_full, got {sorted(thetas)}")
    table: dict[int, dict[str, float]] = {}
    for r in records:
        slot = table.setdefault(r.n, {})
        if r.basis in slot:
            raise ValueError(f"duplicate record for n={r.n} basis={r.basis}")
        slot[r.basis] = r.expval
    ns = np.array(sorted(table), dtype=int)
    bases = tuple(b for b in "XYZ" if any(b in slot for slot in table.values()))
    values = np.empty((ns.shape[0], len(bases)))
    for i, n in enumerate(ns):
        slot = table[int(n)]
        missing = [b for b in bases if b not in slot]
        if missing:
            raise ValueError(f"n={n} is missing bases {missing}")
        values[i] = [slot[b] for b in bases]
    return ns, bases, values


def bloch_series(records: Sequence[ExperimentRecord]) -> tuple[np.ndarray, np.ndarray]:
    """(ns, values[len(ns), 3]): the record table, which must hold X, Y and Z."""
    ns, bases, values = record_table(records)
    missing = [b for b in "XYZ" if b not in bases]
    if missing:
        raise ValueError(f"records are missing bases {missing}")
    return ns, values


def purity_series(records: Sequence[ExperimentRecord]) -> tuple[np.ndarray, np.ndarray]:
    """Per-n purity estimate (1 + cx^2 + cy^2 + cz^2)/2 from all three bases."""
    ns, bloch = bloch_series(records)
    return ns, 0.5 * (1.0 + np.sum(bloch * bloch, axis=1))


def uniform_grid(ns: np.ndarray) -> bool:
    """Whether the sorted n grid has one step throughout (at least 2 points)."""
    return ns.shape[0] > 1 and np.ptp(np.diff(ns)) == 0


def shot_noise_rmse(shots: int) -> float:
    """Expected per-record sampling std at p = 1/2: 2 sqrt(p(1-p)/shots)."""
    if shots < 0:
        raise ValueError("shots must be non-negative")
    if shots == 0:
        return 0.0
    return 1.0 / math.sqrt(shots)


def records_shots(records: Sequence[ExperimentRecord]) -> int:
    """Shot count of a record set: the median over its records with shots > 0,
    or 0 (exact values) when there are none."""
    positive = [r.shots for r in records if r.shots > 0]
    return int(np.median(positive)) if positive else 0


def peak_threshold(shots: int, n_samples: int) -> float:
    """Periodogram height at which a component of an n-sample series counts:
    5 shot-noise floors shot_noise_rmse(shots) / sqrt(n), where exact data
    (shots = 0) takes an absolute floor of 1e-8."""
    floor = shot_noise_rmse(shots) / math.sqrt(n_samples) if shots > 0 else 1e-8
    return _PEAK_SIGMAS * floor


# ---------------------------------------------------------------------------
# spline interpolation (plot support; fits always use the raw knots)

def interpolate_spline(records: Sequence[ExperimentRecord]) -> Callable[[np.ndarray], np.ndarray]:
    """Natural cubic spline through one basis' expectation values vs n."""
    ns, bases, values = record_table(records)
    if len(bases) != 1:
        raise ValueError(f"expected records for a single basis, got {list(bases)}")
    if ns.shape[0] < 4:
        raise ValueError(f"need at least 4 points for a cubic spline, got {ns.shape[0]}")
    return CubicSpline(ns, values[:, 0], bc_type="natural")


# ---------------------------------------------------------------------------
# purity oscillation fit

@dataclass(frozen=True)
class PurityFit:
    """Purity oscillation frequency f_p (cycles per gate unit) and decay
    gamma_p, with residual RMSE, covariance sigma of f_p, and a profile
    z-score for f_p > 0."""

    f_p: float
    gamma_p: float
    residual: float
    sigma_f: float
    significance: float
    loss: float
    n_points: int
    degenerate: bool
    nfev: int  # residual evaluations of the main and null fits
    njev: int  # their closed-form Jacobian evaluations


def _purity_model(ns: np.ndarray, period: float, f: float, g: float) -> np.ndarray:
    t = ns * period
    return 0.5 * (1.0 + np.cos(2.0 * math.pi * f * t) ** 2 * np.exp(-g * t))


def _scan_z(q: float, n_freqs: int) -> float:
    """One-sided z-score for the oscillation likelihood-ratio statistic q.

    At a fixed candidate frequency the ratio is treated as chi^2 with two
    degrees of freedom (a slow oscillation trades off against the decay
    curvature, so pinning f removes more than one effective direction), and
    the search over ~n_freqs independent frequency bins is absorbed with a
    Sidak correction before converting the tail probability back to a
    Gaussian z-score.  Without these two corrections a plain sqrt(q) flags
    a few percent of purely decaying datasets above 3.
    """
    if q <= 0.0:
        return 0.0
    log_p1 = -0.5 * q  # chi^2_2 survival function
    if log_p1 < -690.0:  # survival underflows; scan correction is negligible
        return math.sqrt(q)
    p1 = math.exp(log_p1)
    p = -math.expm1(n_freqs * math.log1p(-p1)) if p1 < 1.0 else 1.0
    if p >= 1.0:
        return 0.0
    return float(max(0.0, math.sqrt(2.0) * erfcinv(2.0 * p)))


def _purity_jacobian(ns: np.ndarray, period: float, f: float, g: float) -> np.ndarray:
    """d r / d (f, gamma) of the residual r = p - _purity_model, in closed form:
    dr/df = 2 pi t cos(phi) sin(phi) e^{-gamma t} and
    dr/dgamma = t cos^2(phi) e^{-gamma t} / 2, with phi = 2 pi f t."""
    t = ns * period
    phi = 2.0 * math.pi * f * t
    c, s, env = np.cos(phi), np.sin(phi), np.exp(-g * t)
    return np.column_stack([2.0 * math.pi * t * c * s * env, 0.5 * t * c * c * env])


def fit_purity(records: Sequence[ExperimentRecord], m: int = 4) -> PurityFit:
    """Least-squares fit of the purity oscillation model on the raw n grid.

    On a uniform grid of at least 7 points the starts come from the series'
    own poles.  2p - 1 = e^{-gamma t} (1 + cos 4 pi f t) / 2 is a sum of three
    damped exponentials, a real pole and a pair at angles +/-4 pi f dt,
    dt = 2 m dn; amplitude damping adds a slow fourth, as the purity relaxes
    back towards the pure ground state.  So the matrix pencil of 2p - 1
    (`_pencil_poles`, order 4) is read pole by pole: each z with Im z > 0
    gives the start f = arg z / (4 pi dt), gamma = max(-ln|z| / dt, 0), and a
    negative real z, a pair near the Nyquist angle split by noise, gives
    f = f_max.  (0, 1/span) and (0, 0) are added.  A non-uniform grid has no
    pencil and fewer than 7 points cannot hold three poles, so there the
    fit starts from a 15-point grid around the periodogram peak of 2p - 1.
    The trust-region steps, the f = 0 null fit (its gamma column) and sigma_f
    all use one closed-form Jacobian, `_purity_jacobian`.
    """
    m = _half_length(m)
    ns, p_obs = purity_series(records)
    n_points = ns.shape[0]
    if n_points < 3:
        raise ValueError("need at least 3 n values to fit the purity model")
    period = 2.0 * m
    dn = np.diff(ns).min()
    f_max = 1.0 / (4.0 * period * dn)  # cos^2 doubles the frequency

    def residuals(x: np.ndarray) -> np.ndarray:
        return p_obs - _purity_model(ns, period, x[0], x[1])

    def jac(x: np.ndarray) -> np.ndarray:
        return _purity_jacobian(ns, period, x[0], x[1])

    w = 2.0 * p_obs - 1.0
    span = (ns[-1] - ns[0]) * period
    g_seed = 1.0 / max(span, 1e-12)
    if uniform_grid(ns) and n_points >= 7:
        dt = period * dn
        poles = _pencil_poles(w, 0.0, 4)
        poles = poles[(poles.imag > 0.0) | (poles.real < 0.0)]
        starts = [
            np.array([abs(np.angle(z)) / (4.0 * math.pi * dt), max(-math.log(abs(z)) / dt, 0.0)])
            for z in poles
        ]
        starts += [np.array([0.0, g_seed]), np.array([0.0, 0.0])]
    else:
        # seed f from the dominant discrete frequency of 2p-1
        spec = np.abs(np.fft.rfft(w - w.mean()))
        k = int(np.argmax(spec[1:]) + 1)
        f_seed = 0.5 * k / max(span, 1e-12)  # cos^2 oscillates at 2 f_p
        starts = [
            np.array([f, g])
            for f in (f_seed, 0.5 * f_seed, 2.0 * f_seed, 0.25 * f_max, 0.0)
            for g in (0.0, g_seed, 5.0 * g_seed)
        ]
    scale = np.array([max(f_max / 4.0, 1e-6), max(g_seed, 1e-6)])
    best = minimize_multistart(
        residuals, starts, np.array([0.0, 0.0]), np.array([f_max, np.inf]), scale, maxfev=800, jac=jac
    )

    # profile z-score: refit with f pinned at 0 (pure decay), compare losses
    g_starts = [np.array([g]) for g in (0.0, g_seed, 5.0 * g_seed, best.x[1])]
    null = minimize_multistart(
        lambda x: residuals(np.array([0.0, x[0]])), g_starts, np.array([0.0]), np.array([np.inf]),
        np.array([max(g_seed, 1e-6)]), maxfev=400, jac=lambda x: jac(np.array([0.0, x[0]]))[:, 1:],
    )

    cov, sigma, degenerate = covariance_from_jacobian(jac(best.x), best.fun, n_points)
    s2 = max(best.fun / max(n_points - 2, 1), 1e-24)
    q = max(null.fun - best.fun, 0.0) / s2
    significance = _scan_z(q, max((n_points - 1) // 2, 1))
    return PurityFit(
        f_p=float(best.x[0]),
        gamma_p=float(best.x[1]),
        residual=math.sqrt(best.fun / n_points),
        sigma_f=float(sigma[0]),
        significance=float(significance),
        loss=float(best.fun),
        n_points=n_points,
        degenerate=degenerate,
        nfev=best.nfev + null.nfev,
        njev=best.njev + null.njev,
    )


# ---------------------------------------------------------------------------
# damped-phasor extraction

@dataclass(frozen=True)
class Phasor:
    """One damped complex exponential a * exp[(i omega - decay) k] over the
    sample index k; peak is the periodogram peak of this component alone."""

    omega: float
    decay: float
    amplitude: complex
    peak: float


def _pencil_poles(z: np.ndarray, threshold: float, max_order: int) -> np.ndarray:
    """Poles of the leading signal subspace of a real or complex series
    (matrix pencil, Hua & Sarkar 1990).

    The (n - L) x (L + 1) Hankel matrix of an exact sum of damped
    exponentials, L = n // 2, has one singular value per exponential.  The
    model order is the number of singular values above
    threshold/2 * sqrt((n - L)(L + 1)), the height a component at the
    periodogram threshold reaches, capped at max_order and at n - L - 1,
    one below the Hankel matrix's row count.  The poles are the eigenvalues
    of the shift operator of the leading right singular vectors; a real
    series gives real poles and conjugate pairs.
    """
    n = z.shape[0]
    lag = n // 2
    hankel = np.lib.stride_tricks.sliding_window_view(z, lag + 1)
    _, sv, vh = np.linalg.svd(hankel, full_matrices=False)
    floor = 0.5 * threshold * math.sqrt((n - lag) * (lag + 1))
    order = min(int(np.count_nonzero(sv > floor)), max_order, n - lag - 1)
    if order == 0:
        return np.zeros(0, dtype=complex)
    v = vh[:order].T
    return np.linalg.eigvals(np.linalg.lstsq(v[:-1], v[1:], rcond=None)[0])


def extract_phasors(
    z: np.ndarray,
    threshold: float,
    max_components: int = 4,
) -> tuple[list[Phasor], np.ndarray]:
    """Damped phasors of a complex series by one matrix-pencil pass.

    The poles p come from the leading singular subspace of the series'
    Hankel matrix (`_pencil_poles`); the model order is the number of its
    singular values above the level a component at `threshold` reaches,
    capped at `max_components`.  Each pole gives omega = angle(p) and
    decay = max(-log|p|, 0), and the amplitudes of all components are
    solved at once by linear least squares.  Components whose own
    periodogram peak is below `threshold` are dropped and the amplitudes of
    the rest are solved again.  Returns the components and the residual,
    z minus their sum.
    """
    z = np.asarray(z, dtype=complex)
    if not np.all(np.isfinite(z)):
        raise ValueError("z has non-finite values")
    n = z.shape[0]
    poles = _pencil_poles(z, threshold, max_components)
    poles = poles[np.abs(poles) > 0.0]
    omegas = np.angle(poles)
    decays = np.maximum(-np.log(np.abs(poles)), 0.0)
    basis = np.exp(np.outer(np.arange(n), 1j * omegas - decays))
    amps = np.linalg.lstsq(basis, z, rcond=None)[0]
    peaks = np.abs(np.fft.fft(basis * amps, axis=0)).max(axis=0) / n
    keep = peaks >= threshold
    basis = basis[:, keep]
    amps = np.linalg.lstsq(basis, z, rcond=None)[0]
    comps = [
        Phasor(omega=float(w), decay=float(g), amplitude=complex(a), peak=float(peak))
        for w, g, a, peak in zip(omegas[keep], decays[keep], amps, peaks[keep])
    ]
    return comps, z - basis @ amps


def count_frequencies(z: np.ndarray, shots: int) -> tuple[int, list[float]]:
    """Number of distinct oscillation frequencies |omega| in a complex series.

    Components below half a frequency bin (pure decays, offsets) do not
    count; +/-omega pairs and components closer than one bin merge.  With
    shots = 0 an absolute floor of 1e-8 stands in for the shot noise.
    """
    z = np.asarray(z, dtype=complex)
    n = z.shape[0]
    if n < 2:
        return 0, []
    comps, _ = extract_phasors(z, peak_threshold(shots, n))
    omega_min = math.pi / n
    bin_w = 2.0 * math.pi / n
    freqs = sorted(abs(c.omega) for c in comps if abs(c.omega) >= omega_min)
    clusters: list[float] = []
    for f in freqs:
        if clusters and f - clusters[-1] < bin_w:
            continue
        clusters.append(f)
    return len(clusters), clusters


# ---------------------------------------------------------------------------
# single-frequency (Markovian-form) fit

def fit_single_frequency(values: np.ndarray, seeds: Sequence[Phasor] = ()) -> tuple[np.ndarray, float]:
    """Fit g0 + g1 r^n cos(n th + g2) + g3 d^n to a real series (n = 0, 1, ...).

    Only (r, th, d) are searched.  The form is linear in the amplitudes
    (g0, g1 cos g2, -g1 sin g2, g3), so every residual evaluation solves for
    them by linear least squares (variable projection).  The starts come
    from the phasor seeds, the periodogram peak and the series' own
    matrix-pencil poles.  Returns (params, loss) with
    params = (g0, g1, r, th, g2, g3, d).  Used for the
    Markovian-form residual: any time-independent Markovian map produces
    series of exactly this shape.
    """
    values = np.asarray(values, dtype=float)
    ns = np.arange(values.shape[0], dtype=float)

    def solve(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        r, th, d = x
        env = r**ns
        basis = np.column_stack([np.ones_like(ns), env * np.cos(ns * th), env * np.sin(ns * th), d**ns])
        coef = np.linalg.lstsq(basis, values, rcond=None)[0]
        return coef, values - basis @ coef

    # one damped phasor A e^{(i w - g) n} oscillates at |w| inside e^{-g n}.
    # Below half a frequency bin it is a pure decay, which d^n already
    # covers: there cos(n th) and sin(n th) nearly duplicate the offset and
    # d^n, and a start at such th drifts along that ridge for up to maxfev
    # evaluations without ever winning
    th_min = math.pi / values.shape[0]
    starts = [
        np.array([math.exp(-ph.decay), abs(ph.omega), 0.5]) for ph in seeds[:2] if abs(ph.omega) >= th_min
    ]
    spec = np.abs(np.fft.rfft(values - values.mean()))
    k = int(np.argmax(spec[1:]) + 1) if spec.shape[0] > 2 else 1
    w = 2.0 * math.pi * k / values.shape[0]
    starts += [np.array([0.99, w, 0.5]), np.array([0.999, 0.5 * w, 0.9]), np.array([0.95, 2.0 * w, 0.5])]
    # the form's poles are 1, r e^{+/- i th} and d: start from the series' own,
    # with d at its smallest positive real pole
    poles = _pencil_poles(values, 0.0, 4)
    d0 = min((p.real for p in poles if p.imag == 0.0 and p.real > 0.0), default=0.5)
    starts += [np.array([abs(p), np.angle(p), d0]) for p in poles if np.angle(p) >= th_min]
    best = minimize_multistart(
        lambda x: solve(x)[1], starts, np.zeros(3), np.array([1.2, math.pi, 1.2]),
        np.array([1.0, max(w, 0.05), 1.0]), maxfev=2500,
    )
    (g0, c, s, g3), _ = solve(best.x)
    r, th, d = best.x
    return np.array([g0, math.hypot(c, s), r, th, math.atan2(-s, c), g3, d]), best.fun


# ---------------------------------------------------------------------------
# verdict

@dataclass(frozen=True)
class NonMarkovianityReport:
    verdict: str
    purity: PurityFit | None
    frequency_count: int
    frequencies: tuple[float, ...]  # rad per gate unit, folded to |omega|
    form_residual: float
    shot_rmse: float
    n_points: int
    # the memory rules that held: "purity_z" (purity z > 3) and
    # "lines_and_form" (>= 2 lines and form residual > 2 x floor); empty
    # unless the verdict is non_markovian
    criteria: tuple[str, ...] = ()


def detect_nonmarkovianity(
    records: Sequence[ExperimentRecord], m: int = 4
) -> NonMarkovianityReport:
    """Run all three detectors on a single-theta record set and combine.

    Memory is declared when the purity oscillation is significant (z > 3) or
    the spectrum splits (>= 2 frequencies) with a single-frequency-form
    residual well above shot noise.  Fewer than 8 interpolated points, or a
    non-uniform n grid, is inconclusive.
    """
    m = _half_length(m)
    ns, bloch = bloch_series(records)
    span = int(ns[-1] - ns[0]) + 1 if ns.shape[0] > 1 else ns.shape[0]
    shots = records_shots(records)
    noise = shot_noise_rmse(shots)
    if span < 8 or ns.shape[0] < 4 or not uniform_grid(ns):
        return NonMarkovianityReport(
            verdict="inconclusive", purity=None, frequency_count=0, frequencies=(),
            form_residual=float("nan"), shot_rmse=noise, n_points=ns.shape[0],
        )
    period = 2.0 * m * int(ns[1] - ns[0])  # gate units per sample

    purity = fit_purity(records, m=m)

    z = bloch[:, 0] + 1j * bloch[:, 1]
    count, freqs_sample = count_frequencies(z, shots)
    freqs = tuple(f / period for f in freqs_sample)

    seeds, _ = extract_phasors(z, peak_threshold(shots, ns.shape[0]))
    _, form_loss = fit_single_frequency(bloch[:, 0], seeds)
    form_residual = math.sqrt(form_loss / ns.shape[0])

    floor = max(noise, 1e-6)
    held = {
        "purity_z": purity.significance > 3.0,
        "lines_and_form": count >= 2 and form_residual > 2.0 * floor,
    }
    criteria = tuple(name for name, ok in held.items() if ok)
    return NonMarkovianityReport(
        verdict="non_markovian" if criteria else "markovian_consistent",
        purity=purity,
        frequency_count=count,
        frequencies=freqs,
        form_residual=form_residual,
        shot_rmse=noise,
        n_points=ns.shape[0],
        criteria=criteria,
    )


# ---------------------------------------------------------------------------
# weighted aggregation of ratio estimates

@dataclass(frozen=True)
class WeightedRatio:
    """Inverse-variance aggregate of (value, sigma) pairs.

    sigma_total^2 = sigma_fit^2 + sigma_disp^2 adds the propagated fit error
    and the excess day-to-day scatter in quadrature.
    """

    mean: float
    sigma_fit: float
    sigma_disp: float
    sigma_total: float
    n: int


def _estimates(values: Sequence[float], sigmas: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """(values, sigmas) as checked float arrays: equal-length, non-empty, 1-d,
    finite, sigmas non-negative; a zero sigma is floored at 1e-12 with a
    RuntimeWarning."""
    values = np.asarray(values, dtype=float)
    sigmas = np.asarray(sigmas, dtype=float)
    if values.shape != sigmas.shape or values.ndim != 1 or values.shape[0] == 0:
        raise ValueError("values and sigmas must be equal-length non-empty 1-d arrays")
    if not (np.all(np.isfinite(values)) and np.all(np.isfinite(sigmas))):
        raise ValueError("values and sigmas must be finite")
    if np.any(sigmas < 0):
        raise ValueError("sigmas must be non-negative")
    if np.any(sigmas == 0):
        warnings.warn("zero sigma in aggregation; flooring at 1e-12", RuntimeWarning, stacklevel=3)
        sigmas = np.maximum(sigmas, _SIGMA_FLOOR)
    return values, sigmas


def aggregate_ratios(values: Sequence[float], sigmas: Sequence[float]) -> WeightedRatio:
    values, sigmas = _estimates(values, sigmas)
    w = 1.0 / sigmas**2
    mean = float(np.sum(w * values) / np.sum(w))
    sigma_fit = float(1.0 / math.sqrt(np.sum(w)))
    sigma_disp = float(math.sqrt(np.sum(w * (values - mean) ** 2) / np.sum(w)))
    return WeightedRatio(
        mean=mean,
        sigma_fit=sigma_fit,
        sigma_disp=sigma_disp,
        sigma_total=math.sqrt(sigma_fit**2 + sigma_disp**2),
        n=values.shape[0],
    )


def density_profile(
    values: Sequence[float], sigmas: Sequence[float], z_grid: np.ndarray
) -> np.ndarray:
    """Equal-weight Gaussian mixture density over z: mean_k N(z; r_k, s_k).
    The (r_k, s_k) pairs are checked as in aggregate_ratios."""
    values, sigmas = _estimates(values, sigmas)
    z = np.asarray(z_grid, dtype=float)
    out = np.zeros_like(z)
    for r, s in zip(values, sigmas):
        out += np.exp(-0.5 * ((z - r) / s) ** 2) / (s * math.sqrt(2.0 * math.pi))
    return out / values.shape[0]
