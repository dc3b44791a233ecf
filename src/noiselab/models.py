"""Noise models for a driven qubit: Markovian, qubit+TLS, and memory-kernel.

All rates and frequencies are per gate unit (one drive gate = 1 unit of time).

Markovian baseline
    H = drive * sigma_x + delta_omega * sigma_z, amplitude damping L_AD at
    rate gamma_ad and dephasing sigma_z at rate gamma_d.  Idle coherence:
    rho_01(t) = rho_01(0) exp[(-2i delta_omega - 2 gamma_d - gamma_ad/2) t].

Qubit-TLS
    The qubit coherently couples to an unmonitored two-level system,
    H = (H_qubit (x) I) + nu_zx sigma_z (x) tau_x, and the TLS relaxes to its
    ground state at rate kappa.  Tracing out the TLS leaves non-Markovian
    qubit dynamics; from |+> (x) |0> the exact idle qubit coherence is

        rho_01(t) = (1/2) e^{(-2i dw - 2 G_D - G_AD/2) t} B(t; kappa/4, D2)

    with D2 = kappa^2/16 - 4 nu_zx^2 and the memory bracket

        B(t; s, D2) = e^{-s t} [cosh(t sqrt(D2)) + s t sinhc(t sqrt(D2))] .

    For kappa = 0 this is a pure cos(2 nu_zx t) beat; for kappa^2/16 >=
    4 nu_zx^2 the beat is overdamped.

Post-Markovian master equation (PMME)
    d rho/dt = L0 rho(t) + L1 int_0^t dt' e^{-b t'} e^{(L0+L1) t'} rho(t-t'),
    with L1 = gamma_z (sigma_z . sigma_z - id).  The same bracket solves the
    idle coherence with s = (b + 2 gamma_z)/2 and D2 = s^2 - 2 gamma_z, which
    is why the substitution gamma_z = 2 nu_zx^2, b = kappa/2 - 4 nu_zx^2 maps
    the two models onto each other exactly.

Amplitude damping acts only on the qubit and commutes with the memory sector:
coherences pick up exp(-gamma_ad t / 2) and c_z(t) = 1 - e^{-gamma_ad t}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np
from scipy.linalg import expm

from .pauli import (
    GeneratorMatrix,
    PauliVector,
    build_generator,
)

# Jump operator relaxing |1> -> |0>.
L_AD = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)


class UnsupportedModelError(ValueError):
    """Raised when a model cannot represent the requested situation
    (e.g. memory-kernel propagation of a driven schedule)."""


def _check_rate(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value) or value < 0:
        raise ValueError(f"{name} must be finite and non-negative, got {value}")
    return value


def _check_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    return value


@dataclass(frozen=True)
class MarkovianParams:
    """Static detuning delta_omega plus amplitude damping / dephasing rates."""

    delta_omega: float = 0.0
    gamma_ad: float = 0.0
    gamma_d: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "delta_omega", _check_finite("delta_omega", self.delta_omega))
        object.__setattr__(self, "gamma_ad", _check_rate("gamma_ad", self.gamma_ad))
        object.__setattr__(self, "gamma_d", _check_rate("gamma_d", self.gamma_d))


@dataclass(frozen=True)
class QubitTLSParams:
    """Markovian qubit parameters plus a sigma_z (x) tau_x TLS coupling nu_zx
    and TLS relaxation rate kappa."""

    delta_omega: float = 0.0
    gamma_ad: float = 0.0
    gamma_d: float = 0.0
    nu_zx: float = 0.0
    kappa: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "delta_omega", _check_finite("delta_omega", self.delta_omega))
        object.__setattr__(self, "gamma_ad", _check_rate("gamma_ad", self.gamma_ad))
        object.__setattr__(self, "gamma_d", _check_rate("gamma_d", self.gamma_d))
        # the dynamics is even in nu_zx, so the canonical sign is +
        object.__setattr__(self, "nu_zx", _check_rate("nu_zx", self.nu_zx))
        object.__setattr__(self, "kappa", _check_rate("kappa", self.kappa))

    def markovian(self) -> MarkovianParams:
        return MarkovianParams(self.delta_omega, self.gamma_ad, self.gamma_d)


@dataclass(frozen=True)
class PMMEParams:
    """Markovian qubit parameters plus memory-kernel dephasing: weight gamma_z
    and kernel decay constant b.  b < -2 gamma_z makes the map non-contractive
    (outside the physical region); it is representable, nothing flags it, and
    fits leave b unbounded, so a free-b fit can land there."""

    delta_omega: float = 0.0
    gamma_ad: float = 0.0
    gamma_d: float = 0.0
    gamma_z: float = 0.0
    b: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "delta_omega", _check_finite("delta_omega", self.delta_omega))
        object.__setattr__(self, "gamma_ad", _check_rate("gamma_ad", self.gamma_ad))
        object.__setattr__(self, "gamma_d", _check_rate("gamma_d", self.gamma_d))
        object.__setattr__(self, "gamma_z", _check_rate("gamma_z", self.gamma_z))
        object.__setattr__(self, "b", _check_finite("b", self.b))

    def markovian(self) -> MarkovianParams:
        return MarkovianParams(self.delta_omega, self.gamma_ad, self.gamma_d)


NoiseParams = MarkovianParams | QubitTLSParams | PMMEParams

MODEL_TAGS: dict[str, type] = {
    "markovian": MarkovianParams,
    "qubit_tls": QubitTLSParams,
    "pmme": PMMEParams,
}
_TAG_BY_TYPE = {cls: tag for tag, cls in MODEL_TAGS.items()}


def model_tag(params: NoiseParams) -> str:
    return _TAG_BY_TYPE[type(params)]


def params_to_dict(params: NoiseParams) -> dict:
    out = {"model": model_tag(params)}
    for f in fields(params):
        out[f.name] = getattr(params, f.name)
    return out


def params_from_dict(data: dict) -> NoiseParams:
    if "model" not in data:
        raise ValueError("parameter dict needs a 'model' tag")
    tag = data["model"]
    if tag not in MODEL_TAGS:
        raise ValueError(f"unknown model {tag!r}; expected one of {sorted(MODEL_TAGS)}")
    cls = MODEL_TAGS[tag]
    names = {f.name for f in fields(cls)}
    extra = set(data) - names - {"model"}
    if extra:
        raise ValueError(f"unknown parameter keys for {tag}: {sorted(extra)}")
    return cls(**{k: v for k, v in data.items() if k in names})


# ---------------------------------------------------------------------------
# generators

def markovian_generator(params: MarkovianParams, drive: float = 0.0) -> GeneratorMatrix:
    """4x4 Pauli-coordinate generator for the driven Markovian qubit.

    drive is the sigma_x Hamiltonian coefficient; its sign is the drive axis
    (+x or -x), which is how the mirrored half of a pseudoidentity enters.
    """
    ham = [("X", drive), ("Z", params.delta_omega)]
    diss = [(L_AD, params.gamma_ad), ("Z", params.gamma_d)]
    return build_generator(ham, diss, 1)


def qubit_tls_generator(params: QubitTLSParams, drive: float = 0.0) -> GeneratorMatrix:
    """16x16 generator for qubit (x) TLS.

    drive is the sigma_x (x) I coefficient, signed as in markovian_generator.
    Drive, detuning, and the qubit dissipators act on the qubit factor only;
    the TLS has no local Hamiltonian, couples through nu_zx sigma_z (x) tau_x,
    and relaxes at kappa.
    """
    ham = [("XI", drive), ("ZI", params.delta_omega), ("ZX", params.nu_zx)]
    diss = [
        (np.kron(L_AD, np.eye(2)), params.gamma_ad),
        ("ZI", params.gamma_d),
        (np.kron(np.eye(2), L_AD), params.kappa),
    ]
    return build_generator(ham, diss, 2)


# ---------------------------------------------------------------------------
# closed-form idle solutions

def _sinhc(x: np.ndarray) -> np.ndarray:
    """sinh(x)/x, series for |x| < 1e-6 (x may be complex)."""
    x = np.asarray(x, dtype=complex)
    small = np.abs(x) < 1e-6
    safe = np.where(small, 1.0, x)
    out = np.sinh(safe) / safe
    series = 1.0 + x * x / 6.0
    return np.where(small, series, out)


def _memory_bracket(t: np.ndarray, s: float, d2: float) -> np.ndarray:
    """B(t) = e^{-s t} [cosh(t D) + s t sinhc(t D)] with D = sqrt(d2).

    For physical parameters d2 = s^2 - w with w >= 0, so Re(D) <= |s| and the
    equivalent split form (1/2)(1 + s/D) e^{(D - s) t} + (1/2)(1 - s/D)
    e^{-(D + s) t} has no growing exponential; it is used away from D ~ 0 to
    avoid overflowing cosh.  B(0) = 1 and w = 0 gives B = 1 identically.
    """
    t = np.asarray(t, dtype=float)
    d = np.sqrt(complex(d2))
    x = t * d
    small = np.abs(x) < 1e-3
    if np.all(small):
        return np.real(np.exp(-s * t) * (np.cosh(x) + s * t * _sinhc(x)))
    if abs(d) < 1e-12:
        # degenerate root: B = e^{-s t}(1 + s t)
        return np.exp(-s * t) * (1.0 + s * t)
    # evaluate branch-wise: cosh would overflow on the large-|x| points even
    # inside a discarded np.where branch
    out = np.empty(t.shape)
    if np.any(small):
        ts, xs = t[small], x[small]
        out[small] = np.real(np.exp(-s * ts) * (np.cosh(xs) + s * ts * _sinhc(xs)))
    big = ~small
    tb = t[big]
    plus = 0.5 * (1.0 + s / d) * np.exp((d - s) * tb)
    minus = 0.5 * (1.0 - s / d) * np.exp(-(d + s) * tb)
    out[big] = np.real(plus + minus)
    return out


def _idle_bloch(
    t: np.ndarray, delta_omega: float, gamma_ad: float, gamma_d: float, s: float, d2: float
) -> np.ndarray:
    """(len(t), 3) Bloch components from |+> under coherence bracket B."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if (t < 0).any():
        raise ValueError("time must be non-negative")
    rho01 = (
        0.5
        * np.exp((-2j * delta_omega - 2.0 * gamma_d - 0.5 * gamma_ad) * t)
        * _memory_bracket(t, s, d2)
    )
    out = np.empty((t.shape[0], 3))
    out[:, 0] = 2.0 * rho01.real
    out[:, 1] = -2.0 * rho01.imag
    out[:, 2] = 1.0 - np.exp(-gamma_ad * t)
    return out


def markovian_idle_bloch(params: MarkovianParams, t: np.ndarray) -> np.ndarray:
    """Vectorised exact (c_x, c_y, c_z) from |+> under plain Lindblad idling."""
    return _idle_bloch(t, params.delta_omega, params.gamma_ad, params.gamma_d, 0.0, 0.0)


def qubit_tls_idle_bloch(params: QubitTLSParams, t: np.ndarray) -> np.ndarray:
    """Vectorised exact qubit marginal (c_x, c_y, c_z) from |+> (x) |0>, idle."""
    s = params.kappa / 4.0
    d2 = s * s - 4.0 * params.nu_zx**2
    return _idle_bloch(t, params.delta_omega, params.gamma_ad, params.gamma_d, s, d2)


def pmme_idle_bloch(params: PMMEParams, t: np.ndarray) -> np.ndarray:
    """Vectorised exact memory-kernel solution (c_x, c_y, c_z) from |+>, idle."""
    if params.gamma_z == 0.0:
        # the kernel term vanishes identically; plain Markovian decay
        s, d2 = 0.0, 0.0
    else:
        s = 0.5 * (params.b + 2.0 * params.gamma_z)
        d2 = s * s - 2.0 * params.gamma_z
    return _idle_bloch(t, params.delta_omega, params.gamma_ad, params.gamma_d, s, d2)


# ---------------------------------------------------------------------------
# memory-kernel numerical oracle

def pmme_numeric_oracle(
    params: PMMEParams,
    t_grid: Sequence[float],
    state0: PauliVector | None = None,
) -> list[PauliVector]:
    """Direct integration of the memory-kernel equation on a uniform grid.

    The convolution int_0^t dt' e^{-b t'} e^{(L0+L1) t'} rho(t - t') is
    discretised with the trapezoid rule; the kernel matrix at node l is M^l
    with M = expm((L0 + L1 - b) h), updated incrementally so the whole
    integration is O(N).  Time stepping is Heun's predictor-corrector on a
    grid one subdivision finer than the one requested (fixed 2x refinement,
    which keeps a few-x error margin at large detunings where the phase error
    dominates).  The method is second order in the requested step: halving it
    cuts the error by about 4x.  Requested steps above 0.05 gate units are
    refused.
    """
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or t.shape[0] < 2:
        raise ValueError("time grid must be 1-d with at least two points")
    if abs(t[0]) > 1e-12:
        raise ValueError("time grid must start at 0")
    steps = np.diff(t)
    h_req = steps[0]
    if h_req <= 0 or not np.allclose(steps, h_req, rtol=1e-9, atol=1e-12):
        raise ValueError("time grid must be uniform and increasing")
    if h_req > 0.05 + 1e-12:
        raise ValueError(f"grid step {h_req} too coarse for the quadrature; use <= 0.05")
    refine = 2
    h = h_req / refine
    n_fine = (t.shape[0] - 1) * refine + 1

    l0 = markovian_generator(params.markovian()).entries
    l1 = build_generator([], [("Z", params.gamma_z)], 1).entries
    kernel_step = expm((l0 + l1 - params.b * np.eye(4)) * h)

    if state0 is None:
        state0 = PauliVector.plus()
    c = np.empty((n_fine, 4))
    c[0] = state0.coeffs

    def memory(j: int, cj: np.ndarray, s_sum: np.ndarray, u: np.ndarray) -> np.ndarray:
        # trapezoid of sum_l K_l c_{j-l}: 1/2 c_j + interior + 1/2 K_j c_0
        if j == 0:
            return np.zeros(4)
        return h * (0.5 * cj + s_sum + 0.5 * u)

    s_sum = np.zeros(4)  # sum_{l=1}^{j-1} K_l c_{j-l}
    u = c[0].copy()      # K_j c_0
    for j in range(n_fine - 1):
        g = memory(j, c[j], s_sum, u)
        f = l0 @ c[j] + l1 @ g
        predictor = c[j] + h * f
        s_next = np.zeros(4) if j == 0 else kernel_step @ (c[j] + s_sum)
        u_next = kernel_step @ u
        g_pred = h * (0.5 * predictor + s_next + 0.5 * u_next)
        f_pred = l0 @ predictor + l1 @ g_pred
        c[j + 1] = c[j] + 0.5 * h * (f + f_pred)
        s_sum, u = s_next, u_next

    return [PauliVector(row) for row in c[::refine]]


# ---------------------------------------------------------------------------
# model relations

def map_qubit_tls_to_pmme(params: QubitTLSParams) -> PMMEParams:
    """Parameter substitution making the idle qubit marginals identical:
    gamma_z = 2 nu_zx^2, b = kappa/2 - 4 nu_zx^2."""
    return PMMEParams(
        delta_omega=params.delta_omega,
        gamma_ad=params.gamma_ad,
        gamma_d=params.gamma_d,
        gamma_z=2.0 * params.nu_zx**2,
        b=0.5 * params.kappa - 4.0 * params.nu_zx**2,
    )


def map_pmme_to_qubit_tls(params: PMMEParams) -> QubitTLSParams:
    """Inverse substitution nu_zx = sqrt(gamma_z/2), kappa = 2 b + 4 gamma_z.
    Only defined where the implied TLS relaxation rate is non-negative."""
    kappa = 2.0 * params.b + 4.0 * params.gamma_z
    if kappa < 0:
        raise ValueError(
            f"no qubit-TLS counterpart: implied kappa = {kappa} < 0 "
            "(b too negative for the given gamma_z)"
        )
    return QubitTLSParams(
        delta_omega=params.delta_omega,
        gamma_ad=params.gamma_ad,
        gamma_d=params.gamma_d,
        nu_zx=math.sqrt(params.gamma_z / 2.0),
        kappa=kappa,
    )


def effective_dephasing(params: NoiseParams) -> float:
    """Markovian dephasing rate matching the long-time coherence envelope.

    Qubit-TLS: gamma_d + kappa/8; memory kernel: gamma_d + (b + 2 gamma_z)/4;
    the two agree under the model mapping.  Markovian params pass through.
    """
    if isinstance(params, QubitTLSParams):
        return params.gamma_d + params.kappa / 8.0
    if isinstance(params, PMMEParams):
        return params.gamma_d + (params.b + 2.0 * params.gamma_z) / 4.0
    return params.gamma_d
