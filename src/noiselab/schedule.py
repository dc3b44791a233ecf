"""Pseudoidentity schedules and their noisy superoperators.

One pseudoidentity repetition is m unit-duration x gates of angle
theta_full / m followed by m gates of -theta_full / m.  In the experiment the
sign flip is a virtual Z_pi between the halves (a second one closes the frame
to 2 pi); a virtual Z is an instantaneous frame relabeling, so all it leaves
behind is the sign of the drive.  Each half is therefore one constant
Hamiltonian, drive +Omega or -Omega on sigma_x with Omega = theta_full / (2 m),
and the noisy block is exactly two constant-drive propagators

    Lambda = exp(m L(-Omega)) exp(m L(+Omega)) .

Ideally the whole block is the identity channel; coherent errors that do not
commute with the mirroring (detuning delta_omega, TLS coupling) survive and
accumulate over n repetitions.  Detuning and dissipation act throughout both
halves, including the zero-amplitude drive of an idle (theta_full = 0)
sequence, so one idle pseudoidentity is exactly 2 m gate units of free decay.

`bloch_trajectory` is the one prediction path from noise parameters to qubit
expectation values: synthetic records (`synth`) and every fit (`fitting`) read
it.  Idle schedules take the model's closed-form free decay at t = 2 m n;
driven ones step the block superoperator's powers along the sorted n grid.
`bloch_jacobian` is its exact derivative in the noise parameters, which
every fit optimises with.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
from scipy.linalg import expm

from .models import (
    MarkovianParams,
    NoiseParams,
    PMMEParams,
    QubitTLSParams,
    UnsupportedModelError,
    _check_finite,
    generator_terms,
    idle_bloch_jacobian,
    markovian_generator,
    markovian_idle_bloch,
    model_tag,
    pmme_idle_bloch,
    qubit_tls_generator,
    qubit_tls_idle_bloch,
)
from .pauli import SIGMA_X, SIGMA_Z, PauliVector, PowerEngine, propagate

BASES = ("X", "Y", "Z")


def _count(value, what: str) -> int:
    """value as an int; anything but an integral real number (a bool included)
    raises ValueError rather than being truncated."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not float(value).is_integer():
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _half_length(m) -> int:
    """m as a positive int: the gates in each half of a pseudoidentity."""
    count = _count(m, "m")
    if count < 1:
        raise ValueError(f"m must be a positive integer, got {m!r}")
    return count


@dataclass(frozen=True)
class PseudoidentitySchedule:
    """Repetition experiment: one pseudoidentity block scanned over n."""

    theta_full: float
    n_values: tuple[int, ...]
    m: int = 4
    bases: tuple[str, ...] = BASES

    def __post_init__(self):
        object.__setattr__(self, "m", _half_length(self.m))
        object.__setattr__(self, "theta_full", _check_finite("theta_full", self.theta_full))
        ns = tuple(_count(n, "repetition count") for n in self.n_values)
        if len(ns) == 0:
            raise ValueError("n_values must be non-empty")
        if any(n < 0 for n in ns):
            raise ValueError("repetition counts must be non-negative")
        if list(ns) != sorted(set(ns)):
            raise ValueError("n_values must be strictly increasing")
        object.__setattr__(self, "n_values", ns)
        if isinstance(self.bases, str):
            raise ValueError(f"bases must be a list of basis names, got {self.bases!r}")
        bases = tuple(self.bases)
        if not bases or any(b not in BASES for b in bases):
            raise ValueError(f"bases must be a non-empty subset of {BASES}")
        # canonical X, Y, Z order regardless of input order
        object.__setattr__(self, "bases", tuple(b for b in BASES if b in bases))

    @property
    def duration(self) -> float:
        """Gate units per pseudoidentity repetition: two halves of m."""
        return 2.0 * self.m

    @property
    def theta_gate(self) -> float:
        return self.theta_full / self.m

    def to_dict(self) -> dict:
        return {
            "theta_full": self.theta_full,
            "m": self.m,
            "n_values": list(self.n_values),
            "bases": list(self.bases),
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "PseudoidentitySchedule":
        known = {"theta_full", "m", "n_values", "bases"}
        extra = set(data) - known
        if extra:
            raise ValueError(f"unknown schedule keys: {sorted(extra)}")
        if "theta_full" not in data or "n_values" not in data:
            raise ValueError("schedule needs theta_full and n_values")
        return cls(
            theta_full=data["theta_full"],
            n_values=tuple(data["n_values"]),
            m=data.get("m", 4),
            bases=data.get("bases", BASES),
        )


def _generator_function(params: NoiseParams):
    """The generator function of params' model; memory-kernel (PMME) params
    are rejected since the kernel does not factor into gates."""
    if isinstance(params, MarkovianParams):
        return markovian_generator
    if isinstance(params, QubitTLSParams):
        return qubit_tls_generator
    raise UnsupportedModelError(
        "memory-kernel dynamics has no per-gate superoperator; "
        "only idle trajectories are defined for PMME parameters"
    )


def _start_and_axes(dim: int) -> tuple[np.ndarray, list[int]]:
    """The |+> start (the TLS, if present, in its ground state) of a dim-d
    Pauli vector and the indices of the qubit's sigma_x, sigma_y, sigma_z."""
    if dim == 16:
        return PauliVector.plus_tls_ground().coeffs, [4, 8, 12]
    return PauliVector.plus().coeffs, [1, 2, 3]


def schedule_superoperator(params: NoiseParams, schedule: PseudoidentitySchedule) -> np.ndarray:
    """Block superoperator of one full pseudoidentity repetition under the noise
    model, as a float array whose first row is exactly (1, 0, ..., 0).

    The block is exp(m L(-Omega)) exp(m L(+Omega)): m unit gates at drive
    +Omega, then m at -Omega, Omega = theta_full / (2 m).  Markovian params
    give a 4x4 map, qubit-TLS a 16x16 map; memory-kernel (PMME) params are
    rejected since the kernel does not factor into gates.
    """
    generator = _generator_function(params)
    m = schedule.m
    omega = schedule.theta_full / (2.0 * m)
    first = propagate(generator(params, omega), m)
    second = propagate(generator(params, -omega), m)
    return second @ first


def bloch_trajectory(params: NoiseParams, schedule: PseudoidentitySchedule) -> np.ndarray:
    """Exact (infinite-shot) qubit <sx>, <sy>, <sz>, one row per schedule.n_values.

    The qubit starts in |+> (the TLS, if present, in its ground state).  An
    idle schedule is 2 m n gate units of free decay, read from the model's
    closed form; a driven block superoperator is raised to each n by
    stepping along the sorted n grid (`PowerEngine`).  Memory-kernel
    parameters have no driven block, so a driven schedule raises
    UnsupportedModelError in schedule_superoperator.
    """
    ns = np.asarray(schedule.n_values, dtype=int)
    if schedule.theta_full == 0.0:
        t = ns * schedule.duration
        if isinstance(params, MarkovianParams):
            return markovian_idle_bloch(params, t)
        if isinstance(params, QubitTLSParams):
            return qubit_tls_idle_bloch(params, t)
        if isinstance(params, PMMEParams):
            return pmme_idle_bloch(params, t)
    sup = schedule_superoperator(params, schedule)
    c0, axes = _start_and_axes(sup.shape[0])
    return PowerEngine(sup).states(ns, c0)[:, axes]


def bloch_jacobian(
    params: NoiseParams, schedule: PseudoidentitySchedule, columns: Sequence[int]
) -> np.ndarray:
    """d(c_x, c_y, c_z)/dp of bloch_trajectory for the parameters
    PARAM_NAMES[model][columns], shaped (len(n_values), 3, len(columns)).

    Idle schedules read `models.idle_bloch_jacobian`.  On a driven one the
    generator is linear in its parameters, L = drive X + sum_k p_k G_k with
    G_k = `models.generator_terms`, so (Van Loan 1978) the exponential of
    the block-arrow matrix with L on every diagonal block and G_k in block
    row k, column 0 holds exp(m L) in block (0, 0) and d exp(m L) / dp_k in
    block (k, 0).  Such matrices are closed under products, so the product
    of the two halves' exponentials holds the block superoperator Lambda and
    (product rule) every d Lambda / dp_k, and its n-th power every
    d Lambda^n / dp_k: one `PowerEngine` pass from (c0, 0, ..., 0) steps
    the trajectory and all its derivatives together.  A parameter left out
    of columns costs nothing.
    """
    ns = np.asarray(schedule.n_values, dtype=int)
    columns = list(columns)
    if schedule.theta_full == 0.0:
        return idle_bloch_jacobian(params, ns * schedule.duration)[:, :, columns]
    generator = _generator_function(params)
    terms = generator_terms(model_tag(params))[columns]
    k, dim = terms.shape[0], terms.shape[-1]
    m = schedule.m
    omega = schedule.theta_full / (2.0 * m)
    diagonal = np.arange(k + 1)

    def half(drive: float) -> np.ndarray:
        arrow = np.zeros((k + 1, dim, k + 1, dim))
        arrow[diagonal, :, diagonal, :] = generator(params, drive)
        arrow[1:, :, 0, :] = terms
        return expm(m * arrow.reshape((k + 1) * dim, (k + 1) * dim))

    c0, axes = _start_and_axes(dim)
    start = np.zeros((k + 1) * dim)
    start[:dim] = c0
    states = PowerEngine(half(-omega) @ half(omega)).states(ns, start)
    return states.reshape(len(ns), k + 1, dim)[:, 1:, axes].transpose(0, 2, 1)


def predict_trajectory(
    params: NoiseParams, schedule: PseudoidentitySchedule
) -> dict[int, tuple[float, float, float]]:
    """bloch_trajectory as {n: (<sx>, <sy>, <sz>)}."""
    rows = bloch_trajectory(params, schedule).tolist()
    return {n: tuple(row) for n, row in zip(schedule.n_values, rows)}


def pseudoidentity_unitary(
    theta_full: float,
    m: int,
    over_rotation: float = 0.0,
    sigma_z_error: float = 0.0,
) -> np.ndarray:
    """Noiseless composite unitary of one pseudoidentity repetition.

    The virtual-Z bookkeeping contributes only a global phase, which is
    dropped: what is returned is U = U_second_half @ U_first_half in the
    drive frame, each half being m unit-duration gates of the same constant
    Hamiltonian

        H_(+/-) = (+/-) Omega (1 + over_rotation) sigma_x
                  + Omega sigma_z_error sigma_z ,
        Omega = theta_full / (2 m) .

    With no perturbation the mirrored halves cancel exactly.  A sigma_z
    perturbation at theta_full = 2 pi leaves only a third-order diagonal
    phase ~ pi sigma_z_error^3 (off-diagonals are fifth order).
    """
    m = _half_length(m)
    omega = theta_full / (2.0 * m)
    drive = omega * (1.0 + over_rotation)
    h_plus = drive * SIGMA_X + omega * sigma_z_error * SIGMA_Z
    h_minus = -drive * SIGMA_X + omega * sigma_z_error * SIGMA_Z
    return expm(-1j * m * h_minus) @ expm(-1j * m * h_plus)
