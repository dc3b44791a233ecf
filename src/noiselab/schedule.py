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
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Mapping

import numpy as np
from scipy.linalg import expm

from .models import (
    MarkovianParams,
    NoiseParams,
    PMMEParams,
    QubitTLSParams,
    UnsupportedModelError,
    markovian_generator,
    pmme_idle_bloch,
    qubit_tls_generator,
)
from .pauli import (
    PauliVector,
    PowerEngine,
    SIGMA_X,
    SIGMA_Z,
    Superoperator,
    propagate,
)

BASES = ("X", "Y", "Z")


def _count(value, what: str) -> int:
    """value as an int; anything but an integral real number (a bool included)
    raises ValueError rather than being truncated."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not float(value).is_integer():
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class PseudoidentitySchedule:
    """Repetition experiment: one pseudoidentity block scanned over n."""

    theta_full: float
    n_values: tuple[int, ...]
    m: int = 4
    bases: tuple[str, ...] = BASES

    def __post_init__(self):
        m = _count(self.m, "m")
        if m < 1:
            raise ValueError(f"m must be a positive integer, got {self.m!r}")
        object.__setattr__(self, "m", m)
        if not math.isfinite(self.theta_full):
            raise ValueError("theta_full must be finite")
        ns = tuple(_count(n, "repetition count") for n in self.n_values)
        if len(ns) == 0:
            raise ValueError("n_values must be non-empty")
        if any(n < 0 for n in ns):
            raise ValueError("repetition counts must be non-negative")
        if list(ns) != sorted(set(ns)):
            raise ValueError("n_values must be strictly increasing")
        object.__setattr__(self, "n_values", ns)
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
            theta_full=float(data["theta_full"]),
            n_values=tuple(data["n_values"]),
            m=data.get("m", 4),
            bases=tuple(data.get("bases", BASES)),
        )


def schedule_superoperator(params: NoiseParams, schedule: PseudoidentitySchedule) -> Superoperator:
    """Superoperator of one full pseudoidentity repetition under the noise model.

    The block is exp(m L(-Omega)) exp(m L(+Omega)): m unit gates at drive
    +Omega, then m at -Omega, Omega = theta_full / (2 m).  Markovian params
    give a 4x4 map, qubit-TLS a 16x16 map; memory-kernel (PMME) params are
    rejected since the kernel does not factor into gates.
    """
    if isinstance(params, MarkovianParams):
        generator = markovian_generator
    elif isinstance(params, QubitTLSParams):
        generator = qubit_tls_generator
    else:
        raise UnsupportedModelError(
            "memory-kernel dynamics has no per-gate superoperator; "
            "only idle trajectories are defined for PMME parameters"
        )
    m = schedule.m
    omega = schedule.theta_full / (2.0 * m)
    first = propagate(generator(params, omega), m)
    second = propagate(generator(params, -omega), m)
    return second @ first


def _initial_state(params: NoiseParams) -> PauliVector:
    if isinstance(params, QubitTLSParams):
        return PauliVector.plus_tls_ground()
    return PauliVector.plus()


def predict_trajectory(
    params: NoiseParams, schedule: PseudoidentitySchedule
) -> dict[int, tuple[float, float, float]]:
    """Exact (infinite-shot) qubit expectation values <sx>, <sy>, <sz> per n.

    The qubit starts in |+> (the TLS, if present, in its ground state); one
    pseudoidentity superoperator is diagonalised once and applied n times.
    Memory-kernel parameters are propagated with the closed-form idle
    solution and therefore only support theta_full = 0.
    """
    ns = np.asarray(schedule.n_values, dtype=int)
    if isinstance(params, PMMEParams):
        if schedule.theta_full != 0.0:
            raise UnsupportedModelError(
                "memory-kernel propagation is only defined for idle "
                "(theta_full = 0) schedules"
            )
        bloch = pmme_idle_bloch(params, ns * schedule.duration)
    else:
        sup = schedule_superoperator(params, schedule)
        engine = PowerEngine(sup.matrix)
        states = engine.states(ns, _initial_state(params).coeffs)
        if isinstance(params, QubitTLSParams):
            bloch = states[:, [4, 8, 12]]
        else:
            bloch = states[:, 1:4]
    return {int(n): (float(b[0]), float(b[1]), float(b[2])) for n, b in zip(ns, bloch)}


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
    if not isinstance(m, int) or m < 1:
        raise ValueError(f"m must be a positive integer, got {m!r}")
    omega = theta_full / (2.0 * m)
    drive = omega * (1.0 + over_rotation)
    h_plus = drive * SIGMA_X + omega * sigma_z_error * SIGMA_Z
    h_minus = -drive * SIGMA_X + omega * sigma_z_error * SIGMA_Z
    return expm(-1j * m * h_minus) @ expm(-1j * m * h_plus)
