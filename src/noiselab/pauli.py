"""Pauli transfer-matrix representation of qubit (and qubit+TLS) dynamics.

States are stored as real coefficient vectors over the lexicographic Pauli
product basis,

    rho = 2^{-q} sum_i c_i F_i ,    c_i = Tr[F_i rho] ,

with F_i for q = 1 the Paulis (I, X, Y, Z) and for q = 2 the sixteen products
F_{4a+b} = P_a (x) P_b (first factor = qubit, second = TLS).  Hermiticity of
rho makes every c_i real and unit trace pins c_0 = 1.

A GKLS generator

    L[rho] = -i[H, rho] + sum_k G_k (L_k rho L_k^+ - {L_k^+ L_k, rho}/2)

becomes a real 4^q x 4^q matrix l_ji = 2^{-q} Tr[F_j L[F_i]] acting on the
coefficient vector, so time evolution is c(t) = exp(l t) c(0).  Trace
preservation means the first row of l vanishes identically; we zero it exactly
so that c_0 = 1 survives matrix exponentials bit-for-bit.

l is linear in the Hamiltonian coefficients and the rates G_k.
`build_generator` therefore projects each unit term (the commutator with one
Pauli string, or the dissipator of one jump operator) once, in a single
einsum over the stacked basis.  It keeps that projection in a bounded cache
keyed on the operator's bytes and returns the weighted sum of the cached
terms.

Generators and the maps `propagate` returns are plain float ndarrays (4x4 for
q = 1, 16x16 for q = 2) and compose with ``@``; states are `PauliVector`s,
whose type enforces c_0 = 1.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.linalg import expm

IDENTITY_2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

PAULI_BY_CHAR = {"I": IDENTITY_2, "X": SIGMA_X, "Y": SIGMA_Y, "Z": SIGMA_Z}


def _check_finite(name: str, value) -> float:
    """value as a float; a bool, a string or a non-finite number raises
    ValueError rather than being coerced."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    if not math.isfinite(value):
        raise ValueError(f"non-finite {name}: {value!r}")
    return float(value)


def _check_rate(name: str, value) -> float:
    value = _check_finite(name, value)
    if value < 0:
        raise ValueError(f"{name} must be non-negative, got {value}")
    return value


def _check_q(q) -> int:
    if isinstance(q, bool) or q not in (1, 2):
        raise ValueError(f"q must be 1 or 2, got {q!r}")
    return int(q)


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


# the stacked lexicographic basis for each q, read-only (q = 2 is
# kron(P_a, P_b) for every pair, formed by one broadcast product), and every
# Pauli string of length 1 and 2 as a view into it
_SINGLES = np.stack(list(PAULI_BY_CHAR.values()))
_BASIS = {
    1: _frozen(_SINGLES),
    2: _frozen((_SINGLES[:, None, :, None, :, None] * _SINGLES[None, :, None, :, None, :])
               .reshape(16, 4, 4)),
}
_PAULI_STRINGS = {"".join(chars): f for q, basis in _BASIS.items()
                  for chars, f in zip(itertools.product("IXYZ", repeat=q), basis)}


def pauli_basis(q: int) -> list[np.ndarray]:
    """Lexicographic Pauli product basis for q qubits (q in {1, 2})."""
    return [f.copy() for f in _BASIS[_check_q(q)]]


def pauli_string_matrix(label: str, q: int) -> np.ndarray:
    """Operator for a Pauli string like "X" (q=1) or "ZX" (q=2); read-only."""
    q = _check_q(q)
    if len(label) != q:
        raise ValueError(f"Pauli string {label!r} has length {len(label)}, expected {q}")
    try:
        return _PAULI_STRINGS[label]
    except KeyError as exc:
        raise ValueError(f"unknown Pauli character in {label!r}") from exc


@dataclass(frozen=True)
class PauliVector:
    """Pauli coefficient vector c with c_0 = 1 (length 4 for q=1, 16 for q=2)."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        if c.shape not in ((4,), (16,)):
            raise ValueError(f"coefficient vector must have length 4 or 16, got shape {c.shape}")
        if not np.isfinite(c).all():
            raise ValueError("coefficient vector has non-finite entries")
        if abs(c[0] - 1.0) > 1e-9:
            raise ValueError(f"c_0 must equal 1 (unit trace), got {c[0]!r}")
        c = c.copy()
        c[0] = 1.0
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    @property
    def q(self) -> int:
        return 1 if self.coeffs.shape[0] == 4 else 2

    @classmethod
    def ground(cls) -> "PauliVector":
        """|0><0| : c = (1, 0, 0, 1)."""
        return cls(np.array([1.0, 0.0, 0.0, 1.0]))

    @classmethod
    def plus(cls) -> "PauliVector":
        """|+><+| : c = (1, 1, 0, 0)."""
        return cls(np.array([1.0, 1.0, 0.0, 0.0]))

    @classmethod
    def plus_tls_ground(cls) -> "PauliVector":
        """Qubit |+> with the TLS in |0>, as a q=2 product state."""
        return cls(np.kron([1.0, 1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 1.0]))


def density_matrix(state: PauliVector) -> np.ndarray:
    """rho = 2^{-q} sum_i c_i F_i."""
    basis = pauli_basis(state.q)
    rho = sum(c * f for c, f in zip(state.coeffs, basis))
    return rho / 2 ** state.q


def from_density_matrix(rho: np.ndarray) -> PauliVector:
    """Project a density matrix onto the Pauli coefficient vector.

    rho must be Hermitian: ||rho - rho^+|| above 1e-9 max(1, ||rho||)
    (Frobenius norms) is rejected, since the projection keeps only the real
    part of each Tr[F_i rho] and would drop the rest silently.  Unit trace
    and finite entries are checked by `PauliVector`."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape == (2, 2):
        q = 1
    elif rho.shape == (4, 4):
        q = 2
    else:
        raise ValueError(f"density matrix must be 2x2 or 4x4, got {rho.shape}")
    if np.linalg.norm(rho - rho.conj().T) > 1e-9 * max(1.0, np.linalg.norm(rho)):
        raise ValueError("density matrix is not Hermitian")
    coeffs = np.array([np.trace(f @ rho).real for f in pauli_basis(q)])
    return PauliVector(coeffs)


@functools.lru_cache(maxsize=64)
def _projection(q: int, kind: str, op_bytes: bytes) -> np.ndarray:
    """Read-only Pauli projection of one unit GKLS term,
    l_ji = 2^{-q} Tr[F_j L[F_i]], with L[rho] = -i[op, rho] for kind "H" and
    op rho op^+ - {op^+ op, rho}/2 for kind "D"; the trace row is zeroed.

    Keyed on the operator's complex128 bytes, so equal operators share one
    entry however they were given, and the bounded cache cannot be grown
    without limit by arbitrary jump matrices."""
    dim = 2**q
    op = np.frombuffer(op_bytes, dtype=complex).reshape(dim, dim)
    basis = _BASIS[q]
    if kind == "H":
        images = -1j * (op @ basis - basis @ op)
    else:
        ldl = op.conj().T @ op
        images = op @ basis @ op.conj().T - 0.5 * (ldl @ basis + basis @ ldl)
    proj = np.einsum("jab,iba->ji", basis, images) / dim
    # relative: a unit term's roundoff scales with |op|^2, and its rate,
    # however small, is applied only afterwards
    if np.abs(proj.imag).max() > 1e-12 * max(1.0, np.abs(proj.real).max()):
        raise ValueError("generator projection has imaginary residue; non-Hermitian input?")
    out = proj.real.copy()
    out[0, :] = 0.0
    return _frozen(out)


def build_generator(
    hamiltonian: Sequence[tuple[str, float]],
    dissipators: Sequence[tuple[str | np.ndarray, float]],
    q: int,
) -> np.ndarray:
    """Project a GKLS generator onto Pauli coordinates.

    hamiltonian: (pauli string, coefficient) pairs summed into H; each
        coefficient must be a finite real number.
    dissipators: (jump operator, rate) pairs; the jump may be a Pauli string
        or an explicit 2^q x 2^q matrix with finite entries.  Rates must be
        finite and non-negative.

    The returned matrix satisfies l_ji = 2^{-q} Tr[F_j L[F_i]].  The
    projection is linear in the coefficients and rates, so it is assembled as
    sum coeff * (projection of -i[P, .]) + sum rate * (projection of the unit
    dissipator), each unit projection computed once and then read from a
    bounded cache keyed on (q, kind, operator bytes).  Inputs are checked
    before anything is cached.  A term whose projection has an imaginary
    residue beyond 1e-12 of its largest entry (or of 1, if larger) raises
    when it is first projected.  The first row (trace change) is exactly
    zero.
    """
    q = _check_q(q)
    dim = 2**q
    terms = []
    for label, coeff in hamiltonian:
        op = pauli_string_matrix(label, q)
        terms.append((_check_finite(f"Hamiltonian coefficient of {label!r}", coeff), "H", op))
    for jump, rate in dissipators:
        rate = _check_rate("dissipator rate", rate)
        if isinstance(jump, str):
            op = pauli_string_matrix(jump, q)
        else:
            op = np.asarray(jump, dtype=complex)
            if op.shape != (dim, dim):
                raise ValueError(f"jump operator must be {dim}x{dim} for q={q}, got {op.shape}")
            if not np.isfinite(op).all():
                raise ValueError("jump operator has non-finite entries")
        terms.append((rate, "D", op))

    # every unit projection has an exactly zero trace row, so the sum has too
    out = np.zeros((4**q, 4**q))
    for weight, kind, op in terms:
        out += weight * _projection(q, kind, op.tobytes())
    return out


def propagate(gen: np.ndarray, duration: float) -> np.ndarray:
    """exp(l * duration) with an exact unit trace row, so (map @ c)[0] is
    exactly 1 for any finite coefficient vector c with c[0] = 1."""
    if not np.isfinite(duration) or duration < 0:
        raise ValueError(f"duration must be finite and non-negative, got {duration}")
    mat = expm(gen * duration)
    mat[0, :] = 0.0
    mat[0, 0] = 1.0
    return mat


class PowerEngine:
    """Evaluate Lambda^n c0 for many n by stepping along the sorted n grid.

    The running state advances from one requested n to the next by
    Lambda^gap, with one ``matrix_power`` per distinct gap, so an evenly
    spaced grid costs one power plus one matrix-vector product per point.
    Only products of Lambda are formed, so a defective or near-defective
    Lambda (no well-conditioned eigenvector basis) is handled like any other.
    """

    def __init__(self, matrix: np.ndarray):
        self.matrix = np.asarray(matrix, dtype=float)

    def states(self, ns: Sequence[int], c0: np.ndarray) -> np.ndarray:
        """Array of Lambda^n c0 over ns, shape (len(ns), dim); row trace pinned."""
        ns = np.asarray(ns)
        if ns.ndim != 1 or not np.issubdtype(ns.dtype, np.integer):
            raise ValueError("ns must be a 1-d integer array")
        if (ns < 0).any():
            raise ValueError("repetition counts must be non-negative")
        state = np.asarray(c0, dtype=float)
        if state.shape != self.matrix.shape[:1]:
            raise ValueError(f"c0 must have shape {self.matrix.shape[:1]}, got {state.shape}")
        out = np.empty((len(ns), state.shape[0]))
        steps: dict[int, np.ndarray] = {}
        reached = 0
        for k in np.argsort(ns, kind="stable"):
            gap = int(ns[k]) - reached
            if gap:
                if gap not in steps:
                    steps[gap] = np.linalg.matrix_power(self.matrix, gap)
                state = steps[gap] @ state
                reached += gap
            out[k] = state
        out[:, 0] = 1.0
        return out
