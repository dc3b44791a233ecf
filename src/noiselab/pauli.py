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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.linalg import expm

IDENTITY_2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

PAULI_BY_CHAR = {"I": IDENTITY_2, "X": SIGMA_X, "Y": SIGMA_Y, "Z": SIGMA_Z}

# Condition-number ceiling above which the eigen-route for matrix powers is
# abandoned in favour of binary exponentiation.
_EIG_COND_LIMIT = 1e8


def pauli_basis(q: int) -> list[np.ndarray]:
    """Lexicographic Pauli product basis for q qubits (q in {1, 2})."""
    if q not in (1, 2):
        raise ValueError(f"q must be 1 or 2, got {q}")
    singles = [IDENTITY_2, SIGMA_X, SIGMA_Y, SIGMA_Z]
    if q == 1:
        return [p.copy() for p in singles]
    return [np.kron(a, b) for a in singles for b in singles]


def pauli_string_matrix(label: str, q: int) -> np.ndarray:
    """Operator for a Pauli string like "X" (q=1) or "ZX" (q=2)."""
    if len(label) != q:
        raise ValueError(f"Pauli string {label!r} has length {len(label)}, expected {q}")
    try:
        factors = [PAULI_BY_CHAR[ch] for ch in label]
    except KeyError as exc:
        raise ValueError(f"unknown Pauli character in {label!r}") from exc
    out = factors[0]
    for f in factors[1:]:
        out = np.kron(out, f)
    return out


@dataclass(frozen=True)
class PauliVector:
    """Pauli coefficient vector c with c_0 = 1 (length 4 for q=1, 16 for q=2)."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        if c.shape not in ((4,), (16,)):
            raise ValueError(f"coefficient vector must have length 4 or 16, got shape {c.shape}")
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

    def bloch(self) -> np.ndarray:
        """(c_x, c_y, c_z) for a single qubit."""
        if self.q != 1:
            raise ValueError("bloch() is defined for q = 1 only")
        return self.coeffs[1:].copy()


def density_matrix(state: PauliVector) -> np.ndarray:
    """rho = 2^{-q} sum_i c_i F_i."""
    basis = pauli_basis(state.q)
    rho = sum(c * f for c, f in zip(state.coeffs, basis))
    return rho / 2 ** state.q


def from_density_matrix(rho: np.ndarray) -> PauliVector:
    """Project a density matrix onto the Pauli coefficient vector."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape == (2, 2):
        q = 1
    elif rho.shape == (4, 4):
        q = 2
    else:
        raise ValueError(f"density matrix must be 2x2 or 4x4, got {rho.shape}")
    coeffs = np.array([np.trace(f @ rho).real for f in pauli_basis(q)])
    return PauliVector(coeffs)


@dataclass(frozen=True)
class GeneratorMatrix:
    """Real GKLS generator in Pauli coordinates; first row identically zero."""

    entries: np.ndarray
    q: int

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=float)
        d = 4 ** self.q
        if m.shape != (d, d):
            raise ValueError(f"generator for q={self.q} must be {d}x{d}, got {m.shape}")
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "entries", m)


@dataclass(frozen=True)
class Superoperator:
    """Linear map on Pauli coefficient vectors, with the wall-clock duration
    (in gate units) it represents.  Composition via ``a @ b`` applies b first."""

    matrix: np.ndarray
    duration: float

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] not in (4, 16):
            raise ValueError(f"superoperator matrix must be 4x4 or 16x16, got {m.shape}")
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def q(self) -> int:
        return 1 if self.matrix.shape[0] == 4 else 2

    def __matmul__(self, other: "Superoperator") -> "Superoperator":
        if not isinstance(other, Superoperator):
            return NotImplemented
        if self.q != other.q:
            raise ValueError("cannot compose superoperators of different dimension")
        return Superoperator(self.matrix @ other.matrix, self.duration + other.duration)

    def apply(self, state: PauliVector) -> PauliVector:
        if state.q != self.q:
            raise ValueError("state dimension does not match superoperator")
        out = self.matrix @ state.coeffs
        out[0] = 1.0  # trace row is exact by construction
        return PauliVector(out)


def _dissipator_term(jump: np.ndarray, op: np.ndarray) -> np.ndarray:
    """L op L^+ - {L^+ L, op}/2 for a single jump operator."""
    ldl = jump.conj().T @ jump
    return jump @ op @ jump.conj().T - 0.5 * (ldl @ op + op @ ldl)


def build_generator(
    hamiltonian: Sequence[tuple[str, float]],
    dissipators: Sequence[tuple[str | np.ndarray, float]],
    q: int,
) -> GeneratorMatrix:
    """Project a GKLS generator onto Pauli coordinates.

    hamiltonian: (pauli string, coefficient) pairs summed into H.
    dissipators: (jump operator, rate) pairs; the jump may be a Pauli string
        or an explicit 2^q x 2^q matrix.  Rates must be non-negative.

    The returned matrix satisfies l_ji = 2^{-q} Tr[F_j L[F_i]]; the first row
    (trace change) is zeroed exactly and any imaginary residue beyond 1e-12 in
    the projection raises.
    """
    if q not in (1, 2):
        raise ValueError(f"q must be 1 or 2, got {q}")
    dim = 2**q
    basis = pauli_basis(q)

    h = np.zeros((dim, dim), dtype=complex)
    for label, coeff in hamiltonian:
        h = h + coeff * pauli_string_matrix(label, q)

    jumps: list[tuple[np.ndarray, float]] = []
    for jump, rate in dissipators:
        if rate < 0:
            raise ValueError(f"dissipator rate must be non-negative, got {rate}")
        if isinstance(jump, str):
            op = pauli_string_matrix(jump, q)
        else:
            op = np.asarray(jump, dtype=complex)
            if op.shape != (dim, dim):
                raise ValueError(f"jump operator must be {dim}x{dim} for q={q}, got {op.shape}")
        jumps.append((op, float(rate)))

    d4 = 4**q
    entries = np.zeros((d4, d4))
    for i, fi in enumerate(basis):
        image = -1j * (h @ fi - fi @ h)
        for op, rate in jumps:
            image = image + rate * _dissipator_term(op, fi)
        proj = np.array([np.trace(fj @ image) for fj in basis]) / dim
        if np.abs(proj.imag).max() > 1e-12:
            raise ValueError("generator projection has imaginary residue; non-Hermitian input?")
        entries[:, i] = proj.real
    entries[0, :] = 0.0  # trace preservation, exact by construction
    return GeneratorMatrix(entries, q)


def propagate(gen: GeneratorMatrix, duration: float) -> Superoperator:
    """exp(l * duration) with an exact unit trace row."""
    if not np.isfinite(duration) or duration < 0:
        raise ValueError(f"duration must be finite and non-negative, got {duration}")
    mat = expm(gen.entries * duration)
    mat[0, :] = 0.0
    mat[0, 0] = 1.0
    return Superoperator(mat, duration)


class PowerEngine:
    """Evaluate Lambda^n c_0 for many n from one decomposition.

    Diagonalises Lambda once and evaluates eigenvalue powers; if the
    eigenvector matrix is ill-conditioned (cond > 1e8) or the reconstruction
    is poor, falls back to binary exponentiation per requested n.
    """

    def __init__(self, matrix: np.ndarray):
        self.matrix = np.asarray(matrix, dtype=float)
        self._use_eig = False
        try:
            w, v = np.linalg.eig(self.matrix)
        except np.linalg.LinAlgError:
            return
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(v))):
            return
        cond = np.linalg.cond(v)
        if not np.isfinite(cond) or cond > _EIG_COND_LIMIT:
            return
        vinv = np.linalg.inv(v)
        recon = (v * w) @ vinv
        scale = max(1.0, np.abs(self.matrix).max())
        if np.abs(recon - self.matrix).max() > 1e-10 * scale * cond:
            return
        self._w = w
        self._v = v
        self._vinv = vinv
        self._use_eig = True

    def states(self, ns: Sequence[int], c0: np.ndarray) -> np.ndarray:
        """Array of Lambda^n c0 over ns, shape (len(ns), dim); row trace pinned."""
        ns = np.asarray(ns)
        if ns.ndim != 1 or not np.issubdtype(ns.dtype, np.integer):
            raise ValueError("ns must be a 1-d integer array")
        if (ns < 0).any():
            raise ValueError("repetition counts must be non-negative")
        c0 = np.asarray(c0, dtype=float)
        if self._use_eig:
            weights = self._vinv @ c0.astype(complex)
            lam_pow = self._w[None, :] ** ns[:, None]
            out = (lam_pow * weights[None, :]) @ self._v.T
            out = out.real
        else:
            out = np.empty((len(ns), c0.shape[0]))
            for k, n in enumerate(ns):
                out[k] = np.linalg.matrix_power(self.matrix, int(n)) @ c0
        out[:, 0] = 1.0
        return out


def purity(state: PauliVector) -> float:
    """Tr[rho^2] = (1 + |c|^2)/2 for a single qubit."""
    if state.q != 1:
        raise ValueError("purity is defined on single-qubit states; trace out the TLS first")
    cx, cy, cz = state.coeffs[1:]
    return 0.5 * (1.0 + cx * cx + cy * cy + cz * cz)


def partial_trace_tls(state: PauliVector) -> PauliVector:
    """Qubit marginal of a q=2 state: keep coefficients with identity on the TLS."""
    if state.q != 2:
        raise ValueError("partial_trace_tls expects a q=2 state")
    return PauliVector(state.coeffs[[0, 4, 8, 12]])
