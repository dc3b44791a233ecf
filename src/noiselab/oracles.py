"""Independent numerical routes used to cross-check the Pauli-coordinate engine.

The main engine projects the GKLS generator onto Pauli coordinates and
exponentiates.  Here the same master equation

    drho/dt = -i[H, rho] + sum_k G_k (L_k rho L_k^+ - {L_k^+ L_k, rho}/2)

is integrated directly on the density matrix with an adaptive step-doubling
RK4, sharing no code path with expm.

The module also owns the engine-vs-oracle checks: random parameter draws
per model, four `check(rng, draws) -> worst deviation` functions and
`CHECKS`, their one (name, check, tolerance) table, which `noiselab oracle`,
the acceptance scorecard and the model tests all call.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .models import (
    MarkovianParams,
    PMMEParams,
    QubitTLSParams,
    map_qubit_tls_to_pmme,
    markovian_generator,
    pmme_idle_bloch,
    pmme_numeric_oracle,
    qubit_tls_generator,
    qubit_tls_idle_bloch,
)
from .pauli import SIGMA_Z, PauliVector, PowerEngine, density_matrix, from_density_matrix, propagate


def lindblad_rhs(
    hamiltonian: np.ndarray,
    jumps: Sequence[tuple[np.ndarray, float]],
) -> Callable[[np.ndarray], np.ndarray]:
    """Right-hand side rho -> drho/dt of the master equation."""
    h = np.asarray(hamiltonian, dtype=complex)
    terms = []
    for op, rate in jumps:
        op = np.asarray(op, dtype=complex)
        terms.append((op, op.conj().T, op.conj().T @ op, float(rate)))

    def rhs(rho: np.ndarray) -> np.ndarray:
        out = -1j * (h @ rho - rho @ h)
        for op, opd, opdop, rate in terms:
            out = out + rate * (op @ rho @ opd - 0.5 * (opdop @ rho + rho @ opdop))
        return out

    return rhs


def _rk4_step(rhs: Callable, rho: np.ndarray, h: float) -> np.ndarray:
    k1 = rhs(rho)
    k2 = rhs(rho + 0.5 * h * k1)
    k3 = rhs(rho + 0.5 * h * k2)
    k4 = rhs(rho + h * k3)
    return rho + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def integrate_lindblad(
    hamiltonian: np.ndarray,
    jumps: Sequence[tuple[np.ndarray, float]],
    rho0: np.ndarray,
    t: float,
    tol: float = 1e-10,
) -> np.ndarray:
    """Integrate the master equation from rho0 over [0, t].

    Classic step-doubling control: each step is taken once at h and twice at
    h/2; the 4th-order error estimate |rho_2 - rho_1|/15 measured against tol
    drives acceptance and the next step size.
    """
    if t < 0:
        raise ValueError(f"integration horizon must be non-negative, got {t}")
    rhs = lindblad_rhs(hamiltonian, jumps)
    rho = np.asarray(rho0, dtype=complex).copy()
    if t == 0:
        return rho
    # initial step heuristic: resolve the fastest scale in the generator
    scale = max(np.abs(hamiltonian).max(), max((r for _, r in jumps), default=0.0), 1e-3)
    h = min(t, 0.1 / scale)
    time = 0.0
    while time < t:
        h = min(h, t - time)
        full = _rk4_step(rhs, rho, h)
        half = _rk4_step(rhs, rho, 0.5 * h)
        double = _rk4_step(rhs, half, 0.5 * h)
        err = np.abs(double - full).max() / 15.0
        if err <= tol or h <= 1e-12:
            rho = double + (double - full) / 15.0  # local extrapolation
            time += h
            if err > 0:
                h = min(h * min(5.0, 0.9 * (tol / err) ** 0.2), t)
            else:
                h = min(h * 5.0, t)
        else:
            h = max(h * max(0.1, 0.9 * (tol / err) ** 0.25), 1e-12)
    return rho


def evolve_state(
    hamiltonian: np.ndarray,
    jumps: Sequence[tuple[np.ndarray, float]],
    state: PauliVector,
    t: float,
    tol: float = 1e-10,
) -> PauliVector:
    """RK4 route for a PauliVector: to the density matrix and back."""
    rho = integrate_lindblad(hamiltonian, jumps, density_matrix(state), t, tol)
    return from_density_matrix(rho)


# ---------------------------------------------------------------------------
# random parameter draws

def draw_markovian(rng: np.random.Generator) -> MarkovianParams:
    return MarkovianParams(
        delta_omega=rng.uniform(-0.3, 0.3),
        gamma_ad=rng.uniform(0.0, 0.05),
        gamma_d=rng.uniform(0.0, 0.05),
    )


def draw_qubit_tls(rng: np.random.Generator, with_gamma_ad: bool = True) -> QubitTLSParams:
    return QubitTLSParams(
        delta_omega=rng.uniform(-0.3, 0.3),
        gamma_ad=rng.uniform(0.0, 0.02) if with_gamma_ad else 0.0,
        gamma_d=rng.uniform(0.0, 0.02),
        nu_zx=rng.uniform(0.0, 0.2),
        kappa=rng.uniform(0.0, 0.2),
    )


def draw_pmme(rng: np.random.Generator) -> PMMEParams:
    gamma_z = rng.uniform(0.0, 0.05)
    return PMMEParams(
        delta_omega=rng.uniform(-0.3, 0.3),
        gamma_ad=rng.uniform(0.0, 0.02),
        gamma_d=rng.uniform(0.0, 0.02),
        gamma_z=gamma_z,
        # keep the implied TLS relaxation non-negative so mapping checks work
        b=rng.uniform(-2.0 * gamma_z, 0.1),
    )


# ---------------------------------------------------------------------------
# engine-vs-oracle checks: check(rng, draws) -> worst absolute deviation

def _worst(rng: np.random.Generator, draws: int, draw, deviation) -> float:
    """Largest deviation(draw(rng)) over `draws` successive draws."""
    if draws < 1:
        raise ValueError(f"draws must be at least 1, got {draws!r}")
    return max(float(deviation(draw(rng))) for _ in range(draws))


def markovian_engine_vs_rk4(rng: np.random.Generator, draws: int) -> float:
    """|+> propagated by the Markovian generator against RK4 on rho."""
    plus, lower = PauliVector.plus(), np.array([[0.0, 1.0], [0.0, 0.0]])

    def deviation(p: MarkovianParams) -> float:
        gen, h = markovian_generator(p), p.delta_omega * SIGMA_Z
        jumps = [(lower, p.gamma_ad), (SIGMA_Z, p.gamma_d)]
        return max(
            np.max(np.abs(propagate(gen, t) @ plus.coeffs - evolve_state(h, jumps, plus, t).coeffs))
            for t in (0.7, 6.0, 25.0)
        )

    return _worst(rng, draws, draw_markovian, deviation)


def qubit_tls_engine_vs_closed_form(rng: np.random.Generator, draws: int) -> float:
    """Powers of the unit-time 16-dim propagator against the idle closed form."""
    steps = np.arange(0, 201, 5)

    def deviation(p: QubitTLSParams) -> float:
        engine = PowerEngine(propagate(qubit_tls_generator(p), 1.0))
        states = engine.states(steps, PauliVector.plus_tls_ground().coeffs)
        return np.max(np.abs(states[:, [4, 8, 12]] - qubit_tls_idle_bloch(p, steps.astype(float))))

    return _worst(rng, draws, draw_qubit_tls, deviation)


def tls_pmme_mapped_equivalence(rng: np.random.Generator, draws: int) -> float:
    """Qubit-TLS idle trajectory against that of its mapped memory kernel."""
    t = np.linspace(0.0, 100.0, 101)

    def deviation(p: QubitTLSParams) -> float:
        return np.max(np.abs(qubit_tls_idle_bloch(p, t) - pmme_idle_bloch(map_qubit_tls_to_pmme(p), t)))

    return _worst(rng, draws, lambda r: draw_qubit_tls(r, with_gamma_ad=False), deviation)


def pmme_closed_form_vs_kernel_integration(rng: np.random.Generator, draws: int) -> float:
    """Memory-kernel closed form against kernel integration at step 0.01."""
    t = np.arange(0.0, 10.0 + 1e-12, 0.01)

    def deviation(p: PMMEParams) -> float:
        numeric = np.array([s.coeffs[1:] for s in pmme_numeric_oracle(p, t)])
        return np.max(np.abs(numeric - pmme_idle_bloch(p, t)))

    return _worst(rng, draws, draw_pmme, deviation)


# (name, check, tolerance) in the order `noiselab oracle` runs and prints them
CHECKS = (
    ("markovian-engine-vs-rk4", markovian_engine_vs_rk4, 1e-8),
    ("qubit-tls-engine-vs-closed-form", qubit_tls_engine_vs_closed_form, 1e-8),
    ("tls-pmme-mapped-equivalence", tls_pmme_mapped_equivalence, 1e-9),
    ("pmme-closed-form-vs-kernel-integration", pmme_closed_form_vs_kernel_integration, 1e-5),
)
