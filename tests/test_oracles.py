"""RK4 master-equation integrator against closed-form decay channels, and
the shared engine-vs-oracle checks."""

import numpy as np
import pytest

from noiselab.oracles import CHECKS, evolve_state, integrate_lindblad
from noiselab.pauli import PauliVector, SIGMA_Z, density_matrix

L_AD = np.array([[0.0, 1.0], [0.0, 0.0]])
H_ZERO = np.zeros((2, 2))


def test_pure_dephasing_envelope():
    g = 0.08
    for t in (0.5, 3.0, 12.0):
        out = evolve_state(H_ZERO, [(SIGMA_Z, g)], PauliVector.plus(), t)
        assert out.coeffs[1] == pytest.approx(np.exp(-2.0 * g * t), abs=1e-9)
        assert out.coeffs[2] == pytest.approx(0.0, abs=1e-9)


def test_amplitude_damping_population():
    g = 0.05
    excited = PauliVector(np.array([1.0, 0.0, 0.0, -1.0]))
    for t in (1.0, 10.0):
        out = evolve_state(H_ZERO, [(L_AD, g)], excited, t)
        assert out.coeffs[3] == pytest.approx(1.0 - 2.0 * np.exp(-g * t), abs=1e-9)


def test_detuned_coherence_phase():
    d = 0.4
    h = d * SIGMA_Z.real
    out = evolve_state(h, [], PauliVector.plus(), 2.0)
    assert out.coeffs[1] == pytest.approx(np.cos(2.0 * d * 2.0), abs=1e-9)
    assert out.coeffs[2] == pytest.approx(np.sin(2.0 * d * 2.0), abs=1e-9)


def test_trace_and_hermiticity_preserved():
    h = 0.3 * SIGMA_Z.real + 0.1 * np.array([[0.0, 1.0], [1.0, 0.0]])
    rho = integrate_lindblad(h, [(L_AD, 0.07), (SIGMA_Z, 0.02)], density_matrix(PauliVector.plus()), 15.0)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-9)
    assert np.allclose(rho, rho.conj().T, atol=1e-9)
    evals = np.linalg.eigvalsh(rho)
    assert evals.min() > -1e-9


def test_zero_time_is_identity():
    out = evolve_state(H_ZERO, [(L_AD, 0.1)], PauliVector.plus(), 0.0)
    assert np.allclose(out.coeffs, PauliVector.plus().coeffs, atol=1e-14)


def test_tolerance_controls_error():
    g = 0.1
    exact = np.exp(-2.0 * g * 20.0)
    loose = evolve_state(H_ZERO, [(SIGMA_Z, g)], PauliVector.plus(), 20.0, tol=1e-5)
    tight = evolve_state(H_ZERO, [(SIGMA_Z, g)], PauliVector.plus(), 20.0, tol=1e-11)
    assert abs(tight.coeffs[1] - exact) <= abs(loose.coeffs[1] - exact) + 1e-12
    assert abs(tight.coeffs[1] - exact) < 1e-9


@pytest.mark.parametrize("name, check, tol", CHECKS)
@pytest.mark.parametrize("draws", [0, -3])
def test_checks_refuse_to_pass_without_draws(name, check, tol, draws):
    with pytest.raises(ValueError, match="draws must be at least 1"):
        check(np.random.default_rng(0), draws)
