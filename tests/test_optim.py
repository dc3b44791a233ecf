"""The shared least-squares engine: winner bookkeeping, budgets, bounds."""

import numpy as np
import pytest

from noiselab.optim import minimize_multistart

LOWER, UPPER = np.array([-5.0]), np.array([5.0])


def _two_minima(x):
    # local minimum near x = -0.863 (loss 0.84), global near x = 0.994
    return np.array([x[0] ** 2 - 1.0, 0.5 * (x[0] - 0.9)])


class _Counting:
    def __init__(self, fun):
        self.fun = fun
        self.calls = 0

    def __call__(self, x):
        self.calls += 1
        return self.fun(x)


def test_success_belongs_to_the_winning_start():
    # the local start converges within 3 evaluations, the winning one does not
    local = minimize_multistart(_two_minima, [np.array([-0.863])], LOWER, UPPER, maxfev=3)
    assert local.success is True and local.fun == pytest.approx(0.84, abs=5e-3)
    res = minimize_multistart(_two_minima, [np.array([-0.863]), np.array([1.3])],
                              LOWER, UPPER, maxfev=3)
    assert res.x[0] > 0.9
    assert res.fun == pytest.approx(0.002, abs=5e-4)
    assert res.success is False


def test_converged_winner_reports_success():
    res = minimize_multistart(_two_minima, [np.array([-0.863]), np.array([1.3])], LOWER, UPPER)
    assert res.success is True
    assert res.x[0] == pytest.approx(0.99407, abs=1e-4)


def test_nfev_counts_every_residual_evaluation():
    fun = _Counting(_two_minima)
    res = minimize_multistart(fun, [np.array([-2.0]), np.array([0.3]), np.array([4.0])],
                              LOWER, UPPER)
    assert res.nfev == fun.calls > 3


def test_non_finite_start_is_skipped():
    def resid(x):
        return np.array([np.nan, 0.0]) if x[0] < -3.0 else _two_minima(x)

    res = minimize_multistart(resid, [np.array([-4.0]), np.array([1.3])], LOWER, UPPER)
    assert res.x[0] == pytest.approx(0.99407, abs=1e-4)


def test_all_non_finite_starts_raise():
    with pytest.raises(ValueError, match="finite"):
        minimize_multistart(lambda x: np.array([np.inf, 0.0]), [np.array([0.0]), np.array([1.0])],
                            LOWER, UPPER)


def test_result_within_bounds_and_fun_is_sum_of_squares():
    # unconstrained minimum at x = (2, -3) lies outside the box
    lower, upper = np.array([-1.0, -1.0]), np.array([1.0, 1.0])

    def resid(x):
        return np.array([x[0] - 2.0, x[1] + 3.0, 0.1 * x[0] * x[1]])

    res = minimize_multistart(resid, [np.array([0.0, 0.0]), np.array([5.0, -5.0])],
                              lower, upper, scale=np.array([1.0, 2.0]))
    assert np.all(res.x >= lower) and np.all(res.x <= upper)
    r = resid(res.x)
    assert res.fun == r @ r
    assert res.x == pytest.approx([1.0, -1.0], abs=1e-6)


def test_exact_jacobian_reaches_the_finite_difference_minimum_in_fewer_evaluations():
    # a decay a e^{-b t} + c fitted to a perturbed one, with b capped below its
    # unconstrained optimum so the minimum sits on a bound
    t = np.linspace(0.0, 4.0, 25)
    y = 1.5 * np.exp(-1.3 * t) + 0.2 + 0.01 * np.sin(7.0 * t)
    lower, upper = np.array([0.0, 0.0, -1.0]), np.array([5.0, 1.2, 1.0])

    def resid(x):
        return y - x[0] * np.exp(-x[1] * t) - x[2]

    def jac(x):
        e = np.exp(-x[1] * t)
        return np.column_stack([-e, x[0] * t * e, -np.ones_like(t)])

    starts = [np.array([1.0, 0.5, 0.0]), np.array([3.0, 1.0, 0.5])]
    fd = minimize_multistart(resid, starts, lower, upper)
    counted_jac = _Counting(jac)
    exact = minimize_multistart(resid, starts, lower, upper, jac=counted_jac)
    assert exact.njev == counted_jac.calls > 0
    assert fd.njev == 0
    assert exact.x[1] == pytest.approx(upper[1], abs=1e-12)
    assert exact.x == pytest.approx(fd.x, abs=1e-10)
    assert exact.fun == pytest.approx(fd.fun, abs=1e-10)
    assert exact.success and fd.success
    assert exact.nfev < fd.nfev


def test_bad_scale_rejected():
    with pytest.raises(ValueError, match="scales"):
        minimize_multistart(_two_minima, [np.array([0.0])], LOWER, UPPER, scale=np.array([0.0]))
