"""Tests for the bounded solvers and the Newton root polish."""

import math

import numpy as np
import pytest
import scipy.optimize

from mindiv.errors import EvaluationError
from mindiv.optimize import _newton_polish, solve_1d, solve_2d


def test_quadratic_minimum():
    res = solve_1d(lambda x: (x - 2.0) ** 2, (0.0, 5.0))
    assert res.x[0] == pytest.approx(2.0, abs=1e-5)


def box(lo, hi):
    """The box [lo, hi] as ``_newton_polish`` takes it: (lo, hi) per coordinate."""
    return tuple(zip(lo, hi))


class TestNewtonPolish:
    def test_quadratic_root(self):
        x, norm, evals = _newton_polish(lambda v: np.array([2.0 * (v[0] - 2.0)]), [1.9], box([0.0], [5.0]), 1e-10)
        assert x[0] == pytest.approx(2.0, abs=1e-10)
        assert norm < 1e-10 and evals > 1

    def test_start_clipped_into_box(self):
        x, _, _ = _newton_polish(lambda v: np.array([v[0] - 2.0]), [9.0], box([0.0], [5.0]), 1e-10)
        assert x[0] == pytest.approx(2.0, abs=1e-10)

    def test_root_outside_box_stays_on_edge(self):
        # every damped step from the edge is clipped back onto it, so none improves
        x, norm, _ = _newton_polish(lambda v: np.array([v[0] - 7.0]), [1.0], box([0.0], [5.0]), 1e-10)
        assert x[0] == 5.0 and norm == pytest.approx(2.0)

    def test_non_finite_start(self):
        x, norm, evals = _newton_polish(lambda v: np.array([math.nan]), [1.0], box([0.0], [5.0]), 1e-10)
        assert x[0] == 1.0 and norm == math.inf and evals == 1

    def test_root_outside_box_is_clipped_before_first_evaluation(self):
        # a start outside the box is clipped before psi sees it, even a root
        points = []
        psi = lambda v: points.append(float(v[0])) or np.array([v[0] - 7.0])
        x, norm, _ = _newton_polish(psi, [7.0], box([0.0], [5.0]), 1e-10)
        assert points[0] == 5.0 and x[0] == 5.0 and norm == 2.0

    def test_non_finite_jacobian(self):
        # finite at the start only: both difference points overflow
        psi = lambda v: np.array([v[0] - 2.0 if v[0] == 1.0 else math.inf])
        x, norm, evals = _newton_polish(psi, [1.0], box([0.0], [5.0]), 1e-10)
        assert x[0] == 1.0 and norm == 1.0 and evals == 3

    def test_singular_jacobian(self):
        x, norm, evals = _newton_polish(lambda v: np.array([1.0, 1.0]), [1.0, 2.0], box([0.0, 0.0], [5.0, 5.0]), 1e-10)
        assert np.array_equal(x, [1.0, 2.0]) and norm == 1.0 and evals == 5

    def test_non_finite_step(self):
        # a residual of 1e10 against a slope of 1e-300 overflows the step
        psi = lambda v: np.array([1e10 if v[0] == 1.0 else 1e-300 * v[0]])
        x, norm, evals = _newton_polish(psi, [1.0], box([0.0], [5.0]), 1e-10)
        assert x[0] == 1.0 and norm == 1e10 and evals == 3


def test_rosenbrock():
    rosen = lambda v: (1.0 - v[0]) ** 2 + 100.0 * (v[1] - v[0] ** 2) ** 2
    res = solve_2d(rosen, ((-2.0, 2.0), (-1.0, 3.0)), x0=np.array([-1.2, 1.0]))
    assert np.allclose(res.x, [1.0, 1.0], atol=1e-5)


def test_2d_search_is_one_simplex_descent(monkeypatch):
    # one Nelder-Mead run from the start clipped into the box; its
    # evaluations are the search's iterations
    starts, runs = [], []
    minimize = scipy.optimize.minimize

    def counting(f, x0, **kwargs):
        starts.append(x0)
        runs.append(minimize(f, x0, **kwargs))
        return runs[-1]

    monkeypatch.setattr(scipy.optimize, "minimize", counting)
    bowl = lambda v: (v[0] - 1.0) ** 2 + (v[1] - 2.0) ** 2
    res = solve_2d(bowl, ((0.0, 3.0), (0.0, 3.0)), x0=np.array([9.0, -9.0]))
    assert len(runs) == 1 and np.array_equal(starts[0], [3.0, 0.0])
    assert np.array_equal(runs[0].x, res.x)
    assert res.iterations == runs[0].nfev
    assert np.allclose(res.x, [1.0, 2.0], atol=1e-5)


def test_nan_objective_raises():
    def bad(x):
        return math.nan if 1.0 < x < 2.0 else (x - 1.5) ** 2

    with pytest.raises(EvaluationError):
        solve_1d(bad, (0.0, 5.0))


def test_boundary_minimum_flagged():
    res = solve_1d(lambda x: x, (0.0, 1.0))
    assert res.x[0] == pytest.approx(0.0, abs=1e-5)


def test_iteration_budget_respected():
    # the bracketing scan always runs; the refinement stops after 500
    # evaluations, fewer than a 1e300-wide box needs
    res = solve_1d(lambda x: x, (0.0, 1e300))
    assert res.iterations == 33 + 500


def test_scan_without_finite_value_searches_whole_box():
    res = solve_1d(lambda x: math.inf, (0.0, 5.0))
    assert 0.0 <= res.x[0] <= 5.0


def test_overflowing_objective_still_bracketed():
    # objective is infinite over most of the box; the scan must find the well
    def spiky(x):
        return math.inf if x > 10.0 else (x - 2.0) ** 2

    res = solve_1d(spiky, (0.0, 200.0))
    assert res.x[0] == pytest.approx(2.0, abs=1e-4)
