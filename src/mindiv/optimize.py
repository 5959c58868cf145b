"""Bounded derivative-free minimization and a Newton root polish.

The 1-d solver is bounded golden-section/parabolic search; the 2-d solver
is one simplex descent.  Both are plain box minimizers that report the
point they find and their objective evaluations.  ``_newton_polish`` is a
damped Newton iteration on an estimating function inside a box, from a
start clipped into it; the estimators call it after a search (and from a
subdivergence escort) and decide there whether a fit converged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import optimize as _sciopt

from .errors import EvaluationError


@dataclass(frozen=True)
class SolveResult:
    x: np.ndarray
    iterations: int


def _checked(objective):
    def f(x):
        value = float(objective(x))
        if math.isnan(value):
            raise EvaluationError(f"objective returned NaN at {x!r}")
        return value

    return f


def _newton_polish(psi, x0, bounds, psi_tol: float):
    """Damped Newton iteration on ``psi(x) = 0`` inside the box of (lo, hi)
    ``bounds`` per coordinate, each with lo < hi.

    ``psi`` returns a float (d,) array.  Returns (x, the max-norm of psi at
    x, psi evaluations) after at most 40 Newton steps.  The start is clipped
    into the box before its first evaluation; a damped step is taken only
    when it lowers the norm, and never leaves the box.
    """
    lo, hi = np.array(bounds, dtype=float).T
    x = np.clip(np.asarray(x0, dtype=float), lo, hi)
    # psi may overflow at trial points; those show as non-finite norms
    with np.errstate(invalid="ignore", over="ignore"):
        p = psi(x)
        evals = 1
        if not np.isfinite(p).all():
            return x, math.inf, evals
        norm = float(np.abs(p).max())
        d = x.size
        for _ in range(40):
            if norm < 1e-2 * psi_tol:
                break
            jac = np.empty((d, d))
            for j in range(d):
                # h is far above an ulp of x, so for lo < hi the span is above 0
                h = 1e-6 * (1.0 + abs(x[j]))
                xp = x.copy()
                xm = x.copy()
                xp[j] = min(x[j] + h, hi[j])
                xm[j] = max(x[j] - h, lo[j])
                jac[:, j] = (psi(xp) - psi(xm)) / (xp[j] - xm[j])
                evals += 2
            if not np.all(np.isfinite(jac)):
                break
            try:
                step = np.linalg.solve(jac, p)
            except np.linalg.LinAlgError:
                break
            if not np.all(np.isfinite(step)):
                break
            for damp in (1.0, 0.5, 0.25, 0.1, 0.01):
                trial = np.clip(x - damp * step, lo, hi)
                pt = psi(trial)
                evals += 1
                trial_norm = float(np.max(np.abs(pt)))
                if math.isfinite(trial_norm) and trial_norm < norm:
                    x, p, norm = trial, pt, trial_norm
                    break
            else:
                break
    return x, norm, evals


def solve_1d(objective, bounds: tuple[float, float]) -> SolveResult:
    """Minimize a scalar objective on an interval.

    NaN objective values raise :class:`EvaluationError`.
    """
    lo, hi = float(bounds[0]), float(bounds[1])
    f = _checked(objective)
    # Coarse bracketing scan first: golden-section mishandles intervals
    # where the objective overflows to infinity away from the optimum.
    scan = np.linspace(lo, hi, 33)
    with np.errstate(invalid="ignore", over="ignore"):
        scan_vals = np.array([f(x) for x in scan])
    iters = scan.size
    finite = np.isfinite(scan_vals)
    if np.any(finite):
        k = int(np.argmin(np.where(finite, scan_vals, np.inf)))
        b_lo = scan[max(k - 1, 0)]
        b_hi = scan[min(k + 1, scan.size - 1)]
    else:
        b_lo, b_hi = lo, hi
    with np.errstate(invalid="ignore", over="ignore"):
        res = _sciopt.minimize_scalar(
            f, bounds=(b_lo, b_hi), method="bounded", options={"xatol": 1e-6, "maxiter": 500}
        )
    return SolveResult(x=np.array([float(res.x)]), iterations=iters + int(res.nfev))


def solve_2d(objective, bounds, x0) -> SolveResult:
    """Minimize a 2-d objective on a box by one Nelder-Mead descent from
    ``x0`` clipped into the box."""
    lo = np.array([b[0] for b in bounds], dtype=float)
    hi = np.array([b[1] for b in bounds], dtype=float)
    start = np.clip(np.asarray(x0, dtype=float), lo, hi)
    f = _checked(lambda v: objective(np.asarray(v, dtype=float)))
    opts = {"xatol": 1e-6, "fatol": 1e-12, "maxiter": 500, "maxfev": 2000}
    box = _sciopt.Bounds(lo, hi)
    with np.errstate(invalid="ignore", over="ignore"):
        res = _sciopt.minimize(f, start, method="Nelder-Mead", bounds=box, options=opts)
    # scipy clips every simplex vertex into the box, so res.x lies in it
    return SolveResult(x=np.asarray(res.x, dtype=float), iterations=int(res.nfev))
