"""Bounded derivative-free minimization with an optional root polish.

The 1-d solver is bounded golden-section/parabolic search; the 2-d solver
is simplex descent with one restart.  When an estimating function ``psi``
is supplied, a damped Newton polish drives its root to high precision,
which is what the estimators rely on for tight tolerances.
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
    fun: float
    iterations: int
    converged: bool
    psi_norm: float | None = None


def _checked(objective):
    def f(x):
        value = float(objective(x))
        if math.isnan(value):
            raise EvaluationError(f"objective returned NaN at {x!r}")
        return value

    return f


def _psi_vector(psi, x) -> np.ndarray:
    return np.atleast_1d(np.asarray(psi(x), dtype=float))


def _newton_polish(psi, x0, lo, hi, psi_tol: float, max_iter: int = 40):
    """Damped Newton iteration on ``psi(x) = 0`` inside the box [lo, hi].

    Returns (x, psi_norm, n_evals).  Keeps the best iterate seen; never
    leaves the box.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    x = np.clip(np.asarray(x0, dtype=float), lo, hi)
    # psi may overflow at trial points; those show as non-finite norms
    with np.errstate(invalid="ignore", over="ignore"):
        p = _psi_vector(psi, x)
        if not np.all(np.isfinite(p)):
            return x, math.inf, 1
        best_x, best_norm = x.copy(), float(np.max(np.abs(p)))
        evals = 1
        d = x.size
        for _ in range(max_iter):
            if best_norm < 1e-2 * psi_tol:
                break
            jac = np.empty((d, d))
            ok = True
            for j in range(d):
                h = 1e-6 * (1.0 + abs(x[j]))
                xp = x.copy()
                xm = x.copy()
                xp[j] = min(x[j] + h, hi[j])
                xm[j] = max(x[j] - h, lo[j])
                span = xp[j] - xm[j]
                if span <= 0.0:
                    ok = False
                    break
                jac[:, j] = (_psi_vector(psi, xp) - _psi_vector(psi, xm)) / span
                evals += 2
            if not ok or not np.all(np.isfinite(jac)):
                break
            try:
                step = np.linalg.solve(jac, p)
            except np.linalg.LinAlgError:
                break
            if not np.all(np.isfinite(step)):
                break
            improved = False
            for damp in (1.0, 0.5, 0.25, 0.1, 0.01):
                trial = np.clip(x - damp * step, lo, hi)
                pt = _psi_vector(psi, trial)
                evals += 1
                norm = float(np.max(np.abs(pt)))
                if math.isfinite(norm) and norm < best_norm:
                    x, p = trial, pt
                    best_x, best_norm = trial.copy(), norm
                    improved = True
                    break
            if not improved:
                break
    return best_x, best_norm, evals


def solve_1d(
    objective,
    bounds: tuple[float, float],
    tol: float = 1e-6,
    max_iter: int = 500,
    psi=None,
    psi_tol: float = 1e-8,
) -> SolveResult:
    """Minimize a scalar objective on an interval.

    With ``psi`` given, the bracketing minimum is polished by Newton
    iteration on ``psi = 0`` and convergence is certified by the residual
    norm.  NaN objective values raise :class:`EvaluationError`.
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
            f, bounds=(b_lo, b_hi), method="bounded", options={"xatol": tol, "maxiter": max_iter}
        )
    x = np.array([float(res.x)])
    iters += int(res.nfev)
    converged = bool(res.success)
    psi_norm = None
    if psi is not None:
        x, psi_norm, extra = _newton_polish(psi, x, [lo], [hi], psi_tol)
        iters += extra
        converged = psi_norm < psi_tol
    return SolveResult(x=x, fun=f(x[0]), iterations=iters, converged=converged, psi_norm=psi_norm)


def solve_2d(
    objective,
    bounds,
    x0,
    tol: float = 1e-6,
    max_iter: int = 500,
    psi=None,
    psi_tol: float = 1e-8,
) -> SolveResult:
    """Minimize a 2-d objective on a box via simplex descent with restart."""
    lo = np.array([b[0] for b in bounds], dtype=float)
    hi = np.array([b[1] for b in bounds], dtype=float)
    start = np.clip(np.asarray(x0, dtype=float), lo, hi)
    f = _checked(lambda v: objective(np.asarray(v, dtype=float)))
    opts = {"xatol": tol, "fatol": 1e-12, "maxiter": max_iter, "maxfev": 4 * max_iter}
    box = _sciopt.Bounds(lo, hi)
    with np.errstate(invalid="ignore", over="ignore"):
        res = _sciopt.minimize(f, start, method="Nelder-Mead", bounds=box, options=opts)
        # Restart from the first solution; a fresh simplex escapes collapsed ones.
        res2 = _sciopt.minimize(f, res.x, method="Nelder-Mead", bounds=box, options=opts)
    best = res2 if res2.fun <= res.fun else res
    x = np.clip(np.asarray(best.x, dtype=float), lo, hi)
    iters = int(res.nfev + res2.nfev)
    converged = bool(best.success)
    psi_norm = None
    if psi is not None:
        x, psi_norm, extra = _newton_polish(psi, x, lo, hi, psi_tol)
        iters += extra
        converged = psi_norm < psi_tol
    return SolveResult(x=x, fun=f(x), iterations=iters, converged=converged, psi_norm=psi_norm)
