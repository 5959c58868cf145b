"""Minimum-divergence estimators and their criterion functions.

Five estimator kinds share one interface: maximum likelihood, the
escort-anchored subdivergence estimator, the nested superdivergence
estimator, the power pseudodistance estimator, and the Renyi
pseudodistance estimator.  Every kind reduces to the MLE at ``alpha = 0``
through the same code path.

Estimation is pure given (family, spec, measure): repeated calls return
bit-identical results, and concurrent calls on shared immutable inputs are
safe.  Solvers report the best local solution with diagnostics; on flat
criteria the deterministic bracketing resolves ties reproducibly toward
the lower end of the search box.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidInputError, ToolkitError
from .families import _GRID_N, Family
from .kernels import BRANCH_TOL, log_sum_exp, orthogonal_constant
from .measures import Measure
from .optimize import SolveResult, _newton_polish, solve_1d, solve_2d

KINDS = ("mle", "subdivergence", "superdivergence", "power-pseudo", "renyi")


@dataclass(frozen=True)
class EstimatorSpec:
    """Estimator kind plus solver settings.

    ``escort`` is required exactly for the subdivergence kind.  ``bounds``
    is a per-coordinate box; when omitted, a sample-derived default is used
    (location: data range widened by 10 IQR; scale: [1e-3, 10] times the
    sample standard deviation, which keeps degenerate zero-scale solutions
    out of reach).
    """

    kind: str
    alpha: float = 0.0
    escort: tuple[float, ...] | None = None
    bounds: tuple[tuple[float, float], ...] | None = None
    tol: float = 1e-6
    criterion_tol: float = 1e-8
    max_iter: int = 500
    inner_max_iter: int = 200

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InvalidInputError(
                f"unknown estimator kind {self.kind!r}; choose one of: {', '.join(KINDS)}"
            )
        a = float(self.alpha)
        if not math.isfinite(a) or a < 0.0:
            raise InvalidInputError(f"alpha must be a finite nonnegative real, got {self.alpha!r}")
        object.__setattr__(self, "alpha", a)
        if self.kind in ("subdivergence", "superdivergence") and not a < 1.0:
            raise InvalidInputError(
                f"{self.kind} supports alpha in [0, 1); got alpha={a}"
            )
        if self.kind == "subdivergence":
            if self.escort is None:
                raise InvalidInputError("subdivergence requires an escort parameter")
            object.__setattr__(
                self, "escort", tuple(float(v) for v in np.atleast_1d(self.escort))
            )
        elif self.escort is not None:
            raise InvalidInputError(f"{self.kind} does not take an escort parameter")
        if self.bounds is not None:
            box = tuple((float(lo), float(hi)) for lo, hi in self.bounds)
            for lo, hi in box:
                if not lo < hi:
                    raise InvalidInputError(f"invalid bounds ({lo}, {hi})")
            object.__setattr__(self, "bounds", box)
        if self.tol <= 0.0 or self.criterion_tol <= 0.0:
            raise InvalidInputError("tolerances must be positive")
        if self.max_iter < 1 or self.inner_max_iter < 1:
            raise InvalidInputError("iteration limits must be >= 1")


@dataclass(frozen=True)
class EstimateResult:
    """Fitted parameter with solver diagnostics."""

    theta_hat: np.ndarray
    criterion_value: float
    iterations: int
    converged: bool
    inner_solution: np.ndarray | None = None

    def __post_init__(self):
        theta = np.atleast_1d(np.asarray(self.theta_hat, dtype=float)).copy()
        theta.setflags(write=False)
        object.__setattr__(self, "theta_hat", theta)
        if self.inner_solution is not None:
            inner = np.atleast_1d(np.asarray(self.inner_solution, dtype=float)).copy()
            inner.setflags(write=False)
            object.__setattr__(self, "inner_solution", inner)


# ---------------------------------------------------------------------------
# criterion functions and estimating equations
# ---------------------------------------------------------------------------


def _check_sub_alpha(alpha: float) -> float:
    a = float(alpha)
    if not 0.0 < a <= 1.0:
        raise DomainError(f"subdivergence criterion needs alpha in (0, 1], got {alpha!r}")
    return a


def sub_criterion(family: Family, theta, theta_tilde, q: Measure, alpha: float) -> float:
    """Escort criterion M minimized by the subdivergence estimator.

    For ``0 < alpha < 1`` this is the closed ratio-expectation form; at
    ``alpha = 1`` the logarithmic branch is evaluated by quadrature.
    """
    a = _check_sub_alpha(alpha)
    theta = family.validate_param(theta)
    tilde = family.validate_param(theta_tilde)
    lp_q = np.asarray(family.log_density(theta, q.nodes))
    lp_tilde_q = np.asarray(family.log_density(tilde, q.nodes))
    if abs(a - 1.0) < BRANCH_TOL:
        x, wl = family.integration_grid([theta, tilde], _GRID_N)
        lp = np.asarray(family.log_density(theta, x))
        lp_tilde = np.asarray(family.log_density(tilde, x))
        model_term = float(wl @ (np.exp(lp) * (lp_tilde - lp)))
        with np.errstate(over="ignore"):
            data_term = float(q.weights @ np.exp(lp_q - lp_tilde_q))
        return model_term + data_term
    ratio_term = family.power_ratio_integral(theta, tilde, a)
    with np.errstate(over="ignore"):
        data_term = float(q.weights @ np.exp(a * (lp_q - lp_tilde_q)))
    return ratio_term / (1.0 - a) + data_term / a


def _escort_terms(family: Family, theta, tilde, q: Measure, a: float, score_at):
    """Model and data terms of the escort estimating equations.

    The model term integrates ``p_tilde^(1-a) p_theta^a`` and the data term
    sums ``q (p_theta / p_tilde)^a``, both weighting the score at
    ``score_at``: the escort fit ``tilde`` for the subdivergence equation,
    the outer parameter ``theta`` for the superdivergence one.
    """
    x, wl = family.integration_grid([theta, tilde], _GRID_N)
    lp = np.asarray(family.log_density(theta, x))
    lp_tilde = np.asarray(family.log_density(tilde, x))
    s_model = family.score(score_at, x)
    model_term = ((wl * np.exp((1.0 - a) * lp_tilde + a * lp))[:, None] * s_model).sum(axis=0)
    lp_q = np.asarray(family.log_density(theta, q.nodes))
    lp_tilde_q = np.asarray(family.log_density(tilde, q.nodes))
    with np.errstate(over="ignore"):
        ratio = np.exp(a * (lp_q - lp_tilde_q))
    data_term = ((q.weights * ratio)[:, None] * family.score(score_at, q.nodes)).sum(axis=0)
    return model_term, data_term


def sub_psi(family: Family, theta, theta_tilde, q: Measure, alpha: float) -> np.ndarray:
    """Estimating equation of the subdivergence criterion (zero at its argmin)."""
    a = _check_sub_alpha(alpha)
    theta = family.validate_param(theta)
    tilde = family.validate_param(theta_tilde)
    model_term, data_term = _escort_terms(family, theta, tilde, q, a, tilde)
    return model_term - data_term


def sub_divergence(family: Family, theta, theta_tilde, q: Measure, alpha: float) -> float:
    """Finite lower bound of the power divergence anchored at ``theta_tilde``.

    Maximal in ``theta_tilde`` exactly at the parameter generating ``q``.
    """
    a = float(alpha)
    if not 0.0 < a < 1.0:
        raise DomainError(f"sub_divergence needs alpha in (0, 1), got {alpha!r}")
    return orthogonal_constant(a) - sub_criterion(family, theta, theta_tilde, q, a)


def _super_psi(family: Family, theta, tilde, q: Measure, alpha: float) -> np.ndarray:
    """Stationarity residual of the nested superdivergence problem."""
    a = float(alpha)
    theta = family.validate_param(theta)
    tilde = family.validate_param(tilde)
    model_term, data_term = _escort_terms(family, theta, tilde, q, a, theta)
    return a / (1.0 - a) * model_term + data_term


def _pseudo_criterion(family: Family, theta, q: Measure, alpha: float) -> float:
    a = float(alpha)
    pm = family.power_mass_integral(theta, a)
    lp = np.asarray(family.log_density(theta, q.nodes))
    with np.errstate(over="ignore"):
        qp = float(q.weights @ np.exp(a * lp))
    return pm / (1.0 + a) - qp / a


def _pseudo_gradient(family: Family, theta, q: Measure, alpha: float) -> np.ndarray:
    a = float(alpha)
    pm = family.power_mass_integral(theta, a)
    model_term = pm * family.weighted_score_mean(theta, a)
    lp = np.asarray(family.log_density(theta, q.nodes))
    s = family.score(theta, q.nodes)
    with np.errstate(over="ignore"):
        w = q.weights * np.exp(a * lp)
    data_term = (w[:, None] * s).sum(axis=0)
    return model_term - data_term


def _renyi_neg_log(family: Family, theta, q: Measure, alpha: float) -> float:
    a = float(alpha)
    lp = np.asarray(family.log_density(theta, q.nodes))
    log_qp, _ = log_sum_exp(np.log(q.weights) + a * lp)
    return math.log(family.renyi_normalizer(theta, a)) - log_qp


def _renyi_gradient(family: Family, theta, q: Measure, alpha: float) -> np.ndarray:
    a = float(alpha)
    lp = np.asarray(family.log_density(theta, q.nodes))
    _, w = log_sum_exp(np.log(q.weights) + a * lp)
    w = w / w.sum()
    tilted_mean = (w[:, None] * family.score(theta, q.nodes)).sum(axis=0)
    return family.weighted_score_mean(theta, a) - tilted_mean


# ---------------------------------------------------------------------------
# estimation drivers
# ---------------------------------------------------------------------------


def _require_kind(spec: EstimatorSpec, kind: str):
    if spec.kind != kind:
        raise InvalidInputError(f"spec kind is {spec.kind!r}, expected {kind!r}")


def _resolve_bounds(family: Family, spec: EstimatorSpec, q: Measure):
    if spec.bounds is not None:
        if len(spec.bounds) != family.param_dim:
            raise InvalidInputError(
                f"bounds must have {family.param_dim} coordinate(s), got {len(spec.bounds)}"
            )
        return spec.bounds
    return family.default_bounds(q.nodes, q.weights)


def _start_point(family: Family, q: Measure, bounds) -> np.ndarray:
    lo = np.array([b[0] for b in bounds])
    hi = np.array([b[1] for b in bounds])
    try:
        start = family.mle_parameter(q.nodes, q.weights)
    except ToolkitError:
        start = 0.5 * (lo + hi)
    return np.clip(start, lo, hi)


def _minimize(
    family: Family,
    objective,
    psi,
    bounds,
    spec: EstimatorSpec,
    x0=None,
    max_iter=None,
) -> SolveResult:
    iters = max_iter if max_iter is not None else spec.max_iter
    if family.param_dim == 1:
        return solve_1d(
            lambda t: objective(np.array([t])),
            bounds[0],
            tol=spec.tol,
            max_iter=iters,
            psi=psi,
            psi_tol=spec.criterion_tol,
        )
    return solve_2d(
        objective,
        bounds,
        x0,
        tol=spec.tol,
        max_iter=iters,
        psi=psi,
        psi_tol=spec.criterion_tol,
    )


def mle(family: Family, q: Measure) -> EstimateResult:
    """Maximum-likelihood estimate from closed forms, on any measure."""
    theta = family.mle_parameter(q.nodes, q.weights)
    crit = float(q.weights @ np.asarray(family.log_density(theta, q.nodes)))
    return EstimateResult(theta_hat=theta, criterion_value=crit, iterations=0, converged=True)


def _fit(
    family: Family, spec: EstimatorSpec, q: Measure, criterion, gradient, *fixed, report=float
) -> EstimateResult:
    """Shared fit of the kinds that minimize one criterion directly.

    ``criterion(family, *fixed, theta, q, alpha)`` is minimized over the
    search box from the MLE start, its stationary point is polished on
    ``gradient(...) = 0`` (same arguments), and ``report`` maps the minimum
    to ``criterion_value``.  Every such kind is the MLE at ``alpha = 0``.
    """
    if spec.alpha == 0.0:
        return mle(family, q)
    bounds = _resolve_bounds(family, spec, q)
    a = spec.alpha
    objective = lambda th: criterion(family, *fixed, th, q, a)
    psi = lambda th: gradient(family, *fixed, th, q, a)
    sr = _minimize(family, objective, psi, bounds, spec, x0=_start_point(family, q, bounds))
    return EstimateResult(
        theta_hat=sr.x, criterion_value=report(sr.fun), iterations=sr.iterations, converged=sr.converged
    )


def estimate_subdivergence(family: Family, spec: EstimatorSpec, q: Measure) -> EstimateResult:
    """Minimize the escort criterion M over the search box."""
    _require_kind(spec, "subdivergence")
    escort = family.validate_param(np.asarray(spec.escort, dtype=float))
    return _fit(family, spec, q, sub_criterion, sub_psi, escort)


def _inner_solve(
    family: Family,
    escort_theta: np.ndarray,
    q: Measure,
    alpha: float,
    bounds,
    spec: EstimatorSpec,
    warm=None,
) -> SolveResult:
    """Inner subdivergence solve for the nested superdivergence problem.

    A warm start from the previous outer iterate is polished by Newton
    steps; a full bounded solve is the fallback.
    """
    lo = [b[0] for b in bounds]
    hi = [b[1] for b in bounds]
    psi = lambda tt: sub_psi(family, escort_theta, tt, q, alpha)
    if warm is not None:
        x, norm, evals = _newton_polish(psi, warm, lo, hi, spec.criterion_tol)
        if norm < spec.criterion_tol:
            fun = sub_criterion(family, escort_theta, x, q, alpha)
            return SolveResult(x=x, fun=fun, iterations=evals, converged=True, psi_norm=norm)
    objective = lambda tt: sub_criterion(family, escort_theta, tt, q, alpha)
    x0 = warm if warm is not None else _start_point(family, q, bounds)
    return _minimize(family, objective, psi, bounds, spec, x0=x0, max_iter=spec.inner_max_iter)


def estimate_superdivergence(family: Family, spec: EstimatorSpec, q: Measure) -> EstimateResult:
    """Nested optimization: outer maximization over the inner escort minima.

    The stationarity residual of the nested problem certifies convergence,
    and the final inner solution is reported alongside the estimate.
    """
    _require_kind(spec, "superdivergence")
    if spec.alpha == 0.0:
        return mle(family, q)
    bounds = _resolve_bounds(family, spec, q)
    a = spec.alpha
    state = {"warm": None, "inner_iters": 0}

    def inner_at(theta_vec: np.ndarray) -> SolveResult:
        inner = _inner_solve(family, theta_vec, q, a, bounds, spec, warm=state["warm"])
        state["warm"] = inner.x
        state["inner_iters"] += inner.iterations
        return inner

    def neg_h(theta_vec: np.ndarray) -> float:
        return -inner_at(theta_vec).fun

    def outer_psi(theta_vec: np.ndarray) -> np.ndarray:
        inner = inner_at(theta_vec)
        return _super_psi(family, theta_vec, inner.x, q, a)

    sr = _minimize(family, neg_h, outer_psi, bounds, spec, x0=_start_point(family, q, bounds))
    final_inner = inner_at(sr.x)
    return EstimateResult(
        theta_hat=sr.x,
        criterion_value=final_inner.fun,
        iterations=sr.iterations + state["inner_iters"],
        converged=sr.converged and final_inner.converged,
        inner_solution=final_inner.x,
    )


def estimate_power_pseudo(family: Family, spec: EstimatorSpec, q: Measure) -> EstimateResult:
    """Minimize the decomposable power-pseudodistance criterion."""
    _require_kind(spec, "power-pseudo")
    return _fit(family, spec, q, _pseudo_criterion, _pseudo_gradient)


def estimate_renyi(family: Family, spec: EstimatorSpec, q: Measure) -> EstimateResult:
    """Maximize the normalized tilted-mass criterion of the Renyi estimator.

    ``criterion_value`` reports the maximized criterion itself.
    """
    _require_kind(spec, "renyi")
    return _fit(
        family, spec, q, _renyi_neg_log, _renyi_gradient, report=lambda neg_log: math.exp(-neg_log)
    )


_DRIVERS = {
    "subdivergence": estimate_subdivergence,
    "superdivergence": estimate_superdivergence,
    "power-pseudo": estimate_power_pseudo,
    "renyi": estimate_renyi,
}


def estimate(family: Family, spec: EstimatorSpec, q: Measure) -> EstimateResult:
    """Run the estimator described by ``spec`` on the measure ``q``."""
    if spec.kind == "mle":
        return mle(family, q)
    return _DRIVERS[spec.kind](family, spec, q)
