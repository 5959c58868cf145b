"""Minimum-divergence estimators and their criterion functions.

Five estimator kinds share one interface: maximum likelihood, the
escort-anchored subdivergence estimator, the superdivergence estimator,
the power pseudodistance estimator, and the Renyi pseudodistance
estimator.  Every kind reduces to the MLE at ``alpha = 0`` through the
same code path.  The superdivergence estimator's max-min over the escort
is solved in closed form: on every family here it is the MLE (see
``_superdivergence``).

Normal power-pseudo and Renyi fits first solve their estimating
equations as a weighted-moment fixed point from a median/MAD start, and
subdivergence fits by Newton from the escort; the bounded search over the
family's default box is the fallback for fits that first try does not
settle, and the only path of Pareto power-pseudo and Renyi fits.

Estimation is pure given (family, spec, measure): repeated calls return
bit-identical results, and concurrent calls on shared immutable inputs are
safe.  Solvers report the best local solution with diagnostics; on flat
criteria the deterministic bracketing resolves ties reproducibly toward
the lower end of the search box.
"""

from __future__ import annotations

import math
import numbers
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidInputError, ToolkitError
from .families import _GRID_N, Family, _NormalKind, _row_quantile
from .kernels import BRANCH_TOL, log_sum_exp, orthogonal_constant
from .measures import Measure
from .optimize import _newton_polish, solve_1d, solve_2d

KINDS = ("mle", "subdivergence", "superdivergence", "power-pseudo", "renyi")

# Estimating-equation norm below which a stationary point is accepted.
_PSI_TOL = 1e-8
# Relative step of (mu, sigma) below which the fixed point has settled.
_FP_STEP_TOL = 1e-13
# 1 / Phi^-1(3/4): turns the median absolute deviation into a normal scale.
_MAD_SCALE = 1.482602218505602


@dataclass(frozen=True)
class EstimatorSpec:
    """Estimator kind plus solver settings.

    ``escort`` is required exactly for the subdivergence kind.  ``tol`` and
    ``max_iter`` steer the outer search, which runs over the family's
    sample-derived default box (see ``Family.default_bounds``);
    ``max_iter`` also caps the weighted-moment fixed point of normal
    power-pseudo and Renyi fits.
    """

    kind: str
    alpha: float = 0.0
    escort: tuple[float, ...] | None = None
    tol: float = 1e-6
    max_iter: int = 500

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
        if not math.isfinite(self.tol) or self.tol <= 0.0:
            raise InvalidInputError(f"tol must be a finite positive real, got {self.tol!r}")
        if not isinstance(self.max_iter, numbers.Integral) or self.max_iter < 1:
            raise InvalidInputError(f"max_iter must be an integer >= 1, got {self.max_iter!r}")


@dataclass(frozen=True)
class EstimateResult:
    """Fitted parameter with solver diagnostics."""

    theta_hat: np.ndarray
    criterion_value: float
    iterations: int
    converged: bool

    def __post_init__(self):
        theta = np.atleast_1d(np.asarray(self.theta_hat, dtype=float)).copy()
        theta.setflags(write=False)
        object.__setattr__(self, "theta_hat", theta)


# ---------------------------------------------------------------------------
# criterion functions and estimating equations
# ---------------------------------------------------------------------------


def _check_sub_alpha(alpha: float) -> float:
    a = float(alpha)
    if not 0.0 < a <= 1.0:
        raise DomainError(f"subdivergence criterion needs alpha in (0, 1], got {alpha!r}")
    return a


def _tilted_sum(w, s):
    """``sum_i w_i s_i`` of (..., n) weights and (..., n, d) scores, per row."""
    return (w[..., None] * s).sum(axis=-2)


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


def sub_psi(family: Family, theta, theta_tilde, q: Measure, alpha: float) -> np.ndarray:
    """Estimating equation of the subdivergence criterion (zero at its argmin).

    The model term integrates ``p_tilde^(1-a) p_theta^a`` and the data term
    sums ``q (p_theta / p_tilde)^a``, both weighting the escort fit's score.
    """
    a = _check_sub_alpha(alpha)
    theta = family.validate_param(theta)
    tilde = family.validate_param(theta_tilde)
    x, wl = family.integration_grid([theta, tilde], _GRID_N)
    lp = np.asarray(family.log_density(theta, x))
    lp_tilde = np.asarray(family.log_density(tilde, x))
    model_term = _tilted_sum(wl * np.exp((1.0 - a) * lp_tilde + a * lp), family.score(tilde, x))
    lp_q = np.asarray(family.log_density(theta, q.nodes))
    lp_tilde_q = np.asarray(family.log_density(tilde, q.nodes))
    with np.errstate(over="ignore"):
        ratio = np.exp(a * (lp_q - lp_tilde_q))
    return model_term - _tilted_sum(q.weights * ratio, family.score(tilde, q.nodes))


def sub_divergence(family: Family, theta, theta_tilde, q: Measure, alpha: float) -> float:
    """Finite lower bound of the power divergence anchored at ``theta_tilde``.

    Maximal in ``theta_tilde`` exactly at the parameter generating ``q``.
    """
    a = float(alpha)
    if not 0.0 < a < 1.0:
        raise DomainError(f"sub_divergence needs alpha in (0, 1), got {alpha!r}")
    return orthogonal_constant(a) - sub_criterion(family, theta, theta_tilde, q, a)


# ---------------------------------------------------------------------------
# power-pseudo and Renyi equations, and the weighted-moment fixed point
# ---------------------------------------------------------------------------
#
# Every function below works on (R, n) node and weight arrays (the
# equations also on one parameter and a Measure) and reduces along each row
# only, so a row's numbers equal a single call's and do not depend on R.
_Rows = namedtuple("_Rows", "nodes weights")


def _pseudo_criterion(family: Family, theta, q, alpha: float):
    a = float(alpha)
    lp = family.log_density(theta, q.nodes)
    with np.errstate(over="ignore"):
        qp = (q.weights * np.exp(a * lp)).sum(axis=-1)
    return family.power_mass_integral(theta, a) / (1.0 + a) - qp / a


def _pseudo_gradient(family: Family, theta, q, alpha: float) -> np.ndarray:
    a = float(alpha)
    lp = family.log_density(theta, q.nodes)
    with np.errstate(over="ignore"):
        w = q.weights * np.exp(a * lp)
    # transposes put the parameter axis first, against the (R,) masses
    model_term = (family.power_mass_integral(theta, a) * family.weighted_score_mean(theta, a).T).T
    return model_term - _tilted_sum(w, family.score(theta, q.nodes))


def _renyi_neg_log(family: Family, theta, q, alpha: float):
    a = float(alpha)
    lp = family.log_density(theta, q.nodes)
    log_qp, _ = log_sum_exp(np.log(q.weights) + a * lp)
    return np.log(family.renyi_normalizer(theta, a)) - log_qp


def _renyi_gradient(family: Family, theta, q, alpha: float) -> np.ndarray:
    a = float(alpha)
    lp = family.log_density(theta, q.nodes)
    _, w = log_sum_exp(np.log(q.weights) + a * lp)
    w = w / w.sum(axis=-1, keepdims=True)
    return family.weighted_score_mean(theta, a) - _tilted_sum(w, family.score(theta, q.nodes))


_EQUATIONS = {
    "power-pseudo": (_pseudo_criterion, _pseudo_gradient),
    "renyi": (_renyi_neg_log, _renyi_gradient),
}


def _point_psi(family: Family, spec: EstimatorSpec, theta, x) -> np.ndarray:
    """The estimating equation of ``spec``'s fit on the point mass at each
    ``x``: one (d,) row per point, whose mean under a measure Q vanishes at
    the fit to Q.

    The MLE and superdivergence (and every kind at ``alpha = 0``) use the
    likelihood score equation, ``_pseudo_gradient`` at order 0.  The Renyi
    equation normalizes its weights ``q p^a``, so its point rows are scaled
    by ``p^a(x)`` to make their mean the un-normalized, linear equation.
    """
    a = 0.0 if spec.kind in ("mle", "superdivergence") else spec.alpha
    xs = np.asarray(x, dtype=float).reshape(-1, 1)
    points = _Rows(xs, np.ones_like(xs))
    if a == 0.0 or spec.kind == "power-pseudo":
        return _pseudo_gradient(family, theta, points, a)
    if spec.kind == "subdivergence":
        return sub_psi(family, spec.escort, theta, points, a)
    return np.exp(a * family.log_density(theta, xs)) * _renyi_gradient(family, theta, points, a)


def renyi_pseudodistance(family: Family, theta, q_measure, q_density, alpha: float) -> float:
    """Logarithmic decomposable pseudodistance of order ``alpha``.

    ``q_measure`` integrates against the comparison law with density
    evaluator ``q_density``.  For ``alpha > 0`` it is the Renyi criterion
    over ``alpha`` plus the comparison law's own tilted log-mass, in the
    log domain so that small density powers do not underflow.  The
    ``alpha = 0`` limit is the Kullback discrepancy ``Q.(ln q - ln p)``.
    """
    a = float(alpha)
    if a < 0.0:
        raise DomainError(f"order alpha must be nonnegative, got {alpha!r}")
    qvals = np.asarray(q_density(q_measure.nodes), dtype=float)
    if not np.all(np.isfinite(qvals)) or np.any(qvals <= 0.0):
        raise DomainError("comparison density must be positive and finite on all nodes")
    lq = np.log(qvals)
    if a < BRANCH_TOL:
        return float(q_measure.weights @ (lq - family.log_density(theta, q_measure.nodes)))
    log_qq, _ = log_sum_exp(np.log(q_measure.weights) + a * lq)
    return float(_renyi_neg_log(family, theta, q_measure, a) / a + log_qq / (a * (1.0 + a)))


def _robust_start(family: _NormalKind, x: np.ndarray, w: np.ndarray):
    """Median and scaled MAD of each row as (mu, sigma); a submodel keeps its
    fixed coordinate (mu = 0 or sigma = 1)."""
    mu = _row_quantile(x, w, 0.5) if 0 in family._free else np.zeros(len(x))
    if 1 not in family._free:
        return mu, np.ones(len(x))
    return mu, _MAD_SCALE * _row_quantile(np.abs(x - mu[:, None]), w, 0.5)


def _moment_step(family: _NormalKind, kind: str, a: float, x, w, mu, sigma):
    """One fixed-point update per row.  With v proportional to w p^a,
    mu = E_v[x] and sigma^2 = (1 + a) E_v[(x - mu)^2] (Renyi) or
    E_v[(x - mu)^2] / (1 - a (1 + a)^-1.5 / sum(w u)) (power-pseudo), where
    u = exp(-a z^2 / 2) is p^a up to its normalizing factor."""
    z = (x - mu[:, None]) / sigma[:, None]
    log_u = -0.5 * a * z * z
    shift = log_u.max(axis=1)
    v = w * np.exp(log_u - shift[:, None])
    total = v.sum(axis=1)
    v /= total[:, None]
    if 0 in family._free:
        mu = (v * x).sum(axis=1)
    if 1 in family._free:
        d = x - mu[:, None]
        second = (v * d * d).sum(axis=1)
        if kind == "renyi":
            sigma = np.sqrt((1.0 + a) * second)
        else:
            mass_ratio = a * (1.0 + a) ** -1.5 * np.exp(-shift) / total
            sigma = np.sqrt(second / (1.0 - mass_ratio))
    return mu, sigma


def _moment_fixed_point(family: Family, spec: EstimatorSpec, nodes, weights):
    """Normal power-pseudo or Renyi fit of every row of (R, n) ``nodes`` and
    ``weights`` by the weighted-moment fixed point.

    Each row starts from its median/MAD and iterates until its relative
    step falls below ``_FP_STEP_TOL``, at most ``spec.max_iter`` times; a
    settled row leaves the batch.  A row is accepted when its estimating
    equation has max-norm below ``_PSI_TOL`` and its criterion is no higher
    than at the start.  Returns the (R, d) parameters, the accepted mask and
    the iterations each row took; no row is accepted for other families,
    other kinds and ``alpha = 0``.
    """
    a = spec.alpha
    x = np.asarray(nodes, dtype=float)
    w = np.asarray(weights, dtype=float)
    iterations = np.zeros(len(x), dtype=int)
    settled = np.zeros(len(x), dtype=bool)
    if spec.kind not in _EQUATIONS or a == 0.0 or not isinstance(family, _NormalKind):
        return np.full((len(x), family.param_dim), math.nan), settled, iterations
    mu0, sigma0 = _robust_start(family, x, w)
    mu, sigma = mu0.copy(), sigma0.copy()
    active = np.flatnonzero(sigma0 > 0.0)
    with np.errstate(all="ignore"):
        for _ in range(spec.max_iter):
            if active.size == 0:
                break
            m, s = _moment_step(family, spec.kind, a, x[active], w[active], mu[active], sigma[active])
            step = np.maximum(np.abs(m - mu[active]), np.abs(s - sigma[active])) / s
            mu[active], sigma[active] = m, s
            iterations[active] += 1
            valid = (s > 0.0) & np.isfinite(s) & np.isfinite(m)
            done = valid & (step <= _FP_STEP_TOL)
            settled[active[done]] = True
            active = active[valid & ~done]
        theta, start = (np.stack(pair, axis=1)[:, list(family._free)] for pair in ((mu, sigma), (mu0, sigma0)))
        rows = np.flatnonzero(settled)
        # one row is checked as one parameter: the same numbers, without rows overhead
        pick = rows[0] if len(x) == 1 and rows.size else rows
        q = _Rows(x[pick], w[pick])
        criterion, gradient = _EQUATIONS[spec.kind]
        psi = gradient(family, theta[pick], q, a)
        crit, crit0 = criterion(family, theta[pick], q, a), criterion(family, start[pick], q, a)
        good = (np.max(np.abs(psi), axis=-1) < _PSI_TOL) & (crit <= crit0)
    accepted = np.zeros(len(x), dtype=bool)
    accepted[rows] = good
    return theta, accepted, iterations


# ---------------------------------------------------------------------------
# estimation drivers
# ---------------------------------------------------------------------------


def _start_point(family: Family, q: Measure, bounds) -> np.ndarray:
    """The MLE (``solve_2d`` clips it into the box), else the box centre."""
    try:
        return family.mle_parameter(q.nodes, q.weights)
    except ToolkitError:
        return np.mean(bounds, axis=1)


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
    search box (from the MLE start in 2-d), its stationary point is
    polished on ``gradient(...) = 0`` (same arguments), and ``report`` maps
    the minimum to ``criterion_value``.  First comes the weighted-moment
    fixed point (power-pseudo, Renyi) or Newton from the escort
    (subdivergence), accepted when its residual is below ``_PSI_TOL`` and
    its criterion no higher than at its start (at the escort
    ``1/(1-a) + 1/a``); the search runs only otherwise, and its iteration
    count includes the first try's.  Every such kind is the MLE at
    ``alpha = 0``.
    """
    if spec.alpha == 0.0:
        return mle(family, q)
    a = spec.alpha
    objective = lambda th: criterion(family, *fixed, th, q, a)
    psi = lambda th: gradient(family, *fixed, th, q, a)
    if spec.kind == "subdivergence":
        bounds = family.default_bounds(q.nodes, q.weights)
        theta, norm, its = _newton_polish(psi, fixed[0], *np.array(bounds).T, _PSI_TOL)
        if norm < _PSI_TOL and (crit := objective(theta)) <= 1.0 / (1.0 - a) + 1.0 / a:
            return EstimateResult(theta, report(crit), its, converged=True)
    else:
        rows, accepted, row_its = _moment_fixed_point(family, spec, q.nodes[None], q.weights[None])
        its = int(row_its[0])
        if accepted[0]:
            return EstimateResult(rows[0], report(objective(rows[0])), its, converged=True)
        bounds = family.default_bounds(q.nodes, q.weights)
    settings = {"tol": spec.tol, "max_iter": spec.max_iter, "psi": psi, "psi_tol": _PSI_TOL}
    if family.param_dim == 1:
        sr = solve_1d(lambda t: objective(np.array([t])), bounds[0], **settings)
    else:
        sr = solve_2d(objective, bounds, _start_point(family, q, bounds), **settings)
    return EstimateResult(sr.x, report(sr.fun), its + sr.iterations, sr.converged)


def _superdivergence(family: Family, spec: EstimatorSpec, q: Measure) -> EstimateResult:
    """Superdivergence estimate: the maximizer over theta of
    ``h(theta) = min_t M(theta, t)``, which is the MLE on every family here.

    With ``M = sub_criterion``, ``M(theta, t) = R(theta, t)/(1-a) +
    (1/a) sum q (p_theta/p_t)^a``, where ``R(theta, t)`` integrates
    ``p_t^(1-a) p_theta^a``, and ``c = 1/(1-a) + 1/a``:

    - Upper bound: ``R(theta, theta) = 1``, so ``M(theta, theta) = c`` and
      ``h(theta) <= c`` for every theta.
    - The MLE reaches it.  Every family is an exponential family whose MLE
      matches the moments of its statistic T (normal: (x, x^2), restricted
      on the submodels; Pareto: log x), so ``sum q (l_mle - l_t) =
      KL(mle || t)``.  By Jensen the data term is at least
      ``exp(a KL)/a >= 1/a + KL``; by ``y^b >= 1 + b log y`` with
      ``b = 1 - a``, ``(1 - R)/(1 - a) <= KL``.  Hence ``M(mle, t) >= c``.
    - Nothing else does: for theta other than the MLE, the t-gradient of M
      at ``t = theta`` is ``-sum q s_theta``, nonzero because the MLE is the
      only root of the score equation, so ``h(theta) < c``.

    So the estimate is the MLE with criterion ``c``, with no search.
    """
    if spec.alpha == 0.0:
        return mle(family, q)
    a = spec.alpha
    return EstimateResult(
        theta_hat=family.mle_parameter(q.nodes, q.weights),
        criterion_value=1.0 / (1.0 - a) + 1.0 / a,
        iterations=0,
        converged=True,
    )


def estimate(family: Family, spec: EstimatorSpec, q: Measure) -> EstimateResult:
    """Run the estimator described by ``spec`` on the measure ``q``.

    A Renyi fit reports the maximized tilted-mass criterion itself.
    """
    if spec.kind == "subdivergence":
        escort = family.validate_param(np.asarray(spec.escort, dtype=float))
        return _fit(family, spec, q, sub_criterion, sub_psi, escort)
    if spec.kind == "superdivergence":
        return _superdivergence(family, spec, q)
    if spec.kind == "power-pseudo":
        return _fit(family, spec, q, _pseudo_criterion, _pseudo_gradient)
    if spec.kind == "renyi":
        return _fit(
            family, spec, q, _renyi_neg_log, _renyi_gradient, report=lambda neg_log: math.exp(-neg_log)
        )
    return mle(family, q)
