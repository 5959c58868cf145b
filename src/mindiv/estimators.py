"""Minimum-divergence estimators and their criterion functions.

Five estimator kinds share one interface: maximum likelihood, the
escort-anchored subdivergence estimator, the superdivergence estimator,
the power pseudodistance estimator, and the Renyi pseudodistance
estimator.  Every kind reduces to the MLE at ``alpha = 0``: ``estimate``
checks that once.  ``_closed_form`` decides, with the proof, the other
fits that are the MLE: the superdivergence estimate, and a subdivergence
fit whose escort is exactly the sample's MLE.

Subdivergence, power-pseudo and Renyi each have one (criterion, estimating
equation) pair in ``_EQUATIONS``, which the fit drivers and ``_point_psi``
use: three criteria and two equations, as subdivergence and power-pseudo
solve the same one, ``_power_gradient``, with their own tilts.  Every
caller passes both the sample's ``_tilt`` at theta, one ``_Tilt`` record
for every kind, and every model term is one closed form,
``Family._power_product``, with no grid.

One fit driver, ``_fit_rows``, fits (R, n) rows of nodes and weights;
``estimate`` of a power-pseudo or Renyi kind is one row of it, and of a
subdivergence or superdivergence kind the one-row fit ``_fallback``, which
gives what a row of ``_fit_rows`` gets.  Its row solver, ``_moment_fixed_point``,
gives the ``_closed_form`` rows, or solves the power-pseudo and Renyi rows by
Newton steps on the weighted-moment equations of Fujisawa & Eguchi (2008)
in fixed-point form, with each family's closed-form Jacobian, for at most
``_MAX_ITER`` steps, which ``iterations`` counts.  ``_fallback`` fits each
row it does not accept: by ``_closed_form`` again, or by Newton from the
escort (subdivergence), then a bounded search over the family's default
box and one Newton polish; it alone decides whether a numeric fit converged.

Estimation is pure given (family, spec, measure): repeated calls return
bit-identical results, and concurrent calls on shared immutable inputs are
safe.  Solvers report the best local solution with diagnostics; on flat
criteria the deterministic bracketing resolves ties reproducibly toward
the lower end of the search box.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDataError, DomainError, InvalidInputError, ToolkitError
from .families import Family, _mass_values, _renyi_normalizer
from .kernels import BRANCH_TOL, log_sum_exp, orthogonal_constant
from .measures import Measure
from .optimize import _newton_polish, solve_1d, solve_2d

KINDS = ("mle", "subdivergence", "superdivergence", "power-pseudo", "renyi")

# Estimating-equation norm below which a stationary point is accepted.
_PSI_TOL = 1e-8
# Relative step of the parameter below which the fixed point has settled.
_FP_STEP_TOL = 1e-13
# Map evaluations after which the fixed point stops.
_MAX_ITER = 500
# Node values that callers batching rows pass to one ``_moment_fixed_point``
# call at most: bounds a batch's memory, whatever the number of rows.
_BATCH_VALUES = 1 << 16


@dataclass(frozen=True)
class EstimatorSpec:
    """Estimator kind, order ``alpha`` and, for the subdivergence kind
    exactly, its ``escort`` parameter.  The solvers have no settings here:
    the estimating equations fix the estimate."""

    kind: str
    alpha: float = 0.0
    escort: tuple[float, ...] | None = None

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
            escort = np.atleast_1d(self.escort)
            if escort.ndim > 1:
                raise InvalidInputError(f"the subdivergence escort is one parameter, not rows of shape {escort.shape}")
            object.__setattr__(self, "escort", tuple(float(v) for v in escort))
        elif self.escort is not None:
            raise InvalidInputError(f"{self.kind} does not take an escort parameter")


@dataclass(frozen=True)
class EstimateResult:
    """Fitted parameter with solver diagnostics."""

    theta_hat: np.ndarray
    criterion_value: float
    iterations: int
    converged: bool

    def __post_init__(self):
        theta = np.array(self.theta_hat, dtype=float, ndmin=1)
        theta.setflags(write=False)
        object.__setattr__(self, "theta_hat", theta)


# ---------------------------------------------------------------------------
# criteria, estimating equations and the row solver
# ---------------------------------------------------------------------------
#
# Every function below works on (R, n) node and weight arrays (the
# equations also on one parameter and a Measure) and reduces along each row
# only, so a row's numbers equal a single call's and do not depend on R.
# The subdivergence pair takes one parameter, against a Measure or rows.
_Rows = namedtuple("_Rows", "nodes weights escort log_escort", defaults=(None, None))
# Every kind's tilt: the ``Family._standardize`` transform of the nodes, the
# node terms, and the model term, ``Family._power_product``'s integral and
# score mean.  Nothing writes to a tilt once ``_tilt`` has built it.
_Tilt = namedtuple("_Tilt", "standard terms mass mean")


def _rows(family: Family, spec: EstimatorSpec, nodes, weights) -> _Rows:
    """``nodes`` and ``weights`` as the equations of ``spec`` take them: with
    the subdivergence escort validated and its log-density on the nodes,
    which raises ``DomainError`` on a node outside the support."""
    if spec.kind != "subdivergence":
        return _Rows(nodes, weights)
    escort = family.validate_param(spec.escort)
    with np.errstate(over="ignore"):  # -inf beyond ~1e154 scales, unread by the tilt at the escort
        return _Rows(nodes, weights, escort, family.log_density(escort, nodes))


def _tilt(family: Family, spec: EstimatorSpec, theta, q, y=None):
    """The ``_Tilt`` at ``theta`` on the nodes of ``q`` that a kind's
    criterion and estimating equation both take.

    Its terms are ``q (p_escort / p)^a`` (subdivergence, with ``q`` from
    ``_rows``; at the escort itself, the same bytes, the weights, the exact
    value of ``q exp(a (l - l))``: no density pass, and finite where ``l``
    overflows), ``q p^a`` (power-pseudo), or ``log sum q p^a`` and the terms
    ``q p^a`` scaled by their row's largest (Renyi, ``log_sum_exp``).  Its
    model term is ``_power_product`` at e = 0, c = a against the escort
    (subdivergence) or at e = a, c = 0.  It validates ``theta`` once,
    standardizes the nodes once (``family._standardize`` of ``y``, which is
    ``family._nodes(q.nodes)`` if the caller does not pass it) and evaluates
    the model term once: every criterion and equation call on one tilt
    shares all three.
    """
    a = spec.alpha
    theta = family.validate_param(theta)
    standard = family._standardize(theta, family._nodes(q.nodes) if y is None else y)
    if spec.kind == "subdivergence":
        if theta.shape == q.escort.shape and theta.tobytes() == q.escort.tobytes():
            terms = q.weights
        else:
            lp = q.log_escort - family._log_density(standard)
            with np.errstate(over="ignore"):
                terms = q.weights * np.exp(a * lp)
        return _Tilt(standard, terms, *family._power_product(theta, q.escort, 0.0, a))
    # the terms take over the log-density's buffer: nothing else reads it
    lp = family._log_density(standard)
    if spec.kind == "renyi":
        log_w = np.log(q.weights)
        lp *= a
        lp += log_w
        terms = log_sum_exp(lp)
    else:
        with np.errstate(over="ignore"):
            lp *= a
            terms = np.exp(lp)
            terms *= q.weights
    return _Tilt(standard, terms, *family._power_product(theta, None, a, 0.0))


def _tilted_sum(w, cols):
    """Per-row ``sum_i w_i s_i`` of (..., n) weights and each score column
    (``family._score_at``, overwritten by the products):
    every product is a contiguous (..., n) array, so a row sums as a single
    call does."""
    for s in cols:
        s *= w
    return np.array([s.sum(axis=-1) for s in cols]).T


def _sub_criterion(family: Family, theta, q, spec: EstimatorSpec, tilt):
    a = spec.alpha
    return tilt.mass / (1.0 - a) + tilt.terms.sum(axis=-1) / a


def _pseudo_criterion(family: Family, theta, q, spec: EstimatorSpec, tilt):
    a = spec.alpha
    return _mass_values(tilt.mass) / (1.0 + a) - tilt.terms.sum(axis=-1) / a


def _power_gradient(family: Family, theta, q, spec: EstimatorSpec, tilt) -> np.ndarray:
    """The subdivergence and power-pseudo estimating equation: the model
    term, integral times score mean, less the tilted sum of the scores."""
    return tilt.mass * tilt.mean - _tilted_sum(tilt.terms, family._score_at(tilt.standard))


def _renyi_neg_log(family: Family, theta, q, spec: EstimatorSpec, tilt):
    return np.log(_renyi_normalizer(_mass_values(tilt.mass), spec.alpha)) - tilt.terms[0]


def _renyi_gradient(family: Family, theta, q, spec: EstimatorSpec, tilt) -> np.ndarray:
    w = tilt.terms[1]
    return tilt.mean - _tilted_sum(w / w.sum(axis=-1, keepdims=True), family._score_at(tilt.standard))


# criterion and gradient of each kind, on the kind's ``_tilt``
_EQUATIONS = {
    "subdivergence": (_sub_criterion, _power_gradient),
    "power-pseudo": (_pseudo_criterion, _power_gradient),
    "renyi": (_renyi_neg_log, _renyi_gradient),
}


def _sub_args(family: Family, escort, theta, q, alpha: float):
    """Arguments of the subdivergence pair for the public functions (``0 < alpha < 1``)."""
    a = float(alpha)
    if not 0.0 < a < 1.0:
        raise DomainError(f"subdivergence criterion needs alpha in (0, 1), got {alpha!r}")
    spec = EstimatorSpec("subdivergence", a, escort)
    rows, theta = _rows(family, spec, q.nodes, q.weights), family._one_param(theta)
    return family, theta, rows, spec, _tilt(family, spec, theta, rows)


def sub_criterion(family: Family, escort, theta, q: Measure, alpha: float) -> float:
    """Escort criterion M minimized in ``theta`` by the subdivergence
    estimator, in its closed ratio-expectation form for ``0 < alpha < 1``."""
    return float(_sub_criterion(*_sub_args(family, escort, theta, q, alpha)))


def sub_psi(family: Family, escort, theta, q: Measure, alpha: float) -> np.ndarray:
    """Estimating equation of ``sub_criterion`` in ``theta`` (zero at its argmin).

    The model term integrates ``p_theta^(1-a) p_escort^a`` against the
    score at ``theta`` in closed form; the data term sums ``q (p_escort /
    p_theta)^a`` against the same score.  This and ``sub_criterion`` are
    the subdivergence pair of ``_EQUATIONS``.
    """
    return _power_gradient(*_sub_args(family, escort, theta, q, alpha))


def sub_divergence(family: Family, escort, theta, q: Measure, alpha: float) -> float:
    """Finite lower bound at ``theta`` of the escort law's power divergence from ``q``.

    Maximal in ``theta`` exactly at the parameter generating ``q``.
    """
    return orthogonal_constant(float(alpha)) - sub_criterion(family, escort, theta, q, alpha)


def _point_psi(family: Family, spec: EstimatorSpec, theta, x) -> np.ndarray:
    """The estimating equation of ``spec``'s fit on the point mass at each
    ``x``: one (d,) row per point, whose mean under a measure Q vanishes at
    the fit to Q.

    The MLE and superdivergence (and every kind at ``alpha = 0``) use the
    likelihood score equation, ``_power_gradient`` at order 0; the others
    their equation in ``_EQUATIONS``.  The Renyi equation normalizes its
    weights ``q p^a``, so its point rows are scaled by ``p^a(x)`` to make
    their mean the un-normalized, linear equation.
    """
    if spec.kind in ("mle", "superdivergence") or spec.alpha == 0.0:
        spec = EstimatorSpec("power-pseudo")
    xs = np.asarray(x, dtype=float).reshape(-1, 1)
    points = _rows(family, spec, xs, np.ones_like(xs))
    tilt = _tilt(family, spec, theta, points)
    psi = _EQUATIONS[spec.kind][1](family, theta, points, spec, tilt)
    return np.exp(tilt.terms[0])[:, None] * psi if spec.kind == "renyi" else psi


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
    spec = EstimatorSpec("renyi", a)
    neg_log = _renyi_neg_log(family, theta, q_measure, spec, _tilt(family, spec, theta, q_measure))
    return float(neg_log / a + log_qq / (a * (1.0 + a)))


def _closed_form(family: Family, spec: EstimatorSpec, nodes, weights):
    """The MLE of a row of ``nodes`` and ``weights`` or of (R, n) rows, whether
    it is the fit of ``spec`` (a bool or a row mask), and that fit's
    criterion: NaN for the MLE, ``c = 1/(1-a) + 1/a`` for superdivergence and
    a subdivergence row whose MLE is its escort exactly.  The escort is
    validated before any row's MLE, so an invalid one raises first.

    The superdivergence estimate maximizes ``h(theta) = min_t M(theta, t)``.
    With ``M = sub_criterion``, ``M(theta, t) = R(theta, t)/(1-a) + (1/a)
    sum q (p_theta/p_t)^a``, where ``R(theta, t)`` integrates ``p_t^(1-a)
    p_theta^a``:

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

    So the superdivergence estimate is the MLE with criterion ``c``, with
    no search.  Corollary: the subdivergence criterion from the escort
    ``theta = mle`` is ``M(mle, t) >= c = M(mle, mle)``, so that fit is the
    MLE with criterion ``c`` too.
    """
    a, kind = spec.alpha, spec.kind
    if kind == "mle" or a == 0.0:
        return family.mle_parameter(nodes, weights), True, math.nan
    escort = family.validate_param(spec.escort) if kind == "subdivergence" else None
    theta = family.mle_parameter(nodes, weights)
    if kind not in ("subdivergence", "superdivergence"):
        return theta, False, math.nan
    own = kind == "superdivergence" or (theta == escort).all(axis=-1)
    return theta, own, 1.0 / (1.0 - a) + 1.0 / a


def _unfitted(family: Family, r: int):
    """The row solver's outputs for ``r`` rows before any is fitted: NaN
    parameters and criteria, no row accepted, 0 steps."""
    return np.full((r, family.param_dim), math.nan), np.zeros(r, dtype=bool), np.zeros(r, dtype=int), np.full(r, math.nan)


def _moment_fixed_point(family: Family, spec: EstimatorSpec, nodes, weights):
    """Fit of ``spec`` on every row of (R, n) ``nodes`` and ``weights``.

    The MLE, superdivergence and subdivergence (and every kind at ``alpha =
    0``) give the ``_closed_form`` rows, accepted with 0 steps, none if the
    MLE of one row raised (each row's ``_fallback`` raises its error).
    Power-pseudo and Renyi rows run Newton: ``family._moment_start(x, w)``
    gives the (R, d) start (NaN on a row it does not start) and the y on
    which ``family._moment_update(kind, a, y, w, theta)`` steps each row,
    with its relative step (inf on a plain map step, NaN where the row
    cannot go on).  On equal weights in each row ``w`` is the column of
    each row's weight (a batch mixing such rows with others fits each group
    apart).  One row, or the last one left in a batch, steps as one (d,)
    parameter on its (n,) nodes, with a scalar weight on equal weights: the
    same numbers, with scalar masks and no compaction.  A Newton step out of
    the space (``family._in_space``) is halved until the row is back inside.
    A row stops once its Newton step falls below ``sqrt(_FP_STEP_TOL)``
    (quadratic convergence puts the next one at about ``_FP_STEP_TOL``) or
    after ``_MAX_ITER`` steps, and is accepted when its equation has
    max-norm below ``_PSI_TOL`` and its criterion is no higher than at the
    start.  That check runs once, on all settled rows together (as one
    parameter on a single one; in place when every row settled), and takes
    two ``_tilt``s, at the fit and at the start, on the start's y: two
    validations, two per-node transforms and two model terms, which one
    equation call and two criterion calls share.  Returns the (R, d) parameters, the accepted mask, each row's
    steps and each row's criterion: the ``_closed_form`` one, or that of the
    check (NaN where a row did not settle).
    """
    x = np.asarray(nodes, dtype=float)
    w = np.asarray(weights, dtype=float)
    r = len(x)
    if spec.kind not in ("power-pseudo", "renyi") or spec.alpha == 0.0:
        try:
            theta, own, crit = _closed_form(family, spec, x, w)
        except (DegenerateDataError, DomainError):
            return _unfitted(family, r)
        accepted = np.zeros(r, dtype=bool) | own
        return theta, accepted, np.zeros(r, dtype=int), np.where(accepted, crit, math.nan)
    equal = (w == w[:, :1]).all(axis=1)
    if 0 < (equal_rows := np.count_nonzero(equal)) < r:
        fits = _unfitted(family, r)
        for rows in (equal, ~equal):
            for out, got in zip(fits, _moment_fixed_point(family, spec, x[rows], w[rows])):
                out[rows] = got
        return fits
    w_map = w[:, :1] if equal_rows == r else w
    stop_tol = math.sqrt(_FP_STEP_TOL)
    with np.errstate(all="ignore"):
        start, y = family._moment_start(x, w_map)
        theta, iterations, settled = start.copy(), np.zeros(r, dtype=int), np.zeros(r, dtype=bool)
        idx, its = np.isfinite(start).all(axis=1).nonzero()[0], 0
        th, ys, ws = (start, y, w_map) if idx.size == r else (start[idx], y[idx], w_map[idx])
        while idx.size:
            if idx.size == 1 and th.ndim > 1:
                # one row, or the last one left, steps as one parameter
                th, ys, ws = th[0], ys[0], ws[0] if ws.shape[1] > 1 else ws.item()
            lone = th.ndim == 1
            new, step = family._moment_update(spec.kind, spec.alpha, ys, ws, th)
            its += 1
            inside = family._in_space(new)
            if not (inside if lone else inside.all()):
                # a Newton step out of the space is halved until the row is
                # back inside; a map step or a NaN step there stops the row
                d = new - th
                back = np.logical_not(inside) & (step < math.inf) & np.isfinite(d).all(axis=-1)
                step = np.where(back, math.inf, np.where(inside, step, math.nan))
                while back.any():
                    d[back] *= 0.5
                    new[back] = th[back] + d[back]
                    back &= np.logical_not(family._in_space(new))
            # a NaN step fails both tests
            th, go = new, step >= stop_tol
            if its < _MAX_ITER and (go if lone else go.all()):
                continue
            if lone:
                j = idx[0]
                theta[j], iterations[j], settled[j] = th, its, step < stop_tol
                break
            go &= its < _MAX_ITER
            stop = idx[~go]
            theta[stop], iterations[stop], settled[stop] = th[~go], its, step[~go] < stop_tol
            idx, th, ys, ws = idx[go], th[go], ys[go], ws[go]
        criteria, rows = np.full(r, math.nan), settled.nonzero()[0]
        if rows.size:
            # one row is checked as one parameter: the same numbers, without
            # rows overhead; when every row settled, the rows are read in place
            pick = rows[0] if rows.size == 1 else slice(None) if rows.size == r else rows
            q, fit, begin, nodes = _Rows(x[pick], w_map[pick]), theta[pick], start[pick], y[pick]
            criterion, gradient = _EQUATIONS[spec.kind]
            at_fit, at_start = _tilt(family, spec, fit, q, nodes), _tilt(family, spec, begin, q, nodes)
            psi = gradient(family, fit, q, spec, at_fit)
            criteria[pick] = crit = criterion(family, fit, q, spec, at_fit)
            # the accepted rows are the settled ones that pass
            settled[pick] = (np.abs(psi).max(axis=-1) < _PSI_TOL) & (crit <= criterion(family, begin, q, spec, at_start))
    return theta, settled, iterations, criteria


# ---------------------------------------------------------------------------
# estimation drivers
# ---------------------------------------------------------------------------


def mle(family: Family, q: Measure) -> EstimateResult:
    """Maximum-likelihood estimate from closed forms, on any measure."""
    theta = family.mle_parameter(q.nodes, q.weights)
    crit = float(q.weights @ np.asarray(family.log_density(theta, q.nodes)))
    return EstimateResult(theta_hat=theta, criterion_value=crit, iterations=0, converged=True)


def _fallback(family: Family, spec: EstimatorSpec, q, its: int):
    """Fit of a row ``q`` (nodes and weights) that the row solver did not
    accept after ``its`` Newton steps, or of one subdivergence or
    superdivergence row for ``estimate``: (theta, criterion, iterations,
    converged).

    A ``_closed_form`` fit is given as the row solver gives it; otherwise
    the criterion and equation are the kind's pair in ``_EQUATIONS``, each
    on its own tilt.  Subdivergence first runs Newton from the escort
    clipped into the family's default box, kept when its residual is below
    ``_PSI_TOL`` and its criterion no higher than at the escort.
    Otherwise the criterion is minimized over the family's default box (from
    the MLE in 2-d) and polished once by the same Newton iteration: converged
    when that residual is below ``_PSI_TOL`` strictly inside the box, with
    every phase's iterations.
    """
    # on a sample the MLE cannot fit (zero spread, every x at 0 on
    # normal-scale or at 1 on Pareto) each criterion reaches its infimum
    # only as the fit degenerates, so such a fit raises as the MLE does
    start, own, crit = _closed_form(family, spec, q.nodes, q.weights)
    if own:
        return start, crit, its, True
    q = _rows(family, spec, q.nodes, q.weights)
    criterion, gradient = _EQUATIONS[spec.kind]
    bounds = family.default_bounds(q.nodes, q.weights)
    # the per-node transform that no parameter enters, once for every evaluation
    y = family._nodes(q.nodes)
    objective = lambda th: criterion(family, th, q, spec, _tilt(family, spec, th, q, y))
    psi = lambda th: gradient(family, th, q, spec, _tilt(family, spec, th, q, y))
    if spec.kind == "subdivergence":
        theta, norm, newton_its = _newton_polish(psi, q.escort, bounds, _PSI_TOL)
        its += newton_its
        if norm < _PSI_TOL and (crit := objective(theta)) <= objective(q.escort):
            return theta, crit, its, True
    if family.param_dim == 1:
        sr = solve_1d(lambda t: objective(np.array([t])), bounds[0])
    else:
        sr = solve_2d(objective, bounds, start)
    theta, norm, polish_its = _newton_polish(psi, sr.x, bounds, _PSI_TOL)
    lo, hi = np.array(bounds).T
    # a root on the box edge is where the box cut the search off
    converged = norm < _PSI_TOL and bool(np.all((lo < theta) & (theta < hi)))
    return theta, objective(theta), its + sr.iterations + polish_its, converged


def estimate(family: Family, spec: EstimatorSpec, q: Measure) -> EstimateResult:
    """Run the estimator described by ``spec`` on the measure ``q``.

    Power-pseudo and Renyi fits are ``_fit_rows`` on one row, subdivergence
    and superdivergence fits its one-row fit ``_fallback``, with no row-solver
    bookkeeping around their closed form.  A Renyi fit reports
    the maximized tilted-mass criterion itself.  ``converged``: max |psi| <
    ``_PSI_TOL``, with a criterion no higher than at the robust start (row
    solver) or the escort (subdivergence Newton), or strictly inside the box
    (box search and polish): a root, not a global minimum (README's table).
    """
    if spec.kind == "mle" or spec.alpha == 0.0:
        return mle(family, q)
    if spec.kind in ("subdivergence", "superdivergence"):
        # the row solver would only give the closed form: fit the row as a
        # row it does not accept, with no row-solver bookkeeping
        theta, crit, iterations, converged = _fallback(family, spec, _Rows(q.nodes, q.weights), 0)
        return EstimateResult(theta, float(crit), iterations, bool(converged))
    theta, criteria, iterations, converged, errors = _fit_rows(family, spec, q.nodes[None], q.weights[None])
    if errors:
        raise errors[0]
    crit = math.exp(-criteria[0]) if spec.kind == "renyi" else float(criteria[0])
    return EstimateResult(theta[0], crit, int(iterations[0]), bool(converged[0]))


def _fit_rows(family: Family, spec: EstimatorSpec, nodes, weights):
    """Fit of ``spec`` on each row of (R, n) ``nodes`` and ``weights``: one
    row-solver call on all rows, then ``_fallback`` on each row it does not
    accept.  Returns the (R, d) parameters (NaN where a fit raised), each
    row's criterion (Renyi's negative log; NaN on MLE rows), iterations and
    converged flag, and the ``ToolkitError`` each failed row raised, keyed
    by row.  A subdivergence escort outside the space raises before any row
    is fitted.
    """
    # C order, whatever the caller's layout: rows sum along contiguous nodes, as single calls do
    nodes, weights = np.ascontiguousarray(nodes, dtype=float), np.ascontiguousarray(weights, dtype=float)
    theta, converged, iterations, criteria = _moment_fixed_point(family, spec, nodes, weights)
    errors = {}
    for j in (~converged).nonzero()[0].tolist():
        try:
            fit = _fallback(family, spec, _Rows(nodes[j], weights[j]), int(iterations[j]))
            theta[j], criteria[j], iterations[j], converged[j] = fit
        except ToolkitError as exc:
            theta[j], criteria[j], errors[j] = math.nan, math.nan, exc
    return theta, criteria, iterations, converged, errors
