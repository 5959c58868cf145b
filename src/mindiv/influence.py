"""Influence functions: the general M-estimator formula, a
finite-difference contamination oracle, the paper's closed forms for the
subdivergence normal submodels, and gross-error sensitivity summaries.

Every model-point curve is one formula, ``IF(x) = -J^{-1} psi(x)``, on the
estimators' own estimating equations: ``psi`` is the fit's equation on the
point mass at x (``estimators._point_psi``) and ``J = -E_theta[psi s^t]``.

All computations are pure; grid points may be evaluated concurrently.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import EstimationError, InvalidInputError, SingularMatrixError
from .estimators import _BATCH_VALUES, EstimatorSpec, _fit_rows, _point_psi
from .families import Family, _NormalKind
from .measures import Measure, format_float, quadrature_of


class Unbounded(enum.Enum):
    """Explicit infinity marker; floating-point inf never leaks into reports."""

    POSITIVE = "+inf"


UNBOUNDED = Unbounded.POSITIVE

# Contamination weight of the numeric influence oracle.
_ORACLE_EPS = 1e-3


def _checked_grid(grid) -> np.ndarray:
    """``grid`` as a float array of finite, strictly increasing points."""
    grid = np.asarray(grid, dtype=float)
    if not np.isfinite(grid).all():
        raise InvalidInputError(f"grid points must be finite, got {float(grid[~np.isfinite(grid)][0])}")
    if grid.ndim != 1 or not (grid[1:] > grid[:-1]).all():
        raise InvalidInputError("grid must be strictly increasing")
    return grid


@dataclass(frozen=True)
class InfluenceCurve:
    """Sampled influence function with its defining metadata."""

    estimator: EstimatorSpec
    eval_param: np.ndarray
    grid: np.ndarray
    values: np.ndarray  # shape (len(grid), param_dim)

    def __post_init__(self):
        grid = _checked_grid(self.grid)
        values = np.atleast_2d(np.asarray(self.values, dtype=float))
        if values.shape[0] != grid.size:
            raise InvalidInputError("values must have one row per grid point")
        if not np.all(np.isfinite(values)):
            raise InvalidInputError("influence values must be finite on the grid")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)
        object.__setattr__(
            self, "eval_param", np.atleast_1d(np.asarray(self.eval_param, dtype=float))
        )

    def to_csv(self) -> str:
        ncomp = self.values.shape[1]
        header = "x," + ",".join(f"if_component_{j + 1}" for j in range(ncomp))
        lines = [header]
        for x, row in zip(self.grid, self.values):
            lines.append(",".join(map(format_float, (x, *row))))
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class SensitivitySummary:
    """Gross-error sensitivity: supremum of |IF| and its tail limit."""

    sup_abs: float | Unbounded
    limit_at_infinity: float | Unbounded


# ---------------------------------------------------------------------------
# general formula and the contamination oracle
# ---------------------------------------------------------------------------


def if_general(psi, psi_deriv, q: Measure, t_of_q, x) -> np.ndarray:
    """Influence of an M-estimator at the fixed point ``t_of_q`` of ``q``.

    ``psi(x, theta)`` is the estimating function, ``psi_deriv`` its
    parameter Jacobian (only its ``q``-mean is used); the returned vector is
    the matrix-weighted ``-I(Q)^{-1} psi(x, T(Q))``.  Vectorized: array
    ``x`` yields one row per point.
    """
    theta = np.atleast_1d(np.asarray(t_of_q, dtype=float))
    d = theta.size
    vals = np.asarray(psi_deriv(q.nodes, theta), dtype=float)
    if vals.shape != (len(q), d, d):
        vals = np.stack([np.asarray(psi_deriv(xi, theta), dtype=float).reshape(d, d) for xi in q.nodes])
    info = np.einsum("i,ijk->jk", q.weights, vals)
    if not np.all(np.isfinite(info)) or np.linalg.cond(info) > 1e12:
        raise SingularMatrixError("sensitivity matrix is singular", matrix=info)
    rhs = np.asarray(psi(x, theta), dtype=float).reshape(-1, d)
    # the inverse, not a solve: LAPACK's solve with one right-hand side per
    # point costs several times more for these d x d matrices, d <= 2
    out = -rhs @ np.linalg.inv(info).T
    return out[0] if np.ndim(x) == 0 else out


def if_numeric(family: Family, spec: EstimatorSpec, q: Measure, x, eps: float = _ORACLE_EPS) -> np.ndarray:
    """Finite-contamination quotient ``(T(Q_eps_x) - T(Q)) / eps``.

    One-sided in ``eps`` (contamination weights are nonnegative), with a
    Richardson step over ``{eps, eps/2}`` cancelling the leading error term.
    ``estimators._fit_rows`` fits the base measure as one row, then the
    contaminated measures of all points together, one row each, equal bit
    for bit to ``estimate`` on ``contaminate(q, x, step)``; the first row
    that fails raises its recorded error.  Array ``x`` yields one row per point.
    """
    e = float(eps)
    if not 0.0 < e <= 0.05:
        raise InvalidInputError(f"eps must lie in (0, 0.05], got {eps!r}")
    points = np.asarray(x, dtype=float).reshape(-1)
    if not np.all(np.isfinite(points)):
        raise InvalidInputError("contamination points must be finite")
    base = _fit_or_raise(family, spec, q.nodes[None], q.weights[None], lambda j: "base measure")[0]
    # row 2i holds point i at eps, row 2i + 1 point i at eps/2
    at = np.repeat(points, 2)
    steps = np.tile([e, e / 2.0], points.size)
    fits, n = np.empty((at.size, base.size)), len(q)
    batch = max(1, _BATCH_VALUES // (n + 1))
    for lo in range(0, at.size, batch):
        hi = min(lo + batch, at.size)
        # the rows of contaminate(q, x, step), written in C order as
        # _fit_rows takes them: q's nodes plus x, and its weights times
        # (1 - step) plus step
        nodes, weights = np.empty((2, hi - lo, n + 1))
        nodes[:, :n], nodes[:, n] = q.nodes, at[lo:hi]
        np.multiply(1.0 - steps[lo:hi, None], q.weights, out=weights[:, :n])
        weights[:, n] = steps[lo:hi]
        context = lambda j: f"contaminated measure (x={float(at[lo + j])}, eps={float(steps[lo + j])})"
        fits[lo:hi] = _fit_or_raise(family, spec, nodes, weights, context)
    quotients = (fits - base) / steps[:, None]
    out = 2.0 * quotients[1::2] - quotients[0::2]
    return out[0] if np.ndim(x) == 0 else out


def _fit_or_raise(family, spec, nodes, weights, context):
    """``_fit_rows``' parameters, or an ``EstimationError`` naming
    ``context(j)`` of the first failed row j: raised from the error it
    recorded, or with no cause if it did not converge (CLI exit 1 or 2)."""
    theta, _, _, converged, errors = _fit_rows(family, spec, nodes, weights)
    j = int(np.argmin(converged))
    if j in errors:
        raise EstimationError(f"estimation failed at {context(j)}: {errors[j]}") from errors[j]
    if not converged[j]:
        raise EstimationError(f"estimator did not converge at {context(j)}")
    return theta


# ---------------------------------------------------------------------------
# model-point curves
# ---------------------------------------------------------------------------


def _model_point_if(family: Family, spec: EstimatorSpec, theta, x) -> np.ndarray:
    """``IF(x) = -J^{-1} psi(x)`` of ``spec``'s estimator at the model point.

    ``psi`` is the estimator's own equation on the point mass at x.  Every
    kind here is Fisher consistent, so ``E_theta[psi_theta] = 0`` for all
    theta; its theta-derivative gives ``J = E[d psi / d theta] =
    -E_theta[psi s^t]``, taken on the quadrature of the model point, so
    ``-psi s^t`` serves ``if_general`` as the Jacobian whose mean it needs.
    """
    theta = family.validate_param(theta)
    psi = lambda xs, th: _point_psi(family, spec, th, xs)
    jac = lambda xs, th: -psi(xs, th)[:, :, None] * family.score(th, xs)[:, None, :]
    return if_general(psi, jac, quadrature_of(family, theta), theta, x)


def if_mle(family: Family, theta, x) -> np.ndarray:
    """Maximum-likelihood influence ``I(theta)^{-1} s_theta(x)``.

    Also the influence of every superdivergence estimator, which is the MLE
    on every family here (see ``estimators._closed_form``).
    Vectorized: array ``x`` yields one row per point.
    """
    return _model_point_if(family, EstimatorSpec(kind="mle"), theta, x)


def if_pseudo(family: Family, alpha: float, theta, x) -> np.ndarray:
    """Influence of the power pseudodistance estimator at a model point."""
    return _model_point_if(family, EstimatorSpec(kind="power-pseudo", alpha=alpha), theta, x)


def if_renyi(family: Family, alpha: float, theta, x) -> np.ndarray:
    """Influence of the Renyi pseudodistance estimator at a model point.

    The numerator is the tilted centered score ``p^a (c - s)``; the
    centered-normal scale specialization reproduces the known closed form,
    which the tests pin against the contamination oracle.
    """
    return _model_point_if(family, EstimatorSpec(kind="renyi", alpha=alpha), theta, x)


# ---------------------------------------------------------------------------
# the paper's subdivergence closed forms
# ---------------------------------------------------------------------------


def if_sub_location(alpha: float, escort_mu: float, mu0: float, x):
    """Closed-form subdivergence location influence at a unit-scale normal.

    Reduces to ``x - mu0`` at ``alpha = 0`` or when the escort equals the
    true location; unbounded in ``x`` for every order below one.
    """
    a = float(alpha)
    if not 0.0 <= a < 1.0:
        raise InvalidInputError(f"alpha must lie in [0, 1), got {alpha!r}")
    mu = float(escort_mu)
    m0 = float(mu0)
    xs = np.asarray(x, dtype=float)
    gap = m0 - mu
    anchor = np.exp(a * (a - 1.0) * gap**2 / 2.0)
    with np.errstate(over="ignore"):
        num = (xs - m0) * np.exp(a * gap * (m0 + mu - 2.0 * xs) / 2.0) + a * gap * anchor
    den = (1.0 + a**2 * gap**2) * anchor
    out = num / den
    return float(out) if np.ndim(x) == 0 else out


def if_sub_scale(alpha: float, escort_sigma: float, sigma0: float, x):
    """Closed-form subdivergence scale influence at a centered normal.

    At ``alpha = 0`` or escort equal to truth this is the MLE scale curve
    ``sigma0 ((x/sigma0)^2 - 1) / 2``; otherwise it carries a constant
    offset and an exponential factor that explodes when the escort scale
    exceeds the true scale.
    """
    a = float(alpha)
    if not 0.0 <= a < 1.0:
        raise InvalidInputError(f"alpha must lie in [0, 1), got {alpha!r}")
    sig = float(escort_sigma)
    s0 = float(sigma0)
    if sig <= 0.0 or s0 <= 0.0:
        raise InvalidInputError("scales must be positive")
    xs = np.asarray(x, dtype=float)
    v = a * s0**2 + (1.0 - a) * sig**2
    denom = 2.0 * sig**4 + a**2 * (s0**2 - sig**2) ** 2
    with np.errstate(over="ignore"):
        delta = (
            v**2.5
            * ((xs / s0) ** 2 - 1.0)
            * np.exp(a * xs**2 * (s0**-2 - sig**-2) / 2.0)
            * s0
            / (sig * denom)
        )
    shift = a * s0 * (s0**2 - sig**2) * v / denom
    out = delta + shift
    return float(out) if np.ndim(x) == 0 else out


# ---------------------------------------------------------------------------
# sensitivity and curve export
# ---------------------------------------------------------------------------


def _probe_scale(family: Family, theta) -> float:
    if isinstance(family, _NormalKind):
        _, sigma = family._loc_scale(family.validate_param(theta))
        return sigma
    return 1.0


def sensitivity(curve, family: Family, alpha: float, theta) -> SensitivitySummary:
    """Classify the tail of ``|curve|`` and report its supremum.

    ``curve`` maps an ndarray of points to influence values.  The probe
    grid is anchored at the interior maximizer location of the bounded
    scale curves so the supremum is not missed; growth at doubling probe
    points (or a non-finite value) classifies the curve as unbounded.
    """
    a = float(alpha)
    theta = family.validate_param(theta)
    scale = _probe_scale(family, theta)
    anchor = scale * np.sqrt((2.0 + a) / a) if a > 0.0 else 0.0
    span = max(10.0 * scale, 1.5 * anchor)
    lo_support = family.support[0]
    lo = max(-span, lo_support + 1e-9) if np.isfinite(lo_support) else -span
    tails = [t[t > lo_support] for t in np.outer((1.0, -1.0), span * np.array([1.0, 2.0, 4.0]))]
    points = [np.linspace(lo, span, 801), *(t for t in tails if t.size >= 2), np.array([50.0 * scale])]
    # one call, so a curve's fixed cost (its quadrature and sensitivity matrix) is paid once
    with np.errstate(over="ignore"):
        values = np.asarray(curve(np.concatenate(points)), dtype=float)
    values = values.reshape(len(values), -1)
    *probed, far = np.split(values, np.cumsum([p.size for p in points])[:-1])
    dense_vals, *probes = (np.abs(v).max(axis=1) for v in probed)
    if not np.all(np.isfinite(dense_vals)):
        return SensitivitySummary(sup_abs=UNBOUNDED, limit_at_infinity=UNBOUNDED)
    for vals in probes:
        if not np.all(np.isfinite(vals)) or np.any(vals[1:] > vals[:-1] * (1.0 + 1e-9) + 1e-300):
            return SensitivitySummary(sup_abs=UNBOUNDED, limit_at_infinity=UNBOUNDED)
    far = far.reshape(-1)
    limit = float(far[np.argmax(np.abs(far))]) if far.size > 1 else float(far[0])
    sup = float(max(dense_vals.max(), max((v.max() for v in probes), default=0.0), abs(limit)))
    return SensitivitySummary(sup_abs=sup, limit_at_infinity=limit)


def influence_curve(
    family: Family,
    spec: EstimatorSpec,
    theta,
    grid,
    numeric: bool = False,
) -> InfluenceCurve:
    """Sample the influence function of an estimator at a model point.

    Every kind on every family uses ``-J^{-1} psi(x)`` on the estimator's
    own estimating equation; the MLE and superdivergence share the
    likelihood influence (the superdivergence estimator is the MLE).
    ``numeric=True`` switches to the contamination oracle ``if_numeric``
    on ``quadrature_of(family, theta)``: one base fit, then the grid's
    contaminated measures fitted together by ``estimators._fit_rows``, the
    one fit driver, each as single ``estimate`` calls give.
    Its default ``eps = 1e-3`` is too coarse for subdivergence on
    ``normal`` (2.6e-3 off the formula at alpha 0.5, escort (0.3, 1.2),
    theta (0, 1)); call ``if_numeric(family, spec, quadrature_of(family,
    theta), grid, eps=1e-4)`` there.
    """
    theta = family.validate_param(theta)
    grid = _checked_grid(grid)
    if numeric:
        values = if_numeric(family, spec, quadrature_of(family, theta), grid)
    else:
        values = _model_point_if(family, spec, theta, grid)
    return InfluenceCurve(estimator=spec, eval_param=theta, grid=grid, values=values)
