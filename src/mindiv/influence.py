"""Influence functions: the general M-estimator formula, closed forms for
each estimator/submodel pair, a finite-difference contamination oracle, and
gross-error sensitivity summaries.

All computations are pure; grid points may be evaluated concurrently.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import (
    EstimationError,
    InvalidInputError,
    SingularMatrixError,
    ToolkitError,
)
from .estimators import EstimatorSpec, estimate
from .families import (
    Family,
    NormalLocation,
    NormalScale,
    _NormalKind,
)
from .measures import Measure, contaminate, quadrature_of


class Unbounded(enum.Enum):
    """Explicit infinity marker; floating-point inf never leaks into reports."""

    POSITIVE = "+inf"


UNBOUNDED = Unbounded.POSITIVE

# Contamination weight of the numeric influence oracle.
_ORACLE_EPS = 1e-3


@dataclass(frozen=True)
class InfluenceCurve:
    """Sampled influence function with its defining metadata."""

    estimator: EstimatorSpec
    eval_param: np.ndarray
    grid: np.ndarray
    values: np.ndarray  # shape (len(grid), param_dim)

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        values = np.atleast_2d(np.asarray(self.values, dtype=float))
        if grid.ndim != 1 or np.any(np.diff(grid) <= 0.0):
            raise InvalidInputError("grid must be strictly increasing")
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
            lines.append(",".join(format(v, ".17g") for v in (x, *row)))
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class SensitivitySummary:
    """Gross-error sensitivity: supremum of |IF| and its tail limit."""

    sup_abs: float | Unbounded
    limit_at_infinity: float | Unbounded


# ---------------------------------------------------------------------------
# general formula and the contamination oracle
# ---------------------------------------------------------------------------


def if_general(psi, psi_deriv, q: Measure, t_of_q, x: float) -> np.ndarray:
    """Influence of an M-estimator at the fixed point ``t_of_q`` of ``q``.

    ``psi(x, theta)`` is the estimating function, ``psi_deriv`` its
    parameter Jacobian; the returned vector is the matrix-weighted
    ``-I(Q)^{-1} psi(x, T(Q))``.
    """
    theta = np.atleast_1d(np.asarray(t_of_q, dtype=float))
    d = theta.size
    vals = np.asarray(psi_deriv(q.nodes, theta), dtype=float)
    if vals.shape != (len(q), d, d):
        vals = np.stack([np.asarray(psi_deriv(xi, theta), dtype=float).reshape(d, d) for xi in q.nodes])
    info = np.einsum("i,ijk->jk", q.weights, vals)
    return _solve_sensitivity(info, np.asarray(psi(x, theta), dtype=float).reshape(d))


def _solve_sensitivity(info: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """``-info^{-1} rhs``, refusing a non-finite or ill-conditioned ``info``."""
    if not np.all(np.isfinite(info)) or np.linalg.cond(info) > 1e12:
        raise SingularMatrixError("sensitivity matrix is singular", matrix=info)
    return -np.linalg.solve(info, rhs)


def if_numeric(family: Family, spec: EstimatorSpec, q: Measure, x: float, eps: float = _ORACLE_EPS) -> np.ndarray:
    """Finite-contamination quotient ``(T(Q_eps_x) - T(Q)) / eps``.

    One-sided in ``eps`` (contamination weights are nonnegative), with a
    Richardson step over ``{eps, eps/2}`` cancelling the leading error term.
    """
    e = float(eps)
    if not 0.0 < e <= 0.05:
        raise InvalidInputError(f"eps must lie in (0, 0.05], got {eps!r}")
    base = _estimate_or_raise(family, spec, q, "base measure")
    return _richardson_quotient(family, spec, q, base.theta_hat, x, e)


def _richardson_quotient(family, spec, q, base_theta, x: float, eps: float) -> np.ndarray:
    """Richardson-extrapolated contamination quotient against a fitted base."""
    quotients = []
    for step in (eps, eps / 2.0):
        contaminated = contaminate(q, x, step)
        shifted = _estimate_or_raise(
            family, spec, contaminated, f"contaminated measure (x={x}, eps={step})"
        )
        quotients.append((shifted.theta_hat - base_theta) / step)
    return 2.0 * quotients[1] - quotients[0]


def _estimate_or_raise(family, spec, q, context: str):
    try:
        result = estimate(family, spec, q)
    except ToolkitError as exc:
        raise EstimationError(f"estimation failed at {context}: {exc}") from exc
    if not result.converged:
        raise EstimationError(f"estimator did not converge at {context}")
    return result


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def if_mle(family: Family, theta, x) -> np.ndarray:
    """Maximum-likelihood influence ``I(theta)^{-1} s_theta(x)``.

    Also the influence of every superdivergence estimator, which is the MLE
    on every family here (see ``estimators._superdivergence``).
    Vectorized: array ``x`` yields one row per point.
    """
    return _tilted_score_if(family, 0.0, theta, x, centre_score=False)


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


def _power_moments(family: Family, theta, alpha: float):
    """First and second moments of the score under ``p^(1+alpha)``."""
    grid_x, lam_w = family.integration_grid([theta])
    lp = np.asarray(family.log_density(theta, grid_x))
    tilt = lam_w * np.exp((1.0 + alpha) * lp)
    s = family.score(theta, grid_x)
    return np.einsum("i,ij->j", tilt, s), np.einsum("i,ij,ik->jk", tilt, s, s)


def _tilted_score_if(family: Family, alpha: float, theta, x, centre_score: bool):
    """Model-point influence ``-J^{-1} psi(x)`` of a tilted-score estimator.

    ``psi(x) = p^a(x) (s(x) - k) - K``, with ``c`` the tilted score mean:
    the Renyi equation centres the score before tilting (``k = c``,
    ``K = 0``), the power-pseudo equation centres the tilted score
    (``k = 0``, ``K`` the integral of ``p^(1+a) s``).  Differentiating
    ``E_theta[psi_theta] = 0`` in theta gives ``J = -E[psi s^t] =
    k m1^t - m2`` with ``m1, m2`` from :func:`_power_moments`.  At
    ``a = 0`` both are the likelihood score equation and ``-J`` is the
    Fisher information.
    """
    a = float(alpha)
    if a < 0.0:
        raise InvalidInputError(f"alpha must be nonnegative, got {alpha!r}")
    theta = family.validate_param(theta)
    m1, m2 = _power_moments(family, theta, a)
    c = family.weighted_score_mean(theta, a)
    if centre_score:
        k, shift = c, 0.0
    else:
        k, shift = np.zeros_like(c), family.power_mass_integral(theta, a) * c
    info = np.outer(k, m1) - m2
    lp_x = np.asarray(family.log_density(theta, x), dtype=float)
    s_x = np.atleast_2d(np.asarray(family.score(theta, x), dtype=float))
    b = np.exp(a * lp_x).reshape(-1, 1) * (s_x - k) - shift
    out = _solve_sensitivity(info, b.T).T
    return out[0] if np.ndim(x) == 0 else out


def if_pseudo(family: Family, alpha: float, theta, x) -> np.ndarray:
    """Influence of the power pseudodistance estimator at a model point."""
    return _tilted_score_if(family, alpha, theta, x, centre_score=False)


def if_renyi(family: Family, alpha: float, theta, x) -> np.ndarray:
    """Influence of the Renyi pseudodistance estimator at a model point.

    The numerator is the tilted centered score ``p^a (s - c)``; the
    centered-normal scale specialization reproduces the known closed form,
    which the tests pin against the contamination oracle.
    """
    return _tilted_score_if(family, alpha, theta, x, centre_score=True)


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
    dense = np.linspace(lo, span, 801)
    with np.errstate(over="ignore"):
        dense_vals = np.abs(np.asarray(curve(dense), dtype=float).reshape(dense.size, -1)).max(axis=1)
    if not np.all(np.isfinite(dense_vals)):
        return SensitivitySummary(sup_abs=UNBOUNDED, limit_at_infinity=UNBOUNDED)

    probes = []
    for sign in (1.0, -1.0):
        xs = sign * span * np.array([1.0, 2.0, 4.0])
        if np.isfinite(lo_support):
            xs = xs[xs > lo_support]
        if xs.size < 2:
            continue
        xs = np.sort(xs) if sign > 0 else np.sort(xs)[::-1]
        with np.errstate(over="ignore"):
            vals = np.abs(np.asarray(curve(xs), dtype=float).reshape(xs.size, -1)).max(axis=1)
        if not np.all(np.isfinite(vals)):
            return SensitivitySummary(sup_abs=UNBOUNDED, limit_at_infinity=UNBOUNDED)
        if np.any(vals[1:] > vals[:-1] * (1.0 + 1e-9) + 1e-300):
            return SensitivitySummary(sup_abs=UNBOUNDED, limit_at_infinity=UNBOUNDED)
        probes.append(vals)

    x_far = 50.0 * scale
    far = np.asarray(curve(np.array([x_far])), dtype=float).reshape(-1)
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

    Closed forms are used when available: MLE and superdivergence share the
    likelihood influence (the superdivergence estimator is the MLE),
    subdivergence has normal location/scale closed forms, and the two
    pseudodistance kinds have general model-point forms.
    ``numeric=True`` switches to the contamination oracle on a quadrature
    evaluation measure, whose unchanged base fit is shared by every point.
    """
    theta = family.validate_param(theta)
    grid = np.asarray(grid, dtype=float)
    if numeric:
        q = quadrature_of(family, theta)
        base = _estimate_or_raise(family, spec, q, "base measure")
        values = np.stack(
            [_richardson_quotient(family, spec, q, base.theta_hat, float(x), _ORACLE_EPS) for x in grid]
        )
        return InfluenceCurve(estimator=spec, eval_param=theta, grid=grid, values=values)

    if spec.kind in ("mle", "superdivergence"):
        values = if_mle(family, theta, grid)
    elif spec.kind == "subdivergence":
        escort = np.asarray(spec.escort, dtype=float)
        if isinstance(family, NormalLocation):
            values = if_sub_location(spec.alpha, escort[0], theta[0], grid).reshape(-1, 1)
        elif isinstance(family, NormalScale):
            values = if_sub_scale(spec.alpha, escort[0], theta[0], grid).reshape(-1, 1)
        else:
            raise InvalidInputError(
                "closed-form subdivergence influence covers the normal location "
                "and scale submodels; use the numeric oracle for other families"
            )
    elif spec.kind == "power-pseudo":
        values = if_pseudo(family, spec.alpha, theta, grid)
    else:  # renyi, the last of the validated kinds
        values = if_renyi(family, spec.alpha, theta, grid)
    return InfluenceCurve(estimator=spec, eval_param=theta, grid=grid, values=values)
