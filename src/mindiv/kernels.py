"""Scalar kernels of the power-divergence and pseudodistance families.

All kernels accept scalar or ndarray arguments in ``t`` (and ``s``) and are
pure functions, safe to call concurrently.  Divergence orders within 1e-6 of
a branch point use the limit formula to avoid catastrophic cancellation.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

# Switch to the limit branch this close to alpha in {0, 1}.
BRANCH_TOL = 1e-6


def _positive(value, name: str) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
        raise DomainError(f"{name} must be positive and finite, got {value!r}")
    return arr


def scalar_map(fn, value):
    """``fn(value)``, or ``fn`` of each array entry in the array's shape: parameter
    rows then match single parameters bit for bit, which numpy's ``log`` and ``**`` may not."""
    if isinstance(value, np.ndarray):
        return np.array([fn(v) for v in value.ravel().tolist()]).reshape(value.shape)
    return fn(value)


def log_sum_exp(log_terms):
    """``log(sum(exp(log_terms)))`` along the last axis, and the terms scaled
    by the largest one of their row.

    Shifting by the largest term keeps the sum from overflowing or
    underflowing to zero.  A 1-d input gives a scalar log-sum.
    """
    terms = np.asarray(log_terms, dtype=float)
    shift = terms.max(axis=-1, keepdims=True)
    # no finite largest term: the log-sum is +-inf, not NaN
    shift[~np.isfinite(shift)] = 0.0
    scaled = np.exp(terms - shift)
    log_total = scalar_map(lambda t: math.log(t) if t != 0.0 else -math.inf, scaled.sum(axis=-1))
    return shift[..., 0] + log_total, scaled


def _like(result: np.ndarray, template) -> float | np.ndarray:
    if np.ndim(template) == 0:
        return float(result)
    return result


def phi(alpha: float, t) -> float | np.ndarray:
    """Convex power kernel of order ``alpha``.

    ``(t^a - a t + a - 1) / (a (a - 1))`` away from the branch points,
    ``-ln t + t - 1`` at ``a = 0`` and ``t ln t - t + 1`` at ``a = 1``.
    Defined for every real order.
    """
    ts = _positive(t, "t")
    a = float(alpha)
    if abs(a) < BRANCH_TOL:
        out = -np.log(ts) + ts - 1.0
    elif abs(a - 1.0) < BRANCH_TOL:
        out = ts * np.log(ts) - ts + 1.0
    else:
        out = (ts**a - a * ts + a - 1.0) / (a * (a - 1.0))
    return _like(out, t)


def phi_star(alpha: float, t) -> float | np.ndarray:
    """Adjoint kernel ``t * phi(alpha, 1/t)``; equals ``phi(1 - alpha, t)``."""
    ts = _positive(t, "t")
    out = ts * np.asarray(phi(alpha, 1.0 / ts), dtype=float)
    return _like(out, t)


def phi_ring(alpha: float, t) -> float | np.ndarray:
    """The kernel ``t * phi'(alpha, t)``: ``(t^a - t)/(a - 1)``, ``t ln t`` at a=1."""
    ts = _positive(t, "t")
    a = float(alpha)
    if abs(a - 1.0) < BRANCH_TOL:
        out = ts * np.log(ts)
    else:
        out = (ts**a - ts) / (a - 1.0)
    return _like(out, t)


def phi_sharp(alpha: float, t) -> float | np.ndarray:
    """The nonincreasing kernel ``(1 - t^a)/a``; ``-ln t`` at a=0.

    Satisfies ``phi == phi_ring + phi_sharp`` pointwise.
    """
    ts = _positive(t, "t")
    a = float(alpha)
    if abs(a) < BRANCH_TOL:
        out = -np.log(ts)
    else:
        # -expm1(a ln t)/a is exact near a = 0, unlike (1 - t**a)/a.
        out = -np.expm1(a * np.log(ts)) / a
    return _like(out, t)


def psi_kernel(alpha: float, s, t) -> float | np.ndarray:
    """Reflexive decomposable kernel of the power pseudodistance family.

    Nonnegative for positive arguments, zero iff ``s == t``.  Computed as
    ``(s^(1+a) - t^(1+a))/(1+a) + t ((t^a - 1)/a - (s^a - 1)/a)`` with the
    entropy limit ``s - t + t ln t - t ln s`` at ``a = 0``.
    """
    ss = _positive(s, "s")
    ts = _positive(t, "t")
    a = float(alpha)
    if a < 0.0:
        raise DomainError(f"order alpha must be nonnegative, got {alpha!r}")
    if a < BRANCH_TOL:
        out = ss - ts + ts * np.log(ts) - ts * np.log(ss)
    else:
        out = (ss ** (1.0 + a) - ts ** (1.0 + a)) / (1.0 + a) + ts * (
            np.expm1(a * np.log(ts)) - np.expm1(a * np.log(ss))
        ) / a
    if np.ndim(s) == 0 and np.ndim(t) == 0:
        return float(out)
    return np.asarray(out, dtype=float)


def psi_components(alpha: float, s, t):
    """Decomposition pieces ``(psi0(s), psi1(t), rho(s))`` of :func:`psi_kernel`.

    They satisfy ``psi_kernel(a, s, t) == psi0 + psi1 + rho * t``.
    """
    ss = _positive(s, "s")
    ts = _positive(t, "t")
    a = float(alpha)
    if a < 0.0:
        raise DomainError(f"order alpha must be nonnegative, got {alpha!r}")
    psi0 = ss ** (1.0 + a) / (1.0 + a)
    if a < BRANCH_TOL:
        psi1 = ts * np.log(ts) - ts
        rho = -np.log(ss)
    else:
        psi1 = ts * (np.expm1(a * np.log(ts)) / a - ts**a / (1.0 + a))
        rho = -np.expm1(a * np.log(ss)) / a
    return _like(psi0, s), _like(psi1, t), _like(rho, s)


def orthogonal_constant(alpha: float) -> float:
    """Divergence value between mutually singular measures: ``1/(a(1-a))``
    for ``0 < a < 1``, infinite otherwise."""
    a = float(alpha)
    if 0.0 < a < 1.0:
        return 1.0 / (a * (1.0 - a))
    return math.inf


def power_divergence(family, theta, theta0, alpha: float, quad) -> float:
    """Power divergence of order ``alpha`` between two family members.

    ``quad`` must be a quadrature discretization of the ``theta0`` member
    (see :func:`mindiv.measures.quadrature_of`).  Nonnegative; zero iff the
    parameters coincide, up to quadrature error.
    """
    a = float(alpha)
    lr = np.asarray(family.log_density(theta, quad.nodes)) - np.asarray(
        family.log_density(theta0, quad.nodes)
    )
    w = quad.weights
    with np.errstate(over="ignore"):
        if abs(a) < BRANCH_TOL:
            value = -float(w @ lr)
        elif abs(a - 1.0) < BRANCH_TOL:
            value = float(w @ (np.exp(lr) * lr))
        else:
            value = (float(w @ np.exp(a * lr)) - 1.0) / (a * (a - 1.0))
    if math.isnan(value):
        raise DomainError("power divergence integrand is not finite on the grid")
    return value


def renyi_pseudodistance(family, theta, q_measure, q_density, alpha: float) -> float:
    """Logarithmic decomposable pseudodistance of order ``alpha``.

    ``q_measure`` integrates against the comparison law with density
    evaluator ``q_density``.  Internally works in the log domain so that
    small density powers do not underflow.  The ``alpha = 0`` limit is the
    Kullback discrepancy ``Q.(ln q - ln p)``.
    """
    a = float(alpha)
    if a < 0.0:
        raise DomainError(f"order alpha must be nonnegative, got {alpha!r}")
    nodes = q_measure.nodes
    w = q_measure.weights
    lp = np.asarray(family.log_density(theta, nodes), dtype=float)
    qvals = np.asarray(q_density(nodes), dtype=float)
    if not np.all(np.isfinite(qvals)) or np.any(qvals <= 0.0):
        raise DomainError("comparison density must be positive and finite on all nodes")
    lq = np.log(qvals)
    if a < BRANCH_TOL:
        return float(w @ (lq - lp))
    log_w = np.log(w)
    log_p_pa = math.log(family.power_mass_integral(theta, a))
    return (
        log_p_pa / (1.0 + a)
        + log_sum_exp(log_w + a * lq)[0] / (a * (1.0 + a))
        - log_sum_exp(log_w + a * lp)[0] / a
    )
