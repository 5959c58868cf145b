"""Scalar kernels of the power-divergence and pseudodistance families.

All kernels accept scalar or ndarray arguments in ``t`` (and ``s``) and are
pure functions, safe to call concurrently.  The power kernels share one limit
branch, ``L(b, t) = (t^b - 1)/b = expm1(b ln t)/b`` with ``ln t`` at ``b = 0``;
orders within ``BRANCH_TOL`` of 0 or 1 are put on the branch point, so a kernel
there equals its limit exactly.  Near ``t = 1`` (``s = t``), where the direct
formulas cancel, their relative error stays below 1e-6, and no power is formed
beyond a kernel's own scale, so ratios such as 1e80 do not overflow.
``log_sum_exp`` reduces each row on its own with numpy ufuncs, which give a
Python float and every array element the same bits, so a row of a batch
equals the same terms passed alone.  ``power_divergence`` between two family
members is the family's closed form, not a sum on a grid.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

# Switch to the limit branch this close to alpha in {0, 1}.
BRANCH_TOL = 1e-6

_TINY = np.finfo(float).tiny


def _positive(value, name: str) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
        raise DomainError(f"{name} must be positive and finite, got {value!r}")
    return arr


def log_sum_exp(log_terms):
    """``log(sum(exp(log_terms)))`` along the last axis, and the terms scaled
    by the largest one of their row.

    Shifting by the largest term keeps the row from overflowing or
    underflowing to zero.  A 1-d input gives a scalar log-sum.
    """
    terms = np.asarray(log_terms, dtype=float)
    shift = terms.max(axis=-1, keepdims=True)
    if np.isfinite(shift).all():
        # each row's largest scaled term is 1, so no row sums to 0
        return _shifted_log_sum(terms, shift)
    # no finite largest term: the log-sum is +-inf, not NaN
    shift[~np.isfinite(shift)] = 0.0
    with np.errstate(divide="ignore"):
        return _shifted_log_sum(terms, shift)


def _shifted_log_sum(terms: np.ndarray, shift: np.ndarray):
    scaled = terms - shift
    np.exp(scaled, out=scaled)
    return shift[..., 0] + np.log(scaled.sum(axis=-1)), scaled


def _like(result: np.ndarray) -> float | np.ndarray:
    return float(result) if np.ndim(result) == 0 else result


def _snap(alpha) -> float:
    """The order, put exactly on the branch point 0 or 1 within ``BRANCH_TOL``."""
    a = float(alpha)
    if abs(a) < BRANCH_TOL:
        return 0.0
    if abs(a - 1.0) < BRANCH_TOL:
        return 1.0
    return a


def _log_power(b: float, log_t: np.ndarray) -> np.ndarray:
    """``L(b, t) = expm1(b ln t)/b`` from ``ln t``, and ``ln t`` at ``b = 0``."""
    return log_t if b == 0.0 else np.expm1(b * log_t) / b


def phi(alpha: float, t) -> float | np.ndarray:
    """Convex power kernel of order ``alpha``.

    ``(t^a - a t + a - 1) / (a (a - 1))`` away from the branch points,
    ``-ln t + t - 1`` at ``a = 0`` and ``t ln t - t + 1`` at ``a = 1``.
    Defined for every real order; equals ``phi_ring + phi_sharp``.  Computed
    as ``(L(a, t) - (t - 1))/(a - 1)``.
    """
    ts = _positive(t, "t")
    a, log_t = _snap(alpha), np.log(ts)
    if a == 1.0:
        return _like(ts * log_t - (ts - 1.0))
    return _like((_log_power(a, log_t) - (ts - 1.0)) / (a - 1.0))


def phi_star(alpha: float, t) -> float | np.ndarray:
    """Adjoint kernel ``t * phi(alpha, 1/t)``; equals ``phi(1 - alpha, t)``."""
    ts = _positive(t, "t")
    return _like(ts * phi(alpha, 1.0 / ts))


def phi_ring(alpha: float, t) -> float | np.ndarray:
    """The kernel ``t * phi'(alpha, t)``: ``(t^a - t)/(a - 1)``, ``t ln t`` at a=1."""
    ts = _positive(t, "t")
    a, log_t = _snap(alpha), np.log(ts)
    if a == 1.0:
        return _like(ts * log_t)
    # t expm1(y) or, where y > 0, -t^a expm1(-y): e^y = t^(a-1) stays <= 1
    y = (a - 1.0) * log_t
    return _like(np.where(y > 0.0, -(ts**a), ts) * np.expm1(-np.abs(y)) / (a - 1.0))


def phi_sharp(alpha: float, t) -> float | np.ndarray:
    """The nonincreasing kernel ``(1 - t^a)/a``; ``-ln t`` at a=0."""
    return _like(-_log_power(_snap(alpha), np.log(_positive(t, "t"))))


def _psi_args(alpha, s, t):
    ss, ts = _positive(s, "s"), _positive(t, "t")
    if float(alpha) < 0.0:
        raise DomainError(f"order alpha must be nonnegative, got {alpha!r}")
    return _snap(alpha), ss, ts


def psi_kernel(alpha: float, s, t) -> float | np.ndarray:
    """Reflexive decomposable kernel of the power pseudodistance family.

    Nonnegative for positive arguments, zero iff ``s == t``.  Equals
    ``(s^(1+a) - t^(1+a))/(1+a) + t (L(a, t) - L(a, s))``, with the entropy
    limit ``s - t + t ln t - t ln s`` at ``a = 0``; computed, with ``r`` the
    smaller argument over the larger, as ``t^(1+a) [L(1+a, r) - L(a, r)]``
    where ``s <= t`` and as ``s^(1+a) [r L(a, r) - L(1+a, r)]`` elsewhere.
    """
    a, ss, ts = _psi_args(alpha, s, t)
    hi, lo = np.maximum(ss, ts), np.minimum(ss, ts)
    r = lo / hi
    # a ratio below the normal range is rounded: take ln r from the two logs
    log_r = np.where(r >= _TINY, np.log(np.maximum(r, _TINY)), np.log(lo) - np.log(hi))
    up, down = _log_power(1.0 + a, log_r), _log_power(a, log_r)
    return _like(hi ** (1.0 + a) * np.where(ss <= ts, up - down, r * down - up))


def psi_components(alpha: float, s, t):
    """Decomposition pieces ``(psi0(s), psi1(t), rho(s))`` of :func:`psi_kernel`.

    They satisfy ``psi_kernel(a, s, t) == psi0 + psi1 + rho * t``.
    """
    a, ss, ts = _psi_args(alpha, s, t)
    psi0 = ss ** (1.0 + a) / (1.0 + a)
    psi1 = ts * (_log_power(a, np.log(ts)) - ts**a / (1.0 + a))
    rho = -_log_power(a, np.log(ss))
    return _like(psi0), _like(psi1), _like(rho)


def orthogonal_constant(alpha: float) -> float:
    """Divergence value between mutually singular measures: ``1/(a(1-a))``
    for ``0 < a < 1``, infinite otherwise."""
    a = float(alpha)
    if 0.0 < a < 1.0:
        return 1.0 / (a * (1.0 - a))
    return math.inf


def power_divergence(family, theta, theta0, alpha: float) -> float:
    """Power divergence of order ``alpha`` between two family members:
    ``expm1(log R) / (a (a - 1))``, with ``R`` the integral of ``p_theta^a
    p_theta0^(1-a)`` in closed form (``Family._power_divergence``), the
    Kullback-Leibler divergence at ``a = 1`` and at ``a = 0`` (members
    swapped).  Nonnegative, zero iff the parameters coincide, ``+inf`` where
    the product does not normalize and the orthogonal constant where ``R``
    underflows; log R is taken from the relative gaps of the parameters with
    ``log1p``, so members a relative 1e-7 apart keep about eight digits.
    """
    a = _snap(alpha)
    theta, theta0 = family._one_param(theta), family._one_param(theta0)
    if a == 0.0:
        return family._power_divergence(theta0, theta, 1.0)
    return family._power_divergence(theta, theta0, a)
