"""Parametric model families over the real line.

Four families are provided: the full normal location-scale model, its
location and scale submodels, and the unit-threshold Pareto shape model.
Each family exposes densities, scores, score derivatives, sampling, and the
closed-form power integrals the estimators are built on, from which the
power divergence between two members follows.  The methods the
tilted estimating equations and the row solver use take one parameter
against (n,) nodes or parameter rows, (R, d) theta against (R, n) nodes:
row j is the result of theta[j] on nodes[j], bit for bit, because one
parameter and rows run the same numpy ufuncs (``np.log``, ``np.power``,
``np.square``; Python's ``math.log`` and ``**`` round differently).  The
submodels are distinct kinds with their own parameter vectors, but their
scores, score derivatives, tilted score means, MLEs and search boxes are
those of the full normal model restricted to the free coordinates of (mu,
sigma).

Family objects are stateless and immutable; sampling takes an explicit
generator owned by the caller, so concurrent use is safe.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import DegenerateDataError, DomainError, InvalidInputError, check_count

_LOG_2PI = math.log(2.0 * math.pi)

# Normal quadrature window: mu +/- 10 sigma leaves tail mass < 1e-22.
_NORMAL_WINDOW = 10.0
# Pareto log-grid span: u in [0, 30/theta] leaves tail mass < 1e-12.
_PARETO_LOG_SPAN = 30.0
# Default node count of model-side quadrature grids.
_GRID_N = 512
# 1 / Phi^-1(3/4): turns the median absolute deviation into a normal scale.
_MAD_SCALE = 1.482602218505602


@lru_cache(maxsize=32)
def _leggauss(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def _gauss_nodes(lo: float, hi: float, n: int):
    x, w = _leggauss(int(n))
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    return mid + half * x, half * w


def _columns(theta: np.ndarray) -> list:
    """Components of a parameter as floats, or of rows as (R, 1) columns."""
    return theta.tolist() if theta.ndim == 1 else list(theta.T[..., None])


def _where(mask, a, b):
    """``np.where(mask, a, b)``, or ``a if mask else b`` on scalars."""
    return np.where(mask, a, b) if isinstance(mask, np.ndarray) else a if mask else b


def _stack(cols: list, theta: np.ndarray) -> np.ndarray:
    """The inverse of ``_columns``, shaped as ``theta``."""
    return np.array(cols).T.reshape(theta.shape)


def _mass_values(mass):
    """``_power_product``'s integral at ``c = 0`` as a float, or as one
    value per row."""
    return mass[:, 0] if mass.ndim > 1 else mass


def _renyi_normalizer(mass, a: float):
    """The Renyi normalizer ``mass ** (a / (1 + a))`` of a model mass."""
    return np.power(mass, a / (1.0 + a))


class Family:
    """Base class for parametric model descriptors.

    A family also writes its row solver's start and Newton step,
    ``_moment_start`` and ``_moment_update``, on one parameter or on (R, d)
    rows as ``_in_space`` (the contract is in ``estimators._moment_fixed_point``);
    ``_power_product(theta, other, e, c)``, its one closed form: it returns
    the pair of the integral of ``p_theta^(1+e-c) p_other^c`` and the score's
    mean at ``theta`` under that family member (``DomainError`` where there
    is none), on rows at ``c = 0`` (``other`` unread; the integral as an
    (R, 1) column), else one validated parameter, the integral as a float;
    ``_power_divergence(theta, other, a)``, the power divergence of order
    ``a != 0`` from the log of that integral at ``e = 0, c = 1 - a`` (see
    ``kernels.power_divergence``); and the node transform that the
    log-density and the score share: ``_nodes(x)``, the part no parameter
    enters (the y that ``_moment_start`` gives on each row it starts),
    ``_standardize(theta, y)`` at a validated parameter or rows, and from
    its value ``_log_density`` and ``_score_at``, the score's coordinates
    as arrays of the nodes' shape.  ``log_density`` and ``score`` chain
    the four on ``x``.
    """

    name: str = ""
    param_dim: int = 1
    param_names: tuple[str, ...] = ()
    support: tuple[float, float] = (-math.inf, math.inf)
    # name of the last coordinate, which must be positive ("" if it is free)
    _positive: str = ""

    def validate_param(self, theta) -> np.ndarray:
        """Checked parameter of shape (d,), or parameter rows of shape (R, d):
        finite, and positive in the last coordinate if ``_positive`` names it."""
        arr = theta
        if not (type(theta) is np.ndarray and theta.dtype == float and theta.ndim):
            # an array of floats, as a fit passes its parameters, is checked as it is
            arr = np.atleast_1d(np.asarray(theta, dtype=float))
        if arr.ndim > 2 or arr.shape[-1] != self.param_dim:
            raise InvalidInputError(f"parameter must have {self.param_dim} component(s), got shape {arr.shape}")
        inside = self._in_space(arr)
        if not (inside if arr.ndim == 1 else inside.all()):
            if not np.isfinite(arr).all():
                raise InvalidInputError(f"parameter must be finite, got {arr!r}")
            raise InvalidInputError(f"{self._positive} must be positive, got {arr.T[-1].min()}")
        return arr

    def _in_space(self, theta: np.ndarray):
        """The parameter space, finite and positive in the last coordinate if
        ``_positive`` names it: a bool for one parameter (from Python floats,
        far cheaper than reductions), or a mask of (R, d) rows."""
        if theta.ndim == 1:
            return all(map(math.isfinite, v := theta.tolist())) and not (self._positive and v[-1] <= 0.0)
        finite = np.isfinite(theta).all(axis=1)
        return finite & (theta[:, -1] > 0.0) if self._positive else finite

    def log_density(self, theta, x):
        out = self._log_density(self._standardize(self.validate_param(theta), self._nodes(x)))
        return float(out) if np.ndim(x) == 0 else out

    def density(self, theta, x):
        return np.exp(self.log_density(theta, x))

    def score(self, theta, x):
        """Score vector; shape ``x.shape + (param_dim,)``: the ``_score_at``
        columns stacked."""
        return np.stack(self._score_at(self._standardize(self.validate_param(theta), self._nodes(x))), axis=-1)

    def score_deriv(self, theta, x):
        """Jacobian of the score; shape ``x.shape + (param_dim, param_dim)``."""
        raise NotImplementedError

    def _one_param(self, theta) -> np.ndarray:
        """``validate_param`` for the two-member forms: one parameter, as ``_power_product`` takes at c != 0."""
        if (arr := self.validate_param(theta)).ndim > 1:
            raise InvalidInputError(f"a form of two members takes one parameter, not rows of shape {arr.shape}")
        return arr

    def power_ratio_integral(self, theta, theta_tilde, alpha: float) -> float:
        """Closed form of the tilted-ratio expectation under the second member."""
        return self._power_product(*map(self._one_param, (theta_tilde, theta)), 0.0, float(alpha))[0]

    def _power_tilt(self, theta, alpha):
        if (a := float(alpha)) < 0.0:
            raise DomainError(f"order alpha must be nonnegative, got {alpha!r}")
        return self._power_product(self.validate_param(theta), None, a, 0.0)

    def power_mass_integral(self, theta, alpha: float):
        """Closed form of the integral of the density raised to ``1 + alpha``."""
        return _mass_values(self._power_tilt(theta, alpha)[0])

    def renyi_normalizer(self, theta, alpha: float):
        """Normalizer ``power_mass_integral ** (alpha / (1 + alpha))``."""
        a = float(alpha)
        return _renyi_normalizer(self.power_mass_integral(theta, a), a)

    def weighted_score_mean(self, theta, alpha: float):
        """Mean of the score under the power-tilted density, closed form."""
        return self._power_tilt(theta, alpha)[1]

    def sample(self, theta, n: int, rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError

    def integration_grid(self, thetas, node_count: int = _GRID_N):
        """Nodes and base-measure weights covering the mass of every member
        in ``thetas``; ``sum(w * g(x))`` approximates the Lebesgue integral
        of ``g``."""
        raise NotImplementedError

    def mle_parameter(self, nodes, weights) -> np.ndarray:
        """Closed-form maximum-likelihood parameter for a weighted sample, or
        (R, d) rows for (R, n) nodes and weights, equal to single calls."""
        raise NotImplementedError

    def default_bounds(self, nodes, weights) -> tuple[tuple[float, float], ...]:
        """Search box for bounded optimization, one (lo, hi) per coordinate,
        about the sample's MLE; ``DegenerateDataError`` where
        ``mle_parameter`` raises it."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<family {self.name}>"


@lru_cache(maxsize=64)
def _equal_weight_rank(n: int, w: float, p: float) -> int:
    """Rank of the ``p``-quantile among ``n`` nodes of weight ``w`` each."""
    cw = np.cumsum(np.full(n, w))
    return int(np.argmax(cw >= p * cw[-1]))


def _row_quantile(x: np.ndarray, w: np.ndarray, p: float) -> np.ndarray:
    """Weighted ``p``-quantile of (n,) nodes, or of each row of (R, n) nodes,
    and weights (or each row's one weight): the first sorted node whose
    cumulative weight reaches ``p`` of the row's mass.  On one weight for
    every node (empirical measures of one size) the cumulative weights do
    not depend on the order, so ``np.partition`` selects that node in O(n)
    at a rank cached per (n, weight, p) (a zero may differ in sign, as ties
    order differently).  Otherwise each row is sorted, and the sorted weights
    and the chosen node are gathered by their flat index in the (R, n)
    array."""
    if (w := np.asarray(w)).size == 1 or w.size and (w == w.flat[0]).all():
        k = _equal_weight_rank(x.shape[-1], float(w.flat[0]), p)
        return np.partition(x, k, axis=-1)[..., k]
    n = x.shape[-1]
    order = np.argsort(x, axis=-1).reshape(-1, n)
    starts = np.arange(0, order.size, n)
    order += starts[:, None]
    cw = np.cumsum(np.take(w if w.shape == x.shape else np.broadcast_to(w, x.shape), order), axis=-1)
    k = np.argmax(cw >= p * cw[:, -1:], axis=-1)
    return np.take(x, order.flat[k + starts]).reshape(x.shape[:-1])


def _tilted_moments(u: np.ndarray, d: np.ndarray, w, top: int):
    """Tilted means sum(w u d^k) / sum(w u), k = 1..top, and the mass sum(w u)
    of the tilt ``u`` (overwritten): scalars on (n,) nodes, columns on rows."""
    full, keep = isinstance(w, np.ndarray) and w.shape[-1] > 1, u.ndim > 1
    if full:
        u *= w
    total, means = np.add.reduce(u, axis=-1, keepdims=keep), []
    for _ in range(top):
        u *= d
        means.append(np.add.reduce(u, axis=-1, keepdims=keep) / total)
    return means, (total if full else total * w)


class _NormalKind(Family):
    """Shared machinery for the three normal parameterizations.

    ``_free`` lists the coordinates of (mu, sigma) that a kind estimates;
    the submodels fix the other one at mu = 0 or sigma = 1.  The model
    centre of a sample is its mean when mu is free and 0 otherwise; the
    MLE scale is the spread about it; the search box is about the MLE.
    """

    support = (-math.inf, math.inf)
    _free: tuple[int, ...] = (0, 1)

    def _loc_scale(self, theta):
        """(mu, sigma) of a validated parameter, as ``_columns`` gives them."""
        full = [0.0, 1.0] if theta.ndim == 1 else [np.zeros((len(theta), 1)), np.ones((len(theta), 1))]
        for i, value in zip(self._free, _columns(theta)):
            full[i] = value
        return full[0], full[1]

    def _nodes(self, x):
        return np.asarray(x, dtype=float)

    def _standardize(self, theta, y):
        """z = (x - mu) / sigma, and sigma."""
        mu, sigma = self._loc_scale(theta)
        return (y - mu) / sigma, sigma

    def _log_density(self, standard):
        """-z^2 / 2 - log sigma - log(2 pi) / 2, each operation in place."""
        z, sigma = standard
        out = -0.5 * z
        out *= z
        out -= np.log(sigma)
        out -= 0.5 * _LOG_2PI
        return out

    def _score_at(self, standard):
        z, sigma = standard
        cols = [z / sigma if i == 0 else z * z for i in self._free]
        if 1 in self._free:
            # (z^2 - 1) / sigma, in place
            cols[-1] -= 1.0
            cols[-1] /= sigma
        return cols

    def score_deriv(self, theta, x):
        mu, sigma = self._loc_scale(self.validate_param(theta))
        d = np.asarray(x, dtype=float) - mu
        s2 = sigma * sigma
        d_mu_mu = np.broadcast_to(-1.0 / s2, d.shape)
        d_mu_sigma = -2.0 * d / sigma**3
        d_sigma_sigma = -3.0 * d * d / sigma**4 + 1.0 / s2
        row1 = np.stack([d_mu_mu, d_mu_sigma], axis=-1)
        row2 = np.stack([d_mu_sigma, d_sigma_sigma], axis=-1)
        full = np.stack([row1, row2], axis=-2)
        return np.take(np.take(full, self._free, axis=-1), self._free, axis=-2)

    def mle_parameter(self, nodes, weights) -> np.ndarray:
        x, w = np.asarray(nodes, dtype=float), np.asarray(weights, dtype=float)
        mu = (w * x).sum(axis=-1) if 0 in self._free else np.zeros(x.shape[:-1])
        if 1 not in self._free:
            return mu[..., None]
        var = (w * np.square(x - mu[..., None])).sum(axis=-1)
        # equal nodes whose weighted mean is inexact leave var ~ 1e-32, not 0
        if (var <= 0.0).any() or (0 in self._free and (x == x[..., :1]).all(axis=-1).any()):
            raise DegenerateDataError("sample has zero spread; scale estimate degenerates")
        return np.array([(mu, np.sqrt(var))[i] for i in self._free]).T

    def default_bounds(self, nodes, weights):
        """mu within the sample's range widened by ten interquartile ranges
        (by the MLE's |mu|, at least 1, where the IQR is 0); sigma within
        (1e-3, 10) times the MLE's."""
        theta, box = self.mle_parameter(nodes, weights).tolist(), []
        if 0 in self._free:
            row = np.asarray(nodes)[None], np.asarray(weights)[None]
            iqr = float(_row_quantile(*row, 0.75)[0]) - float(_row_quantile(*row, 0.25)[0])
            iqr = iqr if iqr > 0.0 else max(abs(theta[0]), 1.0)
            box.append((float(np.min(nodes)) - 10.0 * iqr, float(np.max(nodes)) + 10.0 * iqr))
        if 1 in self._free:
            box.append((1e-3 * theta[-1], 10.0 * theta[-1]))
        return tuple(box)

    def _moment_start(self, x, w):
        """Median and scaled MAD of the nodes or of each row; no start (NaN)
        where the MAD is 0."""
        mu = _row_quantile(x, w, 0.5) if 0 in self._free else np.zeros(x.shape[:-1])
        if 1 not in self._free:
            return mu[..., None], x
        # about a fixed mu = 0 the deviations are |x| itself
        sigma = _MAD_SCALE * _row_quantile(np.abs(x - mu[..., None] if 0 in self._free else x), w, 0.5)
        sigma = np.where(sigma > 0.0, sigma, math.nan)
        return np.array([(mu, sigma)[i] for i in self._free]).T, x

    def _moment_update(self, kind, a, y, w, theta):
        """Newton step on theta = F(theta), the weighted-moment equations of
        Fujisawa & Eguchi (2008): with d = x - mu, u = exp(-a z^2 / 2) and e_k
        = E_v[d^k] for v ~ w u, F is mu + e_1 and sigma = sqrt(V / D), V = e_2
        - e_1^2, D = 1 / (1 + a) (Renyi) or 1 - a (1 + a)^-1.5 / sum(w u).  As
        de_k/dmu = h (e_{k+1} - e_k e_1) - k e_{k-1} and de_k/dsigma = h
        (e_{k+2} - e_k e_2) / sigma, h = a / sigma^2, dF is closed-form."""
        loc, scale = 0 in self._free, 1 in self._free
        # floats, or (R, 1) columns; a fixed mu = 0 or sigma = 1 is a float
        cols = _columns(theta)
        mu, sigma = cols[0] if loc else 0.0, cols[-1] if scale else 1.0
        d = y - mu if loc else y
        # a z^2 / 2 as (d sqrt(a / 2) / sigma)^2, less its row's least value
        u = d * (math.sqrt(0.5 * a) / sigma)
        np.square(u, out=u)
        low = u.min(axis=-1, keepdims=u.ndim > 1)
        np.exp(np.subtract(low, u, out=u), out=u)
        # e_1..e_4, e_1 and e_2 (normal-loc), or e_2 and e_4 (normal-scale)
        e, mass = _tilted_moments(u, d if loc else d * d, w, 4 if loc and scale else 2)
        e1, e2, e3, e4 = e if loc and scale else [*e, 0.0, 0.0] if loc else [0.0, e[0], 0.0, e[1]]
        # sigma^2 may underflow to 0 on one parameter (floats): inf, not ZeroDivisionError
        h = np.divide(a, sigma * sigma)
        # F - theta and I - dF/dtheta
        if loc:
            f1, j11 = e1, 1.0 - h * (e2 - e1 * e1)
        if scale:
            # the mass, like the sums, is scaled by e^low; Renyi's c is 0 and
            # normal-scale's e_1 and e_3 are 0, so their terms are left out
            c = 0.0 if kind == "renyi" else a * (1.0 + a) ** -1.5 * np.exp(low) / mass
            D = (1.0 / (1.0 + a) if kind == "renyi" else 1.0) - c
            V = e2 - e1 * e1 if loc else e2
            s = np.sqrt(V / D)
            f2 = s - sigma
            dV = (e4 - e2 * e2 - 2.0 * e1 * (e3 - e1 * e2) if loc else e4 - e2 * e2) / V
            j22 = 1.0 - 0.5 * s * h / sigma * (dV if kind == "renyi" else dV - c * e2 / D)
        if loc and scale:
            j12 = -h / sigma * (e3 - e1 * e2)
            j21 = -0.5 * s * h * ((e3 - 3.0 * e1 * e2 + 2.0 * np.power(e1, 3)) / V - c * e1 / D)
            det = j11 * j22 - j12 * j21
            n1, n2 = (j22 * f1 - j12 * f2) / det, (j11 * f2 - j21 * f1) / det
            # Newton where I - dF/dtheta keeps the step on the map's side
            newton = (det > 0.0) & (n1 * f1 + n2 * f2 > 0.0)
            steps = [_where(newton, n1, f1), _where(newton, n2, f2)]
        else:
            f, j = (f1, j11) if loc else (f2, j22)
            newton = j > 0.0
            steps = [f / _where(newton, j, 1.0)]
        new = [c + s for c, s in zip(cols, steps)]
        size = np.maximum(*[abs(n - c) for n, c in zip(new, cols)]) if loc and scale else abs(new[0] - cols[0])
        if scale:
            size /= new[-1]
        step = _where(newton, size, math.inf)
        return _stack(new, theta), step[:, 0] if theta.ndim > 1 else step

    def _window(self, theta) -> tuple[float, float]:
        mu, sigma = self._loc_scale(theta)
        return mu - _NORMAL_WINDOW * sigma, mu + _NORMAL_WINDOW * sigma

    def _power_product(self, theta, other, e: float, c: float):
        """A normal of precision k / sigma^2 and mean mu + z sigma, with b = 1 +
        e - c, r = (sigma / sigma_o)^2, k = b + c r, u = (mu_o - mu) / sigma and
        z = c r u / k: the integral is (sigma / sigma_o)^c exp(-b u z / 2) /
        (sqrt(k) (2 pi sigma^2)^(e/2)), the score's mean (z, z^2 + 1/k - 1) / sigma."""
        mu, sigma = self._loc_scale(theta)
        b = k = 1.0 + e - c
        if c:
            mu_o, sigma_o = self._loc_scale(other)
            try:  # a float's ** raises OverflowError where numpy gives inf
                r, u = (sigma / sigma_o) ** 2, (mu_o - mu) / sigma
            except OverflowError:
                raise DomainError(f"the ratio of scales ({sigma}, {sigma_o}) squared overflows") from None
            if (k := b + c * r) <= 0.0:
                raise DomainError(f"no normal is p_theta^{b!r} p_other^{c!r} at scales ({sigma}, {sigma_o})")
            z = c * r * u / k
            log_norm = math.log(k) + b * u * z + e * math.log(2.0 * math.pi * sigma * sigma)
            mass = math.exp(c * math.log(sigma / sigma_o) - 0.5 * log_norm)
            # 1/k - 1 as -(e + c (r - 1)) / k, exact where theta is other at e = 0
            means = (z / sigma, (z * z - (e + c * (r - 1.0)) / k) / sigma)
        else:
            mass = k**-0.5 / np.power(2.0 * math.pi * np.square(sigma), e / 2.0)
            # z = 0 and 1/k - 1 = -e/k; the location mean 0 is signed as the scale mean
            means = ((t := -e / (sigma * k)) * 0.0, t)
        return mass, _stack([means[i] for i in self._free], theta)

    def _power_divergence(self, theta, other, a: float) -> float:
        """``_power_product``'s log R at e = 0, c = 1 - a, from the relative
        gaps q = (sigma - sigma_o) / sigma_o, g = q (2 + q) = r - 1 and u = (mu
        - mu_o) / sigma_o: c log1p(q) - (log1p(c g) + a c u^2 / k) / 2, with
        k = 1 + c g and log1p(q) = log(sigma / sigma_o)."""
        (mu, sigma), (mu_o, sigma_o) = self._loc_scale(theta), self._loc_scale(other)
        q, u = (sigma - sigma_o) / sigma_o, (mu - mu_o) / sigma_o
        if math.isinf(g := q * (2.0 + q)):
            raise DomainError(f"the ratio of scales ({sigma}, {sigma_o}) squared overflows")
        # log1p keeps the digits of a small gap, two logs those of a wide one,
        # where q may round to -1
        log_ratio = math.log1p(q) if q > -0.5 else math.log(sigma) - math.log(sigma_o)
        if a == 1.0:
            return (g + u * u) / 2.0 - log_ratio
        if (k := 1.0 + (c := 1.0 - a) * g) <= 0.0:
            return math.inf
        return math.expm1(c * log_ratio - (math.log1p(c * g) + a * c * u * u / k) / 2.0) / (a * (a - 1.0))

    def sample(self, theta, n: int, rng: np.random.Generator) -> np.ndarray:
        n = check_count("sample size", n, 1)
        mu, sigma = self._loc_scale(self.validate_param(theta))
        return mu + sigma * rng.standard_normal(n)

    def integration_grid(self, thetas, node_count: int = _GRID_N):
        windows = [self._window(self.validate_param(t)) for t in thetas]
        lo = min(w[0] for w in windows)
        hi = max(w[1] for w in windows)
        return _gauss_nodes(lo, hi, node_count)


class NormalLocScale(_NormalKind):
    """Normal model with free location and scale, theta = (mu, sigma)."""

    name = "normal"
    param_dim = 2
    param_names = ("mu", "sigma")
    _positive = "scale"


class NormalLocation(_NormalKind):
    """Normal location submodel with unit scale, theta = (mu,)."""

    name = "normal-loc"
    param_dim = 1
    param_names = ("mu",)
    _free = (0,)


class NormalScale(_NormalKind):
    """Normal scale submodel centered at zero, theta = (sigma,)."""

    name = "normal-scale"
    param_dim = 1
    param_names = ("sigma",)
    _free = (1,)
    _positive = "scale"


def _pareto_support(x) -> np.ndarray:
    xs = np.asarray(x, dtype=float)
    if (xs < 1.0).any():
        raise DomainError("observations must lie in the support [1, inf)")
    return xs


class Pareto(Family):
    """Pareto shape model on [1, inf), theta = (shape,)."""

    name = "pareto"
    param_dim = 1
    param_names = ("theta",)
    support = (1.0, math.inf)
    _positive = "shape"

    def _nodes(self, x):
        """log x, on the support."""
        return np.log(_pareto_support(x))

    def _standardize(self, theta, y):
        """log x, and the shape."""
        (shape,) = _columns(theta)
        return y, shape

    def _log_density(self, standard):
        """log theta - (theta + 1) log x, as log theta + -(theta + 1) log x in
        place: the same bits."""
        y, shape = standard
        out = -(shape + 1.0) * y
        out += np.log(shape)
        return out

    def _score_at(self, standard):
        y, shape = standard
        return [1.0 / shape - y]

    def score_deriv(self, theta, x):
        shape = float(self.validate_param(theta)[0])
        xs = _pareto_support(x)
        return np.broadcast_to(-1.0 / shape**2, xs.shape + (1, 1)).copy()

    def _power_product(self, theta, other, e: float, c: float):
        """A Pareto of shape s = (1 + e - c) theta + c theta_o + e: the integral
        is theta^(1+e-c) theta_o^c / s, the score's mean 1 / theta - 1 / s."""
        (shape,) = _columns(theta)
        b = 1.0 + e - c
        if c:
            (shape_o,) = other.tolist()
            if (s := b * shape + e + c * shape_o) <= 0.0:
                raise DomainError(f"no Pareto is p_theta^{b!r} p_other^{c!r} at shapes ({shape}, {shape_o})")
            mass = shape**b * shape_o**c / s
        else:
            mass = np.power(shape, b) / (s := b * shape + e)
        return mass, _stack([1.0 / shape - 1.0 / s], theta)

    def _power_divergence(self, theta, other, a: float) -> float:
        """``_power_product``'s log R at e = 0, c = 1 - a, from the relative
        gap d = (theta - theta_o) / theta_o: a log1p(d) - log1p(a d)."""
        (shape,), (shape_o,) = theta.tolist(), other.tolist()
        if math.isinf(d := (shape - shape_o) / shape_o):
            raise DomainError(f"the ratio of shapes ({shape}, {shape_o}) overflows")
        # as on the normal kinds, and d / (1 + d) with one rounding
        log_ratio = math.log1p(d) if d > -0.5 else math.log(shape) - math.log(shape_o)
        if a == 1.0:
            return log_ratio - (shape - shape_o) / shape
        if 1.0 + a * d <= 0.0:
            return math.inf
        return math.expm1(a * log_ratio - math.log1p(a * d)) / (a * (a - 1.0))

    def sample(self, theta, n: int, rng: np.random.Generator) -> np.ndarray:
        n = check_count("sample size", n, 1)
        sh = float(self.validate_param(theta)[0])
        u = 1.0 - rng.random(n)  # uniform on (0, 1]
        return u ** (-1.0 / sh)

    def integration_grid(self, thetas, node_count: int = _GRID_N):
        shape = min(float(self.validate_param(t)[0]) for t in thetas)
        # e^u of a wider window passes the largest float
        if shape < (least := _PARETO_LOG_SPAN / math.log(np.finfo(float).max)):
            raise DomainError(f"Pareto shape {shape!r} is below {least:.6g}, the least shape whose grid is finite")
        u_max = _PARETO_LOG_SPAN / shape
        # Substitution u = ln x turns dx into e^u du on a finite window.
        u, w = _gauss_nodes(0.0, u_max, node_count)
        x = np.exp(u)
        return x, w * x

    def mle_parameter(self, nodes, weights) -> np.ndarray:
        mean_log = (np.asarray(weights, dtype=float) * np.log(_pareto_support(nodes))).sum(axis=-1)
        if (mean_log <= 0.0).any():
            raise DegenerateDataError(
                "all observations sit on the support boundary; shape estimate degenerates"
            )
        return (1.0 / mean_log)[..., None]

    def default_bounds(self, nodes, weights):
        (shape,) = self.mle_parameter(nodes, weights).tolist()
        return ((shape / 100.0, shape * 100.0),)

    def _moment_start(self, x, w):
        """ln 2 over the weighted median of log x: the shape whose median is
        the sample's.  A row with mass at x = 1 gets no start: as p(1) =
        theta, its criteria can fall without bound as the shape grows, so a
        fixed point there could only find a local minimum."""
        y = np.log(x)
        shape = np.where((y > 0.0).all(axis=-1), math.log(2.0) / _row_quantile(y, w, 0.5), math.nan)
        return shape[..., None], y

    def _moment_update(self, kind, a, y, w, theta):
        """Newton step on theta = F(theta), the weighted-moment equation on y =
        log x: with u = p^a / theta^a, e_k = E_v[y^k] for v ~ w u and r = 1 /
        ((1 + a) theta + a), F is (1 / e_1 - a) / (1 + a) (Renyi; Fujisawa &
        Eguchi 2008) or 1 / (e_1 + (theta + 1) a r^2 / sum(w u)) (power-pseudo);
        de_1/dtheta = -a (e_2 - e_1^2)."""
        (shape,) = _columns(theta)
        u = (-a * (shape + 1.0)) * y
        shift = u.max(axis=-1, keepdims=u.ndim > 1)
        u -= shift
        np.exp(u, out=u)
        (e1, e2), mass = _tilted_moments(u, y, w, 2)
        b = 1.0 + a
        if kind == "renyi":
            f, df = (1.0 / e1 - a) / b, a * (e2 - e1 * e1) / (b * e1 * e1)
        else:
            # a r^2 / sum(w u): the mass, like the sums, is scaled by e^-shift
            k = a * np.exp(-shift) / (mass * np.square(b * shape + a))
            f = 1.0 / (e1 + (shape + 1.0) * k)
            df = f * f * (a * (e2 - e1 / f) + (b * shape + a + 2.0) / (b * shape + a) * k)
        # Newton where 1 - dF/dtheta keeps the step on the map's side; a row
        # whose map point leaves the space (Renyi: e_1 > 1 / a) stops
        newton = df < 1.0
        new = shape + (f - shape) / _where(newton, 1.0 - df, 1.0)
        step = _where(f > 0.0, _where(newton, abs(new - shape) / new, math.inf), math.nan)
        return _stack([new], theta), step[:, 0] if theta.ndim > 1 else step


NORMAL = NormalLocScale()
NORMAL_LOCATION = NormalLocation()
NORMAL_SCALE = NormalScale()
PARETO = Pareto()

FAMILIES: dict[str, Family] = {
    f.name: f for f in (NORMAL, NORMAL_LOCATION, NORMAL_SCALE, PARETO)
}


def get_family(name: str) -> Family:
    try:
        return FAMILIES[name]
    except KeyError:
        known = ", ".join(sorted(FAMILIES))
        raise InvalidInputError(f"unknown family {name!r}; choose one of: {known}") from None
