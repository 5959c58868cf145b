"""Parametric model families over the real line.

Four families are provided: the full normal location-scale model, its
location and scale submodels, and the unit-threshold Pareto shape model.
Each family exposes densities, scores, score derivatives, sampling, and the
closed-form power integrals the estimators are built on.  The methods the
tilted estimating equations use also take parameter rows, (R, d) theta
against (R, n) nodes: row j is the result of theta[j] on nodes[j], bit for
bit, because one parameter and rows run the same numpy ufuncs (``np.log``,
``np.power``, ``np.square``; Python's ``math.log`` and ``**`` round
differently).  The submodels are
distinct kinds with their own parameter vectors, but their scores, score
derivatives, tilted score means, MLEs and search boxes are those of the
full normal model restricted to the free coordinates of (mu, sigma).

Family objects are stateless and immutable; sampling takes an explicit
generator owned by the caller, so concurrent use is safe.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import DegenerateDataError, DomainError, InvalidInputError

_LOG_2PI = math.log(2.0 * math.pi)

# Normal quadrature window: mu +/- 10 sigma leaves tail mass < 1e-22.
_NORMAL_WINDOW = 10.0
# Pareto log-grid span: u in [0, 30/theta] leaves tail mass < 1e-12.
_PARETO_LOG_SPAN = 30.0
# Default node count of model-side quadrature grids.
_GRID_N = 512


@lru_cache(maxsize=32)
def _leggauss(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def _gauss_nodes(lo: float, hi: float, n: int):
    x, w = _leggauss(int(n))
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    return mid + half * x, half * w


def _as_param(theta, dim: int, positive: str) -> np.ndarray:
    """Finite (dim,) parameter or (R, dim) rows; the last component, if named, is positive."""
    arr = np.atleast_1d(np.asarray(theta, dtype=float))
    if arr.ndim > 2 or arr.shape[-1] != dim:
        raise InvalidInputError(f"parameter must have {dim} component(s), got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise InvalidInputError(f"parameter must be finite, got {arr!r}")
    last = arr.T[-1]
    # one parameter compares as a numpy scalar, far cheaper than a reduction
    if positive and (last <= 0.0 if arr.ndim == 1 else (last <= 0.0).any()):
        raise InvalidInputError(f"{positive} must be positive, got {last.min()}")
    return arr


def _columns(theta: np.ndarray) -> list:
    """Components of a parameter as floats, or of rows as (R, 1) columns."""
    return theta.tolist() if theta.ndim == 1 else list(theta.T[..., None])


class Family:
    """Base class for parametric model descriptors."""

    name: str = ""
    param_dim: int = 1
    param_names: tuple[str, ...] = ()
    support: tuple[float, float] = (-math.inf, math.inf)

    def validate_param(self, theta) -> np.ndarray:
        """Checked parameter of shape (d,), or parameter rows of shape (R, d)."""
        raise NotImplementedError

    def log_density(self, theta, x):
        raise NotImplementedError

    def density(self, theta, x):
        out = np.exp(self.log_density(theta, x))
        return out

    def score(self, theta, x):
        """Score vector; shape ``x.shape + (param_dim,)``."""
        raise NotImplementedError

    def score_deriv(self, theta, x):
        """Jacobian of the score; shape ``x.shape + (param_dim, param_dim)``."""
        raise NotImplementedError

    def power_ratio_integral(self, theta, theta_tilde, alpha: float) -> float:
        """Closed form of the tilted-ratio expectation under the second member."""
        raise NotImplementedError

    def power_mass_integral(self, theta, alpha: float):
        """Closed form of the integral of the density raised to ``1 + alpha``."""
        raise NotImplementedError

    def renyi_normalizer(self, theta, alpha: float):
        """Normalizer ``power_mass_integral ** (alpha / (1 + alpha))``."""
        a = float(alpha)
        return np.power(self.power_mass_integral(theta, a), a / (1.0 + a))

    def weighted_score_mean(self, theta, alpha: float):
        """Mean of the score under the power-tilted density, closed form."""
        raise NotImplementedError

    def sample(self, theta, n: int, rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError

    def integration_grid(self, thetas, node_count: int = _GRID_N):
        """Nodes and base-measure weights covering the mass of every member
        in ``thetas``; ``sum(w * g(x))`` approximates the Lebesgue integral
        of ``g``."""
        raise NotImplementedError

    def mle_parameter(self, nodes, weights) -> np.ndarray:
        """Closed-form maximum-likelihood parameter for a weighted sample."""
        raise NotImplementedError

    def default_bounds(self, nodes, weights) -> tuple[tuple[float, float], ...]:
        """Search box for bounded optimization, derived from the sample."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<family {self.name}>"


def _row_quantile(x: np.ndarray, w: np.ndarray, p: float) -> np.ndarray:
    """Weighted ``p``-quantile of each row of (R, n) nodes and weights: the
    first sorted node whose cumulative weight reaches ``p`` of the row's mass."""
    order = np.argsort(x, axis=1)
    cw = np.cumsum(np.take_along_axis(w, order, axis=1), axis=1)
    k = np.argmax(cw >= p * cw[:, -1:], axis=1)
    return np.take_along_axis(x, np.take_along_axis(order, k[:, None], axis=1), axis=1)[:, 0]


def _weighted_quantile(nodes, weights, p: float) -> float:
    return float(_row_quantile(np.asarray(nodes)[None], np.asarray(weights)[None], p)[0])


def _location_bounds(nodes, weights) -> tuple[float, float]:
    xmin = float(np.min(nodes))
    xmax = float(np.max(nodes))
    iqr = _weighted_quantile(nodes, weights, 0.75) - _weighted_quantile(nodes, weights, 0.25)
    if iqr <= 0.0:
        mean = float(weights @ nodes)
        iqr = max(abs(mean), 1.0)
    return xmin - 10.0 * iqr, xmax + 10.0 * iqr


def _scale_bounds(nodes, weights, centre: float) -> tuple[float, float]:
    var = float(weights @ (np.asarray(nodes) - centre) ** 2)
    sd = math.sqrt(max(var, 0.0))
    if sd <= 0.0:
        # Single-point or constant samples: fall back to the magnitude scale
        # so the box stays nondegenerate.
        sd = max(abs(centre), 1.0)
    return 1e-3 * sd, 10.0 * sd


class _NormalKind(Family):
    """Shared machinery for the three normal parameterizations.

    ``_free`` lists the coordinates of (mu, sigma) that a kind estimates;
    the submodels fix the other one at mu = 0 or sigma = 1.  The model
    centre of a sample is its mean when mu is free and 0 otherwise; the
    MLE scale and the scale search box are both spreads about it.
    """

    support = (-math.inf, math.inf)
    _free: tuple[int, ...] = (0, 1)

    def validate_param(self, theta) -> np.ndarray:
        # sigma, when free, is the last coordinate
        return _as_param(theta, self.param_dim, "scale" if self._free[-1] == 1 else "")

    def _loc_scale(self, theta):
        """(mu, sigma) of a validated parameter, as ``_columns`` gives them."""
        full = [0.0, 1.0] if theta.ndim == 1 else [np.zeros((len(theta), 1)), np.ones((len(theta), 1))]
        for i, value in zip(self._free, _columns(theta)):
            full[i] = value
        return full[0], full[1]

    def score(self, theta, x):
        mu, sigma = self._loc_scale(self.validate_param(theta))
        z = (np.asarray(x, dtype=float) - mu) / sigma
        full = np.stack([z / sigma, (z * z - 1.0) / sigma], axis=-1)
        # np.take keeps the C layout of the stack; fancy indexing would
        # return a Fortran-ordered copy and change the summation order.
        return np.take(full, self._free, axis=-1)

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

    def weighted_score_mean(self, theta, alpha: float):
        _, sigma = self._loc_scale(self.validate_param(theta))
        a = float(alpha)
        # (0, tilt): the tilted mean of the location score is zero
        return np.take(-a / (sigma * (1.0 + a)) * np.array([0.0, 1.0]), self._free, axis=-1)

    def _centre(self, nodes, weights) -> float:
        return float(weights @ nodes) if 0 in self._free else 0.0

    def mle_parameter(self, nodes, weights) -> np.ndarray:
        full = [self._centre(nodes, weights), 1.0]
        if 1 in self._free:
            var = float(weights @ (np.asarray(nodes) - full[0]) ** 2)
            if var <= 0.0:
                raise DegenerateDataError("sample has zero spread; scale estimate degenerates")
            full[1] = math.sqrt(var)
        return np.array([full[i] for i in self._free])

    def default_bounds(self, nodes, weights):
        box = []
        if 0 in self._free:
            box.append(_location_bounds(nodes, weights))
        if 1 in self._free:
            box.append(_scale_bounds(nodes, weights, self._centre(nodes, weights)))
        return tuple(box)

    def _window(self, theta) -> tuple[float, float]:
        mu, sigma = self._loc_scale(theta)
        return mu - _NORMAL_WINDOW * sigma, mu + _NORMAL_WINDOW * sigma

    def log_density(self, theta, x):
        mu, sigma = self._loc_scale(self.validate_param(theta))
        xs = np.asarray(x, dtype=float)
        z = (xs - mu) / sigma
        out = -0.5 * z * z - np.log(sigma) - 0.5 * _LOG_2PI
        return float(out) if np.ndim(x) == 0 else out

    def power_ratio_integral(self, theta, theta_tilde, alpha: float) -> float:
        mu, sigma = self._loc_scale(self.validate_param(theta))
        mu_t, sigma_t = self._loc_scale(self.validate_param(theta_tilde))
        a = float(alpha)
        v = a * sigma_t**2 + (1.0 - a) * sigma**2
        if v <= 0.0:
            raise DomainError(
                f"alpha={alpha!r} is outside the valid range for scales "
                f"({sigma}, {sigma_t}): mixed variance is nonpositive"
            )
        log_value = (
            -a * (1.0 - a) * (mu - mu_t) ** 2 / (2.0 * v)
            - 0.5 * math.log(v)
            + a * math.log(sigma_t)
            + (1.0 - a) * math.log(sigma)
        )
        return math.exp(log_value)

    def power_mass_integral(self, theta, alpha: float):
        theta = self.validate_param(theta)
        _, sigma = self._loc_scale(theta)
        a = float(alpha)
        if a < 0.0:
            raise DomainError(f"order alpha must be nonnegative, got {alpha!r}")
        mass = (1.0 + a) ** -0.5 / np.power(2.0 * math.pi * np.square(sigma), a / 2.0)
        return mass if theta.ndim == 1 else mass[:, 0]

    def sample(self, theta, n: int, rng: np.random.Generator) -> np.ndarray:
        if n < 1:
            raise InvalidInputError(f"sample size must be >= 1, got {n}")
        mu, sigma = self._loc_scale(self.validate_param(theta))
        return mu + sigma * rng.standard_normal(int(n))

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


def _pareto_support(x) -> np.ndarray:
    xs = np.asarray(x, dtype=float)
    if np.any(xs < 1.0):
        raise DomainError("observations must lie in the support [1, inf)")
    return xs


class Pareto(Family):
    """Pareto shape model on [1, inf), theta = (shape,)."""

    name = "pareto"
    param_dim = 1
    param_names = ("theta",)
    support = (1.0, math.inf)

    def validate_param(self, theta) -> np.ndarray:
        return _as_param(theta, 1, "shape")

    def log_density(self, theta, x):
        (shape,) = _columns(self.validate_param(theta))
        xs = _pareto_support(x)
        out = np.log(shape) - (shape + 1.0) * np.log(xs)
        return float(out) if np.ndim(x) == 0 else out

    def score(self, theta, x):
        (shape,) = _columns(self.validate_param(theta))
        return np.stack([1.0 / shape - np.log(_pareto_support(x))], axis=-1)

    def score_deriv(self, theta, x):
        shape = float(self.validate_param(theta)[0])
        xs = _pareto_support(x)
        return np.broadcast_to(-1.0 / shape**2, xs.shape + (1, 1)).copy()

    def power_ratio_integral(self, theta, theta_tilde, alpha: float) -> float:
        sh = float(self.validate_param(theta)[0])
        sh_t = float(self.validate_param(theta_tilde)[0])
        a = float(alpha)
        denom = a * sh + (1.0 - a) * sh_t
        if denom <= 0.0:
            raise DomainError(
                f"alpha={alpha!r} is outside the valid range for shapes ({sh}, {sh_t})"
            )
        return sh**a * sh_t ** (1.0 - a) / denom

    def power_mass_integral(self, theta, alpha: float):
        theta = self.validate_param(theta)
        (shape,) = _columns(theta)
        a = float(alpha)
        if a < 0.0:
            raise DomainError(f"order alpha must be nonnegative, got {alpha!r}")
        mass = np.power(shape, 1.0 + a) / (shape * (1.0 + a) + a)
        return mass if theta.ndim == 1 else mass[:, 0]

    def weighted_score_mean(self, theta, alpha: float):
        theta = self.validate_param(theta)
        a = float(alpha)
        return 1.0 / theta - 1.0 / (theta * (1.0 + a) + a)

    def sample(self, theta, n: int, rng: np.random.Generator) -> np.ndarray:
        if n < 1:
            raise InvalidInputError(f"sample size must be >= 1, got {n}")
        sh = float(self.validate_param(theta)[0])
        u = 1.0 - rng.random(int(n))  # uniform on (0, 1]
        return u ** (-1.0 / sh)

    def integration_grid(self, thetas, node_count: int = _GRID_N):
        shapes = [float(self.validate_param(t)[0]) for t in thetas]
        u_max = _PARETO_LOG_SPAN / min(shapes)
        # Substitution u = ln x turns dx into e^u du on a finite window.
        u, w = _gauss_nodes(0.0, u_max, node_count)
        x = np.exp(u)
        return x, w * x

    def mle_parameter(self, nodes, weights) -> np.ndarray:
        mean_log = float(weights @ np.log(_pareto_support(nodes)))
        if mean_log <= 0.0:
            raise DegenerateDataError(
                "all observations sit on the support boundary; shape estimate degenerates"
            )
        return np.array([1.0 / mean_log])

    def default_bounds(self, nodes, weights):
        mean_log = float(weights @ np.log(_pareto_support(nodes)))
        if mean_log > 0.0:
            center = 1.0 / mean_log
            return ((center / 100.0, center * 100.0),)
        return ((1e-3, 1e3),)


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
