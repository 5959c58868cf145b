"""Tests for the parametric families: densities, scores, closed-form
integrals against independent quadrature oracles, and sampling."""

import math

import numpy as np
import pytest
from scipy.integrate import quad as scipy_quad

from mindiv import (
    DegenerateDataError,
    DomainError,
    InvalidInputError,
    NORMAL,
    NORMAL_LOCATION,
    NORMAL_SCALE,
    PARETO,
    get_family,
    quadrature_of,
)

ALL_FAMILIES = [
    (NORMAL, np.array([0.4, 1.3])),
    (NORMAL_LOCATION, np.array([0.7])),
    (NORMAL_SCALE, np.array([1.6])),
    (PARETO, np.array([2.0])),
]


def _lambda_integral(family, integrand, thetas):
    """Independent adaptive-quadrature oracle over the family support."""
    if family is PARETO:
        lo, hi = 1.0 + 1e-12, math.exp(34.0 / min(float(t[0]) for t in thetas))
        # integrate in log space for stability
        return scipy_quad(
            lambda u: integrand(math.exp(u)) * math.exp(u),
            0.0,
            math.log(hi),
            limit=400,
        )[0]
    span = max(abs(float(np.atleast_1d(t)[0])) + 12.0 * _sigma_of(family, t) for t in thetas)
    return scipy_quad(integrand, -span, span, limit=400)[0]


def _sigma_of(family, theta):
    theta = np.atleast_1d(theta)
    if family is NORMAL:
        return float(theta[1])
    if family is NORMAL_SCALE:
        return float(theta[0])
    return 1.0


class TestDensity:
    def test_standard_normal_at_zero(self):
        assert NORMAL.density([0.0, 1.0], 0.0) == pytest.approx(1.0 / math.sqrt(2 * math.pi), rel=1e-14)

    def test_pareto_values(self):
        assert PARETO.density([2.0], 2.0) == pytest.approx(0.25, rel=1e-14)

    @pytest.mark.parametrize("method", ["density", "log_density", "score", "score_deriv"])
    def test_pareto_support(self, method):
        with pytest.raises(DomainError):
            getattr(PARETO, method)([2.0], 0.5)

    @pytest.mark.parametrize("family,theta", ALL_FAMILIES)
    def test_log_density_consistency(self, family, theta):
        xs = np.array([1.1, 1.9, 3.7]) if family is PARETO else np.linspace(-3, 3, 7)
        assert np.allclose(np.log(family.density(theta, xs)), family.log_density(theta, xs), rtol=1e-12)

    @pytest.mark.parametrize("family,theta", ALL_FAMILIES)
    def test_density_normalizes(self, family, theta):
        total = _lambda_integral(family, lambda x: family.density(theta, x), [theta])
        assert total == pytest.approx(1.0, abs=1e-9)


class TestScore:
    def test_location_score(self):
        assert NORMAL_LOCATION.score([0.0], 1.0)[0] == pytest.approx(1.0)

    def test_scale_score(self):
        assert NORMAL_SCALE.score([1.0], 1.0)[0] == pytest.approx(0.0)

    def test_pareto_score(self):
        assert PARETO.score([2.0], math.e)[0] == pytest.approx(-0.5, rel=1e-14)

    def test_loc_scale_score_vector(self):
        s = NORMAL.score([0.0, 2.0], 2.0)
        assert s.shape == (2,)
        assert s[0] == pytest.approx(0.5)
        assert s[1] == pytest.approx(0.0)

    @pytest.mark.parametrize("family,theta", ALL_FAMILIES)
    def test_mean_zero_under_model(self, family, theta):
        q = quadrature_of(family, theta, 512)
        s = family.score(theta, q.nodes)
        mean = q.weights @ s
        assert np.all(np.abs(mean) < 1e-8)

    @pytest.mark.parametrize(
        "family,theta,full_theta,free",
        [(NORMAL_LOCATION, [0.7], [0.7, 1.0], [0]), (NORMAL_SCALE, [1.6], [0.0, 1.6], [1])],
    )
    def test_submodels_restrict_full_normal(self, family, theta, full_theta, free):
        xs = np.linspace(-3.0, 3.0, 7)
        assert np.array_equal(family.score(theta, xs), NORMAL.score(full_theta, xs)[:, free])
        full_deriv = NORMAL.score_deriv(full_theta, xs)
        assert np.array_equal(family.score_deriv(theta, xs), full_deriv[:, free][:, :, free])
        for alpha in (0.0, 0.5, 2.0):
            full_mean = NORMAL.weighted_score_mean(full_theta, alpha)
            assert np.array_equal(family.weighted_score_mean(theta, alpha), full_mean[free])

    @pytest.mark.parametrize("family,theta", ALL_FAMILIES)
    def test_score_deriv_matches_finite_differences(self, family, theta):
        xs = np.array([1.3, 2.4, 6.0]) if family is PARETO else np.array([-2.0, 0.3, 1.7])
        h = 1e-6
        d = family.param_dim
        got = family.score_deriv(theta, xs)
        for j in range(d):
            up = np.array(theta, dtype=float)
            dn = np.array(theta, dtype=float)
            up[j] += h
            dn[j] -= h
            fd = (family.score(up, xs) - family.score(dn, xs)) / (2 * h)
            assert np.allclose(got[..., j], fd, atol=1e-6)


class TestPowerRatioIntegral:
    def test_identity_at_equal_parameters(self):
        for family, theta in ALL_FAMILIES:
            for alpha in (0.1, 0.5, 0.9):
                assert family.power_ratio_integral(theta, theta, alpha) == pytest.approx(1.0, rel=1e-14)

    def test_pareto_value(self):
        assert PARETO.power_ratio_integral([2.0], [1.0], 0.5) == pytest.approx(
            math.sqrt(2.0) / 1.5, rel=1e-14
        )

    def test_normal_location_value(self):
        assert NORMAL_LOCATION.power_ratio_integral([1.0], [0.0], 0.5) == pytest.approx(
            math.exp(-1.0 / 8.0), rel=1e-14
        )

    @pytest.mark.parametrize(
        "family,theta,tilde",
        [
            (NORMAL, np.array([0.0, 1.0]), np.array([1.0, 2.0])),
            (NORMAL, np.array([-1.0, 0.5]), np.array([0.7, 1.3])),
            (NORMAL_LOCATION, np.array([1.0]), np.array([-0.5])),
            (NORMAL_SCALE, np.array([1.0]), np.array([2.2])),
            (PARETO, np.array([2.0]), np.array([1.0])),
            (PARETO, np.array([0.8]), np.array([3.0])),
        ],
    )
    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
    def test_matches_quadrature(self, family, theta, tilde, alpha):
        integrand = lambda x: family.density(theta, x) ** alpha * family.density(tilde, x) ** (
            1.0 - alpha
        )
        oracle = _lambda_integral(family, integrand, [theta, tilde])
        assert family.power_ratio_integral(theta, tilde, alpha) == pytest.approx(oracle, rel=1e-8)

    def test_invalid_mixture_rejected(self):
        with pytest.raises(DomainError):
            NORMAL.power_ratio_integral([0.0, 1.0], [0.0, 0.5], 3.0)
        with pytest.raises(DomainError):
            PARETO.power_ratio_integral([2.0], [8.0], 2.0)


class TestPowerMassIntegral:
    def test_zero_order_total_mass(self):
        for family, theta in ALL_FAMILIES:
            assert family.power_mass_integral(theta, 0.0) == pytest.approx(1.0, rel=1e-14)

    def test_normal_unit_value(self):
        assert NORMAL.power_mass_integral([0.0, 1.0], 1.0) == pytest.approx(
            1.0 / (2.0 * math.sqrt(math.pi)), rel=1e-14
        )

    def test_pareto_unit_value(self):
        assert PARETO.power_mass_integral([1.0], 1.0) == pytest.approx(1.0 / 3.0, rel=1e-14)

    @pytest.mark.parametrize("family,theta", ALL_FAMILIES)
    @pytest.mark.parametrize("alpha", [0.25, 1.0, 2.0])
    def test_matches_quadrature(self, family, theta, alpha):
        integrand = lambda x: family.density(theta, x) ** (1.0 + alpha)
        oracle = _lambda_integral(family, integrand, [theta])
        assert family.power_mass_integral(theta, alpha) == pytest.approx(oracle, rel=1e-8)


class TestRenyiNormalizer:
    def test_unit_normal_value(self):
        want = (1.0 / (2.0 * math.sqrt(math.pi))) ** 0.5
        assert NORMAL.renyi_normalizer([0.0, 1.0], 1.0) == pytest.approx(want, rel=1e-14)

    def test_limit_at_zero_order(self):
        for family, theta in ALL_FAMILIES:
            assert family.renyi_normalizer(theta, 1e-12) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("alpha", [0.3, 1.0, 2.0])
    def test_two_normal_routes_agree(self, sigma, alpha):
        # direct power of the mass integral vs the explicit normal form
        got = NORMAL.renyi_normalizer([0.0, sigma], alpha)
        c_alpha = ((1.0 + alpha) * (2.0 * math.pi) ** alpha) ** (alpha / (2.0 * (1.0 + alpha)))
        want = sigma ** (-(alpha**2) / (1.0 + alpha)) / c_alpha
        assert got == pytest.approx(want, rel=1e-12)


class TestWeightedScoreMean:
    def test_location_is_zero(self):
        for alpha in (0.0, 0.5, 2.0):
            assert NORMAL_LOCATION.weighted_score_mean([0.3], alpha)[0] == 0.0

    def test_scale_values(self):
        assert NORMAL_SCALE.weighted_score_mean([1.0], 0.0)[0] == pytest.approx(0.0, abs=1e-15)
        assert NORMAL_SCALE.weighted_score_mean([1.0], 1.0)[0] == pytest.approx(-0.5, rel=1e-14)

    @pytest.mark.parametrize("family,theta", ALL_FAMILIES)
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_matches_quadrature(self, family, theta, alpha):
        d = family.param_dim
        mass = _lambda_integral(family, lambda x: family.density(theta, x) ** (1.0 + alpha), [theta])
        for j in range(d):
            num = _lambda_integral(
                family,
                lambda x: family.density(theta, x) ** (1.0 + alpha)
                * float(np.atleast_1d(family.score(theta, x))[j]),
                [theta],
            )
            got = family.weighted_score_mean(theta, alpha)[j]
            assert got == pytest.approx(num / mass, rel=1e-8, abs=1e-10)


class TestSampling:
    def test_pareto_support(self):
        rng = np.random.default_rng(5)
        xs = PARETO.sample([1.5], 10_000, rng)
        assert np.all(xs >= 1.0)

    def test_normal_clt_band(self):
        rng = np.random.default_rng(123)
        xs = NORMAL.sample([0.0, 1.0], 100_000, rng)
        assert abs(xs.mean()) < 4.0 / math.sqrt(100_000)

    def test_seed_determinism(self):
        for family, theta in ALL_FAMILIES:
            a = family.sample(theta, 50, np.random.default_rng(77))
            b = family.sample(theta, 50, np.random.default_rng(77))
            assert np.array_equal(a, b)

    def test_rejects_empty(self):
        with pytest.raises(InvalidInputError):
            NORMAL.sample([0.0, 1.0], 0, np.random.default_rng(0))


class TestMLEParameter:
    def test_normal_closed_form(self):
        theta = NORMAL.mle_parameter(np.array([-1.0, 1.0]), np.array([0.5, 0.5]))
        assert np.allclose(theta, [0.0, 1.0])

    def test_pareto_closed_form(self):
        theta = PARETO.mle_parameter(np.array([math.e, math.e]), np.array([0.5, 0.5]))
        assert theta[0] == pytest.approx(1.0, rel=1e-14)

    def test_pareto_degenerate(self):
        with pytest.raises(DegenerateDataError):
            PARETO.mle_parameter(np.array([1.0, 1.0]), np.array([0.5, 0.5]))

    def test_normal_degenerate(self):
        with pytest.raises(DegenerateDataError):
            NORMAL.mle_parameter(np.array([2.0, 2.0]), np.array([0.5, 0.5]))

    def test_submodel_closed_forms(self):
        # the scale submodel is centred at 0, the location submodel has unit scale
        xs = np.array([1.0, 2.5, -0.5, 4.0])
        w = np.array([0.1, 0.2, 0.3, 0.4])
        assert NORMAL_SCALE.mle_parameter(xs, w)[0] == math.sqrt(float(w @ xs**2))
        assert NORMAL_LOCATION.mle_parameter(xs, w)[0] == float(w @ xs)


# Parameter rows of each family, extreme ones included, and the rows of
# nodes they are evaluated on (row 0 of each carries an outlier).
ROW_FAMILIES = [
    (NORMAL, [[0.3, 1.7], [-1.0, 0.4], [2.0, 3.0], [0.0, 1e-3], [1e3, 50.0]]),
    (NORMAL_LOCATION, [[-0.4], [0.0], [3.0], [1e3], [-2.5]]),
    (NORMAL_SCALE, [[0.6], [1.0], [1e-3], [40.0], [2.2]]),
    (PARETO, [[0.5], [2.0], [1e-2], [30.0], [1.1]]),
]


def row_nodes(family, rows, n=40, seed=21):
    rng = np.random.default_rng(seed)
    if family is PARETO:
        x = (1.0 - rng.random((rows, n))) ** -0.5
        x[0, 0] = 1e6
    else:
        x = 1.5 * rng.standard_normal((rows, n)) + 0.2
        x[0, 0] = 30.0
    return x


def log_mismatches(count=3):
    """Positive values at which numpy's vectorized ``log`` differs from
    ``math.log`` in the last bit on this platform (none where they agree)."""
    v = np.random.default_rng(3).uniform(0.5, 4.0, 20_000)
    return v[np.log(v) != np.array([math.log(t) for t in v])][:count]


def power_mismatches(family, alpha, count=3):
    """Scales or shapes at which a power in ``power_mass_integral`` or in
    ``renyi_normalizer`` at order ``alpha`` differs between ``np.power`` and
    Python's ``**`` in the last bit on this platform (none where they agree)."""
    v = np.random.default_rng(4).uniform(0.5, 4.0, 20_000)
    a = float(alpha)
    if family is PARETO:
        base, exponent, rows = v, 1.0 + a, v[:, None]
    else:
        base, exponent = 2.0 * math.pi * np.square(v), a / 2.0
        rows = np.stack([np.full_like(v, 0.1), v], axis=1) if family is NORMAL else v[:, None]
    mass = family.power_mass_integral(rows, a)
    mismatch = lambda b, e: np.power(b, e) != np.array([t**e for t in b.tolist()])
    return [*v[mismatch(base, exponent)][:count], *v[mismatch(mass, a / (1.0 + a))][:count]]


def with_mismatches(family, thetas, alpha):
    """``thetas`` plus rows whose scale or shape is such a value."""
    if family is NORMAL_LOCATION:
        return np.array(thetas)
    values = [*log_mismatches(), *power_mismatches(family, alpha)]
    extra = [[0.1, v] if family is NORMAL else [v] for v in values]
    return np.array(thetas + extra)


def family_calls(family, alpha):
    """The family methods that take parameter rows, as (theta, nodes) calls."""
    return {
        "validate_param": lambda t, x: family.validate_param(t),
        "log_density": family.log_density,
        "score": family.score,
        "power_mass_integral": lambda t, x: family.power_mass_integral(t, alpha),
        "weighted_score_mean": lambda t, x: family.weighted_score_mean(t, alpha),
        "renyi_normalizer": lambda t, x: family.renyi_normalizer(t, alpha),
    }


def assert_bitwise_rows(rows, singles):
    singles = np.array(singles)
    assert np.asarray(rows).shape == singles.shape
    assert np.asarray(rows).tobytes() == singles.tobytes()


class TestParameterRows:
    @pytest.mark.parametrize("alpha", [0.0, 0.3, 2.0])
    @pytest.mark.parametrize("family,thetas", ROW_FAMILIES)
    def test_rows_equal_single_calls(self, family, thetas, alpha):
        theta = with_mismatches(family, thetas, alpha)
        x = row_nodes(family, len(theta))
        for name, call in family_calls(family, alpha).items():
            rows = call(theta, x)
            assert_bitwise_rows(rows, [call(t, xr) for t, xr in zip(theta, x)])
            # a row does not depend on the other rows
            assert_bitwise_rows(call(theta[1:3], x[1:3]), rows[1:3])

    @pytest.mark.parametrize("family,thetas", ROW_FAMILIES)
    def test_single_parameter_shapes(self, family, thetas):
        theta = np.array(thetas[0])
        x = row_nodes(family, 1)[0]
        d = family.param_dim
        assert family.log_density(theta, x).shape == x.shape
        assert family.score(theta, x).shape == x.shape + (d,)
        assert isinstance(family.power_mass_integral(theta, 0.5), float)
        assert isinstance(family.renyi_normalizer(theta, 0.5), float)
        assert family.weighted_score_mean(theta, 0.5).shape == (d,)

    def test_rows_validated(self):
        with pytest.raises(InvalidInputError, match="scale must be positive"):
            NORMAL.validate_param([[0.0, 1.0], [0.0, -1.0]])
        with pytest.raises(InvalidInputError, match="shape must be positive"):
            PARETO.validate_param([[2.0], [0.0]])
        with pytest.raises(InvalidInputError, match="finite"):
            NORMAL_LOCATION.validate_param([[0.0], [math.nan]])
        with pytest.raises(InvalidInputError, match="component"):
            NORMAL.validate_param(np.ones((2, 2, 2)))


class TestRegistry:
    def test_names(self):
        assert get_family("normal") is NORMAL
        assert get_family("normal-loc") is NORMAL_LOCATION
        assert get_family("normal-scale") is NORMAL_SCALE
        assert get_family("pareto") is PARETO

    def test_unknown(self):
        with pytest.raises(InvalidInputError):
            get_family("weibull")

    def test_param_validation(self):
        with pytest.raises(InvalidInputError):
            NORMAL.validate_param([0.0, -1.0])
        with pytest.raises(InvalidInputError):
            PARETO.validate_param([0.0])
        with pytest.raises(InvalidInputError):
            NORMAL_LOCATION.validate_param([0.0, 1.0])
