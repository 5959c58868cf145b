"""Tests for the parametric families: densities, scores, closed-form
integrals against independent quadrature oracles, and sampling."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
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
    sub_criterion,
    sub_divergence,
    sub_psi,
)
from mindiv.families import _equal_weight_rank, _row_quantile

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


# (family, theta, other): two members of each family
PRODUCT_PAIRS = [
    (NORMAL, np.array([0.4, 1.3]), np.array([-0.5, 0.7])),
    (NORMAL_LOCATION, np.array([0.7]), np.array([-0.4])),
    (NORMAL_SCALE, np.array([1.6]), np.array([0.9])),
    (PARETO, np.array([2.0]), np.array([3.5])),
]


class TestPowerProduct:
    @pytest.mark.parametrize("family,theta,other", PRODUCT_PAIRS)
    @pytest.mark.parametrize("e,c", [(0.5, 0.0), (0.0, 0.5), (0.7, 0.3), (0.2, 1.5)])
    def test_matches_quadrature(self, family, theta, other, e, c):
        # both outputs, on p_theta^(1+e-c) p_other^c (a negative power of
        # p_theta at c = 1.5)
        b = 1.0 + e - c
        product = lambda x: math.exp(b * family.log_density(theta, x) + c * family.log_density(other, x))
        mass = _lambda_integral(family, product, [theta, other])
        got_mass, got_mean = family._power_product(theta, other, e, c)
        assert got_mass == pytest.approx(mass, rel=1e-8)
        assert got_mean.shape == (family.param_dim,)
        for j in range(family.param_dim):
            score_j = lambda x: product(x) * float(np.atleast_1d(family.score(theta, x))[j])
            num = _lambda_integral(family, score_j, [theta, other])
            assert got_mean[j] == pytest.approx(num / mass, rel=1e-8, abs=1e-10)

    def test_product_outside_the_family(self):
        # normal precision k / sigma^2, k = 1 + e - c + c sigma^2 / sigma_o^2 = -0.75
        with pytest.raises(DomainError):
            NORMAL._power_product(np.array([0.0, 0.5]), np.array([0.0, 1.0]), 0.5, 3.0)
        # Pareto shape (1 + e - c) theta + c theta_o + e = -5.5, and exactly 0
        with pytest.raises(DomainError):
            PARETO._power_product(np.array([8.0]), np.array([2.0]), 0.5, 3.0)
        with pytest.raises(DomainError):
            PARETO._power_product(np.array([2.0]), np.array([1.0]), 0.0, 2.0)


class TestTwoMemberFormsTakeOneParameter:
    # the public forms of a product of two members take one parameter;
    # parameter rows raise the toolkit's input error, not numpy's
    @pytest.mark.parametrize("family,theta", ALL_FAMILIES, ids=[f.name for f, _ in ALL_FAMILIES])
    def test_rows_rejected(self, family, theta):
        rows = np.array([theta, theta])
        q = quadrature_of(family, theta, 64)
        calls = {
            "power_ratio_integral": lambda t: family.power_ratio_integral(t, t, 0.5),
            "sub_criterion": lambda t: sub_criterion(family, theta, t, q, 0.5),
            "sub_psi": lambda t: sub_psi(family, theta, t, q, 0.5),
            "sub_divergence": lambda t: sub_divergence(family, theta, t, q, 0.5),
        }
        for name, call in calls.items():
            assert np.all(np.isfinite(call(theta))), name
            with pytest.raises(InvalidInputError, match=r"takes one parameter, not rows of shape \(2, "):
                call(rows)
        with pytest.raises(InvalidInputError, match="takes one parameter"):
            family.power_ratio_integral(theta, rows, 0.5)


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

    @pytest.mark.parametrize("family,theta", ALL_FAMILIES)
    @pytest.mark.parametrize("alpha", [-0.5, -1.0])
    def test_negative_order_rejected(self, family, theta, alpha):
        # by every form of the power-tilted density, not only the mass
        for form in (family.power_mass_integral, family.weighted_score_mean, family.renyi_normalizer):
            with pytest.raises(DomainError, match="nonnegative"):
                form(theta, alpha)


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

    def test_pareto_rejects_empty(self):
        with pytest.raises(InvalidInputError, match="sample size"):
            PARETO.sample([2.0], 0, np.random.default_rng(0))

    @pytest.mark.parametrize("n", [5.5, 5.0, True, "5"])
    def test_rejects_sizes_that_are_not_integers(self, n):
        # a float size was once truncated: 5.5 drew 5 values
        for family, theta in ALL_FAMILIES:
            with pytest.raises(InvalidInputError, match="^sample size must be an integer >= 1"):
                family.sample(theta, n, np.random.default_rng(0))
        assert NORMAL.sample([0.0, 1.0], np.int64(5), np.random.default_rng(0)).shape == (5,)


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
        assert NORMAL_SCALE.mle_parameter(xs, w)[0] == math.sqrt((w * xs * xs).sum())
        assert NORMAL_LOCATION.mle_parameter(xs, w)[0] == (w * xs).sum()

    @pytest.mark.parametrize(
        "family,xs",
        [(NORMAL, [2.0, 2.0]), (NORMAL_SCALE, [0.0, 0.0]), (PARETO, [1.0, 1.0])],
        ids=["normal", "normal-scale", "pareto"],
    )
    def test_degenerate_samples_have_no_search_box(self, family, xs):
        # zero spread on the normal kinds, or every x at 1 on Pareto: the box
        # is built about the MLE, so it raises as the MLE does
        x, w = np.array(xs), np.array([0.5, 0.5])
        with pytest.raises(DegenerateDataError):
            family.mle_parameter(x, w)
        with pytest.raises(DegenerateDataError):
            family.default_bounds(x, w)

    def test_search_box_is_about_the_mle(self):
        # the scale box is (1e-3, 10) times the MLE's sigma, the Pareto box
        # (1/100, 100) times its shape, to the last bit
        rng = np.random.default_rng(21)
        for n in (3, 10, 57, 400):
            for _ in range(10):
                w = rng.random(n)
                w /= w.sum()
                z = rng.standard_normal(n)
                for family, x in ((NORMAL, 3.0 + z), (NORMAL_SCALE, z), (PARETO, 1.0 + np.abs(z))):
                    *_, fit = family.mle_parameter(x, w).tolist()
                    box = (1e-3 * fit, 10.0 * fit) if family is not PARETO else (fit / 100.0, 100.0 * fit)
                    assert family.default_bounds(x, w)[-1] == box, (family.name, n)

    @pytest.mark.parametrize("family", [f for f, _ in ALL_FAMILIES], ids=lambda f: f.name)
    def test_search_box_has_width_on_extreme_samples(self, family):
        # a sample the MLE cannot fit has no box either; on every other one
        # each coordinate has lo < hi, so a central difference inside the box
        # spans more than 0; the one exception is a scale box whose second
        # moment overflows, (inf, inf), on which no parameter is valid
        rng = np.random.default_rng(8)
        for n in (1, 2, 7, 1000):
            z, w = rng.standard_normal(n), np.full(n, 1.0 / n)
            for scale in (1e-300, 1e-163, 1e-8, 1.0, 1e8, 1e163, 1e300):
                for offset in (-1e300, -1e8, 0.0, 1e8, 1e300):
                    mostly_equal = np.where(np.arange(n) == 0, offset + scale * z[0], offset)
                    for x in (offset + scale * z, mostly_equal):
                        if family is PARETO:
                            x = 1.0 + np.abs(x)
                        centre = w @ x if family is not NORMAL_SCALE else 0.0
                        with np.errstate(over="ignore"):
                            moment = w @ np.square(x - centre)
                            try:
                                family.mle_parameter(x, w)
                            except DegenerateDataError:
                                with pytest.raises(DegenerateDataError):
                                    family.default_bounds(x, w)
                                continue
                            box = family.default_bounds(x, w)
                        for lo, hi in box:
                            overflow = family is not PARETO and math.isinf(moment)
                            assert lo < hi or (overflow and lo == hi == math.inf), (n, scale, offset, lo, hi)

def sorted_quantile(x, w, p):
    """Reference for ``_row_quantile``: sort each row, then take the first
    node whose cumulative weight reaches ``p`` of the row's mass."""
    out = []
    for xr, wr in zip(x, w):
        order = np.argsort(xr)
        cw = np.cumsum(wr[order])
        out.append(xr[order][np.argmax(cw >= p * cw[-1])])
    return np.array(out)


@st.composite
def weighted_rows(draw):
    """(R, n) nodes and weights, uneven in every row: free rows, or rows as
    ``if_numeric`` builds them, one shared base (sorted or shuffled) plus one
    point per row, weighted (1 - step) q and step.  Rounded nodes repeat
    values and give zeros of both signs; integer weights tie cumulative
    sums with the quantile's level."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows, n = draw(st.integers(1, 6)), draw(st.integers(2, 40))
    scale, rounded = draw(st.sampled_from([0.4, 1.0, 3.0])), draw(st.booleans())
    weigh = draw(st.sampled_from(["equal", "uniform", "integer"]))

    def nodes(*shape):
        x = scale * rng.standard_normal(shape)
        return np.round(x) if rounded else x

    def weights(*shape):
        if weigh == "integer":
            return rng.integers(1, 4, shape).astype(float)
        return np.full(shape, 1.0 / shape[-1]) if weigh == "equal" else rng.random(shape) + 0.01

    if draw(st.booleans()):
        base, q = nodes(n - 1), weights(n - 1)
        if draw(st.booleans()):
            base.sort()
        points = nodes(rows) if draw(st.booleans()) else rng.choice(base, rows)
        steps = draw(st.sampled_from([np.array([1e-3, 5e-4]), np.array([0.1, 0.05]), np.array([0.3])]))
        step = np.resize(steps, rows)
        x, w = np.empty((2, rows, n))
        x[:, :-1], x[:, -1] = base, points
        np.multiply(1.0 - step[:, None], q, out=w[:, :-1])
        w[:, -1] = step
    else:
        x, w = nodes(rows, n), weights(rows, n)
    # a row of equal weights alone takes the equal-weight selection
    w[(w == w[:, :1]).all(axis=1), -1] *= 2.0
    return x, w


class TestRowQuantile:
    @given(weighted_rows(), st.sampled_from([0.25, 0.5, 0.75]))
    def test_weighted_rows_are_single_calls(self, case, p):
        # each row of a batch is the single-row call, byte for byte, and
        # the sorted reference's value (zeros equal whatever their signs)
        x, w = case
        got = _row_quantile(x, w, p)
        assert got.shape == (len(x),)
        for j in range(len(x)):
            assert got[j].tobytes() == _row_quantile(x[j], w[j], p).tobytes()
        assert np.array_equal(got, sorted_quantile(x, w, p))

    @pytest.mark.parametrize("p", [0.25, 0.5, 0.75])
    def test_equal_weights_match_sort(self, p):
        # weights 1/n: at some n the cumulative weight k/n that equals p
        # rounds below p, at others above; integer nodes tie
        sides = {np.sign(np.cumsum(np.full(n, 1.0 / n))[round(p * n) - 1] - p) for n in range(4, 61, 4)}
        assert sides == {-1.0, 0.0, 1.0}
        rng = np.random.default_rng(3)
        for n in range(1, 61):
            x = np.round(3.0 * rng.standard_normal((4, n)))
            x[0] = rng.standard_normal(n)
            w = np.full(x.shape, 1.0 / n)
            # equal values; rounding leaves -0.0 and 0.0, whose order the
            # sort and the selection may break differently
            assert np.array_equal(_row_quantile(x, w, p), sorted_quantile(x, w, p))

    def test_unequal_weights_sort(self):
        # the equal-weight position (the last node here) would give 3.0
        x = np.array([[3.0, 1.0, 2.0, 0.0]])
        assert _row_quantile(x, np.array([[0.1, 0.1, 0.1, 0.7]]), 0.5)[0] == 0.0
        rng = np.random.default_rng(4)
        x = np.round(3.0 * rng.standard_normal((6, 25)))
        w = rng.random((6, 25))
        w[0] = 1.0  # equal within a row, not across the array
        for p in (0.25, 0.5, 0.75):
            assert _row_quantile(x, w, p).tobytes() == sorted_quantile(x, w, p).tobytes()

    def test_empty_batch(self):
        assert _row_quantile(np.empty((0, 3)), np.empty((0, 3)), 0.5).shape == (0,)

    @pytest.mark.parametrize("p", [0.25, 0.5, 0.75])
    def test_cached_rank_is_cumsum_rule(self, p):
        # the equal-weight rank, cached per (n, w, p), is the first node
        # whose cumulative weight reaches p of the mass
        for n in (1, 2, 3, 50, 99, 100, 513, 10_000):
            cw = np.cumsum(np.full(n, 1.0 / n))
            assert _equal_weight_rank(n, 1.0 / n, p) == int(np.argmax(cw >= p * cw[-1])), n


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


def score_cols(family, theta, x):
    """The score's columns: ``_score_at`` on the standardized nodes."""
    return family._score_at(family._standardize(family.validate_param(theta), family._nodes(x)))


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


def written_tilted_forms(family, theta, a):
    """``power_mass_integral`` and ``weighted_score_mean`` as each family
    wrote them in closed form: the oracle that the forms derived from
    ``_power_product`` equal bit for bit, on one parameter and on rows."""
    cols = theta.tolist() if theta.ndim == 1 else list(theta.T[..., None])
    if family is PARETO:
        (shape,) = cols
        mass = np.power(shape, 1.0 + a) / (shape * (1.0 + a) + a)
        mean = 1.0 / theta - 1.0 / (theta * (1.0 + a) + a)
    else:
        sigma = cols[-1] if family is not NORMAL_LOCATION else 1.0 if theta.ndim == 1 else np.ones((len(theta), 1))
        mass = (1.0 + a) ** -0.5 / np.power(2.0 * math.pi * np.square(sigma), a / 2.0)
        mean = np.take(-a / (sigma * (1.0 + a)) * np.array([0.0, 1.0]), family._free, axis=-1)
    return mass if theta.ndim == 1 else mass[:, 0], mean


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

    @pytest.mark.parametrize("alpha", [0.0, 0.3, 2.0, 3.7])
    @pytest.mark.parametrize("family,thetas", ROW_FAMILIES)
    def test_tilted_forms_are_the_written_ones(self, family, thetas, alpha):
        theta = with_mismatches(family, thetas, alpha)
        for t in [theta, *theta]:
            mass, mean = written_tilted_forms(family, t, alpha)
            assert_bitwise_rows(family.power_mass_integral(t, alpha), mass)
            assert_bitwise_rows(family.weighted_score_mean(t, alpha), mean)

    @pytest.mark.parametrize("family,thetas", ROW_FAMILIES)
    def test_score_stacks_score_cols(self, family, thetas):
        # score is its columns stacked, for one parameter and for rows, and
        # each column's rows equal single calls
        theta = np.array(thetas)
        x = row_nodes(family, len(theta))
        cols = score_cols(family, theta, x)
        assert len(cols) == family.param_dim and all(c.shape == x.shape for c in cols)
        assert family.score(theta, x).tobytes() == np.stack(cols, axis=-1).tobytes()
        for t, xr, score in zip(theta, x, family.score(theta, x)):
            one = score_cols(family, t, xr)
            assert score.tobytes() == family.score(t, xr).tobytes() == np.stack(one, axis=-1).tobytes()

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

    @pytest.mark.parametrize("family,theta", ALL_FAMILIES)
    def test_in_space_is_validate_param(self, family, theta):
        # the mask that SQUAREM's jump check reads: a row is in it exactly
        # when validate_param accepts that row
        rows = [theta.copy()]
        for value in (math.nan, math.inf, -math.inf, 0.0, -0.0, -1.5, 1e-300):
            for i in range(family.param_dim):
                rows.append(theta.copy())
                rows[-1][i] = value
        rows = np.array(rows)
        want = []
        for row in rows:
            try:
                family.validate_param(row)
                want.append(True)
            except InvalidInputError:
                want.append(False)
        assert family._in_space(rows).tolist() == want
        assert not all(want) and any(want)


def hook_nodes(family, n=40, seed=5):
    """(4, n) rows for the row solver's hooks, with 10% outliers; the start
    refuses row 3 (most of its nodes at 0 on the normal kinds, a node at
    x = 1 on Pareto), but on normal-loc, which has no such row."""
    rng = np.random.default_rng(seed)
    if family is PARETO:
        x = (1.0 - rng.random((4, n))) ** -0.5
        x[:, :4] *= 50.0
        x[3, 0] = 1.0
    else:
        x = rng.standard_normal((4, n)) + 0.5
        x[:, :4] = 20.0 * rng.standard_cauchy((4, 4))
        x[3, 5:] = 0.0
    return x


def hook_thetas(family, start):
    """Parameter rows around ``start`` and far from it, where the Newton step
    is taken, refused for the map's, or leaves the space."""
    scales = np.geomspace(1e-3, 1e3, 13)
    if family is NORMAL:
        return np.array([[start[0] + m, s] for m in (-30.0, 0.0, 30.0) for s in scales])
    if family is NORMAL_LOCATION:
        return start + np.linspace(-60.0, 60.0, 13)[:, None]
    return scales[:, None]


class TestMomentHooks:
    """``_moment_start``, ``_moment_update`` and ``_in_space`` on one
    parameter against (n,) nodes, with a scalar weight on equal weights,
    give row j of the batch, bit for bit."""

    @pytest.mark.parametrize("equal", [True, False], ids=["equal", "unequal"])
    @pytest.mark.parametrize("kind", ["power-pseudo", "renyi"])
    @pytest.mark.parametrize("family", [NORMAL, NORMAL_LOCATION, NORMAL_SCALE, PARETO], ids=lambda f: f.name)
    def test_one_parameter_is_row_j(self, family, kind, equal):
        x = hook_nodes(family)
        n = x.shape[1]
        if equal:
            w, one_weight = np.full((len(x), 1), 1.0 / n), lambda j: 1.0 / n
        else:
            uneven = np.random.default_rng(6).random(x.shape) + 0.5
            w = uneven / uneven.sum(axis=1, keepdims=True)
            one_weight = lambda j: w[j]
        with np.errstate(all="ignore"):
            start, y = family._moment_start(x, w)
            for j in range(len(x)):
                start_j, y_j = family._moment_start(x[j], one_weight(j))
                assert start_j.tobytes() == start[j].tobytes() and y_j.tobytes() == y[j].tobytes()
            # a row with no start is NaN, as one parameter too
            assert np.isnan(start[3]).any() != (family is NORMAL_LOCATION)
            thetas = hook_thetas(family, start[0])
            newton_steps = map_steps = left = 0
            for alpha in (0.1, 2.0):
                rows = np.repeat(y[:1], len(thetas), axis=0)
                new, step = family._moment_update(kind, alpha, rows, np.repeat(w[:1], len(thetas), axis=0), thetas)
                inside = family._in_space(new)
                for j, theta in enumerate(thetas):
                    new_j, step_j = family._moment_update(kind, alpha, y[0], one_weight(0), theta)
                    assert new_j.shape == theta.shape and new_j.tobytes() == new[j].tobytes()
                    assert np.float64(step_j).tobytes() == step[j].tobytes()
                    assert family._in_space(new_j) == inside[j]
                newton_steps += np.sum(np.isfinite(step))
                map_steps += np.sum(step == math.inf)
                left += np.sum(~inside)
        # Newton steps, Newton refused for the map's step, and steps out of
        # the space (a free location cannot leave it)
        assert newton_steps > 0 and map_steps > 0 and (left > 0) != (family is NORMAL_LOCATION)


class TestRegistry:
    def test_names(self):
        assert get_family("normal") is NORMAL
        assert get_family("normal-loc") is NORMAL_LOCATION
        assert get_family("normal-scale") is NORMAL_SCALE
        assert get_family("pareto") is PARETO

    def test_unknown(self):
        with pytest.raises(InvalidInputError):
            get_family("weibull")

    def test_repr(self):
        assert repr(NORMAL_SCALE) == "<family normal-scale>"

    def test_param_validation(self):
        with pytest.raises(InvalidInputError):
            NORMAL.validate_param([0.0, -1.0])
        with pytest.raises(InvalidInputError):
            PARETO.validate_param([0.0])
        with pytest.raises(InvalidInputError):
            NORMAL_LOCATION.validate_param([0.0, 1.0])
