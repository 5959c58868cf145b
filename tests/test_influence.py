"""Tests for influence functions, the contamination oracle, and sensitivity."""

import math

import numpy as np
import pytest

import mindiv.influence
from mindiv import (
    EstimationError,
    EstimatorSpec,
    EvaluationError,
    InvalidInputError,
    NORMAL,
    NORMAL_LOCATION,
    NORMAL_SCALE,
    PARETO,
    SingularMatrixError,
    UNBOUNDED,
    if_general,
    if_mle,
    if_numeric,
    if_pseudo,
    if_renyi,
    if_sub_location,
    if_sub_scale,
    influence_curve,
    quadrature_of,
    sensitivity,
)
from mindiv.influence import InfluenceCurve


def mle_scale_if(sigma0, x):
    return sigma0 * ((np.asarray(x) / sigma0) ** 2 - 1.0) / 2.0


class TestIfGeneral:
    def test_array_points(self):
        q = quadrature_of(NORMAL_LOCATION, [0.5], 256)
        psi = lambda x, th: np.asarray(x) - th[0]
        psi_deriv = lambda x, th: np.full(np.shape(x) + (1, 1), -1.0)
        xs = np.array([-2.0, 0.5, 3.1])
        got = if_general(psi, psi_deriv, q, [0.5], xs)
        assert got.shape == (3, 1)
        assert np.allclose(got[:, 0], xs - 0.5, atol=1e-9)

    def test_mle_location(self):
        q = quadrature_of(NORMAL_LOCATION, [0.5], 256)
        psi = lambda x, th: np.atleast_1d(x - th[0])
        psi_deriv = lambda x, th: np.full(np.shape(x) + (1, 1), -1.0)
        for x in (-2.0, 0.5, 3.1):
            got = if_general(psi, psi_deriv, q, [0.5], x)
            assert got[0] == pytest.approx(x - 0.5, abs=1e-9)

    def test_mle_scale(self):
        sigma0 = 1.7
        q = quadrature_of(NORMAL_SCALE, [sigma0], 512)
        psi = lambda x, th: NORMAL_SCALE.score(th, x)
        psi_deriv = lambda x, th: NORMAL_SCALE.score_deriv(th, x)
        for x in (0.0, 1.0, 4.0):
            got = if_general(psi, psi_deriv, q, [sigma0], x)
            assert got[0] == pytest.approx(mle_scale_if(sigma0, x), abs=1e-8)

    def test_mean_zero_at_fixed_point(self):
        q = quadrature_of(NORMAL_SCALE, [1.2], 512)
        vals = if_mle(NORMAL_SCALE, [1.2], q.nodes)
        assert abs(float(q.weights @ vals[:, 0])) < 1e-6

    def test_singular_matrix(self):
        q = quadrature_of(NORMAL_LOCATION, [0.0], 64)
        psi = lambda x, th: np.atleast_1d(x - th[0])
        psi_deriv = lambda x, th: np.zeros(np.shape(x) + (1, 1))
        with pytest.raises(SingularMatrixError) as err:
            if_general(psi, psi_deriv, q, [0.0], 1.0)
        assert err.value.matrix is not None


class TestIfNumeric:
    def test_matches_mle_location(self):
        q = quadrature_of(NORMAL_LOCATION, [0.0], 512)
        spec = EstimatorSpec(kind="mle")
        for x in (-2.0, 1.3):
            got = if_numeric(NORMAL_LOCATION, spec, q, x)
            assert got[0] == pytest.approx(x, abs=1e-4)

    def test_zero_crossing(self):
        q = quadrature_of(NORMAL_LOCATION, [0.0], 512)
        got = if_numeric(NORMAL_LOCATION, EstimatorSpec(kind="mle"), q, 0.0)
        assert abs(got[0]) < 1e-4

    def test_toolkit_error_is_wrapped(self, monkeypatch):
        def fail(family, spec, q):
            raise EvaluationError("objective returned NaN")

        monkeypatch.setattr(mindiv.influence, "estimate", fail)
        q = quadrature_of(NORMAL_LOCATION, [0.0], 64)
        with pytest.raises(EstimationError, match="base measure"):
            if_numeric(NORMAL_LOCATION, EstimatorSpec(kind="mle"), q, 1.0)

    def test_programming_error_propagates(self, monkeypatch):
        def fail(family, spec, q):
            raise ZeroDivisionError("bug")

        monkeypatch.setattr(mindiv.influence, "estimate", fail)
        q = quadrature_of(NORMAL_LOCATION, [0.0], 64)
        with pytest.raises(ZeroDivisionError):
            if_numeric(NORMAL_LOCATION, EstimatorSpec(kind="mle"), q, 1.0)

    def test_array_x_fits_base_once(self, monkeypatch):
        # one row per point, equal to the scalar calls, with the base fitted once
        spec = EstimatorSpec(kind="power-pseudo", alpha=0.5)
        q = quadrature_of(NORMAL, [0.0, 1.0])
        xs = np.array([-1.5, 0.5, 2.0])
        per_point = np.stack([if_numeric(NORMAL, spec, q, float(x)) for x in xs])
        fits = []
        real_estimate = mindiv.influence.estimate

        def counting(family, spec, q):
            fits.append(q)
            return real_estimate(family, spec, q)

        monkeypatch.setattr(mindiv.influence, "estimate", counting)
        rows = if_numeric(NORMAL, spec, q, xs)
        assert len(fits) == 1 + 2 * len(xs)
        assert rows.shape == (3, 2)
        assert np.array_equal(rows, per_point)
        assert if_numeric(NORMAL, spec, q, 0.5).shape == (2,)

    def test_eps_validation(self):
        q = quadrature_of(NORMAL_LOCATION, [0.0], 64)
        with pytest.raises(InvalidInputError):
            if_numeric(NORMAL_LOCATION, EstimatorSpec(kind="mle"), q, 1.0, eps=0.0)
        with pytest.raises(InvalidInputError):
            if_numeric(NORMAL_LOCATION, EstimatorSpec(kind="mle"), q, 1.0, eps=0.2)


class TestSubdivergenceClosedForms:
    def test_location_reduces_to_mle(self):
        xs = np.linspace(-4, 4, 9)
        assert np.allclose(if_sub_location(0.4, 0.7, 0.7, xs), xs - 0.7, atol=1e-14)
        assert np.allclose(if_sub_location(0.0, 5.0, 0.7, xs), xs - 0.7, atol=1e-14)

    def test_scale_reduces_to_mle(self):
        xs = np.linspace(-4, 4, 9)
        assert np.allclose(if_sub_scale(0.3, 2.0, 2.0, xs), mle_scale_if(2.0, xs), atol=1e-12)
        assert np.allclose(if_sub_scale(0.0, 0.5, 2.0, xs), mle_scale_if(2.0, xs), atol=1e-12)

    def test_location_oracle_crosses(self):
        q = quadrature_of(NORMAL_LOCATION, [0.0], 512)
        spec = EstimatorSpec(kind="subdivergence", alpha=0.5, escort=(1.0,))
        for x in (-2.0, 0.5, 2.0):
            num = if_numeric(NORMAL_LOCATION, spec, q, x, eps=1e-4)[0]
            assert num == pytest.approx(if_sub_location(0.5, 1.0, 0.0, x), abs=1e-3)

    def test_scale_oracle_crosses(self):
        q = quadrature_of(NORMAL_SCALE, [2.0], 512)
        spec = EstimatorSpec(kind="subdivergence", alpha=0.5, escort=(1.0,))
        for x in (0.0, 2.5, 6.0):
            num = if_numeric(NORMAL_SCALE, spec, q, x, eps=1e-4)[0]
            assert num == pytest.approx(if_sub_scale(0.5, 1.0, 2.0, x), abs=1e-3)

    def test_scale_growth_branch(self):
        # escort scale above the true scale: the exponential factor explodes
        vals = np.abs(if_sub_scale(0.5, 3.0, 2.0, np.array([5.0, 10.0, 20.0])))
        assert vals[1] > 10 * vals[0] and vals[2] > 1e4 * vals[1]

    def test_offset_at_center_when_escort_off(self):
        assert abs(if_sub_location(0.5, 1.0, 0.0, 0.0)) > 0.1

    @pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
    def test_curve_matches_closed_forms(self, alpha):
        # escorts below, at and above the model point
        for mu0 in (0.0, 0.7):
            grid = mu0 + np.linspace(-6.0, 6.0, 25)
            for escort in (mu0 - 1.0, mu0, mu0 + 1.0):
                spec = EstimatorSpec(kind="subdivergence", alpha=alpha, escort=(escort,))
                got = influence_curve(NORMAL_LOCATION, spec, [mu0], grid).values[:, 0]
                want = if_sub_location(alpha, escort, mu0, grid)
                assert np.max(np.abs(got - want)) < 1e-10, (mu0, escort)
        for sigma0 in (1.0, 2.0):
            grid = sigma0 * np.linspace(-6.0, 6.0, 25)
            for escort in (0.6 * sigma0, sigma0, 1.3 * sigma0):
                spec = EstimatorSpec(kind="subdivergence", alpha=alpha, escort=(escort,))
                got = influence_curve(NORMAL_SCALE, spec, [sigma0], grid).values[:, 0]
                want = if_sub_scale(alpha, escort, sigma0, grid)
                assert np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))) < 1e-10, (sigma0, escort)

    @pytest.mark.parametrize(
        "family,theta,escort,xs",
        [
            (NORMAL, [0.0, 1.0], (0.3, 1.2), np.linspace(-3.0, 3.0, 5)),
            (PARETO, [2.0], (2.5,), np.array([1.0, 1.5, 3.0, 6.0])),
        ],
    )
    def test_curve_matches_oracle_without_closed_form(self, family, theta, escort, xs):
        q = quadrature_of(family, theta)
        for alpha in (0.25, 0.5):
            spec = EstimatorSpec(kind="subdivergence", alpha=alpha, escort=escort)
            got = influence_curve(family, spec, theta, xs).values
            num = np.stack([if_numeric(family, spec, q, float(x), eps=1e-4) for x in xs])
            assert np.max(np.abs(got - num)) < 1e-3, alpha

    def test_alpha_range(self):
        with pytest.raises(InvalidInputError):
            if_sub_location(1.0, 0.0, 0.0, 1.0)
        with pytest.raises(InvalidInputError):
            if_sub_scale(-0.2, 1.0, 1.0, 1.0)


class TestPseudoClosedForm:
    def test_location_tilted_linear_form(self):
        a = 0.3
        xs = np.linspace(-5, 5, 11)
        got = if_pseudo(NORMAL_LOCATION, a, [0.0], xs)[:, 0]
        want = (1.0 + a) ** 1.5 * xs * np.exp(-a * xs**2 / 2.0)
        assert np.allclose(got, want, atol=1e-8)

    def test_scale_closed_form(self):
        a, sigma = 0.5, 1.3
        xs = np.linspace(-5, 5, 11)
        got = if_pseudo(NORMAL_SCALE, a, [sigma], xs)[:, 0]
        want = (
            (1.0 + a) ** 2.5
            * sigma
            / (a**2 + 2.0)
            * (((xs / sigma) ** 2 - 1.0) * np.exp(-a * xs**2 / (2 * sigma**2)) + a / (1.0 + a) ** 1.5)
        )
        assert np.allclose(got, want, atol=1e-10)

    def test_mle_reduction_at_origin(self):
        got = if_pseudo(NORMAL_SCALE, 0.0, [1.4], 0.0)[0]
        assert got == pytest.approx(-1.4 / 2.0, rel=1e-10)

    def test_tail_limit(self):
        a, sigma = 1.0, 1.0
        got = if_pseudo(NORMAL_SCALE, a, [sigma], 50.0)[0]
        assert got == pytest.approx(a * (1.0 + a) * sigma / (a**2 + 2.0), abs=1e-10)
        assert got == pytest.approx(2.0 / 3.0, abs=1e-10)


class TestRenyiClosedForm:
    def test_scale_closed_form(self):
        a, sigma = 0.5, 1.3
        xs = np.linspace(-5, 5, 11)
        got = if_renyi(NORMAL_SCALE, a, [sigma], xs)[:, 0]
        want = (
            (1.0 + a) ** 2.5
            * sigma
            / 2.0
            * ((xs / sigma) ** 2 - 1.0 / (1.0 + a))
            * np.exp(-a * xs**2 / (2 * sigma**2))
        )
        assert np.allclose(got, want, atol=1e-10)

    def test_mle_reduction(self):
        xs = np.linspace(-4, 4, 9)
        got = if_renyi(NORMAL_SCALE, 0.0, [2.0], xs)[:, 0]
        assert np.allclose(got, mle_scale_if(2.0, xs), atol=1e-10)

    def test_value_at_origin(self):
        a, sigma = 0.5, 1.0
        got = if_renyi(NORMAL_SCALE, a, [sigma], 0.0)[0]
        assert got == pytest.approx(-((1.0 + a) ** 1.5) * sigma / 2.0, rel=1e-10)

    def test_vanishing_tail(self):
        assert abs(if_renyi(NORMAL_SCALE, 0.5, [1.0], 50.0)[0]) < 1e-6

    def test_diverges_from_pseudo_for_positive_order(self):
        xs = np.linspace(-6, 6, 25)
        a = 0.5
        renyi = if_renyi(NORMAL_SCALE, a, [1.0], xs)[:, 0]
        pseudo = if_pseudo(NORMAL_SCALE, a, [1.0], xs)[:, 0]
        assert np.max(np.abs(renyi - pseudo)) > 1e-3
        renyi0 = if_renyi(NORMAL_SCALE, 0.0, [1.0], xs)[:, 0]
        pseudo0 = if_pseudo(NORMAL_SCALE, 0.0, [1.0], xs)[:, 0]
        assert np.allclose(renyi0, pseudo0, atol=1e-10)

    def test_oracle_cross_check(self):
        q = quadrature_of(NORMAL_SCALE, [1.0], 512)
        spec = EstimatorSpec(kind="renyi", alpha=0.5)
        for x in (0.0, 1.8, 4.0):
            num = if_numeric(NORMAL_SCALE, spec, q, x)[0]
            assert num == pytest.approx(if_renyi(NORMAL_SCALE, 0.5, [1.0], x)[0], abs=1e-3)


@pytest.mark.parametrize(
    "family,theta,xs",
    [
        (NORMAL, [0.3, 1.4], np.linspace(-5.0, 5.0, 11)),
        (NORMAL_LOCATION, [0.3], np.linspace(-5.0, 5.0, 11)),
        (NORMAL_SCALE, [1.4], np.linspace(-5.0, 5.0, 11)),
        (PARETO, [2.0], np.linspace(1.1, 9.0, 11)),
    ],
)
def test_zero_order_is_mle(family, theta, xs):
    mle_curve = if_mle(family, theta, xs)
    assert np.array_equal(if_pseudo(family, 0.0, theta, xs), mle_curve)
    assert np.array_equal(if_renyi(family, 0.0, theta, xs), mle_curve)


class TestSensitivity:
    def test_renyi_scale_bounded_vanishing(self):
        curve = lambda x: if_renyi(NORMAL_SCALE, 0.5, [1.0], x)
        summary = sensitivity(curve, NORMAL_SCALE, 0.5, [1.0])
        assert isinstance(summary.sup_abs, float)
        assert summary.sup_abs > 0.0
        assert abs(summary.limit_at_infinity) < 1e-6

    def test_pseudo_scale_bounded_with_limit(self):
        a, sigma = 0.5, 1.0
        curve = lambda x: if_pseudo(NORMAL_SCALE, a, [sigma], x)
        summary = sensitivity(curve, NORMAL_SCALE, a, [sigma])
        want = a * (1.0 + a) * sigma / (a**2 + 2.0)
        assert summary.limit_at_infinity == pytest.approx(want, abs=1e-6)
        assert summary.sup_abs >= abs(summary.limit_at_infinity)

    def test_subdivergence_location_unbounded(self):
        for alpha in (0.0, 0.5):
            curve = lambda x: if_sub_location(alpha, 1.0, 0.0, x)
            summary = sensitivity(curve, NORMAL_LOCATION, alpha, [0.0])
            assert summary.sup_abs is UNBOUNDED

    def test_curve_called_once(self):
        # every probe goes into one call, so the curve's fixed cost is paid once
        calls = []

        def curve(xs):
            calls.append(xs.size)
            return if_pseudo(NORMAL_SCALE, 0.5, [1.0], xs)

        sensitivity(curve, NORMAL_SCALE, 0.5, [1.0])
        assert calls == [801 + 3 + 3 + 1]

    def test_mle_scale_unbounded(self):
        curve = lambda x: mle_scale_if(1.0, x)
        summary = sensitivity(curve, NORMAL_SCALE, 0.0, [1.0])
        assert summary.sup_abs is UNBOUNDED
        assert summary.limit_at_infinity is UNBOUNDED


class TestInfluenceCurve:
    def test_csv_format(self):
        spec = EstimatorSpec(kind="mle")
        curve = influence_curve(NORMAL_LOCATION, spec, [0.0], np.linspace(-1, 1, 3))
        text = curve.to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "x,if_component_1"
        assert len(lines) == 4

    def test_two_component_header(self):
        spec = EstimatorSpec(kind="power-pseudo", alpha=0.5)
        curve = influence_curve(NORMAL, spec, [0.0, 1.0], np.linspace(-1, 1, 3))
        assert curve.to_csv().splitlines()[0] == "x,if_component_1,if_component_2"

    def test_grid_must_increase(self):
        spec = EstimatorSpec(kind="mle")
        with pytest.raises(InvalidInputError):
            InfluenceCurve(spec, np.array([0.0]), np.array([1.0, 0.5]), np.zeros((2, 1)))

    def test_numeric_route_matches_closed(self):
        spec = EstimatorSpec(kind="power-pseudo", alpha=0.5)
        grid = np.linspace(-2, 2, 5)
        closed = influence_curve(NORMAL_SCALE, spec, [1.0], grid)
        numeric = influence_curve(NORMAL_SCALE, spec, [1.0], grid, numeric=True)
        assert np.max(np.abs(closed.values - numeric.values)) < 1e-3

    def test_numeric_route_fits_base_once(self, monkeypatch):
        # one shared base fit plus two contaminated fits per point, with the
        # same values as the per-point oracle, which refits the base each time
        spec = EstimatorSpec(kind="renyi", alpha=0.5)
        grid = np.linspace(-2, 2, 5)
        q = quadrature_of(NORMAL_SCALE, [1.0])
        per_point = np.stack([if_numeric(NORMAL_SCALE, spec, q, float(x)) for x in grid])
        fits = []
        real_estimate = mindiv.influence.estimate

        def counting(family, spec, q):
            fits.append(q)
            return real_estimate(family, spec, q)

        monkeypatch.setattr(mindiv.influence, "estimate", counting)
        curve = influence_curve(NORMAL_SCALE, spec, [1.0], grid, numeric=True)
        assert len(fits) == 11
        assert np.array_equal(curve.values, per_point)

    def test_superdivergence_uses_mle_form(self):
        spec = EstimatorSpec(kind="superdivergence", alpha=0.4)
        grid = np.linspace(-2, 2, 5)
        curve = influence_curve(NORMAL_LOCATION, spec, [0.0], grid)
        assert np.allclose(curve.values[:, 0], grid, atol=1e-10)

    def test_subdivergence_dispatch(self):
        spec = EstimatorSpec(kind="subdivergence", alpha=0.5, escort=(1.0,))
        grid = np.linspace(-2, 2, 5)
        curve = influence_curve(NORMAL_LOCATION, spec, [0.0], grid)
        assert np.allclose(curve.values[:, 0], if_sub_location(0.5, 1.0, 0.0, grid), atol=1e-12)
        # the full normal has a curve too: at an escort equal to the model
        # point the subdivergence equation is the score equation
        spec_2d = EstimatorSpec(kind="subdivergence", alpha=0.5, escort=(0.3, 1.4))
        curve_2d = influence_curve(NORMAL, spec_2d, [0.3, 1.4], grid)
        assert np.allclose(curve_2d.values, if_mle(NORMAL, [0.3, 1.4], grid), atol=1e-10)
