"""Tests for influence functions, the contamination oracle, and sensitivity."""

import math

import numpy as np
import pytest

import mindiv.estimators
import mindiv.influence
from numpy._core._multiarray_umath import __cpu_features__
from mindiv import (
    EstimationError,
    DomainError,
    EstimatorSpec,
    EvaluationError,
    InvalidInputError,
    NORMAL,
    NORMAL_LOCATION,
    NORMAL_SCALE,
    PARETO,
    SingularMatrixError,
    UNBOUNDED,
    contaminate,
    empirical,
    estimate,
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
from mindiv.measures import Measure

# every subdivergence row, a base measure's among them, goes to the fallback
# the escort is off the MLE of the bases below (0), so every row reaches the fallback
SUB_SPEC = EstimatorSpec(kind="subdivergence", alpha=0.5, escort=(0.3,))


def mle_scale_if(sigma0, x):
    return sigma0 * ((np.asarray(x) / sigma0) ** 2 - 1.0) / 2.0


class TestIfGeneral:
    @pytest.mark.parametrize(
        "psi_deriv",
        [lambda x, th: np.full(np.shape(x) + (1, 1), -1.0), lambda x, th: np.array([[-1.0]])],
        ids=["vectorized", "per-node"],
    )
    def test_array_points(self, psi_deriv):
        # a Jacobian that does not vectorize over the nodes is taken node by node
        q = quadrature_of(NORMAL_LOCATION, [0.5], 256)
        psi = lambda x, th: np.asarray(x) - th[0]
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


def counting_fits(monkeypatch):
    """Record each ``_fit_rows`` call of the oracle (its nodes and weights)
    and each row ``_fallback`` fits."""
    fit_rows, fallbacks = [], []
    real_fit_rows, real_fallback = mindiv.influence._fit_rows, mindiv.estimators._fallback

    def counting_fit_rows(family, spec, nodes, weights):
        fit_rows.append((nodes, weights))
        return real_fit_rows(family, spec, nodes, weights)

    def counting_fallback(family, spec, q, its):
        fallbacks.append(q)
        return real_fallback(family, spec, q, its)

    monkeypatch.setattr(mindiv.influence, "_fit_rows", counting_fit_rows)
    monkeypatch.setattr(mindiv.estimators, "_fallback", counting_fallback)
    return fit_rows, fallbacks


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
        def fail(family, spec, q, its):
            raise EvaluationError("objective returned NaN")

        monkeypatch.setattr(mindiv.estimators, "_fallback", fail)
        q = quadrature_of(NORMAL_LOCATION, [0.0], 64)
        with pytest.raises(EstimationError, match="failed at base measure: objective returned NaN") as err:
            if_numeric(NORMAL_LOCATION, SUB_SPEC, q, 1.0)
        assert isinstance(err.value.__cause__, EvaluationError)

    def test_programming_error_propagates(self, monkeypatch):
        def fail(family, spec, q, its):
            raise ZeroDivisionError("bug")

        monkeypatch.setattr(mindiv.estimators, "_fallback", fail)
        q = quadrature_of(NORMAL_LOCATION, [0.0], 64)
        with pytest.raises(ZeroDivisionError):
            if_numeric(NORMAL_LOCATION, SUB_SPEC, q, 1.0)

    def test_array_x_fits_base_once(self, monkeypatch):
        # one row per point, equal to the scalar calls; the base is fitted
        # once, then the 6 contaminated rows together, and the row fixed
        # point accepts every row, so none reaches the fallback
        spec = EstimatorSpec(kind="power-pseudo", alpha=0.5)
        q = quadrature_of(NORMAL, [0.0, 1.0])
        xs = np.array([-1.5, 0.5, 2.0])
        per_point = np.stack([if_numeric(NORMAL, spec, q, float(x)) for x in xs])
        fit_rows, fallbacks = counting_fits(monkeypatch)
        rows = if_numeric(NORMAL, spec, q, xs)
        assert [len(nodes) for nodes, _ in fit_rows] == [1, 6] and not fallbacks
        assert rows.shape == (3, 2)
        assert np.array_equal(rows, per_point)
        assert if_numeric(NORMAL, spec, q, 0.5).shape == (2,)

    def test_eps_validation(self):
        q = quadrature_of(NORMAL_LOCATION, [0.0], 64)
        with pytest.raises(InvalidInputError):
            if_numeric(NORMAL_LOCATION, EstimatorSpec(kind="mle"), q, 1.0, eps=0.0)
        with pytest.raises(InvalidInputError):
            if_numeric(NORMAL_LOCATION, EstimatorSpec(kind="mle"), q, 1.0, eps=0.2)

    @pytest.mark.parametrize("x", [math.nan, math.inf, np.array([0.5, -math.inf])])
    def test_non_finite_point_rejected(self, x):
        q = quadrature_of(NORMAL_LOCATION, [0.0], 64)
        spec = EstimatorSpec(kind="renyi", alpha=0.5)
        with pytest.raises(InvalidInputError, match="finite"):
            if_numeric(NORMAL_LOCATION, spec, q, x)

    def test_non_converged_contaminated_fit_named(self, monkeypatch):
        q = quadrature_of(NORMAL_LOCATION, [0.0], 64)
        real_fallback = mindiv.estimators._fallback

        def stalls_when_contaminated(family, spec, rows, its):
            theta, criterion, its, converged = real_fallback(family, spec, rows, its)
            return theta, criterion, its, converged and len(rows.nodes) == len(q)

        monkeypatch.setattr(mindiv.estimators, "_fallback", stalls_when_contaminated)
        with pytest.raises(EstimationError, match=r"did not converge at contaminated measure \(x=1\.5, eps=0\.001\)") as err:
            if_numeric(NORMAL_LOCATION, SUB_SPEC, q, np.array([1.5, 2.0]))
        assert err.value.__cause__ is None

    def test_failed_row_raises_without_refit(self, monkeypatch):
        # a Pareto row contaminated below the support fails in the batch,
        # which records its error: no fit goes through estimate
        calls = []
        real_estimate = mindiv.estimators.estimate
        monkeypatch.setattr(mindiv.estimators, "estimate", lambda *args: calls.append(args) or real_estimate(*args))
        spec = EstimatorSpec(kind="subdivergence", alpha=0.5, escort=(2.5,))
        message = r"estimation failed at contaminated measure \(x=0\.5, eps=0\.001\): observations must lie in the support"
        with pytest.raises(EstimationError, match=message) as err:
            influence_curve(PARETO, spec, [2.0], np.linspace(0.5, 3.0, 41), numeric=True)
        assert isinstance(err.value.__cause__, DomainError)
        assert not calls


def per_point_oracle(family, spec, q, xs, eps=1e-3):
    """The oracle one point at a time: ``estimate`` on each contaminated
    measure, combined as ``if_numeric`` documents."""
    base = estimate(family, spec, q).theta_hat
    rows = []
    for x in xs:
        fits = [estimate(family, spec, contaminate(q, float(x), step)) for step in (eps, eps / 2.0)]
        assert all(fit.converged for fit in fits)
        quotients = [(fit.theta_hat - base) / step for fit, step in zip(fits, (eps, eps / 2.0))]
        rows.append(2.0 * quotients[1] - quotients[0])
    return np.array(rows)


class TestBatchedOracle:
    CASES = {
        "normal": (NORMAL, [0.3, 1.2]),
        "normal-loc": (NORMAL_LOCATION, [0.3]),
        "normal-scale": (NORMAL_SCALE, [1.2]),
        "pareto": (PARETO, [2.0]),
    }

    @pytest.mark.parametrize("family_name", list(CASES))
    @pytest.mark.parametrize("kind", ["renyi", "power-pseudo"])
    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.9])
    def test_points_equal_single_fits(self, monkeypatch, family_name, kind, alpha):
        self.check_points(monkeypatch, family_name, EstimatorSpec(kind=kind, alpha=alpha))

    @pytest.mark.parametrize("family_name", list(CASES))
    @pytest.mark.parametrize("kind", ["mle", "superdivergence"])
    def test_closed_form_points_equal_single_fits(self, monkeypatch, family_name, kind):
        self.check_points(monkeypatch, family_name, EstimatorSpec(kind=kind, alpha=0.0 if kind == "mle" else 0.5))

    @pytest.mark.parametrize("family_name", list(CASES))
    @pytest.mark.parametrize("kind", ["renyi", "power-pseudo"])
    def test_mixed_weight_batch_equals_single_fits(self, monkeypatch, family_name, kind):
        # on 999 equal weights a point's eps row keeps equal weights, (1 -
        # 1e-3) / 999 = 1e-3, and its eps/2 row does not: the row solver
        # fits the batch's two groups apart, each row as its single fit
        family, theta = self.CASES[family_name]
        q = empirical(family.sample(theta, 999, np.random.default_rng(8)))
        calls = []
        real_rows = mindiv.estimators._moment_fixed_point

        def recording(family, spec, nodes, weights):
            calls.append(len(nodes))
            return real_rows(family, spec, nodes, weights)

        monkeypatch.setattr(mindiv.estimators, "_moment_fixed_point", recording)
        self.check_points(monkeypatch, family_name, EstimatorSpec(kind=kind, alpha=0.5), q)
        # the single fits of the oracle, then the base, the batch of 10 rows
        # and its 5 equal-weight and 5 mixed-weight rows
        assert calls == [1] * 12 + [10, 5, 5]

    def check_points(self, monkeypatch, family_name, spec, q=None):
        family, theta = self.CASES[family_name]
        q = quadrature_of(family, theta) if q is None else q
        xs = np.linspace(1.5, 8.0, 5) if family is PARETO else np.linspace(-4.0, 4.0, 5)
        want = per_point_oracle(family, spec, q, xs)
        fit_rows, fallbacks = counting_fits(monkeypatch)

        def no_measure(self):
            raise AssertionError("built a measure")

        monkeypatch.setattr(Measure, "__post_init__", no_measure)
        got = if_numeric(family, spec, q, xs)
        # the base row, then every contaminated row solved in the batch, bit
        # for bit, with no contaminated measure built
        assert np.array_equal(fit_rows[0][0], q.nodes[None])
        assert [len(nodes) for nodes, _ in fit_rows] == [1, 10] and not fallbacks
        # written in C order, so _fit_rows copies no row
        assert all(rows.flags.c_contiguous for pair in fit_rows for rows in pair)
        assert np.array_equal(got, want)

    def test_rejected_rows_fall_back(self, monkeypatch):
        family, theta = self.CASES["normal"]
        spec = EstimatorSpec(kind="power-pseudo", alpha=0.5)
        q = quadrature_of(family, theta)
        xs = np.array([-2.0, 0.5, 3.0])
        real_rows = mindiv.estimators._moment_fixed_point
        calls = []

        def rejecting(family, spec, nodes, weights):
            calls.append(len(nodes))
            theta, accepted, iterations, criteria = real_rows(family, spec, nodes, weights)
            # point -2 at eps/2 and point 3 at eps, in a batch or alone
            contamination = np.stack([nodes[:, -1], weights[:, -1]], axis=1)
            accepted[(contamination == [-2.0, 5e-4]).all(axis=1) | (contamination == [3.0, 1e-3]).all(axis=1)] = False
            return theta, accepted, iterations, criteria

        monkeypatch.setattr(mindiv.estimators, "_moment_fixed_point", rejecting)
        want = per_point_oracle(family, spec, q, xs)
        calls.clear()
        _, fallbacks = counting_fits(monkeypatch)
        got = if_numeric(family, spec, q, xs)
        # one row-solver call for the base and one for the batch, and the
        # fallback on the 2 rejected rows alone, as in single fits
        assert calls == [1, 6]
        assert [(rows.nodes[-1], rows.weights[-1]) for rows in fallbacks] == [(-2.0, 5e-4), (3.0, 1e-3)]
        assert np.array_equal(got, want)

    def test_batches_do_not_change_rows(self, monkeypatch):
        family, theta = self.CASES["normal-scale"]
        spec = EstimatorSpec(kind="renyi", alpha=0.5)
        q = quadrature_of(family, theta)
        xs = np.linspace(-5.0, 5.0, 7)
        whole = if_numeric(family, spec, q, xs)
        calls = []
        real_rows = mindiv.estimators._moment_fixed_point

        def recording(family, spec, nodes, weights):
            calls.append(len(nodes))
            return real_rows(family, spec, nodes, weights)

        monkeypatch.setattr(mindiv.estimators, "_moment_fixed_point", recording)
        # three rows a batch: the 14 rows of 7 points take five batches, and
        # a point's two rows can fall in different batches; the one-row call
        # first is the base fit
        monkeypatch.setattr(mindiv.influence, "_BATCH_VALUES", 3 * (len(q) + 1))
        assert np.array_equal(if_numeric(family, spec, q, xs), whole)
        assert calls == [1, 3, 3, 3, 3, 2]


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

    @pytest.mark.parametrize("escort_sigma,sigma0", [(0.0, 1.0), (1.0, -2.0)])
    def test_scales_must_be_positive(self, escort_sigma, sigma0):
        with pytest.raises(InvalidInputError, match="scales must be positive"):
            if_sub_scale(0.5, escort_sigma, sigma0, 1.0)


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

    def test_non_finite_dense_value_unbounded(self):
        # NaN near the origin only: the tail probes (|x| >= 10) and the far
        # point are finite, so the dense grid alone classifies the curve
        def curve(xs):
            values = np.array(if_pseudo(NORMAL_SCALE, 0.5, [1.0], xs), dtype=float)
            values[np.abs(xs) < 0.1] = math.nan
            return values

        summary = sensitivity(curve, NORMAL_SCALE, 0.5, [1.0])
        assert summary.sup_abs is UNBOUNDED and summary.limit_at_infinity is UNBOUNDED

    def test_mle_scale_unbounded(self):
        curve = lambda x: mle_scale_if(1.0, x)
        summary = sensitivity(curve, NORMAL_SCALE, 0.0, [1.0])
        assert summary.sup_abs is UNBOUNDED
        assert summary.limit_at_infinity is UNBOUNDED

    def test_pareto_probes_at_unit_scale(self):
        # a family without a scale parameter is probed at scale 1: the dense
        # grid starts just above the support's edge x = 1, where the Renyi
        # curve peaks, and the limit is the curve at x = 50
        theta = [2.0]
        summary = sensitivity(lambda x: if_renyi(PARETO, 0.5, theta, x), PARETO, 0.5, theta)
        assert summary.sup_abs == pytest.approx(6.125, rel=1e-7)
        assert summary.limit_at_infinity == if_renyi(PARETO, 0.5, theta, 50.0)[0]
        assert summary.limit_at_infinity == pytest.approx(-0.21988, abs=1e-5)
        mle = sensitivity(lambda x: if_mle(PARETO, theta, x), PARETO, 0.0, theta)
        assert mle.sup_abs is UNBOUNDED and mle.limit_at_infinity is UNBOUNDED


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

    def test_two_component_csv_bytes(self):
        # 17 significant digits per cell, the same rule as the study report's
        spec = EstimatorSpec(kind="power-pseudo", alpha=0.5)
        values = [[0.1, -2.0 / 3.0], [1e-20, 12345678.9], [-0.0, np.float64(1.0) / 3.0]]
        curve = InfluenceCurve(spec, np.array([0.0, 1.0]), np.array([-1.0, 0.5, 3.0]), np.array(values))
        assert curve.to_csv() == (
            "x,if_component_1,if_component_2\n"
            "-1,0.10000000000000001,-0.66666666666666663\n"
            "0.5,9.9999999999999995e-21,12345678.9\n"
            "3,-0,0.33333333333333331\n"
        )
        fitted = influence_curve(NORMAL, spec, [0.3, 1.2], np.linspace(-3.0, 3.0, 4))
        if __cpu_features__.get("X86_V4"):
            assert fitted.to_csv() == (
                "x,if_component_1,if_component_2\n"
                "-3,-0.91529865380162434,1.8561569492298571\n"
                "-1,-1.7809717616575047,0.59027476086084452\n"
                "1,1.1811083458514617,-0.49051819726895929\n"
                "3,1.399093371661124,2.0840938732957976\n"
            )
        else:
            # numpy's exp and log without AVX-512 round differently in the
            # last bit; recorded with NPY_DISABLE_CPU_FEATURES=X86_V4
            assert fitted.to_csv() == (
                "x,if_component_1,if_component_2\n"
                "-3,-0.91529865380162445,1.8561569492298571\n"
                "-1,-1.7809717616575047,0.59027476086084452\n"
                "1,1.1811083458514617,-0.4905181972689594\n"
                "3,1.3990933716611238,2.0840938732957976\n"
            )

    @pytest.mark.parametrize(
        "grid,values,match",
        [
            ([1.0, 0.5], np.zeros((2, 1)), "strictly increasing"),
            ([0.5, 1.0], np.zeros((3, 1)), "one row per grid point"),
            ([0.5, 1.0], np.array([[0.0], [math.nan]]), "finite"),
            ([0.0, math.nan, 1.0], np.zeros((3, 1)), "grid points must be finite, got nan"),
            ([0.0, math.inf], np.zeros((2, 1)), "grid points must be finite, got inf"),
        ],
        ids=["grid-decreasing", "row-count", "non-finite", "grid-nan", "grid-inf"],
    )
    def test_invalid_curve_rejected(self, grid, values, match):
        spec = EstimatorSpec(kind="mle")
        with pytest.raises(InvalidInputError, match=match):
            InfluenceCurve(spec, np.array([0.0]), np.array(grid), values)

    @pytest.mark.parametrize("numeric", [False, True])
    @pytest.mark.parametrize(
        "grid", [[0.0, math.inf], [-math.inf, 0.0], [0.0, math.nan, 1.0]], ids=["inf-max", "inf-min", "nan"]
    )
    def test_non_finite_grid_rejected_before_evaluation(self, monkeypatch, grid, numeric):
        # the grid is named, and no curve is evaluated on it (the closed
        # form warned and then blamed the values)
        def no_curve(*args, **kwargs):
            raise AssertionError("evaluated a curve")

        monkeypatch.setattr(mindiv.influence, "_model_point_if", no_curve)
        monkeypatch.setattr(mindiv.influence, "if_numeric", no_curve)
        spec = EstimatorSpec(kind="renyi", alpha=0.5)
        with pytest.raises(InvalidInputError, match="grid points must be finite"):
            influence_curve(NORMAL_SCALE, spec, [1.0], np.array(grid), numeric=numeric)

    def test_numeric_route_matches_closed(self):
        spec = EstimatorSpec(kind="power-pseudo", alpha=0.5)
        grid = np.linspace(-2, 2, 5)
        closed = influence_curve(NORMAL_SCALE, spec, [1.0], grid)
        numeric = influence_curve(NORMAL_SCALE, spec, [1.0], grid, numeric=True)
        assert np.max(np.abs(closed.values - numeric.values)) < 1e-3

    def test_numeric_route_fits_base_once(self, monkeypatch):
        # one shared base fit, the contaminated rows solved together, with
        # the same values as the per-point oracle, which refits the base each time
        spec = EstimatorSpec(kind="renyi", alpha=0.5)
        grid = np.linspace(-2, 2, 5)
        q = quadrature_of(NORMAL_SCALE, [1.0])
        per_point = np.stack([if_numeric(NORMAL_SCALE, spec, q, float(x)) for x in grid])
        fit_rows, _ = counting_fits(monkeypatch)
        curve = influence_curve(NORMAL_SCALE, spec, [1.0], grid, numeric=True)
        assert [len(nodes) for nodes, _ in fit_rows] == [1, 10]
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
