"""Tests for the estimator criteria, estimating equations, and drivers."""

import math
import warnings

import numpy as np
import pytest

import mindiv.estimators
from scipy.integrate import quad as scipy_quad
from scipy.optimize import minimize_scalar
from scipy.special import logsumexp

from mindiv import (
    ContaminationModel,
    DegenerateDataError,
    EstimatorSpec,
    InvalidInputError,
    Measure,
    NORMAL,
    NORMAL_LOCATION,
    NORMAL_SCALE,
    PARETO,
    empirical,
    estimate,
    mle,
    power_divergence,
    quadrature_of,
    sub_criterion,
    sub_divergence,
    sample_contaminated,
    sub_psi,
)
from mindiv.estimators import (
    _PSI_TOL,
    KINDS,
    _Rows,
    _moment_fixed_point,
    _pseudo_criterion,
    _pseudo_gradient,
    _renyi_gradient,
    _renyi_neg_log,
    _robust_start,
)


def eta(alpha, mu, x, mu_tilde):
    return np.exp(alpha * (mu_tilde - mu) * (mu_tilde + mu - 2.0 * x) / 2.0)


class TestSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(InvalidInputError):
            EstimatorSpec(kind="bayes")

    def test_sub_super_alpha_range(self):
        with pytest.raises(InvalidInputError, match=r"\[0, 1\)"):
            EstimatorSpec(kind="superdivergence", alpha=1.5)
        with pytest.raises(InvalidInputError, match=r"\[0, 1\)"):
            EstimatorSpec(kind="subdivergence", alpha=1.0, escort=(0.0,))
        EstimatorSpec(kind="power-pseudo", alpha=2.0)
        EstimatorSpec(kind="renyi", alpha=2.0)

    def test_escort_requirements(self):
        with pytest.raises(InvalidInputError, match="escort"):
            EstimatorSpec(kind="subdivergence", alpha=0.5)
        with pytest.raises(InvalidInputError, match="escort"):
            EstimatorSpec(kind="renyi", alpha=0.5, escort=(0.0,))

    def test_negative_alpha(self):
        with pytest.raises(InvalidInputError):
            EstimatorSpec(kind="renyi", alpha=-0.1)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-6])
    def test_tol_finite_positive(self, tol):
        with pytest.raises(InvalidInputError, match="tol"):
            EstimatorSpec(kind="renyi", alpha=0.5, tol=tol)

    @pytest.mark.parametrize("max_iter", [2.5, 3.0, "10", 0])
    def test_max_iter_positive_integer(self, max_iter):
        with pytest.raises(InvalidInputError, match="max_iter"):
            EstimatorSpec(kind="renyi", alpha=0.5, max_iter=max_iter)


class TestSubCriterion:
    def test_diagonal_value(self):
        # both ratio terms equal one when all parameters coincide
        for alpha in (0.25, 0.5, 0.75):
            q = quadrature_of(NORMAL_SCALE, [1.3], 256)
            value = sub_criterion(NORMAL_SCALE, [1.3], [1.3], q, alpha)
            assert value == pytest.approx(1.0 / (1.0 - alpha) + 1.0 / alpha, abs=1e-10)

    def test_location_dual_route(self):
        # tilted-exponential form of the location criterion
        rng = np.random.default_rng(3)
        q = empirical(rng.standard_normal(25))
        alpha, mu = 0.4, 0.8
        for mu_tilde in (-1.0, 0.0, 0.6, 2.0):
            direct = sub_criterion(NORMAL_LOCATION, [mu], [mu_tilde], q, alpha)
            form = (eta(alpha, mu, mu, mu_tilde) ** (alpha - 1.0)) / (1.0 - alpha) + (
                q.weights @ eta(alpha, mu, q.nodes, mu_tilde)
            ) / alpha
            assert direct == pytest.approx(form, rel=1e-10)

    def test_scale_dual_route(self):
        # rescaled form of the scale criterion in the ratio variable
        rng = np.random.default_rng(4)
        q = empirical(rng.standard_normal(25) * 1.5)
        alpha, sigma = 0.35, 1.2
        for sigma_tilde in (0.7, 1.0, 1.9):
            s = sigma_tilde / sigma
            direct = sub_criterion(NORMAL_SCALE, [sigma], [sigma_tilde], q, alpha)
            form = s**alpha / ((1.0 - alpha) * math.sqrt(alpha * s**2 + 1.0 - alpha)) + (
                q.weights
                @ (s**alpha / alpha * np.exp(alpha * q.nodes**2 * (s**-2 - 1.0) / (2.0 * sigma**2)))
            )
            assert direct == pytest.approx(form, rel=1e-10)

    def test_alpha_one_branch_continuity(self):
        # argmin of the logarithmic branch is the limit of the power branch
        rng = np.random.default_rng(5)
        q = empirical(rng.standard_normal(30) + 0.5)
        mu = 0.2

        def argmin_at(alpha):
            res = minimize_scalar(
                lambda t: sub_criterion(NORMAL_LOCATION, [mu], [t], q, alpha),
                bounds=(-3.0, 3.0),
                method="bounded",
                options={"xatol": 1e-10},
            )
            return res.x

        assert argmin_at(1.0) == pytest.approx(argmin_at(1.0 - 1e-4), abs=1e-3)


class TestSubPsi:
    def test_vanishes_at_model(self):
        q = quadrature_of(NORMAL, [0.2, 1.1], 512)
        value = sub_psi(NORMAL, [1.0, 2.0], [0.2, 1.1], q, 0.5)
        assert np.all(np.abs(value) < 1e-8)

    def test_matches_criterion_gradient(self):
        rng = np.random.default_rng(6)
        q = empirical(rng.standard_normal(20) * 1.4 + 0.3)
        h = 1e-6
        for family, theta, tilde in (
            (NORMAL_LOCATION, [0.5], np.array([0.9])),
            (NORMAL_SCALE, [1.1], np.array([1.7])),
            (NORMAL, [0.5, 1.2], np.array([0.1, 1.5])),
        ):
            psi = sub_psi(family, theta, tilde, q, 0.45)
            for j in range(family.param_dim):
                up, dn = tilde.astype(float).copy(), tilde.astype(float).copy()
                up[j] += h
                dn[j] -= h
                fd = (
                    sub_criterion(family, theta, up, q, 0.45)
                    - sub_criterion(family, theta, dn, q, 0.45)
                ) / (2 * h)
                assert psi[j] == pytest.approx(fd, rel=1e-5, abs=1e-6)

    def test_location_estimating_form(self):
        rng = np.random.default_rng(7)
        q = empirical(rng.standard_normal(15))
        alpha, mu = 0.4, 1.1
        for mu_tilde in (-0.4, 0.3, 1.5):
            got = sub_psi(NORMAL_LOCATION, [mu], [mu_tilde], q, alpha)[0]
            form = (
                q.weights @ ((mu_tilde - q.nodes) * eta(alpha, mu, q.nodes, mu_tilde))
                - alpha * (mu_tilde - mu) * eta(alpha, mu, mu, mu_tilde) ** (alpha - 1.0)
            )
            assert got == pytest.approx(form, rel=1e-10, abs=1e-12)


class TestSubDivergenceBound:
    def test_bounded_by_divergence_with_equality_at_truth(self):
        alpha = 0.5
        theta0 = [1.4]
        q0 = quadrature_of(NORMAL_SCALE, theta0, 512)
        for theta in ([0.9], [1.8]):
            div = power_divergence(NORMAL_SCALE, theta, theta0, alpha, q0)
            for tilde in (0.8, 1.0, 1.4, 2.0, 3.0):
                lower = sub_divergence(NORMAL_SCALE, theta, [tilde], q0, alpha)
                assert lower <= div + 1e-8
            at_truth = sub_divergence(NORMAL_SCALE, theta, theta0, q0, alpha)
            assert at_truth == pytest.approx(div, abs=1e-8)
            away = sub_divergence(NORMAL_SCALE, theta, [2.6], q0, alpha)
            assert away < div - 1e-6


class TestSubdivergenceEstimator:
    def test_mle_reduction_exact(self):
        q = empirical([0.2, -1.4, 2.2, 0.8])
        spec = EstimatorSpec(kind="subdivergence", alpha=0.0, escort=(5.0, 3.0))
        direct = mle(NORMAL, q)
        via = estimate(NORMAL, spec, q)
        assert np.array_equal(via.theta_hat, direct.theta_hat)
        assert via.criterion_value == direct.criterion_value

    def test_fisher_consistent_any_escort(self):
        q = quadrature_of(NORMAL_SCALE, [1.6], 512)
        spec = EstimatorSpec(kind="subdivergence", alpha=0.5, escort=(2.5,))
        result = estimate(NORMAL_SCALE, spec, q)
        assert result.theta_hat[0] == pytest.approx(1.6, abs=1e-6)
        assert result.converged

    def test_escort_equals_truth_identity(self):
        theta0 = np.array([0.3, 1.4])
        q = quadrature_of(NORMAL, theta0, 512)
        spec = EstimatorSpec(kind="subdivergence", alpha=0.5, escort=tuple(theta0))
        result = estimate(NORMAL, spec, q)
        assert np.allclose(result.theta_hat, theta0, atol=1e-8)
        assert np.all(np.abs(sub_psi(NORMAL, theta0, result.theta_hat, q, 0.5)) < 1e-8)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_newton_from_escort_at_n_1e4(self, seed):
        # Cauchy extremes stretch the location box so far that its 33-point
        # scan misses the minimum next to the escort (the bounded search
        # alone stops at criterion inf); Newton from the escort stays there
        model = ContaminationModel(1.0, 0.1, "cauchy")
        q = empirical(0.7 + sample_contaminated(model, 10_000, np.random.default_rng(seed)))
        escort = mle(NORMAL_LOCATION, q).theta_hat
        spec = EstimatorSpec(kind="subdivergence", alpha=0.5, escort=tuple(escort))
        result = estimate(NORMAL_LOCATION, spec, q)
        assert result.converged
        assert result.theta_hat[0] == pytest.approx(escort[0], abs=1e-12)
        assert result.criterion_value <= 1.0 / (1.0 - 0.5) + 1.0 / 0.5
        assert np.max(np.abs(sub_psi(NORMAL_LOCATION, escort, result.theta_hat, q, 0.5))) < _PSI_TOL

    def test_newton_trials_raise_no_warnings(self):
        # damped trial steps far from the escort overflow the data term
        spec = EstimatorSpec(kind="subdivergence", alpha=0.5, escort=(0.3, 1.2))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = estimate(NORMAL, spec, quadrature_of(NORMAL, [0.0, 1.0]))
        assert result.converged
        assert np.allclose(result.theta_hat, [0.0, 1.0], atol=1e-8)

    def test_rejected_newton_falls_back(self, monkeypatch):
        # a Newton try that is not accepted leaves the fit to the box search,
        # whose iteration count then includes the Newton evaluations
        q = empirical(np.random.default_rng(12).standard_normal(40))
        spec = EstimatorSpec(kind="subdivergence", alpha=0.5, escort=(0.3,))
        monkeypatch.setattr(
            mindiv.estimators, "_newton_polish", lambda psi, x0, lo, hi, tol: (x0, math.inf, 7)
        )
        searches = []
        original = mindiv.estimators.solve_1d

        def solve_1d(*args, **kwargs):
            searches.append(original(*args, **kwargs))
            return searches[-1]

        monkeypatch.setattr(mindiv.estimators, "solve_1d", solve_1d)
        result = estimate(NORMAL_LOCATION, spec, q)
        assert len(searches) == 1
        assert result.iterations == 7 + searches[0].iterations
        assert np.array_equal(result.theta_hat, searches[0].x)

    def test_start_point_only_for_2d_search(self, monkeypatch):
        # the MLE start is built for Nelder-Mead only; a 1-d search ignores it
        calls = []
        original = mindiv.estimators._start_point
        monkeypatch.setattr(
            mindiv.estimators, "_start_point", lambda *args: calls.append(args) or original(*args)
        )
        xs = PARETO.sample([2.0], 30, np.random.default_rng(14))
        estimate(PARETO, EstimatorSpec(kind="power-pseudo", alpha=0.5), empirical(xs))
        assert calls == []
        # zero MAD: the fixed point takes no step and Nelder-Mead runs
        estimate(NORMAL, EstimatorSpec(kind="renyi", alpha=0.5), empirical([0.0] * 6 + [1.0, -2.0, 3.0]))
        assert len(calls) == 1

    def test_location_consistency_loss(self):
        # unit-scale location submodel fed data of scale 2: the fixed point
        # moves away from the true location when the escort is off-target
        spec = EstimatorSpec(kind="subdivergence", alpha=0.5, escort=(1.0,))
        wide = estimate(NORMAL_LOCATION, spec, quadrature_of(NORMAL_SCALE, [2.0], 512))
        assert abs(wide.theta_hat[0]) > 0.01
        exact = estimate(NORMAL_LOCATION, spec, quadrature_of(NORMAL_SCALE, [1.0], 512))
        assert abs(exact.theta_hat[0]) < 1e-6


def gross_outlier_sample(family, n=30, seed=4):
    """Sample with 10% gross outliers: 50 for the normal kinds, 1e4 for Pareto."""
    rng = np.random.default_rng(seed)
    if family is PARETO:
        xs = PARETO.sample([2.0], n, rng)
        xs[: n // 10] = 1e4
    else:
        xs = rng.standard_normal(n) * 1.3 + 0.4
        xs[: n // 10] = 50.0
    return empirical(xs)


# Which coordinates of each family are locations (the rest are positive).
GRID_LOCATION = {"normal": (True, False), "normal-loc": (True,), "normal-scale": (False,), "pareto": (False,)}


def about_mle(family, theta, u):
    """Parameters at offsets ``u`` (one column per coordinate) from the MLE
    ``theta``: in steps of the fitted scale for a location, as a log-factor
    for a scale or shape.  ``u = 0`` gives ``theta`` exactly."""
    out = np.empty_like(u)
    for i, (value, location) in enumerate(zip(theta, GRID_LOCATION[family.name])):
        unit = theta[1] if family is NORMAL else 1.0
        out[:, i] = value + 2.0 * unit * u[:, i] if location else value * np.exp(u[:, i])
    return out


SUPER_FAMILIES = [NORMAL, NORMAL_LOCATION, NORMAL_SCALE, PARETO]
SUPER_ALPHAS = [0.1, 0.5, 0.9]


class TestSuperdivergenceEstimator:
    # The estimator maximizes h(theta) = min_t M(theta, t) with
    # M = sub_criterion; on every family here that maximizer is the MLE,
    # with h = c = 1/(1-a) + 1/a.  The grid test checks that identity on M
    # itself, without the estimator.

    def test_mle_reduction(self):
        q = empirical([1.0, 2.0, 4.0])
        spec = EstimatorSpec(kind="superdivergence", alpha=0.0)
        assert np.array_equal(
            estimate(NORMAL, spec, q).theta_hat, mle(NORMAL, q).theta_hat
        )

    @pytest.mark.parametrize("alpha", SUPER_ALPHAS)
    @pytest.mark.parametrize("family", SUPER_FAMILIES, ids=lambda f: f.name)
    def test_estimate_is_mle(self, family, alpha):
        q = gross_outlier_sample(family)
        result = estimate(family, EstimatorSpec(kind="superdivergence", alpha=alpha), q)
        assert np.array_equal(result.theta_hat, mle(family, q).theta_hat)
        assert result.criterion_value == 1.0 / (1.0 - alpha) + 1.0 / alpha
        assert result.converged and result.iterations == 0

    @pytest.mark.parametrize("alpha", SUPER_ALPHAS)
    @pytest.mark.parametrize("family", SUPER_FAMILIES, ids=lambda f: f.name)
    def test_brute_force_max_min_is_mle(self, family, alpha):
        # theta grid about the MLE (which it contains); the t grid puts
        # 3 points per axis, a step of 1e-3 grid cells apart, at every
        # theta, so it holds each theta and its close neighbours
        q = gross_outlier_sample(family)
        theta_mle = mle(family, q).theta_hat
        c = 1.0 / (1.0 - alpha) + 1.0 / alpha
        d = family.param_dim
        axis = np.linspace(-1.0, 1.0, 5 if d == 2 else 11)
        cells = np.stack(np.meshgrid(*[axis] * d, indexing="ij"), axis=-1).reshape(-1, d)
        nudge = 1e-3 * (axis[1] - axis[0]) * np.array([-1.0, 0.0, 1.0])
        offsets = np.stack(np.meshgrid(*[nudge] * d, indexing="ij"), axis=-1).reshape(-1, d)
        thetas = about_mle(family, theta_mle, cells)
        # M(mle, t) >= c on the whole t grid: h reaches its bound c at the MLE
        t_grid = about_mle(family, theta_mle, (cells[:, None, :] + offsets).reshape(-1, d))
        m_at_mle = [sub_criterion(family, theta_mle, t, q, alpha) for t in t_grid]
        assert min(m_at_mle) >= c - 1e-12
        # h(theta) < c at every other theta: some t next to it lies below c
        for cell, theta in zip(cells, thetas):
            if not cell.any():
                continue
            near = about_mle(family, theta_mle, cell + offsets)
            assert min(sub_criterion(family, theta, t, q, alpha) for t in near) < c

    def test_fisher_consistency_with_inner(self):
        # at the model the estimate is the true scale, and the inner
        # argmin over the escort t of M(theta_hat, t) is theta_hat itself
        q = quadrature_of(NORMAL_SCALE, [1.6], 512)
        spec = EstimatorSpec(kind="superdivergence", alpha=0.5)
        result = estimate(NORMAL_SCALE, spec, q)
        assert result.theta_hat[0] == pytest.approx(1.6, abs=1e-5)
        inner = minimize_scalar(
            lambda t: sub_criterion(NORMAL_SCALE, result.theta_hat, [t], q, 0.5),
            bounds=(1.0, 2.5),
            method="bounded",
            options={"xatol": 1e-10},
        )
        assert inner.x == pytest.approx(1.6, abs=1e-5)
        assert inner.fun >= result.criterion_value - 1e-12

    def test_stationarity_certificate(self):
        # (theta_hat, theta_hat) is a stationary point of M: the theta
        # gradient (sub_psi) and a central difference in t both vanish
        rng = np.random.default_rng(8)
        q = empirical(rng.standard_normal(40) * 1.5)
        spec = EstimatorSpec(kind="superdivergence", alpha=0.4)
        result = estimate(NORMAL_SCALE, spec, q)
        assert result.converged
        theta = result.theta_hat
        residual = sub_psi(NORMAL_SCALE, theta, theta, q, 0.4)
        assert np.all(np.abs(residual) < 1e-8)
        h = 1e-5
        t_slope = (
            sub_criterion(NORMAL_SCALE, theta, theta + h, q, 0.4)
            - sub_criterion(NORMAL_SCALE, theta, theta - h, q, 0.4)
        ) / (2.0 * h)
        assert abs(t_slope) < 1e-8

    @pytest.mark.parametrize("seed", [2, 3, 4, 5, 6, 8])
    def test_no_breakdown_on_cauchy_contamination(self, seed):
        # 10% Cauchy outliers of scale 50: the fit is the MLE, with no
        # search that could stop on its box or leak a numpy warning
        rng = np.random.default_rng(seed)
        xs = rng.standard_normal(60) * 1.3 + 0.4
        xs[:6] = 50.0 * rng.standard_cauchy(6)
        q = empirical(xs)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = estimate(NORMAL_LOCATION, EstimatorSpec(kind="superdivergence", alpha=0.9), q)
        assert result.converged
        assert result.criterion_value == 1.0 / (1.0 - 0.9) + 1.0 / 0.9
        assert np.array_equal(result.theta_hat, mle(NORMAL_LOCATION, q).theta_hat)


class TestPowerPseudoEstimator:
    def test_fisher_consistency(self):
        q = quadrature_of(PARETO, [2.0], 512)
        spec = EstimatorSpec(kind="power-pseudo", alpha=1.0)
        assert estimate(PARETO, spec, q).theta_hat[0] == pytest.approx(2.0, abs=1e-6)

    def test_order_one_is_least_squares_fit(self):
        # at order one the criterion is the integrated squared-density
        # contrast; an independent brute-force argmin must agree
        rng = np.random.default_rng(9)
        xs = rng.standard_normal(60) * 1.2
        q = empirical(xs)
        spec = EstimatorSpec(kind="power-pseudo", alpha=1.0)
        got = estimate(NORMAL_SCALE, spec, q).theta_hat[0]

        def l2_criterion(sigma):
            mass = 1.0 / (2.0 * math.sqrt(math.pi) * sigma)
            dens = np.exp(-(xs**2) / (2 * sigma**2)) / (sigma * math.sqrt(2 * math.pi))
            return mass - 2.0 * dens.mean()

        oracle = minimize_scalar(
            l2_criterion, bounds=(0.1, 10.0), method="bounded", options={"xatol": 1e-10}
        ).x
        assert got == pytest.approx(oracle, abs=1e-6)

    def test_small_order_continuity(self):
        rng = np.random.default_rng(10)
        q = empirical(rng.standard_normal(50))
        at_zero = estimate(NORMAL, EstimatorSpec(kind="power-pseudo", alpha=0.0), q)
        near_zero = estimate(NORMAL, EstimatorSpec(kind="power-pseudo", alpha=1e-3), q)
        assert np.all(np.abs(near_zero.theta_hat - at_zero.theta_hat) < 1e-3)


class TestRenyiEstimator:
    def test_location_matches_power_pseudo(self):
        # constant normalizer: the two estimators share their maximizer
        rng = np.random.default_rng(11)
        q = empirical(rng.standard_normal(35) + 0.7)
        for alpha in (0.3, 1.0):
            renyi = estimate(NORMAL_LOCATION, EstimatorSpec(kind="renyi", alpha=alpha), q)
            pseudo = estimate(
                NORMAL_LOCATION, EstimatorSpec(kind="power-pseudo", alpha=alpha), q
            )
            assert renyi.theta_hat[0] == pytest.approx(pseudo.theta_hat[0], abs=1e-8)

    def test_fisher_consistency_scale(self):
        q = quadrature_of(NORMAL_SCALE, [1.6], 512)
        spec = EstimatorSpec(kind="renyi", alpha=0.5)
        assert estimate(NORMAL_SCALE, spec, q).theta_hat[0] == pytest.approx(1.6, abs=1e-6)

    @pytest.mark.parametrize("outlier", [None, 1e6])
    @pytest.mark.parametrize(
        "family,theta", [(NORMAL_SCALE, [1.3]), (NORMAL_SCALE, [1e-4]), (NORMAL, [0.2, 1e-4])]
    )
    def test_criterion_matches_logsumexp(self, family, theta, outlier):
        # at scale 1e-4 every tilted density underflows unless the log-sum
        # is shifted by its largest term
        xs = np.random.default_rng(13).standard_normal(50)
        q = empirical(xs if outlier is None else np.append(xs, outlier))
        a = 0.5
        lp = family.log_density(theta, q.nodes)
        want = math.log(family.renyi_normalizer(theta, a)) - logsumexp(np.log(q.weights) + a * lp)
        assert _renyi_neg_log(family, theta, q, a) == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_single_point_separation(self):
        # one observation with alpha x^2 = 2: closed-form Renyi scale is
        # sqrt(1 + alpha) |x|, and the power-pseudo estimate must differ
        q = empirical([2.0])
        renyi = estimate(NORMAL_SCALE, EstimatorSpec(kind="renyi", alpha=0.5), q)
        pseudo = estimate(NORMAL_SCALE, EstimatorSpec(kind="power-pseudo", alpha=0.5), q)
        assert renyi.theta_hat[0] == pytest.approx(math.sqrt(1.5) * 2.0, abs=1e-6)
        assert abs(renyi.theta_hat[0] - pseudo.theta_hat[0]) > 1e-3


class TestNormalScaleOffsetSample:
    @pytest.mark.parametrize("kind", ["power-pseudo", "renyi"])
    def test_scale_box_about_zero(self, kind):
        # the scale model is centred at 0: its search box must cover the
        # spread about 0 (about 100 here), not the spread about the mean
        xs = 100.0 + 0.01 * np.random.default_rng(17).standard_normal(50)
        q = empirical(xs)
        ((lo, hi),) = NORMAL_SCALE.default_bounds(q.nodes, q.weights)
        result = estimate(NORMAL_SCALE, EstimatorSpec(kind=kind, alpha=0.5), q)
        assert result.converged
        assert lo < result.theta_hat[0] < hi
        if kind == "renyi":
            # closed form: sqrt(1 + alpha) times the root mean square
            assert result.theta_hat[0] == pytest.approx(math.sqrt(1.5 * np.mean(xs**2)), rel=1e-6)


def outlier_sample(magnitude):
    # 95 standard normal draws plus 5 identical gross outliers
    return np.append(np.random.default_rng(1).standard_normal(95), np.full(5, magnitude))


def cauchy_1e4_sample():
    # 10% of 100 draws replaced by Cauchy draws scaled by 1e4
    rng = np.random.default_rng(2)
    mask = rng.random(100) < 0.1
    return np.where(mask, 1e4 * rng.standard_cauchy(100), rng.standard_normal(100))


ROBUST_KINDS = ["power-pseudo", "renyi"]


class TestBreakdown:
    # The bounded search alone builds its box from the sample range and
    # spread, so gross outliers put the clean fit outside it or far from
    # its start; the median/MAD-started fixed point must not break down.

    @pytest.mark.parametrize("kind", ROBUST_KINDS)
    def test_normal_outliers(self, kind):
        result = estimate(NORMAL, EstimatorSpec(kind=kind, alpha=0.5), empirical(outlier_sample(1e6)))
        assert result.converged
        mu, sigma = result.theta_hat
        assert abs(mu) < 0.5 and 0.5 <= sigma <= 2.0

    @pytest.mark.parametrize("kind", ROBUST_KINDS)
    def test_location_outliers(self, kind):
        q = empirical(outlier_sample(1e6))
        result = estimate(NORMAL_LOCATION, EstimatorSpec(kind=kind, alpha=0.5), q)
        assert result.converged
        assert abs(result.theta_hat[0]) < 0.5

    @pytest.mark.parametrize("kind", ROBUST_KINDS)
    def test_scale_cauchy_1e4(self, kind):
        q = empirical(cauchy_1e4_sample())
        result = estimate(NORMAL_SCALE, EstimatorSpec(kind=kind, alpha=0.5), q)
        assert result.converged
        assert 0.5 <= result.theta_hat[0] <= 2.0

    @pytest.mark.parametrize("kind", ROBUST_KINDS)
    def test_outlier_magnitude_sweep(self, kind):
        spec = EstimatorSpec(kind=kind, alpha=0.5)
        for magnitude in 10.0 ** np.arange(2, 9):
            result = estimate(NORMAL, spec, empirical(outlier_sample(magnitude)))
            mu, sigma = result.theta_hat
            assert result.converged, magnitude
            assert abs(mu) < 0.5 and 0.5 <= sigma <= 2.0, magnitude


# Parameter rows of each family and the weighted samples of each row (row
# 0 carries an outlier).
ROW_CASES = [
    (NORMAL, [[0.3, 1.7], [-1.0, 0.4], [2.0, 3.0], [0.2, 1e-3], [1e3, 50.0]]),
    (NORMAL_LOCATION, [[-0.4], [0.0], [3.0], [1e3], [-2.5]]),
    (NORMAL_SCALE, [[0.6], [1.0], [1e-3], [40.0], [2.2]]),
    (PARETO, [[0.5], [2.0], [1e-2], [30.0], [1.1]]),
]
EQUATIONS = [
    (_pseudo_criterion, _pseudo_gradient),
    (_renyi_neg_log, _renyi_gradient),
]


def row_sample(family, rows, n=40, seed=22):
    rng = np.random.default_rng(seed)
    if family is PARETO:
        x = (1.0 - rng.random((rows, n))) ** -0.5
        x[0, 0] = 1e6
    else:
        x = 1.5 * rng.standard_normal((rows, n)) + 0.2
        x[0, 0] = 30.0
    w = rng.random((rows, n)) + 0.5
    return _Rows(x, w / w.sum(axis=1, keepdims=True))


class TestTiltedEquations:
    @pytest.mark.parametrize("alpha", [0.3, 2.0])
    @pytest.mark.parametrize("family,thetas", ROW_CASES)
    def test_rows_equal_single_calls(self, family, thetas, alpha):
        theta = np.array(thetas)
        q = row_sample(family, len(theta))
        for equation in (f for pair in EQUATIONS for f in pair):
            rows = equation(family, theta, q, alpha)
            singles = np.array(
                [equation(family, t, Measure(x, w), alpha) for t, x, w in zip(theta, *q)]
            )
            assert rows.shape == singles.shape
            assert rows.tobytes() == singles.tobytes(), equation.__name__
            # a row does not depend on the other rows
            part = equation(family, theta[1:3], _Rows(q.nodes[1:3], q.weights[1:3]), alpha)
            assert part.tobytes() == rows[1:3].tobytes(), equation.__name__

    @pytest.mark.parametrize("alpha", [0.3, 2.0])
    @pytest.mark.parametrize("criterion,gradient", EQUATIONS)
    @pytest.mark.parametrize("family,thetas", ROW_CASES)
    def test_psi_is_criterion_gradient(self, family, thetas, criterion, gradient, alpha):
        # power-pseudo psi is the gradient of its criterion; Renyi psi is
        # that of its negative log criterion divided by alpha
        scale = alpha if criterion is _renyi_neg_log else 1.0
        q = row_sample(family, 1)
        q = Measure(q.nodes[0], q.weights[0])
        for theta in np.array(thetas[:3]):
            got = gradient(family, theta, q, alpha)
            for j in range(family.param_dim):
                h = 1e-5 * abs(theta[j]) + 1e-7
                up, dn = theta.copy(), theta.copy()
                up[j] += h
                dn[j] -= h
                fd = (criterion(family, up, q, alpha) - criterion(family, dn, q, alpha)) / (2.0 * h)
                assert got[j] == pytest.approx(fd / scale, rel=1e-6, abs=1e-9)

    @pytest.mark.parametrize("alpha", [0.3, 2.0])
    @pytest.mark.parametrize("family,thetas", ROW_CASES)
    def test_pseudo_criterion_formula(self, family, thetas, alpha):
        # int p^(1 + a) / (1 + a) - sum q p^a / a, the integral by adaptive
        # quadrature over the support
        q = row_sample(family, 1)
        q = Measure(q.nodes[0], q.weights[0])
        for theta in np.array(thetas[:3]):
            power = lambda x: family.density(theta, x) ** (1.0 + alpha)
            if family is PARETO:
                u_max = 50.0 / ((theta[0] + 1.0) * (1.0 + alpha) - 1.0)
                mass = scipy_quad(
                    lambda u: power(math.exp(u)) * math.exp(u), 0.0, u_max, epsabs=0.0, epsrel=1e-12, limit=400
                )[0]
            else:
                mu = theta[0] if family is not NORMAL_SCALE else 0.0
                sigma = theta[-1] if family is not NORMAL_LOCATION else 1.0
                mass = scipy_quad(
                    power, mu - 12.0 * sigma, mu + 12.0 * sigma, epsabs=0.0, epsrel=1e-12, limit=400
                )[0]
            want = mass / (1.0 + alpha) - np.sum(q.weights * family.density(theta, q.nodes) ** alpha) / alpha
            assert _pseudo_criterion(family, theta, q, alpha) == pytest.approx(want, rel=1e-9, abs=1e-12)


class TestMomentFixedPoint:
    @pytest.mark.parametrize("kind", ROBUST_KINDS)
    @pytest.mark.parametrize("family", [NORMAL, NORMAL_LOCATION, NORMAL_SCALE])
    def test_accepted_rows_pass_scalar_checks(self, kind, family):
        # every accepted row: the scalar estimating equation is below
        # _PSI_TOL and the scalar criterion is no higher than at the start
        rng = np.random.default_rng(8)
        xs = rng.standard_normal((12, 60)) + 0.5
        xs[:, :6] = 20.0 * rng.standard_cauchy((12, 6))
        ws = np.full(xs.shape, 1.0 / xs.shape[1])
        spec = EstimatorSpec(kind=kind, alpha=0.5)
        theta, accepted, iterations = _moment_fixed_point(family, spec, xs, ws)
        assert accepted.all() and np.all(iterations >= 1)
        mu0, sigma0 = _robust_start(family, xs, ws)
        start = np.stack([mu0, sigma0], axis=1)[:, list(family._free)]
        criterion, gradient = (
            (_renyi_neg_log, _renyi_gradient) if kind == "renyi" else (_pseudo_criterion, _pseudo_gradient)
        )
        for row, th, th0 in zip(xs, theta, start):
            q = empirical(row)
            assert np.max(np.abs(gradient(family, th, q, 0.5))) < _PSI_TOL
            assert criterion(family, th, q, 0.5) <= criterion(family, th0, q, 0.5)

    @pytest.mark.parametrize("kind", ROBUST_KINDS)
    def test_rows_independent_of_batch(self, kind):
        rng = np.random.default_rng(6)
        xs = rng.standard_normal((9, 50)) * 1.5 - 0.3
        xs[::2, :5] = 1e3 * rng.standard_cauchy((5, 5))
        ws = np.full(xs.shape, 1.0 / xs.shape[1])
        spec = EstimatorSpec(kind=kind, alpha=0.5)
        theta, accepted, iterations = _moment_fixed_point(NORMAL, spec, xs, ws)
        for j in range(len(xs)):
            one = _moment_fixed_point(NORMAL, spec, xs[j : j + 1], ws[j : j + 1])
            assert np.array_equal(one[0][0], theta[j])
            assert one[1][0] == accepted[j] and one[2][0] == iterations[j]

    def test_iterations_reported(self):
        q = empirical(np.random.default_rng(4).standard_normal(80) * 2.0 + 1.0)
        spec = EstimatorSpec(kind="renyi", alpha=0.5)
        result = estimate(NORMAL, spec, q)
        _, _, iterations = _moment_fixed_point(NORMAL, spec, q.nodes[None], q.weights[None])
        assert result.converged
        assert result.iterations >= 1
        assert result.iterations == iterations[0]

    def test_zero_mad_falls_back(self, monkeypatch):
        # more than half the sample at one value: the MAD start is zero, so
        # the fixed point takes no step and the bounded search runs alone
        q = empirical([0.0] * 6 + [1.0, -2.0, 3.0])
        spec = EstimatorSpec(kind="renyi", alpha=0.5)
        _, accepted, iterations = _moment_fixed_point(NORMAL_SCALE, spec, q.nodes[None], q.weights[None])
        assert not accepted[0] and iterations[0] == 0
        searches = []
        original = mindiv.estimators.solve_1d

        def solve_1d(*args, **kwargs):
            searches.append(original(*args, **kwargs))
            return searches[-1]

        monkeypatch.setattr(mindiv.estimators, "solve_1d", solve_1d)
        result = estimate(NORMAL_SCALE, spec, q)
        assert len(searches) == 1
        assert result.iterations == searches[0].iterations
        assert np.array_equal(result.theta_hat, searches[0].x)


class TestMLE:
    def test_normal_example(self):
        result = mle(NORMAL, empirical([-1.0, 1.0]))
        assert np.array_equal(result.theta_hat, [0.0, 1.0])
        assert result.converged and result.iterations == 0

    def test_pareto_example(self):
        assert mle(PARETO, empirical([math.e, math.e])).theta_hat[0] == pytest.approx(1.0)

    def test_weighted_fisher_consistency(self):
        q = quadrature_of(NORMAL, [0.4, 1.3], 512)
        assert np.allclose(mle(NORMAL, q).theta_hat, [0.4, 1.3], atol=1e-8)
        qp = quadrature_of(PARETO, [2.0], 512)
        assert mle(PARETO, qp).theta_hat[0] == pytest.approx(2.0, abs=1e-8)

    def test_degenerate_pareto(self):
        with pytest.raises(DegenerateDataError):
            mle(PARETO, empirical([1.0, 1.0]))


class TestParetoSupportBoundary:
    @pytest.mark.parametrize("kind", KINDS)
    def test_observation_at_one(self, kind):
        # x = 1 lies in the support [1, inf): every kind fits such a sample
        xs = np.append(PARETO.sample([2.0], 19, np.random.default_rng(3)), 1.0)
        spec = EstimatorSpec(
            kind=kind,
            alpha=0.0 if kind == "mle" else 0.5,
            escort=(2.0,) if kind == "subdivergence" else None,
        )
        result = estimate(PARETO, spec, empirical(xs))
        assert result.converged
        assert 1.0 < result.theta_hat[0] < 5.0


class TestDeterminism:
    def test_bit_identical_runs(self):
        rng = np.random.default_rng(12)
        q = empirical(rng.standard_normal(30) * 2.0)
        for spec in (
            EstimatorSpec(kind="power-pseudo", alpha=0.5),
            EstimatorSpec(kind="renyi", alpha=0.5),
            EstimatorSpec(kind="superdivergence", alpha=0.5),
        ):
            a = estimate(NORMAL_SCALE, spec, q)
            b = estimate(NORMAL_SCALE, spec, q)
            assert np.array_equal(a.theta_hat, b.theta_hat)
            assert a.criterion_value == b.criterion_value
            assert a.iterations == b.iterations
