"""Tests for the estimator criteria, estimating equations, and drivers."""

import math
import pickle
import warnings

import numpy as np
import pytest

import mindiv.estimators
from numpy._core._multiarray_umath import __cpu_features__
from scipy.integrate import quad as scipy_quad
from scipy.optimize import minimize_scalar
from scipy.special import logsumexp

from mindiv import (
    ContaminationModel,
    DegenerateDataError,
    DomainError,
    EstimationError,
    EstimatorSpec,
    InvalidInputError,
    Measure,
    NORMAL,
    NORMAL_LOCATION,
    NORMAL_SCALE,
    PARETO,
    empirical,
    estimate,
    influence_curve,
    mle,
    power_divergence,
    quadrature_of,
    renyi_pseudodistance,
    sub_criterion,
    sub_divergence,
    sample_contaminated,
    sub_psi,
)
from mindiv.estimators import (
    _FP_STEP_TOL,
    _MAX_ITER,
    _PSI_TOL,
    KINDS,
    _Rows,
    _fallback,
    _fit_rows,
    _moment_fixed_point,
    _power_gradient,
    _pseudo_criterion,
    _renyi_gradient,
    _renyi_neg_log,
    _rows,
    _sub_criterion,
    _tilt,
)


def at(equation, family, theta, q, spec):
    """``equation`` at ``theta`` on its tilt there, as the fit drivers call it."""
    return equation(family, theta, q, spec, _tilt(family, spec, theta, q))


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

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5])
    def test_alpha_outside_open_unit_interval(self, alpha):
        q = empirical([0.1, -0.4, 1.2])
        for function in (sub_criterion, sub_psi, sub_divergence):
            with pytest.raises(DomainError, match=r"alpha in \(0, 1\)"):
                function(NORMAL_LOCATION, [0.0], [0.2], q, alpha)


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

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.9])
    @pytest.mark.parametrize(
        "family,theta,escort,tol",
        [
            (NORMAL, [0.2, 1.3], [1.1, 0.8], 1e-12),
            (NORMAL_LOCATION, [0.5], [-0.9], 1e-12),
            (NORMAL_SCALE, [1.4], [0.7], 1e-12),
            (PARETO, [2.0], [3.5], 1e-10),
        ],
        ids=lambda v: getattr(v, "name", None),
    )
    def test_model_term_matches_quadrature(self, family, theta, escort, alpha, tol):
        # the closed-form model term, int p_theta^(1-a) p_escort^a s_theta,
        # against 512 Gauss-Legendre nodes covering both members (on log x
        # for Pareto, whose tail beyond the window is below e^-40); sub_psi
        # on one point mass plus that point's data term leaves the model term
        u, wu = np.polynomial.legendre.leggauss(512)
        if family is PARETO:
            span = 40.0 / ((1.0 - alpha) * theta[0] + alpha * escort[0])
            x = np.exp(0.5 * span * (u + 1.0))
            wx = 0.5 * span * wu * x
            point = 1.7
        else:
            (m, s), (m_e, s_e) = family._loc_scale(np.array(theta)), family._loc_scale(np.array(escort))
            lo, hi = min(m - 12.0 * s, m_e - 12.0 * s_e), max(m + 12.0 * s, m_e + 12.0 * s_e)
            x, wx = 0.5 * (hi + lo) + 0.5 * (hi - lo) * u, 0.5 * (hi - lo) * wu
            point = 0.4
        product = np.exp((1.0 - alpha) * family.log_density(theta, x) + alpha * family.log_density(escort, x))
        want = (wx * product) @ family.score(theta, x)
        ratio = math.exp(alpha * (family.log_density(escort, point) - family.log_density(theta, point)))
        got = sub_psi(family, escort, theta, empirical([point]), alpha) + ratio * family.score(theta, point)
        np.testing.assert_allclose(got, want, rtol=tol, atol=tol)


# (family, truth, thetas, escorts tried, an escort away from the truth)
BOUND_CASES = [
    (NORMAL_SCALE, [1.4], [[0.9], [1.8]], [[0.8], [1.0], [1.4], [2.0], [3.0]], [2.6]),
    (NORMAL_LOCATION, [0.4], [[-0.3], [1.2]], [[-1.0], [0.0], [0.4], [1.0], [2.0]], [2.5]),
    (NORMAL, [0.4, 1.4], [[-0.3, 0.9], [1.2, 1.8]],
     [[-1.0, 0.8], [0.4, 1.4], [0.4, 1.0], [1.0, 2.0], [0.4, 3.0]], [2.5, 2.6]),
    (PARETO, [2.0], [[1.5], [3.0]], [[1.2], [1.6], [2.0], [2.5], [4.0]], [6.0]),
]


class TestSubDivergenceBound:
    def test_bounded_by_divergence_with_equality_at_truth(self):
        # the duality: over the second parameter, sub_divergence is at most
        # D(P_theta, P_theta0), with equality at theta0, the law generating
        # q0 (up to q0's quadrature error on Pareto)
        alpha = 0.5
        for family, theta0, thetas, tildes, far in BOUND_CASES:
            q0 = quadrature_of(family, theta0, 512)
            for theta in thetas:
                div = power_divergence(family, theta, theta0, alpha)
                for tilde in tildes:
                    lower = sub_divergence(family, theta, tilde, q0, alpha)
                    assert lower <= div + 1e-8
                at_truth = sub_divergence(family, theta, theta0, q0, alpha)
                assert at_truth == pytest.approx(div, abs=1e-8)
                away = sub_divergence(family, theta, far, q0, alpha)
                assert away < div - 1e-6


# (family, sample, escort, theta) and, at alpha 0.25 and 0.5: sub_criterion,
# sub_psi, sub_divergence and renyi_pseudodistance against the escort's
# density at orders alpha and 2 alpha, as float.hex
HELPER_CASES = [
    (NORMAL, [-1.2, 0.3, 0.8, 2.5, 9.0], (0.2, 1.1), (0.5, 1.6), {
        0.25: ["0x1.1e3589353b59ep+2", "-0x1.7cbc7d7583b7fp-5", "0x1.64153f8068278p-6", "0x1.b8fe6100cfdb8p-1",
               "0x1.02cee3d8eb940p-3", "0x1.4ae819bd87930p-3"],
        0.5: ["0x1.c2cdeebb050acp+1", "-0x1.25626717d4a70p-5", "0x1.4659ba4358630p-6", "0x1.e9908a27d7aa0p-2",
              "0x1.4ae819bd87930p-3", "0x1.48d70d124df68p-3"],
    }),
    (NORMAL_LOCATION, [-1.2, 0.3, 0.8, 2.5, 9.0], (0.2,), (0.5,), {
        0.25: ["0x1.395bd77ad0a07p+2", "-0x1.e0f05e5cdafe9p-1", "0x1.bf97dda84b4e0p-2", "0x1.b50f3afcc68b0p-3",
               "0x1.daacc128ed660p-3"],
        0.5: ["0x1.d4417d7218130p+1", "-0x1.f50d047beba1fp-2", "0x1.5df4146f3f680p-2", "0x1.daacc128ed660p-3",
              "0x1.a7551646328e0p-3"],
    }),
    (NORMAL_SCALE, [-1.2, 0.3, 0.8, 2.5, 9.0], (1.1,), (1.6,), {
        0.25: ["0x1.1dca1afcfce4ep+2", "-0x1.32231fbd4ccd8p-5", "0x1.bc59d2c2c3838p-1", "0x1.311384d8e6890p-3",
               "0x1.74db66f526128p-3"],
        0.5: ["0x1.c2261899a3464p+1", "-0x1.58ed31dbc7f38p-6", "0x1.eecf3b32e5ce0p-2", "0x1.74db66f526128p-3",
              "0x1.6c4f80eb4c904p-3"],
    }),
    (PARETO, [1.0, 1.3, 2.2, 4.0, 40.0], (2.0,), (1.4,), {
        0.25: ["0x1.41705ce627c03p+2", "0x1.4ca2249893479p-2", "0x1.3e4f86f2d9520p-2", "0x1.309f5444e1448p-3",
               "0x1.aff71aab846ccp-3"],
        0.5: ["0x1.dea7f37a9e5fep+1", "0x1.ab27ba149d77cp-3", "0x1.0ac0642b0d010p-2", "0x1.aff71aab846ccp-3",
              "0x1.5323540963edfp-3"],
    }),
]


# the values above that differ where numpy has no AVX-512 (X86_V4) exp and
# log, recorded with NPY_DISABLE_CPU_FEATURES=X86_V4 on the tree that
# recorded HELPER_CASES (as tests/test_pinned_bits.py records its own)
HELPER_WITHOUT_AVX512 = {
    ("normal", 0.25): ["0x1.1e3589353b59ep+2", "-0x1.7cbc7d7583b7fp-5", "0x1.64153f8068278p-6", "0x1.b8fe6100cfdb8p-1",
                       "0x1.02cee3d8eb940p-3", "0x1.4ae819bd87920p-3"],
    ("normal", 0.5): ["0x1.c2cdeebb050acp+1", "-0x1.25626717d4a70p-5", "0x1.4659ba4358630p-6", "0x1.e9908a27d7aa0p-2",
                      "0x1.4ae819bd87920p-3", "0x1.48d70d124df68p-3"],
}


class TestPublicHelperValues:
    @pytest.mark.parametrize("family,xs,escort,theta,want", HELPER_CASES, ids=[c[0].name for c in HELPER_CASES])
    def test_values_pinned_bit_for_bit(self, family, xs, escort, theta, want):
        # no benchmark workload calls these four, and each computes its own
        # tilt, so their bits are pinned here
        q = empirical(xs)
        density = lambda x: family.density(escort, x)
        for alpha, values in want.items():
            if not __cpu_features__.get("X86_V4"):
                values = HELPER_WITHOUT_AVX512.get((family.name, alpha), values)
            got = [
                sub_criterion(family, escort, theta, q, alpha),
                *sub_psi(family, escort, theta, q, alpha),
                sub_divergence(family, escort, theta, q, alpha),
                renyi_pseudodistance(family, theta, q, density, alpha),
                renyi_pseudodistance(family, theta, q, density, 2.0 * alpha),
            ]
            assert [float(v).hex() for v in got] == values


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
        # alone stops at criterion inf); the MLE escort is the fit in closed
        # form, and Newton from an escort 0.05 off it stays next to it
        model = ContaminationModel(1.0, 0.1, "cauchy")
        q = empirical(0.7 + sample_contaminated(model, 10_000, np.random.default_rng(seed)))
        for offset, tol in ((0.0, 1e-12), (0.05, 0.01)):
            escort = mle(NORMAL_LOCATION, q).theta_hat + offset
            spec = EstimatorSpec(kind="subdivergence", alpha=0.5, escort=tuple(escort))
            result = estimate(NORMAL_LOCATION, spec, q)
            assert result.converged
            assert result.theta_hat[0] == pytest.approx(escort[0], abs=tol)
            assert result.criterion_value <= 1.0 / (1.0 - 0.5) + 1.0 / 0.5
            assert np.max(np.abs(sub_psi(NORMAL_LOCATION, escort, result.theta_hat, q, 0.5))) < _PSI_TOL

    @pytest.mark.parametrize("family", [NORMAL, NORMAL_LOCATION, NORMAL_SCALE, PARETO])
    def test_mle_escort_gives_the_mle(self, monkeypatch, family):
        # from the escort theta = MLE the criterion is at least its value
        # c = 1/(1-a) + 1/a there (the superdivergence proof), so the fit is
        # the MLE in closed form: no equation call, no search box, 0 steps
        calls = []
        counting = lambda *args: calls.append(args)
        monkeypatch.setitem(mindiv.estimators._EQUATIONS, "subdivergence", (counting, counting))

        def no_box(*args):
            raise AssertionError("search box built")

        monkeypatch.setattr(family, "default_bounds", no_box)
        for n in (100, 10_000):
            q = empirical(contaminated_rows(family, 1, n, seed=n)[0][0])
            theta = mle(family, q).theta_hat
            for alpha in (0.25, 0.5, 0.9):
                spec = EstimatorSpec(kind="subdivergence", alpha=alpha, escort=tuple(theta))
                result = estimate(family, spec, q)
                assert result.converged and result.iterations == 0
                assert result.theta_hat.tobytes() == theta.tobytes()
                assert result.criterion_value == 1.0 / (1.0 - alpha) + 1.0 / alpha
        assert calls == []

    def test_escort_outside_box_is_clipped_before_first_evaluation(self, monkeypatch):
        # Newton's first residual is at the escort clipped into the box
        q = empirical(np.random.default_rng(12).standard_normal(40))
        ((_, hi),) = NORMAL_LOCATION.default_bounds(q.nodes, q.weights)
        assert hi < 20.0
        points = []
        criterion, gradient = mindiv.estimators._EQUATIONS["subdivergence"]
        recording = lambda family, theta, *args: points.append(float(theta[0])) or gradient(family, theta, *args)
        monkeypatch.setitem(mindiv.estimators._EQUATIONS, "subdivergence", (criterion, recording))
        estimate(NORMAL_LOCATION, EstimatorSpec(kind="subdivergence", alpha=0.5, escort=(20.0,)), q)
        assert points[0] == hi

    @pytest.mark.parametrize(
        "family,theta,escort,grid",
        [
            (NORMAL, (0.0, 1.0), (0.3, 1.2), np.linspace(-3.0, 3.0, 7)),
            (NORMAL_LOCATION, (0.0,), (1.0,), np.linspace(-3.0, 3.0, 7)),
            (NORMAL_SCALE, (1.0,), (1.2,), np.linspace(-3.0, 3.0, 7)),
            (PARETO, (2.0,), (2.5,), np.linspace(1.5, 4.0, 6)),
        ],
        ids=lambda v: getattr(v, "name", None),
    )
    def test_fits_build_no_quadrature_grid(self, monkeypatch, family, theta, escort, grid):
        # the model term is in closed form: a fit builds no integration
        # grid, and a numeric curve builds only its base measure's
        # (quadrature_of)
        grids = []
        build = family.integration_grid
        monkeypatch.setattr(family, "integration_grid", lambda *args: grids.append(args) or build(*args))
        spec = EstimatorSpec(kind="subdivergence", alpha=0.5, escort=escort)
        xs = family.sample(theta, 200, np.random.default_rng(5))
        assert estimate(family, spec, empirical(xs)).converged
        assert grids == []
        influence_curve(family, spec, theta, grid, numeric=True)
        assert len(grids) == 1

    def test_newton_trials_raise_no_warnings(self):
        # damped trial steps far from the escort overflow the data term
        spec = EstimatorSpec(kind="subdivergence", alpha=0.5, escort=(0.3, 1.2))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = estimate(NORMAL, spec, quadrature_of(NORMAL, [0.0, 1.0]))
        assert result.converged
        assert np.allclose(result.theta_hat, [0.0, 1.0], atol=1e-8)

    def test_rejected_newton_falls_back(self, monkeypatch):
        # a Newton try that is not accepted leaves the fit to the box search
        # and then one polish of its result, and the iteration count adds
        # up all three; a polish that does not settle is not converged
        q = empirical(np.random.default_rng(12).standard_normal(40))
        spec = EstimatorSpec(kind="subdivergence", alpha=0.5, escort=(0.3,))
        polishes = []

        def polish(psi, x0, box, tol):
            polishes.append(np.array(x0, dtype=float))
            return np.array(x0, dtype=float), math.inf, 7

        monkeypatch.setattr(mindiv.estimators, "_newton_polish", polish)
        searches = []
        original = mindiv.estimators.solve_1d

        def solve_1d(*args, **kwargs):
            searches.append(original(*args, **kwargs))
            return searches[-1]

        monkeypatch.setattr(mindiv.estimators, "solve_1d", solve_1d)
        result = estimate(NORMAL_LOCATION, spec, q)
        assert len(searches) == 1 and len(polishes) == 2
        assert np.array_equal(polishes[1], searches[0].x)
        assert result.iterations == 7 + searches[0].iterations + 7
        assert np.array_equal(result.theta_hat, searches[0].x)
        assert not result.converged

    def test_start_point_only_for_2d_search(self, monkeypatch):
        # the MLE start is passed to Nelder-Mead only; a 1-d search has none
        starts, searches = [], []
        search_1d, search_2d = mindiv.estimators.solve_1d, mindiv.estimators.solve_2d
        monkeypatch.setattr(
            mindiv.estimators, "solve_1d", lambda *a, **k: searches.append(a) or search_1d(*a, **k)
        )
        monkeypatch.setattr(
            mindiv.estimators, "solve_2d", lambda f, b, x0, **k: starts.append(x0) or search_2d(f, b, x0, **k)
        )
        # (an observation at x = 1 sends a Pareto fit to the 1-d search)
        xs = np.append(PARETO.sample([2.0], 29, np.random.default_rng(14)), 1.0)
        estimate(PARETO, EstimatorSpec(kind="power-pseudo", alpha=0.5), empirical(xs))
        assert len(searches) == 1 and starts == []
        # zero MAD: the fixed point takes no step and Nelder-Mead runs from
        # the sample's MLE
        q = empirical([0.0] * 6 + [1.0, -2.0, 3.0])
        estimate(NORMAL, EstimatorSpec(kind="renyi", alpha=0.5), q)
        assert len(starts) == 1
        assert np.array_equal(starts[0], mle(NORMAL, q).theta_hat)

    @pytest.mark.parametrize(
        "family,xs,escort",
        [(NORMAL, [5.0] * 10, (5.0, 1.0)), (NORMAL_SCALE, [0.0] * 10, (1.0,)), (PARETO, [1.0] * 10, (2.0,))],
        ids=["normal-5", "normal-scale-0", "pareto-1"],
    )
    def test_degenerate_sample_raises_as_mle(self, monkeypatch, family, xs, escort):
        # the criterion reaches its infimum 0 only as the fit degenerates, so
        # no estimate exists; the fit raises before Newton evaluates its
        # equation, and every robust kind raises before any search box is built
        calls = []
        criterion, psi = mindiv.estimators._EQUATIONS["subdivergence"]
        counting = lambda *args: calls.append(args) or psi(*args)
        monkeypatch.setitem(mindiv.estimators._EQUATIONS, "subdivergence", (criterion, counting))

        def no_box(*args):
            raise AssertionError("search box built")

        monkeypatch.setattr(family, "default_bounds", no_box)
        for spec in (
            EstimatorSpec(kind="subdivergence", alpha=0.5, escort=escort),
            EstimatorSpec(kind="power-pseudo", alpha=0.5),
            EstimatorSpec(kind="renyi", alpha=0.5),
        ):
            with pytest.raises(DegenerateDataError):
                estimate(family, spec, empirical(xs))
        assert calls == []

    def test_escort_scale_ratio_overflow_is_a_domain_error(self):
        # sigma / sigma_escort ~ 9e154 from escort 1e-158: its square
        # overflows a float, which the two-member closed form reports as a
        # DomainError, in a single fit and in a numeric curve's base fit
        q = empirical(np.random.default_rng(0).standard_normal(50))
        spec = EstimatorSpec(kind="subdivergence", alpha=0.5, escort=(1e-158,))
        with pytest.raises(DomainError, match="squared overflows"):
            estimate(NORMAL_SCALE, spec, q)
        with pytest.raises(EstimationError, match="failed at base measure: .* squared overflows") as err:
            influence_curve(NORMAL_SCALE, spec, [1.0], np.linspace(-3.0, 3.0, 7), numeric=True)
        assert isinstance(err.value.__cause__, DomainError)

    def test_location_consistency_loss(self):
        # unit-scale location submodel fed data of scale 2: the fixed point
        # moves away from the true location when the escort is off-target
        spec = EstimatorSpec(kind="subdivergence", alpha=0.5, escort=(1.0,))
        wide = estimate(NORMAL_LOCATION, spec, quadrature_of(NORMAL_SCALE, [2.0], 512))
        assert abs(wide.theta_hat[0]) > 0.01
        exact = estimate(NORMAL_LOCATION, spec, quadrature_of(NORMAL_SCALE, [1.0], 512))
        assert abs(exact.theta_hat[0]) < 1e-6


def counting_log_density(monkeypatch, family):
    """The parameter of every log-density evaluation from now on: each
    ``family._log_density`` call, public ``log_density`` or a tilt's, at the
    parameter of the ``family._standardize`` call whose value it reads."""
    thetas, standardized = [], {}
    real_standardize, real_log_density = family._standardize, family._log_density

    def standardize(theta, y):
        standard = real_standardize(theta, y)
        # the value is kept too, so its id is not reused
        standardized[id(standard)] = standard, np.array(theta)
        return standard

    def log_density(standard):
        thetas.append(standardized[id(standard)][1])
        return real_log_density(standard)

    monkeypatch.setattr(family, "_standardize", standardize)
    monkeypatch.setattr(family, "_log_density", log_density)
    return thetas


def away_from(family, theta):
    """A parameter near ``theta`` that is not ``theta``."""
    return theta * 1.2 if family is not NORMAL_LOCATION else theta + 0.3


class TestEscortTilt:
    # the subdivergence tilt q (p_escort / p_theta)^a is the weights at the
    # escort itself; a fit from the MLE escort is the closed form and takes
    # no density pass, and any other takes the escort's log-density once
    @pytest.mark.parametrize("family", [NORMAL, NORMAL_LOCATION, NORMAL_SCALE, PARETO], ids=lambda f: f.name)
    def test_mle_escort_takes_no_log_density(self, monkeypatch, family):
        q = empirical(contaminated_rows(family, 1, 200, seed=31)[0][0])
        theta = mle(family, q).theta_hat
        thetas = counting_log_density(monkeypatch, family)
        result = estimate(family, EstimatorSpec(kind="subdivergence", alpha=0.5, escort=tuple(theta)), q)
        assert result.converged and result.theta_hat.tobytes() == theta.tobytes()
        assert thetas == []

    @pytest.mark.parametrize("family", [NORMAL, NORMAL_LOCATION, NORMAL_SCALE, PARETO], ids=lambda f: f.name)
    def test_escort_away_from_the_mle_takes_its_log_density_once(self, monkeypatch, family):
        q = empirical(contaminated_rows(family, 1, 200, seed=32)[0][0])
        escort = away_from(family, mle(family, q).theta_hat)
        thetas = counting_log_density(monkeypatch, family)
        result = estimate(family, EstimatorSpec(kind="subdivergence", alpha=0.5, escort=tuple(escort)), q)
        assert result.converged
        assert sum(t.tobytes() == escort.tobytes() for t in thetas) == 1
        assert len(thetas) > 2

    @pytest.mark.parametrize("family", [NORMAL, NORMAL_LOCATION, NORMAL_SCALE, PARETO], ids=lambda f: f.name)
    def test_values_at_the_escort_equal_the_density_tilt(self, family):
        q = empirical(contaminated_rows(family, 1, 200, seed=33)[0][0])
        theta = mle(family, q).theta_hat
        for escort in (theta, away_from(family, theta)):
            for alpha in (0.25, 0.5):
                spec = EstimatorSpec(kind="subdivergence", alpha=alpha, escort=tuple(escort))
                log_escort = family.log_density(escort, q.nodes)
                rows = _Rows(q.nodes, q.weights, escort, log_escort)
                density_tilt = q.weights * np.exp(alpha * (log_escort - log_escort))
                tilt = _tilt(family, spec, escort, rows)._replace(terms=density_tilt)
                crit = _sub_criterion(family, escort, rows, spec, tilt)
                psi = _power_gradient(family, escort, rows, spec, tilt)
                assert sub_criterion(family, escort, escort, q, alpha) == crit
                assert sub_psi(family, escort, escort, q, alpha).tobytes() == psi.tobytes()
                if escort is theta:
                    # the fit reports c exactly; the computed criterion is within 1 ulp
                    c = 1.0 / (1.0 - alpha) + 1.0 / alpha
                    result = estimate(family, spec, q)
                    assert result.theta_hat.tobytes() == escort.tobytes()
                    assert result.criterion_value == c
                    assert abs(crit - c) <= np.spacing(c)

    def test_nodes_outside_the_support_still_raise(self):
        # at the escort the tilt reads no density, but the escort's
        # log-density, taken up front, checks the nodes
        q = Measure(np.array([0.5, 2.0]), np.array([0.5, 0.5]))
        for call in (
            lambda: sub_criterion(PARETO, [2.0], [2.0], q, 0.5),
            lambda: sub_divergence(PARETO, [2.0], [2.0], q, 0.5),
            lambda: sub_psi(PARETO, [2.0], [2.0], q, 0.5),
            lambda: estimate(PARETO, EstimatorSpec(kind="subdivergence", alpha=0.5, escort=(2.0,)), q),
        ):
            with pytest.raises(DomainError, match="observations must lie in the support"):
                call()

    def test_far_node_gives_a_finite_tilt_at_the_escort(self):
        # a node 2e154 scales from the escort overflows its log-density to
        # -inf (with no warning); the tilt at the escort, the weights, never reads it
        q = empirical([2e154, 0.0, 1.0])
        assert sub_criterion(NORMAL_LOCATION, [0.0], [0.0], q, 0.5) == 4.0

    def test_escort_rows_rejected(self):
        with pytest.raises(InvalidInputError, match=r"escort is one parameter, not rows of shape \(2, 2\)"):
            EstimatorSpec("subdivergence", 0.5, [[0, 1], [0.5, 2]])
        q = empirical([0.5, 1.0, 2.0])
        with pytest.raises(InvalidInputError, match=r"escort is one parameter, not rows of shape \(2, 1\)"):
            sub_criterion(NORMAL_SCALE, [[1.0], [2.0]], [1.0], q, 0.5)


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

    @pytest.mark.parametrize("family", SUPER_FAMILIES, ids=lambda f: f.name)
    def test_criterion_from_the_mle_escort_is_least_there(self, family):
        # the bound the closed forms rest on, on unequally weighted samples
        # with 10% outliers: M(mle, t) >= c at random t about the MLE, and
        # M(mle, mle) is c to within 4 ulp
        rng = np.random.default_rng(41)
        xs, _ = contaminated_rows(family, 5, 60, seed=41)
        for x in xs:
            w = rng.dirichlet(np.ones(x.size))
            q = Measure(x, w / w.sum())
            theta = mle(family, q).theta_hat
            for alpha in (0.1, 0.25, 0.5, 0.9):
                c = 1.0 / (1.0 - alpha) + 1.0 / alpha
                assert abs(sub_criterion(family, theta, theta, q, alpha) - c) <= 4 * np.spacing(c)
                for t in about_mle(family, theta, rng.uniform(-1.0, 1.0, (20, family.param_dim))):
                    assert sub_criterion(family, theta, t, q, alpha) >= c * (1.0 - 1e-12)

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
        spec = EstimatorSpec(kind="renyi", alpha=a)
        assert at(_renyi_neg_log, family, theta, q, spec) == pytest.approx(want, rel=1e-12, abs=1e-12)

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
    (_pseudo_criterion, _power_gradient),
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
        for kind, pair in zip(ROBUST_KINDS, EQUATIONS):
            spec = EstimatorSpec(kind=kind, alpha=alpha)
            for equation in pair:
                rows = at(equation, family, theta, q, spec)
                singles = np.array(
                    [at(equation, family, t, Measure(x, w), spec) for t, x, w in zip(theta, q.nodes, q.weights)]
                )
                assert rows.shape == singles.shape
                assert rows.tobytes() == singles.tobytes(), equation.__name__
                # a row does not depend on the other rows
                part = at(equation, family, theta[1:3], _Rows(q.nodes[1:3], q.weights[1:3]), spec)
                assert part.tobytes() == rows[1:3].tobytes(), equation.__name__

    @pytest.mark.parametrize("alpha", [0.3, 0.9])
    def test_node_rows_equal_single_calls_on_normal(self, alpha):
        # one parameter against (R, n) rows of nodes, as the point equations
        # take them: at d = 2 each row's sums equal the single call's
        theta = np.array([0.3, 1.7])
        q = row_sample(NORMAL, 5)
        pseudo, renyi = (EstimatorSpec(kind=k, alpha=alpha) for k in ROBUST_KINDS)
        equations = {
            "power-pseudo": lambda m: at(_power_gradient, NORMAL, theta, m, pseudo),
            "renyi": lambda m: at(_renyi_gradient, NORMAL, theta, m, renyi),
            "subdivergence": lambda m: sub_psi(NORMAL, (0.1, 1.2), theta, m, alpha),
        }
        for name, equation in equations.items():
            rows = equation(q)
            singles = np.array([equation(Measure(x, w)) for x, w in zip(q.nodes, q.weights)])
            assert rows.shape == singles.shape == (5, 2)
            assert rows.tobytes() == singles.tobytes(), name

    @pytest.mark.parametrize("alpha", [0.3, 2.0])
    @pytest.mark.parametrize("criterion,gradient", EQUATIONS)
    @pytest.mark.parametrize("family,thetas", ROW_CASES)
    def test_psi_is_criterion_gradient(self, family, thetas, criterion, gradient, alpha):
        # power-pseudo psi is the gradient of its criterion; Renyi psi is
        # that of its negative log criterion divided by alpha
        scale = alpha if criterion is _renyi_neg_log else 1.0
        spec = EstimatorSpec(kind=ROBUST_KINDS[EQUATIONS.index((criterion, gradient))], alpha=alpha)
        q = row_sample(family, 1)
        q = Measure(q.nodes[0], q.weights[0])
        for theta in np.array(thetas[:3]):
            got = at(gradient, family, theta, q, spec)
            for j in range(family.param_dim):
                h = 1e-5 * abs(theta[j]) + 1e-7
                up, dn = theta.copy(), theta.copy()
                up[j] += h
                dn[j] -= h
                fd = (at(criterion, family, up, q, spec) - at(criterion, family, dn, q, spec)) / (2.0 * h)
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
            spec = EstimatorSpec(kind="power-pseudo", alpha=alpha)
            assert at(_pseudo_criterion, family, theta, q, spec) == pytest.approx(want, rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("kind", ["subdivergence", "power-pseudo", "renyi"])
    @pytest.mark.parametrize("family,thetas", ROW_CASES)
    def test_a_tilt_feeds_any_number_of_calls(self, family, thetas, kind):
        # nothing writes to a tilt: criterion and gradient calls on one
        # tilt, repeated and in either order, each give a fresh tilt's bytes
        escort = tuple(thetas[1]) if kind == "subdivergence" else None
        spec = EstimatorSpec(kind=kind, alpha=0.5, escort=escort)
        theta, q = np.array(thetas[0]), row_sample(family, 1)
        q = _rows(family, spec, q.nodes[0], q.weights[0])
        tilt = _tilt(family, spec, theta, q)
        built = pickle.dumps(tilt)
        criterion, gradient = mindiv.estimators._EQUATIONS[kind]
        for _ in range(2):
            for equation in (gradient, criterion):
                got = np.asarray(equation(family, theta, q, spec, tilt))
                assert got.tobytes() == np.asarray(at(equation, family, theta, q, spec)).tobytes()
        assert pickle.dumps(tilt) == built


ALL_FAMILIES = [NORMAL, NORMAL_LOCATION, NORMAL_SCALE, PARETO]
# orders at which the row solver is checked: the weighted-moment map
# contracts more slowly, and on Pareto power-pseudo oscillates, as alpha grows
ALPHA_GRID = [0.25, 0.5, 1.0, 2.0]
ROBUST_SPECS = [EstimatorSpec(kind=k, alpha=a) for k in ROBUST_KINDS for a in ALPHA_GRID]
# every kind the row solver covers, closed-form ones included
ROW_SPECS = [
    EstimatorSpec(kind="mle"),
    EstimatorSpec(kind="superdivergence", alpha=0.5),
    EstimatorSpec(kind="power-pseudo", alpha=0.0),
] + ROBUST_SPECS


def contaminated_rows(family, rows, n, seed):
    """(R, n) samples with 10% outliers (Cauchy, or x50 for Pareto) and their
    equal weights."""
    rng = np.random.default_rng(seed)
    if family is PARETO:
        xs = PARETO.sample([2.0], rows * n, rng).reshape(rows, n)
        xs[:, : n // 10] *= 50.0
    else:
        xs = rng.standard_normal((rows, n)) + 0.5
        xs[:, : n // 10] = 20.0 * rng.standard_cauchy((rows, n // 10))
    return xs, np.full(xs.shape, 1.0 / n)


def moment_map(family, kind, a, y, w, theta):
    """The weighted-moment map of Fujisawa & Eguchi (2008) on (R, n) rows of
    ``family._moment_start``'s y and weights: with v proportional to w p^a,
    on the normal kinds mu = E_v[x] and sigma^2 = (1 + a) Var_v(x) (Renyi)
    or Var_v(x) / (1 - a (1 + a)^-1.5 / sum(w u)) (power-pseudo), with u =
    exp(-a z^2 / 2); on Pareto (y = log x, c = 1 / E_v[y]) the Renyi map is
    (c - a) / (1 + a), and the power-pseudo map the larger positive root of
    (1 - k)/theta + k/((1 + a) theta + a) = 1/c, with k = int p^(1+a) /
    sum(w p^a).  Returns the new rows and each row's relative step."""
    if family is PARETO:
        # u = p^a / theta^a, scaled by its row's largest value e^shift
        u = (-a * (theta + 1.0)) * y
        shift = u.max(axis=1, keepdims=True)
        u = w * np.exp(u - shift)
        c = u.sum(axis=1, keepdims=True) / (u * y).sum(axis=1, keepdims=True)
        b = 1.0 + a
        if kind == "renyi":
            new = (c - a) / b
        else:
            k = theta / (b * theta + a) * np.exp(-shift) / u.sum(axis=1, keepdims=True)
            lin = a - c * (b - a * k)
            new = (np.sqrt(lin * lin + 4.0 * b * c * a * (1.0 - k)) - lin) / (2.0 * b)
        return new, (np.abs(new - theta) / new)[:, 0]
    mu = theta[:, :1] if 0 in family._free else 0.0
    sigma = theta[:, -1:] if 1 in family._free else 1.0
    # u = exp(-a z^2 / 2), scaled by its row's largest value e^-low
    u = 0.5 * a * ((y - mu) / sigma) ** 2
    low = u.min(axis=1, keepdims=True)
    u = w * np.exp(low - u)
    total = u.sum(axis=1, keepdims=True)
    m = (u * y).sum(axis=1, keepdims=True) / total if 0 in family._free else 0.0
    var = (u * (y - m) ** 2).sum(axis=1, keepdims=True) / total
    if kind == "renyi":
        s = np.sqrt((1.0 + a) * var)
    else:
        s = np.sqrt(var / (1.0 - a * (1.0 + a) ** -1.5 * np.exp(low) / total))
    new = np.concatenate([(m, s)[i] for i in family._free], axis=1)
    return new, (np.abs(new - theta).max(axis=1, keepdims=True) / (s if 1 in family._free else 1.0))[:, 0]


def plain_fixed_point(family, spec, xs, ws):
    """Oracle for ``_moment_fixed_point`` on power-pseudo and Renyi rows: the
    weighted-moment map ``moment_map`` iterated one plain step at a time, on
    each row alone.  A row stops at a relative step <= ``_FP_STEP_TOL``,
    leaves at one outside [0, inf) and takes at most ``_MAX_ITER`` steps; it
    is accepted when its residual is below ``_PSI_TOL`` and its criterion no
    higher than at the start.  An accepted row is then iterated on to a
    relative step of 1e-15 (at most ``_MAX_ITER`` more steps), so its
    estimate is the map's limit, not the point where the slow plain loop
    stopped.  Returns the (R, d) estimates (NaN where not accepted) and the
    accepted mask."""
    a = spec.alpha
    criterion, gradient = EQUATIONS[ROBUST_KINDS.index(spec.kind)]
    starts, y = family._moment_start(xs, ws)

    def run(j, theta, tol):
        for _ in range(_MAX_ITER):
            new, step = moment_map(family, spec.kind, a, y[j : j + 1], ws[j : j + 1], theta[None])
            theta = new[0]
            if not 0.0 <= step[0] < math.inf:
                return theta, False
            if step[0] <= tol:
                return theta, True
        return theta, False

    estimates = np.full(starts.shape, math.nan)
    accepted = np.zeros(len(xs), dtype=bool)
    with np.errstate(all="ignore"):
        for j, start in enumerate(starts):
            if not np.isfinite(start).all():
                continue
            theta, settled = run(j, start, _FP_STEP_TOL)
            if settled:
                q = Measure(xs[j], ws[j])
                accepted[j] = np.max(np.abs(at(gradient, family, theta, q, spec))) < _PSI_TOL and at(
                    criterion, family, theta, q, spec
                ) <= at(criterion, family, start, q, spec)
            if accepted[j]:
                estimates[j] = run(j, theta, 1e-15)[0]
    return estimates, accepted


def passes_scalar_checks(family, spec, xs, theta, start):
    """Whether a row's fit has its scalar estimating equation below
    ``_PSI_TOL`` and its scalar criterion no higher than at the start."""
    criterion, gradient = EQUATIONS[ROBUST_KINDS.index(spec.kind)]
    q = empirical(xs)
    return np.max(np.abs(at(gradient, family, theta, q, spec))) < _PSI_TOL and at(
        criterion, family, theta, q, spec
    ) <= at(criterion, family, start, q, spec)


class TestMomentFixedPoint:
    @pytest.mark.parametrize("kind", ROBUST_KINDS)
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_accepted_rows_pass_scalar_checks(self, kind, family):
        # every accepted row: the scalar estimating equation is below
        # _PSI_TOL and the scalar criterion is no higher than at the start
        xs, ws = contaminated_rows(family, 12, 60, seed=8)
        spec = EstimatorSpec(kind=kind, alpha=0.5)
        theta, accepted, iterations, _ = _moment_fixed_point(family, spec, xs, ws)
        assert accepted.all() and np.all(iterations >= 1)
        start = family._moment_start(xs, ws)[0]
        for row, th, th0 in zip(xs, theta, start):
            assert passes_scalar_checks(family, spec, row, th, th0)

    @pytest.mark.parametrize("spec", ROW_SPECS, ids=lambda s: f"{s.kind}-{s.alpha}")
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_rows_equal_single_estimates(self, family, spec):
        xs, ws = contaminated_rows(family, 6, 80, seed=9)
        theta, accepted, iterations, _ = _moment_fixed_point(family, spec, xs, ws)
        assert accepted.all()
        for row, th, its in zip(xs, theta, iterations):
            result = estimate(family, spec, empirical(row))
            assert result.converged
            assert result.theta_hat.tobytes() == th.tobytes()
            assert result.iterations == its

    @pytest.mark.parametrize("spec", ROW_SPECS, ids=lambda s: f"{s.kind}-{s.alpha}")
    def test_rows_independent_of_batch(self, monkeypatch, spec):
        # the rows of a batch stop at different steps: they settle, reach
        # _MAX_ITER (at 3 Newton steps) or never start (row 1: a zero MAD on
        # normal and normal-scale, a node at x = 1 on Pareto)
        for family in ALL_FAMILIES:
            if family is PARETO:
                xs, ws = contaminated_rows(PARETO, 9, 50, seed=6)
                xs[1, 0] = 1.0
            else:
                rng = np.random.default_rng(6)
                xs = rng.standard_normal((9, 50)) * 1.5 - 0.3
                xs[::2, :5] = 1e3 * rng.standard_cauchy((5, 5))
                xs[1, :30] = 0.0
                ws = np.full(xs.shape, 1.0 / xs.shape[1])
            for max_iter in (_MAX_ITER, 3):
                monkeypatch.setattr(mindiv.estimators, "_MAX_ITER", max_iter)
                batch = _moment_fixed_point(family, spec, xs, ws)
                for j in range(len(xs)):
                    one = _moment_fixed_point(family, spec, xs[j : j + 1], ws[j : j + 1])
                    for got, want in zip(one, batch):
                        assert np.array_equal(got[0], want[j], equal_nan=True)

    @pytest.mark.parametrize("kind", ROBUST_KINDS)
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_mixed_weight_rows_equal_single_rows(self, family, kind):
        # equal-weight rows run the map on one weight column, rows 1 and 3
        # on their own weights: in one batch each row still gets the numbers
        # of its single call
        xs, ws = contaminated_rows(family, 5, 60, seed=10)
        uneven = np.random.default_rng(10).random((2, 60)) + 0.5
        ws[[1, 3]] = uneven / uneven.sum(axis=1, keepdims=True)
        spec = EstimatorSpec(kind=kind, alpha=0.5)
        batch = _moment_fixed_point(family, spec, xs, ws)
        assert batch[1].all()
        for j in range(len(xs)):
            one = _moment_fixed_point(family, spec, xs[j : j + 1], ws[j : j + 1])
            for got, want in zip(one, batch):
                assert got[0].tobytes() == want[j].tobytes()

    @pytest.mark.parametrize("spec", ROBUST_SPECS, ids=lambda s: f"{s.kind}-{s.alpha}")
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_agrees_with_plain_iteration(self, family, spec):
        # Newton accepts exactly the rows the plain map accepts, at the same
        # root; where the Pareto power-pseudo map oscillates (alpha >= 1) it
        # accepts every row (test_accepts_rows_the_map_rejects)
        xs, ws = contaminated_rows(family, 10, 100, seed=int(40 * spec.alpha))
        theta, accepted, _, _ = _moment_fixed_point(family, spec, xs, ws)
        want, want_accepted = plain_fixed_point(family, spec, xs, ws)
        oscillates = family is PARETO and spec.kind == "power-pseudo" and spec.alpha >= 1.0
        assert np.array_equal(accepted, want_accepted | oscillates)
        ok = want_accepted
        assert np.all(np.abs(theta[ok] - want[ok]) <= 1e-12 * np.abs(want[ok]))

    @pytest.mark.parametrize("alpha", [1.0, 2.0])
    def test_accepts_rows_the_map_rejects(self, alpha):
        # the Pareto power-pseudo map oscillates on some of these rows and
        # never settles; Newton accepts each, and each passes the scalar checks
        xs, ws = contaminated_rows(PARETO, 10, 100, seed=int(40 * alpha))
        spec = EstimatorSpec(kind="power-pseudo", alpha=alpha)
        _, map_accepted = plain_fixed_point(PARETO, spec, xs, ws)
        theta, accepted, _, _ = _moment_fixed_point(PARETO, spec, xs, ws)
        start = PARETO._moment_start(xs, ws)[0]
        assert not map_accepted.all() and accepted.all()
        for j in (~map_accepted).nonzero()[0]:
            assert passes_scalar_checks(PARETO, spec, xs[j], theta[j], start[j])
            assert estimate(PARETO, spec, empirical(xs[j])).converged

    def test_few_map_evaluations(self):
        # the plain map needs a median of 40 evaluations on these rows
        xs, ws = contaminated_rows(NORMAL_SCALE, 20, 100, seed=3)
        _, accepted, iterations, _ = _moment_fixed_point(NORMAL_SCALE, EstimatorSpec(kind="renyi", alpha=1.0), xs, ws)
        assert accepted.all()
        assert np.median(iterations) <= 6

    def test_step_out_of_space_is_pulled_back(self, monkeypatch):
        # the first step is made to take row 0's shape to minus its start:
        # pulled back halfway toward the start it lands at 0, still outside,
        # and then at half the start, where Newton goes on from and accepts
        xs, ws = contaminated_rows(PARETO, 3, 100, seed=7)
        spec = EstimatorSpec(kind="renyi", alpha=0.5)
        want, want_accepted, _, _ = _moment_fixed_point(PARETO, spec, xs, ws)
        update = PARETO._moment_update
        inputs = []

        def overshooting(kind, a, y, w, theta):
            # rows come as (R, d), a lone row as one (d,) parameter
            inputs.append(np.atleast_2d(theta)[:, 0].copy())
            new, step = update(kind, a, y, w, theta)
            if len(inputs) == 1:
                np.atleast_2d(new)[0, 0] = -inputs[0][0]
            return new, step

        monkeypatch.setattr(PARETO, "_moment_update", overshooting)
        theta, accepted, _, _ = _moment_fixed_point(PARETO, spec, xs, ws)
        assert inputs[1][0] == inputs[0][0] / 2.0
        assert accepted.all() and want_accepted.all()
        assert theta[0, 0] == pytest.approx(want[0, 0], rel=1e-12)
        # the other rows are not touched by row 0's pull-back
        assert np.array_equal(theta[1:], want[1:])

    @pytest.mark.parametrize("kind", ROBUST_KINDS)
    def test_every_step_gets_a_row(self, monkeypatch, kind):
        # rows stop at different steps and leave the batch as they stop: a
        # Newton step never runs on zero rows, alone or in a batch
        xs, ws = contaminated_rows(NORMAL, 8, 100, seed=13)
        spec = EstimatorSpec(kind=kind, alpha=0.5)
        update, rows = NORMAL._moment_update, []

        def counting(kind, a, y, w, theta):
            # a lone row steps as one parameter on (n,) nodes
            rows.append(len(np.atleast_2d(y)))
            return update(kind, a, y, w, theta)

        monkeypatch.setattr(NORMAL, "_moment_update", counting)
        _, accepted, iterations, _ = _moment_fixed_point(NORMAL, spec, xs, ws)
        for j in range(len(xs)):
            _moment_fixed_point(NORMAL, spec, xs[j : j + 1], ws[j : j + 1])
        assert accepted.all() and iterations.min() < iterations.max()
        assert len(rows) == iterations.max() + iterations.sum() and min(rows) >= 1

    def test_lone_step_out_of_space_is_pulled_back(self, monkeypatch):
        # one row steps as one (d,) parameter; its first step is made to take
        # the shape to minus its start, and the scalar pull-back lands at 0,
        # still outside, then at half the start, from where Newton accepts
        xs, ws = contaminated_rows(PARETO, 1, 100, seed=7)
        spec = EstimatorSpec(kind="renyi", alpha=0.5)
        want, want_accepted, _, _ = _moment_fixed_point(PARETO, spec, xs, ws)
        update, inputs = PARETO._moment_update, []

        def overshooting(kind, a, y, w, theta):
            inputs.append(theta.copy())
            new, step = update(kind, a, y, w, theta)
            if len(inputs) == 1:
                new[0] = -inputs[0][0]
            return new, step

        monkeypatch.setattr(PARETO, "_moment_update", overshooting)
        theta, accepted, _, _ = _moment_fixed_point(PARETO, spec, xs, ws)
        assert inputs[0].shape == (1,) and inputs[1][0] == inputs[0][0] / 2.0
        assert accepted.all() and want_accepted.all()
        assert theta[0, 0] == pytest.approx(want[0, 0], rel=1e-12)

    @pytest.mark.parametrize("kind", ROBUST_KINDS)
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_single_estimate_steps_one_parameter(self, monkeypatch, family, kind):
        # a single fit carries its row as one (d,) parameter against its
        # (n,) nodes: no Newton step runs on (R, d) rows
        update, shapes = family._moment_update, []

        def recording(kind, a, y, w, theta):
            shapes.append((theta.shape, y.shape))
            return update(kind, a, y, w, theta)

        monkeypatch.setattr(family, "_moment_update", recording)
        xs, _ = contaminated_rows(family, 1, 100, seed=15)
        result = estimate(family, EstimatorSpec(kind=kind, alpha=0.5), empirical(xs[0]))
        assert result.converged and len(shapes) == result.iterations >= 1
        assert set(shapes) == {((family.param_dim,), (100,))}

    @pytest.mark.parametrize("kind", [*ROBUST_KINDS, "subdivergence"])
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_fortran_ordered_rows_equal_single_calls(self, family, kind):
        # a batch laid out node by node, as np.concatenate of a broadcast
        # array builds it: every row still gets its single estimate, bit for
        # bit, from the map on equal weights (rows 0, 2 and 4) or on its own
        # (row 1), and from the fallback (row 3, which gets no start but on
        # normal-loc, and every subdivergence row)
        xs, ws = contaminated_rows(family, 5, 60, seed=14)
        uneven = np.random.default_rng(14).random(60) + 0.5
        ws[1] = uneven / uneven.sum()
        xs[3, :30] = 1.0 if family is PARETO else 0.0
        escort = (0.3, 1.2) if family is NORMAL else (2.5,) if family is PARETO else (0.8,)
        spec = EstimatorSpec(kind=kind, alpha=0.5, escort=escort if kind == "subdivergence" else None)
        nodes, weights = np.asfortranarray(xs), np.asfortranarray(ws)
        assert not nodes.flags.c_contiguous and not weights.flags.c_contiguous
        theta, criteria, iterations, converged, errors = _fit_rows(family, spec, nodes, weights)
        assert not errors
        for j in range(len(xs)):
            result = estimate(family, spec, Measure(xs[j], ws[j]))
            assert theta[j].tobytes() == result.theta_hat.tobytes()
            assert (iterations[j], converged[j]) == (result.iterations, result.converged)

    def test_subdivergence_rows_not_accepted(self):
        xs, ws = contaminated_rows(NORMAL, 3, 30, seed=5)
        spec = EstimatorSpec(kind="subdivergence", alpha=0.5, escort=(0.0, 1.0))
        _, accepted, iterations, _ = _moment_fixed_point(NORMAL, spec, xs, ws)
        assert not accepted.any() and not iterations.any()

    @pytest.mark.parametrize(
        "family,flat", [(NORMAL, 2.0), (NORMAL_LOCATION, None), (NORMAL_SCALE, 0.0), (PARETO, 1.0)],
        ids=lambda v: getattr(v, "name", None),
    )
    def test_mle_escort_rows_equal_single_calls(self, family, flat):
        # rows [q, q2, q] from the escort MLE(q): rows 0 and 2 take the
        # closed form, row 1 the fallback.  A degenerate row (all nodes at
        # ``flat``; normal-loc has none) makes the batch's MLE raise, so
        # every row goes to the fallback, which decides rows 0 and 2 alike
        xs, ws = contaminated_rows(family, 2, 60, seed=16)
        xs, ws = xs[[0, 1, 0]], ws[[0, 1, 0]]
        spec = EstimatorSpec(kind="subdivergence", alpha=0.5, escort=tuple(family.mle_parameter(xs[0], ws[0])))
        batches = [(xs, ws)]
        if flat is not None:
            batches.append((np.vstack([xs, np.full(60, flat)]), np.vstack([ws, ws[:1]])))
        for nodes, weights in batches:
            theta, criteria, iterations, converged, errors = _fit_rows(family, spec, nodes, weights)
            assert list(errors) == list(range(3, len(nodes)))
            assert all(isinstance(e, DegenerateDataError) for e in errors.values())
            assert iterations[0] == iterations[2] == 0 and iterations[1] > 0
            for j in range(3):
                result = estimate(family, spec, Measure(nodes[j], weights[j]))
                assert theta[j].tobytes() == result.theta_hat.tobytes()
                assert (criteria[j], iterations[j], converged[j]) == (
                    result.criterion_value, result.iterations, result.converged
                )

    def test_degenerate_mle_row_accepts_no_row(self):
        # one row with zero spread: no closed-form row is accepted, so
        # _fit_rows fits each by the fallback, which names the degenerate one
        xs, ws = contaminated_rows(NORMAL, 3, 30, seed=5)
        xs[1] = 2.0
        _, accepted, _, _ = _moment_fixed_point(NORMAL, EstimatorSpec(kind="mle"), xs, ws)
        assert not accepted.any()
        theta, _, _, converged, errors = _fit_rows(NORMAL, EstimatorSpec(kind="mle"), xs, ws)
        assert list(errors) == [1] and isinstance(errors[1], DegenerateDataError)
        assert converged.tolist() == [True, False, True]
        assert np.array_equal(theta[[0, 2]], NORMAL.mle_parameter(xs[[0, 2]], ws[[0, 2]]))

    def test_rejected_rows_make_one_row_solver_call(self, monkeypatch):
        # 3 of 8 Pareto rows have a node at x = 1 and get no start: one row
        # solver call on all 8, the fallback on each of the 3, and every row
        # as its single estimate gives
        xs, ws = contaminated_rows(PARETO, 8, 40, seed=12)
        xs[[1, 4, 6], 0] = 1.0
        spec = EstimatorSpec(kind="renyi", alpha=0.5)
        singles = [estimate(PARETO, spec, empirical(row)) for row in xs]
        calls, fallbacks = [], []
        real_rows, real_fallback = mindiv.estimators._moment_fixed_point, mindiv.estimators._fallback
        monkeypatch.setattr(mindiv.estimators, "_moment_fixed_point", lambda *args: calls.append(args) or real_rows(*args))
        monkeypatch.setattr(mindiv.estimators, "_fallback", lambda *args: fallbacks.append(args) or real_fallback(*args))
        theta, criteria, iterations, converged, errors = _fit_rows(PARETO, spec, xs, ws)
        assert len(calls) == 1 and len(fallbacks) == 3 and not errors
        for j, result in enumerate(singles):
            assert theta[j].tobytes() == result.theta_hat.tobytes()
            assert math.exp(-criteria[j]) == result.criterion_value
            assert (iterations[j], converged[j]) == (result.iterations, result.converged)

    @pytest.mark.parametrize("xs", [[5.0] * 50, [0.1] * 30], ids=["5", "0.1"])
    def test_equal_nodes_accept_no_mle_row(self, xs):
        # equal nodes whose weighted mean is inexact (variance ~1e-32)
        q = empirical(xs)
        theta, accepted, _, _ = _moment_fixed_point(NORMAL, EstimatorSpec(kind="mle"), q.nodes[None], q.weights[None])
        assert not accepted[0] and np.isnan(theta).all()

    @pytest.mark.parametrize("kind", ROBUST_KINDS)
    def test_accepted_fit_evaluates_criterion_twice(self, monkeypatch, kind):
        # at the fixed point and at its start, in the acceptance check, whose
        # value the fit reports; the criterion and the equation at the fixed
        # point share one per-node transform, which its log-density and
        # score both read
        criterion, gradient = EQUATIONS[ROBUST_KINDS.index(kind)]
        calls, densities = [], []

        def counting(*args):
            calls.append(args)
            return criterion(*args)

        standardize = NORMAL._standardize

        def counting_transform(theta, y):
            densities.append(np.array(theta, dtype=float))
            return standardize(theta, y)

        monkeypatch.setattr(mindiv.estimators, criterion.__name__, counting)
        monkeypatch.setitem(mindiv.estimators._EQUATIONS, kind, (counting, gradient))
        monkeypatch.setattr(NORMAL, "_standardize", counting_transform)
        q = empirical(np.random.default_rng(4).standard_normal(80) * 2.0 + 1.0)
        result = estimate(NORMAL, EstimatorSpec(kind=kind, alpha=0.5), q)
        assert result.converged and len(calls) == 2
        at_fit = [th for th in densities if np.array_equal(th, result.theta_hat)]
        assert len(at_fit) == 1 and len(densities) == 2

    def test_iterations_reported(self):
        q = empirical(np.random.default_rng(4).standard_normal(80) * 2.0 + 1.0)
        spec = EstimatorSpec(kind="renyi", alpha=0.5)
        result = estimate(NORMAL, spec, q)
        _, _, iterations, _ = _moment_fixed_point(NORMAL, spec, q.nodes[None], q.weights[None])
        assert result.converged
        assert result.iterations >= 1
        assert result.iterations == iterations[0]

    @staticmethod
    def search_alone(monkeypatch, family, spec, q):
        """Check that the row gets no start and that ``estimate`` returns the
        one bounded search's result after one Newton polish; return it."""
        _, accepted, iterations, _ = _moment_fixed_point(family, spec, q.nodes[None], q.weights[None])
        assert not accepted[0] and iterations[0] == 0
        searches, polishes = [], []
        search, polish = mindiv.estimators.solve_1d, mindiv.estimators._newton_polish

        def solve_1d(*args, **kwargs):
            searches.append(search(*args, **kwargs))
            return searches[-1]

        def newton_polish(psi, x0, *args):
            assert np.array_equal(x0, searches[-1].x)
            polishes.append(polish(psi, x0, *args))
            return polishes[-1]

        monkeypatch.setattr(mindiv.estimators, "solve_1d", solve_1d)
        monkeypatch.setattr(mindiv.estimators, "_newton_polish", newton_polish)
        result = estimate(family, spec, q)
        assert len(searches) == 1 and len(polishes) == 1
        theta, _, polish_evals = polishes[0]
        assert result.iterations == searches[0].iterations + polish_evals
        assert np.array_equal(result.theta_hat, theta)
        return result

    def test_zero_mad_falls_back(self, monkeypatch):
        # more than half the sample at one value: the MAD start is zero, so
        # the fixed point takes no step and the bounded search runs alone
        q = empirical([0.0] * 6 + [1.0, -2.0, 3.0])
        self.search_alone(monkeypatch, NORMAL_SCALE, EstimatorSpec(kind="renyi", alpha=0.5), q)

    @pytest.mark.parametrize(
        "kind,alpha,xs",
        [
            ("power-pseudo", 0.5, [1.0, 1.5, 2.0, 3.0]),
            ("renyi", 0.5, [1.0, 1.5, 2.0, 3.0]),
            ("renyi", 0.9, np.append(PARETO.sample([2.0], 19, np.random.default_rng(3)), 1.0)),
        ],
    )
    def test_pareto_mass_at_one_falls_back(self, monkeypatch, kind, alpha, xs):
        # mass at x = 1: the criteria can fall without bound as the shape
        # grows, so the row gets no start and the bounded search runs alone;
        # it stops on the box edge, so the breakdown shows as non-convergence
        # rather than as a local minimum the fixed point would accept
        spec = EstimatorSpec(kind=kind, alpha=alpha)
        assert not self.search_alone(monkeypatch, PARETO, spec, empirical(xs)).converged

    @pytest.mark.parametrize("kind", ROBUST_KINDS)
    def test_pareto_fit_makes_no_search(self, monkeypatch, kind):
        def no_search(*args, **kwargs):
            raise AssertionError("bounded search called")

        monkeypatch.setattr(mindiv.estimators, "solve_1d", no_search)
        for n in (100, 10_000):
            xs, _ = contaminated_rows(PARETO, 1, n, seed=n)
            result = estimate(PARETO, EstimatorSpec(kind=kind, alpha=0.5), empirical(xs[0]))
            assert result.converged and result.iterations >= 1
            assert 1.0 < result.theta_hat[0] < 3.0

    @pytest.mark.parametrize("kind", ROBUST_KINDS)
    @pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0])
    def test_2d_fallback_finds_the_row_solvers_root(self, kind, alpha):
        # the simplex search from the MLE and one polish reach the root the
        # row solver accepts, strictly inside the box, on contaminated samples
        spec = EstimatorSpec(kind=kind, alpha=alpha)
        for seed in range(20):
            rng = np.random.default_rng(seed)
            xs = rng.standard_normal(50)
            xs[:8] = 5.0 * rng.standard_cauchy(8)
            ws = np.full(50, 1.0 / 50)
            theta, _, _, converged, _ = _fit_rows(NORMAL, spec, xs[None], ws[None])
            fit, _, _, fit_converged = _fallback(NORMAL, spec, _Rows(xs, ws), 0)
            lo, hi = np.array(NORMAL.default_bounds(xs, ws)).T
            assert converged[0] and fit_converged
            assert np.all((lo < fit) & (fit < hi))
            assert np.allclose(fit, theta[0], rtol=1e-8, atol=0.0)


# README's table of the criteria bounded below, one test per row: each
# criterion along its degenerating direction, sigma -> 0 at an atom on the
# normal kinds and shape -> inf on Pareto, where p_theta(1) = theta
COLLAPSING, GROWING = (1e-3, 1e-6, 1e-9), (1e3, 1e6, 1e9)


def criterion_path(family, kind, alpha, thetas, xs):
    """``kind``'s criterion on the sample ``xs`` at each parameter of ``thetas``."""
    spec, q = EstimatorSpec(kind=kind, alpha=alpha), empirical(xs)
    return np.array([at(mindiv.estimators._EQUATIONS[kind][0], family, np.array(t), q, spec) for t in thetas])


def falls(values):
    return bool(np.all(np.diff(values) < 0.0))


def rises(values):
    return bool(np.all(np.diff(values) > 0.0))


def atom_sample(atom, mass, rest, n=1000):
    """n points: ``round(mass n)`` at ``atom``, the rest from ``rest(rng, size)``."""
    k = int(round(mass * n))
    return np.concatenate([np.full(k, atom), rest(np.random.default_rng(31), n - k)])


class TestBoundedBelow:
    @pytest.mark.parametrize("factor", [0.9, 1.1])
    @pytest.mark.parametrize("family", [NORMAL, NORMAL_SCALE])
    @pytest.mark.parametrize("alpha", ALPHA_GRID)
    def test_normal_power_pseudo_falls_above_the_atom_bound(self, alpha, family, factor):
        # H ~ (2 pi sigma^2)^(-a/2) ((1+a)^-1.5 - m/a) at the atom: unbounded
        # below once its mass m exceeds a (1+a)^-1.5 (0.179 at a = 0.25)
        xs = atom_sample(0.0, factor * alpha * (1.0 + alpha) ** -1.5, lambda r, k: 2.0 * r.standard_normal(k) + 3.0)
        path = criterion_path(family, "power-pseudo", alpha, [(0.0, s)[-family.param_dim :] for s in COLLAPSING], xs)
        assert rises(path) if factor < 1.0 else falls(path) and path[-1] < 0.0

    @pytest.mark.parametrize("alpha", ALPHA_GRID)
    def test_normal_renyi_falls_on_every_sample(self, alpha):
        # with mu at any node the criterion falls like (a / (1+a)) log sigma
        xs = np.random.default_rng(32).standard_normal(50)
        assert falls(criterion_path(NORMAL, "renyi", alpha, [(xs[3], s) for s in COLLAPSING], xs))

    @pytest.mark.parametrize("alpha", ALPHA_GRID)
    def test_normal_scale_renyi_falls_with_mass_at_zero(self, alpha):
        xs = np.random.default_rng(33).standard_normal(50)
        thetas = [(s,) for s in COLLAPSING]
        assert rises(criterion_path(NORMAL_SCALE, "renyi", alpha, thetas, xs))
        assert falls(criterion_path(NORMAL_SCALE, "renyi", alpha, thetas, np.append(xs, 0.0)))

    @pytest.mark.parametrize("factor", [0.9, 1.1])
    @pytest.mark.parametrize("alpha", ALPHA_GRID)
    def test_pareto_power_pseudo_falls_above_the_mass_bound(self, alpha, factor):
        # H ~ shape^a (1/(1+a)^2 - m/a) as the shape grows, m the mass at x = 1
        xs = atom_sample(1.0, factor * alpha / (1.0 + alpha) ** 2, lambda r, k: 1.0 + 3.0 * r.random(k))
        path = criterion_path(PARETO, "power-pseudo", alpha, [(s,) for s in GROWING], xs)
        assert rises(path) if factor < 1.0 else falls(path) and path[-1] < 0.0

    @pytest.mark.parametrize("alpha", ALPHA_GRID)
    def test_pareto_renyi_falls_with_mass_at_one(self, alpha):
        xs = 1.0 + np.abs(np.random.default_rng(34).standard_normal(50))
        thetas = [(s,) for s in GROWING]
        assert rises(criterion_path(PARETO, "renyi", alpha, thetas, xs))
        assert falls(criterion_path(PARETO, "renyi", alpha, thetas, np.append(xs, 1.0)))

    @pytest.mark.parametrize("alpha", ALPHA_GRID)
    def test_normal_loc_criteria_are_bounded(self, alpha):
        # at unit scale p <= (2 pi)^-1/2, so H >= -(2 pi)^(-a/2) / a and the
        # Renyi criterion >= log N + (a/2) log(2 pi), with mu on a 90% atom
        xs = atom_sample(0.0, 0.9, lambda r, k: r.standard_normal(k), n=100)
        thetas = [(m,) for m in (0.0, 1e-9, 3.0, 1e6)]
        pseudo = criterion_path(NORMAL_LOCATION, "power-pseudo", alpha, thetas, xs)
        renyi = criterion_path(NORMAL_LOCATION, "renyi", alpha, thetas, xs)
        assert np.all(pseudo >= -((2.0 * math.pi) ** (-alpha / 2.0)) / alpha)
        normalizer = math.log(NORMAL_LOCATION.renyi_normalizer([0.0], alpha))
        assert np.all(renyi >= normalizer + 0.5 * alpha * math.log(2.0 * math.pi))

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.9])
    def test_subdivergence_criterion_is_positive(self, alpha):
        # M = R / (1-a) + sum q (p_escort / p)^a is a sum of positive terms;
        # on a sample that is one atom it tends to 0 as the fit collapses on it
        cases = [
            (NORMAL, (0.0, 1.0), [(0.0, s) for s in COLLAPSING], 0.0),
            (NORMAL_SCALE, (1.0,), [(s,) for s in COLLAPSING], 0.0),
            (NORMAL_LOCATION, (0.0,), [(m,) for m in (0.0, 3.0, 1e6)], 0.0),
            (PARETO, (2.0,), [(s,) for s in GROWING], 1.0),
        ]
        for family, escort, thetas, atom in cases:
            rest = lambda r, k: atom + 1.0 + np.abs(r.standard_normal(k))
            for xs in (atom_sample(atom, 0.6, rest, n=100), np.full(10, atom)):
                path = [sub_criterion(family, escort, t, empirical(xs), alpha) for t in thetas]
                assert np.all(np.array(path) > 0.0), family.name


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


class TestDegenerateSample:
    # samples the MLE cannot fit: both robust criteria fall without bound on
    # them, and the search used to stop on its box edge, reporting
    # converged=True on the 1e12 sample (sigma 1e9 for power-pseudo)
    @pytest.mark.parametrize("kind", ROBUST_KINDS)
    @pytest.mark.parametrize(
        "family,xs",
        [
            (NORMAL, [1e12] * 50),
            (NORMAL, [-3.0] * 4),
            # inexact weighted means: the variance is ~1e-32, not 0
            (NORMAL, [5.0] * 50),
            (NORMAL, [0.1] * 30),
            (NORMAL_SCALE, [0.0] * 50),
            (PARETO, [1.0] * 50),
            # sigma^2 underflows to 0 below ~1.5e-162: a single fit steps on
            # Python floats, and its Newton step divided by it
            (NORMAL, list(1e-163 * np.random.default_rng(0).standard_normal(50))),
            (NORMAL_SCALE, list(1e-163 * np.random.default_rng(0).standard_normal(50))),
        ],
        ids=["normal-1e12", "normal-3", "normal-5", "normal-0.1", "normal-scale-0", "pareto-1",
             "normal-1e-163", "normal-scale-1e-163"],
    )
    def test_raises_as_mle(self, family, xs, kind):
        q = empirical(xs)
        spec = EstimatorSpec(kind=kind, alpha=0.5)
        with pytest.raises(DegenerateDataError):
            mle(family, q)
        with pytest.raises(DegenerateDataError) as single:
            estimate(family, spec, q)
        # in a batch after a good row, the row records the error estimate raises
        good = contaminated_rows(family, 1, len(xs), seed=2)[0][0]
        theta, _, _, converged, errors = _fit_rows(family, spec, np.stack([good, q.nodes]), np.stack([q.weights] * 2))
        assert list(errors) == [1] and not converged[1] and np.isnan(theta[1]).all()
        assert type(errors[1]) is type(single.value) and str(errors[1]) == str(single.value)
        assert theta[0].tobytes() == estimate(family, spec, empirical(good)).theta_hat.tobytes()


# Each normal family refitted on offset + scale * z (50 N(0, 1) draws z),
# over the offsets and scales it is equivariant under: both on normal,
# offsets at scale 1 on normal-loc, scales at offset 0 on normal-scale.
OFFSETS = [0.0, 1e6, 1e8, 1e12]
SCALES = [1e-8, 1e-6, 1.0, 1e8]
EQUIVARIANCE_SWEEP = (
    [(NORMAL, o, c) for o in OFFSETS for c in SCALES]
    + [(NORMAL_LOCATION, o, 1.0) for o in OFFSETS]
    + [(NORMAL_SCALE, 0.0, c) for c in SCALES]
)
# Configurations whose absolute tolerances (_PSI_TOL on a residual that
# grows like 1/sigma, _FP_STEP_TOL on a location step below the spacing of
# the offset's floats) are out of reach, so each returns converged=False;
# for power-pseudo on normal-loc at 1e12 the search's Newton polish steps
# 1e-6 (1 + |mu|) and stops on the box edge.  A scale-free fit would leave
# none of them.  The set may only shrink, and a configuration that leaves
# it must meet the sweep's 1e-6 bound.
BREAKDOWN = {
    ("normal", kind, o, c)
    for kind in ROBUST_KINDS
    for o, c in [(1e6, 1e-8), (1e6, 1e-6), (1e8, 1e-8), (1e8, 1e-6), (1e12, 1.0)]
} | {
    ("normal", "power-pseudo", 0.0, 1e-8),
    ("normal", "power-pseudo", 0.0, 1e-6),
    ("normal-loc", "power-pseudo", 1e12, 1.0),
    ("normal-loc", "renyi", 1e12, 1.0),
    ("normal-scale", "power-pseudo", 0.0, 1e-6),
    ("normal-scale", "renyi", 0.0, 1e-8),
}


class TestEquivariance:
    @pytest.mark.parametrize("kind", ROBUST_KINDS)
    def test_offset_scale_sweep(self, kind):
        # each fit raises on a sample whose spread rounds to zero, is a
        # listed breakdown that reports converged=False, or converges to
        # the fit on z mapped forward
        z = np.random.default_rng(0).standard_normal(50)
        spec = EstimatorSpec(kind=kind, alpha=0.5)
        reference = {f: estimate(f, spec, empirical(z)).theta_hat for f in (NORMAL, NORMAL_LOCATION, NORMAL_SCALE)}
        for family, offset, scale in EQUIVARIANCE_SWEEP:
            xs = offset + scale * z
            try:
                result = estimate(family, spec, empirical(xs))
            except DegenerateDataError:
                assert np.ptp(xs) == 0.0
                continue
            # (mu - offset) / scale and sigma / scale, on the free coordinates
            shift = np.array([offset, 0.0])[list(family._free)]
            back = (result.theta_hat - shift) / scale
            config = (family.name, kind, offset, scale)
            if config in BREAKDOWN:
                assert not result.converged, config
            else:
                assert result.converged and np.all(np.abs(back - reference[family]) <= 1e-6), config

    @pytest.mark.parametrize("offset", [1e8, 1e12])
    def test_search_root_on_box_edge_not_converged(self, monkeypatch, offset):
        # with the row solver made to reject, the search's Newton polish
        # meets psi = 0 to _PSI_TOL on the box's upper edge, 15 sigma from
        # the fit at 0.116
        real_rows = mindiv.estimators._moment_fixed_point

        def rejecting(*args):
            theta, accepted, iterations, criteria = real_rows(*args)
            return theta, np.zeros_like(accepted), iterations, criteria

        monkeypatch.setattr(mindiv.estimators, "_moment_fixed_point", rejecting)
        z = np.random.default_rng(0).standard_normal(50)
        spec = EstimatorSpec(kind="power-pseudo", alpha=0.5)
        q = empirical(offset + z)
        result = estimate(NORMAL_LOCATION, spec, q)
        (lo, hi), = NORMAL_LOCATION.default_bounds(q.nodes, q.weights)
        assert result.theta_hat[0] == hi
        assert not result.converged


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
