"""Tests for the scalar divergence and pseudodistance kernels."""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from scipy.special import logsumexp

from mindiv import (
    DomainError,
    NORMAL,
    NORMAL_LOCATION,
    NORMAL_SCALE,
    PARETO,
    empirical,
    orthogonal_constant,
    phi,
    phi_ring,
    phi_sharp,
    phi_star,
    power_divergence,
    psi_components,
    psi_kernel,
    quadrature_of,
    renyi_pseudodistance,
)
from mindiv.kernels import log_sum_exp

T_GRID = np.concatenate([np.linspace(0.1, 10.0, 34), [0.5, 1.0, np.e]])
ALPHAS = [0.0, 0.3, 0.5, 1.0, 2.0, 3.0]


class TestPhi:
    def test_worked_values(self):
        assert phi(2.0, 1.0) == pytest.approx(0.0, abs=1e-15)
        assert phi(0.0, math.e) == pytest.approx(math.e - 2.0, rel=1e-14)
        assert phi(2.0, 3.0) == pytest.approx(2.0, rel=1e-14)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_zero_at_one(self, alpha):
        assert abs(phi(alpha, 1.0)) < 1e-14

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_convexity_on_grid(self, alpha):
        ts = np.linspace(0.05, 8.0, 400)
        vals = phi(alpha, ts)
        second = np.diff(vals, 2)
        assert np.all(second >= -1e-10)

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            phi(0.5, 0.0)
        with pytest.raises(DomainError):
            phi(0.5, -1.0)
        with pytest.raises(DomainError):
            phi(0.5, math.nan)

    def test_limit_branch_window(self):
        # within 1e-6 of a branch point the limit formula is used
        assert phi(1e-7, 2.0) == phi(0.0, 2.0)
        assert phi(1.0 - 1e-7, 2.0) == phi(1.0, 2.0)
        for t in (0.7, 2.0):
            assert phi_ring(1.0 - 5e-7, t) == phi_ring(1.0, t)
            assert phi_ring(1.0 + 5e-7, t) == phi_ring(1.0, t)
            assert phi_sharp(5e-7, t) == phi_sharp(0.0, t)
            assert psi_kernel(5e-7, 2.0, t) == psi_kernel(0.0, 2.0, t)
            assert psi_components(5e-7, 2.0, t) == psi_components(0.0, 2.0, t)
            psi0, psi1, rho = psi_components(5e-7, 2.0, t)
            assert psi0 + psi1 + rho * t == pytest.approx(psi_kernel(5e-7, 2.0, t), rel=1e-14)


# The decimal references work to 60 digits on the exact values of the float
# arguments.  t spans six decades and comes within 1e-9..1e-2 of 1, where the
# textbook formulas cancel.
NEAR_ONE = np.logspace(-9.0, -2.0)
ACCURACY_T = np.concatenate([np.logspace(-3.0, 3.0), 1.0 - NEAR_ONE, 1.0 + NEAR_ONE])


def _dec_power(t, a):
    return (a * t.ln()).exp()


def _dec_phi(a, t):
    if a == 0:
        return -t.ln() + t - 1
    if a == 1:
        return t * t.ln() - t + 1
    return (_dec_power(t, a) - a * t + a - 1) / (a * (a - 1))


def _dec_phi_ring(a, t):
    return t * t.ln() if a == 1 else (_dec_power(t, a) - t) / (a - 1)


def _dec_phi_sharp(a, t):
    return -t.ln() if a == 0 else (1 - _dec_power(t, a)) / a


def _dec_psi(a, s, t):
    if a == 0:
        return s - t + t * t.ln() - t * s.ln()
    s_a, t_a = _dec_power(s, a), _dec_power(t, a)
    return (s * s_a - t * t_a) / (1 + a) + t * (t_a - s_a) / a


@pytest.mark.parametrize(
    "kernel, reference",
    [
        (phi, _dec_phi),
        (phi_ring, _dec_phi_ring),
        (phi_sharp, _dec_phi_sharp),
        (phi_star, lambda a, t: _dec_phi(1 - a, t)),
        (psi_kernel, _dec_psi),
    ],
    ids=["phi", "phi_ring", "phi_sharp", "phi_star", "psi_kernel"],
)
def test_relative_error_against_decimal_reference(kernel, reference):
    if kernel is psi_kernel:
        # t / s on the grid, so that t comes within 1e-9 of s
        cases = [(a, (s, s * u)) for a in ALPHAS for s in (0.3, 1.7, 40.0) for u in ACCURACY_T]
    else:
        cases = [(a, (t,)) for a in [-0.5] + ALPHAS for t in ACCURACY_T]
    worst = 0.0
    with localcontext() as ctx:
        ctx.prec = 60
        for a, args in cases:
            exact = reference(Decimal(a), *map(Decimal, args))
            error = abs((Decimal(kernel(a, *args)) - exact) / exact)
            worst = max(worst, float(error))
    assert worst <= 1e-6


@pytest.mark.parametrize(
    "kernel, args, expected",
    [
        (psi_kernel, (3.0, 1.0, 1e-80), 0.25),
        (psi_kernel, (0.0, 1e-200, 1e200), 1e200 * (400.0 * math.log(10.0) - 1.0)),
        (phi, (-0.5, 1e-210), 1e105 / 0.75),
        (phi, (0.0, 5e-324), -math.log(5e-324) - 1.0),
        (phi_ring, (-0.5, 1e-210), 1e105 / -1.5),
        (phi_ring, (0.5, 5e-324), -2.0 * math.sqrt(5e-324)),
        (phi_ring, (2.0, 1e-20), -1e-20),
    ],
)
def test_extreme_arguments(kernel, args, expected):
    # density ratios of 1e80 and beyond (a 19-sigma normal tail): finite and
    # accurate, with no power formed beyond the kernel's own scale
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        assert kernel(*args) == pytest.approx(expected, rel=1e-12)


class TestPhiStar:
    def test_worked_values(self):
        assert phi_star(0.0, 2.0) == pytest.approx(2.0 * math.log(2.0) - 1.0, rel=1e-12)
        assert phi_star(0.5, 1.0) == pytest.approx(0.0, abs=1e-15)
        assert phi_star(2.0, 0.5) == pytest.approx(0.25, rel=1e-14)

    @pytest.mark.parametrize("alpha", [0.0, 0.3, 1.0, 2.0])
    def test_adjoint_identity(self, alpha):
        for t in T_GRID:
            lhs = phi_star(alpha, t)
            rhs = phi(1.0 - alpha, t)
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-13)


class TestRingAndSharp:
    def test_worked_values(self):
        assert phi_ring(2.0, 3.0) == pytest.approx(6.0, rel=1e-14)
        assert phi_ring(1.0, 1.0) == pytest.approx(0.0, abs=1e-15)
        assert phi_ring(0.5, 4.0) == pytest.approx(4.0, rel=1e-14)
        assert phi_sharp(2.0, 3.0) == pytest.approx(-4.0, rel=1e-14)
        assert phi_sharp(0.0, 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_additivity_example(self):
        assert phi_ring(2.0, 3.0) + phi_sharp(2.0, 3.0) == pytest.approx(phi(2.0, 3.0), rel=1e-14)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_decomposition_identity(self, alpha):
        for t in T_GRID:
            total = phi_ring(alpha, t) + phi_sharp(alpha, t)
            assert total == pytest.approx(phi(alpha, t), rel=1e-12, abs=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            phi_ring(1.0, 0.0)
        with pytest.raises(DomainError):
            phi_sharp(1.0, -2.0)


class TestPsiKernel:
    def test_worked_values(self):
        assert psi_kernel(1.0, 3.0, 1.0) == pytest.approx(2.0, rel=1e-12)
        assert psi_kernel(0.7, 5.0, 5.0) == pytest.approx(0.0, abs=1e-14)
        assert psi_kernel(0.0, 2.0, 1.0) == pytest.approx(1.0 - math.log(2.0), rel=1e-14)

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 2.0])
    def test_nonnegative_zero_iff_equal(self, alpha):
        grid = np.logspace(-1.2, 1.2, 50)
        s, t = np.meshgrid(grid, grid)
        vals = psi_kernel(alpha, s, t)
        assert np.all(vals >= 0.0)
        off_diag = ~np.isclose(s, t)
        assert np.all(vals[off_diag] > 0.0)
        assert np.all(np.abs(np.diag(vals.reshape(50, 50))) < 1e-14)

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 2.0])
    def test_weighted_mixture_identity(self, alpha):
        # psi_a(s, t) = t^(1+a) [a phi_(1+a)(s/t) + (1-a) phi_a(s/t)]
        grid = np.logspace(-1.0, 1.0, 21)
        for s in grid:
            for t in grid:
                mix = t ** (1.0 + alpha) * (
                    alpha * phi(1.0 + alpha, s / t) + (1.0 - alpha) * phi(alpha, s / t)
                )
                assert psi_kernel(alpha, s, t) == pytest.approx(mix, rel=1e-10, abs=1e-12)

    def test_continuity_at_zero_order(self):
        grid = np.logspace(-1.0, 1.0, 21)
        for s in grid:
            for t in grid:
                gap = abs(psi_kernel(1e-6, s, t) - psi_kernel(0.0, s, t))
                assert gap < 1e-4

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            psi_kernel(0.5, 0.0, 1.0)
        with pytest.raises(DomainError):
            psi_kernel(0.5, 1.0, -1.0)
        with pytest.raises(DomainError):
            psi_kernel(-0.1, 1.0, 1.0)


class TestPsiComponents:
    def test_worked_values(self):
        psi0, psi1, rho = psi_components(1.0, 2.0, 3.0)
        assert psi0 == pytest.approx(2.0, rel=1e-14)
        assert psi1 == pytest.approx(1.5, rel=1e-12)
        assert rho == pytest.approx(-1.0, rel=1e-14)
        assert psi0 + psi1 + rho * 3.0 == pytest.approx(psi_kernel(1.0, 2.0, 3.0), rel=1e-12)

    def test_rho_limit_and_zero(self):
        assert psi_components(0.0, 1.0, 1.0)[2] == pytest.approx(0.0, abs=1e-15)
        rho_small = psi_components(1e-8, 2.0, 1.0)[2]
        assert rho_small == pytest.approx(-math.log(2.0), abs=1e-6)

    @pytest.mark.parametrize("alpha", [0.0, 0.3, 1.0, 2.5])
    def test_sum_identity(self, alpha):
        grid = np.logspace(-1.0, 1.0, 15)
        for s in grid:
            for t in grid:
                psi0, psi1, rho = psi_components(alpha, s, t)
                total = psi0 + psi1 + rho * t
                scale = max(1.0, abs(psi0), abs(psi1), abs(rho * t))
                assert abs(total - psi_kernel(alpha, s, t)) < 1e-12 * scale

    def test_rejects_negative_order(self):
        with pytest.raises(DomainError, match="nonnegative"):
            psi_components(-0.5, 1.0, 1.0)


class TestOrthogonalConstant:
    def test_interior(self):
        for a in (0.2, 0.5, 0.8):
            assert orthogonal_constant(a) == pytest.approx(1.0 / (a * (1.0 - a)), rel=1e-15)

    def test_outside_is_infinite(self):
        assert math.isinf(orthogonal_constant(0.0))
        assert math.isinf(orthogonal_constant(1.0))
        assert math.isinf(orthogonal_constant(2.0))


class TestPowerDivergence:
    def test_self_divergence_zero(self):
        for alpha in (0.0, 0.5, 1.0, 2.0):
            assert abs(power_divergence(NORMAL, [0.0, 1.0], [0.0, 1.0], alpha)) < 1e-12

    def test_normal_location_order_two(self):
        # chi-square bracket is e - 1; the order-two prefactor halves it
        value = power_divergence(NORMAL_LOCATION, [1.0], [0.0], 2.0)
        assert value == pytest.approx((math.e - 1.0) / 2.0, rel=1e-10)

    def test_skew_symmetry(self):
        lhs = power_divergence(NORMAL, [0.7, 1.3], [0.0, 1.0], 0.3)
        rhs = power_divergence(NORMAL, [0.0, 1.0], [0.7, 1.3], 0.7)
        assert lhs == pytest.approx(rhs, rel=1e-8)

    def test_nonnegative(self):
        for alpha in (0.0, 0.3, 1.0, 2.0):
            assert power_divergence(NORMAL_SCALE, [1.7], [1.0], alpha) > 0.0

    def test_singular_members_give_orthogonal_constant(self):
        # means 1 apart at scale 1e-200: the product integral underflows to 0
        assert power_divergence(NORMAL, [0.0, 1e-200], [1.0, 1e-200], 0.5) == orthogonal_constant(0.5) == 4.0

    @pytest.mark.parametrize(
        "family, theta, theta0, alpha",
        [
            (NORMAL_SCALE, [1.5], [1.0], 2.0),
            (NORMAL, [0.0, 2.0], [0.0, 1.0], 2.0),
            (PARETO, [0.9], [2.0], 2.0),
            (NORMAL_SCALE, [0.5], [1.2], -0.5),
        ],
    )
    def test_infinite_where_the_product_does_not_normalize(self, family, theta, theta0, alpha):
        assert power_divergence(family, theta, theta0, alpha) == math.inf

    @pytest.mark.parametrize(
        "family, theta, theta0, match",
        [(NORMAL_SCALE, [1e200], [1e-200], "ratio of scales"), (PARETO, [1e10], [1e-300], "ratio of shapes")],
    )
    def test_overflowing_ratio_is_a_domain_error(self, family, theta, theta0, match):
        # at alpha 0 the members swap, and the ratio of theta0 to theta is finite
        for alpha in (0.5, 1.0):
            with pytest.raises(DomainError, match=match):
                power_divergence(family, theta, theta0, alpha)
        with pytest.raises(DomainError, match=match):
            power_divergence(family, theta0, theta, 0.0)

    @pytest.mark.parametrize("family", [NORMAL, NORMAL_SCALE, PARETO], ids=lambda f: f.name)
    def test_wide_gaps_against_decimal_reference(self, family):
        # a scale or shape 1e-3 to 1e-150 of the other's, where the relative
        # gap rounds to -1 (or gives the ratio to few digits)
        with localcontext() as ctx:
            ctx.prec = 50
            for small in (1e-3, 1e-30, 1e-150):
                member = [small] if family is not NORMAL else [0.5, small]
                for theta, theta0 in ((member, [1.0] * len(member)), ([1.0] * len(member), member)):
                    for alpha in (0.0, 0.25, 0.5, 1.0):
                        exact = _dec_power_divergence(family, theta, theta0, Decimal(alpha))
                        error = abs((Decimal(power_divergence(family, theta, theta0, alpha)) - exact) / exact)
                        assert error <= 1e-12, (small, theta, alpha)

    @pytest.mark.parametrize("family", [NORMAL, NORMAL_LOCATION, NORMAL_SCALE, PARETO], ids=lambda f: f.name)
    def test_relative_error_against_decimal_reference(self, family):
        # members `gap` apart relative to the scale (the shape on Pareto) in
        # every free coordinate, with random signs
        rng = np.random.default_rng(5)
        bounds = {1e-7: 2e-8, 1e-5: 2e-10, 1e-2: 1e-12, 0.3: 1e-12}
        with localcontext() as ctx:
            ctx.prec = 50
            for gap, bound in bounds.items():
                worst = 0.0
                for alpha in (-0.5, 0.0, 0.25, 0.5, 1.0, 2.0):
                    for _ in range(20):
                        theta, theta0 = _member_pair(family, rng, gap)
                        exact = _dec_power_divergence(family, theta, theta0, Decimal(alpha))
                        error = abs((Decimal(power_divergence(family, theta, theta0, alpha)) - exact) / exact)
                        worst = max(worst, float(error))
                assert worst <= bound, gap


def _member_pair(family, rng, gap):
    sign = rng.choice([-1.0, 1.0], 2)
    if family is PARETO:
        shape0 = math.exp(rng.uniform(-1.0, 2.0))
        return [shape0 * (1.0 + gap * sign[0])], [shape0]
    mu0, sigma0 = rng.uniform(-3.0, 3.0), 1.0 if family is NORMAL_LOCATION else math.exp(rng.uniform(-2.0, 2.0))
    theta, theta0 = [mu0 + gap * sign[0] * sigma0, sigma0 * (1.0 + gap * sign[1])], [mu0, sigma0]
    free = {NORMAL: slice(0, 2), NORMAL_LOCATION: slice(0, 1), NORMAL_SCALE: slice(1, 2)}[family]
    return theta[free], theta0[free]


def _dec_loc_scale(family, theta):
    full = {NORMAL: theta, NORMAL_LOCATION: [theta[0], 1.0], NORMAL_SCALE: [0.0, theta[0]]}[family]
    return map(Decimal, full)


def _dec_power_divergence(family, theta, theta0, a):
    """(R - 1) / (a (a - 1)), R the integral of p_theta^a p_theta0^(1-a), and
    the Kullback-Leibler limits at a = 1 and (members swapped) a = 0."""
    if a == 0:
        return _dec_power_divergence(family, theta0, theta, Decimal(1))
    if family is PARETO:
        shape, shape0 = Decimal(theta[0]), Decimal(theta0[0])
        if a == 1:
            return (shape / shape0).ln() - (shape - shape0) / shape
        log_r = a * shape.ln() + (1 - a) * shape0.ln() - (a * shape + (1 - a) * shape0).ln()
    else:
        (mu, sigma), (mu0, sigma0) = _dec_loc_scale(family, theta), _dec_loc_scale(family, theta0)
        if a == 1:
            return (sigma0 / sigma).ln() + (sigma * sigma + (mu - mu0) ** 2) / (2 * sigma0 * sigma0) - Decimal(0.5)
        k = a + (1 - a) * (sigma / sigma0) ** 2
        log_r = (1 - a) * (sigma / sigma0).ln() - k.ln() / 2 - a * (1 - a) * (mu - mu0) ** 2 / (2 * k * sigma0 * sigma0)
    return (log_r.exp() - 1) / (a * (a - 1))


class TestRenyiPseudodistance:
    def test_reflexivity(self):
        quad = quadrature_of(NORMAL_SCALE, [1.0], 512)
        value = renyi_pseudodistance(
            NORMAL_SCALE, [1.0], quad, lambda x: NORMAL_SCALE.density([1.0], x), 0.5
        )
        assert abs(value) < 1e-10

    def test_holder_form_dual_route(self):
        # Exact Holder-gap form of the pseudodistance, evaluated analytically
        # for the unit-scale normal pair mu=1 vs mu=0 at order 0.5: the
        # density-power logs cancel and the value is exactly 1/3.
        quad = quadrature_of(NORMAL_LOCATION, [0.0], 512)
        value = renyi_pseudodistance(
            NORMAL_LOCATION, [1.0], quad, lambda x: NORMAL_LOCATION.density([0.0], x), 0.5
        )
        assert value == pytest.approx(1.0 / 3.0, abs=1e-6)

    def test_scale_pair_frozen_value(self):
        # independent adaptive-quadrature oracle value, frozen
        quad = quadrature_of(NORMAL_SCALE, [2.0], 512)
        value = renyi_pseudodistance(
            NORMAL_SCALE, [1.0], quad, lambda x: NORMAL_SCALE.density([2.0], x), 0.3
        )
        assert value == pytest.approx(0.3436316876023664, abs=1e-8)
        assert value > 0.0

    def test_zero_order_limit_is_kullback(self):
        quad = quadrature_of(NORMAL_LOCATION, [0.0], 512)
        value = renyi_pseudodistance(
            NORMAL_LOCATION, [1.0], quad, lambda x: NORMAL_LOCATION.density([0.0], x), 0.0
        )
        assert value == pytest.approx(0.5, abs=1e-10)

    @pytest.mark.parametrize("outlier", [None, 1e6])
    @pytest.mark.parametrize("sigma", [1.3, 1e-4])
    def test_matches_logsumexp(self, outlier, sigma):
        # Cauchy comparison law: its density stays positive at the outlier.
        # At sigma = 1e-4 every tilted model density underflows unless the
        # log-sum is shifted by its largest term.
        xs = np.random.default_rng(14).standard_cauchy(50)
        q = empirical(xs if outlier is None else np.append(xs, outlier))
        q_density = lambda x: 1.0 / (math.pi * (1.0 + x * x))
        a = 0.5
        log_w = np.log(q.weights)
        lp = NORMAL_SCALE.log_density([sigma], q.nodes)
        want = (
            math.log(NORMAL_SCALE.power_mass_integral([sigma], a)) / (1.0 + a)
            + logsumexp(log_w + a * np.log(q_density(q.nodes))) / (a * (1.0 + a))
            - logsumexp(log_w + a * lp) / a
        )
        got = renyi_pseudodistance(NORMAL_SCALE, [sigma], q, q_density, a)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_rejects_nonpositive_density(self):
        quad = quadrature_of(NORMAL_LOCATION, [0.0], 512)
        with pytest.raises(DomainError):
            renyi_pseudodistance(NORMAL_LOCATION, [1.0], quad, lambda x: 0.0 * x, 0.5)

    def test_rejects_negative_order(self):
        quad = quadrature_of(NORMAL_LOCATION, [0.0], 64)
        q_density = lambda x: NORMAL_LOCATION.density([0.0], x)
        with pytest.raises(DomainError, match="nonnegative"):
            renyi_pseudodistance(NORMAL_LOCATION, [1.0], quad, q_density, -0.5)


class TestLogSumExp:
    def test_matches_logsumexp(self):
        terms = np.array([-800.0, -801.0, -1e4])
        value, scaled = log_sum_exp(terms)
        assert value == pytest.approx(logsumexp(terms), rel=1e-15)
        assert np.array_equal(scaled, np.exp(terms - terms.max()))
        assert log_sum_exp(np.full(3, -np.inf))[0] == -np.inf

    def test_rows_equal_single_rows(self):
        # each row's log-sum and scaled terms equal the 1-d call on that row
        # bit for bit, whatever the other rows hold
        terms = np.random.default_rng(15).normal(0.0, 3.0, (20_000, 4))
        terms[0] = -np.inf
        terms[1, 2] = -np.inf
        terms[2, 0] = 800.0
        values, scaled = log_sum_exp(terms)
        ones = [log_sum_exp(row) for row in terms]
        assert values.tobytes() == np.array([v for v, _ in ones]).tobytes()
        assert scaled.tobytes() == np.stack([s for _, s in ones]).tobytes()

    def test_nonfinite_rows_give_infinite_log_sums_without_warnings(self):
        # a row of all -inf sums to 0 and a row with a +inf term to +inf: the
        # non-finite path gives -inf and +inf, with no RuntimeWarning (which
        # pytest raises), alone and next to a finite row
        terms = np.array([[-np.inf, -np.inf, -np.inf], [0.5, np.inf, -1.0], [0.0, -2.0, 1.5]])
        values, scaled = log_sum_exp(terms)
        assert values[0] == -np.inf and values[1] == np.inf
        assert values[2] == log_sum_exp(terms[2])[0]
        assert log_sum_exp(terms[0])[0] == -np.inf and log_sum_exp(terms[1])[0] == np.inf
        assert scaled[0].tolist() == [0.0, 0.0, 0.0] and scaled[1, 1] == np.inf
