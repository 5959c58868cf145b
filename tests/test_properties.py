"""Properties of the fit drivers, drawn by hypothesis (profiles in conftest.py)."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad

from mindiv import (
    FAMILIES,
    NORMAL,
    NORMAL_LOCATION,
    NORMAL_SCALE,
    PARETO,
    ContaminationModel,
    EstimatorSpec,
    Measure,
    ToolkitError,
    estimate,
    pool_results,
    run_study,
)
from mindiv.estimators import KINDS, _fit_rows


@st.composite
def batches(draw):
    """A family, a spec and (R, n) rows of nodes and weights, with outliers
    (20 x Cauchy on the normal kinds, x50 on Pareto), sometimes an atom that
    leaves a row no start, and equal or uneven weights per row."""
    family = FAMILIES[draw(st.sampled_from(sorted(FAMILIES)))]
    kind = draw(st.sampled_from(KINDS))
    alpha = 0.0 if kind == "mle" else draw(st.sampled_from([0.25, 0.5, 0.9]))
    rows, n = draw(st.integers(1, 4)), draw(st.integers(5, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if family is PARETO:
        x = PARETO.sample([draw(st.floats(0.5, 4.0))], rows * n, rng).reshape(rows, n)
        x[:, : n // 10] *= 50.0
        atom = 1.0
    else:
        x = rng.standard_normal((rows, n)) * draw(st.floats(0.5, 3.0)) + draw(st.floats(-2.0, 2.0))
        x[:, : n // 10] = 20.0 * rng.standard_cauchy((rows, n // 10))
        atom = 0.0
    if draw(st.integers(0, 7)) == 0:
        x[draw(st.integers(0, rows - 1)), : n // 2 + 1] = atom
    w = np.full((rows, n), 1.0 / n)
    for j in range(rows):
        if draw(st.booleans()):
            uneven = rng.random(n) + 0.5
            w[j] = uneven / uneven.sum()
    escort = None
    if kind == "subdivergence":
        # the MLE of one row (that row's fit is the closed form), or off it
        j = draw(st.integers(0, rows - 1))
        try:
            mle = family.mle_parameter(x[j], w[j])
        except ToolkitError:
            mle = np.array([0.5, 1.5])[list(family._free)] if family is not PARETO else np.array([2.0])
        escort = tuple(mle * draw(st.sampled_from([1.0, 1.1, 0.8])))
    return family, EstimatorSpec(kind, alpha, escort), x, w


@given(batches())
def test_batch_row_is_the_single_estimate(case):
    # each row of one _fit_rows call is, bit for bit, the estimate call on
    # that row alone: parameter, criterion, iterations, converged flag, or
    # the same error
    family, spec, x, w = case
    theta, criteria, iterations, converged, errors = _fit_rows(family, spec, x, w)
    for j in range(len(x)):
        q = Measure(x[j], w[j])
        if j in errors:
            with pytest.raises(type(errors[j])) as raised:
                estimate(family, spec, q)
            assert str(raised.value) == str(errors[j])
            continue
        result = estimate(family, spec, q)
        assert theta[j].tobytes() == result.theta_hat.tobytes()
        assert (iterations[j], converged[j]) == (result.iterations, result.converged)
        if spec.kind == "renyi":
            assert math.exp(-criteria[j]) == result.criterion_value
        elif spec.kind != "mle":
            assert np.array_equal(criteria[j], result.criterion_value, equal_nan=True)


STUDY_MODEL = ContaminationModel(base_sigma=1.0, epsilon=0.1, contaminant="cauchy")
STUDY_SPECS = (EstimatorSpec("mle"), EstimatorSpec("power-pseudo", 0.5), EstimatorSpec("renyi", 0.5))


@given(
    seed=st.one_of(st.integers(0, 2**65 - 1), st.sampled_from([0, 2**32 - 1, 2**32, 2**64 - 1, 2**64])),
    # with studies that cross 2^32, where an index takes a second word
    first_rep=st.one_of(st.integers(0, 2**33 - 1), st.integers(2**32 - 8, 2**32)),
    n=st.integers(5, 30),
    reps=st.integers(1, 8),
    cuts=st.lists(st.integers(1, 7), max_size=3),
)
def test_pooled_chunks_are_one_study(seed, first_rep, n, reps, cuts):
    # a study split into chunks at any replications pools into the study
    # of one call, whatever the 32-bit word counts of the seed and of the
    # indices; repr compares the estimates bit for bit and NaN statistics
    # (no converged fit) as equal
    bounds = sorted({0, reps, *(c for c in cuts if c < reps)})
    chunks = [
        run_study(STUDY_MODEL, n, stop - start, STUDY_SPECS, seed=seed, first_rep=first_rep + start)
        for start, stop in zip(bounds, bounds[1:])
    ]
    direct = run_study(STUDY_MODEL, n, reps, STUDY_SPECS, seed=seed, first_rep=first_rep)
    assert repr(pool_results(chunks)) == repr(direct)


def quad_moments(f, score, cuts):
    """The integral of ``f`` over ``cuts``' pieces by adaptive quadrature,
    and the mean of ``score`` under ``f`` normalized."""
    integral = lambda g: sum(quad(g, lo, hi, epsabs=1e-13, epsrel=1e-12, limit=200)[0] for lo, hi in zip(cuts, cuts[1:]))
    mass = integral(f)
    return mass, integral(lambda x: f(x) * score(x)) / mass


def normal_product_oracle(names, b, c, member, other):
    """``quad_moments`` of p^b p_other^c, normal members given as (mu,
    sigma), for each free coordinate in ``names``; 20 of the wider scale
    about both means covers the product, whose precision is at least
    (b + c) / 2 = (1 + e) / 2 over the wider scale squared."""
    (mu, sigma), (mu_o, sigma_o) = member, other
    log_p = lambda x, m, s: -0.5 * ((x - m) / s) ** 2 - math.log(s) - 0.5 * math.log(2.0 * math.pi)
    f = lambda x: math.exp(b * log_p(x, mu, sigma) + c * log_p(x, mu_o, sigma_o))
    reach = 20.0 * max(sigma, sigma_o)
    cuts = sorted({min(mu, mu_o) - reach, mu, mu_o, max(mu, mu_o) + reach})
    scores = {"mu": lambda x: (x - mu) / sigma**2, "sigma": lambda x: (((x - mu) / sigma) ** 2 - 1.0) / sigma}
    moments = [quad_moments(f, scores[name], cuts) for name in names]
    return moments[0][0], [mean for _, mean in moments]


def pareto_product_oracle(b, c, shape, shape_o):
    """``quad_moments`` of p^b p_other^c on [1, inf), in u = log x."""
    log_p = lambda u, t: math.log(t) - (t + 1.0) * u
    f = lambda u: math.exp(b * log_p(u, shape) + c * log_p(u, shape_o) + u)
    mass, mean = quad_moments(f, lambda u: 1.0 / shape - u, [0.0, math.inf])
    return mass, [mean]


@pytest.mark.parametrize("family", [NORMAL, NORMAL_LOCATION, NORMAL_SCALE, PARETO], ids=lambda f: f.name)
@given(
    e=st.floats(0.0, 2.0),
    c=st.one_of(st.just(0.0), st.floats(0.0, 1.0, exclude_max=True)),
    locations=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
    scales=st.tuples(st.floats(0.3, 3.0), st.floats(0.3, 3.0)),
    shapes=st.tuples(st.floats(0.5, 5.0), st.floats(0.5, 5.0)),
)
def test_power_product_is_the_quadrature(family, e, c, locations, scales, shapes):
    # the closed form's integral of p_theta^(1+e-c) p_other^c (relative)
    # and score mean under it (absolute) agree with adaptive quadrature to
    # 1e-10; at c = 0 the second member is not read
    b = 1.0 + e - c
    if family is PARETO:
        theta, other = np.array(shapes[:1]), np.array(shapes[1:])
        mass, mean = pareto_product_oracle(b, c, *shapes)
    else:
        names = family.param_names
        mu = locations if "mu" in names else (0.0, 0.0)
        sigma = scales if "sigma" in names else (1.0, 1.0)
        theta, other = (np.array([{"mu": m, "sigma": s}[name] for name in names]) for m, s in zip(mu, sigma))
        mass, mean = normal_product_oracle(names, b, c, (mu[0], sigma[0]), (mu[1], sigma[1]))
    got_mass, got_mean = family._power_product(theta, other, e, c)
    assert abs(got_mass - mass) <= 1e-10 * mass
    assert np.abs(got_mean - mean).max() <= 1e-10
