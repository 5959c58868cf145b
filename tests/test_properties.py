"""Properties of the fit drivers, drawn by hypothesis (profiles in conftest.py)."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mindiv import (
    FAMILIES,
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
