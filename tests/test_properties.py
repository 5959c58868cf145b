"""Properties of the fit drivers, drawn by hypothesis (profiles in conftest.py)."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mindiv import FAMILIES, PARETO, EstimatorSpec, Measure, ToolkitError, estimate
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
