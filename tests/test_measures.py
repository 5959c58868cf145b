"""Tests for point-mass measures, quadrature, contamination, and parsing."""

import io
import math

import numpy as np
import pytest

from mindiv import (
    DomainError,
    EstimatorSpec,
    InvalidInputError,
    Measure,
    NORMAL,
    PARETO,
    SampleParseError,
    contaminate,
    empirical,
    influence_curve,
    quadrature_of,
    read_sample,
)


class TestEmpirical:
    def test_uniform_weights(self):
        q = empirical([1.0, 2.0, 3.0])
        assert np.allclose(q.nodes, [1.0, 2.0, 3.0])
        assert np.allclose(q.weights, [1 / 3] * 3)

    def test_sample_mean(self):
        assert (q := empirical([1.0, 2.0, 3.0])).weights @ q.nodes == pytest.approx(2.0)

    def test_dirac(self):
        q = empirical([4.0])
        assert q.weights @ (q.nodes**2 + 1.0) == pytest.approx(17.0)

    def test_duplicates_keep_nodes(self):
        assert len(empirical([1.0, 1.0, 2.0])) == 3

    def test_rejects_bad_input(self):
        with pytest.raises(InvalidInputError):
            empirical([])
        with pytest.raises(InvalidInputError):
            empirical([1.0, math.nan])
        with pytest.raises(InvalidInputError):
            empirical([1.0, math.inf])


class TestMeasureInvariants:
    def test_mass_conservation(self):
        rng = np.random.default_rng(1)
        for ctor in (
            lambda: empirical(rng.standard_normal(17)),
            lambda: quadrature_of(NORMAL, [0.3, 1.2], 128),
            lambda: contaminate(empirical(rng.standard_normal(9)), 4.0, 0.2),
        ):
            q = ctor()
            assert abs(float(q.weights.sum()) - 1.0) <= 1e-12

    def test_rejects_invalid_weights(self):
        with pytest.raises(InvalidInputError):
            Measure(np.array([0.0, 1.0]), np.array([0.5, 0.6]))
        with pytest.raises(InvalidInputError):
            Measure(np.array([0.0, 1.0]), np.array([1.0, 0.0]))
        with pytest.raises(InvalidInputError):
            Measure(np.array([0.0, math.inf]), np.array([0.5, 0.5]))

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(InvalidInputError, match="matching"):
            Measure(np.array([0.0, 1.0, 2.0]), np.array([0.5, 0.5]))

    def test_immutable_arrays(self):
        q = empirical([1.0, 2.0])
        with pytest.raises(ValueError):
            q.nodes[0] = 5.0


class TestIntegrate:
    def test_two_point(self):
        q = Measure(np.array([0.0, 1.0]), np.array([0.5, 0.5]))
        assert q.weights @ q.nodes == pytest.approx(0.5)

    def test_total_mass(self):
        q = empirical(np.linspace(-2, 2, 11))
        assert q.weights @ np.ones_like(q.nodes) == pytest.approx(1.0)

    def test_linearity(self):
        q = quadrature_of(NORMAL, [0.0, 1.0], 128)
        f = lambda x: np.sin(x)
        g = lambda x: x**2
        combined = q.weights @ (2.0 * f(q.nodes) + 3.0 * g(q.nodes))
        split = 2.0 * (q.weights @ f(q.nodes)) + 3.0 * (q.weights @ g(q.nodes))
        assert combined == pytest.approx(split, rel=1e-12)


class TestQuadratureOf:
    def test_normal_moments(self):
        q = quadrature_of(NORMAL, [0.0, 1.0], 512)
        assert q.weights @ q.nodes**2 == pytest.approx(1.0, abs=1e-10)
        assert q.weights @ q.nodes**4 == pytest.approx(3.0, abs=1e-8)

    def test_normal_moments_general_parameters(self):
        mu, sigma = 1.5, 2.5
        q = quadrature_of(NORMAL, [mu, sigma], 512)
        # central moments 0..6 of a normal law
        targets = {0: 1.0, 1: 0.0, 2: sigma**2, 3: 0.0, 4: 3 * sigma**4, 5: 0.0, 6: 15 * sigma**6}
        for k, want in targets.items():
            got = q.weights @ (q.nodes - mu) ** k
            assert got == pytest.approx(want, rel=1e-8, abs=1e-8)

    def test_density_self_integral(self):
        q = quadrature_of(NORMAL, [0.0, 1.0], 512)
        got = q.weights @ NORMAL.density([0.0, 1.0], q.nodes)
        assert got == pytest.approx(1.0 / (2.0 * math.sqrt(math.pi)), abs=1e-8)

    def test_pareto_mass_and_log_moment(self):
        q = quadrature_of(PARETO, [2.0], 512)
        assert q.weights @ np.ones_like(q.nodes) == pytest.approx(1.0, abs=1e-10)
        assert q.weights @ np.log(q.nodes) == pytest.approx(0.5, abs=1e-10)

    def test_pareto_grid_below_least_shape_is_a_domain_error(self):
        # the log window reaches 30 / shape, and e^u overflows past ln(max float)
        with pytest.raises(DomainError, match=r"Pareto shape 0\.04 is below 0\.0422665"):
            quadrature_of(PARETO, [0.04])

    @pytest.mark.parametrize("numeric", [False, True])
    def test_pareto_curve_at_least_shape_is_finite(self, numeric):
        spec = EstimatorSpec(kind="renyi", alpha=0.5)
        curve = influence_curve(PARETO, spec, [0.0423], [1.5, 2.25, 3.0], numeric=numeric)
        assert np.isfinite(curve.values).all()

    @pytest.mark.parametrize("count", [31, 100.7, 64.0, True])
    def test_node_count_must_be_an_integer_of_32_or_more(self, count):
        # a float count was once truncated: 100.7 built 100 nodes
        with pytest.raises(InvalidInputError, match="^node_count must be an integer >= 32"):
            quadrature_of(NORMAL, [0.0, 1.0], count)


class TestContaminate:
    def test_zero_epsilon_is_identity(self):
        q = empirical([1.0, 2.0])
        assert contaminate(q, 9.0, 0.0) is q

    def test_full_epsilon_is_dirac(self):
        q = contaminate(empirical([1.0, 2.0]), 9.0, 1.0)
        assert len(q) == 1
        assert q.weights @ q.nodes == pytest.approx(9.0)

    def test_mixture_linearity(self):
        q = empirical([0.0, 1.0, 5.0])
        f = lambda x: np.cos(x)
        for eps in (0.1, 0.37, 0.9):
            mixed = (m := contaminate(q, 2.0, eps)).weights @ f(m.nodes)
            direct = (1.0 - eps) * (q.weights @ f(q.nodes)) + eps * math.cos(2.0)
            assert mixed == pytest.approx(direct, abs=1e-14)

    def test_contamination_derivative_is_linear(self):
        q = empirical([0.0, 1.0, 5.0])
        f = lambda x: x**2
        base = q.weights @ f(q.nodes)
        # exact linearity in eps: no first-order discretization term, only
        # float cancellation of order eps^-1 * ulp remains
        for eps in (1e-2, 1e-4):
            quotient = ((m := contaminate(q, 3.0, eps)).weights @ f(m.nodes) - base) / eps
            assert quotient == pytest.approx(9.0 - base, abs=1e-9)

    def test_epsilon_range(self):
        q = empirical([1.0])
        with pytest.raises(InvalidInputError):
            contaminate(q, 0.0, -0.1)
        with pytest.raises(InvalidInputError):
            contaminate(q, 0.0, 1.1)


class TestReadSample:
    def test_basic(self):
        assert read_sample(io.StringIO("1.5\n-2.0\n")) == [1.5, -2.0]

    def test_comments_and_blanks(self):
        assert read_sample(io.StringIO("# header\n\n0\n")) == [0.0]

    def test_crlf(self):
        assert read_sample(io.StringIO("1.0\r\n2.0\r\n")) == [1.0, 2.0]

    def test_parse_error_line_number(self):
        with pytest.raises(SampleParseError) as err:
            read_sample(io.StringIO("abc\n"))
        assert err.value.line_number == 1
        with pytest.raises(SampleParseError) as err:
            read_sample(io.StringIO("# ok\n1.0\nxyz\n"))
        assert err.value.line_number == 3

    def test_rejects_nonfinite(self):
        with pytest.raises(SampleParseError):
            read_sample(io.StringIO("inf\n"))

    def test_non_utf8_line_named(self, tmp_path):
        # a file's undecodable bytes fail the line that holds them; in a
        # comment they are ignored with it
        path = tmp_path / "xs.txt"
        path.write_bytes(b"# caf\xe9\n1.0\n2.\xff5\n")
        with pytest.raises(SampleParseError) as err:
            read_sample(path)
        assert err.value.line_number == 3
        path.write_bytes(b"# caf\xe9\n1.0\n")
        assert read_sample(path) == [1.0]

    def test_from_path(self, tmp_path):
        path = tmp_path / "xs.txt"
        path.write_text("0.25\n# note\n-4\n", encoding="utf-8")
        assert read_sample(path) == [0.25, -4.0]
