"""Tests for the contaminated-model Monte Carlo harness."""

import json
import math

import numpy as np
import pytest

import mindiv.simulation
from mindiv import (
    NORMAL_SCALE,
    ContaminationModel,
    EstimatorSpec,
    EvaluationError,
    InvalidInputError,
    pool_results,
    report,
    run_study,
    empirical,
    estimate,
    sample_contaminated,
)
from mindiv.simulation import _replication_rng, _scale_estimates


def model(eps=0.1, contaminant="cauchy", sigma=1.0):
    return ContaminationModel(base_sigma=sigma, epsilon=eps, contaminant=contaminant)


class TestContaminationModel:
    def test_epsilon_open_interval(self):
        for bad in (0.0, 0.5, 0.6, -0.1):
            with pytest.raises(InvalidInputError):
                model(eps=bad)
        model(eps=0.499)

    def test_contaminant_names(self):
        with pytest.raises(InvalidInputError):
            model(contaminant="uniform")


class TestSampleContaminated:
    def test_determinism(self):
        rng1 = np.random.default_rng(42)
        rng2 = np.random.default_rng(42)
        a = sample_contaminated(model(), 1000, rng1)
        b = sample_contaminated(model(), 1000, rng2)
        assert np.array_equal(a, b)

    def test_contaminant_fraction_band(self):
        # tail proxy: base mass above 5 sigma is negligible, the wide normal
        # contaminant puts P(|Z| > 0.5) = 0.6171 there
        eps, n = 0.05, 100_000
        xs = sample_contaminated(model(eps=eps, contaminant="normal10"), n, np.random.default_rng(7))
        p_tail = eps * 0.6170750774519740
        observed = np.mean(np.abs(xs) > 5.0)
        band = 4.0 * math.sqrt(p_tail * (1 - p_tail) / n)
        assert abs(observed - p_tail) < band

    def test_bernoulli_mixture_rate(self):
        # per-contract each draw is contaminated independently with
        # probability eps; the mask is recoverable from the stream layout
        eps, n = 0.05, 100_000
        rng = np.random.default_rng(11)
        sample_contaminated(model(eps=eps, contaminant="normal10"), n, rng)
        mask = np.random.default_rng(11).random(n) < eps
        assert abs(mask.mean() - eps) < 3.0 * math.sqrt(eps * (1 - eps) / n)

    def test_cauchy_heavy_tail(self):
        xs = sample_contaminated(model(eps=0.1, contaminant="cauchy"), 10_000, np.random.default_rng(3))
        assert np.max(np.abs(xs)) > 20.0

    def test_logistic_draws_spread(self):
        xs = sample_contaminated(model(eps=0.3, contaminant="logistic"), 50_000, np.random.default_rng(5))
        assert np.all(np.isfinite(xs))
        assert xs.std() > 1.0


SPECS = (
    EstimatorSpec(kind="mle"),
    EstimatorSpec(kind="power-pseudo", alpha=0.5),
    EstimatorSpec(kind="renyi", alpha=0.5),
)


class TestRunStudy:
    def test_determinism(self):
        a = run_study(model(), 40, 5, SPECS, seed=99)
        b = run_study(model(), 40, 5, SPECS, seed=99)
        assert a == b

    def test_single_replication_mse(self):
        result = run_study(model(), 30, 1, (EstimatorSpec(kind="mle"),), seed=17)
        rng = _replication_rng(17, 0)
        xs = sample_contaminated(model(), 30, rng)
        sigma_hat = math.sqrt(np.mean(xs**2))
        assert result.rows[0].mse == pytest.approx((sigma_hat - 1.0) ** 2, rel=1e-12)
        assert result.rows[0].mean_estimate == pytest.approx(sigma_hat, rel=1e-12)

    def test_zero_order_rows_identical(self):
        specs = (
            EstimatorSpec(kind="mle"),
            EstimatorSpec(kind="power-pseudo", alpha=0.0),
            EstimatorSpec(kind="renyi", alpha=0.0),
        )
        result = run_study(model(eps=0.05, contaminant="normal3"), 50, 10, specs, seed=21)
        mses = [row.mse for row in result.rows]
        assert mses[0] == mses[1] == mses[2]

    def test_toolkit_error_is_counted(self, monkeypatch):
        def fail(family, spec, q):
            raise EvaluationError("objective returned NaN")

        monkeypatch.setattr(mindiv.simulation, "estimate", fail)
        result = run_study(model(), 20, 3, (EstimatorSpec(kind="mle"),), seed=1)
        assert result.rows[0].failure_count == 3
        assert math.isnan(result.rows[0].mse)

    def test_programming_error_propagates(self, monkeypatch):
        def fail(family, spec, q):
            raise ZeroDivisionError("bug")

        monkeypatch.setattr(mindiv.simulation, "estimate", fail)
        with pytest.raises(ZeroDivisionError):
            run_study(model(), 20, 3, (EstimatorSpec(kind="mle"),), seed=1)

    def test_chunk_pooling_matches_direct(self):
        direct = run_study(model(), 40, 6, SPECS, seed=5)
        chunks = [
            run_study(model(), 40, 3, SPECS, seed=5, first_rep=0),
            run_study(model(), 40, 3, SPECS, seed=5, first_rep=3),
        ]
        # estimates, statistics and failure counts all equal the direct study's
        assert pool_results(chunks) == direct

    @pytest.mark.parametrize(
        "other",
        [
            dict(specs=(EstimatorSpec(kind="renyi", alpha=0.9),)),
            dict(seed=2),
            dict(specs=(EstimatorSpec(kind="mle"),)),
            dict(sigma=2.0),
        ],
        ids=["alpha", "seed", "kind", "base_sigma"],
    )
    def test_pooling_rejects_chunks_of_other_studies(self, other):
        study = dict(specs=(EstimatorSpec(kind="renyi", alpha=0.5),), seed=1, sigma=1.0)
        chunks = [
            run_study(model(sigma=c["sigma"]), 20, 2, c["specs"], seed=c["seed"], first_rep=2 * i)
            for i, c in enumerate((study, dict(study, **other)))
        ]
        with pytest.raises(InvalidInputError, match="must share"):
            pool_results(chunks)

    def test_pooling_rejects_chunks_with_fewer_specs(self):
        two = run_study(model(), 20, 2, SPECS[:2], seed=1)
        one = run_study(model(), 20, 2, SPECS[:1], seed=1, first_rep=2)
        for chunks in ([two, one], [one, two]):
            with pytest.raises(InvalidInputError, match="must share"):
                pool_results(chunks)

    def test_batched_fits_equal_single_fits(self):
        # every replication's robust estimate equals a single estimate()
        # call on its sample, bit for bit, and the study pools exactly those
        samples = np.stack([sample_contaminated(model(), 40, _replication_rng(5, j)) for j in range(6)])
        for spec in SPECS[1:]:
            single = []
            for xs in samples:
                result = estimate(NORMAL_SCALE, spec, empirical(xs))
                single.append(result.theta_hat[0] if result.converged else math.nan)
            single = np.array(single)
            assert np.array_equal(_scale_estimates(spec, samples), single, equal_nan=True)
            row = run_study(model(), 40, 6, (spec,), seed=5).rows[0]
            ok = single[~np.isnan(single)]
            assert row.failure_count == 6 - ok.size
            assert row.mean_estimate == np.sum(ok) / ok.size
            assert row.mse == np.sum((ok - 1.0) ** 2) / ok.size

    def test_batched_rows_independent_of_chunking(self):
        # a 6-replication batch and its 3 + 3 halves give the same
        # per-replication estimates, so chunked studies pool the same fits
        samples = np.stack([sample_contaminated(model(), 40, _replication_rng(5, j)) for j in range(6)])
        # a row with zero MAD is not accepted by the fixed point and is
        # fitted by estimate() alone
        samples[4, :25] = 0.0
        for spec in SPECS[1:]:
            whole = _scale_estimates(spec, samples)
            halves = np.concatenate([_scale_estimates(spec, samples[:3]), _scale_estimates(spec, samples[3:])])
            assert np.array_equal(whole, halves, equal_nan=True)
        direct = run_study(model(), 40, 6, SPECS, seed=5)
        pooled = pool_results(
            [run_study(model(), 40, 3, SPECS, seed=5, first_rep=r) for r in (0, 3)]
        )
        for row_a, row_b in zip(pooled.rows, direct.rows):
            # pooling recomputes the statistics from the chunks' estimates
            assert row_a.mean_estimate == row_b.mean_estimate
            assert row_a.mse == row_b.mse
            assert row_a.failure_count == row_b.failure_count

    @pytest.mark.parametrize("kind", ["power-pseudo", "renyi"])
    def test_acceptance_replication_993(self, kind):
        # the fixed point reaches the stationary points 0.945 (Renyi) and
        # 0.973 (power-pseudo), below the scale box's lower edge 0.9926
        spec = EstimatorSpec(kind=kind, alpha=0.5)
        row = run_study(model(), 100, 1, (spec,), seed=20240817, first_rep=993).rows[0]
        assert row.failure_count == 0
        assert 0.9 < row.mean_estimate < 1.0

    def test_mle_mse_near_asymptotic_variance(self):
        # near-pure normal control: var(sigma_hat) ~= sigma^2 / (2n)
        n, reps = 200, 500
        result = run_study(
            model(eps=1e-4, contaminant="normal3"),
            n,
            reps,
            (EstimatorSpec(kind="mle"),),
            seed=2024,
        )
        target = 1.0 / (2 * n)
        assert result.rows[0].mse == pytest.approx(target, rel=0.3)


class TestReport:
    def test_csv_columns(self):
        result = run_study(model(), 30, 2, SPECS, seed=1)
        text = report(result, format="csv")
        lines = text.strip().split("\n")
        assert lines[0] == "estimator,alpha,mse,mean,failures"
        assert lines[1].startswith("mle,,")
        assert lines[2].startswith("power-pseudo,0.5")
        assert len(lines) == 4

    def test_empty_specs_header_only(self):
        result = run_study(model(), 30, 2, (), seed=1)
        assert report(result, format="csv") == "estimator,alpha,mse,mean,failures\n"

    def test_json_round_trip_bit_exact(self):
        result = run_study(model(), 30, 3, SPECS, seed=8)
        payload = json.loads(report(result, format="json"))
        assert payload["replications"] == 3
        assert payload["seed"] == 8
        for row, parsed in zip(result.rows, payload["rows"]):
            assert parsed["mse"] == row.mse
            assert parsed["mean"] == row.mean_estimate
            assert parsed["failures"] == row.failure_count

    def test_csv_round_trip_bit_exact(self):
        result = run_study(model(), 30, 3, SPECS, seed=8)
        lines = report(result, format="csv").strip().split("\n")[1:]
        for row, line in zip(result.rows, lines):
            fields = line.split(",")
            assert float(fields[2]) == row.mse
            assert float(fields[3]) == row.mean_estimate

    def test_rejects_unknown_format(self):
        result = run_study(model(), 30, 1, (), seed=8)
        with pytest.raises(InvalidInputError):
            report(result, format="xml")
