"""Tests for the contaminated-model Monte Carlo harness."""

import json
import math

import numpy as np
import pytest

import mindiv.estimators
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
from mindiv.estimators import _fit_rows
from mindiv.simulation import CONTAMINANTS, _replication_rng


def model(eps=0.1, contaminant="cauchy", sigma=1.0):
    return ContaminationModel(base_sigma=sigma, epsilon=eps, contaminant=contaminant)


def scale_estimates(spec, samples):
    """``_fit_rows`` on the empirical measures of ``samples``' rows, as
    ``run_study`` calls it: each row's scale estimate, NaN where it failed."""
    theta, _, _, converged, _ = _fit_rows(NORMAL_SCALE, spec, samples, np.full(samples.shape, 1.0 / samples.shape[1]))
    return np.where(converged, theta[:, 0], math.nan)


class TestContaminationModel:
    def test_epsilon_open_interval(self):
        for bad in (0.0, 0.5, 0.6, -0.1):
            with pytest.raises(InvalidInputError):
                model(eps=bad)
        model(eps=0.499)

    def test_contaminant_names(self):
        with pytest.raises(InvalidInputError):
            model(contaminant="uniform")

    def test_base_sigma_positive(self):
        with pytest.raises(InvalidInputError, match="base_sigma"):
            model(sigma=0.0)


class TestSampleContaminated:
    def test_determinism(self):
        rng1 = np.random.default_rng(42)
        rng2 = np.random.default_rng(42)
        a = sample_contaminated(model(), 1000, rng1)
        b = sample_contaminated(model(), 1000, rng2)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("n", [0, 5.5, True])
    def test_rejects_sizes_that_are_not_integers_of_1_or_more(self, n):
        # a float size was once truncated: 5.5 drew 5 values
        with pytest.raises(InvalidInputError, match="^sample size must be an integer >= 1"):
            sample_contaminated(model(), n, np.random.default_rng(0))

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

    @pytest.mark.parametrize(
        "contaminant,seed,first",
        [pytest.param(c, 5, 7, id=c) for c in CONTAMINANTS]
        # seeds of one, two and three 32-bit words, and batches whose
        # indices cross 2^32 and 2^64, where an index takes one more word
        + [
            pytest.param("cauchy", seed, first, id=f"cauchy-seed{seed}-first{first}")
            for seed in (0, 2**32, 2**64 + 1)
            for first in (7, 2**32 - 20, 2**64 - 20)
        ],
    )
    def test_study_batches_are_single_samples(self, monkeypatch, contaminant, seed, first):
        # run_study draws a batch at once, each row from its own generator:
        # row j is sample_contaminated on replication first_rep + j's
        # generator (numpy's SeedSequence route), bit for bit, in each of
        # the two batches (32 and 8 rows), and each generator starts in
        # that generator's state
        batches, states = [], []

        def recording_fit(family, spec, nodes, weights):
            batches.append(nodes.copy())
            return _fit_rows(family, spec, nodes, weights)

        def recording_draw(m, n, rngs):
            states.extend(rng.bit_generator.state for rng in rngs)
            return contaminated_rows(m, n, rngs)

        contaminated_rows = mindiv.simulation._contaminated_rows
        monkeypatch.setattr(mindiv.simulation, "_fit_rows", recording_fit)
        monkeypatch.setattr(mindiv.simulation, "_contaminated_rows", recording_draw)
        m, n = model(contaminant=contaminant, sigma=1.7), 2000
        run_study(m, n, 40, (EstimatorSpec(kind="mle"),), seed=seed, first_rep=first)
        monkeypatch.undo()
        assert [len(b) for b in batches] == [32, 8]
        for j, (row, state) in enumerate(zip(np.concatenate(batches), states, strict=True)):
            assert state == _replication_rng(seed, first + j).bit_generator.state
            assert row.tobytes() == sample_contaminated(m, n, _replication_rng(seed, first + j)).tobytes()


SPECS = (
    EstimatorSpec(kind="mle"),
    EstimatorSpec(kind="power-pseudo", alpha=0.5),
    EstimatorSpec(kind="renyi", alpha=0.5),
)
# a kind the row solver does not cover: its rows reach estimate one by one
SUB_SPEC = EstimatorSpec(kind="subdivergence", alpha=0.5, escort=(1.0,))


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
        def fail(family, spec, q, its):
            raise EvaluationError("objective returned NaN")

        # every subdivergence row goes to the fallback
        monkeypatch.setattr(mindiv.estimators, "_fallback", fail)
        result = run_study(model(), 20, 3, (SUB_SPEC,), seed=1)
        assert result.rows[0].failure_count == 3
        assert math.isnan(result.rows[0].mse)

    def test_programming_error_propagates(self, monkeypatch):
        def fail(family, spec, q, its):
            raise ZeroDivisionError("bug")

        monkeypatch.setattr(mindiv.estimators, "_fallback", fail)
        with pytest.raises(ZeroDivisionError):
            run_study(model(), 20, 3, (SUB_SPEC,), seed=1)

    def test_batched_kinds_make_no_single_fit(self, monkeypatch):
        # the MLE, superdivergence, power-pseudo and Renyi columns are all
        # solved as rows: no fallback fit and no per-sample measure
        def fail(*args):
            raise AssertionError("fitted one sample at a time")

        monkeypatch.setattr(mindiv.estimators, "_fallback", fail)
        monkeypatch.setattr(mindiv.estimators, "Measure", fail)
        specs = SPECS + (EstimatorSpec(kind="superdivergence", alpha=0.5),)
        result = run_study(model(), 100, 20, specs, seed=11)
        assert not any(row.failure_count for row in result.rows)

    @pytest.mark.parametrize(
        "escort,message",
        [((1.0, 2.0), "1 component"), ((-1.0,), "scale must be positive"), ((0.0,), "scale must be positive")],
    )
    def test_invalid_escort_raises(self, escort, message):
        # as estimate does, not one failure per replication
        spec = EstimatorSpec(kind="subdivergence", alpha=0.5, escort=escort)
        with pytest.raises(InvalidInputError, match=message):
            estimate(NORMAL_SCALE, spec, empirical([0.5, 1.0, 2.0]))
        with pytest.raises(InvalidInputError, match=message):
            run_study(model(), 20, 6, (spec,), seed=1)

    @pytest.mark.parametrize(
        "name,value",
        [
            ("n", 20.7),
            ("n", 0),
            ("n", True),
            ("reps", 0),
            ("reps", 2.7),
            ("reps", "3"),
            ("seed", -5),
            ("seed", 1.9),
            ("first_rep", -1),
            ("first_rep", 2.5),
        ],
    )
    def test_rejects_bad_counts(self, name, value):
        # a float n was once truncated: 20.7 ran the study at n = 20
        args = {"n": 20, "reps": 3, "seed": 1, "first_rep": 0, name: value}
        with pytest.raises(InvalidInputError, match=f"^{name} must be an integer"):
            run_study(model(), args["n"], args["reps"], SPECS, seed=args["seed"], first_rep=args["first_rep"])

    def test_accepts_numpy_integers(self):
        direct = run_study(model(), 20, 3, SPECS, seed=4, first_rep=1)
        assert run_study(model(), 20, np.int64(3), SPECS, seed=np.uint32(4), first_rep=np.int8(1)) == direct

    def test_chunk_pooling_matches_direct(self):
        direct = run_study(model(), 40, 6, SPECS, seed=5)
        chunks = [
            run_study(model(), 40, 3, SPECS, seed=5, first_rep=0),
            run_study(model(), 40, 3, SPECS, seed=5, first_rep=3),
        ]
        # estimates, statistics and failure counts all equal the direct study's
        assert pool_results(chunks) == direct

    def test_pooling_keeps_the_first_replication(self):
        chunks = [run_study(model(), 40, 3, SPECS, seed=5, first_rep=r) for r in (3, 6)]
        pooled = pool_results(chunks)
        assert (pooled.first_rep, pooled.replications) == (3, 6)
        assert pooled == run_study(model(), 40, 6, SPECS, seed=5, first_rep=3)

    @pytest.mark.parametrize("starts", [(0, 0), (0, 4), (3, 0)], ids=["same", "gap", "reversed"])
    def test_pooling_rejects_chunks_not_consecutive(self, starts):
        # pooling a chunk with itself would count its replications twice
        chunks = [run_study(model(), 40, 3, SPECS, seed=5, first_rep=r) for r in starts]
        with pytest.raises(InvalidInputError, match="consecutive replications"):
            pool_results(chunks)

    @pytest.mark.parametrize(
        "other,field",
        [
            (dict(specs=(EstimatorSpec(kind="renyi", alpha=0.9),)), "estimator specs"),
            (dict(seed=2), "seed"),
            (dict(specs=(EstimatorSpec(kind="mle"),)), "estimator specs"),
            (dict(sigma=2.0), "model"),
            (dict(n=10), "n"),
            (dict(eps=0.3), "model"),
            (dict(contaminant="normal3"), "model"),
        ],
        ids=["alpha", "seed", "kind", "base_sigma", "n", "epsilon", "contaminant"],
    )
    def test_pooling_rejects_chunks_of_other_studies(self, other, field):
        # consecutive chunks of two studies pool into an MSE that means
        # nothing; the error names the field that differs
        study = dict(
            specs=(EstimatorSpec(kind="renyi", alpha=0.5),), seed=1, sigma=1.0, n=20, eps=0.1, contaminant="cauchy"
        )
        chunks = [
            run_study(model(c["eps"], c["contaminant"], c["sigma"]), c["n"], 2, c["specs"], seed=c["seed"], first_rep=2 * i)
            for i, c in enumerate((study, dict(study, **other)))
        ]
        with pytest.raises(InvalidInputError, match=f"must share their {field}: "):
            pool_results(chunks)

    def test_study_records_its_size_and_model(self):
        m = model(0.2, "logistic", 1.5)
        result = run_study(m, 30, 4, SPECS, seed=3, first_rep=5)
        assert (result.n, result.model) == (30, m)
        pooled = pool_results([result, run_study(m, 30, 2, SPECS, seed=3, first_rep=9)])
        assert (pooled.n, pooled.model, pooled.first_rep, pooled.replications) == (30, m, 5, 6)

    def test_pooling_nothing_rejected(self):
        with pytest.raises(InvalidInputError, match="nothing to pool"):
            pool_results([])

    def test_pooling_rejects_chunks_with_fewer_specs(self):
        two = run_study(model(), 20, 2, SPECS[:2], seed=1)
        one = run_study(model(), 20, 2, SPECS[:1], seed=1, first_rep=2)
        for chunks in ([two, one], [one, two]):
            with pytest.raises(InvalidInputError, match="must share"):
                pool_results(chunks)

    def test_batched_fits_equal_single_fits(self):
        # every replication's estimate equals a single estimate() call on
        # its sample, bit for bit, and the study pools exactly those
        samples = np.stack([sample_contaminated(model(), 40, _replication_rng(5, j)) for j in range(6)])
        for spec in SPECS:
            single = []
            for xs in samples:
                result = estimate(NORMAL_SCALE, spec, empirical(xs))
                single.append(result.theta_hat[0] if result.converged else math.nan)
            single = np.array(single)
            assert np.array_equal(scale_estimates(spec, samples), single, equal_nan=True)
            row = run_study(model(), 40, 6, (spec,), seed=5).rows[0]
            ok = single[~np.isnan(single)]
            assert row.failure_count == 6 - ok.size
            assert row.mean_estimate == np.sum(ok) / ok.size
            assert row.mse == np.sum((ok - 1.0) ** 2) / ok.size

    def test_degenerate_sample_is_a_failure(self):
        # a replication the MLE cannot fit (every draw at 0) is a failure
        # of every kind, not a fit on the edge of the search box
        samples = np.stack([sample_contaminated(model(), 40, _replication_rng(5, j)) for j in range(3)])
        samples[1] = 0.0
        for spec in SPECS:
            estimates = scale_estimates(spec, samples)
            assert np.isnan(estimates[1]) and not np.isnan(estimates[[0, 2]]).any()

    def test_batched_rows_independent_of_chunking(self):
        # a 6-replication batch and its 3 + 3 halves give the same
        # per-replication estimates, so chunked studies pool the same fits
        samples = np.stack([sample_contaminated(model(), 40, _replication_rng(5, j)) for j in range(6)])
        # a row with zero MAD is not accepted by the fixed point and is
        # fitted by the fallback alone
        samples[4, :25] = 0.0
        for spec in SPECS[1:]:
            whole = scale_estimates(spec, samples)
            halves = np.concatenate([scale_estimates(spec, samples[:3]), scale_estimates(spec, samples[3:])])
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
