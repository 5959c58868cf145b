"""The benchmark workloads.

Each workload is a closed loop: one caller issues one operation at a time
and waits for it.  Inputs come only from the workload seed.  Work is done
in rounds over ``CYCLE`` distinct round inputs, and a run repeats a fixed
number of whole cycles (see ``Workload.cycles``), so every operation runs
several times on the same input.  Each operation's wall time is
calibrated against the reference kernel of ``calibrate.py``, which runs
before an operation once ``OpLog.CALIBRATE_EVERY_S`` has passed since its
last call, and the operation is timed by the median of its calibrated
repeats.  Outputs of a repeated round are compared bit for bit with its
first run.

Program calls go through ``mindiv.<name>`` at call time, so the tracer's
wrappers see them.  Inputs are built with the references captured below,
before any wrapper exists, so that building them is never traced.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import statistics
import types
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

import calibrate

import mindiv
import mindiv.cli

_raw = types.SimpleNamespace(
    empirical=mindiv.empirical,
    sample_contaminated=mindiv.sample_contaminated,
    quadrature_of=mindiv.quadrature_of,
)

ALPHA = 0.5
KINDS = ("subdivergence", "superdivergence", "power-pseudo", "renyi")
FAMILY_NAMES = ("normal", "normal-loc", "normal-scale", "pareto")
SIZES = {100: "n100", 10_000: "n10k"}
# Warm-up inputs do not depend on the workload seed, so that set-up time
# does not vary with it.
WARM_SEED = 0


def rng_for(seed: int, *key: int) -> np.random.Generator:
    """Independent stream for one input of one run."""
    return np.random.default_rng(np.random.SeedSequence(entropy=int(seed), spawn_key=key))


def median_ms(samples) -> float:
    return 1e3 * statistics.median(samples) if samples else 0.0


class OpLog:
    """Latency and outcome of every timed operation.  With ``calibrated``,
    also the calibrated time of every repeat of each operation slot (round
    input, position in the round): its wall time times ``KERNEL_S`` over
    the mean of the reference kernel's times right before and after it."""

    CALIBRATE_EVERY_S = 0.25

    def __init__(self, tracer=None, calibrated=False):
        self.latencies: list[float] = []
        self.calibrated: dict[tuple[int, int], list[float]] | None = (
            defaultdict(list) if calibrated else None)
        self.kernel_s: list[float] = []
        self.failed = 0
        self.failures: list[str] = []
        self.tracer = tracer
        self._round = 0
        self._pos = 0
        self._pending: list[tuple[tuple[int, int], float]] = []
        self._kernel_end = -math.inf

    def start_round(self, index: int) -> None:
        self._round = index
        self._pos = 0

    def calibrate(self) -> None:
        """Time the reference kernel and calibrate the operations run since
        the previous kernel call."""
        seconds = calibrate.kernel_seconds()
        if self._pending:
            scale = calibrate.KERNEL_S / (0.5 * (self.kernel_s[-1] + seconds))
            for slot, op_s in self._pending:
                self.calibrated[slot].append(op_s * scale)
            self._pending.clear()
        self.kernel_s.append(seconds)
        self._kernel_end = perf_counter()

    def call(self, fn, *args, **kwargs):
        """Time one operation.  Returns ``(result, error)``; an error counts
        as a failed operation and the loop goes on."""
        if self.calibrated is not None and perf_counter() - self._kernel_end > self.CALIBRATE_EVERY_S:
            self.calibrate()
        if self.tracer is not None:
            self.tracer.op = len(self.latencies)
        t0 = perf_counter()
        try:
            result, error = fn(*args, **kwargs), None
        except Exception as exc:  # the benchmark keeps running and reports it
            result, error = None, exc
        seconds = perf_counter() - t0
        self.latencies.append(seconds)
        if self.calibrated is not None:
            self._pending.append(((self._round, self._pos), seconds))
        self._pos += 1
        if error is not None:
            self.fail(f"{type(error).__name__}: {error}")
        return result, error

    def close(self) -> None:
        """Calibrate the operations still waiting for a kernel call."""
        if self._pending:
            self.calibrate()

    def fail(self, why: str) -> None:
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(why)


class Workload:
    name = ""
    op_unit = ""  # what ops_per_s counts
    OP_SIZE = 1  # units of op_unit in one timed operation
    tail_pct: float | None = None  # latency percentile in the detail line
    CYCLE = 1  # distinct round inputs; run_round gets an index below it
    # Wall time of one cycle at the commit that introduced the benchmark
    # (2-core x86-64 VM, Python 3.11, numpy 2.4, scipy 1.17).  It only sets
    # how many cycles a run makes, so that count does not depend on the
    # speed of the code under test.
    SECONDS_PER_CYCLE = 1.0
    MIN_CYCLES = 2  # so that every operation is timed more than once
    LAYERS: tuple[str, ...] = ()  # names harness_layers() reports
    CLI_COMMAND = ""  # the mindiv subcommand that fronts this workload
    CLI_REPEATS = 5

    def __init__(self, seed: int, root: Path):
        self.seed = int(seed)
        self.root = root
        self.problems: list[str] = []
        self._outputs: dict = {}

    @classmethod
    def cycles(cls, seconds: float, minimum: int | None = None) -> int:
        """Cycles a pass makes for ``seconds``: fixed by the workload, never
        by how fast the current code runs, so both sides of a comparison
        time the same repeats."""
        least = cls.MIN_CYCLES if minimum is None else minimum
        return max(least, round(seconds / cls.SECONDS_PER_CYCLE))

    def warm_up(self) -> None:
        """Run each code path once on throwaway inputs."""

    def run_round(self, r: int, log: OpLog) -> None:
        raise NotImplementedError

    def check(self) -> list[str]:
        """Correctness problems found in the outputs; empty when all hold."""
        return self.problems

    def harness_layers(self) -> dict[str, float]:
        """Per-layer numbers the harness times itself, with tracing off."""
        return {}

    def cli_call(self) -> tuple[list[str], int, str]:
        """Arguments of the front-end command, and the exit code and stdout
        that the same library calls produce."""
        raise NotImplementedError

    def _run_cli(self, argv: list[str]) -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = mindiv.cli.main(list(argv))
        return code, out.getvalue()

    def check_cli(self) -> list[str]:
        """The in-process CLI must print what the library calls give."""
        argv, code, text = self.cli_call()
        if self._run_cli(argv) != (code, text):
            return [f"mindiv {self.CLI_COMMAND} output differs from the library result"]
        return []

    def time_cli(self) -> float:
        """Median wall time of the front-end command run in-process, in ms."""
        argv = self.cli_call()[0]
        samples = []
        for _ in range(self.CLI_REPEATS):
            t0 = perf_counter()
            self._run_cli(argv)
            samples.append(perf_counter() - t0)
        return median_ms(samples)

    def _keep(self, key, value, same=np.array_equal) -> None:
        """Store an output, or compare it with the stored one on a replay."""
        if key not in self._outputs:
            self._outputs[key] = value
        elif not same(self._outputs[key], value):
            self.problems.append(f"replay of {key} differs from its first run")


# ---------------------------------------------------------------------------


class StudyCauchy(Workload):
    """The acceptance study shape: 10% Cauchy, n=100, {mle, pseudo, renyi}.
    One operation is one ``run_study`` call over a chunk of replications,
    so a study that batches its replications shows in ``ops_per_s``."""

    name = "study-cauchy"
    op_unit = "replication (3 fits)"
    CHUNK = 40
    OP_SIZE = CHUNK
    CYCLE = 5
    SECONDS_PER_CYCLE = 2.0
    CLI_COMMAND = "simulate"
    N = 100
    RERUN_CHUNKS = 2

    def __init__(self, seed, root):
        super().__init__(seed, root)
        self.model = mindiv.ContaminationModel(base_sigma=1.0, epsilon=0.1, contaminant="cauchy")
        self.specs = (
            mindiv.EstimatorSpec(kind="mle"),
            mindiv.EstimatorSpec(kind="power-pseudo", alpha=ALPHA),
            mindiv.EstimatorSpec(kind="renyi", alpha=ALPHA),
        )

    def _study(self, first_rep: int, reps: int, seed: int | None = None):
        seed = self.seed if seed is None else seed
        return mindiv.run_study(self.model, self.N, reps, self.specs, seed=seed, first_rep=first_rep)

    def warm_up(self):
        self._study(0, reps=3, seed=WARM_SEED)

    def run_round(self, r, log):
        first = r * self.CHUNK
        result, error = log.call(self._study, first, self.CHUNK)
        if error is None:
            if any(row.failure_count for row in result.rows):
                log.fail(f"replications {first}-{first + self.CHUNK - 1}: " + ", ".join(
                    f"{row.spec.kind} x{row.failure_count}" for row in result.rows if row.failure_count))
            self._keep(r, result, lambda a, b: a == b)

    def cli_call(self):
        argv = ["simulate", "--epsilon", "0.1", "--contaminant", "cauchy", "--n", str(self.N),
                "--reps", "10", "--alphas", str(ALPHA), "--seed", str(self.seed)]
        study = self._study(0, reps=10)
        return argv, 0, mindiv.report(study, format="csv")

    def check(self):
        problems = list(self.problems)
        chunks = [self._outputs[r] for r in sorted(self._outputs)]
        pooled = mindiv.pool_results(chunks)
        mse = {row.spec.kind: row.mse for row in pooled.rows}
        for kind in ("power-pseudo", "renyi"):
            if not mse["mle"] >= 2.0 * mse[kind]:
                problems.append(f"MLE MSE {mse['mle']:.4g} is not >= 2 x {kind} MSE {mse[kind]:.4g}")
        for r in sorted(self._outputs)[: self.RERUN_CHUNKS]:
            if self._study(r * self.CHUNK, self.CHUNK) != self._outputs[r]:
                problems.append(f"rerun of the chunk from replication {r * self.CHUNK} is not bit-identical")
        self.mse = mse
        return problems


# ---------------------------------------------------------------------------


def normal_stationarity(xs: np.ndarray, theta, kind: str, alpha: float = ALPHA) -> float:
    """Largest dimensionless residual of the weighted-moment equations that a
    normal Renyi or power-pseudo fit solves (empirical weights 1/n).

    With v proportional to p_theta(x)^alpha, Renyi solves mu = E_v[x] and
    sigma^2 = (1 + alpha) E_v[(x - mu)^2]; power-pseudo solves mu = E_v[x]
    and E_v[(x - mu)^2] / sigma^2 = 1 - alpha m / ((1 + alpha) mean(p^alpha)),
    where m = integral of p^(1 + alpha).
    """
    mu, sigma = float(theta[0]), float(theta[1])
    z = (xs - mu) / sigma
    log_p = -0.5 * z * z - math.log(sigma) - 0.5 * math.log(2.0 * math.pi)
    log_u = alpha * log_p
    shift = log_u.max()
    u = np.exp(log_u - shift)
    v = u / u.sum()
    r_mu = float(v @ z)
    second = float(v @ (z * z))
    if kind == "renyi":
        r_sigma = (1.0 + alpha) * second - 1.0
    else:
        mass = (1.0 + alpha) ** -0.5 * (2.0 * math.pi * sigma**2) ** (-alpha / 2.0)
        mean_p_alpha = math.exp(shift) * float(u.mean())
        r_sigma = second - 1.0 + alpha * mass / ((1.0 + alpha) * mean_p_alpha)
    return max(abs(r_mu), abs(r_sigma))


class FitGrid(Workload):
    """Every (family x kind) at alpha=0.5, n=100 and n=10^4; each round input
    has its own data.  Superdivergence at n=10^4 is left out of the rounds
    and timed once, with tracing off, for its per-layer rows."""

    name = "fit-grid"
    op_unit = "estimate call"
    tail_pct = 90.0
    # Twelve data sets per cycle: the cost of some fits (normal-loc
    # superdivergence most of all) moves several-fold with the Cauchy
    # extremes of a data set, so fewer data sets make ops_per_s follow the
    # seed.
    CYCLE = 12
    SECONDS_PER_CYCLE = 10.0
    # Superdivergence at n=10^4 would take 85% of a round, and its cost
    # moves by +-20% with the Cauchy extremes of each data set, so it would
    # set the throughput alone and leave no time for repeats.
    OUT_OF_ROUNDS = ((10_000, "superdivergence"),)
    CLI_COMMAND = "estimate"
    LAYERS = tuple(
        f"fit.{fam}.{kind}.{tag}_ms" for fam in FAMILY_NAMES for kind in KINDS for tag in SIZES.values()
    )
    WARM_THETA = {"normal": np.array([0.0, 1.0]), "normal-loc": np.array([0.0]),
                  "normal-scale": np.array([1.0]), "pareto": np.array([2.0])}
    FISHER_TOL = 1e-5
    STATIONARITY_TOL = 1e-6

    def __init__(self, seed, root):
        super().__init__(seed, root)
        self._inputs: dict[int, list] = {}
        self._fit_times: dict[str, list[float]] = defaultdict(list)
        self.worst_stationarity = 0.0

    def theta0(self, r: int) -> dict[str, np.ndarray]:
        """True parameters of round ``r``'s data sets.  Each round draws its
        own, so that fit costs that depend on them average out within a run
        instead of moving with the seed."""
        rng = rng_for(self.seed, 0, r)
        return {
            "normal": np.array([rng.uniform(-2.0, 2.0), rng.uniform(0.5, 2.0)]),
            "normal-loc": np.array([rng.uniform(-2.0, 2.0)]),
            "normal-scale": np.array([rng.uniform(0.5, 2.0)]),
            "pareto": np.array([rng.uniform(1.5, 3.0)]),
        }

    def _draw(self, fam: str, theta: np.ndarray, n: int, rng) -> np.ndarray:
        if fam == "pareto":
            return mindiv.PARETO.sample(theta, n, rng)
        if fam == "normal":
            mu, sigma = theta
        elif fam == "normal-loc":
            mu, sigma = theta[0], 1.0
        else:
            mu, sigma = 0.0, theta[0]
        model = mindiv.ContaminationModel(base_sigma=float(sigma), epsilon=0.1, contaminant="cauchy")
        return mu + _raw.sample_contaminated(model, n, rng)

    def inputs(self, r: int) -> list:
        """(n, family name, sample, measure, escort) for round ``r``; the
        subdivergence escort is the sample MLE."""
        if r not in self._inputs:
            theta0 = self.theta0(r)
            batch = []
            for i, n in enumerate(SIZES):
                for k, fam in enumerate(FAMILY_NAMES):
                    xs = self._draw(fam, theta0[fam], n, rng_for(self.seed, 1, r, i, k))
                    q = _raw.empirical(xs)
                    escort = tuple(mindiv.FAMILIES[fam].mle_parameter(q.nodes, q.weights))
                    batch.append((n, fam, xs, q, escort))
            self._inputs[r] = batch
        return self._inputs[r]

    @staticmethod
    def spec(kind: str, escort) -> "mindiv.EstimatorSpec":
        return mindiv.EstimatorSpec(
            kind=kind, alpha=ALPHA, escort=escort if kind == "subdivergence" else None
        )

    def cli_call(self):
        """``mindiv estimate`` on the round-0 normal sample of size 100."""
        xs = next(x for n, fam, x, _, _ in self.inputs(0) if (n, fam) == (100, "normal"))
        data = self.root / ".bench_out" / f"fit-grid-{self.seed}.txt"
        data.parent.mkdir(parents=True, exist_ok=True)
        data.write_text("".join(f"{x!r}\n" for x in xs.tolist()), encoding="utf-8")
        argv = ["estimate", "--family", "normal", "--estimator", "renyi", "--alpha", str(ALPHA),
                "--data", str(data)]
        spec = mindiv.EstimatorSpec(kind="renyi", alpha=ALPHA)
        fit = mindiv.estimate(mindiv.NORMAL, spec, _raw.empirical(mindiv.read_sample(data)))
        payload = {
            "theta_hat": [float(v) for v in fit.theta_hat],
            "criterion_value": fit.criterion_value,
            "iterations": fit.iterations,
            "converged": fit.converged,
        }
        return argv, 0 if fit.converged else 2, json.dumps(payload) + "\n"

    def warm_up(self):
        rng = rng_for(WARM_SEED, 2)
        for fam in FAMILY_NAMES:
            q = _raw.empirical(self._draw(fam, self.WARM_THETA[fam], 50, rng))
            escort = tuple(mindiv.FAMILIES[fam].mle_parameter(q.nodes, q.weights))
            for kind in KINDS:
                mindiv.estimate(mindiv.FAMILIES[fam], self.spec(kind, escort), q)

    def run_round(self, r, log):
        for n, fam, xs, q, escort in self.inputs(r):
            for kind in KINDS:
                if (n, kind) in self.OUT_OF_ROUNDS:
                    continue
                result, error = log.call(mindiv.estimate, mindiv.FAMILIES[fam], self.spec(kind, escort), q)
                self._fit_times[f"fit.{fam}.{kind}.{SIZES[n]}_ms"].append(log.latencies[-1])
                if error is not None:
                    continue
                if not result.converged:
                    log.fail(f"{fam}/{kind}/n={n}/round {r}: not converged")
                self._keep((r, fam, n, kind), (result.converged, result.theta_hat),
                           lambda a, b: a[0] == b[0] and np.array_equal(a[1], b[1]))

    def check(self):
        problems = list(self.problems)
        for (r, fam, n, kind), (converged, theta) in self._outputs.items():
            if fam == "normal" and kind in ("renyi", "power-pseudo") and converged:
                xs = next(x for m, f, x, _, _ in self.inputs(r) if (m, f) == (n, fam))
                res = normal_stationarity(xs, theta, kind)
                self.worst_stationarity = max(self.worst_stationarity, res)
                if not res <= self.STATIONARITY_TOL:
                    problems.append(f"normal/{kind}/n={n}/round {r}: stationarity residual {res:.3g}")
        for fam, theta0 in self.theta0(0).items():
            family = mindiv.FAMILIES[fam]
            q = _raw.quadrature_of(family, theta0, 512)
            escort = tuple(family.mle_parameter(q.nodes, q.weights))
            for kind in ("mle",) + KINDS:
                spec = mindiv.EstimatorSpec(kind="mle") if kind == "mle" else self.spec(kind, escort)
                err = float(np.max(np.abs(mindiv.estimate(family, spec, q).theta_hat - theta0)))
                if not err <= self.FISHER_TOL:
                    problems.append(f"Fisher consistency {fam}/{kind}: error {err:.3g}")
        return problems

    def harness_layers(self):
        times = dict(self._fit_times)
        for n, fam, xs, q, escort in self.inputs(0):
            for kind in KINDS:
                if (n, kind) in self.OUT_OF_ROUNDS:
                    t0 = perf_counter()
                    mindiv.estimate(mindiv.FAMILIES[fam], self.spec(kind, escort), q)
                    times[f"fit.{fam}.{kind}.{SIZES[n]}_ms"] = [perf_counter() - t0]
        return {name: median_ms(times.get(name, [])) for name in self.LAYERS}


# ---------------------------------------------------------------------------


class InfluenceOracle(Workload):
    """Numeric influence curves from the contamination oracle, with the
    closed forms and sensitivities they are checked against.  One operation
    is one whole ``influence_curve(..., numeric=True)`` call, so batching
    the oracle across grid points shows in ``ops_per_s``."""

    name = "influence-oracle"
    op_unit = "oracle curve point"
    POINTS = 13
    OP_SIZE = POINTS
    CYCLE = 2
    SECONDS_PER_CYCLE = 7.5
    LAYERS = ("influence.closed_form_ms", "influence.sensitivity_ms")
    ALPHAS = (0.25, 0.5)
    ORACLE_KINDS = ("superdivergence", "renyi", "power-pseudo")
    # influence_curve(numeric=True) uses the oracle's default eps=1e-3.  The
    # superdivergence oracle needs eps=1e-4 to meet the 1e-3 agreement (as
    # in acceptance criterion 8), so check() evaluates it point by point,
    # untimed, with that eps; the timed superdivergence curves are checked
    # for bit-identical repeats.
    CHECK_EPS = {"superdivergence": 1e-4}
    AGREE_TOL = 1e-3
    CLOSED_POINTS = 10_000
    CLI_COMMAND = "influence"

    def __init__(self, seed, root):
        super().__init__(seed, root)
        rng = rng_for(seed, 0)
        mu0, sigma0 = rng.uniform(-1.0, 1.0), rng.uniform(0.8, 1.25)
        unit = np.linspace(-6.0, 6.0, self.POINTS)
        self.cases = {
            "normal-loc": (np.array([mu0]), mu0 + unit, mu0 + np.linspace(-50.0, 50.0, self.CLOSED_POINTS)),
            "normal-scale": (np.array([sigma0]), sigma0 * unit,
                             sigma0 * np.linspace(-50.0, 50.0, self.CLOSED_POINTS)),
        }
        self._closed_s: list[float] = []
        self._sensitivity_s: list[float] = []

    @staticmethod
    def closed_curve(family, kind: str, alpha: float, theta):
        if kind == "superdivergence":
            return lambda xs: mindiv.if_mle(family, theta, xs)
        if kind == "renyi":
            return lambda xs: mindiv.if_renyi(family, alpha, theta, xs)
        return lambda xs: mindiv.if_pseudo(family, alpha, theta, xs)

    def cli_call(self):
        theta = self.cases["normal-scale"][0]
        argv = ["influence", "--family", "normal-scale", "--estimator", "power-pseudo",
                "--alpha", str(ALPHA), "--theta", repr(float(theta[0])), "--grid", "-6:6:121"]
        spec = mindiv.EstimatorSpec(kind="power-pseudo", alpha=ALPHA)
        curve = mindiv.influence_curve(mindiv.NORMAL_SCALE, spec, theta, np.linspace(-6.0, 6.0, 121))
        return argv, 0, curve.to_csv()

    def warm_up(self):
        for fam, (theta, grid, wide) in self.cases.items():
            family = mindiv.FAMILIES[fam]
            for kind in self.ORACLE_KINDS:
                spec = mindiv.EstimatorSpec(kind=kind, alpha=ALPHA)
                mindiv.influence_curve(family, spec, theta, grid[:1], numeric=True)
                mindiv.influence_curve(family, spec, theta, wide)
                mindiv.sensitivity(self.closed_curve(family, kind, ALPHA, theta), family, ALPHA, theta)

    def run_round(self, r, log):
        alpha = self.ALPHAS[r]
        for fam, (theta, grid, wide) in self.cases.items():
            family = mindiv.FAMILIES[fam]
            for kind in self.ORACLE_KINDS:
                spec = mindiv.EstimatorSpec(kind=kind, alpha=alpha)
                curve, error = log.call(mindiv.influence_curve, family, spec, theta, grid, numeric=True)
                values = np.full((len(grid), 1), np.nan) if error is not None else curve.values
                self._keep((alpha, fam, kind), values, lambda a, b: np.array_equal(a, b, equal_nan=True))
                t0 = perf_counter()
                mindiv.influence_curve(family, spec, theta, wide)
                t1 = perf_counter()
                mindiv.sensitivity(self.closed_curve(family, kind, alpha, theta), family, alpha, theta)
                self._closed_s.append(t1 - t0)
                self._sensitivity_s.append(perf_counter() - t1)

    def check(self):
        problems = list(self.problems)
        self.worst_gap = 0.0
        for (alpha, fam, kind), numeric in self._outputs.items():
            theta, grid, _ = self.cases[fam]
            family = mindiv.FAMILIES[fam]
            spec = mindiv.EstimatorSpec(kind=kind, alpha=alpha)
            if kind in self.CHECK_EPS:
                # The base measure influence_curve(numeric=True) builds.
                base = _raw.quadrature_of(family, theta, 512)
                try:
                    numeric = np.stack([mindiv.if_numeric(family, spec, base, float(x),
                                                          eps=self.CHECK_EPS[kind]) for x in grid])
                except Exception as exc:
                    problems.append(f"{fam}/{kind}/alpha={alpha}: oracle failed: {exc}")
                    continue
            closed = mindiv.influence_curve(family, spec, theta, grid).values
            gap = float(np.max(np.abs(numeric - closed)))
            if not gap < self.AGREE_TOL:  # also catches NaN from a failed curve
                problems.append(f"{fam}/{kind}/alpha={alpha}: numeric vs closed form differ by {gap:.3g}")
            elif gap > self.worst_gap:
                self.worst_gap = gap
        return problems

    def harness_layers(self):
        return {
            "influence.closed_form_ms": median_ms(self._closed_s),
            "influence.sensitivity_ms": median_ms(self._sensitivity_s),
        }


WORKLOADS = {w.name: w for w in (StudyCauchy, FitGrid, InfluenceOracle)}
