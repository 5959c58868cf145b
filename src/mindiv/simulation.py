"""Monte Carlo harness for contaminated normal scale models.

Samples are drawn from a mixture of a centered normal base with heavier
contaminants, every requested estimator is fitted per replication, and
mean squared errors of the scale estimates are pooled.  Replications own
independent generator streams derived from (seed, replication index), so
results are reproducible, order-independent, and chunkable across calls.
Power-pseudo and Renyi fits run batched over the replications, as one
fixed point that gives each replication the numbers ``estimate`` gives.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, ToolkitError
from .estimators import EstimatorSpec, _moment_fixed_point, estimate
from .families import NORMAL_SCALE
from .measures import empirical

CONTAMINANTS = ("normal3", "normal10", "logistic", "cauchy")
# Sample values drawn and fitted together at most: bounds the memory of a
# batch of replications, whatever the study's size.
_BATCH_VALUES = 1 << 16


@dataclass(frozen=True)
class ContaminationModel:
    """Mixture (1 - eps) * base + eps * contaminant, both scaled by base_sigma."""

    base_sigma: float
    epsilon: float
    contaminant: str

    def __post_init__(self):
        if self.base_sigma <= 0.0 or not math.isfinite(self.base_sigma):
            raise InvalidInputError(f"base_sigma must be positive, got {self.base_sigma!r}")
        if not 0.0 < self.epsilon < 0.5:
            raise InvalidInputError(
                f"epsilon must lie in the open interval (0, 0.5), got {self.epsilon!r}"
            )
        if self.contaminant not in CONTAMINANTS:
            raise InvalidInputError(
                f"unknown contaminant {self.contaminant!r}; choose one of: "
                + ", ".join(CONTAMINANTS)
            )


@dataclass(frozen=True)
class EstimatorRow:
    """Pooled outcome of one estimator across replications; ``estimates``
    holds the converged scale estimates in replication order."""

    spec: EstimatorSpec
    mse: float
    mean_estimate: float
    failure_count: int
    estimates: tuple[float, ...]


@dataclass(frozen=True)
class StudyResult:
    rows: tuple[EstimatorRow, ...]
    replications: int
    seed: int
    base_sigma: float


def _contaminant_draws(model: ContaminationModel, n: int, rng: np.random.Generator) -> np.ndarray:
    s = model.base_sigma
    kind = model.contaminant
    if kind == "normal3":
        return 3.0 * s * rng.standard_normal(n)
    if kind == "normal10":
        return 10.0 * s * rng.standard_normal(n)
    u = rng.random(n)
    if kind == "logistic":
        u = np.clip(u, 1e-15, 1.0 - 1e-15)
        return s * np.log(u / (1.0 - u))
    # Cauchy via the tangent transform of a uniform draw.
    return s * np.tan(math.pi * (u - 0.5))


def sample_contaminated(model: ContaminationModel, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n observations; each is contaminated independently with
    probability epsilon."""
    if n < 1:
        raise InvalidInputError(f"sample size must be >= 1, got {n}")
    n = int(n)
    mask = rng.random(n) < model.epsilon
    base = model.base_sigma * rng.standard_normal(n)
    contam = _contaminant_draws(model, n, rng)
    return np.where(mask, contam, base)


def _replication_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=int(seed), spawn_key=(int(index),)))


def _scale_estimates(spec: EstimatorSpec, samples: np.ndarray) -> np.ndarray:
    """Scale estimate of ``spec`` on each row of ``samples``; NaN marks a
    failed or non-converged fit.

    Power-pseudo and Renyi rows are solved together by the weighted-moment
    fixed point; the rows it does not accept, and every other kind, are
    fitted one sample at a time by ``estimate``.
    """
    weights = np.full(samples.shape, 1.0 / samples.shape[1])
    theta, accepted, _ = _moment_fixed_point(NORMAL_SCALE, spec, samples, weights)
    out = np.where(accepted, theta[:, 0], math.nan)
    for j in np.flatnonzero(~accepted):
        try:
            result = estimate(NORMAL_SCALE, spec, empirical(samples[j]))
        except ToolkitError:
            continue
        if result.converged:
            out[j] = result.theta_hat[0]
    return out


def run_study(
    model: ContaminationModel,
    n: int,
    reps: int,
    specs,
    seed: int,
    first_rep: int = 0,
) -> StudyResult:
    """Fit every estimator on ``reps`` contaminated samples of size ``n``.

    Scale estimates are scored against ``model.base_sigma``.  Failed or
    non-converged fits are excluded from the MSE and counted per estimator.
    ``first_rep`` offsets the replication indices so a study can be split
    into chunks whose pooled statistics match the single-call result.
    Each replication's estimate equals ``estimate(NORMAL_SCALE, spec,
    empirical(sample))`` bit for bit, however the study is batched.
    """
    if reps < 1:
        raise InvalidInputError(f"reps must be >= 1, got {reps}")
    specs = tuple(specs)
    reps = int(reps)
    batch = max(1, _BATCH_VALUES // max(int(n), 1))
    parts: list[list[np.ndarray]] = [[] for _ in specs]
    for start in range(0, reps, batch):
        samples = np.stack(
            [
                sample_contaminated(model, n, _replication_rng(seed, first_rep + j))
                for j in range(start, min(start + batch, reps))
            ]
        )
        for k, spec in enumerate(specs):
            parts[k].append(_scale_estimates(spec, samples))
    rows = []
    for k, spec in enumerate(specs):
        sigma_hat = np.concatenate(parts[k])
        ok = sigma_hat[~np.isnan(sigma_hat)]
        rows.append(_pooled_row(spec, tuple(ok.tolist()), reps - ok.size, model.base_sigma))
    return StudyResult(rows=tuple(rows), replications=reps, seed=int(seed), base_sigma=model.base_sigma)


def _pooled_row(spec: EstimatorSpec, estimates: tuple, failures: int, base_sigma: float) -> EstimatorRow:
    """Row whose MSE about ``base_sigma`` and mean are computed from the
    converged ``estimates`` themselves, so pooled chunks equal one call."""
    ok = np.array(estimates, dtype=float)
    mse = float(np.sum((ok - base_sigma) ** 2) / ok.size) if ok.size else math.nan
    mean_est = float(np.sum(ok) / ok.size) if ok.size else math.nan
    return EstimatorRow(spec, mse, mean_est, failures, estimates)


def pool_results(chunks) -> StudyResult:
    """Pool chunked study results; chunks in replication order pool to the
    single-call result exactly.

    Every chunk must come from the same estimator specs, in the same order,
    the same seed and the same ``base_sigma``.
    """
    chunks = list(chunks)
    if not chunks:
        raise InvalidInputError("nothing to pool")
    study = lambda c: (tuple(row.spec for row in c.rows), c.seed, c.base_sigma)
    if any(study(c) != study(chunks[0]) for c in chunks):
        raise InvalidInputError("chunks to pool must share their estimator specs, seed and base_sigma")
    base_sigma = chunks[0].base_sigma
    rows = []
    for k, row in enumerate(chunks[0].rows):
        estimates = tuple(v for c in chunks for v in c.rows[k].estimates)
        failures = sum(c.rows[k].failure_count for c in chunks)
        rows.append(_pooled_row(row.spec, estimates, failures, base_sigma))
    return StudyResult(
        rows=tuple(rows),
        replications=sum(c.replications for c in chunks),
        seed=chunks[0].seed,
        base_sigma=base_sigma,
    )


def _spec_alpha(spec: EstimatorSpec):
    return None if spec.kind == "mle" else spec.alpha


def report(result: StudyResult, format: str = "csv") -> str:
    """Render a study as CSV (stable column order) or JSON.

    Numeric CSV fields carry 17 significant digits so a parse reproduces
    the study bit-exactly.
    """
    if format not in ("csv", "json"):
        raise InvalidInputError(f"format must be 'csv' or 'json', got {format!r}")
    if format == "json":
        payload = {
            "replications": result.replications,
            "seed": result.seed,
            "rows": [
                {
                    "estimator": row.spec.kind,
                    "alpha": _spec_alpha(row.spec),
                    "mse": row.mse,
                    "mean": row.mean_estimate,
                    "failures": row.failure_count,
                }
                for row in result.rows
            ],
        }
        return json.dumps(payload, indent=2) + "\n"
    lines = ["estimator,alpha,mse,mean,failures"]
    for row in result.rows:
        alpha = _spec_alpha(row.spec)
        lines.append(
            ",".join(
                [
                    row.spec.kind,
                    "" if alpha is None else format_float(alpha),
                    format_float(row.mse),
                    format_float(row.mean_estimate),
                    str(row.failure_count),
                ]
            )
        )
    return "\n".join(lines) + "\n"


def format_float(value: float) -> str:
    return format(float(value), ".17g")
