"""Monte Carlo harness for contaminated normal scale models.

Samples are drawn from a mixture of a centered normal base with heavier
contaminants, every requested estimator is fitted per replication, and
mean squared errors of the scale estimates are pooled.  Replications own
independent generator streams derived from (seed, replication index), so
results are reproducible, order-independent, and chunkable across calls.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, ToolkitError
from .estimators import EstimatorSpec, estimate
from .families import NORMAL_SCALE
from .measures import empirical

CONTAMINANTS = ("normal3", "normal10", "logistic", "cauchy")


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
    """Pooled outcome of one estimator across replications."""

    spec: EstimatorSpec
    mse: float
    mean_estimate: float
    failure_count: int


@dataclass(frozen=True)
class StudyResult:
    rows: tuple[EstimatorRow, ...]
    replications: int
    seed: int


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
    """
    if reps < 1:
        raise InvalidInputError(f"reps must be >= 1, got {reps}")
    specs = tuple(specs)
    errors: list[list[float]] = [[] for _ in specs]
    estimates: list[list[float]] = [[] for _ in specs]
    failures = [0] * len(specs)
    for j in range(int(reps)):
        rng = _replication_rng(seed, first_rep + j)
        q = empirical(sample_contaminated(model, n, rng))
        for k, spec in enumerate(specs):
            try:
                result = estimate(NORMAL_SCALE, spec, q)
            except ToolkitError:
                failures[k] += 1
                continue
            if not result.converged:
                failures[k] += 1
                continue
            sigma_hat = float(result.theta_hat[0])
            errors[k].append((sigma_hat - model.base_sigma) ** 2)
            estimates[k].append(sigma_hat)
    rows = []
    for k, spec in enumerate(specs):
        if errors[k]:
            mse = float(np.sum(np.asarray(errors[k])) / len(errors[k]))
            mean_est = float(np.sum(np.asarray(estimates[k])) / len(estimates[k]))
        else:
            mse = math.nan
            mean_est = math.nan
        rows.append(
            EstimatorRow(spec=spec, mse=mse, mean_estimate=mean_est, failure_count=failures[k])
        )
    return StudyResult(rows=tuple(rows), replications=int(reps), seed=int(seed))


def pool_results(chunks) -> StudyResult:
    """Pool chunked study results produced with matching spec lists."""
    chunks = list(chunks)
    if not chunks:
        raise InvalidInputError("nothing to pool")
    specs = [row.spec for row in chunks[0].rows]
    rows = []
    for k, spec in enumerate(specs):
        total_sq = 0.0
        total_est = 0.0
        ok = 0
        failures = 0
        for chunk in chunks:
            row = chunk.rows[k]
            n_ok = chunk.replications - row.failure_count
            if n_ok > 0:
                total_sq += row.mse * n_ok
                total_est += row.mean_estimate * n_ok
                ok += n_ok
            failures += row.failure_count
        mse = total_sq / ok if ok else math.nan
        mean_est = total_est / ok if ok else math.nan
        rows.append(EstimatorRow(spec=spec, mse=mse, mean_estimate=mean_est, failure_count=failures))
    return StudyResult(
        rows=tuple(rows),
        replications=sum(c.replications for c in chunks),
        seed=chunks[0].seed,
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
