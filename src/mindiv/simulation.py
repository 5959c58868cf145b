"""Monte Carlo harness for contaminated normal scale models.

Samples are drawn from a mixture of a centered normal base with heavier
contaminants, every requested estimator is fitted per replication, and
mean squared errors of the scale estimates are pooled.  Replications own
independent generator streams derived from (seed, replication index), so
results are reproducible, order-independent, and chunkable across calls.
Each estimator is fitted on all replications of a batch at once by
``estimators._fit_rows``, the one fit driver, which gives each replication
the numbers ``estimate`` gives.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, check_count
from .estimators import _BATCH_VALUES, EstimatorSpec, _fit_rows
from .families import NORMAL_SCALE
from .measures import format_float

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
    """Pooled outcome of one estimator across replications; ``estimates``
    holds the converged scale estimates in replication order."""

    spec: EstimatorSpec
    mse: float
    mean_estimate: float
    failure_count: int
    estimates: tuple[float, ...]


@dataclass(frozen=True)
class StudyResult:
    """A study over replications ``first_rep`` to ``first_rep +
    replications - 1`` of one seed."""

    rows: tuple[EstimatorRow, ...]
    replications: int
    seed: int
    base_sigma: float
    first_rep: int


def _contaminated_rows(model: ContaminationModel, n: int, rngs) -> np.ndarray:
    """(R, n) samples, row j from ``rngs[j]``: each generator fills its row
    of mask uniforms, then of base normals, then of contaminant variates;
    the mask and the contaminant transform then apply to all rows at once."""
    mask, base, raw = np.empty((3, len(rngs), n))
    normal = model.contaminant in ("normal3", "normal10")
    for rng, mask_j, base_j, raw_j in zip(rngs, mask, base, raw):
        rng.random(out=mask_j)
        rng.standard_normal(out=base_j)
        (rng.standard_normal if normal else rng.random)(out=raw_j)
    s, kind = model.base_sigma, model.contaminant
    if normal:
        contam = (3.0 if kind == "normal3" else 10.0) * s * raw
    elif kind == "logistic":
        raw = np.clip(raw, 1e-15, 1.0 - 1e-15)
        contam = s * np.log(raw / (1.0 - raw))
    else:
        # Cauchy via the tangent transform of a uniform draw.
        contam = s * np.tan(math.pi * (raw - 0.5))
    return np.where(mask < model.epsilon, contam, s * base)


def sample_contaminated(model: ContaminationModel, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n observations; each is contaminated independently with
    probability epsilon (``run_study``'s batched draws on one generator)."""
    return _contaminated_rows(model, check_count("sample size", n, 1), [rng])[0]


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
    A batch of replications is drawn at once, each row from its own
    generator as ``sample_contaminated`` draws it, and fitted by
    ``estimators._fit_rows``, so each equals ``estimate(NORMAL_SCALE, spec,
    empirical(sample))`` bit for bit, and an invalid escort raises as there.
    ``n`` and ``reps`` must be integers >= 1, ``seed`` and ``first_rep``
    integers >= 0; anything else raises an ``InvalidInputError`` naming it.
    """
    n, reps = check_count("n", n, 1), check_count("reps", reps, 1)
    seed, first_rep, specs = check_count("seed", seed, 0), check_count("first_rep", first_rep, 0), tuple(specs)
    batch = max(1, _BATCH_VALUES // n)
    parts: list[list[np.ndarray]] = [[] for _ in specs]
    for start in range(0, reps, batch):
        rngs = [_replication_rng(seed, first_rep + j) for j in range(start, min(start + batch, reps))]
        samples = _contaminated_rows(model, n, rngs)
        for k, spec in enumerate(specs):
            theta, _, _, converged, _ = _fit_rows(NORMAL_SCALE, spec, samples, np.full(samples.shape, 1.0 / n))
            parts[k].append(np.where(converged, theta[:, 0], math.nan))
    rows = []
    for k, spec in enumerate(specs):
        sigma_hat = np.concatenate(parts[k])
        ok = sigma_hat[~np.isnan(sigma_hat)]
        rows.append(_pooled_row(spec, tuple(ok.tolist()), reps - ok.size, model.base_sigma))
    return StudyResult(
        rows=tuple(rows), replications=reps, seed=seed, base_sigma=model.base_sigma, first_rep=first_rep
    )


def _pooled_row(spec: EstimatorSpec, estimates: tuple, failures: int, base_sigma: float) -> EstimatorRow:
    """Row whose MSE about ``base_sigma`` and mean are computed from the
    converged ``estimates`` themselves, so pooled chunks equal one call."""
    ok = np.array(estimates, dtype=float)
    mse = float(np.sum((ok - base_sigma) ** 2) / ok.size) if ok.size else math.nan
    mean_est = float(np.sum(ok) / ok.size) if ok.size else math.nan
    return EstimatorRow(spec, mse, mean_est, failures, estimates)


def pool_results(chunks) -> StudyResult:
    """Pool chunked study results into the single-call result, exactly.

    Every chunk must come from the same estimator specs, in the same order,
    the same seed and the same ``base_sigma``, and each must start at the
    replication after the previous chunk's last, so no replication is
    counted twice.  The pooled study starts at the first chunk's
    ``first_rep``.
    """
    chunks = list(chunks)
    if not chunks:
        raise InvalidInputError("nothing to pool")
    study = lambda c: (tuple(row.spec for row in c.rows), c.seed, c.base_sigma)
    if any(study(c) != study(chunks[0]) for c in chunks):
        raise InvalidInputError("chunks to pool must share their estimator specs, seed and base_sigma")
    for prev, c in zip(chunks, chunks[1:]):
        if c.first_rep != prev.first_rep + prev.replications:
            raise InvalidInputError(
                f"chunks to pool must cover consecutive replications: a chunk of replications "
                f"{prev.first_rep}-{prev.first_rep + prev.replications - 1} is followed by one from {c.first_rep}"
            )
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
        first_rep=chunks[0].first_rep,
    )


# the report's columns, in order: the CSV header and each row's JSON keys
_COLUMNS = ("estimator", "alpha", "mse", "mean", "failures")


def report(result: StudyResult, format: str = "csv") -> str:
    """Render a study as CSV (stable column order) or JSON.

    Numeric CSV fields carry 17 significant digits so a parse reproduces
    the study bit-exactly.
    """
    if format not in ("csv", "json"):
        raise InvalidInputError(f"format must be 'csv' or 'json', got {format!r}")
    records = [
        dict(zip(_COLUMNS, (row.spec.kind, None if row.spec.kind == "mle" else row.spec.alpha,
                            row.mse, row.mean_estimate, row.failure_count)))
        for row in result.rows
    ]
    if format == "json":
        payload = {"replications": result.replications, "seed": result.seed, "rows": records}
        return json.dumps(payload, indent=2) + "\n"
    lines = [",".join(_COLUMNS)] + [",".join(map(_csv_cell, record.values())) for record in records]
    return "\n".join(lines) + "\n"


def _csv_cell(value) -> str:
    return "" if value is None else format_float(value) if isinstance(value, float) else str(value)
