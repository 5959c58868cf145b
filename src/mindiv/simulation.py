"""Monte Carlo harness for contaminated normal scale models.

Samples are drawn from a mixture of a centered normal base with heavier
contaminants, every requested estimator is fitted per replication, and
mean squared errors of the scale estimates are pooled.  Replications own
independent generator streams derived from (seed, replication index), the
streams of ``np.random.default_rng(np.random.SeedSequence(seed,
spawn_key=(index,)))``, so results are reproducible, order-independent, and
chunkable across calls.  A batch's generators are seeded in one pass:
``_replication_states`` hashes every replication's ``SeedSequence`` words at
once, and ``PCG64`` seeds itself from each row's words.
Each estimator is fitted on all replications of a batch at once by
``estimators._fit_rows``, the one fit driver, which gives each replication
the numbers ``estimate`` gives.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.random.bit_generator import ISeedSequence

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
    replications - 1`` of one seed, on samples of size ``n`` from ``model``."""

    rows: tuple[EstimatorRow, ...]
    replications: int
    seed: int
    n: int
    model: ContaminationModel
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
    """Replication ``index``'s generator, built by numpy's own route: the
    reference that ``run_study``'s batched seeding must equal."""
    return np.random.default_rng(np.random.SeedSequence(entropy=int(seed), spawn_key=(int(index),)))


# SeedSequence's hash constants, from numpy/random/bit_generator.pyx (numpy
# 2.4): INIT_A and MULT_A step ``hash_const`` in ``hashmix`` (the pool),
# INIT_B and MULT_B in ``generate_state``, MIX_MULT_L and MIX_MULT_R weigh
# ``mix``, XSHIFT (16) is the xorshift of each, and DEFAULT_POOL_SIZE (4) the
# pool's words.
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R, _XSHIFT, _POOL = 0xCA01F9DD, 0x4973F715, 16, 4
_MASK32 = 0xFFFFFFFF


def _replication_states(seed: int, first: int, count: int) -> np.ndarray:
    """(count, 4) uint64 words whose row j is ``np.random.SeedSequence(seed,
    spawn_key=(first + j,)).generate_state(4, np.uint64)``: SeedSequence's
    hash, ported.

    The entropy is the seed's 32-bit words (little end first, one word for
    0), padded with zeros to the pool's 4, then the index's words.  So the
    pool, its all-pairs mixing and the seed's words past the pool's 4 depend
    on the seed alone, and are mixed once, in Python ints.  Each index word
    and the eight output words are then mixed on all rows at once, in uint64
    arrays reduced mod 2^32 after each product, as numpy's uint32 arithmetic
    wraps; a row whose index has fewer words skips the later ones (such rows
    are a prefix, as the indices ascend).  ``hash_const`` steps the same
    whatever the values, so its sequences are computed up front.
    """
    words = lambda v: [v >> s & _MASK32 for s in range(0, max(v.bit_length(), 1), 32)]
    # hash_const's first n values: init * mult^k mod 2^32
    consts = lambda h, m, n: list(itertools.accumulate([m] * (n - 1), lambda h, m: h * m & _MASK32, initial=h))
    entropy, index_words = words(seed), len(words(first + count - 1))
    entropy += [0] * (_POOL - len(entropy))
    # hashmix runs 4 times per entropy word (the pool's fill and its
    # all-pairs mixing are 4 + 12 runs)
    a = consts(_INIT_A, _MULT_A, _POOL * (len(entropy) + index_words) + 1)
    a_row, k = np.array(a, dtype=np.uint64), 0

    def hashmix(value, n=0):
        # at the next hash_const, or at the next n of them as a row of uint64
        nonlocal k
        x, m = (a[k], a[k + 1]) if not n else (a_row[k:k + n], a_row[k + 1:k + n + 1])
        k += n or 1
        value = (value ^ x) * m & _MASK32
        return value ^ value >> _XSHIFT

    def mix(x, y):
        out = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return out ^ out >> _XSHIFT

    pool = [hashmix(v) for v in entropy[:_POOL]]
    for i_src in range(_POOL):
        for i_dst in range(_POOL):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for v in entropy[_POOL:]:
        pool = [mix(p, hashmix(v)) for p in pool]
    # one row, which the first index word broadcasts over all rows
    pool = np.array([pool], dtype=np.uint64)
    for word in range(index_words):
        low = max(0, (1 << 32 * word) - first) if word else 0
        index = np.array([i >> 32 * word & _MASK32 for i in range(first + low, first + count)], dtype=np.uint64)
        pool = np.concatenate((pool[:low], mix(pool[low:], hashmix(index[:, None], _POOL))))
    b = np.array(consts(_INIT_B, _MULT_B, 2 * _POOL + 1), dtype=np.uint64)
    out = (np.concatenate((pool, pool), axis=1) ^ b[:-1]) * b[1:] & _MASK32
    out ^= out >> _XSHIFT
    # C order: PCG64 reads each row's memory as its four words
    return np.ascontiguousarray(out[:, 0::2] | out[:, 1::2] << 32)


class _State(ISeedSequence):
    """A seed sequence whose only state is the four words ``PCG64`` takes
    from ``generate_state(4, np.uint64)``, so ``PCG64`` seeds itself from
    words hashed in advance."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


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
    generator as ``sample_contaminated`` draws it.  The batch's generators
    are built in one pass: ``_replication_states`` hashes the SeedSequence
    words of every replication at once, and each row's words seed a
    ``np.random.Generator(np.random.PCG64(...))``, so replication i draws
    the stream of ``np.random.default_rng(np.random.SeedSequence(seed,
    spawn_key=(i,)))``.  The batch is fitted by ``estimators._fit_rows``,
    so each row equals ``estimate(NORMAL_SCALE, spec, empirical(sample))``
    bit for bit, and an invalid escort raises as there.
    ``n`` and ``reps`` must be integers >= 1, ``seed`` and ``first_rep``
    integers >= 0; anything else raises an ``InvalidInputError`` naming it.
    """
    n, reps = check_count("n", n, 1), check_count("reps", reps, 1)
    seed, first_rep, specs = check_count("seed", seed, 0), check_count("first_rep", first_rep, 0), tuple(specs)
    batch = max(1, _BATCH_VALUES // n)
    parts: list[list[np.ndarray]] = [[] for _ in specs]
    for start in range(0, reps, batch):
        states = _replication_states(seed, first_rep + start, min(batch, reps - start))
        rngs = [np.random.Generator(np.random.PCG64(_State(words))) for words in states]
        samples, weights = _contaminated_rows(model, n, rngs), np.full((len(rngs), n), 1.0 / n)
        # one weights array for every spec: no fit may write to it
        weights.flags.writeable = False
        for k, spec in enumerate(specs):
            theta, _, _, converged, _ = _fit_rows(NORMAL_SCALE, spec, samples, weights)
            parts[k].append(np.where(converged, theta[:, 0], math.nan))
    rows = []
    for k, spec in enumerate(specs):
        sigma_hat = np.concatenate(parts[k])
        ok = sigma_hat[~np.isnan(sigma_hat)]
        rows.append(_pooled_row(spec, tuple(ok.tolist()), reps - ok.size, model.base_sigma))
    return StudyResult(rows=tuple(rows), replications=reps, seed=seed, n=n, model=model, first_rep=first_rep)


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
    the same seed, sample size ``n`` and contamination model, else an
    ``InvalidInputError`` names the field that differs, and each must start
    at the replication after the previous chunk's last, so no replication
    is counted twice.  The pooled study starts at the first chunk's
    ``first_rep``.
    """
    chunks = list(chunks)
    if not chunks:
        raise InvalidInputError("nothing to pool")
    study = lambda c: {"estimator specs": tuple(row.spec for row in c.rows), "seed": c.seed, "n": c.n, "model": c.model}
    first = study(chunks[0])
    for c in chunks[1:]:
        for field, value in study(c).items():
            if value != first[field]:
                raise InvalidInputError(f"chunks to pool must share their {field}: {first[field]!r} and {value!r} differ")
    for prev, c in zip(chunks, chunks[1:]):
        if c.first_rep != prev.first_rep + prev.replications:
            raise InvalidInputError(
                f"chunks to pool must cover consecutive replications: a chunk of replications "
                f"{prev.first_rep}-{prev.first_rep + prev.replications - 1} is followed by one from {c.first_rep}"
            )
    rows = []
    for k, row in enumerate(chunks[0].rows):
        estimates = tuple(v for c in chunks for v in c.rows[k].estimates)
        failures = sum(c.rows[k].failure_count for c in chunks)
        rows.append(_pooled_row(row.spec, estimates, failures, chunks[0].model.base_sigma))
    return replace(chunks[0], rows=tuple(rows), replications=sum(c.replications for c in chunks))


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
