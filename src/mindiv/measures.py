"""Finite weighted point-mass measures.

A :class:`Measure` represents an empirical sample, a quadrature
discretization of a continuous model member, or a contamination mixture.
Measures are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InvalidInputError, SampleParseError, check_count
from .families import _GRID_N, Family

_MASS_TOL = 1e-12


@dataclass(frozen=True)
class Measure:
    """Weighted point masses with positive weights summing to one."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        nodes = np.atleast_1d(np.asarray(self.nodes, dtype=float))
        weights = np.atleast_1d(np.asarray(self.weights, dtype=float))
        if nodes.shape != weights.shape or nodes.ndim != 1 or nodes.size == 0:
            raise InvalidInputError("nodes and weights must be matching nonempty 1-d arrays")
        if not np.all(np.isfinite(nodes)):
            raise InvalidInputError("nodes must be finite")
        if not np.all(weights > 0.0) or not np.all(np.isfinite(weights)):
            raise InvalidInputError("weights must be strictly positive and finite")
        if abs(float(weights.sum()) - 1.0) > _MASS_TOL:
            raise InvalidInputError(
                f"weights must sum to 1 within {_MASS_TOL}, got {float(weights.sum())!r}"
            )
        nodes = nodes.copy()
        weights = weights.copy()
        nodes.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    def __len__(self) -> int:
        return self.nodes.size


def empirical(sample) -> Measure:
    """Empirical measure of a sample: every observation gets weight 1/n.

    Duplicates keep separate nodes.
    """
    xs = np.atleast_1d(np.asarray(sample, dtype=float))
    if xs.size == 0:
        raise InvalidInputError("sample must be nonempty")
    if not np.all(np.isfinite(xs)):
        raise InvalidInputError("sample values must be finite")
    return Measure(xs, np.full(xs.size, 1.0 / xs.size))


def quadrature_of(family: Family, theta, node_count: int = _GRID_N) -> Measure:
    """Quadrature discretization of a family member.

    Normal kinds use Gauss-Legendre nodes over mu +/- 10 sigma; the Pareto
    model uses a log-transformed grid truncated where the tail mass drops
    below 1e-12.  Weights are renormalized to unit mass.
    """
    node_count = check_count("node_count", node_count, 32)
    theta = family.validate_param(theta)
    x, lam_w = family.integration_grid([theta], node_count)
    w = lam_w * family.density(theta, x)
    w = w / w.sum()
    return Measure(x, w)


def contaminate(base: Measure, x: float, epsilon: float) -> Measure:
    """Convex mixture of ``base`` with a point mass ``epsilon`` at ``x``."""
    eps = float(epsilon)
    if not 0.0 <= eps <= 1.0:
        raise InvalidInputError(f"epsilon must lie in [0, 1], got {epsilon!r}")
    if eps == 0.0:
        return base
    if eps == 1.0:
        return Measure(np.array([float(x)]), np.array([1.0]))
    nodes = np.append(base.nodes, float(x))
    weights = np.append((1.0 - eps) * base.weights, eps)
    return Measure(nodes, weights)


def format_float(value: float) -> str:
    """A number as the front end writes it: 17 significant digits, which
    ``float`` (and so ``read_sample``) parses back to the same bits."""
    return format(float(value), ".17g")


def read_sample(source) -> list[float]:
    """Parse one observation per line from a path or text stream.

    Blank lines and lines starting with '#' are ignored.  Any other line that
    is not a number, or not UTF-8, raises :class:`SampleParseError` naming its 1-based line.
    """
    if hasattr(source, "read"):
        return _parse_lines(source)
    with io.open(Path(source), "r", encoding="utf-8", errors="surrogateescape") as fh:
        return _parse_lines(fh)


def _parse_lines(stream) -> list[float]:
    out: list[float] = []
    for lineno, raw in enumerate(stream, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            value = float(line)
        except ValueError:
            raise SampleParseError(
                f"line {lineno}: cannot parse {line!r} as a number", line_number=lineno
            ) from None
        if not np.isfinite(value):
            raise SampleParseError(
                f"line {lineno}: non-finite observation {line!r}", line_number=lineno
            )
        out.append(value)
    return out
