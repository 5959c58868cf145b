"""Command-line surface: estimation from data files, influence-curve
emission, and contamination simulation studies.

stdout carries only the machine-readable payload (JSON or CSV); stderr
carries diagnostics.  Exit codes: 0 success, 1 input/usage error, 2
estimator did not converge.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

import numpy as np

from .errors import EstimationError, InvalidInputError, ToolkitError
from .estimators import KINDS, EstimatorSpec, estimate
from .families import get_family
from .influence import influence_curve
from .measures import empirical, read_sample
from .simulation import CONTAMINANTS, ContaminationModel, report, run_study


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with status 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")


def _parse_grid(text: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise InvalidInputError(f"grid must be min:max:count, got {text!r}")
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise InvalidInputError(str(exc)) from None
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise InvalidInputError(f"grid bounds must be finite, got {text!r}")
    if not lo < hi:
        raise InvalidInputError(f"grid minimum must be below maximum, got {text!r}")
    if math.isinf(hi - lo):
        raise InvalidInputError(f"grid span max - min overflows a float, got {text!r}")
    if count < 2:
        raise InvalidInputError(f"grid needs at least 2 points, got {count}")
    return np.linspace(lo, hi, count)


def _build_parser() -> _Parser:
    parser = _Parser(prog="mindiv", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    # the flags that name a fit, shared by estimate and influence
    fit = argparse.ArgumentParser(add_help=False)
    fit.add_argument("--family", required=True, help="normal | normal-loc | normal-scale | pareto")
    fit.add_argument("--estimator", required=True, choices=KINDS)
    fit.add_argument("--alpha", type=float, default=0.0, help="divergence order (default 0)")
    fit.add_argument("--escort", type=_floats, help="escort parameter (subdivergence only)")

    est = sub.add_parser("estimate", parents=[fit], help="fit an estimator to a data file")
    est.add_argument("--data", required=True, help="text file, one observation per line")

    inf = sub.add_parser("influence", parents=[fit], help="emit an influence curve as CSV")
    inf.add_argument("--theta", type=_floats, required=True, help="evaluation parameter, comma-separated")
    inf.add_argument("--grid", required=True, help="min:max:count")
    inf.add_argument("--numeric", action="store_true", help="use the contamination oracle")

    sim = sub.add_parser("simulate", help="run a contaminated scale study")
    sim.add_argument("--epsilon", type=float, required=True, help="contamination fraction in (0, 0.5)")
    sim.add_argument("--contaminant", required=True, choices=CONTAMINANTS)
    sim.add_argument("--n", type=int, default=100)
    sim.add_argument("--reps", type=int, default=1000)
    sim.add_argument("--sigma", type=float, default=1.0, help="base scale (default 1)")
    sim.add_argument("--alphas", type=_floats, default=(0.25, 0.5, 1.0))
    sim.add_argument("--seed", type=int, default=None)
    sim.add_argument("--format", choices=("csv", "json"), default="csv")
    return parser


def _non_convergence(family, q, theta) -> str:
    """Why a fit is not converged: it stopped on an edge of the search box,
    or inside it with its estimating-equation residual above tolerance."""
    box = family.default_bounds(q.nodes, q.weights)
    edges = [
        f"{name} = {value:.6g} on [{lo:.6g}, {hi:.6g}]"
        for name, value, (lo, hi) in zip(family.param_names, theta, box)
        if value <= lo or value >= hi
    ]
    if edges:
        return "warning: the fit stopped on the edge of its search box (" + "; ".join(edges) + ")"
    return "warning: the fit stopped inside its search box without solving its estimating equation"


def _cmd_estimate(args) -> int:
    family = get_family(args.family)
    spec = EstimatorSpec(args.estimator, args.alpha, args.escort)
    q = empirical(read_sample(args.data))
    result = estimate(family, spec, q)
    payload = {
        "theta_hat": [float(v) for v in result.theta_hat],
        "criterion_value": result.criterion_value,
        "iterations": result.iterations,
        "converged": result.converged,
    }
    print(json.dumps(payload))
    if not result.converged:
        print(_non_convergence(family, q, result.theta_hat), file=sys.stderr)
        return 2
    return 0


def _cmd_influence(args) -> int:
    family = get_family(args.family)
    spec = EstimatorSpec(args.estimator, args.alpha, args.escort)
    grid = _parse_grid(args.grid)
    curve = influence_curve(family, spec, np.asarray(args.theta), grid, numeric=args.numeric)
    sys.stdout.write(curve.to_csv())
    return 0


def _cmd_simulate(args) -> int:
    model = ContaminationModel(base_sigma=args.sigma, epsilon=args.epsilon, contaminant=args.contaminant)
    seed = args.seed
    if seed is None:
        seed = time.time_ns() & ((1 << 63) - 1)
        print(f"seed: {seed}", file=sys.stderr)
    specs = [EstimatorSpec(kind="mle")]
    for kind in ("power-pseudo", "renyi"):
        specs += [EstimatorSpec(kind=kind, alpha=alpha) for alpha in args.alphas]
    result = run_study(model, args.n, args.reps, specs, seed)
    sys.stdout.write(report(result, format=args.format))
    return 0


_COMMANDS = {"estimate": _cmd_estimate, "influence": _cmd_influence, "simulate": _cmd_simulate}

# Flags whose values may start with '-' (negative numbers, grid specs);
# fused into --flag=value so argparse does not read them as options.
_VALUE_FLAGS = ("--grid", "--theta", "--escort", "--alphas")


def _fuse_values(argv) -> list[str]:
    out = []
    for token in argv:
        if out and out[-1] in _VALUE_FLAGS:
            out[-1] += f"={token}"
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    argv = _fuse_values(sys.argv[1:] if argv is None else argv)
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    try:
        return _COMMANDS[args.command](args)
    except (ToolkitError, OSError) as exc:
        print(f"mindiv: error: {exc}", file=sys.stderr)
        # an EstimationError without a cause reports a fit that did not
        # converge; one that wraps another toolkit error is an input failure
        return 2 if isinstance(exc, EstimationError) and exc.__cause__ is None else 1


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
