"""One fresh interpreter of the benchmark: set up, then run one workload.

``run.py`` starts this file once per set-up sample and once per measured
run, so every sample pays the real import and lazy-table cost.  It prints
one JSON object on stdout.

    python bench/worker.py --workload NAME --seed N --root DIR --setup-only
    python bench/worker.py --workload NAME --seed N --root DIR --seconds S --trace 0|1

With ``--trace 0`` the workload runs untraced, its operations calibrated
against the reference kernel of ``calibrate.py``, for the number of cycles
that ``--seconds`` gives it (``Workload.cycles``).  With ``--trace 1`` it
runs untraced for the cycles of a third of ``--seconds``, then the same
rounds with spans on, then untraced again; the per-layer numbers come from
the traced pass and ``trace.overhead_ratio`` compares it with the mean of
the untraced ones.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter


def set_up(name: str, seed: int, root: Path):
    """Import mindiv, build its first integration grid, then warm the workload."""
    t0 = perf_counter()
    import mindiv

    t_import = perf_counter()
    import numpy as np

    mindiv.NORMAL.integration_grid([np.array([0.0, 1.0])], 512)
    t_grid = perf_counter()
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed, root)
    workload.warm_up()
    t_ready = perf_counter()
    timing = {
        "setup_s": t_ready - t0,
        "import_s": t_import - t0,
        "first_grid_ms": 1e3 * (t_grid - t_import),
    }
    return workload, timing


def measure(workload, round_fn, log, cycles: int) -> float:
    """Run ``cycles`` whole cycles of the workload's distinct rounds and
    return the wall time they took."""
    t_start = perf_counter()
    for _ in range(cycles):
        for r in range(workload.CYCLE):
            log.start_round(r)
            round_fn(r, log)
    elapsed = perf_counter() - t_start
    log.close()
    return elapsed


def span_layers(tracer, units: int) -> dict[str, float]:
    """Per-layer metrics from the spans, per unit the workload counts
    (replication, fit or curve point)."""
    from tracing import CLOSED_FORM_METHODS

    totals = tracer.layer_totals()
    zero = {"calls": 0, "self_s": 0.0}

    def calls(span):
        return totals.get(span, zero)["calls"] / units

    def self_ms(span):
        return 1e3 * totals.get(span, zero)["self_s"] / units

    out = {}
    for span in (
        "estimators.estimate", "estimators.objective", "estimators.psi",
        "optimize.solve_1d", "optimize.solve_2d", "optimize.newton_polish", "optimize.scipy_minimize",
        "families.log_density", "families.score", "families.integration_grid",
        "measures.empirical", "measures.contaminate", "influence.if_numeric",
    ):
        out[f"{span}.calls"] = calls(span)
        out[f"{span}.self_ms"] = self_ms(span)
    for span in ("simulation.sample_contaminated", "simulation.run_study"):
        out[f"{span}.self_ms"] = self_ms(span)
    density_s = totals.get("families.log_density", zero)["self_s"]
    out["families.log_density.melem_per_s"] = (
        tracer.log_density_elems / density_s / 1e6 if density_s > 0 else 0.0
    )
    out["families.closed_form.calls"] = sum(calls(f"families.{m}") for m in CLOSED_FORM_METHODS)
    for kind in ("subdivergence", "superdivergence", "power-pseudo", "renyi"):
        its = tracer.iterations.get(kind, [])
        out[f"estimators.iterations.{kind}"] = sum(its) / len(its) if its else 0.0
    out["simulation.failures"] = tracer.study_failures / units
    # Fits made inside influence_curve; only its numeric form fits, and on
    # influence-oracle every counted unit is a point of a numeric curve.
    oracle_fits = tracer.descendant_count("influence.influence_curve", "estimators.estimate")
    out["influence.oracle_fits_per_point"] = oracle_fits / units
    return out


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    workload, setup = set_up(args.workload, args.seed, args.root)
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    import calibrate
    from workloads import WORKLOADS, OpLog

    record = {"setup": setup, "env": environment(), "op_unit": workload.op_unit}
    if args.trace == 0:
        calibrate.kernel()  # imports scipy if mindiv has not
        log = OpLog(calibrated=True)
        cycles = workload.cycles(args.seconds)
        elapsed = measure(workload, workload.run_round, log, cycles)
        record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        logs = [log]
        # Each slot (round input, position in the round) is timed by the
        # median of its calibrated repeats; each position by the median of
        # its slots over the round inputs.
        slot_s = {slot: statistics.median(v) for slot, v in log.calibrated.items()}
        by_pos = defaultdict(list)
        for (_, pos), seconds in slot_s.items():
            by_pos[pos].append(seconds)
        record.update(cycles=cycles, elapsed_s=elapsed, latencies_s=log.latencies,
                      slot_s=list(slot_s.values()), op_s=[statistics.median(v) for v in by_pos.values()],
                      kernel_s=log.kernel_s, op_size=workload.OP_SIZE, tail_pct=workload.tail_pct)
    else:
        import mindiv
        from tracing import Tracer

        # Untraced, traced, untraced again over the same rounds: the mean of
        # the two untraced passes cancels drift when forming the overhead.
        cycles = workload.cycles(args.seconds / 3.0, minimum=1)
        plain = OpLog()
        t_plain = measure(workload, workload.run_round, plain, cycles)
        layers = {name: 0.0 for cls in WORKLOADS.values()
                  for name in (*cls.LAYERS, f"cli.main_ms.{cls.CLI_COMMAND}")}
        layers.update(workload.harness_layers())
        layers[f"cli.main_ms.{workload.CLI_COMMAND}"] = workload.time_cli()
        tracer = Tracer()
        traced = OpLog(tracer)
        tracer.install(mindiv)
        try:
            t_traced = measure(workload, workload.run_round, traced, cycles)
        finally:
            tracer.uninstall()
        again = OpLog()
        t_again = measure(workload, workload.run_round, again, cycles)
        out_dir = args.root / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.dump(out_dir / f"spans-{args.workload}-seed{args.seed}.npz")
        layers.update(span_layers(tracer, len(traced.latencies) * workload.OP_SIZE))
        layers["trace.overhead_ratio"] = t_traced / (0.5 * (t_plain + t_again))
        logs = [plain, traced, again]
        record.update(cycles=cycles, layers=layers)

    record["problems"] = workload.check() + workload.check_cli()
    record["attempted"] = sum(len(log.latencies) for log in logs)
    record["failed"] = sum(log.failed for log in logs)
    record["failures"] = [why for log in logs for why in log.failures][:10]
    record["checks"] = {k: getattr(workload, k) for k in ("mse", "worst_stationarity", "worst_gap")
                        if hasattr(workload, k)}
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
