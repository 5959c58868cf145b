#!/usr/bin/env python3
"""Benchmark of the mindiv package: run one workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a mindiv checkout; the package is imported from
``src/`` there, with BLAS pinned to one thread.  Workloads, metric names
and units are listed in ``BENCHMARK.json``; ``bench/README.md`` says what
each metric measures and which layer should move it.

Every sample is a fresh interpreter (``worker.py``): three set-up probes,
the measured run, whose set-up is the fourth sample, and three more
probes.  With ``--trace 0`` the last stdout line is the JSON result with
the end-to-end metrics; with ``--trace 1`` it carries the per-layer
metrics.  Earlier lines give
the environment and the details behind the numbers, and the full record
is written to ``.bench_out/``.  The exit code is 0 when every correctness
check passed, 1 when one failed and 2 when the run could not be made.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 6
RUN_LIMIT_S = 170.0
BLAS_PIN = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
# Module whose cumulative import time each metric reports.  scipy loads
# scipy.optimize lazily, so it has no importtime line of its own; it is
# measured through mindiv.optimize, which only adds it to what is loaded.
IMPORT_LAYERS = {
    "import.mindiv_ms": "mindiv",
    "import.numpy_ms": "numpy",
    "import.scipy_special_ms": "scipy.special",
    "import.scipy_optimize_ms": "mindiv.optimize",
}


class BenchError(Exception):
    pass


def percentile(samples, pct: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    s = sorted(samples)
    pos = (len(s) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def import_times_ms(stderr: str) -> dict[str, float]:
    """Cumulative import time of each module named in IMPORT_LAYERS, from
    ``python -X importtime`` output."""
    cumulative = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line.split("|")
        name = parts[-1].strip()
        if name in IMPORT_LAYERS.values() and name not in cumulative:
            cumulative[name] = int(parts[1]) / 1e3
    missing = set(IMPORT_LAYERS.values()) - set(cumulative)
    if missing:
        raise BenchError(f"import times missing for {sorted(missing)}")
    return {metric: cumulative[mod] for metric, mod in IMPORT_LAYERS.items()}


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout when it is itself a git work tree, else None."""
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel"], cwd=root,
                             capture_output=True, text=True, timeout=10)
        if top.returncode != 0 or Path(top.stdout.strip()).resolve() != root.resolve():
            return None
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return head.stdout.strip() or None


def source_digest(package: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(package.glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def run_child(cmd: list[str], env: dict, deadline: float) -> tuple[dict, str]:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time limit reached before all samples ran")
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{' '.join(cmd[-8:])} did not finish within the time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stderr


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    package = root / "src" / "mindiv"
    spec_path = root / "BENCHMARK.json"
    if not (package / "__init__.py").is_file():
        raise BenchError(f"no mindiv sources at {package}; run from the root of a mindiv checkout")
    if not spec_path.is_file():
        raise BenchError(f"no BENCHMARK.json in {root}")
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        raise BenchError(f"unknown workload {args.workload!r}")
    if not args.seconds > 0:
        raise BenchError("--seconds must be positive")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    seed = args.seed % 2**63  # generator entropy must be nonnegative

    deadline = time.monotonic() + RUN_LIMIT_S
    compileall.compile_dir(str(package), quiet=1)
    env = dict(os.environ, PYTHONPATH=str(root / "src"), **BLAS_PIN)
    worker = [str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(seed),
              "--root", str(root)]
    probe_flags = ["-X", "importtime"] if args.trace else []

    def probe() -> dict:
        sample, stderr = run_child([sys.executable, *probe_flags, *worker, "--setup-only"], env, deadline)
        if args.trace:
            sample.update(import_times_ms(stderr))
        return sample

    # Half the set-up probes run before the measured run and half after it,
    # so that their median spans the run rather than one moment of it.
    probes = [probe() for _ in range(SETUP_PROBES // 2)]
    record, _ = run_child(
        [sys.executable, *worker, "--seconds", repr(args.seconds), "--trace", str(args.trace)],
        env, deadline,
    )
    probes += [probe() for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    setups = probes + [record["setup"]]

    if args.trace:
        values = dict(record["layers"])
        values["families.first_grid_ms"] = statistics.median(s["first_grid_ms"] for s in setups)
        for name in IMPORT_LAYERS:
            values[name] = statistics.median(p[name] for p in probes)
        detail = {"cycles": record["cycles"]}
    else:
        latencies = record.pop("latencies_s")
        op_s = record.pop("op_s")  # calibrated median time of each position in a round
        slot_s = record.pop("slot_s")  # calibrated median time of each distinct operation
        kernel_s = record.pop("kernel_s")
        size = record["op_size"]
        values = {
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "ops_per_s": size * len(op_s) / sum(op_s),
            "peak_rss_mb": record["peak_rss_mb"],
        }
        detail = {
            "op": f"{size} x {record['op_unit']}",
            "distinct_ops": len(slot_s),
            "positions": len(op_s),
            "units_per_s_all_inputs": size * len(slot_s) / sum(slot_s),
            "cycles": record["cycles"],
            "ops_run": len(latencies),
            "elapsed_s": record["elapsed_s"],
            "units_per_wall_s": size * len(latencies) / record["elapsed_s"],
            "kernel_calls": len(kernel_s),
            "kernel_ms_p10_p50_p90": [1e3 * percentile(kernel_s, p) for p in (10.0, 50.0, 90.0)],
            "op_ms_p50": 1e3 * percentile(slot_s, 50.0),
        }
        tail_pct = record["tail_pct"]
        if tail_pct is not None:
            tail_ms = 1e3 * percentile(slot_s, tail_pct)
            detail[f"op_ms_p{tail_pct:g}"] = tail_ms
            detail["ops_beyond_tail"] = sum(1 for x in slot_s if 1e3 * x > tail_ms)
        detail["setup_samples_s"] = [s["setup_s"] for s in setups]
    names = [m["name"] for m in wanted]
    if sorted(values) != sorted(names):
        raise BenchError(f"metric set differs from BENCHMARK.json: {sorted(set(values) ^ set(names))}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    env_record = dict(
        record["env"],
        nproc=os.cpu_count(),
        cpus_usable=len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        blas_pin=BLAS_PIN,
        git_commit=git_commit(root),
        source_digest=source_digest(package),
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
    )
    detail.update(failures=record["failures"], checks=record["checks"], problems=record["problems"])
    result = {
        "correct": not record["problems"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    out_file = out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps({"env": env_record, "detail": detail, "result": result}, indent=1))
    print("env " + json.dumps(env_record))
    print("detail " + json.dumps(detail))
    for problem in record["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"bench: error: {exc}", file=sys.stderr)
        sys.exit(2)
