"""One benchmark process: import boundarykit, run one untimed warm-up op,
then run ops one at a time (a closed loop with one client) and check each
report outside the timed window.

Started by run.py in a fresh single-threaded interpreter; it writes its
records as JSON to --result and prints nothing on stdout.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import platform
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402


def _digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def run_op(cli_main, op, key, seed, out_dir, tracer=None):
    """Run one CLI op and check its report; time only the CLI call."""
    rng = workloads.op_rng(seed, key)
    argv = op.argv(rng)
    path = out_dir / f"{op.name}.{op.ext}"
    path.unlink(missing_ok=True)
    record = {"key": str(key), "op": op.name, "argv": argv, "rc": None, "error": None}
    if tracer is not None:
        tracer.install()
    start = time.perf_counter()
    try:
        record["rc"] = cli_main(argv + ["--out", str(path)])
    except SystemExit as exc:   # argparse rejects the argv
        record["rc"] = exc.code
    except Exception as exc:  # noqa: BLE001 - an op that raises is a failed op
        record["error"] = f"{type(exc).__name__}: {exc}"
    end = time.perf_counter()
    if tracer is not None:
        tracer.uninstall()
    record["wall_s"] = end - start
    record["end"] = end
    if record["error"] is None and record["rc"] != 0:
        record["error"] = f"exit code {record['rc']}"
    if record["error"] is None:
        try:
            op.check(str(path), argv, rng)
            record["digest"] = _digest(path)
        except Exception as exc:  # noqa: BLE001 - a check that raises is a failed check
            record["error"] = f"check: {type(exc).__name__}: {exc}"
    record["ok"] = record["error"] is None
    gc.collect()
    record["check_s"] = time.perf_counter() - end
    return record


def machine_facts():
    import numpy as np
    facts = {"python": platform.python_version(), "numpy": np.__version__}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["blas"] = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError, ValueError):
        facts["blas"] = None
    return facts


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--proc", type=int, required=True)
    ap.add_argument("--first", type=int, required=True, help="index of the first timed op")
    ap.add_argument("--budget", type=float, required=True, help="seconds of op time")
    ap.add_argument("--finish-cycle", type=int, default=0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args()

    from boundarykit.cli import main as cli_main

    cycle = workloads.WORKLOADS[args.workload]
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    warmup = run_op(cli_main, cycle[0], f"warmup/{args.proc}", args.seed, out_dir)
    result = {"warmup": warmup, "setup_end": warmup["end"], "ops": []}

    index = args.first
    spent = 0.0

    def timed(tracer=None):
        nonlocal index, spent
        op = cycle[(index - 1) % len(cycle)]
        record = run_op(cli_main, op, index, args.seed, out_dir, tracer)
        record["traced"] = tracer is not None
        result["ops"].append(record)
        index += 1
        spent += record["wall_s"]
        return record

    if args.trace:
        # Cycles alternate traced and untraced, so one run gives both the
        # per-layer aggregates and the tracing overhead.
        tracer = tracing.Tracer()
        result["span_cost_ns"] = tracing.span_cost_ns()
        result["cycles"], result["cycle_walls"] = [], []
        n_cycles = 0
        while n_cycles < 2 or spent < args.budget:
            traced = n_cycles % 2 == 0
            wall = sum(timed(tracer if traced else None)["wall_s"] for _ in cycle)
            if traced:
                result["cycles"].append(tracer.take())
                result["cycle_walls"].append(wall)
            n_cycles += 1
        result["missing"] = tracer.missing
    else:
        while True:
            timed()
            if spent >= args.budget and not (args.finish_cycle and (index - 1) % len(cycle)):
                break

    result["next"] = index
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["facts"] = machine_facts()
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
