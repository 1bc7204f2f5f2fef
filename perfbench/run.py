"""boundarykit benchmark: three CLI workloads, end-to-end metrics, and a
traced per-layer run.  See perfbench/README.md.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --out FILE
    python3 perfbench/run.py --compare OLD.json NEW.json
    python3 perfbench/run.py --selfcheck --workload all --seed 1 --seconds 25

Each workload runs in fresh single-threaded Python processes (worker.py)
that call `boundarykit.cli.main(argv)` in-process, one op per invocation.
The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`; the full record, with every op's report digest, is
written to --out.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

sys.path.insert(0, str(HERE))
import tracing  # noqa: E402
import workloads  # noqa: E402

# Fresh processes per untimed run; each measures set-up once and runs an
# equal share of the timed ops, continuing the same op sequence.
SETUP_RUNS = 3
# A tail percentile needs this many ops beyond it.
TAIL_OPS_BEYOND = 10
# Wall-clock limit for one workload run, set-up and checks included.
RUN_DEADLINE_S = 170.0
# Pinned so numpy's threaded OpenBLAS stays on one core in the workers, and
# so set iteration order does not vary between worker processes.
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}

END_TO_END = [("op_p50_s", "s"), ("op_tail_s", "s"), ("ops_per_s", "1/s"),
              ("peak_rss_mb", "MB"), ("setup_s", "s")]


class BenchError(Exception):
    """The benchmark could not produce a result."""


def quantile(values, q):
    """Linear-interpolated q-quantile of a non-empty list."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def per_type(records, q):
    """Mean over op types of each type's q-quantile of wall time.

    Each workload cycles through its op types in equal numbers, so this
    weights the types equally and does not jump between types' clusters.
    """
    walls = {}
    for r in records:
        walls.setdefault(r["op"], []).append(r["wall_s"])
    return statistics.fmean(quantile(w, q) for w in walls.values())


def spawn_worker(workload, seed, proc, first, budget, finish_cycle, trace, deadline):
    result_path = OUT / f"worker-{workload}-{proc}.json"
    result_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--proc", str(proc), "--first", str(first),
           "--budget", repr(budget), "--finish-cycle", str(int(finish_cycle)),
           "--trace", str(trace), "--out-dir", str(OUT / f"reports-{workload}"),
           "--result", str(result_path)]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"{workload}: run deadline reached before process {proc}")
    spawned = time.perf_counter()
    try:
        done = subprocess.run(cmd, cwd=ROOT, env={**os.environ, **WORKER_ENV},
                              stdout=sys.stderr, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: process {proc} passed the run deadline") from None
    if done.returncode != 0:
        raise BenchError(f"{workload}: process {proc} exited with code {done.returncode}")
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    # perf_counter is the system-wide monotonic clock, shared by both processes
    result["setup_s"] = result["setup_end"] - spawned
    return result


def cpu_ticks():
    """(steal, total) jiffies of the whole machine, or None off Linux."""
    try:
        with open("/proc/stat", encoding="utf-8") as fh:
            fields = [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return fields[7], sum(fields[:8])


def run_workload(workload, seed, seconds, trace):
    started = time.monotonic()
    deadline = started + RUN_DEADLINE_S
    load_before = os.getloadavg()
    ticks_before = cpu_ticks()
    if trace:
        plan = [(0, seconds, True)]
    else:
        plan = [(p, seconds / SETUP_RUNS, p == SETUP_RUNS - 1) for p in range(SETUP_RUNS)]
    results, first = [], 1
    for proc, budget, finish_cycle in plan:
        result = spawn_worker(workload, seed, proc, first, budget, finish_cycle, trace, deadline)
        results.append(result)
        first = result["next"]
    load_after = os.getloadavg()
    ticks_after = cpu_ticks()
    # Time the hypervisor gave to other guests, as a share of all CPU time
    # in the run; one source of run-to-run spread on a shared host.
    steal = None
    if ticks_before and ticks_after and ticks_after[1] > ticks_before[1]:
        steal = (ticks_after[0] - ticks_before[0]) / (ticks_after[1] - ticks_before[1])

    ops = [op for r in results for op in r["ops"]]
    every = [r["warmup"] for r in results] + ops
    failed = sum(not op["ok"] for op in every)
    run = {"seed": seed, "seconds": seconds, "trace": bool(trace),
           "run_wall_s": time.monotonic() - started,
           "load_before": load_before, "load_after": load_after, "steal_share": steal,
           "attempted": len(every), "failed": failed,
           "fail_ratio": failed / len(every),
           "facts": results[0]["facts"],
           "errors": sorted({op["error"] for op in every if op["error"]}),
           "ops": [{k: op.get(k) for k in ("key", "op", "argv", "wall_s", "check_s", "ok", "digest")}
                   for op in every]}
    if trace:
        [result] = results
        traced = [op for op in ops if op["traced"]]
        untraced = [op for op in ops if not op["traced"]]
        overhead = per_type(traced, 0.5) / per_type(untraced, 0.5) - 1.0
        run["metrics"] = tracing.layer_metrics(result["cycles"], result["cycle_walls"],
                                               overhead, result["span_cost_ns"])
        run["cycle_s"] = statistics.fmean(result["cycle_walls"])
        run["traced_cycles"] = len(result["cycles"])
        run["cycles"] = result["cycles"]
        run["missing_targets"] = result["missing"]
        return run
    n = len(ops)
    tail_q = max(0.0, (n - TAIL_OPS_BEYOND) / n)
    values = {
        "op_p50_s": per_type(ops, 0.5),
        "op_tail_s": per_type(ops, tail_q),
        "ops_per_s": n / sum(op["wall_s"] for op in ops),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in results),
        "setup_s": statistics.median(r["setup_s"] for r in results),
    }
    run["metrics"] = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    run["timed_ops"] = n
    run["op_tail_pct"] = 100.0 * tail_q
    run["setup_s_runs"] = [r["setup_s"] for r in results]
    return run


def machine():
    model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), None)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "platform": platform.platform(), "python": platform.python_version()}


def print_run(workload, run):
    print(f"[{workload}] seed {run['seed']}, {run['attempted']} ops attempted, "
          f"{run['failed']} failed, {run['run_wall_s']:.1f} s wall, load "
          f"{run['load_before'][0]:.2f} -> {run['load_after'][0]:.2f}, "
          f"CPU steal {run['steal_share'] or 0.0:.1%}")
    for name, m in run["metrics"].items():
        print(f"  {name:48s} {m['value']:14.6g} {m['unit']}")
    if run["trace"]:
        print(f"  self time per cycle ({run['cycle_s']:.3f} s traced, "
              f"{run['traced_cycles']} cycles); a layer saves at most its share:")
        shares = [(m["value"], name) for name, m in run["metrics"].items()
                  if name.endswith("self_s") and m["value"] > 0]
        for value, name in sorted(shares, reverse=True):
            print(f"    {name:46s} {100.0 * value / run['cycle_s']:6.2f} %")
        if run["missing_targets"]:
            print(f"  not traced (absent from the package): {run['missing_targets']}")
    else:
        print(f"  {'fail_ratio':48s} {run['fail_ratio']:14.6g} ratio")
        print(f"  op_tail_s is p{run['op_tail_pct']:.1f} of {run['timed_ops']} timed ops "
              f"(highest percentile with >= {TAIL_OPS_BEYOND} ops beyond it)")
    for error in run["errors"]:
        print(f"  failure: {error}")


def compare(old_path, new_path):
    with open(old_path, encoding="utf-8") as fh:
        old = json.load(fh)
    with open(new_path, encoding="utf-8") as fh:
        new = json.load(fh)
    for workload in sorted(set(old["workloads"]) & set(new["workloads"])):
        a, b = old["workloads"][workload], new["workloads"][workload]
        print(f"[{workload}]")
        for name in a["metrics"]:
            if name in b["metrics"]:
                x, y = a["metrics"][name]["value"], b["metrics"][name]["value"]
                delta = f"{100.0 * (y - x) / x:+8.2f} %" if x else "       n/a"
                print(f"  {name:48s} {x:14.6g} -> {y:14.6g} {delta}")
        digests_a = {json.dumps(op["argv"]): op["digest"] for op in a["ops"] if op["digest"]}
        digests_b = {json.dumps(op["argv"]): op["digest"] for op in b["ops"] if op["digest"]}
        shared = set(digests_a) & set(digests_b)
        changed = sum(digests_a[k] != digests_b[k] for k in shared)
        print(f"  report digests: {changed} of {len(shared)} shared ops changed")


def selfcheck(names, seed, seconds):
    """Two traced runs with one seed must give identical counts."""
    ok = True
    for workload in names:
        first, second = (run_workload(workload, seed, seconds, 1) for _ in range(2))
        counts = [name for name, unit in tracing.PER_LAYER if unit in ("count", "bytes")]
        differ = [name for name in counts
                  if first["metrics"][name]["value"] != second["metrics"][name]["value"]]
        ok &= not differ and not first["failed"] and not second["failed"]
        print(f"[{workload}] counts {'differ: ' + ', '.join(differ) if differ else 'repeat exactly'}; "
              f"tracing overhead {first['metrics']['trace.overhead']['value']:+.1%} and "
              f"{second['metrics']['trace.overhead']['value']:+.1%}; span cost "
              f"{first['metrics']['trace.span_cost_ns']['value']:.0f} ns")
    return ok


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--out", help="results file (default under .perfbench_out/)")
    ap.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    ap.add_argument("--selfcheck", action="store_true")
    args = ap.parse_args(argv)

    if args.compare:
        compare(*args.compare)
        return 0
    if not (ROOT / "src" / "boundarykit" / "cli.py").is_file():
        print(f"error: no boundarykit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        if args.selfcheck:
            return 0 if selfcheck(names, args.seed, args.seconds) else 1
        runs = {name: run_workload(name, args.seed, args.seconds, args.trace) for name in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    out = Path(args.out) if args.out else (
        OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"machine": machine(), "workloads": runs}, fh, indent=1)
        fh.write("\n")
    for name, run in runs.items():
        print_run(name, run)
    print(f"results: {out}")
    if len(runs) == 1:
        metrics = runs[names[0]]["metrics"]
    else:
        metrics = {f"{w}.{k}": v for w, run in runs.items() for k, v in run["metrics"].items()}
    attempted = sum(r["attempted"] for r in runs.values())
    failed = sum(r["failed"] for r in runs.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
