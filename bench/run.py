"""The repository benchmark: four workloads, named metrics, a traced run.

Run from the repository root::

    python3 bench/run.py --workload smt-sweep --seed 0 --seconds 20 --trace 0
    python3 bench/run.py                      # every workload once
    python3 bench/run.py --trace --repeat 5   # medians, quartiles, traces

Each measured run executes in a fresh interpreter (``bench/worker.py``)
on the fast engine.  With ``--trace 0`` a run prints every end-to-end
metric of ``BENCHMARK.json``; with ``--trace 1`` every per-layer metric,
the per-layer self-time table, and ``bench/out/<workload>.trace.json``.
The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is non-zero
when any output fails the correctness gate.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
sys.path.insert(0, HERE)

from hostclock import REFERENCE_S, loop_time  # noqa: E402

#: Set-up is timed this many times per run; the median is reported.
SETUP_SAMPLES = 7

#: Per-layer metrics that must repeat exactly for one seed.
EXACT_COUNTS = (
    "sim.sched.ops", "sim.sched.slices", "sim.batch.steps",
    "sim.batch.fallback.open_table", "cache.l1.accesses", "cache.l1.miss_frac",
    "cache.evictions", "replacement.transitions", "faults.activations",
    "faults.stall_cycles", "channels.observations",
    "replacement.compile_tables.calls", "channels.decode.calls",
    "experiments.checkpoint.writes", "experiments.checkpoint.bytes",
    "experiments.table1.paper_mae", "service.requests.rejected",
    "service.requests.shed", "service.requests.degraded",
)


class BenchError(Exception):
    """A run that could not produce a result."""


def load_spec() -> Dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def quartile_spread(values: List[float]) -> Dict[str, float]:
    """Median, quartiles, and (q3 - q1) / median, as statistics.quantiles gives them."""
    median = statistics.median(values)
    if len(values) < 2:
        return {"median": median, "q1": median, "q3": median, "spread": 0.0}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0}


def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["REPRO_ENGINE"] = "fast"
    return env


def _run_worker(args: List[str], limit: float) -> Dict:
    """Start a worker; return its set-up time and its parsed result line.

    Set-up time is spawn to ``BENCH-READY``, scaled to reference host
    speed by calibration loops timed just before and just after.
    """
    before = loop_time()
    began = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, WORKER] + args,
        cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE, text=True,
    )
    watchdog = threading.Timer(limit, proc.kill)
    watchdog.start()
    try:
        setup_s = None
        result = None
        for line in proc.stdout:
            if line.startswith("BENCH-READY") and setup_s is None:
                setup_s = time.perf_counter() - began
                setup_s *= 2 * REFERENCE_S / (before + loop_time())
            elif line.startswith("BENCH-RESULT "):
                result = json.loads(line[len("BENCH-RESULT "):])
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or setup_s is None:
        raise BenchError(f"worker {' '.join(args)} exited with code {code}")
    return {"setup_s": setup_s, "result": result}


def one_run(spec: Dict, workload: str, seed: int, seconds: float, trace: int) -> Dict:
    """One measured run; metrics are exactly the spec's list for ``trace``."""
    base = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    if trace:
        outcome = _run_worker(base + ["--trace", "1"], limit=170.0)
        result = outcome["result"]
        supplied = result["metrics"]
        names = spec["per_layer"]
    else:
        setups = [
            _run_worker(base + ["--setup-only"], limit=60.0)["setup_s"]
            for _ in range(SETUP_SAMPLES - 1)
        ]
        outcome = _run_worker(base + ["--trace", "0"], limit=seconds + 120.0)
        result = outcome["result"]
        supplied = dict(result["metrics"], setup_s=statistics.median(setups + [outcome["setup_s"]]))
        names = spec["end_to_end"]
    metrics = {}
    for entry in names:
        name = entry["name"]
        if name not in supplied:
            raise BenchError(f"{workload}: worker did not report {name}")
        metrics[name] = {"value": supplied[name], "unit": entry["unit"]}
    return {
        "correct": not result["errors"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "errors": result["errors"],
        "metrics": metrics,
        "layer_table": result.get("layer_table"),
        "raw": result.get("raw"),
        "trace_path": result.get("trace_path"),
    }


def print_run(workload: str, run: Dict) -> None:
    for name, metric in run["metrics"].items():
        print(f"{workload:<17} {name:<36} {metric['value']:>14.6g} {metric['unit']}")
    if run["layer_table"]:
        print(f"\nper-layer self time, {workload} ({run['trace_path']}):")
        print(run["layer_table"])
        print()
    if run.get("raw"):
        raw = " ".join(f"{k}={v:.6g}" for k, v in run["raw"].items())
        print(f"{workload}: unscaled {raw}")
    for error in run["errors"]:
        print(f"{workload}: INCORRECT: {error}")
    print(
        f"{workload}: {run['attempted']} operations, {run['failed']} failed, "
        f"gate {'passed' if run['correct'] else 'FAILED'}"
    )


def summarize(spec: Dict, workload: str, runs: List[Dict], trace: int) -> List[str]:
    """Print median and quartiles per metric; return the flags raised."""
    flags = []
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    print(f"\n{workload}: {len(runs)} runs, median [q1, q3] spread")
    for name in runs[0]["metrics"]:
        values = [run["metrics"][name]["value"] for run in runs]
        stats = quartile_spread(values)
        flag = ""
        bound = None if trace else bounds.get(name)
        if bound is not None and stats["spread"] > bound:
            flag = f"  SPREAD ABOVE BOUND {bound}"
        if trace and name in EXACT_COUNTS and len(set(values)) > 1:
            flag = "  EXACT COUNT DIFFERS BETWEEN REPEATS"
        if flag:
            flags.append(f"{workload} {name}:{flag}")
        print(
            f"  {name:<36} {stats['median']:>12.6g} [{stats['q1']:.6g}, {stats['q3']:.6g}] "
            f"{100 * stats['spread']:.1f}%{flag}"
        )
    return flags


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="run one workload (default: all, in order)")
    parser.add_argument("--seed", type=int, default=0, help="0 keeps the registered seeds")
    parser.add_argument("--seconds", type=float, help="measured seconds per run (default: run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--repeat", type=int, default=1, help="runs per workload (suite mode)")
    args = parser.parse_args(argv)

    for required in ("src/repro/__init__.py", "EXPERIMENTS.md", "BENCHMARK.json"):
        if not os.path.exists(os.path.join(ROOT, required)):
            print(f"bench: {required} is missing; run from a full checkout", file=sys.stderr)
            return 2
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    try:
        if args.workload is not None:
            if args.workload not in names:
                print(f"bench: unknown workload {args.workload!r}; choose from {names}", file=sys.stderr)
                return 2
            run = one_run(spec, args.workload, args.seed, seconds, args.trace)
            print_run(args.workload, run)
            print(json.dumps({key: run[key] for key in ("correct", "attempted", "failed", "metrics")}))
            return 0 if run["correct"] else 1

        correct, attempted, failed, flags, medians = True, 0, 0, [], {}
        modes = [0, 1] if args.trace else [0]
        for workload in names:
            for trace in modes:
                runs = []
                for _ in range(args.repeat):
                    run = one_run(spec, workload, args.seed, seconds, trace)
                    print_run(workload, run)
                    runs.append(run)
                    correct &= run["correct"]
                    attempted += run["attempted"]
                    failed += run["failed"]
                flags += summarize(spec, workload, runs, trace)
                for name in runs[0]["metrics"]:
                    medians[f"{workload}/{name}"] = {
                        "value": statistics.median(r["metrics"][name]["value"] for r in runs),
                        "unit": runs[0]["metrics"][name]["unit"],
                    }
    except BenchError as error:
        print(f"bench: {error}", file=sys.stderr)
        return 1
    for flag in flags:
        print(f"FLAG {flag}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": medians}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
