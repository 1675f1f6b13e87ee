"""Check a benchmark run against its committed baseline.

Usage::

    python scripts_check_bench_regression.py CURRENT.json \
        [--baseline benchmarks/BENCH_engine.json] \
        [--min-speedup 2.0] [--tolerance 0.25] [--max-exec-overhead 0.10]

Both files are ``pytest-benchmark --benchmark-json`` output — from
``benchmarks/test_bench_engine.py`` (engine speedups) or
``benchmarks/test_bench_exec.py`` (executor overhead); the script
applies whichever checks the run's ``extra_info`` pairs support.
Absolute times are machine-bound and meaningless across hosts, so
every check works on *ratios*, which are host-relative:

* every algorithm's fast-engine speedup (reference mean / fast mean)
  must reach ``--min-speedup`` (the committed baseline shows >= 3x; CI
  uses a lower floor to absorb shared-runner noise), and may not fall
  more than ``--tolerance`` (default 25%) below the committed
  baseline's speedup;
* every algorithm's *batch*-engine speedup (scalar-fast mean / batch
  mean, from paired ``benchmarks/test_bench_batch.py`` runs carrying a
  ``trials`` count in ``extra_info``) must reach
  ``--min-batch-speedup`` (default 10x; the committed
  ``benchmarks/BENCH_batch.json`` baseline shows >= 50x) and may not
  fall more than ``--tolerance`` below the committed baseline's ratio;
* the supervised executor's fault-free overhead (supervised mean /
  bare-``Pool`` mean, per workload) may not exceed
  ``--max-exec-overhead`` (default 10%) — or, when the committed
  baseline already records an overhead, ``--tolerance`` above that
  baseline, whichever ceiling is higher (shared-runner noise on a
  ~1.0x ratio is proportionally large);
* every service benchmark (``workload == "service-loadgen"`` in
  ``extra_info``, from ``benchmarks/test_bench_service.py``) must
  record a positive ``p99_ms`` tail latency and a cold-cache
  ``hit_rate`` at or above ``--min-hit-rate`` (default 0.5) — the hit
  rate is a seeded property of the schedule, so unlike wall-clock it
  is comparable across hosts and policed as an absolute floor;
* every cluster benchmark (``workload == "cluster-route"`` in
  ``extra_info``, from ``benchmarks/test_bench_cluster.py``) must
  record zero ``client_errors`` across its healthy and post-kill
  batches (the fabric's contract, host-independent), a positive
  ``p99_ms``, and a numeric ``failover_added_ms`` (sign and magnitude
  are host-bound, so only presence is policed).

When both files are *leakage reports* instead (canonical JSON from
``python -m repro.analysis leakage --json``, recognizable by their
``leakage_version`` key), the script compares them exactly via
``repro.analysis.leakage.diff_reports``: the defense ranking order
and every per-cell metric must match the committed
``benchmarks/LEAKAGE_baseline.json`` bit-for-bit — the numbers are
host-independent state-space counts, so there is no tolerance.

Exit code 0 when every check passes, 1 otherwise.
"""

import argparse
import json
import os
import sys


def _is_leakage_report(path):
    with open(path) as handle:
        return "leakage_version" in json.load(handle)


def check_leakage_drift(current_path, baseline_path):
    """Exact drift check between two leakage-analysis artifacts."""
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), "src"))
    from repro.analysis.leakage import diff_reports

    with open(current_path) as handle:
        current = json.load(handle)
    with open(baseline_path) as handle:
        baseline = json.load(handle)
    problems = diff_reports(current, baseline)
    for problem in problems:
        print(f"LEAKAGE DRIFT: {problem}")
    print("leakage check:", "FAILED" if problems else "ok")
    return 1 if problems else 0


def load_means(path):
    """benchmark name -> mean seconds, plus extra_info, from a JSON run."""
    with open(path) as handle:
        data = json.load(handle)
    return {
        bench["name"]: (bench["stats"]["mean"], bench.get("extra_info", {}))
        for bench in data["benchmarks"]
    }


def speedups(means):
    """algorithm -> reference mean / fast mean, for paired engine benches."""
    by_algorithm = {}
    for name, (mean, extra) in means.items():
        algorithm = extra.get("algorithm")
        engine = extra.get("engine")
        if algorithm and engine:
            by_algorithm.setdefault(algorithm, {})[engine] = mean
    return {
        algorithm: engines["reference"] / engines["fast"]
        for algorithm, engines in by_algorithm.items()
        if "reference" in engines and "fast" in engines
    }


def batch_engine_speedups(means):
    """algorithm -> scalar-fast mean / batch mean, for paired trial benches.

    Pairs come from ``benchmarks/test_bench_batch.py``; they carry a
    ``trials`` count in ``extra_info``, which keeps them out of the
    reference/fast pairing above.
    """
    by_algorithm = {}
    for name, (mean, extra) in means.items():
        algorithm = extra.get("algorithm")
        engine = extra.get("engine")
        if algorithm and engine and "trials" in extra:
            by_algorithm.setdefault(algorithm, {})[engine] = mean
    return {
        algorithm: engines["fast"] / engines["batch"]
        for algorithm, engines in by_algorithm.items()
        if "fast" in engines and "batch" in engines
    }


def exec_overheads(means):
    """workload -> supervised mean / pool mean, for paired exec benches."""
    by_workload = {}
    for name, (mean, extra) in means.items():
        executor = extra.get("executor")
        workload = extra.get("workload")
        if executor and workload:
            by_workload.setdefault(workload, {})[executor] = mean
    return {
        workload: executors["supervised"] / executors["pool"]
        for workload, executors in by_workload.items()
        if "pool" in executors and "supervised" in executors
    }


def service_reports(means):
    """bench name -> extra_info, for service loadgen benchmarks."""
    return {
        name: extra
        for name, (mean, extra) in means.items()
        if extra.get("workload") == "service-loadgen"
    }


def cluster_reports(means):
    """bench name -> extra_info, for routed cluster benchmarks."""
    return {
        name: extra
        for name, (mean, extra) in means.items()
        if extra.get("workload") == "cluster-route"
    }


def check_cluster(name, extra):
    """Human-readable line plus pass/fail for one cluster bench."""
    client_errors = extra.get("client_errors")
    p99_ms = extra.get("p99_ms")
    failover_added_ms = extra.get("failover_added_ms")
    line = (
        f"{name}: client errors {client_errors}, p99 {p99_ms} ms, "
        f"failover added {failover_added_ms} ms"
    )
    failed = False
    if client_errors != 0:
        line += "  CLIENT ERRORS"
        failed = True
    if not isinstance(p99_ms, (int, float)) or p99_ms <= 0:
        line += "  P99 NOT RECORDED"
        failed = True
    if not isinstance(failover_added_ms, (int, float)):
        line += "  FAILOVER COST NOT RECORDED"
        failed = True
    return line, failed


def batch_speedups(means):
    """Wall-clock ratios for the gated run-all benches, if present.

    Returns (jobs_line, engine_line) human-readable summaries; either
    may be None when the corresponding benches were not run.
    """
    reference_by_jobs = {}
    fast_serial = None
    cpu_count = None
    for _, (mean, extra) in means.items():
        if "jobs" not in extra:
            continue
        cpu_count = extra.get("cpu_count", cpu_count)
        if extra.get("engine", "reference") == "fast":
            if extra["jobs"] == 1:
                fast_serial = mean
        else:
            reference_by_jobs[extra["jobs"]] = mean
    serial = reference_by_jobs.get(1)
    jobs_line = engine_line = None
    if serial is not None and len(reference_by_jobs) > 1:
        workers = min(jobs for jobs in reference_by_jobs if jobs != 1)
        ratio = serial / reference_by_jobs[workers]
        jobs_line = (
            f"run all: {ratio:.2f}x wall-clock with {workers} jobs "
            f"(host has {cpu_count} CPU(s); parallelism is bounded by "
            f"core count)"
        )
    if serial is not None and fast_serial is not None:
        engine_line = (
            f"run all: {serial / fast_serial:.2f}x wall-clock with the "
            f"fast engine (single process)"
        )
    return jobs_line, engine_line


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("current", help="fresh --benchmark-json output")
    parser.add_argument(
        "--baseline",
        default="benchmarks/BENCH_engine.json",
        help="committed baseline run (default: %(default)s)",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=2.0,
        help="absolute floor for every fast-engine speedup "
        "(default: %(default)s)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.25,
        help="allowed fractional drop below the baseline speedup "
        "(default: %(default)s)",
    )
    parser.add_argument(
        "--min-batch-speedup",
        type=float,
        default=10.0,
        help="absolute floor for every batch-engine speedup over the "
        "scalar fast engine (default: %(default)s)",
    )
    parser.add_argument(
        "--max-exec-overhead",
        type=float,
        default=0.10,
        help="absolute budget for supervised-executor overhead over the "
        "bare Pool (default: %(default)s)",
    )
    parser.add_argument(
        "--min-hit-rate",
        type=float,
        default=0.5,
        help="absolute floor for the service bench's cold-cache hit rate "
        "(default: %(default)s)",
    )
    args = parser.parse_args(argv)

    if _is_leakage_report(args.current) or _is_leakage_report(
        args.baseline
    ):
        if not (
            _is_leakage_report(args.current)
            and _is_leakage_report(args.baseline)
        ):
            print(
                "cannot compare a leakage report against a "
                "pytest-benchmark run; pass matching artifacts"
            )
            return 1
        return check_leakage_drift(args.current, args.baseline)

    current_means = load_means(args.current)
    baseline_means = load_means(args.baseline)
    current = speedups(current_means)
    baseline = speedups(baseline_means)
    current_exec = exec_overheads(current_means)
    baseline_exec = exec_overheads(baseline_means)
    current_service = service_reports(current_means)
    current_cluster = cluster_reports(current_means)
    current_batch = batch_engine_speedups(current_means)
    baseline_batch = batch_engine_speedups(baseline_means)
    if (
        not current
        and not current_exec
        and not current_service
        and not current_cluster
        and not current_batch
    ):
        print(
            "no engine, executor, service, cluster, or batch benchmarks "
            "in the current run"
        )
        return 1

    failed = False
    for algorithm in sorted(current):
        speedup = current[algorithm]
        line = f"{algorithm}: fast engine speedup {speedup:.2f}x"
        reference = baseline.get(algorithm)
        if reference is not None:
            floor = reference * (1.0 - args.tolerance)
            line += f" (baseline {reference:.2f}x, floor {floor:.2f}x)"
            if speedup < floor:
                line += "  REGRESSION"
                failed = True
        if speedup < args.min_speedup:
            line += f"  BELOW MINIMUM {args.min_speedup:.2f}x"
            failed = True
        print(line)

    for algorithm in sorted(current_batch):
        speedup = current_batch[algorithm]
        line = (
            f"{algorithm}: batch engine speedup {speedup:.2f}x over "
            f"scalar-fast"
        )
        reference = baseline_batch.get(algorithm)
        if reference is not None:
            floor = reference * (1.0 - args.tolerance)
            line += f" (baseline {reference:.2f}x, floor {floor:.2f}x)"
            if speedup < floor:
                line += "  REGRESSION"
                failed = True
        if speedup < args.min_batch_speedup:
            line += f"  BELOW MINIMUM {args.min_batch_speedup:.2f}x"
            failed = True
        print(line)

    for workload in sorted(current_exec):
        overhead = current_exec[workload]
        ceiling = 1.0 + args.max_exec_overhead
        line = (
            f"{workload}: supervised/pool overhead {overhead:.3f}x "
            f"(budget {ceiling:.2f}x"
        )
        reference = baseline_exec.get(workload)
        if reference is not None:
            ceiling = max(ceiling, reference * (1.0 + args.tolerance))
            line += f", baseline {reference:.3f}x, ceiling {ceiling:.2f}x"
        line += ")"
        if overhead > ceiling:
            line += "  REGRESSION"
            failed = True
        print(line)

    for name in sorted(current_service):
        extra = current_service[name]
        hit_rate = extra.get("hit_rate")
        p99_ms = extra.get("p99_ms")
        line = f"{name}: cold hit rate {hit_rate}, p99 {p99_ms} ms"
        if not isinstance(p99_ms, (int, float)) or p99_ms <= 0:
            line += "  P99 NOT RECORDED"
            failed = True
        if (
            not isinstance(hit_rate, (int, float))
            or hit_rate < args.min_hit_rate
        ):
            line += f"  BELOW HIT-RATE FLOOR {args.min_hit_rate:.2f}"
            failed = True
        print(line)

    for name in sorted(current_cluster):
        line, cluster_failed = check_cluster(name, current_cluster[name])
        failed = failed or cluster_failed
        print(line)

    for line in batch_speedups(current_means):
        if line is not None:
            print(line)

    print("benchmark check:", "FAILED" if failed else "ok")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
