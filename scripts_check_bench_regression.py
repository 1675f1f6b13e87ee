"""Check a batch-engine benchmark run against its committed baseline.

Usage::

    python scripts_check_bench_regression.py CURRENT.json \
        [--baseline benchmarks/BENCH_batch.json] \
        [--min-batch-speedup 10] [--tolerance 0.25]

Both files are ``pytest-benchmark --benchmark-json`` output from
``benchmarks/test_bench_batch.py``.  Absolute times are machine-bound,
so the check works on the host-relative ratio of each algorithm's
scalar-fast mean to its batch mean: it must reach
``--min-batch-speedup`` (default 10x; the committed baseline shows
>= 50x) and may not fall more than ``--tolerance`` (default 25%) below
the committed baseline's ratio.

Every other wall-clock bound of the repository lives in the tier-1
suite (``tests/test_perf/test_speedups.py``) or in ``bench/``.

Exit code 0 when every check passes, 1 otherwise.
"""

import argparse
import json
import sys


def batch_engine_speedups(path):
    """algorithm -> scalar-fast mean / batch mean, from a JSON run."""
    with open(path) as handle:
        data = json.load(handle)
    by_algorithm = {}
    for bench in data["benchmarks"]:
        extra = bench.get("extra_info", {})
        algorithm = extra.get("algorithm")
        engine = extra.get("engine")
        if algorithm and engine and "trials" in extra:
            by_algorithm.setdefault(algorithm, {})[engine] = bench["stats"][
                "mean"
            ]
    return {
        algorithm: engines["fast"] / engines["batch"]
        for algorithm, engines in by_algorithm.items()
        if "fast" in engines and "batch" in engines
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("current", help="fresh --benchmark-json output")
    parser.add_argument(
        "--baseline",
        default="benchmarks/BENCH_batch.json",
        help="committed baseline run (default: %(default)s)",
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
    args = parser.parse_args(argv)

    current = batch_engine_speedups(args.current)
    baseline = batch_engine_speedups(args.baseline)
    if not current:
        print("no batch benchmarks in the current run")
        return 1

    failed = False
    for algorithm in sorted(current):
        speedup = current[algorithm]
        line = (
            f"{algorithm}: batch engine speedup {speedup:.2f}x over "
            f"scalar-fast"
        )
        reference = baseline.get(algorithm)
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

    print("benchmark check:", "FAILED" if failed else "ok")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
