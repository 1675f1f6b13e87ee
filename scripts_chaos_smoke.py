"""Resume-semantics smoke test for the supervised executor.

Usage::

    PYTHONPATH=src python scripts_chaos_smoke.py [--signal-delay 1.2] \
        [--jobs 2] [--ids fig3 table4 fig7 table2]

The end-to-end crash-safety claim, exercised against the *real*
experiment registry with the runtime sanitizer armed (the CI ``chaos``
job runs this on every push; the seeded unit-level chaos suite lives in
``tests/test_experiments/test_chaos.py``):

1. run the batch sequentially, sanitized — the ground truth;
2. run it again through the supervised executor with a checkpoint, and
   deliver SIGINT mid-batch: the run must drain gracefully, report
   itself interrupted with the unfinished ids, and flush every
   completed result to the checkpoint;
3. re-run with the same checkpoint: the batch must complete from where
   it stopped, and the union must be bit-identical to step 1.

Exit code 0 when the re-run reproduces the sequential batch exactly,
1 otherwise.  The interrupt is wall-clock timed, so on a fast machine
the first run may finish before the signal lands; the script reports
that (the resume leg then degenerates to a pure checkpoint-restore
check) but does not fail, because bit-identity is the invariant under
test.
"""

import argparse
import contextlib
import os
import signal
import sys

#: Cheap, registry-real experiments: enough wall-clock under --sanitize
#: for the interrupt to land mid-batch, small enough for a CI smoke.
DEFAULT_IDS = ["fig3", "table4", "fig7", "table2"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--ids",
        nargs="+",
        default=DEFAULT_IDS,
        help="experiment ids for the batch (default: %(default)s)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=2,
        help="worker processes for the interrupted run (default: %(default)s)",
    )
    parser.add_argument(
        "--signal-delay",
        type=float,
        default=1.2,
        help="seconds before SIGINT hits the batch (default: %(default)s)",
    )
    parser.add_argument(
        "--checkpoint",
        default="chaos_smoke_checkpoint.json",
        help="checkpoint path for the interrupted run (default: %(default)s)",
    )
    parser.add_argument(
        "--no-sanitize",
        action="store_true",
        help="skip the runtime invariant proxies (faster, weaker smoke)",
    )
    args = parser.parse_args(argv)
    sanitize = not args.no_sanitize

    import repro.experiments  # noqa: F401 - populates the registry
    from repro.experiments.chaos import schedule_signal
    from repro.experiments.runner import ExperimentRunner

    print(f"[1/3] sequential baseline: {' '.join(args.ids)}"
          f" (sanitize={sanitize})")
    baseline = ExperimentRunner(sanitize=sanitize).run_many(args.ids)
    if not baseline.ok:
        print(f"baseline batch failed: {baseline.summary()}")
        return 1
    expected = [result.to_dict() for result in baseline.results]

    # A stale checkpoint would restore everything and dodge the test.
    with contextlib.suppress(FileNotFoundError):
        os.remove(args.checkpoint)

    print(f"[2/3] parallel run with SIGINT after {args.signal_delay:.1f}s "
          f"(jobs={args.jobs}, checkpoint={args.checkpoint})")
    first = ExperimentRunner(
        sanitize=sanitize,
        checkpoint_path=args.checkpoint,
        heartbeat_interval=0.2,
        drain_timeout=120.0,
    )
    timer = schedule_signal(args.signal_delay, signal.SIGINT)
    try:
        interrupted = first.run_many(args.ids, jobs=args.jobs)
    finally:
        timer.cancel()
    done = sorted(result.experiment_id for result in interrupted.results)
    if interrupted.interrupted:
        print(f"      interrupted as planned; completed {done}, "
              f"unfinished {sorted(interrupted.unfinished)}")
        if not set(interrupted.unfinished) | set(done) == set(args.ids):
            print("completed + unfinished ids do not cover the batch")
            return 1
    else:
        print("      batch outran the signal (fast host); resume leg "
              "degenerates to checkpoint-restore")

    print("[3/3] resumed run with the same checkpoint")
    second = ExperimentRunner(
        sanitize=sanitize, checkpoint_path=args.checkpoint
    )
    resumed = second.run_many(args.ids, jobs=args.jobs)
    if not resumed.ok:
        print(f"resumed batch failed: {resumed.summary()}")
        return 1
    if sorted(resumed.resumed) != done:
        print(f"resume restored {sorted(resumed.resumed)}, expected {done}")
        return 1
    actual = [result.to_dict() for result in resumed.results]
    if actual != expected:
        mismatched = [
            fresh["experiment_id"]
            for fresh, reference in zip(actual, expected)
            if fresh != reference
        ]
        print(f"resumed results differ from the sequential baseline: "
              f"{mismatched or 'ordering/count mismatch'}")
        return 1
    with contextlib.suppress(FileNotFoundError):
        os.remove(args.checkpoint)
    print(f"chaos smoke: ok — {len(actual)} experiments bit-identical "
          f"after interrupt and resume")
    return 0


if __name__ == "__main__":
    sys.exit(main())
