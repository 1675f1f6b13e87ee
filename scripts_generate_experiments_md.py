"""Regenerate EXPERIMENTS.md through the observability report path.

Every experiment runs under the resilient runner with an observability
session (``repro.obs``); each block is rendered by
``repro.obs.report.experiment_block`` — the exact formatter behind
``python -m repro report`` — so a ``--trace`` artifact regenerates any
committed block byte-for-byte.

Usage:

    PYTHONPATH=src python scripts_generate_experiments_md.py
        [--only ID [ID ...]] [--jobs N] [--trace PATH] [--check]

``--only`` regenerates a subset in place (other blocks are kept from
the committed file); ``--jobs`` fans experiments over worker processes
(bit-identical results); ``--trace`` additionally writes the JSONL run
artifact; ``--check`` writes nothing and exits non-zero if the committed
file differs from a fresh regeneration — the CI docs-drift gate.
"""

from __future__ import annotations

import argparse
import sys

from repro.experiments.runner import ExperimentRunner
from repro.obs.report import experiment_block

ORDER = ["table1","table2","table4","table5","table6","table7",
         "fig3","fig4","fig5","fig6","fig7","fig8","fig9","fig11",
         "fig13","fig14","fig15",
         "ext_llc","ext_side_channel","ext_randomized_index",
         "ext_multiset","ext_verify_table1","ext_detector",
         "ext_coding","ext_alg2_timesliced","ext_capacity",
         "ext_robustness","occupancy","ext_randomized"]

HEADER = """# EXPERIMENTS — paper vs. measured

Every table and figure in the paper's evaluation, regenerated on the
simulator substrate (see DESIGN.md for the substitution rationale).

**Regeneration workflow.** This file is generated — do not edit blocks
by hand.  `PYTHONPATH=src python scripts_generate_experiments_md.py`
rewrites it in full (~3 minutes; add `--jobs 4` to parallelize,
`--only <id>` to refresh one block); `--check` verifies freshness
without writing (the CI docs-drift gate).  Each block is rendered by
`repro.obs.report.experiment_block`, the same formatter behind
`python -m repro run <id> --trace run.jsonl` + `python -m repro report
run.jsonl`, so any committed block can be regenerated byte-for-byte
from a trace artifact (docs/OBSERVABILITY.md documents the artifact).
DESIGN.md section 3 names the tier-1 test that checks each block's claim.

Reading guide: each block shows our measured values; `paper:` lines
state what the paper reports for the same quantity.  We reproduce the
*shape* of every result (who wins, by what rough factor, where the
crossovers fall); absolute cycle counts and rates differ because the
substrate is a simulator, not the authors' testbed.  The `_run:` footer
under each block is its manifest (seed, machines, faults, package
version) and the `_metrics:` line is the run's counter digest — both
deterministic, both explained in docs/OBSERVABILITY.md.

Any experiment here can be re-run with runtime invariant checking:
`python -m repro run <id> --sanitize` wraps every machine in the
proxies of `repro.analysis` (see docs/ANALYSIS.md), turning silent
replacement-state corruption into a structured `InvariantViolation`;
results are bit-identical with the flag on or off.  Engine selection
(`--engine reference`, docs/PERFORMANCE.md) and fault injection
(docs/FAULTS.md) are likewise result-preserving and documented there.

## Headline comparisons

| Claim | Paper | This reproduction |
|---|---|---|
| Table I, Tree-PLRU Seq 1 random init (1/2/3 iter) | 50.4% / 82.8% / 99.2% | ~49% / ~81% / ~99% |
| Table I, Bit-PLRU plateau (>=8 iters) | 100% (Seq 1) / ~99% (Seq 2) | 100% / ~99% |
| Intel hyper-threaded rate (Ts=6000) | ~480-580 Kbps | ~460-480 Kbps |
| AMD hyper-threaded rate | ~20-25 Kbps | ~19 Kbps |
| Intel time-sliced rate | ~2.4 bps | ~3.8 bps |
| AMD time-sliced rate | ~0.2 bps | ~0.25 bps |
| Time-sliced %1s (send 1 vs 0, d=8) | ~30% vs <5% | ~25% vs ~3% |
| Encode latency ordering | LRU < F+R(L1) << F+R(mem) | 31 < 39 < 227 cycles (E5) |
| Spectre: all 4 disclosure channels recover secret | yes | 100% recovery each |
| Spectre window ablation | LRU needs much smaller window | LRU works at 30 cyc; F+R needs ~250 |
| Fig 9 CPI overhead of FIFO/Random | < 2% | < 0.5% (geomean ~0.1%) |
| Fig 11 PL cache | original leaks; fix -> constant hits | 100% leak; fix -> all hits |
| Fig 13 rdtscp L1-vs-L2 overlap | complete overlap | ~0.97-0.98 overlap |

## Known deviations

* **Time-sliced cycle scale.** Quantum and Tr are scaled by 1e-3
  relative to the paper (ratio preserved); reported rates are converted
  back to paper scale. Simulating 5e8-cycle receiver periods per sample
  in Python is impractical.
* **Two-level hierarchy.** The paper's LLC column appears as our L2:
  the F+R(mem)-vs-LRU contrast is preserved one level up.
* **Secrets are 6-bit** in the Spectre demo (one probe line per L1
  set, set 0 reserved for the chase chain, value 1 for training), vs
  the paper's 63-set byte encoding.
* **Algorithm 2 d-parity.** Our Tree-PLRU simulation shows the even-d
  pathology the paper describes for Fig 4's E5-2690 curves; the clean
  d=4 trace of the paper's Fig 5 needed d=5 here (hardware PLRU details
  differ from textbook Tree-PLRU).
* **Error floors.** The simulator has no OS interrupts; Fig 4's error
  floor is modeled by a configurable noise-event rate (100 events per
  Mcycle) chosen to land in the paper's 0-15% error band.

## Extensions beyond the paper

The `ext_*` blocks below are extensions: the cross-core LLC channel,
the side-channel key recovery, the randomized-indexing defense, the
multi-set parallel channel, the exhaustive Table-I verification, the
detector evaluation, coded transmission, the Algorithm-2 time-sliced
negative result, the capacity analysis, the fault-intensity
robustness sweep (`repro/faults/`), the cache-occupancy channel's
pressure/capacity sweep (`repro/channels/occupancy.py`), and the
randomized-defense evaluation matrix (`ext_randomized`; the prose
companion is docs/DEFENSES.md).  See DESIGN.md section 3b.

## Full experiment outputs

"""

OUTPUT = "EXPERIMENTS.md"


def existing_blocks(path: str) -> dict:
    """Parse the committed file's per-experiment blocks, by id."""
    try:
        with open(path) as handle:
            text = handle.read()
    except FileNotFoundError:
        return {}
    blocks = {}
    marker = "\n### "
    start = text.find(marker)
    while start != -1:
        end = text.find(marker, start + 1)
        chunk = text[start + 1 : end if end != -1 else len(text)]
        eid = chunk.splitlines()[0][len("### ") :].strip()
        blocks[eid] = chunk.rstrip("\n") + "\n"
        start = end
    return blocks


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--only",
        nargs="+",
        default=None,
        metavar="ID",
        help="regenerate only these blocks, keeping the rest",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes (results are bit-identical to --jobs 1)",
    )
    parser.add_argument(
        "--trace", default=None, metavar="PATH",
        help="also write the run as a JSONL observability artifact",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="write nothing; exit 1 if EXPERIMENTS.md is stale",
    )
    args = parser.parse_args(argv)

    import repro.experiments  # noqa: F401 - populates the registry

    to_run = args.only if args.only else list(ORDER)
    unknown = [eid for eid in to_run if eid not in ORDER]
    if unknown:
        print(f"unknown experiment id(s): {', '.join(unknown)}", file=sys.stderr)
        return 2

    runner = ExperimentRunner(observe=True, trace_path=args.trace)

    def progress(result, elapsed):
        print(f"{result.experiment_id} done in {elapsed:.1f}s")

    report = runner.run_many(to_run, on_result=progress, jobs=args.jobs)
    runner.write_trace(report, to_run, jobs=args.jobs)
    if not report.ok:
        for failure in report.failures:
            print(failure.render(), file=sys.stderr)
        return 1

    kept = existing_blocks(OUTPUT)
    fresh = {
        result.experiment_id: experiment_block(
            result,
            runner.captures[result.experiment_id].manifest,
            runner.captures[result.experiment_id].metrics,
        )
        for result in report.results
    }
    parts = [HEADER]
    for eid in ORDER:
        block = fresh.get(eid) or kept.get(eid)
        if block is None:
            print(f"warning: no block for {eid} (not run, not committed)",
                  file=sys.stderr)
            continue
        parts.append(block)
    text = "\n".join(parts)

    if args.check:
        try:
            with open(OUTPUT) as handle:
                committed = handle.read()
        except FileNotFoundError:
            committed = ""
        if committed == text:
            print(f"{OUTPUT} is current")
            return 0
        print(
            f"{OUTPUT} is stale; regenerate with "
            "`PYTHONPATH=src python scripts_generate_experiments_md.py`",
            file=sys.stderr,
        )
        return 1

    with open(OUTPUT, "w") as handle:
        handle.write(text)
    print(f"{OUTPUT} written")
    return 0


if __name__ == "__main__":
    sys.exit(main())
