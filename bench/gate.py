"""Correctness gate: committed results the benchmark's outputs must match.

The goldens live outside the benchmark, in files the repository already
keeps current: the experiment blocks of ``EXPERIMENTS.md`` and the
static-analysis entries of ``benchmarks/LEAKAGE_baseline.json``.  A
change that deliberately alters results regenerates those files, and
the gate follows without an edit to the benchmark.
"""

from __future__ import annotations

import json
import os
import re
from typing import Dict, List, Optional, Sequence

from repro.experiments.base import ExperimentResult


def parse_experiments_md(path: str) -> Dict[str, Dict]:
    """Experiment id -> {"text", "rows", "run", "metrics"} from EXPERIMENTS.md.

    ``text`` is the rendered table between the code fences, ``rows`` its
    data rows split into whitespace tokens, ``run``/``metrics`` the
    footer lines under the block.
    """
    with open(path) as handle:
        lines = handle.read().splitlines()
    blocks: Dict[str, Dict] = {}
    index = 0
    while index < len(lines):
        line = lines[index]
        if line.startswith("### ") and index + 2 < len(lines) and lines[index + 2] == "```":
            experiment_id = line[4:].strip()
            end = lines.index("```", index + 3)
            body = lines[index + 3:end]
            footer = lines[end + 1:end + 5]
            blocks[experiment_id] = {
                "text": "\n".join(body),
                "rows": [
                    row.split()
                    for row in body[3:]
                    if not row.startswith(("paper:", "notes:"))
                ],
                "run": next((f for f in footer if f.startswith("_run:")), ""),
                "metrics": next(
                    (f for f in footer if f.startswith("_metrics:")), ""
                ),
            }
            index = end
        index += 1
    return blocks


def row_tokens(row: Sequence) -> List[str]:
    """One result row as ``ExperimentResult.render`` prints it, tokenized."""
    rendered = ExperimentResult("x", "x", ["c"] * len(row), [list(row)]).render()
    return rendered.splitlines()[3].split()


def check_row(
    committed: Dict[str, Dict],
    experiment_id: str,
    row: Sequence,
    key_tokens: int,
) -> Optional[str]:
    """None when ``row`` equals the committed row with the same key."""
    tokens = row_tokens(row)
    for candidate in committed[experiment_id]["rows"]:
        if candidate[:key_tokens] == tokens[:key_tokens]:
            if candidate == tokens:
                return None
            return (
                f"{experiment_id} row {' '.join(tokens[:key_tokens])}: "
                f"got {tokens[key_tokens:]}, committed {candidate[key_tokens:]}"
            )
    return f"{experiment_id}: no committed row with key {tokens[:key_tokens]}"


def check_result(committed: Dict[str, Dict], result: Dict) -> Optional[str]:
    """None when a whole experiment payload renders as its committed table."""
    experiment_id = result.get("experiment_id", "")
    if experiment_id not in committed:
        return f"{experiment_id!r} has no committed EXPERIMENTS.md block"
    if ExperimentResult.from_dict(result).render() != committed[experiment_id]["text"]:
        return f"{experiment_id}: table differs from EXPERIMENTS.md"
    return None


#: Engine names in a ``_run:`` footer, the one part allowed to differ:
#: the committed blocks were made on the reference engine, and the fast
#: engine is bit-identical to it, counters included.
_ENGINE = re.compile(r"\((?:reference|fast|batch)\)")


def check_footers(committed: Dict[str, Dict], experiment_ids: Sequence[str]) -> List[str]:
    """Errors where an observed rerun's blocks differ from EXPERIMENTS.md.

    Runs each experiment whole under ``ExperimentRunner(observe=True)``
    and compares its table, its ``_run:`` manifest footer (engine names
    aside) and its ``_metrics:`` counter digest with the committed block.
    """
    from repro.experiments.runner import ExperimentRunner
    from repro.obs.report import metrics_summary_line

    runner = ExperimentRunner(retries=0, observe=True)
    report = runner.run_many(list(experiment_ids))
    errors = [failure.render() for failure in report.failures]
    for result in report.results:
        experiment_id = result.experiment_id
        capture = runner.captures[experiment_id]
        block = committed[experiment_id]
        error = check_result(committed, result.to_dict())
        if error:
            errors.append(error)
        if _ENGINE.sub("()", capture.manifest.footer_line()) != _ENGINE.sub("()", block["run"]):
            errors.append(f"{experiment_id}: _run: footer differs from EXPERIMENTS.md")
        if metrics_summary_line(capture.metrics) != block["metrics"]:
            errors.append(f"{experiment_id}: _metrics: digest differs from EXPERIMENTS.md")
    return errors


def leakage_baseline(path: str) -> Dict[tuple, Dict]:
    """(policy, ways, defense) -> committed analysis entry."""
    if not os.path.exists(path):
        return {}
    with open(path) as handle:
        data = json.load(handle)
    return {
        (entry["policy"], entry["ways"], entry["defense"]): entry
        for entry in data["entries"]
    }


def canonical(value) -> str:
    """The byte form two results are compared in."""
    return json.dumps(value, sort_keys=True)
