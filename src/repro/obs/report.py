"""Report generator: JSONL run traces → self-documenting markdown.

``python -m repro run <id> --trace run.jsonl`` leaves behind a stream of
typed records (run header, per-experiment manifest/result/metrics, trace
events); ``python -m repro report run.jsonl`` renders them back into
markdown whose experiment blocks are *byte-identical* to the blocks in
EXPERIMENTS.md — both go through :func:`experiment_block` — so a result
artifact can always be compared against the committed doc, and
EXPERIMENTS.md itself is regenerated through this module
(``scripts_generate_experiments_md.py``).
"""

from __future__ import annotations

import json
import warnings
from typing import Dict, List, Optional, Sequence

from repro.common.atomicio import quarantine_file, unseal_jsonl
from repro.common.errors import CheckpointCorruptWarning, ObservabilityError
from repro.common.gendoc import update_generated_section
from repro.experiments.base import ExperimentResult
from repro.obs.catalog import catalog_markdown
from repro.obs.manifest import RunManifest

#: Counters folded into the one-line metrics summary under each block,
#: in render order.  Labelled counters are summed across labels.
SUMMARY_COUNTERS = (
    "cache.l1.hits",
    "cache.l1.misses",
    "cache.l2.hits",
    "cache.l2.misses",
    "cache.llc.hits",
    "cache.llc.misses",
    "cache.memory.fetches",
    "cache.evictions",
    "cache.flushes",
    "replacement.transitions",
    "sched.ops",
    "sched.slices",
    "sched.fault_stall_cycles",
    "faults.activations",
    "faults.samples.dropped",
    "faults.samples.duplicated",
    "channel.bits.sent",
    "channel.observations",
    "channel.decoded.bits",
    "runner.retries",
    "trace.events.dropped",
)

#: Markers bracketing the generated catalogue table in
#: docs/OBSERVABILITY.md.
CATALOG_BEGIN = "<!-- metrics-catalog:begin (generated; edit catalog.py) -->"
CATALOG_END = "<!-- metrics-catalog:end -->"


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _counter_total(value):
    """A counter snapshot entry is a scalar or a {label: value} map."""
    if isinstance(value, dict):
        return sum(value.values())
    return value


def metrics_summary_line(metrics: Optional[Dict]) -> str:
    """The deterministic one-line digest under an experiment block."""
    if metrics:
        counters = metrics.get("counters", {})
        parts = []
        for name in SUMMARY_COUNTERS:
            total = _counter_total(counters.get(name, 0))
            if total:
                parts.append(f"{name}={_fmt(total)}")
        if parts:
            return "_metrics: " + " · ".join(parts) + "_"
    return "_metrics: none recorded_"


def experiment_block(
    result: ExperimentResult,
    manifest: Optional[RunManifest] = None,
    metrics: Optional[Dict] = None,
) -> str:
    """One EXPERIMENTS.md-shaped block for a result and its run record.

    This is the single formatting path shared by the EXPERIMENTS.md
    generator and ``python -m repro report``: identical inputs render
    identical bytes, which is what makes "the trace regenerates the doc
    block verbatim" checkable.
    """
    lines = [
        f"### {result.experiment_id}",
        "",
        "```",
        result.render(),
        "```",
        "",
    ]
    if manifest is not None:
        lines.append(manifest.footer_line())
    lines.append(metrics_summary_line(metrics))
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# JSONL reading
# ----------------------------------------------------------------------


def read_records(path: str) -> List[Dict]:
    """Parse one ``--trace`` JSONL file into its record dictionaries.

    The file must end in the ``trace-footer`` record whose checksum
    covers every preceding byte; :func:`~repro.common.atomicio.unseal_jsonl`
    verifies it and strips it from the returned records.  A trace that
    fails — truncated tail, flipped bit, missing footer — is quarantined
    to ``<path>.corrupt`` and the read raises, so a corrupt artifact is
    never rendered as if it were trustworthy.
    """
    try:
        with open(path) as handle:
            text = handle.read()
    except UnicodeDecodeError as error:
        # A bit flip can corrupt the UTF-8 encoding itself.
        raise _corrupt_trace(path, f"not valid UTF-8 ({error})") from error
    try:
        body = unseal_jsonl(text)
    except ValueError as error:
        raise _corrupt_trace(path, str(error)) from None
    records = []
    for lineno, line in enumerate(body.splitlines(), start=1):
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as error:
            raise _corrupt_trace(
                path, f"not valid JSONL ({error})", where=f"{path}:{lineno}"
            ) from error
    if not records:
        raise ObservabilityError(f"{path}: empty trace file")
    return records


def _corrupt_trace(
    path: str, reason: str, where: Optional[str] = None
) -> ObservabilityError:
    """Quarantine a trace that failed its checks, warn, return the error."""
    corrupt_path = quarantine_file(path)
    fate = (
        f"quarantined to {corrupt_path}"
        if corrupt_path
        else "could not be quarantined"
    )
    warnings.warn(
        f"trace {path} failed integrity checks ({reason}); {fate}",
        CheckpointCorruptWarning,
        stacklevel=3,
    )
    return ObservabilityError(f"{where or path}: {reason}; {fate}")


class RunRecords:
    """Typed view over one trace file's records."""

    def __init__(self, records: Sequence[Dict]):
        self.header: Optional[Dict] = None
        self.manifests: Dict[str, RunManifest] = {}
        self.results: Dict[str, ExperimentResult] = {}
        self.metrics: Dict[str, Dict] = {}
        self.events: List[Dict] = []
        self.order: List[str] = []
        for record in records:
            kind = record.get("type")
            if kind == "run" and self.header is None:
                self.header = record
            elif kind == "manifest":
                manifest = RunManifest.from_dict(record)
                self.manifests[manifest.experiment_id] = manifest
            elif kind == "result":
                experiment_id = record["experiment_id"]
                self.results[experiment_id] = ExperimentResult.from_dict(
                    record["result"]
                )
                if experiment_id not in self.order:
                    self.order.append(experiment_id)
            elif kind == "metrics":
                self.metrics[record["experiment_id"]] = record["metrics"]
            elif kind in ("event", "span_start", "span_end"):
                self.events.append(record)


# ----------------------------------------------------------------------
# Full report rendering
# ----------------------------------------------------------------------


def _histogram_lines(name: str, data: Dict) -> List[str]:
    edges = data.get("edges", [])
    counts = data.get("counts", [])
    cells = []
    for i, count in enumerate(counts):
        if not count:
            continue
        label = f"≤{_fmt(edges[i])}" if i < len(edges) else f">{_fmt(edges[-1])}"
        cells.append(f"{label}: {count}")
    mean = data["sum"] / data["count"] if data.get("count") else 0.0
    return [
        f"- `{name}` — {data.get('count', 0)} observations, "
        f"mean {_fmt(mean)} cycles",
        f"  - buckets: {', '.join(cells) if cells else 'empty'}",
    ]


def _metrics_detail(metrics: Dict) -> List[str]:
    lines: List[str] = []
    counters = metrics.get("counters", {})
    if counters:
        lines.append("| Counter | Series | Value |")
        lines.append("|---|---|---|")
        for name in sorted(counters):
            value = counters[name]
            if isinstance(value, dict):
                for label in sorted(value):
                    lines.append(f"| `{name}` | {label} | {_fmt(value[label])} |")
            else:
                lines.append(f"| `{name}` | — | {_fmt(value)} |")
        lines.append("")
    gauges = metrics.get("gauges", {})
    for name in sorted(gauges):
        lines.append(f"- gauge `{name}` = {_fmt(gauges[name])}")
    if gauges:
        lines.append("")
    for name in sorted(metrics.get("histograms", {})):
        lines.extend(_histogram_lines(name, metrics["histograms"][name]))
        lines.append("")
    return lines


def _events_section(events: List[Dict], tail: int = 40) -> List[str]:
    lines: List[str] = []
    by_name: Dict[str, int] = {}
    for record in events:
        key = f"{record.get('type')}:{record.get('name', '?')}"
        by_name[key] = by_name.get(key, 0) + 1
    lines.append("| Record | Count |")
    lines.append("|---|---|")
    for key in sorted(by_name):
        lines.append(f"| `{key}` | {by_name[key]} |")
    lines.append("")
    lines.append(f"Last {min(tail, len(events))} records:")
    lines.append("")
    lines.append("```")
    for record in events[-tail:]:
        lines.append(json.dumps(record, sort_keys=True))
    lines.append("```")
    return lines


def render_report(records: Sequence[Dict]) -> str:
    """Render one trace file as a full markdown report."""
    run = RunRecords(records)
    parts: List[str] = []
    ids = run.order or sorted(run.manifests)
    parts.append(f"# Run report — {', '.join(ids) if ids else 'no results'}")
    parts.append("")
    header = run.header or {}
    provenance = [
        f"repro {header.get('package_version', '?')}",
        f"git {header.get('git_rev', 'unknown')}",
        f"python {header.get('python_version', '?')}",
        f"engine {header.get('engine', 'reference')}",
        f"jobs {header.get('jobs', 1)}",
        f"sanitize {'on' if header.get('sanitize') else 'off'}",
    ]
    parts.append("_provenance: " + " · ".join(provenance) + "_")
    parts.append("")
    executor = header.get("executor")
    if executor:
        recovery = [
            f"crashed {executor.get('workers_crashed', 0)}",
            f"requeued {executor.get('tasks_requeued', 0)}",
            f"quarantined {executor.get('tasks_quarantined', 0)}",
            f"deadline-kills {executor.get('workers_killed_deadline', 0)}",
            f"heartbeat-kills {executor.get('workers_killed_heartbeat', 0)}",
        ]
        parts.append("_executor: " + " · ".join(recovery) + "_")
        parts.append("")
    parts.append("## Experiment blocks")
    parts.append("")
    for experiment_id in ids:
        result = run.results.get(experiment_id)
        if result is None:
            continue
        parts.append(
            experiment_block(
                result,
                run.manifests.get(experiment_id),
                run.metrics.get(experiment_id),
            )
        )
    if run.metrics:
        parts.append("## Metrics detail")
        parts.append("")
        for experiment_id in ids:
            metrics = run.metrics.get(experiment_id)
            if not metrics:
                continue
            parts.append(f"### metrics — {experiment_id}")
            parts.append("")
            parts.extend(_metrics_detail(metrics))
    if run.events:
        parts.append("## Trace records")
        parts.append("")
        parts.extend(_events_section(run.events))
        parts.append("")
    return "\n".join(parts)


# ----------------------------------------------------------------------
# Generated catalogue section in docs/OBSERVABILITY.md
# ----------------------------------------------------------------------


def update_catalog_doc(path: str, check: bool = False) -> bool:
    """Regenerate the catalogue table inside ``path``.

    Returns True when the doc was already current.  With ``check`` the
    file is never written (the CI docs-drift gate calls it this way).
    """
    return update_generated_section(
        path, CATALOG_BEGIN, CATALOG_END, catalog_markdown(),
        check=check, error=ObservabilityError,
    )
