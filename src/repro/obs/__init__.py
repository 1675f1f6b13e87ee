"""Observability layer: metrics registry, trace bus, manifests, reports.

The layer answers one question: *why does this number differ from
EXPERIMENTS.md?* — without rerunning under a debugger.  Four pieces:

* :mod:`repro.obs.catalog` / :mod:`repro.obs.registry` — a declared
  catalogue of counters, gauges, and fixed-bucket histograms that the
  cache hierarchy, schedulers, fault injector, and channel code publish
  into (hits/misses per level, LRU-state transitions, fault
  activations, dropped samples, ...);
* :mod:`repro.obs.tracebus` — ring-buffered span/event records
  (experiment → protocol run → sampling loop) so ``--trace`` costs
  O(depth) memory on runs of any length;
* :mod:`repro.obs.manifest` — the reproducibility record (seed,
  machines, engine, fault models, package version, git revision)
  written next to every result;
* :mod:`repro.obs.report` — ``python -m repro report run.jsonl``
  renders it all back into the exact markdown shape of EXPERIMENTS.md.

Everything is scoped through :mod:`repro.obs.session`: no active
session (the default) means every instrument site is a single ``None``
check with no call into this package, and results are bit-identical
either way (``tests/test_obs``).
"""

from repro.obs.catalog import (
    LATENCY_EDGES_CYCLES,
    METRIC_CATALOG,
    MetricSpec,
    catalog_markdown,
)
from repro.obs.manifest import RunManifest, git_revision
from repro.obs.registry import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.session import ObsSession, active, observe
from repro.obs.tracebus import TraceBus

#: Names served lazily from :mod:`repro.obs.report`.  That module
#: renders :class:`~repro.experiments.base.ExperimentResult` objects, and
#: the experiments package (transitively) builds on the instrumented
#: cache hierarchy — importing it here eagerly would close an import
#: cycle through ``repro.cache.hierarchy``.
_REPORT_EXPORTS = (
    "experiment_block",
    "metrics_summary_line",
    "read_records",
    "render_report",
    "update_catalog_doc",
)


def __getattr__(name):
    if name in _REPORT_EXPORTS:
        from repro.obs import report

        return getattr(report, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "LATENCY_EDGES_CYCLES",
    "METRIC_CATALOG",
    "MetricSpec",
    "catalog_markdown",
    "RunManifest",
    "git_revision",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "experiment_block",
    "metrics_summary_line",
    "read_records",
    "render_report",
    "update_catalog_doc",
    "ObsSession",
    "active",
    "observe",
    "TraceBus",
]
