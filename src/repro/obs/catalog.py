"""The metrics catalogue: every metric this package may emit.

Observability only pays for itself if the numbers are trustworthy, and
the first way metric systems rot is name drift — a module emits
``cache.l1_hits`` while the dashboard reads ``cache.l1.hits`` and both
sides silently show zero.  This catalogue is the single source of truth:
a :class:`~repro.obs.registry.MetricsRegistry` refuses names that are
not declared here, the ``metric-registered`` lint rule rejects source
code that emits undeclared literals, and the generated table in
``docs/OBSERVABILITY.md`` is rendered from this module
(``python -m repro report --catalog``), so code, registry, and docs
cannot disagree.

Units are cycles or plain event counts — never wall-clock seconds; the
simulator's observable quantities all live on the cycle clock (the
paper's hit/miss latencies, transition counts, and error events are all
cycle-domain).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

#: Fixed histogram bucket upper edges for access latencies, in cycles.
#: Chosen around the platform latency landmarks (L1 4, L2 12-20, LLC
#: ~40, memory 200, clflush 250) so hit/miss populations land in
#: distinct buckets on every MachineSpec; the final bucket is overflow.
LATENCY_EDGES_CYCLES: Tuple[float, ...] = (
    4.0,
    8.0,
    12.0,
    16.0,
    24.0,
    32.0,
    48.0,
    64.0,
    96.0,
    128.0,
    192.0,
    256.0,
    384.0,
    512.0,
)


@dataclass(frozen=True)
class MetricSpec:
    """Declaration of one metric.

    Attributes:
        name: Dotted metric name (``domain.object.event``).
        kind: ``"counter"``, ``"gauge"``, or ``"histogram"``.
        unit: What one increment/observation means (``accesses``,
            ``cycles``, ``events`` ...).
        module: The emitting module (where the instrument lives).
        description: One-line meaning, rendered into the docs table.
        labelled: Whether series are split by a label (e.g. per
            replacement-policy name); unlabelled metrics are single
            scalars.
    """

    name: str
    kind: str
    unit: str
    module: str
    description: str
    labelled: bool = False


def _spec(
    name: str,
    kind: str,
    unit: str,
    module: str,
    description: str,
    labelled: bool = False,
) -> Tuple[str, MetricSpec]:
    return name, MetricSpec(name, kind, unit, module, description, labelled)


#: Every metric the package may emit, keyed by name.  The
#: ``metric-registered`` lint rule reads this mapping, so additions here
#: are what authorize new emission sites.
METRIC_CATALOG: Dict[str, MetricSpec] = dict(
    [
        _spec(
            "cache.l1.hits",
            "counter",
            "accesses",
            "repro.cache.hierarchy",
            "Demand accesses that hit in the L1 data cache.",
        ),
        _spec(
            "cache.l1.misses",
            "counter",
            "accesses",
            "repro.cache.hierarchy",
            "Demand accesses that missed the L1 data cache.",
        ),
        _spec(
            "cache.l2.hits",
            "counter",
            "accesses",
            "repro.cache.hierarchy",
            "L1-miss accesses that hit in the L2 cache.",
        ),
        _spec(
            "cache.l2.misses",
            "counter",
            "accesses",
            "repro.cache.hierarchy",
            "Accesses that missed both L1 and L2.",
        ),
        _spec(
            "cache.llc.hits",
            "counter",
            "accesses",
            "repro.cache.hierarchy",
            "L2-miss accesses that hit in the LLC (three-level specs only).",
        ),
        _spec(
            "cache.llc.misses",
            "counter",
            "accesses",
            "repro.cache.hierarchy",
            "Accesses that missed every cache level (three-level specs only).",
        ),
        _spec(
            "cache.memory.fetches",
            "counter",
            "accesses",
            "repro.cache.hierarchy",
            "Demand accesses served by main memory.",
        ),
        _spec(
            "cache.fills",
            "counter",
            "lines",
            "repro.cache.hierarchy",
            "Lines installed into a cache level, labelled by level name.",
            labelled=True,
        ),
        _spec(
            "cache.evictions",
            "counter",
            "lines",
            "repro.cache.hierarchy",
            "Valid lines displaced by a fill, labelled by the evicting "
            "level's replacement policy.",
            labelled=True,
        ),
        _spec(
            "cache.flushes",
            "counter",
            "accesses",
            "repro.cache.hierarchy",
            "clflush operations sent through the hierarchy.",
        ),
        _spec(
            "access.latency",
            "histogram",
            "cycles",
            "repro.cache.hierarchy",
            "Observed latency of every counted demand access "
            "(fixed bucket edges, see LATENCY_EDGES_CYCLES).",
        ),
        _spec(
            "replacement.transitions",
            "counter",
            "transitions",
            "repro.cache.hierarchy",
            "Replacement-state updates (hit touches and fill touches), "
            "labelled by policy name — the LRU-state transition stream "
            "of Table I.",
            labelled=True,
        ),
        _spec(
            "sched.ops",
            "counter",
            "operations",
            "repro.sim.scheduler",
            "Thread operations executed by a scheduler (accesses, "
            "computes, TSC reads, sleeps).",
        ),
        _spec(
            "sched.slices",
            "counter",
            "slices",
            "repro.sim.scheduler",
            "Scheduling quanta granted by the time-sliced scheduler "
            "(context-switch boundaries).",
        ),
        _spec(
            "sched.fault_stall_cycles",
            "counter",
            "cycles",
            "repro.sim.scheduler",
            "Fault-handler cycles charged to threads waking from a sleep "
            "window that covered the fault event.",
        ),
        _spec(
            "faults.activations",
            "counter",
            "events",
            "repro.faults.base",
            "Fault-model events fired, labelled by model name.",
            labelled=True,
        ),
        _spec(
            "faults.stolen_cycles",
            "counter",
            "cycles",
            "repro.faults.base",
            "Core cycles consumed by fault-event handlers, labelled by "
            "model name.",
            labelled=True,
        ),
        _spec(
            "faults.samples.dropped",
            "counter",
            "samples",
            "repro.faults.base",
            "Receiver observations removed by sample-stream fault models.",
        ),
        _spec(
            "faults.samples.duplicated",
            "counter",
            "samples",
            "repro.faults.base",
            "Extra copies of receiver observations inserted by "
            "sample-stream fault models.",
        ),
        _spec(
            "channel.bits.sent",
            "counter",
            "bits",
            "repro.channels.protocol",
            "Message bits the covert-channel sender started encoding.",
        ),
        _spec(
            "channel.observations",
            "counter",
            "samples",
            "repro.channels.protocol",
            "Timed samples recorded by the covert-channel receiver "
            "(after fault-model filtering).",
        ),
        _spec(
            "channel.threshold",
            "gauge",
            "cycles",
            "repro.channels.protocol",
            "Hit/miss decision threshold of the most recent protocol run.",
        ),
        _spec(
            "channel.decoded.bits",
            "counter",
            "bits",
            "repro.channels.decoder",
            "Bits produced by the symbol decoders (run-length, window, "
            "moving-average).",
        ),
        _spec(
            "executor.workers.crashed",
            "counter",
            "workers",
            "repro.experiments.supervisor",
            "Worker processes that died or were hard-killed (deadline "
            "or heartbeat breach) while owning a task.",
        ),
        _spec(
            "executor.tasks.requeued",
            "counter",
            "tasks",
            "repro.experiments.supervisor",
            "Tasks put back on the queue after losing their worker.",
        ),
        _spec(
            "executor.tasks.quarantined",
            "counter",
            "tasks",
            "repro.experiments.supervisor",
            "Poison tasks converted to structured failures after "
            "max_task_crashes consecutive worker crashes.",
        ),
        _spec(
            "checkpoint.corrupt.detected",
            "counter",
            "files",
            "repro.experiments.runner",
            "Durable artifacts that failed integrity checks at load and "
            "were quarantined to <name>.corrupt.",
        ),
        _spec(
            "runner.jobs.oversubscribed",
            "counter",
            "batches",
            "repro.experiments.runner",
            "run_many batches launched with an explicit jobs count above "
            "os.cpu_count(); the value is honoured but flagged.",
        ),
        _spec(
            "batch.trials",
            "counter",
            "trials",
            "repro.sim.batch",
            "Independent channel trials completed by the vectorized "
            "batch engine.",
        ),
        _spec(
            "batch.steps",
            "counter",
            "trial-steps",
            "repro.sim.batch",
            "Cache accesses executed by the batch engine, summed over "
            "the trial axis (steps x trials).",
        ),
        _spec(
            "batch.fallback.open_table",
            "counter",
            "trial-steps",
            "repro.sim.batch",
            "Batch-engine accesses served by the scalar per-trial "
            "fallback because the policy's table is open (lazily "
            "grown), e.g. true LRU at 16 ways.",
        ),
        _spec(
            "service.requests.admitted",
            "counter",
            "requests",
            "repro.service.server",
            "Client requests that passed admission control and were "
            "queued for execution.",
        ),
        _spec(
            "service.requests.rejected",
            "counter",
            "requests",
            "repro.service.server",
            "Client requests refused by token-bucket admission control "
            "(429-style; the response carries retry_after_ms).",
        ),
        _spec(
            "service.requests.shed",
            "counter",
            "requests",
            "repro.service.server",
            "Admitted requests dropped because the target pool's bounded "
            "queue was full (backpressure).",
        ),
        _spec(
            "service.requests.defended",
            "counter",
            "requests",
            "repro.service.server",
            "Admitted run requests that named a defense design "
            "(labelled by design); the channel runs against the "
            "defended machine instead of a registered experiment.",
            labelled=True,
        ),
        _spec(
            "service.requests.failed",
            "counter",
            "requests",
            "repro.service.server",
            "Requests answered with an error naming why no result was "
            "produced (labelled by error type: CircuitOpen, "
            "ExperimentTimeout, WorkerCrashed, or what the experiment "
            "raised).",
            labelled=True,
        ),
        _spec(
            "service.breaker.state",
            "gauge",
            "state",
            "repro.service.server",
            "Circuit-breaker state per worker pool (0=closed, "
            "1=half-open, 2=open), labelled by pool name.",
            labelled=True,
        ),
        _spec(
            "service.cache.hit",
            "counter",
            "requests",
            "repro.service.cache",
            "Requests served bit-identically from the manifest-keyed "
            "result cache.",
        ),
        _spec(
            "service.cache.miss",
            "counter",
            "requests",
            "repro.service.cache",
            "Cache lookups that found no (valid) entry for the request "
            "key.",
        ),
        _spec(
            "service.cache.corrupt",
            "counter",
            "files",
            "repro.service.cache",
            "Cache entries that failed their checksum at load and were "
            "quarantined to <name>.corrupt.",
        ),
        _spec(
            "analysis.leakage.requests",
            "counter",
            "requests",
            "repro.service.server",
            "Service `analyze` requests accepted for static leakage "
            "analysis (before cache lookup).",
        ),
        _spec(
            "analysis.leakage.computed",
            "counter",
            "analyses",
            "repro.service.server",
            "Leakage analyses computed from the policy tables (cache "
            "misses), labelled by policy name.",
            labelled=True,
        ),
        _spec(
            "analysis.leakage.refused",
            "counter",
            "requests",
            "repro.service.server",
            "Leakage analyses refused because the policy shape's state "
            "space exceeds the eager budget (open tables).",
        ),
        _spec(
            "cluster.requests.routed",
            "counter",
            "requests",
            "repro.cluster.router",
            "Client requests the router answered, labelled by the peer "
            "node that served the winning response.",
            labelled=True,
        ),
        _spec(
            "cluster.requests.failover",
            "counter",
            "requests",
            "repro.cluster.router",
            "Request attempts moved to another replica after a peer "
            "refusal, execution error, timeout, or disconnect.",
        ),
        _spec(
            "cluster.peer.failures",
            "counter",
            "failures",
            "repro.cluster.router",
            "Transport-level failures (connect refusal, timeout, "
            "mid-frame disconnect) talking to a peer, labelled by peer "
            "name; these feed the per-peer circuit breakers.",
            labelled=True,
        ),
        _spec(
            "cluster.peer.health",
            "gauge",
            "state",
            "repro.cluster.health",
            "Per-peer circuit-breaker state as seen by the router "
            "(0=closed, 1=half-open, 2=open), labelled by peer name.",
            labelled=True,
        ),
        _spec(
            "cluster.requests.forwarded",
            "counter",
            "requests",
            "repro.service.server",
            "Requests this node served that arrived through the cluster "
            "router (the wire payload carried forwarded=true).",
        ),
        _spec(
            "trace.events.dropped",
            "counter",
            "events",
            "repro.obs.tracebus",
            "Trace records that fell out of the ring buffer "
            "(oldest-first) because the run outlived its depth.",
        ),
    ]
)


def catalog_markdown() -> str:
    """The catalogue as a markdown table (the docs' generated section)."""
    lines = [
        "| Metric | Type | Unit | Labels | Emitting module | Description |",
        "|---|---|---|---|---|---|",
    ]
    for name in sorted(METRIC_CATALOG):
        spec = METRIC_CATALOG[name]
        label = "per series" if spec.labelled else "—"
        lines.append(
            f"| `{spec.name}` | {spec.kind} | {spec.unit} | {label} "
            f"| `{spec.module}` | {spec.description} |"
        )
    return "\n".join(lines)
