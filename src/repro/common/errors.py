"""Exception hierarchy for the reproduction library.

Every exception raised intentionally by this package derives from
:class:`ReproError`, so callers can catch one base class.
"""


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class ConfigurationError(ReproError):
    """An invalid configuration value was supplied.

    Raised eagerly at construction time (for example, a cache whose size is
    not divisible by ``line_size * ways``) so that misconfiguration never
    produces silently-wrong simulation results.
    """


class SimulationError(ReproError):
    """The simulation reached an inconsistent or unsupported state.

    Examples: scheduling a thread that has already finished, or asking a
    replacement policy for a victim in an empty set when the policy expects
    the set to be full.
    """


class ProtocolError(ReproError):
    """A channel protocol was driven incorrectly.

    Examples: decoding before any bits were transmitted, or using a ``d``
    parameter outside the valid range for the cache associativity.
    """


class FaultInjectionError(ReproError):
    """A fault model was misconfigured or driven incorrectly.

    Examples: a negative event rate, a drop probability outside [0, 1],
    or using a model before it was bound to a machine.
    """


class ExperimentTimeout(ReproError):
    """An experiment exceeded its wall-clock budget.

    Raised (and caught) by the resilient runner; carries enough context
    in its message to identify the experiment and the budget it blew.
    """


class ExecutorError(ReproError):
    """The supervised executor cannot make progress.

    Raised when the batch as a whole is stuck — for example every worker
    slot has exhausted its respawn budget while tasks are still pending.
    Per-task problems never raise this; they become structured failures
    in the run report (see :class:`WorkerCrashed`).
    """


class WorkerCrashed(ExecutorError):
    """A worker process died (or was killed) while running a task.

    The supervised executor converts worker death into re-queues, and —
    after ``max_task_crashes`` consecutive crashes on the same task —
    into a structured quarantine failure whose ``error_type`` is this
    class's name.  It is also raised directly by test fixtures that
    assert on the crash path.
    """


class ServiceError(ReproError):
    """The experiment service was misused or cannot satisfy a request.

    Examples: serving on a port that is already bound, a client request
    that is not valid line-delimited JSON, or a response that exceeds
    the protocol's line-length bound.  Admission-control outcomes
    (rejected, shed, draining) are *not* errors — they are structured
    response statuses on the wire.
    """


class ClusterError(ReproError):
    """The cluster fabric was misconfigured or cannot route.

    Examples: a peers file with duplicate node names, a replication
    factor above the cluster size, or a ``--peers`` entry that does not
    parse as ``name=host:port``.  Per-peer transport failures are *not*
    this class — they are :class:`PeerUnavailable`, which the router's
    failover machinery treats as routine.
    """


class PeerUnavailable(ClusterError):
    """One peer could not serve one request attempt.

    Connect refusal, a deadline-bounded timeout, a mid-frame disconnect,
    or a malformed response line.  The router catches this and fails
    over to the next replica; it only surfaces to a client when every
    candidate peer failed.
    """


class CheckpointCorruptWarning(UserWarning):
    """Warning category for quarantined checkpoint/trace artifacts.

    The checkpoint loader never raises on corruption during a resume —
    it quarantines the file to ``<name>.corrupt``, warns with this
    category, and recomputes.  Callers that would rather hard-stop can
    escalate it (``warnings.simplefilter("error",
    CheckpointCorruptWarning)``).
    """


class InvariantViolation(SimulationError):
    """Replacement/cache/scheduler state broke a structural invariant.

    Raised by the sanitizer proxies (``repro.analysis``) at the exact
    state transition that corrupted the model — a Tree-PLRU bit leaving
    {0, 1}, true-LRU ages ceasing to be a permutation, a locked PL-cache
    line being evicted, a cycle charge going backwards — rather than
    three experiments later as a wrong BER number.

    Args:
        message: What invariant broke.
        invariant: Short identifier of the violated invariant
            (e.g. ``"true-lru-permutation"``).
        set_index: Cache set whose state is corrupt, when known.
        way: Offending way index, when known.
        trace: Tail of the access trace leading up to the violation,
            oldest first.
    """

    def __init__(
        self,
        message: str,
        invariant: str = "",
        set_index=None,
        way=None,
        trace=(),
    ):
        self.invariant = invariant
        self.set_index = set_index
        self.way = way
        self.trace = tuple(trace)
        where = []
        if set_index is not None:
            where.append(f"set={set_index}")
        if way is not None:
            where.append(f"way={way}")
        parts = [message]
        if invariant:
            parts.append(f"[{invariant}]")
        if where:
            parts.append(f"({', '.join(where)})")
        text = " ".join(parts)
        if self.trace:
            text += "\n  trace tail (oldest first):\n" + "\n".join(
                f"    {event}" for event in self.trace
            )
        super().__init__(text)


class ObservabilityError(ReproError):
    """The observability layer was misused or fed a malformed artifact.

    Examples: emitting a metric name absent from the catalogue in
    ``repro/obs/catalog.py``, non-monotonic histogram bucket edges, or
    a ``--trace`` JSONL file that does not parse.
    """


class LeakageAnalysisError(ReproError):
    """Exact static leakage analysis was requested on an unclosed model.

    The analyzer in ``repro.analysis.leakage`` is exact only over
    eagerly-closed :class:`~repro.replacement.tables.PolicyTables`; a
    lazily-grown table set enumerates just the states some workload
    happened to visit, and any "analysis" over it would silently
    under-count.  Rather than degrade, the analyzer refuses with this
    error, carrying the policy shape and the estimated state count so
    the caller can either raise the eager budget or accept the refusal
    as a structured result.
    """

    def __init__(
        self,
        message: str,
        policy: str = "",
        ways: int = 0,
        estimated_states=None,
        eager_budget=None,
    ):
        self.policy = policy
        self.ways = ways
        self.estimated_states = estimated_states
        self.eager_budget = eager_budget
        super().__init__(message)


class LintError(ReproError):
    """One or more static-invariant lint findings, as a raisable summary.

    Carries the structured findings so programmatic callers (the pytest
    hook, CI wrappers) can render ``file:line`` diagnostics instead of a
    bare boolean.
    """

    def __init__(self, findings):
        self.findings = list(findings)
        lines = [f"{len(self.findings)} lint finding(s):"]
        lines += [finding.render() for finding in self.findings]
        super().__init__("\n".join(lines))
