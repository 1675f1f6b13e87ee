"""Pre-bound metric handle bundles for the instrumented subsystems.

Each ``for_*`` factory returns ``None`` when no observability session is
active, so an instrumented module's hot path is exactly::

    self._obs = for_hierarchy(active(), config)   # at construction
    ...
    if self._obs is not None:                      # per event
        self._obs.l1_hits.inc()

All metric *names* are emitted here (and validated against the
catalogue both at runtime by the registry and statically by the
``metric-registered`` lint rule); the instrumented modules only ever
touch pre-fetched handles, so renaming a metric is a one-file change.
"""

from __future__ import annotations

from typing import Optional

from repro.obs.session import ObsSession


class HierarchyInstruments:
    """Handles the cache hierarchy bumps on its access path.

    The ``record_*`` composites mirror the hierarchy's four access
    outcomes; keeping them here (rather than inline in
    ``repro.cache.hierarchy``) leaves the simulator's control flow
    untouched and gives the disabled path a single ``is None`` check.
    """

    __slots__ = (
        "l1_hits",
        "l1_misses",
        "l2_hits",
        "l2_misses",
        "llc_hits",
        "llc_misses",
        "memory_fetches",
        "flushes",
        "latency",
        "l1_fills",
        "l2_fills",
        "llc_fills",
        "l1_evictions",
        "l2_evictions",
        "llc_evictions",
        "l1_transitions",
        "l2_transitions",
        "llc_transitions",
        "_l1_hit_touch",
        "_l2_hit_touch",
        "_llc_hit_touch",
    )

    def __init__(self, session: ObsSession, config) -> None:
        metrics = session.metrics
        self.l1_hits = metrics.counter("cache.l1.hits")
        self.l1_misses = metrics.counter("cache.l1.misses")
        self.l2_hits = metrics.counter("cache.l2.hits")
        self.l2_misses = metrics.counter("cache.l2.misses")
        self.llc_hits = metrics.counter("cache.llc.hits")
        self.llc_misses = metrics.counter("cache.llc.misses")
        self.memory_fetches = metrics.counter("cache.memory.fetches")
        self.flushes = metrics.counter("cache.flushes")
        self.latency = metrics.histogram("access.latency")
        self.l1_fills = metrics.counter("cache.fills", label=config.l1.name)
        self.l2_fills = metrics.counter("cache.fills", label=config.l2.name)
        self.l1_evictions = metrics.counter(
            "cache.evictions", label=config.l1.policy
        )
        self.l2_evictions = metrics.counter(
            "cache.evictions", label=config.l2.policy
        )
        self.l1_transitions = metrics.counter(
            "replacement.transitions", label=config.l1.policy
        )
        self.l2_transitions = metrics.counter(
            "replacement.transitions", label=config.l2.policy
        )
        if config.llc is not None:
            self.llc_fills = metrics.counter(
                "cache.fills", label=config.llc.name
            )
            self.llc_evictions = metrics.counter(
                "cache.evictions", label=config.llc.policy
            )
            self.llc_transitions = metrics.counter(
                "replacement.transitions", label=config.llc.policy
            )
        else:
            self.llc_fills = None
            self.llc_evictions = None
            self.llc_transitions = None
        self._l1_hit_touch = config.l1.update_lru_on_hit
        self._l2_hit_touch = config.l2.update_lru_on_hit
        self._llc_hit_touch = (
            config.llc.update_lru_on_hit if config.llc is not None else False
        )

    # -- per-level fills (shared by demand and prefetch paths) ---------

    def fill_l1(self, evicted) -> None:
        self.l1_fills.inc()
        self.l1_transitions.inc()
        if evicted is not None:
            self.l1_evictions.inc()

    def fill_l2(self, evicted) -> None:
        self.l2_fills.inc()
        self.l2_transitions.inc()
        if evicted is not None:
            self.l2_evictions.inc()

    def fill_llc(self, evicted) -> None:
        self.llc_fills.inc()
        self.llc_transitions.inc()
        if evicted is not None:
            self.llc_evictions.inc()

    # -- demand-access outcomes ----------------------------------------

    def record_l1_hit(self, latency, count) -> None:
        if count:
            self.l1_hits.inc()
            self.latency.observe(latency)
        if self._l1_hit_touch:
            self.l1_transitions.inc()

    def record_l1_hits(self, latency, n) -> None:
        """``n`` consecutive counted L1 hits: ``n`` ``record_l1_hit`` calls."""
        self.l1_hits.inc(n)
        self.latency.observe_many(latency, n)
        if self._l1_hit_touch:
            self.l1_transitions.inc(n)

    def record_l2_hit(self, latency, count, l1_evicted) -> None:
        if count:
            self.l1_misses.inc()
            self.l2_hits.inc()
            self.latency.observe(latency)
        if self._l2_hit_touch:
            self.l2_transitions.inc()
        self.fill_l1(l1_evicted)

    def record_llc_hit(self, latency, count, l1_evicted, l2_evicted) -> None:
        if count:
            self.l1_misses.inc()
            self.l2_misses.inc()
            self.llc_hits.inc()
            self.latency.observe(latency)
        if self._llc_hit_touch:
            self.llc_transitions.inc()
        self.fill_l2(l2_evicted)
        self.fill_l1(l1_evicted)

    def record_memory_fetch(
        self, latency, count, l1_evicted, l2_evicted, llc_evicted, had_llc
    ) -> None:
        if count:
            self.l1_misses.inc()
            self.l2_misses.inc()
            if had_llc:
                self.llc_misses.inc()
            self.memory_fetches.inc()
            self.latency.observe(latency)
        if had_llc:
            self.fill_llc(llc_evicted)
        self.fill_l2(l2_evicted)
        self.fill_l1(l1_evicted)

    def record_flush(self) -> None:
        self.flushes.inc()


def for_hierarchy(
    session: Optional[ObsSession], config
) -> Optional[HierarchyInstruments]:
    return None if session is None else HierarchyInstruments(session, config)


class SchedulerInstruments:
    """Handles the schedulers bump while executing thread programs."""

    __slots__ = ("ops", "slices", "fault_stall_cycles")

    def __init__(self, session: ObsSession) -> None:
        metrics = session.metrics
        self.ops = metrics.counter("sched.ops")
        self.slices = metrics.counter("sched.slices")
        self.fault_stall_cycles = metrics.counter("sched.fault_stall_cycles")


def for_scheduler(
    session: Optional[ObsSession],
) -> Optional[SchedulerInstruments]:
    return None if session is None else SchedulerInstruments(session)


class InjectorInstruments:
    """Handles for the fault injector's sample-stream accounting."""

    __slots__ = ("samples_dropped", "samples_duplicated", "_session")

    def __init__(self, session: ObsSession) -> None:
        metrics = session.metrics
        self.samples_dropped = metrics.counter("faults.samples.dropped")
        self.samples_duplicated = metrics.counter("faults.samples.duplicated")
        self._session = session

    def for_model(self, name: str) -> "FaultModelInstruments":
        return FaultModelInstruments(self._session, name)


class FaultModelInstruments:
    """Per-model activation handles, labelled by the model's name."""

    __slots__ = ("activations", "stolen_cycles")

    def __init__(self, session: ObsSession, name: str) -> None:
        metrics = session.metrics
        self.activations = metrics.counter("faults.activations", label=name)
        self.stolen_cycles = metrics.counter("faults.stolen_cycles", label=name)


def for_injector(
    session: Optional[ObsSession],
) -> Optional[InjectorInstruments]:
    return None if session is None else InjectorInstruments(session)


class ProtocolInstruments:
    """Handles for the covert-channel sender/receiver loops."""

    __slots__ = ("bits_sent", "observations", "threshold")

    def __init__(self, session: ObsSession) -> None:
        metrics = session.metrics
        self.bits_sent = metrics.counter("channel.bits.sent")
        self.observations = metrics.counter("channel.observations")
        self.threshold = metrics.gauge("channel.threshold")


def for_protocol(
    session: Optional[ObsSession],
) -> Optional[ProtocolInstruments]:
    return None if session is None else ProtocolInstruments(session)


def count_decoded_bits(session: Optional[ObsSession], n: int) -> None:
    """Credit ``n`` decoder output bits to the active session, if any."""
    if session is not None:
        session.metrics.counter("channel.decoded.bits").inc(n)
