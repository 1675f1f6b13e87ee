"""The active observability session: one registry + bus per observed run.

Instrumented modules never import each other's metrics; they ask this
module for the *active session* at construction time and bind handles
from it.  When no session is active — the default — :func:`active`
returns ``None`` and every instrument site collapses to a single
``is None`` check on its hot path, which is what keeps observability
free when it is off: an off-mode run calls into this package only while
it is being built (``tests/test_obs/test_session.py::TestOffMode``).

Sessions are scoped, not global-forever: the experiment runner opens one
per experiment attempt (``--trace``), snapshots it, and closes it, so
metrics never bleed between experiments or between retry attempts.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, List, Optional

from repro.obs.registry import MetricsRegistry
from repro.obs.tracebus import TraceBus

_ACTIVE: Optional["ObsSession"] = None


class ObsSession:
    """One observed run: metrics registry, trace bus, manifest notes.

    Args:
        trace_depth: Ring-buffer depth of the trace bus; ``0`` disables
            tracing (metrics only).
    """

    def __init__(self, trace_depth: int = 65536):
        self.metrics = MetricsRegistry()
        self.bus: Optional[TraceBus] = None
        if trace_depth:
            self.bus = TraceBus(
                depth=trace_depth,
                dropped_counter=self.metrics.counter("trace.events.dropped"),
            )
        # specs of machines built under this session, with multiplicity
        # (sweeps build one machine per point).
        self._machines: Dict[str, int] = {}
        # names of fault models attached to any of those machines.
        self._fault_models: Dict[str, int] = {}

    # -- manifest notes -------------------------------------------------

    def note_machine(self, spec_name: str) -> None:
        self._machines[spec_name] = self._machines.get(spec_name, 0) + 1

    def note_fault_model(self, name: str) -> None:
        self._fault_models[name] = self._fault_models.get(name, 0) + 1

    def machines(self) -> List[Dict]:
        """Deduped machine builds, stable order (first-built first)."""
        return [
            {"spec": spec, "count": count}
            for spec, count in self._machines.items()
        ]

    def fault_models(self) -> List[str]:
        return sorted(self._fault_models)

    # -- trace conveniences (no-ops when tracing is disabled) -----------

    def event(self, name: str, **fields) -> None:
        if self.bus is not None:
            self.bus.event(name, **fields)

    @contextmanager
    def span(self, name: str, **fields):
        if self.bus is None:
            yield None
        else:
            with self.bus.span(name, **fields) as span_id:
                yield span_id


def active() -> Optional[ObsSession]:
    """The session instruments should bind to, or None when disabled."""
    return _ACTIVE


@contextmanager
def observe(session: Optional[ObsSession] = None):
    """Make ``session`` (default: a fresh one) active within the block.

    Nesting replaces the outer session for the duration of the inner
    block — each experiment attempt gets clean counts — and always
    restores the previous one, even on error.
    """
    global _ACTIVE
    if session is None:
        session = ObsSession()
    previous = _ACTIVE
    _ACTIVE = session
    try:
        yield session
    finally:
        _ACTIVE = previous
