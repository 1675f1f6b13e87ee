"""Fault-model framework: composable, seed-deterministic disturbances.

The paper's hardware error rates (Section VIII, Figure 4) are set by
the environment — interrupts, context switches, prefetchers, and a
coarse, jittery timestamp counter — not by the channel itself.  This
package models those disturbances as small composable objects that hook
into the simulator at three injection points:

* **time advance** — the scheduler reports simulated-time progress to
  every fault model before executing each operation, and models with
  pending events (Poisson arrivals on the cycle clock) perform their
  disturbance accesses against the shared hierarchy (the injector skips
  the fan-out until the earliest :meth:`FaultModel.next_event_at` is
  due);
* **TSC readout** — every ``ReadTSC`` result is routed through the
  models, which may add jitter or drift (Section VI-A's coarse AMD
  counter is the extreme case); only models whose class overrides
  :meth:`FaultModel.perturb_tsc` are called, and the schedulers skip
  the hook while there are none;
* **observation delivery** — each receiver sample passes through the
  models, which may drop or duplicate it (lost and repeated samples are
  two of the paper's three error types); only models whose class
  overrides :meth:`FaultModel.filter_observation` are called, and a
  sample is delivered as is while there are none.

A :class:`FaultInjector` owns the attached models and fans the three
hooks out to them; :class:`~repro.sim.machine.Machine` owns one
injector and hands it to every scheduler it builds, so one ``faults=``
argument at machine construction disturbs every run on that machine
deterministically (the injector's RNG is spawned from the machine's
master seed).
"""

from __future__ import annotations

import math
from collections import deque
from itertools import islice
from typing import Callable, Deque, List, Optional, Sequence, Tuple

from repro.cache.hierarchy import CacheHierarchy
from repro.common.errors import FaultInjectionError
from repro.common.rng import spawn_rng
from repro.common.types import MemoryAccess, Observation
from repro.obs.instruments import for_injector
from repro.obs.session import active as obs_active

#: Thread id under which fault-injected accesses are accounted, so they
#: never contaminate a victim's or attacker's performance counters
#: (parallel to ``PREFETCH_THREAD`` in the hierarchy).
FAULT_THREAD = -2

#: Address space used for disturbance accesses that model other
#: processes (interrupt handlers, sibling tasks).
FAULT_ADDRESS_SPACE = 0x7F

#: The simulator hooks a fault model may use.  Every concrete model
#: declares which subset it uses via its ``injection_points`` class
#: attribute (enforced statically by the ``fault-declares-injection``
#: lint rule and at attach time by :meth:`FaultInjector.attach`).
INJECTION_POINTS = frozenset({"time-advance", "tsc", "observation"})


class FaultModel:
    """One kind of environmental disturbance.

    Subclasses override any subset of the three hooks.  A model is
    inert until :meth:`bind` gives it the hierarchy it disturbs and its
    own deterministic RNG stream; the :class:`FaultInjector` calls
    ``bind`` at attach time.
    """

    #: Short identifier used in RNG stream derivation and reports.
    name = "fault"

    #: Which of the three hooks this model uses, from
    #: :data:`INJECTION_POINTS`.  The base class uses none; concrete
    #: models must declare theirs.
    injection_points: Tuple[str, ...] = ()

    def __init__(self) -> None:
        self.hierarchy: Optional[CacheHierarchy] = None
        self.rng = None
        self._sink: Optional[Callable[[float, float], None]] = None
        self._obs = None  # set by FaultInjector.attach when a session is live

    def bind(self, hierarchy: CacheHierarchy, rng) -> None:
        """Attach to a machine: receive the hierarchy and an RNG stream."""
        self.hierarchy = hierarchy
        self.rng = rng
        self._on_bind()

    def _on_bind(self) -> None:
        """Subclass hook run after :meth:`bind` (arm event clocks etc.)."""

    # -- injection points ----------------------------------------------

    def on_time_advance(self, now: float) -> float:
        """Simulated time reached ``now``; fire any pending events.

        Returns the cycles the events' handlers consumed.  The
        scheduler charges those cycles to threads waking from a sleep
        whose window covered the event (see
        :meth:`FaultInjector.stall_in_window`) — a halted logical CPU
        is the one interrupts wake, so the sampling loop's sleeps
        absorb the handler time while a busy sibling only sees the
        cache pollution.
        """
        return 0.0

    def next_event_at(self) -> float:
        """Earliest ``now`` at which :meth:`on_time_advance` can act.

        The injector skips the time-advance fan-out while simulated
        time is below every model's answer.  The default is
        conservative: a model declaring ``"time-advance"`` is called on
        every advance (``-inf``), any other model never (``+inf``).
        """
        return -math.inf if "time-advance" in self.injection_points else math.inf

    def perturb_tsc(self, value: float) -> float:
        """Transform one TSC readout (jitter/drift models)."""
        return value

    def filter_observation(self, observation: Observation) -> List[Observation]:
        """Map one receiver sample to zero, one, or more samples."""
        return [observation]

    # -- helpers for subclasses ----------------------------------------

    def _emit(self, at: float, stolen: float) -> None:
        """Record one fired event with the core time it stole."""
        if self._sink is not None:
            self._sink(at, stolen)
        if self._obs is not None:
            self._obs.activations.inc()
            if stolen:
                self._obs.stolen_cycles.inc(int(stolen))

    def _disturb(self, address: int) -> float:
        """One disturbance access against the bound hierarchy.

        Runs uncounted (like prefetch fills) so performance-counter
        based experiments see the LRU/content pollution but not phantom
        demand traffic.  Returns the access latency so events can
        account the core time their handler stole.
        """
        if self.hierarchy is None:
            raise FaultInjectionError(
                f"fault model {self.name!r} used before bind()"
            )
        outcome = self.hierarchy.access(
            MemoryAccess(
                address=address,
                thread_id=FAULT_THREAD,
                address_space=FAULT_ADDRESS_SPACE,
            ),
            count=False,
        )
        return outcome.latency

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class PoissonFault(FaultModel):
    """Base for events arriving as a Poisson process on the cycle clock.

    Args:
        rate_per_mcycle: Mean number of events per million cycles.  The
            paper's Figure 4 noise floor corresponds to interrupts and
            background tasks arriving per unit *time*, which is why
            faster transmission (fewer samples per bit) suffers more.
    """

    injection_points = ("time-advance",)

    def __init__(self, rate_per_mcycle: float):
        super().__init__()
        if rate_per_mcycle < 0:
            raise FaultInjectionError(
                f"rate_per_mcycle must be >= 0, got {rate_per_mcycle}"
            )
        self.rate_per_mcycle = rate_per_mcycle
        self._next_at = math.inf

    def _on_bind(self) -> None:
        self._next_at = 0.0 + self._gap() if self.rate_per_mcycle > 0 else math.inf

    def _gap(self) -> float:
        """Exponential inter-arrival gap in cycles."""
        return self.rng.expovariate(self.rate_per_mcycle / 1e6)

    def next_event_at(self) -> float:
        return self._next_at

    def on_time_advance(self, now: float) -> float:
        stall = 0.0
        while self._next_at <= now:
            at = self._next_at
            self._next_at += self._gap()
            stolen = self.inject(at)
            self._emit(at, stolen)
            stall += stolen
        return stall

    def inject(self, at: float) -> float:
        """Perform one event's disturbance; return the cycles it stole."""
        raise NotImplementedError


class FaultInjector:
    """Fans the three injection hooks out to the attached fault models.

    Args:
        hierarchy: The memory system disturbance accesses run against.
        rng_source: Zero-argument callable returning the injector's RNG.
            It is invoked lazily on the first :meth:`attach`, so a
            machine with no faults draws nothing from its master seed
            and stays bit-identical to pre-fault-framework builds.
    """

    #: Fired events kept for sleep-window stall accounting; old entries
    #: fall off the end (a window never reaches that far back).
    _EVENT_LOG_LIMIT = 4096

    def __init__(self, hierarchy: CacheHierarchy, rng_source: Callable):
        self.hierarchy = hierarchy
        self._rng_source = rng_source
        self._rng = None
        self.models: List[FaultModel] = []
        self.event_log: Deque[Tuple[float, float]] = deque(
            maxlen=self._EVENT_LOG_LIMIT
        )
        # The latest event time logged so far, after each entry of
        # ``event_log``.  Models log in time order each, but an advance
        # that fires several models' events logs them model by model,
        # so the log itself need not be time-ordered; this is.
        self._log_peaks: Deque[float] = deque(maxlen=self._EVENT_LOG_LIMIT)
        self._obs = for_injector(obs_active())
        # Earliest time any model's time-advance hook can act; see
        # FaultModel.next_event_at.
        self._next_due = math.inf
        # The attached models whose perturb_tsc is not the identity.
        self._tsc_models: List[FaultModel] = []
        # The attached models whose filter_observation is not the identity.
        self._sample_models: List[FaultModel] = []

    @property
    def active(self) -> bool:
        return bool(self.models)

    def attach(self, model: FaultModel) -> FaultModel:
        """Bind ``model`` to this machine and start injecting it."""
        if not isinstance(model, FaultModel):
            raise FaultInjectionError(
                f"expected a FaultModel, got {type(model).__name__}"
            )
        unknown = set(model.injection_points) - INJECTION_POINTS
        if unknown:
            raise FaultInjectionError(
                f"fault model {model.name!r} declares unknown injection "
                f"point(s) {sorted(unknown)}; known: "
                f"{sorted(INJECTION_POINTS)}"
            )
        if not model.injection_points:
            raise FaultInjectionError(
                f"fault model {model.name!r} declares no injection "
                "points; attaching it could never disturb anything"
            )
        if self._rng is None:
            self._rng = self._rng_source()
        model.bind(
            self.hierarchy,
            spawn_rng(self._rng, f"{model.name}#{len(self.models)}"),
        )
        model._sink = self._record_event
        if self._obs is not None:
            model._obs = self._obs.for_model(model.name)
            session = obs_active()
            if session is not None:
                session.note_fault_model(model.name)
        self.models.append(model)
        self._next_due = min(self._next_due, model.next_event_at())
        if type(model).perturb_tsc is not FaultModel.perturb_tsc:
            self._tsc_models.append(model)
        if type(model).filter_observation is not FaultModel.filter_observation:
            self._sample_models.append(model)
        return model

    def attach_all(self, models: Sequence[FaultModel]) -> None:
        for model in models:
            self.attach(model)

    # -- hook fan-out --------------------------------------------------

    def _record_event(self, at: float, stolen: float) -> None:
        if stolen > 0:
            self.event_log.append((at, stolen))
            peaks = self._log_peaks
            peaks.append(max(peaks[-1], at) if peaks else at)

    def on_time_advance(self, now: float) -> float:
        # Called before every scheduled operation, but events are rare:
        # skip the fan-out until some model's next event is due.  A
        # skipped call is one where no model would have fired.
        if now < self._next_due:
            return 0.0
        stall = sum(model.on_time_advance(now) for model in self.models)
        self._next_due = min(
            (model.next_event_at() for model in self.models), default=math.inf
        )
        return stall

    def stall_in_window(self, start: float, end: float) -> float:
        """Total handler cycles of events fired in ``(start, end]``.

        Schedulers call this when a thread wakes from a sleep spanning
        that window: interrupts wake a halted logical CPU, so the
        sleeper runs the accumulated handlers before resuming, while a
        sibling that never slept is only touched by the pollution.

        Such events sit in the log's tail after the last entry whose
        running peak time is at most ``start``.  Only that tail is
        visited, and it is summed forward, in log order, as the whole
        log would be, so the float sum is the full scan's.  A window
        that starts at or after the latest event has an empty tail, and
        returns at once.
        """
        peaks = self._log_peaks
        if not peaks or peaks[-1] <= start:
            return 0.0
        tail = 0
        for peak in reversed(peaks):
            if peak <= start:
                break
            tail += 1
        recent = list(islice(reversed(self.event_log), tail))
        recent.reverse()
        return sum(stolen for at, stolen in recent if start < at <= end)

    def perturb_tsc(self, value: float) -> float:
        # Models that keep FaultModel.perturb_tsc return ``value`` as
        # is, so skipping them changes nothing.
        for model in self._tsc_models:
            value = model.perturb_tsc(value)
        return value

    def filter_observation(self, observation: Observation) -> List[Observation]:
        # As with perturb_tsc, only models that override the hook can
        # change the sample; without one it is delivered as is.
        if not self._sample_models:
            return [observation]
        pending = [observation]
        for model in self._sample_models:
            emitted: List[Observation] = []
            for obs in pending:
                emitted.extend(model.filter_observation(obs))
            pending = emitted
        if self._obs is not None:
            if not pending:
                self._obs.samples_dropped.inc()
            elif len(pending) > 1:
                self._obs.samples_duplicated.inc(len(pending) - 1)
        return pending

    def __repr__(self) -> str:
        inner = ", ".join(repr(m) for m in self.models)
        return f"FaultInjector([{inner}])"
