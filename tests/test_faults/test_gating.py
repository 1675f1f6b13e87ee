"""The injector's due-time gate on the time-advance hook.

``FaultInjector.on_time_advance`` skips its fan-out while simulated time
is below every model's :meth:`~repro.faults.FaultModel.next_event_at`.
These tests pin down that the gate only ever skips calls in which no
model would have fired.
"""

import math
import random

import pytest

from repro.cache.config import HierarchyConfig
from repro.cache.hierarchy import CacheHierarchy
from repro.faults import (
    ContextSwitchFault,
    FaultInjector,
    FaultModel,
    InterruptBurstFault,
    PoissonFault,
    TSCFault,
)
from repro.sim.ops import Access, Compute, ReadTSC, SleepUntil
from repro.sim.scheduler import HyperThreadedScheduler
from repro.sim.thread import SimThread


class _Recording(PoissonFault):
    """Poisson events that only note when they fired."""

    name = "recording"

    injection_points = ("time-advance",)

    def __init__(self, rate_per_mcycle):
        super().__init__(rate_per_mcycle)
        self.fired = []

    def inject(self, at):
        self.fired.append(at)
        return 0.0


class _EveryAdvance(FaultModel):
    """A non-Poisson model that wants to see every time advance."""

    name = "every-advance"

    injection_points = ("time-advance",)

    def __init__(self):
        super().__init__()
        self.seen = []

    def on_time_advance(self, now):
        self.seen.append(now)
        return 0.0


class _UngatedInjector(FaultInjector):
    """Reference fan-out: every model on every advance, no due time."""

    def on_time_advance(self, now):
        return sum(model.on_time_advance(now) for model in self.models)


def _hierarchy():
    return CacheHierarchy(HierarchyConfig(), rng=7)


def _channel_threads(rounds=200):
    def sender():
        for i in range(rounds):
            yield Access(64 * (i % 5))
            yield Compute(30.0)

    def receiver():
        for _ in range(rounds // 4):
            t = yield ReadTSC()
            yield SleepUntil(t + 400.0)
            yield Access(0)

    return [
        SimThread("sender", sender, thread_id=0),
        SimThread("receiver", receiver, thread_id=1),
    ]


def _run(injector, threads, seed=5):
    scheduler = HyperThreadedScheduler(
        injector.hierarchy, threads, rng=seed, faults=injector
    )
    issued = []
    execute = scheduler._execute

    def recording_execute(thread, op, now):
        issued.append((thread.name, now))
        return execute(thread, op, now)

    scheduler._execute = recording_execute
    end = scheduler.run()
    return issued, end


class TestNextEventAt:
    def test_base_default_follows_declared_points(self):
        assert _EveryAdvance().next_event_at() == -math.inf
        assert TSCFault().next_event_at() == math.inf

    def test_poisson_reports_its_next_arrival(self, hierarchy):
        fault = _Recording(rate_per_mcycle=100.0)
        fault.bind(hierarchy, random.Random(3))
        assert fault.next_event_at() == fault._next_at < math.inf
        fault.on_time_advance(fault._next_at)
        assert fault.fired and fault.next_event_at() > fault.fired[-1]


class TestGate:
    def test_custom_model_called_on_every_op(self):
        h = _hierarchy()
        injector = FaultInjector(h, rng_source=lambda: random.Random(1))
        # A far-off Poisson model alongside must not gate the other one.
        injector.attach(_Recording(rate_per_mcycle=1e-6))
        every = injector.attach(_EveryAdvance())
        issued, _ = _run(injector, _channel_threads())
        # One advance per issued op, plus one per thread for the step
        # on which its program finished.
        assert len(every.seen) == len(issued) + 2
        assert set(now for _, now in issued) <= set(every.seen)

    def test_fan_out_only_when_an_event_is_due(self):
        class Counting(_Recording):
            def __init__(self, rate_per_mcycle):
                super().__init__(rate_per_mcycle)
                self.fired_per_call = []

            def on_time_advance(self, now):
                before = len(self.fired)
                stall = super().on_time_advance(now)
                self.fired_per_call.append(len(self.fired) - before)
                return stall

        injector = FaultInjector(_hierarchy(), rng_source=lambda: random.Random(1))
        model = injector.attach(Counting(rate_per_mcycle=500.0))
        issued, _ = _run(injector, _channel_threads())
        assert len(model.fired) > 3
        # Every call that reached the model fired; the rest were gated.
        assert all(model.fired_per_call)
        assert len(model.fired_per_call) < len(issued)

    def test_attach_between_runs_resets_due_time(self):
        h = _hierarchy()
        injector = FaultInjector(h, rng_source=lambda: random.Random(1))
        slow = injector.attach(_Recording(rate_per_mcycle=1e-6))
        _run(injector, _channel_threads())
        assert slow.fired == []
        fast = injector.attach(_Recording(rate_per_mcycle=1000.0))
        first_due = fast.next_event_at()
        _, end = _run(injector, _channel_threads())
        assert first_due < end
        assert fast.fired and fast.fired[0] == first_due
        assert slow.fired == []

    def test_matches_ungated_fan_out(self):
        def build(injector_cls):
            h = _hierarchy()
            injector = injector_cls(h, rng_source=lambda: random.Random(11))
            injector.attach(InterruptBurstFault(rate_per_mcycle=300.0))
            injector.attach(ContextSwitchFault(rate_per_mcycle=20.0))
            return injector

        gated = build(FaultInjector)
        ungated = build(_UngatedInjector)
        gated_issued, gated_end = _run(gated, _channel_threads(800))
        ungated_issued, ungated_end = _run(ungated, _channel_threads(800))
        assert len(gated.event_log) > 5
        assert list(gated.event_log) == list(ungated.event_log)
        assert gated_issued == ungated_issued
        assert gated_end == ungated_end
        assert [s.snapshot() for s in gated.hierarchy.l1.sets] == [
            s.snapshot() for s in ungated.hierarchy.l1.sets
        ]


class _UngatedTscInjector(FaultInjector):
    """Reference TSC fan-out: every model on every readout."""

    def attach(self, model):
        super().attach(model)
        # The schedulers skip the hook only while this list is empty.
        self._tsc_models = list(self.models)
        return model

    def perturb_tsc(self, value):
        for model in self.models:
            value = model.perturb_tsc(value)
        return value


class TestTscGate:
    def test_only_overriding_models_are_fanned_out_to(self):
        injector = FaultInjector(
            _hierarchy(), rng_source=lambda: random.Random(1)
        )
        injector.attach(InterruptBurstFault(rate_per_mcycle=100.0))
        injector.attach(_EveryAdvance())
        assert injector._tsc_models == []
        tsc = injector.attach(TSCFault(jitter_cycles=2.0))
        assert injector._tsc_models == [tsc]

    @pytest.mark.parametrize("with_tsc", [False, True])
    @pytest.mark.parametrize("engine", ["reference", "fast"])
    def test_matches_ungated_fan_out(self, with_tsc, engine):
        def run(injector_cls, recorded):
            h = CacheHierarchy(HierarchyConfig(), rng=7, engine=engine)
            injector = injector_cls(h, rng_source=lambda: random.Random(11))
            injector.attach(InterruptBurstFault(rate_per_mcycle=300.0))
            if with_tsc:
                injector.attach(TSCFault(jitter_cycles=3.0, drift_ppm=200.0))
            scheduler = HyperThreadedScheduler(
                h, _channel_threads(800), rng=5, faults=injector
            )
            if recorded:
                # An instance wrapper sends every op through _execute.
                execute = scheduler._execute
                scheduler._execute = lambda *args: execute(*args)
            end = scheduler.run()
            return {
                "end": end,
                "events": list(injector.event_log),
                "rngs": [m.rng.getstate() for m in injector.models],
                "sets": [s.snapshot() for s in h.l1.sets],
                "scheduler_rng": scheduler.rng.getstate(),
            }

        for recorded in (False, True):
            gated = run(FaultInjector, recorded)
            assert len(gated["events"]) > 5
            assert gated == run(_UngatedTscInjector, recorded)
