"""The hyper-threaded op kernel is the general per-op route, only faster.

``HyperThreadedScheduler.run`` executes ops in place, with the fast
engine's L1 hit path inlined, whenever nothing could observe the
individual calls.  Wrapping ``scheduler._execute`` on the instance —
what the sanitizer does — forces every op through ``_execute``, so each
test runs the same scenario both ways and requires the same final
machine: every level's lines, replacement states and counters, every
thread's ``ready_at``, the scheduler's and fault injector's RNG states,
the fault event log, the observations and ``total_cycles``.
"""

import dataclasses
import random

import pytest

from repro.cache.config import HierarchyConfig
from repro.cache.hierarchy import CacheHierarchy
from repro.cache.pl_cache import PLCache
from repro.channels.algorithm1 import SharedMemoryLRUChannel
from repro.channels.algorithm2 import NoSharedMemoryLRUChannel
from repro.channels.protocol import CovertChannelProtocol, ProtocolConfig
from repro.common.types import AccessType
from repro.faults import FaultInjector, InterruptBurstFault, TSCFault
from repro.obs.session import ObsSession, observe
from repro.sim import scheduler as scheduler_module
from repro.sim.machine import Machine
from repro.sim.ops import Access, Compute, ReadTSC, SleepUntil
from repro.sim.scheduler import HyperThreadedScheduler
from repro.sim.specs import AMD_EPYC_7571, INTEL_E5_2690
from repro.sim.thread import SimThread

MESSAGE = [1, 0, 1, 1, 0, 0, 1, 0, 1, 1]


@pytest.fixture
def execute_calls(monkeypatch):
    """Count ``_execute`` calls without disabling the kernel.

    A class-level replacement is still ``_SchedulerBase._execute``, so
    the kernel stays eligible; it counts the ops that took the general
    route.
    """
    calls = []
    original = scheduler_module._SchedulerBase._execute

    def counting(self, thread, op, now):
        calls.append(type(op).__name__)
        return original(self, thread, op, now)

    monkeypatch.setattr(scheduler_module._SchedulerBase, "_execute", counting)
    return calls


def force_general(scheduler):
    """Install a pass-through instance wrapper, as the sanitizer does."""
    execute = scheduler._execute

    def wrapped(thread, op, now):
        return execute(thread, op, now)

    scheduler._execute = wrapped


def with_l1(spec, **changes):
    hierarchy = spec.hierarchy
    l1 = dataclasses.replace(hierarchy.l1, **changes)
    return dataclasses.replace(
        spec, hierarchy=dataclasses.replace(hierarchy, l1=l1)
    )


def with_fractional_latencies(spec):
    # Latencies that are not binary fractions make the histogram's
    # float total depend on the order of its additions.
    hierarchy = spec.hierarchy
    return dataclasses.replace(
        spec,
        hierarchy=dataclasses.replace(
            hierarchy,
            l1=dataclasses.replace(hierarchy.l1, hit_latency=4.1),
            l2=dataclasses.replace(hierarchy.l2, hit_latency=12.3),
            memory_latency=200.7,
        ),
    )


def final_state(hierarchy, scheduler):
    """Everything a hyper-threaded run leaves behind in the simulator."""
    levels = [hierarchy.l1, hierarchy.l2]
    if hierarchy.llc is not None:
        levels.append(hierarchy.llc)
    faults = scheduler.faults
    return {
        "lines": [
            [
                [
                    (l.valid, l.tag, l.address, l.dirty, l.locked, l.utag)
                    for l in cache_set.lines
                ]
                for cache_set in level.sets
            ]
            for level in levels
        ],
        "policies": [
            [cache_set.policy.state_snapshot() for cache_set in level.sets]
            for level in levels
        ],
        "counters": [
            (dict(level.counters.references), dict(level.counters.misses))
            for level in levels
        ],
        "ready_at": [t.ready_at for t in scheduler.threads],
        "alive": [t.alive for t in scheduler.threads],
        "scheduler_rng": scheduler.rng.getstate(),
        "event_log": list(faults.event_log) if faults is not None else [],
        "fault_rngs": [m.rng.getstate() for m in scheduler._fault_models()],
    }


def run_protocol(
    spec,
    algorithm,
    mode,
    *,
    d=4,
    ts=4500.0,
    tr=600.0,
    noise=100.0,
    sender_space=1,
):
    """One Algorithm 3 run; returns (final state, the scheduler)."""
    machine = Machine(spec, rng=21, engine="fast")
    if algorithm == 1:
        channel = SharedMemoryLRUChannel.build(spec.hierarchy.l1, 1, d=d)
    else:
        channel = NoSharedMemoryLRUChannel.build(spec.hierarchy.l1, 1, d=d)
    config = ProtocolConfig(
        ts=ts, tr=tr, noise_events_per_mcycle=noise, sender_space=sender_space
    )
    protocol = CovertChannelProtocol(machine, channel, config)
    captured = {}
    hyper_threaded = machine.hyper_threaded

    def capture(threads):
        scheduler = hyper_threaded(threads)
        if mode == "general":
            force_general(scheduler)
        captured["scheduler"] = scheduler
        return scheduler

    machine.hyper_threaded = capture
    run = protocol.run_hyper_threaded(MESSAGE)
    scheduler = captured["scheduler"]
    state = final_state(machine.hierarchy, scheduler)
    state["observations"] = [
        (o.sequence, o.latency, o.timestamp) for o in run.observations
    ]
    state["bit_boundaries"] = run.bit_boundaries
    state["total_cycles"] = run.total_cycles
    return state, scheduler


def assert_kernel_matches_general(execute_calls, *args, **kwargs):
    kernel, scheduler = run_protocol(*args, mode="kernel", **kwargs)
    kernel_calls = len(execute_calls)
    general, _ = run_protocol(*args, mode="general", **kwargs)
    assert scheduler._inlinable(), "the kernel was not eligible"
    assert kernel_calls == 0, "an op left the kernel"
    assert len(execute_calls) > 1000, "the general route was not forced"
    assert kernel == general
    return kernel, scheduler


@pytest.mark.parametrize("algorithm", [1, 2])
@pytest.mark.parametrize("d", [1, 4, 8])
def test_fig4_with_interrupt_faults(execute_calls, algorithm, d):
    state, scheduler = assert_kernel_matches_general(
        execute_calls, INTEL_E5_2690, algorithm, d=d
    )
    assert scheduler._plain_l1() is not None
    assert len(state["event_log"]) > 3
    assert state["observations"]


@pytest.mark.parametrize("policy", ["lru", "bit-plru", "random"])
def test_other_l1_policies(execute_calls, policy):
    # ``random`` has no compiled table: hits touch nothing, fills draw.
    assert_kernel_matches_general(
        execute_calls, with_l1(INTEL_E5_2690, policy=policy), 2, d=3
    )


def test_no_update_on_hit(execute_calls):
    assert_kernel_matches_general(
        execute_calls,
        with_l1(INTEL_E5_2690, update_lru_on_hit=False),
        1,
        d=8,
    )


@pytest.mark.parametrize(
    "algorithm,sender_space",
    [(1, 0), (2, 1), (1, 1)],
    ids=["fig7-alg1", "fig7-alg2", "cross-space"],
)
def test_amd_way_predictor_inlines_only_the_dispatch(
    execute_calls, algorithm, sender_space
):
    # Every AMD access goes through hierarchy.access (the utag check);
    # the kernel skips only the generator-side dispatch.  Across
    # address spaces the sender's shared-line hits mispredict the utag.
    _, scheduler = assert_kernel_matches_general(
        execute_calls,
        AMD_EPYC_7571,
        algorithm,
        d=5,
        ts=2.0e4,
        tr=1000.0,
        noise=20.0,
        sender_space=sender_space,
    )
    assert scheduler._plain_l1() is None


@pytest.mark.parametrize("lock_lru", [False, True])
def test_pl_cache(execute_calls, lock_lru):
    def pl_l1():
        return PLCache(INTEL_E5_2690.hierarchy.l1, lock_lru=lock_lru, rng=5)

    def run(mode):
        hierarchy = Machine(
            INTEL_E5_2690, rng=4, engine="fast", l1_cache=pl_l1()
        ).hierarchy
        lines = [64 * 64 * i + 64 for i in range(10)]

        def locker():
            yield Access(lines[0], locked=True)
            for _ in range(300):
                yield Access(lines[0])
                yield Compute(11.0)
            yield Access(lines[0], unlock=True)

        def sweeper():
            for i in range(400):
                yield Access(lines[1 + i % 9])
                yield Compute(3.0)

        threads = [
            SimThread("locker", locker, thread_id=1, address_space=1),
            SimThread("sweeper", sweeper, thread_id=0),
        ]
        scheduler = HyperThreadedScheduler(hierarchy, threads, rng=8)
        if mode == "general":
            force_general(scheduler)
        end = scheduler.run()
        assert scheduler._plain_l1() is None
        return final_state(hierarchy, scheduler), end

    kernel = run("kernel")
    assert not execute_calls
    assert kernel == run("general")


def mixed_threads():
    def mixed():
        for i in range(400):
            yield Access(0x1000, count=False)
            outcome = yield Access(0x2000, access_type=AccessType.STORE)
            yield Compute(outcome.latency / 3)
            yield Access(0x3000, speculative=True)
            yield Access((1 << 20) + 64 * (i * 37 % 700))
            if i % 50 == 7:
                yield Access(0x2000, access_type=AccessType.FLUSH)
            if i % 9 == 0:
                yield None

    def steady():
        for _ in range(500):
            t = yield ReadTSC()
            yield Access(0x1000)
            yield Access(0x3000)
            yield SleepUntil(t + 40.0)

    return [
        SimThread("mixed", mixed, thread_id=3, address_space=2),
        SimThread("steady", steady, thread_id=4),
    ]


def run_scenario(
    threads, mode, *, invisible=False, until_cycle=None, faults=()
):
    machine = Machine(
        INTEL_E5_2690,
        rng=3,
        engine="fast",
        invisible_speculation=invisible,
        faults=list(faults),
    )
    scheduler = machine.hyper_threaded(threads)
    if mode == "general":
        force_general(scheduler)
    end = scheduler.run(until_cycle=until_cycle)
    state = final_state(machine.hierarchy, scheduler)
    state["end"] = end
    return state


@pytest.mark.parametrize("invisible", [False, True])
def test_uncounted_store_flush_and_speculative_ops(execute_calls, invisible):
    kernel = run_scenario(mixed_threads(), "kernel", invisible=invisible)
    assert not execute_calls
    general = run_scenario(mixed_threads(), "general", invisible=invisible)
    assert kernel["counters"][0][1].get(3, 0) > 100
    assert kernel == general


@pytest.mark.parametrize("until_cycle", [2.5e3, 2.0e4])
def test_until_cycle_cutoff(until_cycle):
    def run(mode):
        return run_scenario(
            mixed_threads(),
            mode,
            until_cycle=until_cycle,
            faults=[InterruptBurstFault(rate_per_mcycle=500.0)],
        )

    kernel = run("kernel")
    assert all(kernel["alive"])
    assert kernel["end"] >= until_cycle
    assert kernel == run("general")


@pytest.mark.parametrize(
    "spec",
    [INTEL_E5_2690, with_fractional_latencies(INTEL_E5_2690), AMD_EPYC_7571],
    ids=["fig4", "fractional-latencies", "amd"],
)
def test_obs_metrics_identical(spec):
    """Under an ObsSession the kernel reports the general route's metrics.

    ``sched.ops``, every ``cache.l1.*`` counter, the access-latency
    histogram, ``replacement.transitions`` and the fault counters must
    all match, so ``_metrics:`` digests do not move.
    """
    snapshots = []
    for mode in ("kernel", "general"):
        session = ObsSession(trace_depth=0)
        with observe(session):
            state, _ = run_protocol(spec, 1, mode, d=6)
        snapshots.append((session.metrics.snapshot(), state))
    (kernel, kernel_state), (general, general_state) = snapshots
    counters = kernel["counters"]
    assert counters["sched.ops"] > 3000
    assert counters["cache.l1.hits"] > 1000
    assert counters["faults.activations"]
    assert kernel["histograms"]["access.latency"]
    assert kernel == general
    assert kernel_state == general_state


class TestDrawOrderGoldenUnwrapped:
    """``TestDrawOrderGolden``'s scenario with the kernel doing the work.

    The golden scenario records its issue sequence through an
    ``_execute`` wrapper, which forces the general route; here it runs
    unwrapped on the fast engine and must still end at the golden
    return value, fault event log and RNG state.
    """

    def test_return_value_events_and_rng(self, execute_calls):
        def sender():
            i = 0
            while True:
                yield Access(64 * (i % 3))
                yield Compute(40.0)
                i += 1

        def receiver():
            while True:
                t = yield ReadTSC()
                yield SleepUntil(t + 150.0)
                yield Access(0)

        def short():
            yield Access(4096)
            yield Compute(40.0)

        h = CacheHierarchy(HierarchyConfig(), rng=7, engine="fast")
        faults = FaultInjector(h, rng_source=lambda: random.Random(99))
        faults.attach(
            InterruptBurstFault(rate_per_mcycle=2000.0, burst_length=2)
        )
        faults.attach(TSCFault(jitter_cycles=3.0, drift_ppm=100.0))
        threads = [
            SimThread("sender", sender, thread_id=0),
            SimThread("receiver", receiver, thread_id=1),
            SimThread("short", short, thread_id=2),
        ]
        scheduler = HyperThreadedScheduler(
            h, threads, rng=1234, jitter=0.0, faults=faults
        )
        end = scheduler.run(until_cycle=1500.0)
        assert scheduler._inlinable() and scheduler._plain_l1() is not None
        assert not execute_calls
        assert end == 1521.7208180445618
        assert list(faults.event_log) == [
            (94.78771076215958, 600.0),
            (579.3887648555828, 600.0),
            (676.1689935371228, 600.0),
        ]
        reference = random.Random(1234)
        for _ in range(195):
            reference.random()
        assert scheduler.rng.getstate() == reference.getstate()


def test_sanitized_and_traced_runs_take_the_general_route(execute_calls):
    from repro.sim.tracing import AccessTracer

    machine = Machine(INTEL_E5_2690, rng=3, engine="fast")
    AccessTracer.attach(machine.hierarchy)
    scheduler = machine.hyper_threaded(mixed_threads())
    assert not scheduler._inlinable()
    scheduler.run(until_cycle=5.0e3)
    assert execute_calls

    machine = Machine(INTEL_E5_2690, rng=3, engine="reference")
    assert not machine.hyper_threaded(mixed_threads())._inlinable()
