"""The hyper-threaded op kernel is the general per-op route, only faster.

``HyperThreadedScheduler.run`` executes ops in place, with the fast
engine's L1 hit path (the AMD utag check included) inlined and its L1
misses finished by the fast engine's one miss routine, whenever nothing
could observe the individual calls.  Wrapping ``scheduler._execute`` on
the instance — what the sanitizer does — forces every op through
``_execute``, so each test runs the same scenario both ways and requires
the same final machine: every level's lines, replacement states and
counters, every thread's ``ready_at``, the scheduler's and fault
injector's RNG states, the fault event log, the observations and
``total_cycles`` (see :mod:`tests.test_sim.kernel_harness`).  The
hold-loop cases at the end also run on the reference engine, the
oracle, and check that the fixed-point fast-forward ran (or, where it
must not, did not); ``test_kernel_oracle.py`` checks the shared miss
routine and utag check against the oracle for both kernels.
"""

import random
import re

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
from repro.sim.machine import Machine
from repro.sim.ops import Access, Compute, HoldLoop, ReadTSC, SleepUntil
from repro.sim.scheduler import HyperThreadedScheduler
from repro.sim.specs import AMD_EPYC_7571, INTEL_E5_2690
from repro.sim.thread import SimThread
from tests.test_sim.kernel_harness import (
    L1_STRIDE,
    force_general,
    machine_state,
    run_holds,
    watch,
    with_fractional_latencies,
    with_l1,
)

MESSAGE = [1, 0, 1, 1, 0, 0, 1, 0, 1, 1]


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
    faults=(),
    watched=None,
):
    """One Algorithm 3 run; returns (final state, the scheduler).

    ``mode`` is ``kernel``, ``general`` (the fast engine with the
    general route forced) or ``reference`` (the reference engine).
    ``faults`` holds factories of extra fault models; a ``watched``
    dict gets the scheduler watched (see :func:`watch`).
    """
    engine = "reference" if mode == "reference" else "fast"
    machine = Machine(
        spec, rng=21, engine=engine, faults=[model() for model in faults]
    )
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
        if watched is not None:
            watch(scheduler, watched)
        captured["scheduler"] = scheduler
        return scheduler

    machine.hyper_threaded = capture
    run = protocol.run_hyper_threaded(MESSAGE)
    scheduler = captured["scheduler"]
    state = machine_state(machine.hierarchy, scheduler)
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
def test_amd_way_predictor_runs_in_place(
    execute_calls, algorithm, sender_space
):
    # The AMD L1 is plain apart from its way predictor, so its hits
    # (utag check included) and misses run in place too.  Across
    # address spaces the sender's shared-line hits mispredict the utag.
    kwargs = dict(
        d=5, ts=2.0e4, tr=1000.0, noise=20.0, sender_space=sender_space
    )
    kernel, scheduler = assert_kernel_matches_general(
        execute_calls, AMD_EPYC_7571, algorithm, **kwargs
    )
    assert scheduler._plain_l1() is not None
    reference, _ = run_protocol(
        AMD_EPYC_7571, algorithm, "reference", **kwargs
    )
    assert kernel == reference


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
        return machine_state(hierarchy, scheduler), end

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
    state = machine_state(machine.hierarchy, scheduler)
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


# ----------------------------------------------------------------------
# Hold loops and the fixed-point fast-forward, three ways
# ----------------------------------------------------------------------


def run_protocol_watched(spec, algorithm, mode, **kwargs):
    """``run_protocol`` with a watched scheduler.

    Returns (final state, scheduler, fast-forwarded ops, fixed-point
    faults).
    """
    watched = {}
    state, scheduler = run_protocol(
        spec, algorithm, mode, watched=watched, **kwargs
    )
    return state, scheduler, watched["forwarded"], watched["fixed_faults"]


def assert_three_ways(execute_calls, spec, algorithm, **kwargs):
    """Kernel, forced general route and reference engine agree.

    Returns the kernel's state, its count of fast-forwarded ops and of
    faults that landed at a fixed point.
    """
    kernel, scheduler, forwarded, fixed_faults = run_protocol_watched(
        spec, algorithm, "kernel", **kwargs
    )
    assert scheduler._inlinable(), "the kernel was not eligible"
    assert not execute_calls, "an op left the kernel"
    general, _, general_forwarded, _ = run_protocol_watched(
        spec, algorithm, "general", **kwargs
    )
    assert len(execute_calls) > 1000, "the general route was not forced"
    reference, _, reference_forwarded, _ = run_protocol_watched(
        spec, algorithm, "reference", **kwargs
    )
    assert general_forwarded == reference_forwarded == 0
    assert kernel == general
    assert kernel == reference
    return kernel, forwarded, fixed_faults


@pytest.mark.parametrize("algorithm", [1, 2])
def test_fast_forward_ended_by_a_fault(execute_calls, algorithm):
    state, forwarded, fixed_faults = assert_three_ways(
        execute_calls, INTEL_E5_2690, algorithm, d=4, noise=400.0
    )
    assert forwarded > 1000
    assert fixed_faults > 0
    assert len(state["event_log"]) > 10


@pytest.mark.parametrize("algorithm", [1, 2])
def test_amd_utags_across_address_spaces(execute_calls, algorithm):
    # Under Algorithm 1 the receiver retrains the shared line's utag to
    # its own space, so the sender's next access mispredicts and is no
    # fixed point; the sender's own private line (Algorithm 2) is.
    _, forwarded, _ = assert_three_ways(
        execute_calls,
        AMD_EPYC_7571,
        algorithm,
        d=5,
        ts=2.0e4,
        tr=1000.0,
        noise=20.0,
        sender_space=1,
    )
    assert forwarded > 100


def test_random_l1_policy(execute_calls):
    # No table, so an access never joins a fixed point; the silent
    # bit-0 holds still fast-forward.
    _, forwarded, _ = assert_three_ways(
        execute_calls, with_l1(INTEL_E5_2690, policy="random"), 2, d=3
    )
    assert forwarded > 0


def test_tsc_fault_model_never_fast_forwards(execute_calls):
    _, forwarded, _ = assert_three_ways(
        execute_calls,
        INTEL_E5_2690,
        1,
        d=4,
        faults=[lambda: TSCFault(jitter_cycles=3.0, drift_ppm=50.0)],
    )
    assert forwarded == 0


def hold_sender(line, hold_cycles, bits):
    """Alternate silent and encoding holds of ``hold_cycles`` each."""

    def program():
        silent = (Compute(4.0), Compute(20.0), ReadTSC())
        encode = (Access(line), Compute(20.0), ReadTSC())
        now = yield ReadTSC()
        for bit in range(bits):
            now = yield HoldLoop(encode if bit % 2 else silent, now + hold_cycles)
        yield Access(line)

    return program


def sleepy_prober(lines, period, samples):
    """Sleep ``period`` cycles, then probe ``lines``; ``samples`` times."""

    def program():
        t = yield ReadTSC()
        for _ in range(samples):
            yield SleepUntil(t + period)
            t = yield ReadTSC()
            for line in lines:
                yield Access(line)

    return program


def hold_threads(third=False):
    target = [L1_STRIDE * i + 64 for i in range(10)]
    threads = [
        SimThread("sender", hold_sender(target[0], 6000.0, 12), 1, 1),
        SimThread("receiver", sleepy_prober(target, 700.0, 90), 0, 0),
    ]
    if third:
        other = [(1 << 20) + 64 * i for i in range(40)]
        threads.append(
            SimThread("noise", sleepy_prober(other, 1900.0, 30), 2, 2)
        )
    return threads


def assert_holds_three_ways(execute_calls, third=False, **kwargs):
    kernel, forwarded = run_holds(
        "hyper", "kernel", hold_threads(third), **kwargs
    )
    assert not execute_calls
    general, general_forwarded = run_holds(
        "hyper", "general", hold_threads(third), **kwargs
    )
    reference, reference_forwarded = run_holds(
        "hyper", "reference", hold_threads(third), **kwargs
    )
    assert general_forwarded == reference_forwarded == [0] * len(general)
    assert kernel == general
    assert kernel == reference
    return kernel, forwarded


def test_until_cycle_inside_a_fast_forward(execute_calls):
    # The receiver sleeps from about 100 to 700 cycles, so the sender is
    # fast-forwarding at 400; the second run carries the cut hold on.
    states, forwarded = assert_holds_three_ways(
        execute_calls,
        until_cycles=(400.0, 3.5e4, None),
        faults=[lambda: InterruptBurstFault(rate_per_mcycle=200.0)],
    )
    first = states[0]
    assert 400.0 <= first["ready_at"][0] < 440.0
    assert all(first["alive"])
    assert 0 < forwarded[0] < forwarded[-1]
    assert not any(states[-1]["alive"])


@pytest.mark.parametrize("first", ["kernel", "general"])
def test_hand_over_across_runs(execute_calls, first):
    # The first run ends inside a sender hold; the next runs go on with
    # it from the thread's ``hold_position`` on the other route, and the
    # machine ends as after general-route runs alone.
    second = "general" if first == "kernel" else "kernel"
    until_cycles = (400.0, 3.5e4, None)
    general, _ = run_holds(
        "hyper", "general", hold_threads(), until_cycles=until_cycles
    )
    calls = len(execute_calls)
    threads = hold_threads()
    handed, forwarded = run_holds(
        "hyper", f"{first}-{second}", threads, until_cycles=until_cycles
    )
    assert general[0]["holds"][0][0] is not None
    assert handed == general
    if first == "kernel":
        assert forwarded[0] > 0 and forwarded[-1] == forwarded[0]
    else:
        # Only the first run left the kernel, and its hold went on in it.
        assert forwarded[0] == 0 and forwarded[-1] > 0
        assert len(execute_calls) - calls < 100
    assert not any(handed[-1]["alive"])


def test_three_threads(execute_calls):
    # Three alive threads: a fast-forward skips three draws per op.
    states, forwarded = assert_holds_three_ways(execute_calls, third=True)
    assert forwarded[-1] > 100
    assert states[-1]["counters"][0][0][2] > 100


def test_obs_hit_totals_match_with_fast_forward():
    """Fast-forwarded hits reach the metrics as the general route's do."""
    snapshots = []
    for mode in ("kernel", "general", "reference"):
        session = ObsSession(trace_depth=0)
        with observe(session):
            state, _, forwarded, _ = run_protocol_watched(
                with_fractional_latencies(INTEL_E5_2690), 1, mode, d=6
            )
        snapshots.append((session.metrics.snapshot(), state, forwarded))
    (kernel, kernel_state, forwarded), general, reference = snapshots
    assert forwarded > 1000
    counters = kernel["counters"]
    assert counters["cache.l1.hits"] > 1000
    assert kernel == general[0] == reference[0]
    assert kernel_state == general[1] == reference[1]


class DrawLog(random.Random):
    """The scheduler's RNG, logging each call with the alive threads.

    ``calls`` holds ``(token, alive)``: ``r`` for ``random()``, ``B``
    for ``getrandbits(128)`` and ``<k>`` for ``getrandbits(k)``.
    """

    def __init__(self, source, threads):
        super().__init__()
        self.setstate(source.getstate())
        self.threads = threads
        self.calls = []

    def _log(self, token):
        self.calls.append((token, sum(t.alive for t in self.threads)))

    def random(self):
        self._log("r")
        return super().random()

    def getrandbits(self, k):
        self._log("B" if k == 128 else f"<{k}>")
        return super().getrandbits(k)


class TestPickDrawCalls:
    """The pick's exact RNG calls in one small hyper-threaded transfer.

    A two-thread step whose clocks differ makes one ``getrandbits(128)``
    call and one ``random()`` call (its jitter), fast-forwarded ops
    included; going back to one ``random()`` per alive thread fails here,
    not only in the benchmark.
    """

    def test_two_thread_steps_take_one_getrandbits_and_one_random(self):
        machine = Machine(INTEL_E5_2690, rng=5, engine="fast")
        channel = SharedMemoryLRUChannel.build(
            INTEL_E5_2690.hierarchy.l1, 1, d=4
        )
        protocol = CovertChannelProtocol(
            machine, channel, ProtocolConfig(ts=6000, tr=600)
        )
        captured = {}
        hyper_threaded = machine.hyper_threaded

        def capture(threads):
            scheduler = captured["scheduler"] = hyper_threaded(threads)
            scheduler.rng = DrawLog(scheduler.rng, scheduler.threads)
            return scheduler

        machine.hyper_threaded = capture
        protocol.run_hyper_threaded([1, 0, 1, 1, 0, 0, 1, 0])
        scheduler = captured["scheduler"]
        assert scheduler._inlinable()
        calls = scheduler.rng.calls
        two = "".join(token for token, alive in calls if alive == 2)
        one = "".join(token for token, alive in calls if alive == 1)
        assert len(two) + len(one) == len(calls)
        # Both threads start at cycle 0: the first step is the exact
        # tie (two draws, then the jitter).  Every later step is one
        # getrandbits(128) and one jitter draw, and the step whose
        # program ends draws no jitter.
        assert re.fullmatch(r"rrr(?:Br)*B", two)
        assert two.count("r") == two.count("B") + 2
        assert two.count("B") > 1000
        # One thread alive: one tie-break draw and one jitter per step,
        # and one draw for the step that ends the last program.
        assert re.fullmatch(r"(?:rr)*r", one)
