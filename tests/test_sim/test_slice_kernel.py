"""The time-sliced slice kernel is the general per-op loop, only faster.

``TimeSlicedScheduler`` runs holds without a ``ReadTSC`` (the constant
sender and the background noise) through a kernel with the L1 hit path
(the AMD utag check and the in-place ``TabledPolicy`` touch included)
inlined and its L1 misses finished by the fast engine's one miss
routine; a hold at a cache fixed point fast-forwards to the end of its
slice.  Wrapping ``scheduler._execute`` on the instance — what the
sanitizer does — forces the general loop, so each test runs the same
point both ways, many also on the reference engine, and requires the
same final machine
(:func:`~tests.test_sim.kernel_harness.machine_state`), the
observations and ``total_cycles``.  Those run through
:func:`~tests.test_sim.kernel_harness.watch` also check where the
fast-forward ran.  The miss routine and the way predictor are checked
against the reference engine for both kernels in
``test_kernel_oracle.py``.
"""

import functools
import math
import random

import pytest

from repro.cache.prefetcher import StridePrefetcher
from repro.channels.algorithm1 import SharedMemoryLRUChannel
from repro.channels.protocol import CovertChannelProtocol, ProtocolConfig
from repro.common.types import AccessType
from repro.faults.interrupts import InterruptBurstFault
from repro.obs.session import ObsSession, observe
from repro.sim.machine import Machine
from repro.sim.ops import Access, Choose, Compute, HoldLoop, ReadTSC
from repro.sim.specs import (
    AMD_EPYC_7571,
    INTEL_E3_1245V5,
    INTEL_E5_2690,
)
from repro.sim.thread import SimThread
from repro.sim.tracing import AccessTracer
from tests.test_sim.kernel_harness import (
    L1_STRIDE,
    force_general,
    holding,
    machine_state,
    run_holds,
    watch,
    with_fractional_latencies,
    with_l1,
)

SAMPLES = 12
QUANTUM = 4.0e4


class TestHoldThreads:
    """Threads that run one endless hold, as the time-sliced ones do."""

    def test_per_op_route_cycles_and_restarts(self):
        ops = [Access(0), Access(64), Compute(5.0)]
        thread = SimThread("loop", holding(lambda: ops))
        thread.start()
        thread.hold = next(thread._program)
        assert [thread.next_hold_op() for _ in range(7)] == ops * 2 + ops[:1]
        assert thread.hold_position == 1
        thread.start()
        assert thread.hold is None and thread.hold_position == 0

    def test_per_op_route_reads_position_on_every_step(self):
        ops = [Access(0), Access(64), Compute(5.0)]
        thread = SimThread("loop", holding(lambda: ops))
        thread.hold = HoldLoop(ops, math.inf)
        thread.next_hold_op()
        thread.hold_position = 2  # as the slice kernel leaves it
        assert thread.next_hold_op() == ops[2]
        assert thread.next_hold_op() == ops[0]

    def test_runs_under_the_hyper_threaded_scheduler(self):
        machine = Machine(INTEL_E5_2690, rng=3, engine="fast")
        thread = SimThread(
            "loop", holding(lambda: [Access(0), Compute(10.0)])
        )
        end = machine.hyper_threaded([thread]).run(until_cycle=500.0)
        assert end >= 500.0
        assert machine.hierarchy.l1.counters.references[0] > 10

    def test_clock_dependent_holds_stay_on_general_loop(self):
        machine = Machine(INTEL_E5_2690, rng=3, engine="fast")
        thread = SimThread(
            "tsc", holding(lambda: [ReadTSC(), Compute(10.0)])
        )
        scheduler = machine.time_sliced(
            [thread], quantum=1000.0, switch_cost=0.0
        )
        lowering = scheduler._lower_hold(
            HoldLoop([ReadTSC(), Compute(10.0)], math.inf), 0, {}
        )
        assert lowering.reads_tsc
        slices = count_kernel_slices(scheduler)
        scheduler.run(until_cycle=5000.0)
        assert thread.ready_at >= 5000.0
        assert not slices


def count_kernel_slices(scheduler):
    """Record the name of each thread whose slice runs in the kernel."""
    slices = []
    run_loop = scheduler._run_loop

    def counted(*args):
        slices.append(args[0].name)
        return run_loop(*args)

    scheduler._run_loop = counted
    return slices


def run_point(
    spec,
    bit,
    mode,
    *,
    tr=6.0e4,
    d=8,
    sender_space=1,
    noise_lines=256,
    noise_processes=1,
    engine="fast",
    prepare=None,
):
    """One time-sliced point; returns (final state, what was watched).

    ``mode`` is ``kernel``, ``general``, or ``<first>-<second>`` to split
    the run into two ``run()`` calls, switching to the general loop (or
    staying on the kernel) between them.  The watched dict holds
    ``slices``, the owner of each slice run in the kernel, and
    ``forwarded``, the count of fast-forwarded ops (see :func:`watch`).
    """
    machine = Machine(spec, rng=3, engine=engine)
    if prepare is not None:
        prepare(machine)
    channel = SharedMemoryLRUChannel.build(spec.hierarchy.l1, 1, d=d)
    protocol = CovertChannelProtocol(
        machine,
        channel,
        ProtocolConfig(ts=tr * 10, tr=tr, sender_space=sender_space),
    )
    protocol._noise_program = functools.partial(
        protocol._noise_program, working_set_lines=noise_lines
    )
    captured = {}
    watched = {}
    build = machine.time_sliced

    def time_sliced(threads, **kwargs):
        scheduler = build(threads, **kwargs)
        watched["slices"] = count_kernel_slices(scheduler)
        watch(scheduler, watched)
        first, _, second = mode.partition("-")
        if first == "general":
            force_general(scheduler)
        if second:
            run = scheduler.run

            def split_run(until_cycle):
                run(until_cycle=until_cycle / 2)
                if second != first:
                    if second == "general":
                        force_general(scheduler)
                    else:
                        del scheduler._execute
                return run(until_cycle=until_cycle)

            scheduler.run = split_run
        captured["scheduler"] = scheduler
        return scheduler

    machine.time_sliced = time_sliced
    run = protocol.run_time_sliced(
        bit, samples=SAMPLES, quantum=QUANTUM, noise_processes=noise_processes
    )
    state = machine_state(machine.hierarchy, captured["scheduler"])
    state["observations"] = [
        (o.sequence, o.latency, o.timestamp) for o in run.observations
    ]
    state["total_cycles"] = run.total_cycles
    return state, watched


def assert_kernel_matches_general(spec, bit, **kwargs):
    """The kernel and the forced general loop agree.

    Returns the kernel's state and its count of fast-forwarded ops.
    """
    kernel, kernel_watched = run_point(spec, bit, "kernel", **kwargs)
    general, general_watched = run_point(spec, bit, "general", **kwargs)
    assert kernel_watched["slices"], "the kernel never ran"
    assert not general_watched["slices"], "the general loop was not forced"
    assert general_watched["forwarded"] == 0
    assert kernel == general
    return kernel, kernel_watched["forwarded"]


def assert_three_ways(spec, bit, **kwargs):
    """Kernel, forced general loop and reference engine agree.

    Returns the kernel's state and its count of fast-forwarded ops;
    neither other route fast-forwards.
    """
    kernel, forwarded = assert_kernel_matches_general(spec, bit, **kwargs)
    reference, watched = run_point(
        spec, bit, "kernel", engine="reference", **kwargs
    )
    assert not watched["slices"] and watched["forwarded"] == 0
    assert kernel == reference
    return kernel, forwarded


def test_lowered_need_of_the_constant_senders():
    # ``need`` counts the ops back to the oldest probe of the cycle; a
    # cycle without a probe is a fixed point at once.
    machine = Machine(INTEL_E5_2690, rng=3, engine="fast")
    scheduler = machine.time_sliced([], quantum=QUANTUM)
    for ops, needs in (
        ([Access(64), Compute(500.0)], [2, 1]),
        ([Compute(500.0)], [0]),
    ):
        steps = scheduler._lower_hold(HoldLoop(ops, math.inf), 1, {}).steps
        assert [step[5] for step in steps] == needs
        assert all(step[7] for step in steps)


@pytest.mark.parametrize("bit", [0, 1])
@pytest.mark.parametrize(
    "spec", [INTEL_E5_2690, INTEL_E3_1245V5], ids=["fig6", "fig15"]
)
def test_figure_configs(spec, bit):
    # Both constant senders fast-forward: bit 1's hold is a hit and a
    # Compute, bit 0's a lone Compute.
    _, forwarded = assert_three_ways(spec, bit)
    assert forwarded > 0


@pytest.mark.parametrize("bit", [0, 1])
def test_shared_address_space(bit):
    assert_kernel_matches_general(INTEL_E5_2690, bit, sender_space=0, d=4)


@pytest.mark.parametrize("sender_space", [0, 1], ids=["fig8", "cross-space"])
@pytest.mark.parametrize("bit", [0, 1])
def test_amd_way_predictor_runs_in_place(bit, sender_space):
    # The AMD L1 is plain apart from its way predictor, so the loop
    # threads' hits (utag check included) and misses run in the kernel.
    # Across address spaces the sender's shared-line hits mispredict.
    assert_three_ways(AMD_EPYC_7571, bit, sender_space=sender_space)


def test_random_l1_policy_never_fast_forwards():
    # Hits touch an untabled policy, so no hold is trackable.
    _, forwarded = assert_three_ways(
        with_l1(INTEL_E5_2690, policy="random"), 1
    )
    assert forwarded == 0


@pytest.mark.parametrize("policy", ["lru", "tree-plru", "bit-plru"])
@pytest.mark.parametrize("bit", [0, 1])
def test_l1_policies(policy, bit):
    assert_kernel_matches_general(
        with_l1(INTEL_E5_2690, policy=policy), bit, tr=1.0e5
    )


@pytest.mark.parametrize("bit", [0, 1])
def test_noise_working_set_larger_than_l1(bit):
    # 1024 lines over a 512-line L1: the noise thread misses and evicts
    # inside kernel slices, so the miss route runs mid-slice.
    state, _ = assert_kernel_matches_general(
        INTEL_E5_2690, bit, noise_lines=1024, noise_processes=2
    )
    l1_misses = state["counters"][0][1]
    assert l1_misses.get(10, 0) > 100 and l1_misses.get(11, 0) > 100


@pytest.mark.parametrize("first", ["kernel", "general"])
def test_hand_over_across_runs(first):
    # The general loop goes on with the hold where the kernel left the
    # thread's ``hold_position`` (and the other way round).
    reference, _ = run_point(INTEL_E5_2690, 1, "general-general")
    if first == "kernel":
        handed, watched = run_point(INTEL_E5_2690, 1, "kernel-general")
    else:
        handed, watched = run_point(INTEL_E5_2690, 1, "general-kernel")
    assert watched["slices"] and watched["forwarded"]
    assert handed == reference


def test_kernel_then_kernel_equals_one_general_split():
    kernel, _ = run_point(INTEL_E5_2690, 1, "kernel-kernel")
    general, _ = run_point(INTEL_E5_2690, 1, "general-general")
    assert kernel == general


def attach_fault(machine):
    machine.faults.attach(InterruptBurstFault(rate_per_mcycle=5.0))


def attach_tracer(machine):
    AccessTracer.attach(machine.hierarchy)


def attach_prefetcher(machine):
    machine.hierarchy.prefetcher = StridePrefetcher()


@pytest.mark.parametrize(
    "kwargs",
    [
        {"engine": "reference"},
        {"prepare": attach_fault},
        {"prepare": attach_tracer},
        {"prepare": attach_prefetcher},
    ],
    ids=["reference-engine", "fault-model", "access-tracer", "prefetcher"],
)
def test_observable_runs_stay_on_general_loop(kwargs):
    _, watched = run_point(INTEL_E5_2690, 1, "kernel", **kwargs)
    assert not watched["slices"] and watched["forwarded"] == 0


@pytest.mark.parametrize(
    "spec",
    [INTEL_E5_2690, with_fractional_latencies(INTEL_E5_2690)],
    ids=["fig6", "fractional-latencies"],
)
@pytest.mark.parametrize("bit", [0, 1])
def test_obs_metrics_identical(bit, spec):
    """Under an ObsSession the kernel reports the general loop's counts.

    ``sched.ops`` and ``sched.slices``, every ``cache.l1.*`` counter,
    the access-latency histogram and ``replacement.transitions`` must
    all match, so ``_metrics:`` digests do not move.
    """
    snapshots = []
    for mode in ("kernel", "general"):
        session = ObsSession(trace_depth=0)
        with observe(session):
            _, watched = run_point(
                spec, bit, mode, tr=1.0e5, noise_lines=1024
            )
        assert bool(watched["slices"]) == (mode == "kernel")
        snapshots.append(session.metrics.snapshot())
    kernel, general = snapshots
    counters = kernel["counters"]
    assert counters["sched.ops"] > 1000
    assert counters["sched.slices"] > 10
    assert counters["cache.l1.hits"] > 1000
    assert "replacement.transitions" in counters
    assert kernel["histograms"]["access.latency"]
    assert kernel == general


@pytest.mark.parametrize("invisible", [False, True])
def test_uncounted_store_and_speculative_accesses(invisible):
    """Loop ops the kernel must hand to the hierarchy, mixed with hits."""

    def run(mode):
        lines = [Access((1 << 20) + 64 * i) for i in range(600)]
        threads = [
            SimThread(
                "mixed",
                holding(
                    lambda: [
                        Access(0x1000, count=False),
                        Access(0x2000, access_type=AccessType.STORE),
                        Compute(7.25),
                        Access(0x3000, speculative=True),
                        Choose(lines, random.Random(2)),
                    ]
                ),
                thread_id=3,
                address_space=2,
            ),
            SimThread(
                "steady",
                holding(
                    lambda: [Access(0x1000), Access(0x3000), Compute(50.0)]
                ),
                thread_id=4,
            ),
        ]
        session = ObsSession(trace_depth=0)
        with observe(session):
            machine = Machine(
                INTEL_E5_2690,
                rng=3,
                engine="fast",
                invisible_speculation=invisible,
            )
            scheduler = machine.time_sliced(
                threads, quantum=3000.0, switch_cost=100.0
            )
            if mode == "general":
                force_general(scheduler)
            end = scheduler.run(until_cycle=2.0e5)
        state = machine_state(machine.hierarchy, scheduler)
        state["end"] = end
        state["metrics"] = session.metrics.snapshot()
        return state

    kernel, general = run("kernel"), run("general")
    assert kernel["metrics"]["counters"]["cache.l1.misses"] > 100
    assert kernel == general


# ----------------------------------------------------------------------
# A trackable hold's fast-forward inside its slice, three ways
# ----------------------------------------------------------------------

#: Lines of L1 sets 1 and 2.
SENDER_LINES = (64, 128)


def sender_ops(lines=SENDER_LINES):
    first, second = lines
    return [Access(first), Compute(30.0), Access(second), Compute(45.5)]


def evictor_ops():
    # Eight other lines in each sender line's set (eight ways): each
    # pass evicts both sender lines.
    lines = [
        (1 << 20) + line + L1_STRIDE * i
        for line in SENDER_LINES
        for i in range(8)
    ]
    return [Access(line) for line in lines] + [Compute(10.0)]


def slice_threads(evict, lines=SENDER_LINES):
    threads = [
        SimThread("sender", holding(lambda: sender_ops(lines)), 1, 1)
    ]
    if evict:
        threads.append(SimThread("evictor", holding(evictor_ops), 0, 0))
    return threads


def assert_slices_three_ways(evict, until_cycles, lines=SENDER_LINES):
    """Kernel, forced general loop and reference engine agree.

    Returns the kernel's states and fast-forwarded op counts after each
    run (see :func:`run_holds`), and the owner of each kernel slice.
    """
    captured = []
    kernel, forwarded = run_holds(
        "sliced",
        "kernel",
        slice_threads(evict, lines),
        until_cycles=until_cycles,
        prepare=lambda scheduler: captured.append(
            count_kernel_slices(scheduler)
        ),
    )
    general, general_forwarded = run_holds(
        "sliced",
        "general",
        slice_threads(evict, lines),
        until_cycles=until_cycles,
    )
    reference, reference_forwarded = run_holds(
        "sliced",
        "reference",
        slice_threads(evict, lines),
        until_cycles=until_cycles,
    )
    assert general_forwarded == reference_forwarded == [0] * len(general)
    assert kernel == general
    assert kernel == reference
    return kernel, forwarded, captured[0]


def test_slices_end_inside_a_fast_forward():
    # The first run is one slice, cut by ``until_cycle`` (a slice is at
    # least 4000 cycles); the second run's slices end by the quantum.
    # Both end inside a fast-forward, and only the first pass misses.
    states, forwarded, slices = assert_slices_three_ways(
        False, (3000.0, 3.0e4)
    )
    first = states[0]
    assert 3000.0 <= first["ready_at"][0] < 3045.5
    assert 0 < forwarded[0] < forwarded[1]
    assert len(slices) > 5
    references, misses = states[-1]["counters"][0]
    assert misses == {1: 2}
    # Each slice issues about one cycle before its fast-forward.
    assert 2 * references[1] - forwarded[1] < 8 * len(slices)


@pytest.mark.parametrize("first", ["kernel", "general"])
def test_cut_mid_fast_forward_resumes_on_the_other_route(first):
    # The first run ends inside the sender's fast-forward; the second
    # goes on from its ``hold_position`` on the other route.
    second = "general" if first == "kernel" else "kernel"
    until_cycles = (3000.0, 3.0e4)
    general, _ = run_holds(
        "sliced", "general", slice_threads(False), until_cycles=until_cycles
    )
    handed, forwarded = run_holds(
        "sliced",
        f"{first}-{second}",
        slice_threads(False),
        until_cycles=until_cycles,
    )
    assert general[0]["holds"][0][1] != 0
    assert handed == general
    if first == "kernel":
        assert forwarded[0] > 0 and forwarded[1] == forwarded[0]
    else:
        assert forwarded[0] == 0 and forwarded[1] > 0


def test_evicted_line_steps_a_fresh_cycle_each_slice():
    # The evictor's slices evict both sender lines, so every sender
    # slice starts with two misses before its fast-forward.
    states, forwarded, slices = assert_slices_three_ways(True, (2.0e5,))
    sender_slices = slices.count("sender")
    assert sender_slices > 10
    _, misses = states[-1]["counters"][0]
    assert misses[1] == 2 * sender_slices
    assert forwarded[-1] > 0


def test_hold_that_moves_its_policy_never_fast_forwards():
    # Two lines of one set: each hit moves the set's LRU order, so no
    # run of ops leaves the cache as it was.
    states, forwarded, slices = assert_slices_three_ways(
        False, (3.0e4,), lines=(64, 64 + L1_STRIDE)
    )
    assert slices and forwarded == [0]
    assert states[-1]["counters"][0][1] == {1: 2}
