"""The time-sliced slice kernel is the general per-op loop, only faster.

``TimeSlicedScheduler`` runs loop-program threads (the constant sender
and the background noise) through a kernel with the L1 hit path (the
AMD utag check included) inlined and its L1 misses finished by the fast
engine's one miss routine.  Wrapping ``scheduler._execute`` on the
instance — what the sanitizer does — forces the general loop, so each
test runs the same point both ways and requires the same final machine:
every level's lines, replacement states and counters, every thread's
``ready_at``, the scheduler's and noise threads' RNG states, the
observations and ``total_cycles``.  The general loop shares the miss
routine, so the miss-path and way-predictor tests also run on the
reference engine, the oracle.
"""

import dataclasses
import functools
import random

import pytest

from repro.cache.cache import SetAssociativeCache
from repro.cache.prefetcher import StridePrefetcher
from repro.cache.way_predictor import WayPredictor
from repro.channels.algorithm1 import SharedMemoryLRUChannel
from repro.channels.protocol import CovertChannelProtocol, ProtocolConfig
from repro.common.errors import SimulationError
from repro.common.types import AccessType
from repro.faults.interrupts import InterruptBurstFault
from repro.obs.session import ObsSession, observe
from repro.sim.fastpath import FastSetAssociativeCache
from repro.sim.machine import Machine
from repro.sim.ops import Access, Compute, ReadTSC
from repro.sim.scheduler import _L1_PROBE
from repro.sim.specs import (
    AMD_EPYC_7571,
    INTEL_E3_1245V5,
    INTEL_E5_2690,
    INTEL_E5_2690_3LEVEL,
)
from repro.sim.thread import Choose, LoopProgram, SimThread
from repro.sim.tracing import AccessTracer

SAMPLES = 12
QUANTUM = 4.0e4


class TestLoopProgram:
    def test_generator_cycles_and_restarts(self):
        ops = [Access(0), Access(64), Compute(5.0)]
        program = LoopProgram(ops)
        steps = program()
        assert [next(steps) for _ in range(7)] == ops * 2 + ops[:1]
        assert program.position == 1
        assert next(program()) == ops[0]

    def test_generator_reads_position_on_every_step(self):
        ops = [Access(0), Access(64), Compute(5.0)]
        program = LoopProgram(ops)
        steps = program()
        next(steps)
        program.position = 2  # as the slice kernel leaves it
        assert next(steps) == ops[2]
        assert next(steps) == ops[0]

    def test_choose_draws_what_its_rngs_choice_draws(self):
        options = [Access(64 * i) for i in range(10)]
        program = LoopProgram([Choose(options, random.Random(5)), Compute(1.0)])
        steps = program()
        drawn = [next(steps) for _ in range(4000)][::2]
        expected = random.Random(5)
        assert drawn == [expected.choice(options) for _ in range(2000)]

    def test_empty_programs_rejected(self):
        with pytest.raises(SimulationError):
            LoopProgram([])
        with pytest.raises(SimulationError):
            Choose([], random.Random(1))

    def test_runs_under_the_hyper_threaded_scheduler(self):
        machine = Machine(INTEL_E5_2690, rng=3, engine="fast")
        thread = SimThread("loop", LoopProgram([Access(0), Compute(10.0)]))
        end = machine.hyper_threaded([thread]).run(until_cycle=500.0)
        assert end >= 500.0
        assert machine.hierarchy.l1.counters.references[0] > 10

    def test_clock_dependent_ops_stay_on_general_loop(self):
        machine = Machine(INTEL_E5_2690, rng=3, engine="fast")
        thread = SimThread("tsc", LoopProgram([ReadTSC(), Compute(10.0)]))
        scheduler = machine.time_sliced(
            [thread], quantum=1000.0, switch_cost=0.0
        )
        assert scheduler._kernel_steps() == {}
        scheduler.run(until_cycle=5000.0)
        assert thread.ready_at >= 5000.0


def with_l1_policy(spec, policy):
    hierarchy = spec.hierarchy
    l1 = dataclasses.replace(hierarchy.l1, policy=policy)
    return dataclasses.replace(
        spec, hierarchy=dataclasses.replace(hierarchy, l1=l1)
    )


def force_general(scheduler):
    """Install a pass-through instance wrapper, as the sanitizer does."""
    execute = scheduler._execute

    def wrapped(thread, op, now):
        return execute(thread, op, now)

    scheduler._execute = wrapped


def machine_state(machine, scheduler):
    """Everything a time-sliced run leaves behind in the simulator."""
    hierarchy = machine.hierarchy
    levels = [hierarchy.l1, hierarchy.l2]
    if hierarchy.llc is not None:
        levels.append(hierarchy.llc)
    threads = scheduler.threads
    return {
        "lines": [
            [
                [
                    (
                        l.valid,
                        l.tag,
                        l.address,
                        l.dirty,
                        l.locked,
                        l.utag,
                        l.owner_space,
                    )
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
        "ready_at": [t.ready_at for t in threads],
        "positions": [
            t.program_factory.position
            for t in threads
            if isinstance(t.program_factory, LoopProgram)
        ],
        "scheduler_rng": scheduler.rng.getstate(),
        "choice_rngs": [
            op.rng.getstate()
            for t in threads
            if isinstance(t.program_factory, LoopProgram)
            for op in t.program_factory.ops
            if isinstance(op, Choose)
        ],
    }


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
    """One time-sliced point; returns (final state, kernel slice owners).

    ``mode`` is ``kernel``, ``general``, or ``<first>-<second>`` to split
    the run into two ``run()`` calls, switching to the general loop (or
    staying on the kernel) between them.
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
    kernel_slices = []
    build = machine.time_sliced

    def time_sliced(threads, **kwargs):
        scheduler = build(threads, **kwargs)
        run_loop = scheduler._run_loop

        def counted(*args):
            kernel_slices.append(args[0].name)
            return run_loop(*args)

        scheduler._run_loop = counted
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
    state = machine_state(machine, captured["scheduler"])
    state["observations"] = [
        (o.sequence, o.latency, o.timestamp) for o in run.observations
    ]
    state["total_cycles"] = run.total_cycles
    return state, kernel_slices


def assert_kernel_matches_general(spec, bit, **kwargs):
    kernel, kernel_slices = run_point(spec, bit, "kernel", **kwargs)
    general, general_slices = run_point(spec, bit, "general", **kwargs)
    assert kernel_slices, "the kernel never ran"
    assert not general_slices, "the general loop was not forced"
    assert kernel == general
    return kernel


@pytest.mark.parametrize("bit", [0, 1])
@pytest.mark.parametrize(
    "spec", [INTEL_E5_2690, INTEL_E3_1245V5], ids=["fig6", "fig15"]
)
def test_figure_configs(spec, bit):
    assert_kernel_matches_general(spec, bit)


@pytest.mark.parametrize("bit", [0, 1])
def test_shared_address_space(bit):
    assert_kernel_matches_general(INTEL_E5_2690, bit, sender_space=0, d=4)


@pytest.mark.parametrize("sender_space", [0, 1], ids=["fig8", "cross-space"])
@pytest.mark.parametrize("bit", [0, 1])
def test_amd_way_predictor_runs_in_place(bit, sender_space):
    # The AMD L1 is plain apart from its way predictor, so the loop
    # threads' hits (utag check included) and misses run in the kernel.
    # Across address spaces the sender's shared-line hits mispredict.
    kernel = assert_kernel_matches_general(
        AMD_EPYC_7571, bit, sender_space=sender_space
    )
    reference, slices = run_point(
        AMD_EPYC_7571, bit, "kernel", sender_space=sender_space,
        engine="reference",
    )
    assert not slices
    assert kernel == reference


@pytest.mark.parametrize("policy", ["lru", "tree-plru", "bit-plru"])
@pytest.mark.parametrize("bit", [0, 1])
def test_l1_policies(policy, bit):
    assert_kernel_matches_general(
        with_l1_policy(INTEL_E5_2690, policy), bit, tr=1.0e5
    )


@pytest.mark.parametrize("bit", [0, 1])
def test_noise_working_set_larger_than_l1(bit):
    # 1024 lines over a 512-line L1: the noise thread misses and evicts
    # inside kernel slices, so the miss route runs mid-slice.
    state = assert_kernel_matches_general(
        INTEL_E5_2690, bit, noise_lines=1024, noise_processes=2
    )
    l1_misses = state["counters"][0][1]
    assert l1_misses.get(10, 0) > 100 and l1_misses.get(11, 0) > 100


@pytest.mark.parametrize("first", ["kernel", "general"])
def test_hand_over_across_runs(first):
    # The general loop resumes the loop program's generator where the
    # kernel left ``position`` (and the other way round).
    reference, _ = run_point(INTEL_E5_2690, 1, "general-general")
    if first == "kernel":
        handed, slices = run_point(INTEL_E5_2690, 1, "kernel-general")
    else:
        handed, slices = run_point(INTEL_E5_2690, 1, "general-kernel")
    assert slices
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
    _, slices = run_point(INTEL_E5_2690, 1, "kernel", **kwargs)
    assert not slices


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
            _, slices = run_point(
                spec, bit, mode, tr=1.0e5, noise_lines=1024
            )
        assert bool(slices) == (mode == "kernel")
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
                LoopProgram(
                    [
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
                LoopProgram([Access(0x1000), Access(0x3000), Compute(50.0)]),
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
        state = machine_state(machine, scheduler)
        state["end"] = end
        state["metrics"] = session.metrics.snapshot()
        return state

    kernel, general = run("kernel"), run("general")
    assert kernel["metrics"]["counters"]["cache.l1.misses"] > 100
    assert kernel == general


# ----------------------------------------------------------------------
# The shared L1-miss routine and the way predictor, against the oracle
# ----------------------------------------------------------------------

#: L1 stride (64 sets of 64 B): lines this far apart share an L1 set.
L1_STRIDE = 64 * 64
#: L2 stride of the Intel specs (512 sets): lines share an L2 set too.
L2_STRIDE = 512 * 64


def run_loops(spec, programs, mode, *, utag_bits=None, until=3.0e5):
    """Run loop programs in ``mode`` under an observing session.

    ``programs`` holds ``(name, make_ops, thread_id, address_space)``;
    ``make_ops()`` builds the program's ops afresh (so every run draws
    from its own ``Choose`` RNGs).  ``mode`` is ``kernel``, ``general``
    (the fast engine with the general loop forced) or ``reference``
    (the reference engine).  ``utag_bits`` builds the L1 with a way
    predictor of that width.  Returns the final state (the metrics
    snapshot included), the accesses that reached
    ``hierarchy._demand_access``, the number of in-place misses and the
    kernel steps' kinds.
    """
    engine = "reference" if mode == "reference" else "fast"
    l1 = None
    if utag_bits is not None:
        cache_cls = (
            SetAssociativeCache if engine == "reference"
            else FastSetAssociativeCache
        )
        l1 = cache_cls(
            spec.hierarchy.l1,
            rng=1,
            way_predictor=WayPredictor(utag_bits=utag_bits),
        )
    session = ObsSession(trace_depth=0)
    with observe(session):
        machine = Machine(spec, rng=3, engine=engine, l1_cache=l1)
        hierarchy = machine.hierarchy
        demanded = []
        demand_access = hierarchy._demand_access

        def counted_demand(access, count=True):
            outcome = demand_access(access, count=count)
            demanded.append((access, count, outcome))
            return outcome

        hierarchy._demand_access = counted_demand
        misses = []
        if hierarchy._l1_miss is not None:
            l1_miss = hierarchy._l1_miss

            def counted_miss(*args):
                misses.append(args[1])
                return l1_miss(*args)

            hierarchy._l1_miss = counted_miss
        threads = [
            SimThread(
                name, LoopProgram(make_ops()), thread_id=tid, address_space=space
            )
            for name, make_ops, tid, space in programs
        ]
        scheduler = machine.time_sliced(
            threads, quantum=5000.0, switch_cost=100.0
        )
        kinds = {
            step[0]
            for steps in scheduler._kernel_steps().values()
            for step in steps
        }
        if mode == "general":
            force_general(scheduler)
        end = scheduler.run(until_cycle=until)
    state = machine_state(machine, scheduler)
    state["end"] = end
    state["metrics"] = session.metrics.snapshot()
    return state, demanded, misses, kinds


def assert_loops_match_oracle(spec, programs, **kwargs):
    """Kernel, forced general loop and reference engine agree.

    Returns the kernel's final state and every access of the reference
    run, which all reach ``_demand_access``, with its outcome.
    """
    kernel, demanded, misses, kinds = run_loops(
        spec, programs, "kernel", **kwargs
    )
    general, general_demanded, _, _ = run_loops(
        spec, programs, "general", **kwargs
    )
    reference, reference_demanded, _, _ = run_loops(
        spec, programs, "reference", **kwargs
    )
    assert _L1_PROBE in kinds, "no access was lowered to an in-place probe"
    assert misses, "no L1 miss was finished in place"
    # Exactly the uncounted, locking, unlocking and speculative
    # accesses reach the hierarchy's demand path from the kernel.
    assert demanded == [
        entry
        for entry in general_demanded
        if not entry[1]
        or entry[0].locked
        or entry[0].unlock
        or entry[0].speculative
    ]
    assert len(general_demanded) > len(demanded)
    assert kernel == general
    assert kernel == reference
    return kernel, reference_demanded


def walker_ops():
    """L1 misses that hit L2, and memory fetches that evict from L2.

    Twelve lines in one L1 set (eight ways) but different L2 sets miss
    L1 and hit L2 after the first pass; a ``Choose`` over twelve lines
    in one L2 set misses both.  Every other line is stored to, so fills
    set dirty bits.
    """
    kinds = (AccessType.STORE, AccessType.LOAD)
    ops = [
        Access((1 << 21) + L1_STRIDE * i, access_type=kinds[i % 2])
        for i in range(12)
    ]
    l2_lines = [Access((1 << 22) + 64 + L2_STRIDE * i) for i in range(12)]
    ops += [Choose(l2_lines, random.Random(8)), Compute(3.5)]
    return ops


def flagged_ops():
    """Hits plus locked, unlock, speculative and uncounted accesses."""
    return [
        Access(0x100040),
        Access(0x100080, locked=True),
        Access(0x100080),
        Access(0x100080, unlock=True),
        Access(0x1000C0, speculative=True),
        Access(0x100100 + L1_STRIDE, count=False),
        Compute(20.0),
    ]


MISS_PROGRAMS = [("walker", walker_ops, 0, 0), ("flags", flagged_ops, 1, 1)]


def test_miss_paths_match_the_reference():
    state, _ = assert_loops_match_oracle(INTEL_E5_2690, MISS_PROGRAMS)
    (_, l1_misses), (_, l2_misses) = state["counters"]
    # L1 misses that hit L2, and L2 misses beyond the 24 cold ones.
    assert l1_misses[0] > l2_misses[0] > 24
    # The store sets dirty bits at both levels.
    for level in state["lines"][:2]:
        assert any(line[3] for lines in level for line in lines)
    counters = state["metrics"]["counters"]
    assert counters["cache.l2.hits"] and counters["cache.memory.fetches"]


def test_llc_miss_paths_match_the_reference():
    state, _ = assert_loops_match_oracle(INTEL_E5_2690_3LEVEL, MISS_PROGRAMS)
    counters = state["metrics"]["counters"]
    assert counters["cache.llc.hits"] and counters["cache.llc.misses"]


def sharer_ops(lines, stride):
    """Shared lines walked in a stride: hits, misses and fills mixed."""

    def make_ops():
        ops = []
        for i in range(len(lines)):
            ops += [Access(lines[i * stride % len(lines)]), Compute(7.0)]
        return ops

    return make_ops


def utag_programs(sender_space):
    # Ten lines in one L1 set keep missing and refilling with fresh
    # utags; four in another stay resident, so their final utags and
    # owners are the last retrain's.
    lines = [(1 << 21) + L1_STRIDE * i for i in range(10)]
    lines += [(1 << 21) + 64 + L1_STRIDE * i for i in range(4)]
    return [
        ("sender", sharer_ops(lines, 3), 0, sender_space),
        ("receiver", sharer_ops(lines[2:], 1), 1, 0),
    ]


def mispredicts(demanded):
    return sum(1 for _, _, outcome in demanded if outcome.was_way_predictor_miss)


@pytest.mark.parametrize(
    "sender_space,utag_bits",
    [(0, None), (1, None), (1, 1)],
    ids=["same-space", "cross-space", "utag-collisions"],
)
def test_way_predictor_matches_the_reference(sender_space, utag_bits):
    state, demanded = assert_loops_match_oracle(
        AMD_EPYC_7571, utag_programs(sender_space), utag_bits=utag_bits
    )
    if sender_space == 0:
        assert mispredicts(demanded) == 0
    else:
        assert mispredicts(demanded) > 20
    # Every fill stored its line's utag.
    l1_lines = [line for lines in state["lines"][0] for line in lines]
    assert all(line[5] is not None for line in l1_lines if line[0])


def test_one_bit_utags_collide_across_spaces():
    # With one utag bit some pages hash alike in both spaces, so some
    # cross-space hits predict correctly.
    _, wide, _, _ = run_loops(AMD_EPYC_7571, utag_programs(1), "reference")
    _, narrow, _, _ = run_loops(
        AMD_EPYC_7571, utag_programs(1), "reference", utag_bits=1
    )
    assert 0 < mispredicts(narrow) < mispredicts(wide)
