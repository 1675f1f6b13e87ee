"""The time-sliced slice kernel is the general per-op loop, only faster.

``TimeSlicedScheduler`` runs loop-program threads (the constant sender
and the background noise) through a kernel with the L1 hit path
inlined.  Wrapping ``scheduler._execute`` on the instance — what the
sanitizer does — forces the general loop, so each test runs the same
point both ways and requires the same final machine: every level's
lines, replacement states and counters, every thread's ``ready_at``,
the scheduler's and noise threads' RNG states, the observations and
``total_cycles``.
"""

import dataclasses
import functools
import random

import pytest

from repro.cache.prefetcher import StridePrefetcher
from repro.channels.algorithm1 import SharedMemoryLRUChannel
from repro.channels.protocol import CovertChannelProtocol, ProtocolConfig
from repro.common.errors import SimulationError
from repro.common.types import AccessType
from repro.faults.interrupts import InterruptBurstFault
from repro.obs.session import ObsSession, observe
from repro.sim.machine import Machine
from repro.sim.ops import Access, Compute, ReadTSC
from repro.sim.specs import AMD_EPYC_7571, INTEL_E3_1245V5, INTEL_E5_2690
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

    def test_choose_draws_with_its_choice(self):
        options = [Access(64 * i) for i in range(10)]
        program = LoopProgram(
            [Choose(options, random.Random(5).choice), Compute(1.0)]
        )
        steps = program()
        drawn = [next(steps) for _ in range(40)][::2]
        expected = random.Random(5)
        assert drawn == [expected.choice(options) for _ in range(20)]

    def test_empty_programs_rejected(self):
        with pytest.raises(SimulationError):
            LoopProgram([])
        with pytest.raises(SimulationError):
            Choose([], random.Random(1).choice)

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
        "ready_at": [t.ready_at for t in threads],
        "positions": [
            t.program_factory.position
            for t in threads
            if isinstance(t.program_factory, LoopProgram)
        ],
        "scheduler_rng": scheduler.rng.getstate(),
        "choice_rngs": [
            op.choice.__self__.getstate()
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
def test_amd_way_predictor_route(bit, sender_space):
    # Every AMD access goes through hierarchy.access (the utag check);
    # the kernel only skips the generator and _execute.  Across address
    # spaces the sender's shared-line hits mispredict the utag.
    assert_kernel_matches_general(
        AMD_EPYC_7571, bit, sender_space=sender_space
    )


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
                        Choose(lines, random.Random(2).choice),
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
