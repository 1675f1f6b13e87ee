"""Shared harness for the scheduler kernel tests.

Each kernel test runs one scenario in a kernel and on the general
per-op route, forced by wrapping ``scheduler._execute`` on the instance
as the sanitizer does, and often on the reference engine, the oracle.
It then requires the same final machine (:func:`machine_state`).
``scheduler`` names the scheduler a scenario runs on: ``hyper``
(hyper-threaded) or ``sliced`` (time-sliced).
"""

import dataclasses
import math
import random

from repro.cache.cache import SetAssociativeCache
from repro.cache.way_predictor import WayPredictor
from repro.common.types import AccessType
from repro.obs.session import ObsSession, observe
from repro.sim import scheduler as scheduler_module
from repro.sim.fastpath import FastSetAssociativeCache
from repro.sim.machine import Machine
from repro.sim.ops import Access, Choose, Compute, HoldLoop
from repro.sim.specs import INTEL_E5_2690
from repro.sim.thread import SimThread

SCHEDULERS = ("hyper", "sliced")

#: Cycles a :func:`run_threads` scenario runs for.  Hyper-threaded
#: threads run side by side, time-sliced ones take turns, so the first
#: issues about as many ops in a third of the cycles.
UNTIL = {"hyper": 1.0e5, "sliced": 3.0e5}

#: L1 stride (64 sets of 64 B): lines this far apart share an L1 set.
L1_STRIDE = 64 * 64
#: L2 stride of the Intel specs (512 sets): lines share an L2 set too.
L2_STRIDE = 512 * 64


def force_general(scheduler):
    """Install a pass-through instance wrapper, as the sanitizer does."""
    execute = scheduler._execute

    def wrapped(thread, op, now):
        return execute(thread, op, now)

    scheduler._execute = wrapped


def watch(scheduler, watched):
    """Count fast-forwarded ops, and fault steps taken at a fixed point.

    In either kernel, only a fast-forward calls the scheduler module's
    ``islice`` (to walk its hold's cycle), so while ``scheduler`` runs
    that name is wrapped to count the ops it hands out:
    ``watched["forwarded"]`` is the number of ops fast-forwarded so far,
    over every run.  The pick's draws give no such signal: a two-thread
    step whose clocks differ takes its tie-break words with
    ``getrandbits`` on every route.  ``watched["fixed_faults"]`` counts
    the op kernel's fault-gate steps in which the picked thread's hold
    was at a fixed point: a fault falling due is what ended that
    thread's fast-forward.  The slice kernel never runs with a fault
    model, so on a time-sliced scheduler it stays 0.
    """
    watched["forwarded"] = 0
    watched["fixed_faults"] = 0
    original_islice = scheduler_module.islice

    def counting_islice(*args):
        for item in original_islice(*args):
            watched["forwarded"] += 1
            yield item

    run = scheduler.run

    def watched_run(until_cycle=None):
        scheduler_module.islice = counting_islice
        try:
            return run(until_cycle)
        finally:
            scheduler_module.islice = original_islice

    scheduler.run = watched_run
    wake_stall = scheduler._fault_wake_stall

    def watching(thread, now):
        # The op kernel's view of the thread's hold (none off the kernel
        # and on a time-sliced scheduler).
        view = getattr(scheduler, "_holds", {}).get(thread)
        if thread.hold is not None and view is not None and (
            view.run >= view.steps[thread.hold_position][5]
        ):
            watched["fixed_faults"] += 1
        return wake_stall(thread, now)

    scheduler._fault_wake_stall = watching


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


def machine_state(hierarchy, scheduler):
    """Everything a run leaves behind in the simulator.

    Every level's lines, policy states and counters; each thread's
    ``ready_at``, liveness and hold position; and the scheduler's, the
    fault models' and the ``Choose`` elements' RNG states, with the
    fault event log.
    """
    levels = [hierarchy.l1, hierarchy.l2]
    if hierarchy.llc is not None:
        levels.append(hierarchy.llc)
    threads = scheduler.threads
    faults = scheduler.faults
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
        "alive": [t.alive for t in threads],
        "holds": [
            (None if t.hold is None else t.hold.deadline, t.hold_position)
            for t in threads
        ],
        "scheduler_rng": scheduler.rng.getstate(),
        "event_log": list(faults.event_log) if faults is not None else [],
        "fault_rngs": [m.rng.getstate() for m in scheduler._fault_models()],
        "choice_rngs": [
            op.rng.getstate()
            for t in threads
            if t.hold is not None
            for op in t.hold.ops
            if type(op) is Choose
        ],
    }


def holding(make_ops):
    """A program that builds ``make_ops()`` and repeats it forever."""

    def program():
        yield HoldLoop(make_ops(), math.inf)

    return program


def cycling(make_ops, log, name):
    """The same ops as a generator, logging each access's outcome."""

    def program():
        ops = make_ops()
        while True:
            for op in ops:
                if type(op) is Choose:
                    op = op.options[next(op.draws)]
                outcome = yield op
                if type(op) is Access:
                    log.append(
                        (
                            name,
                            outcome.hit_level,
                            outcome.latency,
                            outcome.evicted_address,
                            outcome.was_way_predictor_miss,
                        )
                    )

    return program


def build_scheduler(machine, scheduler, threads):
    if scheduler == "hyper":
        return machine.hyper_threaded(threads)
    return machine.time_sliced(threads, quantum=5000.0, switch_cost=100.0)


def run_holds(
    scheduler, mode, threads, *, until_cycles=(None,), faults=(), prepare=None
):
    """Run ``threads`` in ``mode``, once per entry of ``until_cycles``.

    ``mode`` is ``kernel``, ``general``, ``reference``, or
    ``<first>-<second>`` to switch the fast engine's route (kernel or
    general) after the first run.  ``prepare`` is called with the built
    scheduler.  Returns the final state and the count of fast-forwarded
    ops (see :func:`watch`) after each run.
    """
    first, _, second = mode.partition("-")
    engine = "reference" if first == "reference" else "fast"
    machine = Machine(
        INTEL_E5_2690,
        rng=3,
        engine=engine,
        faults=[model() for model in faults],
    )
    sched = build_scheduler(machine, scheduler, threads)
    if first == "general":
        force_general(sched)
    if prepare is not None:
        prepare(sched)
    watched = {}
    watch(sched, watched)
    states = []
    forwarded = []
    for until_cycle in until_cycles:
        if states and second == "general":
            force_general(sched)
        elif states and second == "kernel":
            sched.__dict__.pop("_execute", None)
        end = sched.run(until_cycle=until_cycle)
        state = machine_state(machine.hierarchy, sched)
        state["end"] = end
        states.append(state)
        forwarded.append(watched["forwarded"])
    return states, forwarded


def run_threads(
    scheduler,
    spec,
    programs,
    mode,
    *,
    form="hold",
    utag_bits=None,
):
    """Run op-cycle programs in ``mode`` under an observing session.

    ``programs`` holds ``(name, make_ops, thread_id, address_space)``;
    ``make_ops()`` builds the ops afresh, so every run draws from its
    own ``Choose`` RNGs.  ``form`` is ``hold`` (each thread yields one
    endless hold) or ``generator`` (each thread yields the ops one by
    one and logs their outcomes).  ``mode`` is ``kernel``, ``general``
    (the fast engine with the general route forced) or ``reference``
    (the reference engine).  ``utag_bits`` builds the L1 with a way
    predictor of that width.  Returns the final state (the outcome log
    and the metrics snapshot included), every access that reached
    ``hierarchy._demand_access`` with its outcome, and the addresses of
    the misses finished in place.
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
    log = []
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
                name,
                holding(make_ops)
                if form == "hold"
                else cycling(make_ops, log, name),
                thread_id=tid,
                address_space=space,
            )
            for name, make_ops, tid, space in programs
        ]
        sched = build_scheduler(machine, scheduler, threads)
        if mode == "general":
            force_general(sched)
        end = sched.run(until_cycle=UNTIL[scheduler])
    state = machine_state(hierarchy, sched)
    state["end"] = end
    state["log"] = log
    state["metrics"] = session.metrics.snapshot()
    return state, demanded, misses


def assert_matches_oracle(execute_calls, scheduler, spec, programs, **kwargs):
    """Kernel, forced general route and reference engine agree.

    Returns the kernel's final state and every access of the reference
    run, which all reach ``_demand_access``, with its outcome.
    """
    kernel, demanded, misses = run_threads(
        scheduler, spec, programs, "kernel", **kwargs
    )
    assert not execute_calls, "an op left the kernel"
    general, general_demanded, _ = run_threads(
        scheduler, spec, programs, "general", **kwargs
    )
    reference, reference_demanded, _ = run_threads(
        scheduler, spec, programs, "reference", **kwargs
    )
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


def mispredicts(demanded):
    """Way-predictor misses among accesses logged by ``run_threads``."""
    return sum(1 for _, _, outcome in demanded if outcome.was_way_predictor_miss)


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
