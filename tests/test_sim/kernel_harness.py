"""Shared harness for the scheduler kernel differential.

A program runs in a kernel and on the general per-op route, forced by
wrapping ``scheduler._execute`` on the instance as the sanitizer does,
and on the reference engine, the oracle; each route must leave the
same final machine (:func:`machine_state`).  ``scheduler`` names the
scheduler a program runs on: ``hyper`` (hyper-threaded) or ``sliced``
(time-sliced).
"""

import dataclasses

from repro.sim import scheduler as scheduler_module
from repro.sim.ops import Choose

SCHEDULERS = ("hyper", "sliced")

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

    Every level's lines (of the sets that ever held one), policy states
    and counters; each thread's
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
                (
                    index,
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
                    ],
                )
                for index, cache_set in enumerate(level.sets)
                if any(l.valid or l.address for l in cache_set.lines)
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


def build_scheduler(machine, scheduler, threads):
    if scheduler == "hyper":
        return machine.hyper_threaded(threads)
    return machine.time_sliced(threads, quantum=5000.0, switch_cost=100.0)
