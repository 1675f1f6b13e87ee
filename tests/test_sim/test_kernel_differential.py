"""Both scheduler kernels against the general route and the oracle.

The hyper-threaded op kernel and the time-sliced slice kernel run ops
in place, with the fast engine's L1 hit path inlined and its misses
finished by the one miss routine, and fast-forward a hold at a cache
fixed point.  The differential is stratified: one Hypothesis test per
scheduler (hyper-threaded or time-sliced), L1 (tabled, ``random``,
no-update-on-hit, PL cache, locking PL cache, or 1- or 8-bit utags on
a tabled, ``random`` or no-update L1) and fault model (none, interrupts
or a TSC model), so every combination runs on every run, however few
examples each draws.  Within a stratum Hypothesis draws programs
(threads of accesses of every flag, computes, ``Choose`` elements, TSC
reads and sleeps, as endless holds, finite holds or generators that
read each outcome), the machine, one to three ``until_cycle`` cuts, and
whether the kernel run switches to the other route after the first cut.
Each program runs in the kernel, on the forced general route and on
the reference engine; the final machine after every cut
(:func:`machine_state`), each generator's outcomes and the metrics
snapshot must agree.

Each of :data:`CASES` is a hand-written fast-forward edge case, run by
its own test under its own id, with the watch count it expects (a
fast-forward must or must not happen, see
:func:`~tests.test_sim.kernel_harness.watch`) and whether an op may
leave the kernel.
"""

import contextlib
import dataclasses
import math
import random
from typing import Optional, Tuple

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cache.cache import SetAssociativeCache
from repro.cache.pl_cache import PLCache
from repro.cache.prefetcher import StridePrefetcher
from repro.cache.way_predictor import WayPredictor
from repro.common.errors import SimulationError
from repro.common.types import AccessType
from repro.faults import InterruptBurstFault, TSCFault
from repro.obs.session import ObsSession, observe
from repro.sim import scheduler as scheduler_module
from repro.sim.fastpath import FastSetAssociativeCache
from repro.sim.machine import Machine
from repro.sim.ops import (
    Access,
    Choose,
    Compute,
    HoldLoop,
    ReadTSC,
    SleepUntil,
)
from repro.sim.specs import AMD_EPYC_7571, INTEL_E5_2690, INTEL_E5_2690_3LEVEL
from repro.sim.thread import SimThread
from repro.sim.tracing import AccessTracer
from tests.test_sim.kernel_harness import (
    L1_STRIDE,
    L2_STRIDE,
    SCHEDULERS,
    build_scheduler,
    force_general,
    machine_state,
    watch,
    with_fractional_latencies,
    with_l1,
)

#: Lines 0-9 share L1 set 1 (eight ways), each on its own page (page
#: 521, line 9, has the same 1-bit utag in both address spaces); 10-13
#: share L1 set 2 and an L2 set; 14 and 15 are lone lines.
LINES = (
    tuple((1 << 21) + 64 + L1_STRIDE * i for i in range(10))
    + tuple((1 << 22) + 128 + L2_STRIDE * i for i in range(4))
    + (0x1000, 0x2000)
)

ACCESS_FLAGS = {
    "load": {},
    "store": {"access_type": AccessType.STORE},
    "flush": {"access_type": AccessType.FLUSH},
    "uncounted": {"count": False},
    "speculative": {"speculative": True},
    "locked": {"locked": True},
    "unlock": {"unlock": True},
}

#: The three-level machine with a 128-set LLC, so that lines 10-13 and
#: the lone lines miss there too (and the machine builds quickly).
SMALL_LLC = dataclasses.replace(
    INTEL_E5_2690_3LEVEL,
    hierarchy=dataclasses.replace(
        INTEL_E5_2690_3LEVEL.hierarchy,
        llc=dataclasses.replace(
            INTEL_E5_2690_3LEVEL.hierarchy.llc,
            size=INTEL_E5_2690_3LEVEL.hierarchy.llc.ways * 64 * 128,
        ),
    ),
)

#: Cut points: hyper-threaded threads run side by side, time-sliced ones
#: take turns in 5000-cycle quanta.
CUTS = {
    "hyper": (400.0, 3.0e3, 1.2e4, 3.0e4),
    "sliced": (3.0e3, 1.5e4, 4.0e4, 8.0e4),
}


@dataclasses.dataclass(frozen=True)
class Thread:
    """One thread: ``form`` is ``hold`` (one endless hold of ``ops``),
    ``holds`` (six holds of ``period`` cycles, every other one with its
    accesses dropped, then one access) or ``generator`` (the ops yielded
    one by one, forever)."""

    form: str
    ops: Tuple
    space: int = 0
    period: float = 3000.0


@dataclasses.dataclass(frozen=True)
class Expect:
    """What a hand-written case pins beyond agreement.

    ``forwards``: whether the kernel run fast-forwards at all; ``leaves``:
    whether ops leave the kernel (False: none may); ``fixed_faults``:
    whether a fault ends a fast-forward.  None checks nothing.
    """

    forwards: Optional[bool] = None
    leaves: Optional[bool] = None
    fixed_faults: Optional[bool] = None


@dataclasses.dataclass(frozen=True)
class Program:
    scheduler: str
    threads: Tuple[Thread, ...]
    cuts: Tuple[float, ...]
    l1: str = "tabled"
    utag: Optional[int] = None
    machine: str = "intel"
    faults: str = "none"
    route: str = "kernel"
    attach: Optional[str] = None
    expect: Optional[Expect] = None


def build_op(spec, with_sleep):
    kind = spec[0]
    if kind == "access":
        return Access(LINES[spec[1]], **ACCESS_FLAGS[spec[2]])
    if kind == "compute":
        return Compute(spec[1])
    if kind == "choose":
        return Choose([Access(LINES[i]) for i in spec[1]], random.Random(spec[2]))
    if kind == "tsc":
        return ReadTSC()
    # A sleep outside a generator is a compute of the same length.
    return "sleep" if with_sleep else Compute(spec[1])


def thread_program(thread, log, name):
    def build():
        return [build_op(op, thread.form == "generator") for op in thread.ops]

    def hold():
        yield HoldLoop(build(), math.inf)

    def holds():
        encode = build()
        if not any(type(op) is ReadTSC for op in encode):
            encode.append(ReadTSC())
        silent = [op for op in encode if type(op) is not Access]
        now = yield ReadTSC()
        for bit in range(6):
            now = yield HoldLoop(encode if bit % 2 else silent, now + thread.period)
        yield Access(LINES[0])

    def generator():
        ops = build()
        while True:
            for spec, op in zip(thread.ops, ops):
                if op == "sleep":
                    now = yield ReadTSC()
                    yield SleepUntil(now + spec[1])
                    continue
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

    return {"hold": hold, "holds": holds, "generator": generator}[thread.form]


def build_machine(program, engine):
    if program.utag is not None:
        spec = AMD_EPYC_7571
    else:
        spec = {
            "intel": INTEL_E5_2690,
            "llc": SMALL_LLC,
            "fractional": with_fractional_latencies(INTEL_E5_2690),
        }[program.machine]
    if program.l1 == "random":
        spec = with_l1(spec, policy="random")
    elif program.l1 == "no-update":
        spec = with_l1(spec, update_lru_on_hit=False)
    l1 = None
    if program.l1.startswith("pl"):
        l1 = PLCache(spec.hierarchy.l1, lock_lru=program.l1 == "pl-lock", rng=5)
    elif program.utag is not None:
        cache = SetAssociativeCache if engine == "reference" else FastSetAssociativeCache
        l1 = cache(
            spec.hierarchy.l1,
            rng=1,
            way_predictor=WayPredictor(utag_bits=program.utag),
        )
    faults = {
        "none": [],
        "interrupt": [InterruptBurstFault(rate_per_mcycle=300.0)],
        "tsc": [TSCFault(jitter_cycles=3.0, drift_ppm=50.0)],
    }[program.faults]
    machine = Machine(spec, rng=3, engine=engine, faults=faults, l1_cache=l1)
    if program.attach == "tracer":
        AccessTracer.attach(machine.hierarchy)
    elif program.attach == "prefetcher":
        machine.hierarchy.prefetcher = StridePrefetcher()
    return machine


@contextlib.contextmanager
def counting_execute():
    """Count ``_execute`` calls without disabling the kernels.

    A class-level replacement is still ``_SchedulerBase._execute``, so
    the kernels stay eligible; it counts the ops that took the general
    route.
    """
    calls = []
    base = scheduler_module._SchedulerBase
    original = base._execute

    def counting(self, thread, op, now):
        calls.append(op)
        return original(self, thread, op, now)

    base._execute = counting
    try:
        yield calls
    finally:
        base._execute = original


def run(program, route):
    """Run ``program`` on ``route`` once per cut.

    ``route`` is ``kernel``, ``general``, ``reference``, or
    ``<first>-<second>`` to switch the fast engine's route after the
    first cut.  Returns what the run left behind, the fast-forwarded op
    count after each cut, the fixed-point fault steps and the number of
    ops that took the general route.
    """
    first, _, second = route.partition("-")
    engine = "reference" if first == "reference" else "fast"
    log = []
    session = ObsSession(trace_depth=0)
    with observe(session), counting_execute() as calls:
        machine = build_machine(program, engine)
        threads = [
            SimThread(
                f"t{index}",
                thread_program(thread, log, f"t{index}"),
                thread_id=index,
                address_space=thread.space,
            )
            for index, thread in enumerate(program.threads)
        ]
        scheduler = build_scheduler(machine, program.scheduler, threads)
        if first == "general":
            force_general(scheduler)
        watched = {}
        watch(scheduler, watched)
        states = []
        forwarded = []
        for index, cut in enumerate(program.cuts):
            if index == 1 and second == "general":
                force_general(scheduler)
            elif index == 1 and second == "kernel":
                del scheduler._execute
            end = scheduler.run(until_cycle=cut)
            state = machine_state(machine.hierarchy, scheduler)
            state["end"] = end
            states.append(state)
            forwarded.append(watched["forwarded"])
    left = {"states": states, "log": log, "metrics": session.metrics.snapshot()}
    return left, forwarded, watched["fixed_faults"], len(calls)


# ----------------------------------------------------------------------
# Programs
# ----------------------------------------------------------------------

LINE = st.integers(0, len(LINES) - 1)
OP = st.one_of(
    st.tuples(
        st.just("access"),
        LINE,
        st.sampled_from(("load",) * 6 + tuple(ACCESS_FLAGS)),
    ),
    st.tuples(st.just("compute"), st.sampled_from((3.5, 7.0, 20.0, 45.5, 200.0))),
    st.tuples(
        st.just("choose"),
        st.lists(LINE, min_size=2, max_size=6).map(tuple),
        st.integers(0, 9),
    ),
    st.tuples(st.just("tsc")),
    st.tuples(st.just("sleep"), st.sampled_from((150.0, 700.0))),
)
THREAD = st.builds(
    Thread,
    form=st.sampled_from(("hold", "hold", "holds", "generator")),
    ops=st.lists(OP, min_size=1, max_size=6).map(tuple),
    space=st.integers(0, 1),
    period=st.sampled_from((500.0, 3000.0)),
)


#: The L1 strata: a utag stratum draws its policy from :data:`UTAG_L1S`
#: on the AMD machine (the PL caches take no way predictor).
L1S = ("tabled", "random", "no-update", "pl", "pl-lock", "utag-1", "utag-8")
UTAG_L1S = ("tabled", "random", "no-update")
FAULTS = ("none", "interrupt", "tsc")


@st.composite
def programs(draw, scheduler, l1, faults):
    if l1.startswith("utag-"):
        utag = int(l1[len("utag-"):])
        machine = "amd"
        l1 = draw(st.sampled_from(UTAG_L1S))
    else:
        utag = None
        machine = draw(st.sampled_from(("intel", "llc", "fractional")))
    cuts = draw(
        st.lists(
            st.sampled_from(CUTS[scheduler]), min_size=1, max_size=3, unique=True
        ).map(lambda cuts: tuple(sorted(cuts)))
    )
    return Program(
        scheduler=scheduler,
        threads=tuple(draw(st.lists(THREAD, min_size=1, max_size=3))),
        cuts=cuts,
        l1=l1,
        utag=utag,
        machine=machine,
        faults=faults,
        route=draw(st.sampled_from(("kernel", "kernel-general", "general-kernel"))),
        attach=draw(st.sampled_from((None,) * 6 + ("tracer", "prefetcher"))),
    )


# ----------------------------------------------------------------------
# Hand-written cases
# ----------------------------------------------------------------------


def access(line, flag="load"):
    return ("access", line, flag)


#: The hyper-threaded sender alternates silent and encoding holds; the
#: receiver sleeps, then probes all of set 1.
SENDER = Thread("holds", (access(0), ("compute", 20.0), ("tsc",)), 1, 6000.0)
PROBER = Thread(
    "generator", (("sleep", 700.0),) + tuple(access(i) for i in range(10))
)
NOISE = Thread("generator", (("sleep", 1900.0), access(14), access(15)), 0)
HYPER = dict(scheduler="hyper", threads=(SENDER, PROBER), cuts=(3.5e4, 8.0e4))
#: The time-sliced constant sender: one hit on each of sets 1 and 2.
CONSTANT = Thread(
    "hold", (access(1), ("compute", 30.0), access(10), ("compute", 45.5)), 1
)
EVICTOR = Thread(
    "hold",
    tuple(access(i) for i in range(2, 10))
    + tuple(access(i) for i in range(11, 14))
    + (("compute", 10.0),),
)
SLICED = dict(scheduler="sliced", threads=(CONSTANT,), cuts=(3.0e3, 3.0e4))
FORWARDS = Expect(forwards=True, leaves=False)
NEVER = Expect(forwards=False, leaves=False)
GENERAL = Expect(forwards=False, leaves=True)

def case(name, **fields):
    return pytest.param(Program(**fields), id=name)


CASES = [
    # A fault falling due ends the sender's fast-forward.
    case("hyper-fault-ends-fast-forward", **HYPER, faults="interrupt",
         expect=Expect(forwards=True, leaves=False, fixed_faults=True)),
    # Cut inside a fast-forward (the receiver sleeps from about 100 to
    # 700 cycles), then carried on by the kernel or the other route.
    case("hyper-cut-inside-fast-forward",
         **{**HYPER, "cuts": (400.0, 3.5e4, 8.0e4)}, faults="interrupt",
         expect=FORWARDS),
    case("hyper-cut-then-general", **{**HYPER, "cuts": (400.0, 3.5e4, 8.0e4)},
         route="kernel-general", expect=Expect(forwards=True)),
    case("hyper-general-then-kernel",
         **{**HYPER, "cuts": (400.0, 3.5e4, 8.0e4)},
         route="general-kernel", expect=Expect(forwards=True)),
    # Three alive threads: a fast-forward skips three draws per op.
    case("hyper-three-threads",
         **{**HYPER, "threads": (SENDER, PROBER, NOISE)}, expect=FORWARDS),
    # No table: an access never joins a fixed point, silent holds do.
    case("hyper-random-l1", **HYPER, l1="random", expect=FORWARDS),
    case("hyper-tsc-faults-never-forward", **HYPER, faults="tsc",
         expect=NEVER),
    # Across address spaces the receiver retrains the utag of a shared
    # line, so the sender's next access mispredicts.
    case("hyper-utag-8", **HYPER, utag=8, expect=FORWARDS),
    case("hyper-utag-1", **HYPER, utag=1, expect=FORWARDS),
    case("hyper-tracer-takes-general", **HYPER, attach="tracer",
         expect=GENERAL),
    # Locks, unlocks, stores, flushes, uncounted and speculative
    # accesses, and misses at every level, stay in the kernel.
    case(
        "hyper-locks-and-flushes-on-pl-lock",
        scheduler="hyper",
        threads=(
            Thread("generator", (access(0, "locked"), ("compute", 11.0),
                                 access(0), access(0, "unlock")), 1),
            Thread("generator", tuple(access(i) for i in range(1, 10))
                   + (access(14, "flush"), ("compute", 3.0))),
        ),
        cuts=(2.0e4,),
        l1="pl-lock",
        expect=Expect(leaves=False),
    ),
    case(
        "hyper-flags-and-llc-misses",
        scheduler="hyper",
        threads=(
            Thread("generator", (access(14, "uncounted"), access(15, "store"),
                                 access(13, "speculative"),
                                 ("choose", tuple(range(10, 14)), 8),
                                 ("compute", 7.0)), 1),
            Thread("hold", tuple(access(i, "store" if i % 2 else "load")
                                 for i in range(10)) + (("compute", 3.5),)),
        ),
        cuts=(1.2e4, 3.0e4),
        machine="llc",
        expect=Expect(leaves=False),
    ),
    # Both constant senders fast-forward; a slice ends inside a
    # fast-forward, cut by ``until_cycle`` or by the quantum.
    case("sliced-constant-sender", **SLICED, expect=FORWARDS),
    case("sliced-lone-compute",
         **{**SLICED, "threads": (Thread("hold", (("compute", 500.0),), 1),)},
         expect=FORWARDS),
    case("sliced-cut-then-general", **SLICED, route="kernel-general",
         expect=Expect(forwards=True)),
    case("sliced-general-then-kernel", **SLICED, route="general-kernel",
         expect=Expect(forwards=True)),
    # The evictor empties both sender sets, so each sender slice steps a
    # fresh cycle before its fast-forward.
    case("sliced-evictor",
         **{**SLICED, "threads": (CONSTANT, EVICTOR), "cuts": (1.0e5,)},
         expect=FORWARDS),
    case("sliced-utag-8", **SLICED, utag=8, expect=FORWARDS),
    # Two lines of one set: each hit moves the set's LRU order.
    case("sliced-hold-moves-its-policy", **{**SLICED, "threads": (
        Thread("hold", (access(1), ("compute", 30.0), access(2)), 1),)},
        expect=NEVER),
    case("sliced-random-l1", **SLICED, l1="random", expect=NEVER),
    # What could observe single ops keeps the general loop.
    case("sliced-interrupts-take-general", **SLICED, faults="interrupt",
         expect=GENERAL),
    case("sliced-tracer-takes-general", **SLICED, attach="tracer",
         expect=GENERAL),
    case("sliced-prefetcher-takes-general", **SLICED, attach="prefetcher",
         expect=GENERAL),
    case("sliced-clock-dependent-hold", **{**SLICED, "threads": (
        Thread("hold", (("tsc",), ("compute", 10.0))),)}, expect=GENERAL),
]


def check(program):
    """Run ``program`` three ways; return the kernel run's watch counts."""
    kernel, forwarded, fixed_faults, left_kernel = run(program, program.route)
    general, general_forwarded, _, _ = run(program, "general")
    reference, reference_forwarded, _, _ = run(program, "reference")
    assert general_forwarded == reference_forwarded == [0] * len(program.cuts)
    assert kernel == general
    assert kernel == reference
    return forwarded, fixed_faults, left_kernel


@pytest.mark.parametrize("faults", FAULTS)
@pytest.mark.parametrize("l1", L1S)
@pytest.mark.parametrize("scheduler", SCHEDULERS)
@settings(
    derandomize=True,
    database=None,
    deadline=None,
    max_examples=2,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(data=st.data())
def test_kernel_general_route_and_reference_agree(scheduler, l1, faults, data):
    check(data.draw(programs(scheduler, l1, faults), label="program"))


@pytest.mark.parametrize("program", CASES)
def test_fast_forward_edge_case(program):
    forwarded, fixed_faults, left_kernel = check(program)
    expect = program.expect
    if expect.forwards is not None:
        assert (forwarded[-1] > 0) == expect.forwards
    if expect.leaves is not None:
        assert (left_kernel > 0) == expect.leaves
    if expect.fixed_faults is not None:
        assert (fixed_faults > 0) == expect.fixed_faults


@pytest.mark.parametrize("route", ["kernel", "general"])
@pytest.mark.parametrize("scheduler", SCHEDULERS)
@pytest.mark.parametrize(
    "bogus",
    [object(), Choose([Compute(1.0)], 1)],
    ids=["object", "bare-choose"],
)
def test_unknown_op_raises(scheduler, route, bogus):
    def program():
        yield Compute(5.0)
        yield bogus

    machine = Machine(INTEL_E5_2690, rng=3, engine="fast")
    sched = build_scheduler(machine, scheduler, [SimThread("bad", program)])
    assert sched._inlinable()
    if route == "general":
        force_general(sched)
    with pytest.raises(SimulationError, match="unknown operation"):
        sched.run(until_cycle=1.0e4)


def test_one_bit_utags_collide_across_spaces():
    # With one utag bit some pages hash alike in both address spaces, so
    # some cross-space hits predict correctly.
    def mispredicts(utag):
        threads = (
            Thread("generator", tuple(access(i) for i in range(14)), 1),
            Thread("generator", tuple(access(i) for i in range(2, 14)), 0),
        )
        program = Program("hyper", threads, (2.0e4,), utag=utag)
        left, _, _, _ = run(program, "reference")
        return sum(entry[4] for entry in left["log"])

    assert 0 < mispredicts(1) < mispredicts(8)
