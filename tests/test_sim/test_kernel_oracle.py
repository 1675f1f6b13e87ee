"""Both scheduler kernels against the general route and the oracle.

The hyper-threaded op kernel and the time-sliced slice kernel share the
fast engine's one L1-miss routine and the in-place utag check, and so
does the general route.  Each test here runs one scenario in a kernel,
on the forced general route and on the reference engine, the oracle,
on both schedulers; the hyper-threaded scheduler runs it both as
endless holds and as generators that read every outcome.
"""

import pytest

from repro.common.errors import SimulationError
from repro.common.types import CacheLevel
from repro.sim.machine import Machine
from repro.sim.ops import Choose, Compute
from repro.sim.specs import AMD_EPYC_7571, INTEL_E5_2690, INTEL_E5_2690_3LEVEL
from repro.sim.thread import SimThread
from tests.test_sim.kernel_harness import (
    MISS_PROGRAMS,
    SCHEDULERS,
    assert_matches_oracle,
    build_scheduler,
    force_general,
    mispredicts,
    run_threads,
    utag_programs,
)

ROUTES = pytest.mark.parametrize(
    "scheduler,form",
    [("hyper", "generator"), ("hyper", "hold"), ("sliced", "hold")],
    ids=["hyper-generator", "hyper-hold", "sliced-hold"],
)


@ROUTES
def test_miss_paths_match_the_reference(execute_calls, scheduler, form):
    state, _ = assert_matches_oracle(
        execute_calls, scheduler, INTEL_E5_2690, MISS_PROGRAMS, form=form
    )
    (_, l1_misses), (_, l2_misses) = state["counters"]
    # L1 misses that hit L2, and L2 misses beyond the 24 cold ones.
    assert l1_misses[0] > l2_misses[0] > 24
    # The stores set dirty bits at both levels.
    for level in state["lines"][:2]:
        assert any(line[3] for lines in level for line in lines)
    counters = state["metrics"]["counters"]
    assert counters["cache.l2.hits"] and counters["cache.memory.fetches"]
    if form == "generator":
        levels = {entry[1] for entry in state["log"]}
        assert {CacheLevel.L1, CacheLevel.L2, CacheLevel.MEMORY} <= levels
        assert any(entry[3] is not None for entry in state["log"])


@ROUTES
def test_llc_miss_paths_match_the_reference(execute_calls, scheduler, form):
    state, _ = assert_matches_oracle(
        execute_calls, scheduler, INTEL_E5_2690_3LEVEL, MISS_PROGRAMS,
        form=form,
    )
    counters = state["metrics"]["counters"]
    assert counters["cache.llc.hits"] and counters["cache.llc.misses"]


@ROUTES
@pytest.mark.parametrize(
    "sender_space,utag_bits",
    [(0, None), (1, None), (1, 1)],
    ids=["same-space", "cross-space", "utag-collisions"],
)
def test_way_predictor_matches_the_reference(
    execute_calls, scheduler, form, sender_space, utag_bits
):
    state, demanded = assert_matches_oracle(
        execute_calls,
        scheduler,
        AMD_EPYC_7571,
        utag_programs(sender_space),
        form=form,
        utag_bits=utag_bits,
    )
    if sender_space == 0:
        assert mispredicts(demanded) == 0
    else:
        assert mispredicts(demanded) > 20
    # Every fill stored its line's utag.
    l1_lines = [line for lines in state["lines"][0] for line in lines]
    assert all(line[5] is not None for line in l1_lines if line[0])


@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_one_bit_utags_collide_across_spaces(scheduler):
    # With one utag bit some pages hash alike in both spaces, so some
    # cross-space hits predict correctly.
    _, wide, _ = run_threads(
        scheduler, AMD_EPYC_7571, utag_programs(1), "reference"
    )
    _, narrow, _ = run_threads(
        scheduler, AMD_EPYC_7571, utag_programs(1), "reference", utag_bits=1
    )
    assert 0 < mispredicts(narrow) < mispredicts(wide)


@pytest.mark.parametrize("mode", ["kernel", "general"])
@pytest.mark.parametrize("scheduler", SCHEDULERS)
@pytest.mark.parametrize(
    "bogus",
    [object(), Choose([Compute(1.0)], 1)],
    ids=["object", "bare-choose"],
)
def test_unknown_op_raises(scheduler, mode, bogus):
    def program():
        yield Compute(5.0)
        yield bogus

    machine = Machine(INTEL_E5_2690, rng=3, engine="fast")
    sched = build_scheduler(machine, scheduler, [SimThread("bad", program)])
    assert sched._inlinable()
    if mode == "general":
        force_general(sched)
    with pytest.raises(SimulationError, match="unknown operation"):
        sched.run(until_cycle=1.0e4)
