"""Tests for the thread-operation primitives."""

import math
import random

import pytest

from repro.cache.config import HierarchyConfig
from repro.cache.hierarchy import CacheHierarchy
from repro.common.errors import SimulationError
from repro.common.types import AccessType
from repro.sim.ops import (
    Access,
    Choose,
    Compute,
    HoldLoop,
    ReadTSC,
    READ_TSC_COST,
    SleepUntil,
)
from repro.sim.scheduler import HyperThreadedScheduler, TimeSlicedScheduler
from repro.sim.thread import SimThread


class TestAccess:
    def test_defaults(self):
        op = Access(address=64)
        assert op.access_type == AccessType.LOAD
        assert op.count
        assert not op.speculative and not op.locked and not op.unlock

    def test_frozen(self):
        op = Access(address=0)
        with pytest.raises(Exception):
            op.address = 1  # type: ignore[misc]

    def test_flags(self):
        op = Access(address=0, locked=True, speculative=True, count=False)
        assert op.locked and op.speculative and not op.count

    @pytest.mark.parametrize(
        "flags",
        [
            {"count": False},
            {"speculative": True},
            {"locked": True},
            {"unlock": True},
            {"access_type": AccessType.FLUSH},
        ],
        ids=lambda flags: next(iter(flags)),
    )
    def test_plain_excludes_each_flag(self, flags):
        assert Access(64).plain
        assert Access(64, access_type=AccessType.STORE).plain
        op = Access(64, **flags)
        assert not op.plain
        # A derived field: not part of the op's identity.
        assert "plain" not in repr(op)
        assert hash(op) == hash(Access(64, **flags))


class TestCompute:
    def test_zero_allowed(self):
        assert Compute(0.0).cycles == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Compute(-1.0)


class TestTimerOps:
    def test_read_tsc_cost_positive(self):
        assert READ_TSC_COST > 0

    def test_sleep_until_carries_deadline(self):
        assert SleepUntil(cycle=500.0).cycle == 500.0

    def test_read_tsc_is_stateless_marker(self):
        assert ReadTSC() == ReadTSC()


class TestHoldLoop:
    def test_ops_are_kept_as_a_tuple(self):
        hold = HoldLoop([Access(64), Compute(2.0), ReadTSC()], 100.0)
        assert hold.ops == (Access(64), Compute(2.0), ReadTSC())
        assert hold.deadline == 100.0

    def test_infinite_deadline_needs_no_read_tsc(self):
        hold = HoldLoop([Access(64), Compute(2.0)], math.inf)
        assert hold.deadline == math.inf

    def test_finite_deadline_needs_a_read_tsc(self):
        with pytest.raises(ValueError):
            HoldLoop((Access(64), Compute(2.0)), 100.0)
        # A ReadTSC a Choose may never draw does not end the hold.
        with pytest.raises(ValueError):
            HoldLoop((Choose([ReadTSC()], 1), Compute(2.0)), 100.0)

    def test_empty_holds_and_choices_rejected(self):
        with pytest.raises(ValueError):
            HoldLoop((), math.inf)
        with pytest.raises(SimulationError):
            Choose([], random.Random(1))

    @pytest.mark.parametrize(
        "op",
        [SleepUntil(5.0), HoldLoop((ReadTSC(),), 1.0), None],
        ids=["sleep", "nested-hold", "none"],
    )
    def test_rejects_other_ops(self, op):
        with pytest.raises(ValueError):
            HoldLoop((op, ReadTSC()), 100.0)

    @pytest.mark.parametrize(
        "option",
        [
            SleepUntil(5.0),
            HoldLoop((ReadTSC(),), 1.0),
            Choose([Compute(1.0)], 1),
            None,
        ],
        ids=["sleep", "hold", "nested-choose", "none"],
    )
    def test_choose_rejects_other_options(self, option):
        with pytest.raises(SimulationError):
            Choose([Compute(1.0), option], 1)

    @pytest.mark.parametrize("scheduler", ["hyper", "sliced"])
    def test_choose_draws_what_rng_choice_draws(self, scheduler):
        """A ``Choose`` in a hold issues ``rng.choice(options)`` each time.

        One thread on a quiet core adds exactly its ops' cycles to its
        clock, so the kernel, the per-op route and the reference engine
        must end at the same time with the same ``Choose`` RNG state;
        the per-op route logs what it drew.
        """
        options = [Compute(float(1 << i)) for i in range(10)]

        def run(mode):
            choose = Choose(options, random.Random(5))
            hold = HoldLoop([choose, Compute(0.5)], math.inf)

            def program():
                yield hold

            engine = "reference" if mode == "reference" else "fast"
            hierarchy = CacheHierarchy(HierarchyConfig(), rng=7, engine=engine)
            thread = SimThread("chooser", program)
            if scheduler == "hyper":
                sched = HyperThreadedScheduler(
                    hierarchy, [thread], rng=1, jitter=0.0
                )
            else:
                sched = TimeSlicedScheduler(
                    hierarchy, [thread], quantum=700.0, switch_cost=0.0,
                    quantum_jitter_frac=0.0, rng=1,
                )
            issued = []
            if mode == "general":
                execute = sched._execute

                def logging(thread, op, now):
                    issued.append(op)
                    return execute(thread, op, now)

                sched._execute = logging
            assert sched._inlinable() == (mode == "kernel")
            sched.run(until_cycle=2.0e4)
            return thread.ready_at, choose.rng.getstate(), issued

        kernel, general, reference = (
            run(mode) for mode in ("kernel", "general", "reference")
        )
        drawn = general[2][::2]
        assert len(drawn) > 50
        expected = random.Random(5)
        assert drawn == [expected.choice(options) for _ in drawn]
        assert kernel[:2] == general[:2] == reference[:2]
