"""Tests for the thread-operation primitives."""

import pytest

from repro.common.types import AccessType
from repro.sim.ops import (
    Access,
    Compute,
    HoldLoop,
    ReadTSC,
    READ_TSC_COST,
    SleepUntil,
)


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

    def test_needs_a_read_tsc(self):
        with pytest.raises(ValueError):
            HoldLoop((Access(64), Compute(2.0)), 100.0)

    @pytest.mark.parametrize(
        "op",
        [SleepUntil(5.0), HoldLoop((ReadTSC(),), 1.0), None],
        ids=["sleep", "nested-hold", "none"],
    )
    def test_rejects_other_ops(self, op):
        with pytest.raises(ValueError):
            HoldLoop((op, ReadTSC()), 100.0)
