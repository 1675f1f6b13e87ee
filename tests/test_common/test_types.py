"""Tests for the core value types."""

import pytest

from repro.common.types import (
    AccessOutcome,
    AccessType,
    CacheLevel,
    LineAddress,
    MemoryAccess,
    Observation,
)


class TestAccessType:
    def test_demand_accesses(self):
        assert AccessType.LOAD.is_demand()
        assert AccessType.STORE.is_demand()

    def test_flush_is_not_demand(self):
        assert not AccessType.FLUSH.is_demand()


class TestCacheLevel:
    def test_ordering(self):
        assert CacheLevel.L1 < CacheLevel.L2 < CacheLevel.LLC < CacheLevel.MEMORY

    def test_comparison_with_int(self):
        assert CacheLevel.L1 == 1


class TestMemoryAccess:
    def test_defaults(self):
        access = MemoryAccess(address=64)
        assert access.access_type == AccessType.LOAD
        assert access.thread_id == 0
        assert not access.speculative

    def test_negative_address_rejected(self):
        with pytest.raises(ValueError):
            MemoryAccess(address=-1)

    def test_frozen(self):
        access = MemoryAccess(address=0)
        with pytest.raises(Exception):
            access.address = 5  # type: ignore[misc]


class TestAccessOutcome:
    def test_l1_hit_property(self):
        outcome = AccessOutcome(hit_level=CacheLevel.L1, latency=4.0)
        assert outcome.l1_hit

    def test_way_predictor_miss_is_not_l1_hit(self):
        outcome = AccessOutcome(
            hit_level=CacheLevel.L1,
            latency=17.0,
            was_way_predictor_miss=True,
        )
        assert not outcome.l1_hit

    def test_l2_is_not_l1_hit(self):
        outcome = AccessOutcome(hit_level=CacheLevel.L2, latency=12.0)
        assert not outcome.l1_hit


class TestLineAddress:
    def test_recompose_roundtrip(self):
        la = LineAddress(tag=5, set_index=3, offset=8)
        address = la.recompose(num_sets=64, line_size=64)
        assert address == (5 * 64 + 3) * 64 + 8

    def test_zero(self):
        assert LineAddress(0, 0, 0).recompose(64, 64) == 0


class TestObservation:
    def test_defaults(self):
        obs = Observation(sequence=0, latency=33.0)
        assert obs.decoded_bit is None
        assert obs.timestamp == 0
