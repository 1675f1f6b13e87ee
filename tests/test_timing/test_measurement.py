"""Tests for rdtscp and pointer-chase measurement primitives."""

import pytest

from repro.cache.config import HierarchyConfig
from repro.cache.hierarchy import CacheHierarchy
from repro.common.errors import ConfigurationError
from repro.common.stats import Histogram
from repro.timing.measurement import (
    PointerChase,
    observed_chase_latency,
    rdtscp_measure,
)
from repro.timing.tsc import INTEL_TSC, TimestampCounter


@pytest.fixture
def setup():
    hierarchy = CacheHierarchy(HierarchyConfig(), rng=3)
    tsc = TimestampCounter(INTEL_TSC, rng=3)
    return hierarchy, tsc


def evict_from_l1(hierarchy, address):
    stride = hierarchy.config.l1.num_sets * 64
    for i in range(1, hierarchy.config.l1.ways + 1):
        hierarchy.load(address + (1 << 24) + i * stride, count=False)


class TestPointerChaseConstruction:
    def test_chain_lives_in_chosen_set(self, setup):
        hierarchy, tsc = setup
        chase = PointerChase(hierarchy, tsc, chain_set=3)
        l1 = hierarchy.config.l1
        assert all(l1.set_index(a) == 3 for a in chase.chain_addresses)

    def test_chain_addresses_distinct(self, setup):
        hierarchy, tsc = setup
        chase = PointerChase(hierarchy, tsc)
        assert len(set(chase.chain_addresses)) == 7

    def test_chain_too_long_rejected(self, setup):
        hierarchy, tsc = setup
        with pytest.raises(ConfigurationError):
            PointerChase(hierarchy, tsc, chain_length=9)

    def test_chain_set_out_of_range(self, setup):
        hierarchy, tsc = setup
        with pytest.raises(ConfigurationError):
            PointerChase(hierarchy, tsc, chain_set=64)

    def test_zero_length_rejected(self, setup):
        hierarchy, tsc = setup
        with pytest.raises(ConfigurationError):
            PointerChase(hierarchy, tsc, chain_length=0)


class TestPointerChaseMeasurement:
    def test_hit_vs_miss_separable(self, setup):
        """Figure 3's property."""
        hierarchy, tsc = setup
        chase = PointerChase(hierarchy, tsc, chain_set=0)
        chase.prime_chain()
        target = 5 * 64
        hit_hist, miss_hist = Histogram(), Histogram()
        for _ in range(200):
            hierarchy.load(target, count=False)
            hit_hist.add(chase.measure(target))
            evict_from_l1(hierarchy, target)
            miss_hist.add(chase.measure(target))
        assert hit_hist.overlap(miss_hist) < 0.2

    def test_threshold_separates(self, setup):
        hierarchy, tsc = setup
        chase = PointerChase(hierarchy, tsc, chain_set=0)
        chase.prime_chain()
        target = 5 * 64
        threshold = chase.hit_miss_threshold()
        hierarchy.load(target, count=False)
        hits = [chase.measure(target) for _ in range(50)]
        assert sum(1 for v in hits if v <= threshold) > 45
        misses = []
        for _ in range(50):
            evict_from_l1(hierarchy, target)
            misses.append(chase.measure(target))
        assert sum(1 for v in misses if v > threshold) > 45

    def test_expected_all_hit_latency(self, setup):
        hierarchy, tsc = setup
        chase = PointerChase(hierarchy, tsc)
        assert chase.expected_all_hit_latency() == 8 * 4.0

    def test_chain_does_not_touch_target_set(self, setup):
        """Section IV-D's optimization: the chain must not pollute the
        target set's LRU state."""
        hierarchy, tsc = setup
        chase = PointerChase(hierarchy, tsc, chain_set=0)
        target_set = hierarchy.l1.set_for(5 * 64)
        snap_before = target_set.policy.state_snapshot()
        chase.prime_chain()
        assert target_set.policy.state_snapshot() == snap_before

    def test_short_chain_degrades_separability(self, setup):
        """Footnote 3's trade-off, realized: a 2-element chain hides
        part of the latency difference behind the timer again."""
        hierarchy, tsc = setup
        target = 5 * 64

        def gap(length):
            chase = PointerChase(hierarchy, tsc, chain_set=0, chain_length=length)
            chase.prime_chain()
            hit_hist, miss_hist = Histogram(), Histogram()
            for _ in range(100):
                hierarchy.load(target, count=False)
                hit_hist.add(chase.measure(target))
                evict_from_l1(hierarchy, target)
                miss_hist.add(chase.measure(target))
            return 1.0 - hit_hist.overlap(miss_hist)

        short, full = gap(1), gap(7)
        assert short < 0.5
        assert full > 0.9
        assert full >= short


class TestObservedChaseLatency:
    def test_full_chain_no_shadow(self):
        tsc = TimestampCounter(INTEL_TSC, rng=1)
        values = [observed_chase_latency(tsc, 40.0, 7) for _ in range(100)]
        expected = 40.0 + INTEL_TSC.overhead_mean
        assert abs(sum(values) / len(values) - expected) < 2.0

    def test_short_chain_partially_hidden(self):
        tsc = TimestampCounter(INTEL_TSC, rng=1)
        full = sum(observed_chase_latency(tsc, 40.0, 7) for _ in range(100))
        short = sum(observed_chase_latency(tsc, 40.0, 1) for _ in range(100))
        assert short < full


class TestRdtscp:
    def test_l1_l2_indistinguishable(self, setup):
        """Appendix A / Figure 13."""
        hierarchy, tsc = setup
        target = 5 * 64
        l1_hist, l2_hist = Histogram(), Histogram()
        for _ in range(200):
            hierarchy.load(target, count=False)
            l1_hist.add(rdtscp_measure(hierarchy, tsc, target))
            evict_from_l1(hierarchy, target)
            l2_hist.add(rdtscp_measure(hierarchy, tsc, target))
        # Same underlying distribution; finite-sample overlap > 0.8.
        assert l1_hist.overlap(l2_hist) > 0.8
        assert l1_hist.mode() == pytest.approx(l2_hist.mode(), abs=2.0)

    def test_memory_miss_distinguishable(self, setup):
        hierarchy, tsc = setup
        target = 5 * 64
        hierarchy.load(target, count=False)
        hit = rdtscp_measure(hierarchy, tsc, target)
        hierarchy.flush_address(target)
        miss = rdtscp_measure(hierarchy, tsc, target)
        assert miss > hit + 100
