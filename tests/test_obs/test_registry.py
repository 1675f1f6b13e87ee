"""Registry arithmetic and catalogue enforcement."""

import pytest

from repro.common.errors import ObservabilityError
from repro.obs.catalog import LATENCY_EDGES_CYCLES, METRIC_CATALOG
from repro.obs.registry import Histogram, MetricsRegistry


class TestCounters:
    def test_inc_arithmetic(self):
        registry = MetricsRegistry()
        counter = registry.counter("cache.l1.hits")
        counter.inc()
        counter.inc(41)
        assert counter.value == 42

    def test_same_name_shares_one_series(self):
        registry = MetricsRegistry()
        registry.counter("cache.l1.hits").inc(3)
        registry.counter("cache.l1.hits").inc(4)
        assert registry.snapshot()["counters"]["cache.l1.hits"] == 7

    def test_labelled_series_are_independent(self):
        registry = MetricsRegistry()
        registry.counter("cache.fills", label="L1D").inc(2)
        registry.counter("cache.fills", label="L2").inc(5)
        assert registry.snapshot()["counters"]["cache.fills"] == {
            "L1D": 2,
            "L2": 5,
        }

    def test_unknown_name_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ObservabilityError, match="not in the catalogue"):
            registry.counter("cache.l1.hitz")

    def test_kind_mismatch_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ObservabilityError, match="declared as a gauge"):
            registry.counter("channel.threshold")
        with pytest.raises(ObservabilityError, match="declared as a counter"):
            registry.gauge("cache.l1.hits")

    def test_label_on_unlabelled_metric_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ObservabilityError, match="not declared as labelled"):
            registry.counter("cache.l1.hits", label="L1D")


class TestGauges:
    def test_set_replaces(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("channel.threshold")
        gauge.set(10)
        gauge.set(8)
        assert registry.snapshot()["gauges"]["channel.threshold"] == 8

    def test_unset_gauges_absent_from_snapshot(self):
        registry = MetricsRegistry()
        registry.gauge("channel.threshold")
        assert registry.snapshot()["gauges"] == {}


class TestHistogramBuckets:
    def test_edges_are_strictly_increasing(self):
        assert list(LATENCY_EDGES_CYCLES) == sorted(set(LATENCY_EDGES_CYCLES))

    def test_edge_value_lands_in_its_own_bucket(self):
        # Buckets are (edge[i-1], edge[i]]: a 4-cycle L1 hit belongs to
        # the bucket labelled <=4, not the next one up.
        histogram = Histogram(edges=(4.0, 8.0, 16.0))
        histogram.observe(4.0)
        histogram.observe(3)
        histogram.observe(4.5)
        histogram.observe(8.0)
        assert histogram.counts == [2, 2, 0, 0]

    def test_overflow_bucket(self):
        histogram = Histogram(edges=(4.0, 8.0))
        histogram.observe(9)
        histogram.observe(10_000)
        assert histogram.counts == [0, 0, 2]

    def test_count_total_mean(self):
        histogram = Histogram(edges=(4.0, 8.0))
        for value in (2, 4, 6):
            histogram.observe(value)
        assert histogram.count == 3
        assert histogram.total == 12
        assert histogram.mean() == 4.0
        assert Histogram(edges=(1.0,)).mean() == 0.0

    def test_observe_many_is_repeated_observe(self):
        # 0.1 is not a binary fraction, so a multiplied total would
        # differ from the summed one in the last bits.
        one, many = Histogram(edges=(4.0, 8.0)), Histogram(edges=(4.0, 8.0))
        for value, n in ((12.3, 1), (4.1, 1000), (0.1, 7), (4.1, 3)):
            for _ in range(n):
                one.observe(value)
            many.observe_many(value, n)
        assert (many.counts, many.count) == (one.counts, one.count)
        assert many.total == one.total
        assert many.total != 12.3 + 4.1 * 1003 + 0.1 * 7

    def test_unsorted_or_duplicate_edges_rejected(self):
        with pytest.raises(ObservabilityError, match="strictly increasing"):
            Histogram(edges=(8.0, 4.0))
        with pytest.raises(ObservabilityError, match="strictly increasing"):
            Histogram(edges=(4.0, 4.0))

    def test_registry_histogram_snapshot_is_self_describing(self):
        registry = MetricsRegistry()
        registry.histogram("access.latency").observe(4)
        snap = registry.snapshot()["histograms"]["access.latency"]
        assert snap["edges"] == list(LATENCY_EDGES_CYCLES)
        assert len(snap["counts"]) == len(LATENCY_EDGES_CYCLES) + 1
        assert snap["count"] == 1
        assert snap["sum"] == 4


class TestCatalog:
    def test_catalog_kinds_and_units(self):
        for spec in METRIC_CATALOG.values():
            assert spec.kind in ("counter", "gauge", "histogram")
            assert spec.unit
            assert spec.module.startswith("repro.")
            assert spec.description.endswith(".")

    def test_snapshot_is_json_serialisable(self):
        import json

        registry = MetricsRegistry()
        registry.counter("cache.l1.hits").inc()
        registry.counter("cache.fills", label="L1D").inc()
        registry.gauge("channel.threshold").set(8)
        registry.histogram("access.latency").observe(4)
        json.dumps(registry.snapshot())
