"""Load generator: schedule determinism, report arithmetic, and a cold
batch through a live service."""

import json

import pytest

from repro.service.loadgen import LoadReport, build_schedule, run_load

from tests.test_service import fakes


class TestBuildSchedule:
    def test_deterministic_in_seed(self):
        ids = ["a", "b", "c"]
        assert build_schedule(50, ids, seed=4) == build_schedule(
            50, ids, seed=4
        )
        assert build_schedule(50, ids, seed=4) != build_schedule(
            50, ids, seed=5
        )

    def test_repeat_bias_skews_popularity(self):
        # With heavy repeat bias, a few ids dominate; with none, every
        # draw is fresh-uniform.
        ids = [f"x{i}" for i in range(10)]
        skewed = build_schedule(200, ids, seed=1, repeat_bias=0.9)
        top_share = max(skewed.count(i) for i in ids) / len(skewed)
        assert top_share > 0.3
        flat = build_schedule(200, ids, seed=1, repeat_bias=0.0)
        assert set(flat) == set(ids)

    def test_only_known_ids_appear(self):
        ids = ["a", "b"]
        assert set(build_schedule(100, ids, seed=0)) <= set(ids)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n": 0, "experiment_ids": ["a"]},
            {"n": 5, "experiment_ids": []},
            {"n": 5, "experiment_ids": ["a"], "repeat_bias": 1.5},
        ],
    )
    def test_bad_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            build_schedule(**kwargs)


class TestLoadReport:
    def _report(self, latencies):
        report = LoadReport()
        for index, latency in enumerate(latencies):
            report.record(
                {"status": "ok", "source": "cache" if index else "pool"},
                latency,
            )
        return report

    def test_percentiles_nearest_rank(self):
        report = self._report([float(i) for i in range(1, 101)])
        assert report.p50_ms == 50.0
        assert report.p99_ms == 99.0
        assert report.percentile_ms(100.0) == 100.0

    def test_empty_report_is_all_zero(self):
        report = LoadReport()
        assert report.p50_ms == 0.0
        assert report.hit_rate == 0.0

    def test_hit_rate_counts_cache_over_ok(self):
        report = self._report([1.0, 1.0, 1.0, 1.0])  # 1 pool + 3 cache
        assert report.hit_rate == 0.75

    def test_statuses_tallied(self):
        report = LoadReport()
        report.record({"status": "ok", "source": "pool"}, 1.0)
        report.record({"status": "error", "error": {"type": "CircuitOpen"}}, 0.1)
        report.record({"status": "shed"}, 0.1)
        assert report.by_status == {"ok": 1, "error": 1, "shed": 1}
        summary = report.summary()
        assert summary["total"] == 3
        assert summary["by_status"] == {"ok": 1, "error": 1, "shed": 1}

    def test_typed_errors_are_answers_not_client_errors(self):
        # A node's typed error is an answer: it is tallied by status,
        # is no client-side failure, and leaves the hit rate over ok.
        report = LoadReport()
        report.record({"status": "ok", "source": "cache"}, 1.0)
        report.record({"status": "ok", "source": "pool"}, 1.0)
        report.record(
            {"status": "error", "error": {"type": "ExperimentTimeout"}}, 0.1
        )
        assert report.client_errors == 0
        assert report.hit_rate == 0.5
        assert report.summary()["by_status"] == {"ok": 2, "error": 1}

    def test_percentile_validates_range(self):
        with pytest.raises(ValueError):
            self._report([1.0]).percentile_ms(150.0)


class TestColdCacheBatch:
    def test_popularity_skew_is_absorbed_by_the_cache(self, harness_factory):
        """A 200-request popularity-skewed batch against a cold cache:
        no client errors, every answer exact, and at least half of them
        served from the cache.  The hit rate is a seeded property of the
        schedule, so the floor holds on any host."""
        harness = harness_factory(
            registry=dict(fakes.FAST_REGISTRY),
            port=0,
            pools=2,
            queue_depth=8,
            rate=500.0,
            burst=100,
            seed=0,
        )
        expected = {
            experiment_id: json.dumps(fn().to_dict(), sort_keys=True)
            for experiment_id, fn in fakes.FAST_REGISTRY.items()
        }
        schedule = build_schedule(
            200, sorted(fakes.FAST_REGISTRY), seed=1, repeat_bias=0.7
        )
        report = run_load("127.0.0.1", harness.port, schedule, timeout=60.0)
        assert report.client_errors == 0
        assert report.total == 200
        for response in report.responses:
            assert response["status"] == "ok"
            result = response["result"]
            assert json.dumps(result, sort_keys=True) == (
                expected[result["experiment_id"]]
            )
        assert report.hit_rate >= 0.5
        assert report.p99_ms > 0
