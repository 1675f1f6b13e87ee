"""End-to-end service behaviour over a real socket.

Admission control, backpressure, circuit breaking, degraded serving,
singleflight, deadlines, and graceful drain — all through the blocking
client, exactly the way a real caller sees them.
"""

import json
import threading
import time

import pytest

from repro.common.deadline import Deadline
from repro.common.errors import ServiceError
from repro.experiments.runner import ExperimentRunner
from repro.service.server import (
    InlineBackend,
    ServiceConfig,
    SupervisedBackend,
)
from tests.test_service import fakes


def canonical(result):
    return json.dumps(result, sort_keys=True)


class TestBasicServing:
    def test_execute_then_cache(self, harness_factory):
        harness = harness_factory(registry=dict(fakes.FAST_REGISTRY))
        with harness.client() as client:
            first = client.request("alpha", request_id="r1")
            second = client.request("alpha", request_id="r2")
        assert first["status"] == "ok"
        assert first["source"] == "pool"
        assert not first["degraded"]
        assert second["source"] == "cache"
        # Bit-identity: the cached payload is the stored canonical form.
        assert canonical(first["result"]) == canonical(second["result"])
        assert first["cache_key"] == second["cache_key"]

    def test_result_matches_direct_execution(self, harness_factory):
        harness = harness_factory(registry=dict(fakes.FAST_REGISTRY))
        with harness.client() as client:
            response = client.request("beta")
        direct = fakes.run_beta().to_dict()
        assert canonical(response["result"]) == canonical(direct)

    def test_refresh_bypasses_the_cache_read(self, harness_factory):
        harness = harness_factory(registry=dict(fakes.FAST_REGISTRY))
        with harness.client() as client:
            client.request("gamma")
            refreshed = client.request("gamma", refresh=True)
        assert refreshed["source"] == "pool"

    def test_ping_and_stats(self, harness_factory):
        harness = harness_factory(registry=dict(fakes.FAST_REGISTRY))
        with harness.client() as client:
            assert client.ping()["status"] == "pong"
            stats = client.stats()
        assert stats["status"] == "stats"
        assert not stats["draining"]
        assert len(stats["pools"]) == 2
        for pool in stats["pools"].values():
            assert pool["breaker"] == "closed"

    def test_unknown_experiment_is_an_error(self, harness_factory):
        harness = harness_factory(registry=dict(fakes.FAST_REGISTRY))
        with harness.client() as client:
            response = client.request("nope")
        assert response["status"] == "error"
        assert "unknown experiment" in response["error"]["message"]

    def test_malformed_line_gets_error_and_connection_survives(
        self, harness_factory
    ):
        harness = harness_factory(registry=dict(fakes.FAST_REGISTRY))
        with harness.client() as client:
            client.connect()
            client._sock.sendall(b"this is not json\n")
            line = client._file.readline()
            response = json.loads(line)
            assert response["status"] == "error"
            # Same connection still works.
            assert client.ping()["status"] == "pong"


class TestAdmissionControl:
    def test_burst_exhaustion_rejects_with_retry_hint(
        self, harness_factory
    ):
        harness = harness_factory(
            registry=dict(fakes.FAST_REGISTRY), rate=0.001, burst=2
        )
        with harness.client() as client:
            assert client.request("alpha")["status"] == "ok"
            assert client.request("alpha")["status"] == "ok"
            third = client.request("alpha")
        assert third["status"] == "rejected"
        assert third["retry_after_ms"] > 0
        with harness.client() as client:
            stats = client.stats()  # ping/stats are never admission-gated
        counters = stats["metrics"]["counters"]
        assert counters["service.requests.rejected"] == 1
        assert counters["service.requests.admitted"] == 2

    def test_bucket_refills_over_time(self, harness_factory):
        harness = harness_factory(
            registry=dict(fakes.FAST_REGISTRY), rate=50.0, burst=1
        )
        with harness.client() as client:
            assert client.request("alpha")["status"] == "ok"
            rejected = client.request("alpha")
            assert rejected["status"] == "rejected"
            time.sleep(0.1)  # > 1/50 s: one token back
            assert client.request("alpha")["status"] == "ok"


class TestBackpressure:
    def test_full_queue_sheds(self, harness_factory):
        registry = dict(fakes.FAST_REGISTRY)
        registry["slow"] = fakes.run_slow
        harness = harness_factory(
            registry=registry, pools=1, queue_depth=1, burst=50
        )

        def occupy():
            with harness.client(timeout=30.0) as client:
                client.request("slow")

        def queue_one():
            with harness.client(timeout=30.0) as client:
                client.request("sleepy" if False else "alpha")

        occupier = threading.Thread(target=occupy)
        occupier.start()
        time.sleep(0.5)  # slow is executing now, queue is empty
        filler = threading.Thread(target=queue_one)
        filler.start()
        time.sleep(0.5)  # alpha occupies the single queue slot
        with harness.client() as client:
            shed = client.request("beta")
        assert shed["status"] == "shed"
        assert shed["retry_after_ms"] >= 0
        occupier.join(30.0)
        filler.join(30.0)
        with harness.client() as client:
            counters = client.stats()["metrics"]["counters"]
        assert counters["service.requests.shed"] == 1


class TestDegradedServing:
    def test_failures_trip_breaker_and_serve_stub(self, harness_factory):
        registry = {"boom": fakes.run_boom, "alpha": fakes.run_alpha}
        harness = harness_factory(
            registry=registry,
            pools=1,
            breaker_failures=2,
            breaker_reset=60.0,
        )
        with harness.client() as client:
            first = client.request("boom", refresh=True)
            second = client.request("boom", refresh=True)
            third = client.request("boom", refresh=True)
            stats = client.stats()
        # Every failure is served degraded, not errored.
        for response in (first, second, third):
            assert response["status"] == "ok"
            assert response["degraded"]
            assert response["source"] == "stub"
            assert response["result"]["experiment_id"] == "boom"
        # The first two executed (and failed); the third hit the open
        # breaker without executing.
        assert first["error"]["type"] == "RuntimeError"
        assert second["error"]["type"] == "RuntimeError"
        assert third["error"]["type"] == "CircuitOpen"
        assert stats["pools"]["pool-0"]["breaker"] == "open"
        counters = stats["metrics"]["counters"]
        assert counters["service.requests.degraded"] == 3
        gauges = stats["metrics"]["gauges"]
        assert gauges["service.breaker.state"]["pool-0"] == 2  # open

    @pytest.mark.parametrize("backend", ["inline", "supervised"])
    def test_failure_on_registered_seed_is_not_retried_with_another(
        self, harness_factory, backend
    ):
        harness = harness_factory(
            registry={"flaky": fakes.run_flaky}, pools=1, backend=backend
        )
        with harness.client() as client:
            response = client.request("flaky")
        assert response["status"] == "ok"
        assert response["degraded"] is True
        assert response["source"] == "stub"
        assert response["error"]["type"] == "RuntimeError"
        service = harness.service
        assert service.pools[0].breaker._consecutive_failures == 1
        assert service.cache.get_payload(service._key_for("flaky")) is None

    def test_failed_execution_is_recomputed_on_the_next_request(
        self, harness_factory
    ):
        # Nothing from the failed execution is cached, so a repeat
        # request executes again (and fails again) on the same seed.
        harness = harness_factory(
            registry={"flaky": fakes.run_flaky}, pools=1
        )
        with harness.client() as client:
            first = client.request("flaky")
            second = client.request("flaky")
        for response in (first, second):
            assert response["degraded"] is True
            assert response["error"]["type"] == "RuntimeError"
        service = harness.service
        assert service.pools[0].breaker._consecutive_failures == 2
        assert service.cache.get_payload(service._key_for("flaky")) is None

    def test_open_breaker_serves_cached_result_for_healthy_key(
        self, harness_factory
    ):
        # alpha succeeds and is cached; boom then trips the shared
        # pool's breaker; a *refresh* request for alpha now cannot
        # execute, but the cached result keeps serving, tagged degraded.
        registry = {"boom": fakes.run_boom, "alpha": fakes.run_alpha}
        harness = harness_factory(
            registry=registry,
            pools=1,
            breaker_failures=1,
            breaker_reset=60.0,
        )
        with harness.client() as client:
            exact = client.request("alpha")
            client.request("boom")  # trips the breaker
            degraded = client.request("alpha", refresh=True)
        assert exact["status"] == "ok" and not exact["degraded"]
        assert degraded["degraded"]
        assert degraded["source"] == "cache"
        assert canonical(degraded["result"]) == canonical(exact["result"])

    def test_breaker_recovers_through_half_open_probe(
        self, harness_factory
    ):
        flip = {"broken": True}

        def flaky():
            if flip["broken"]:
                raise RuntimeError("still broken")
            return fakes.run_gamma()

        harness = harness_factory(
            registry={"flaky": flaky},
            pools=1,
            breaker_failures=1,
            breaker_reset=0.2,
        )
        with harness.client() as client:
            assert client.request("flaky", refresh=True)["degraded"]
            flip["broken"] = False
            time.sleep(0.5)  # past reset_timeout * (1 + jitter)
            recovered = client.request("flaky", refresh=True)
            stats = client.stats()
        assert not recovered["degraded"]
        assert recovered["source"] == "pool"
        assert stats["pools"]["pool-0"]["breaker"] == "closed"


class TestDeadlines:
    def test_blown_deadline_degrades_with_timeout_error(
        self, harness_factory
    ):
        registry = {"sleepy": fakes.run_sleepy}
        harness = harness_factory(registry=registry, pools=1)
        with harness.client() as client:
            response = client.request("sleepy", deadline_ms=100)
        assert response["status"] == "ok"
        assert response["degraded"]
        assert response["error"]["type"] == "ExperimentTimeout"

    def test_generous_deadline_is_exact(self, harness_factory):
        harness = harness_factory(registry=dict(fakes.FAST_REGISTRY))
        with harness.client() as client:
            response = client.request("delta", deadline_ms=30000)
        assert not response["degraded"]
        assert response["source"] == "pool"


class TestSingleflight:
    def test_concurrent_identical_requests_execute_once(
        self, harness_factory
    ):
        calls = []
        lock = threading.Lock()

        def counted():
            with lock:
                calls.append(True)
            time.sleep(0.5)
            return fakes.run_gamma()

        harness = harness_factory(registry={"counted": counted}, pools=1)
        responses = []

        def fire():
            with harness.client(timeout=30.0) as client:
                responses.append(client.request("counted"))

        threads = [threading.Thread(target=fire) for _ in range(4)]
        for thread in threads:
            thread.start()
            time.sleep(0.05)  # all land while the first executes
        for thread in threads:
            thread.join(30.0)
        assert len(calls) == 1  # one execution, four answers
        assert len(responses) == 4
        payloads = {canonical(r["result"]) for r in responses}
        assert len(payloads) == 1
        assert all(r["status"] == "ok" for r in responses)


class TestDrain:
    def test_drain_then_reconnect_served_bit_identically_from_cache(
        self, harness_factory, tmp_path
    ):
        cache_dir = str(tmp_path / "shared-cache")
        first = harness_factory(
            registry=dict(fakes.FAST_REGISTRY), cache_dir=cache_dir
        )
        with first.client() as client:
            original = client.request("alpha")
        first.stop()
        # The socket is gone after the drain.
        with pytest.raises((OSError, ServiceError)):
            with first.client(timeout=2.0) as client:
                client.ping()
        # A restarted service over the same cache dir serves the result
        # without re-executing, bit-identically.
        second = harness_factory(
            registry=dict(fakes.FAST_REGISTRY), cache_dir=cache_dir
        )
        with second.client() as client:
            replay = client.request("alpha")
        assert replay["source"] == "cache"
        assert canonical(replay["result"]) == canonical(original["result"])

    def test_drain_waits_for_inflight_request(self, harness_factory):
        registry = {"sleepy": fakes.run_sleepy}
        harness = harness_factory(registry=registry, pools=1)
        responses = []

        def fire():
            with harness.client(timeout=30.0) as client:
                responses.append(client.request("sleepy"))

        thread = threading.Thread(target=fire)
        thread.start()
        time.sleep(0.15)  # request is executing now
        harness.stop()  # graceful drain must let it finish
        thread.join(30.0)
        assert len(responses) == 1
        assert responses[0]["status"] == "ok"
        assert not responses[0]["degraded"]


class TestBatchTrials:
    def test_trials_request_answers_with_an_aggregate(
        self, harness_factory
    ):
        harness = harness_factory(registry=dict(fakes.FAST_REGISTRY))
        with harness.client() as client:
            response = client.request("alg1", trials=50)
        assert response["status"] == "ok"
        assert response["source"] == "pool"
        result = response["result"]
        assert result["experiment_id"] == "alg1@trials50"
        assert result["columns"] == [
            "trials",
            "mean_error_rate",
            "min_error_rate",
            "max_error_rate",
        ]
        (row,) = result["rows"]
        assert row[0] == 50
        assert 0.0 <= row[1] <= 1.0

    def test_trials_result_is_cached(self, harness_factory):
        harness = harness_factory(registry=dict(fakes.FAST_REGISTRY))
        with harness.client() as client:
            first = client.request("alg1", trials=50)
            second = client.request("alg1", trials=50)
        assert first["source"] == "pool"
        assert second["source"] == "cache"
        assert canonical(first["result"]) == canonical(second["result"])

    def test_trials_cache_key_is_distinct_per_count(self, harness_factory):
        harness = harness_factory(registry=dict(fakes.FAST_REGISTRY))
        with harness.client() as client:
            a = client.request("alg1", trials=50)
            b = client.request("alg1", trials=60)
        assert a["cache_key"] != b["cache_key"]
        assert b["source"] == "pool"

    def test_unknown_batch_algorithm_is_an_error(self, harness_factory):
        harness = harness_factory(registry=dict(fakes.FAST_REGISTRY))
        with harness.client() as client:
            response = client.request("alpha", trials=10)
        assert response["status"] == "error"
        assert "unknown batch algorithm" in response["error"]["message"]


class FakeSupervisedExecutor:
    """Records what SupervisedBackend asks for; answers with a failure."""

    made = []

    def __init__(self, **kwargs):
        self.kwargs = kwargs
        self.tasks = None
        FakeSupervisedExecutor.made.append(self)

    def run(self, tasks, on_record):
        self.tasks = list(tasks)
        experiment_id = self.tasks[0][0]
        on_record(
            (
                experiment_id,
                "failure",
                {"error_type": "RuntimeError", "message": "scripted"},
                None,
                None,
            )
        )


class TestBackendsRunOnce:
    """Each service execution is one attempt on the registered seed."""

    @pytest.fixture
    def fake_executor(self, monkeypatch):
        import repro.experiments.supervisor as supervisor

        FakeSupervisedExecutor.made = []
        monkeypatch.setattr(
            supervisor, "SupervisedExecutor", FakeSupervisedExecutor
        )
        return FakeSupervisedExecutor.made

    def test_service_config_has_no_retry_knob(self):
        with pytest.raises(TypeError):
            ServiceConfig(retries=1)

    def test_inline_backend_builds_a_single_attempt_runner(self):
        backend = InlineBackend(
            ServiceConfig(timeout_seconds=2.0), {"alpha": fakes.run_alpha}
        )
        assert backend.runner.retries == 0
        assert backend.runner.timeout_seconds == 2.0

    def test_inline_backend_executes_a_failing_experiment_once(self):
        seeds = []

        def flaky(rng: int = 5):
            seeds.append(rng)
            return fakes.run_flaky(rng)

        backend = InlineBackend(ServiceConfig(), {"flaky": flaky})
        outcome = backend.execute("flaky", None)
        assert outcome["ok"] is False
        assert outcome["error"]["type"] == "RuntimeError"
        assert seeds == [5]

    def test_supervised_backend_asks_for_one_attempt(self, fake_executor):
        backend = SupervisedBackend(
            ServiceConfig(timeout_seconds=2.0), {"flaky": fakes.run_flaky}
        )
        outcome = backend.execute("flaky", None)
        assert outcome == {
            "ok": False,
            "error": {"type": "RuntimeError", "message": "scripted"},
        }
        (executor,) = fake_executor
        (task_id, spec), = executor.tasks
        assert task_id == "flaky"
        experiment_id, timeout, retries = spec[:3]
        assert (experiment_id, timeout, retries) == ("flaky", 2.0, 0)
        assert executor.kwargs["task_deadline"] == (
            2.0 + ExperimentRunner.TASK_DEADLINE_GRACE
        )

    def test_supervised_backend_without_timeout_has_no_task_deadline(
        self, fake_executor
    ):
        backend = SupervisedBackend(
            ServiceConfig(), {"flaky": fakes.run_flaky}
        )
        backend.execute("flaky", None)
        (executor,) = fake_executor
        assert executor.tasks[0][1][1] is None
        assert executor.kwargs["task_deadline"] is None

    def test_supervised_backend_bounds_timeout_by_request_deadline(
        self, fake_executor
    ):
        backend = SupervisedBackend(
            ServiceConfig(timeout_seconds=60.0), {"flaky": fakes.run_flaky}
        )
        backend.execute("flaky", Deadline.after(0.5))
        (executor,) = fake_executor
        timeout = executor.tasks[0][1][1]
        assert 0 < timeout <= 0.5
        assert executor.kwargs["task_deadline"] == (
            timeout + ExperimentRunner.TASK_DEADLINE_GRACE
        )
