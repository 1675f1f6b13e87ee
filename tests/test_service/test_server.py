"""End-to-end service behaviour over a real socket.

Admission control, backpressure, circuit breaking, execution failures,
singleflight, deadlines, and graceful drain — all through the blocking
client, exactly the way a real caller sees them.
"""

import json
import math
import os
import threading
import time

import pytest

from repro.common.deadline import Deadline
from repro.common.errors import ServiceError
from repro.experiments.supervisor import ExecutorOutcome, ExecutorStats
from repro.service.protocol import Request
from repro.service.server import InlineBackend, ServiceConfig
from tests.test_service import fakes

#: The request whose cache entry the failed-execution tests inspect.
FLAKY = Request("run", experiment_id="flaky")


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
        assert "degraded" not in first
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
            registry=dict(fakes.FAST_REGISTRY), rate=64.0, burst=1
        )
        # Time stands still unless the test moves it, at a whole second
        # no earlier than the bucket's creation, so that adding 1/64 s
        # gives back exactly one token.
        now = [float(math.ceil(time.monotonic()))]
        harness.service.bucket.clock = lambda: now[0]
        with harness.client() as client:
            assert client.request("alpha")["status"] == "ok"
            rejected = client.request("alpha")
            assert rejected["status"] == "rejected"
            now[0] += 1 / 64.0  # one token back
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


class TestExecutionFailures:
    """A request the node cannot execute is an error naming the cause."""

    def test_failures_trip_breaker_and_answer_typed_errors(
        self, harness_factory
    ):
        registry = {"boom": fakes.run_boom, "alpha": fakes.run_alpha}
        harness = harness_factory(
            registry=registry,
            pools=1,
            breaker_failures=2,
            breaker_reset=60.0,
        )
        with harness.client() as client:
            first = client.request("boom", refresh=True, request_id="b1")
            second = client.request("boom", refresh=True)
            third = client.request("boom", refresh=True)
            stats = client.stats()
        for response in (first, second, third):
            assert response["status"] == "error"
            assert "result" not in response
        assert first["request_id"] == "b1"
        # The first two executed (and failed); the third hit the open
        # breaker without executing.
        assert first["error"]["type"] == "RuntimeError"
        assert "deterministically broken" in first["error"]["message"]
        assert second["error"]["type"] == "RuntimeError"
        assert third["error"]["type"] == "CircuitOpen"
        assert stats["pools"]["pool-0"]["breaker"] == "open"
        counters = stats["metrics"]["counters"]
        assert counters["service.requests.failed"] == {
            "RuntimeError": 2,
            "CircuitOpen": 1,
        }
        gauges = stats["metrics"]["gauges"]
        assert gauges["service.breaker.state"]["pool-0"] == 2  # open

    @pytest.mark.parametrize(
        "bound", [{}, {"timeout_seconds": 30.0}], ids=["unbounded", "timeout"]
    )
    def test_failure_on_registered_seed_is_not_retried_with_another(
        self, harness_factory, bound
    ):
        harness = harness_factory(
            registry={"flaky": fakes.run_flaky}, pools=1, **bound
        )
        with harness.client() as client:
            response = client.request("flaky")
        assert response["status"] == "error"
        assert response["error"]["type"] == "RuntimeError"
        assert "result" not in response
        service = harness.service
        assert service.pools[0].breaker._consecutive_failures == 1
        assert service.cache.get_payload(service._key_for(FLAKY)) is None

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
            assert response["status"] == "error"
            assert response["error"]["type"] == "RuntimeError"
        service = harness.service
        assert service.pools[0].breaker._consecutive_failures == 2
        assert service.cache.get_payload(service._key_for(FLAKY)) is None

    def test_open_breaker_refuses_a_refresh_but_serves_the_cache(
        self, harness_factory
    ):
        # alpha succeeds and is cached; boom then trips the shared
        # pool's breaker.  A plain alpha request is still a cache read,
        # but a *refresh* must execute, so the open breaker refuses it.
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
            cached = client.request("alpha")
            refused = client.request("alpha", refresh=True)
        assert exact["status"] == "ok"
        assert cached["source"] == "cache"
        assert canonical(cached["result"]) == canonical(exact["result"])
        assert refused["status"] == "error"
        assert refused["error"]["type"] == "CircuitOpen"

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
            assert client.request("flaky", refresh=True)["status"] == "error"
            flip["broken"] = False
            time.sleep(0.5)  # past reset_timeout * (1 + jitter)
            recovered = client.request("flaky", refresh=True)
            stats = client.stats()
        assert recovered["status"] == "ok"
        assert recovered["source"] == "pool"
        assert stats["pools"]["pool-0"]["breaker"] == "closed"


class TestDeadlines:
    def test_blown_deadline_is_a_timeout_error(self, harness_factory):
        registry = {"sleepy": fakes.run_sleepy}
        harness = harness_factory(registry=registry, pools=1)
        with harness.client() as client:
            response = client.request("sleepy", deadline_ms=100)
        assert response["status"] == "error"
        assert response["error"]["type"] == "ExperimentTimeout"

    def test_generous_deadline_is_exact(self, harness_factory):
        harness = harness_factory(registry=dict(fakes.FAST_REGISTRY))
        with harness.client() as client:
            response = client.request("delta", deadline_ms=30000)
        assert response["status"] == "ok"
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

    def test_coalesced_requests_share_one_failure(self, harness_factory):
        # Every waiter gets the execution's typed error, but the one
        # execution is one piece of breaker evidence.
        calls = []
        lock = threading.Lock()

        def slow_boom():
            with lock:
                calls.append(True)
            time.sleep(0.5)
            raise RuntimeError("deterministically broken")

        harness = harness_factory(
            registry={"slow_boom": slow_boom},
            pools=1,
            breaker_failures=5,
            breaker_reset=60.0,
        )
        responses = []

        def fire():
            with harness.client(timeout=30.0) as client:
                responses.append(client.request("slow_boom"))

        threads = [threading.Thread(target=fire) for _ in range(3)]
        for thread in threads:
            thread.start()
            time.sleep(0.05)  # all land while the first executes
        for thread in threads:
            thread.join(30.0)
        assert len(calls) == 1
        assert [r["error"]["type"] for r in responses] == ["RuntimeError"] * 3
        assert all("result" not in r for r in responses)
        assert harness.service.pools[0].breaker._consecutive_failures == 1


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
        assert responses[0]["source"] == "pool"

    def test_drain_abandoned_requests_are_answered_draining(
        self, harness_factory
    ):
        # A drain that outlasts its timeout abandons the running request
        # and the one queued behind it.  Both are answered ``draining``
        # (reconnect and retry; a router fails over on it), not an error
        # that would read as a malformed request.
        registry = {"slow": fakes.run_slow, "alpha": fakes.run_alpha}
        harness = harness_factory(
            registry=registry, pools=1, drain_timeout=0.2
        )
        responses = {}

        def fire(experiment_id):
            with harness.client(timeout=30.0) as client:
                responses[experiment_id] = client.request(experiment_id)

        threads = [
            threading.Thread(target=fire, args=(experiment_id,))
            for experiment_id in ("slow", "alpha")
        ]
        for thread in threads:
            thread.start()
            time.sleep(0.3)  # slow executes, then alpha queues behind it
        harness.stop()
        for thread in threads:
            thread.join(30.0)
        assert {name: r["status"] for name, r in responses.items()} == {
            "slow": "draining",
            "alpha": "draining",
        }


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
    """Records what a bounded execution asks for; answers with a failure."""

    made = []

    def __init__(self, **kwargs):
        self.kwargs = kwargs
        self.tasks = None
        FakeSupervisedExecutor.made.append(self)

    def run(self, tasks, on_record):
        self.tasks = list(tasks)
        experiment_id = self.tasks[0][0]
        payload = {
            "experiment_id": experiment_id,
            "error_type": "RuntimeError",
            "message": "scripted",
            "attempts": 1,
            "elapsed_seconds": 0.0,
        }
        on_record((experiment_id, "failure", payload, 0.0, None))
        return ExecutorOutcome(stats=ExecutorStats())


class TestBackendRunsOnce:
    """Each service execution is one attempt on the registered seed."""

    @pytest.fixture
    def fake_executor(self, monkeypatch):
        import repro.experiments.supervisor as supervisor

        FakeSupervisedExecutor.made = []
        monkeypatch.setattr(
            supervisor, "SupervisedExecutor", FakeSupervisedExecutor
        )
        return FakeSupervisedExecutor.made

    def test_service_config_has_no_retry_or_backend_knob(self):
        with pytest.raises(TypeError):
            ServiceConfig(retries=1)
        with pytest.raises(TypeError):
            ServiceConfig(backend="supervised")

    def test_backend_builds_a_single_attempt_runner(self):
        backend = InlineBackend(
            ServiceConfig(timeout_seconds=2.0), {"alpha": fakes.run_alpha}
        )
        assert backend.runner.timeout_seconds == 2.0

    def test_unbounded_execution_runs_once_without_an_executor(
        self, fake_executor
    ):
        seeds = []

        def flaky(rng: int = 5):
            seeds.append(rng)
            return fakes.run_flaky(rng)

        backend = InlineBackend(ServiceConfig(), {"flaky": flaky})
        outcome = backend.execute("flaky", None)
        assert outcome["ok"] is False
        assert outcome["error"]["type"] == "RuntimeError"
        assert seeds == [5]
        assert fake_executor == []
        assert backend.worker_pids() == []

    def test_bounded_execution_asks_for_one_attempt(self, fake_executor):
        backend = InlineBackend(
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
        assert spec[0] == "flaky"
        assert executor.kwargs["task_deadline"] == 2.0

    @pytest.mark.parametrize(
        "timeout, budget, expected",
        [(60.0, 0.5, 0.5), (0.2, 60.0, 0.2), (None, 0.5, 0.5)],
    )
    def test_task_deadline_is_the_smaller_bound(
        self, fake_executor, timeout, budget, expected
    ):
        backend = InlineBackend(
            ServiceConfig(timeout_seconds=timeout),
            {"flaky": fakes.run_flaky},
        )
        backend.execute("flaky", Deadline.after(budget))
        (executor,) = fake_executor
        # The deadline's remaining time shrinks a little before it is
        # read, so the bound is at most ``expected`` and close to it.
        task_deadline = executor.kwargs["task_deadline"]
        assert expected - 0.1 < task_deadline <= expected

    def test_worker_pids_list_the_live_worker_of_a_bounded_request(self):
        backend = InlineBackend(
            ServiceConfig(timeout_seconds=30.0, heartbeat_interval=0.05),
            {"sleepy": fakes.run_sleepy},
        )
        outcomes = []
        thread = threading.Thread(
            target=lambda: outcomes.append(backend.execute("sleepy", None))
        )
        thread.start()
        seen = []
        give_up = time.monotonic() + 10.0
        while not seen and thread.is_alive() and time.monotonic() < give_up:
            seen = backend.worker_pids()
            time.sleep(0.01)
        thread.join(30.0)
        assert outcomes[0]["ok"] is True
        (pid,) = seen
        assert pid != os.getpid()
        assert backend.worker_pids() == []
