"""Chaos acceptance: the service under seeded faults.

The contract under chaos — worker kills (injected and real SIGKILL),
cache corruption, vanishing clients — is exactly this:

* zero unhandled client errors;
* every answered request is **exact** (bit-identical to a sequential
  no-chaos run); a request the node could not execute is an ``error``
  whose type names the cause.
"""

import json
import os
import signal
import threading
import time

import pytest

from repro.experiments.chaos import ChaosConfig, ServiceChaosConfig
from repro.service.loadgen import build_schedule, run_load
from tests.test_service import fakes


def canonical(result):
    return json.dumps(result, sort_keys=True)


def exact_baselines():
    """Sequential ground truth: experiment id -> canonical payload."""
    return {
        experiment_id: canonical(fn().to_dict())
        for experiment_id, fn in fakes.FAST_REGISTRY.items()
    }


class TestSupervisedBackend:
    """A bounded execution runs in a supervised worker process."""

    def test_supervised_execution_matches_inline(self, harness_factory):
        harness = harness_factory(
            registry=dict(fakes.FAST_REGISTRY),
            timeout_seconds=60.0,
            pools=1,
        )
        with harness.client(timeout=60.0) as client:
            response = client.request("alpha")
        assert response["status"] == "ok"
        assert response["source"] == "pool"
        assert canonical(response["result"]) == exact_baselines()["alpha"]

    def test_sigkill_worker_mid_request_is_survived(self, harness_factory):
        registry = dict(fakes.FAST_REGISTRY)
        registry["slow"] = fakes.run_slow
        harness = harness_factory(
            registry=registry,
            timeout_seconds=60.0,
            pools=1,
            max_task_crashes=3,
        )
        responses = []

        def fire():
            with harness.client(timeout=120.0) as client:
                responses.append(client.request("slow"))

        thread = threading.Thread(target=fire)
        thread.start()
        # Wait for the worker process to appear, then SIGKILL it.
        killed = None
        deadline = time.monotonic() + 30.0
        while killed is None and time.monotonic() < deadline:
            for pids in harness.service.worker_pids().values():
                for pid in pids:
                    os.kill(pid, signal.SIGKILL)
                    killed = pid
                    break
                if killed:
                    break
            time.sleep(0.05)
        assert killed is not None, "no worker process ever appeared"
        thread.join(120.0)
        assert len(responses) == 1
        response = responses[0]
        # The kill was retried (exact result) — never an unhandled error.
        assert response["status"] == "ok"
        assert canonical(response["result"]) == canonical(
            fakes._result("slow", 1).to_dict()
        )

    def test_poison_task_is_a_typed_error_instead_of_wedging(
        self, harness_factory
    ):
        # Chaos kills the worker before it can report, every attempt:
        # the supervisor quarantines the task and the service answers an
        # error naming the crash — never a transport error.
        chaos = ServiceChaosConfig(
            seed=3,
            worker=ChaosConfig(
                seed=3, kill_before_report=1.0, only_tasks=("alpha",)
            ),
        )
        harness = harness_factory(
            registry=dict(fakes.FAST_REGISTRY),
            timeout_seconds=60.0,
            pools=1,
            max_task_crashes=2,
            chaos=chaos,
        )
        with harness.client(timeout=120.0) as client:
            poisoned = client.request("alpha")
            healthy = client.request("beta")
        assert poisoned["status"] == "error"
        assert poisoned["error"]["type"] == "WorkerCrashed"
        assert "quarantined" in poisoned["error"]["message"]
        assert "result" not in poisoned
        assert healthy["status"] == "ok"
        assert canonical(healthy["result"]) == exact_baselines()["beta"]


class TestChaosBatch:
    def test_200_request_batch_zero_errors_every_answer_exact(
        self, harness_factory
    ):
        chaos = ServiceChaosConfig(
            seed=7,
            corrupt_cache=0.5,
            client_disconnect=0.05,
        )
        harness = harness_factory(
            registry=dict(fakes.FAST_REGISTRY),
            pools=2,
            queue_depth=8,
            rate=500.0,
            burst=100,
            chaos=chaos,
        )
        schedule = build_schedule(
            200, sorted(fakes.FAST_REGISTRY), seed=1, repeat_bias=0.7
        )
        report = run_load(
            "127.0.0.1", harness.port, schedule, chaos=chaos, timeout=60.0
        )

        # The acceptance bar, verbatim.
        assert report.client_errors == 0
        baselines = exact_baselines()
        for response in report.responses:
            assert response["status"] in ("ok", "rejected", "shed")
            if response["status"] != "ok":
                continue
            experiment_id = response["result"]["experiment_id"]
            assert canonical(response["result"]) == baselines[experiment_id]

        # The chaos actually struck: some clients vanished, and at
        # least one cache entry was bit-flipped, detected, and
        # quarantined (never served corrupt).
        assert report.disconnected > 0
        with harness.client() as client:
            counters = client.stats()["metrics"]["counters"]
        assert counters.get("service.cache.corrupt", 0) >= 1
        # Under 50% write-corruption the cache still carries real load.
        assert report.hit_rate > 0.2
        assert report.total == 200 - report.disconnected

    def test_batch_replays_identically_from_its_seed(self, harness_factory):
        chaos = ServiceChaosConfig(seed=7, client_disconnect=0.05)
        schedule = build_schedule(
            60, sorted(fakes.FAST_REGISTRY), seed=2, repeat_bias=0.7
        )

        def one_run():
            harness = harness_factory(registry=dict(fakes.FAST_REGISTRY))
            report = run_load(
                "127.0.0.1", harness.port, schedule, chaos=chaos
            )
            harness.stop()
            return (
                report.disconnected,
                report.total,
                [canonical(r["result"]) for r in report.responses],
            )

        assert one_run() == one_run()
