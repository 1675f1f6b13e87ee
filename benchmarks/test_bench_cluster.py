"""Cluster benchmark: a seeded loadgen batch through the router fabric.

Regenerate the committed baseline with::

    PYTHONPATH=src python -m pytest benchmarks/test_bench_cluster.py \
        --benchmark-only --benchmark-json=benchmarks/BENCH_cluster.json

The fabric's robustness claim is that replication is *cheap in the
common case and bounded in the failure case*: routing a popularity-
skewed 200-request batch through the router to a healthy 3-node cluster
should cost roughly a healthy single node plus one extra hop, and
killing a node mid-deployment should add failover latency without
adding client errors.  The bench records what
``scripts_check_bench_regression.py`` polices for
``workload == "cluster-route"`` runs:

* ``client_errors`` — must be zero in every round, healthy *and*
  post-kill (the fabric's whole contract);
* ``p99_ms`` / ``p50_ms`` — per-request tail and median through the
  router (absolute values are machine-bound; the check requires their
  presence and a positive tail);
* ``failover_added_ms`` — p99 delta between the post-kill batch and
  the last healthy (warm) batch, recorded so regressions in failover
  cost are visible in review even though the check only requires the
  number to exist.

Exactness is asserted before timing: every response must be
bit-identical to a direct sequential execution, in every round,
including the post-kill one.
"""

import asyncio
import json
import threading

from repro.cluster import ClusterRouter, Membership, Peer, RouterConfig
from repro.experiments.base import ExperimentResult
from repro.service.loadgen import build_schedule, run_load
from repro.service.server import ExperimentService, ServiceConfig

#: The canonical bench batch: size, popularity skew, and seeds.
REQUESTS = 200
REPEAT_BIAS = 0.7
SCHEDULE_SEED = 1
CLUSTER_SEED = 0
NODES = 3


def _result(experiment_id, value):
    return ExperimentResult(
        experiment_id=experiment_id,
        title=f"bench {experiment_id}",
        columns=["value"],
        rows=[[value]],
    )


def run_alpha(rng: int = 11):
    return _result("alpha", rng * 2)


def run_beta(rng: int = 22):
    return _result("beta", rng + 1)


def run_gamma():
    return _result("gamma", 333)


def run_delta(rng: int = 44):
    return _result("delta", rng * rng)


REGISTRY = {
    "alpha": run_alpha,
    "beta": run_beta,
    "gamma": run_gamma,
    "delta": run_delta,
}


class _ClusterHarness:
    """Three nodes plus a router on one background loop (bench-local)."""

    def __init__(self, cache_root):
        self.cache_root = cache_root
        self.services = {}
        self.router = None
        self.router_port = None
        self._loop = None
        self._stop = None
        self._ready = threading.Event()
        self._error = None
        self._thread = threading.Thread(target=self._run, daemon=True)

    def start(self):
        self._thread.start()
        assert self._ready.wait(30.0), "cluster failed to start in time"
        if self._error is not None:
            raise self._error
        return self

    def _run(self):
        asyncio.run(self._main())

    async def _main(self):
        self._loop = asyncio.get_event_loop()
        self._stop = asyncio.Event()
        try:
            peers = []
            for index in range(NODES):
                name = f"node{index}"
                service = ExperimentService(
                    ServiceConfig(
                        port=0,
                        pools=1,
                        queue_depth=8,
                        rate=500.0,
                        burst=100,
                        cache_dir=str(self.cache_root / f"cache-{name}"),
                        drain_timeout=10.0,
                        seed=CLUSTER_SEED,
                        name=name,
                    ),
                    registry=REGISTRY,
                )
                await service.start()
                self.services[name] = service
                peers.append(
                    Peer(name=name, host="127.0.0.1", port=service.port)
                )
            self.router = ClusterRouter(
                RouterConfig(seed=CLUSTER_SEED, health_interval=0.2),
                Membership(peers),
            )
            await self.router.start()
            self.router_port = self.router.port
        except BaseException as error:  # noqa: BLE001 - surfaced in start()
            self._error = error
            self._ready.set()
            return
        self._ready.set()
        await self._stop.wait()
        await self.router.drain()
        await asyncio.gather(
            *(service.drain() for service in self.services.values()),
            return_exceptions=True,
        )

    def stop(self):
        if self._loop is not None and self._stop is not None:
            try:
                self._loop.call_soon_threadsafe(self._stop.set)
            except RuntimeError:
                pass
        self._thread.join(30.0)
        assert not self._thread.is_alive(), "cluster failed to drain"

    def kill_node(self, name):
        asyncio.run_coroutine_threadsafe(
            self.services[name].abort(), self._loop
        ).result(10.0)


def canonical(result):
    return json.dumps(result, sort_keys=True)


def test_bench_cluster_route(benchmark, tmp_path):
    """Routed loadgen batches, then a post-kill batch for failover cost."""
    harness = _ClusterHarness(tmp_path).start()
    schedule = build_schedule(
        REQUESTS,
        sorted(REGISTRY),
        seed=SCHEDULE_SEED,
        repeat_bias=REPEAT_BIAS,
    )
    baselines = {
        experiment_id: canonical(fn().to_dict())
        for experiment_id, fn in REGISTRY.items()
    }
    reports = []

    def batch():
        reports.append(
            run_load(
                "127.0.0.1", harness.router_port, schedule, timeout=60.0
            )
        )

    def assert_exact(report):
        assert report.client_errors == 0, "loadgen saw transport errors"
        assert report.total == REQUESTS
        for response in report.responses:
            assert response["status"] == "ok"
            assert not response.get("degraded")
            experiment_id = response["result"]["experiment_id"]
            assert (
                canonical(response["result"]) == baselines[experiment_id]
            )

    try:
        # Rounds 1..3 time the healthy fabric (round 1 cold, later
        # rounds warm); the post-kill batch is measured separately so
        # failover cost never pollutes the timed mean.
        benchmark.pedantic(batch, rounds=3, iterations=1)
        warm = reports[-1]
        harness.kill_node("node0")
        failover_reports = []
        failover_reports.append(
            run_load(
                "127.0.0.1", harness.router_port, schedule, timeout=60.0
            )
        )
        failover = failover_reports[0]
    finally:
        harness.stop()

    for report in reports + [failover]:
        assert_exact(report)

    cold = reports[0].summary()
    benchmark.extra_info["workload"] = "cluster-route"
    benchmark.extra_info["nodes"] = NODES
    benchmark.extra_info["requests"] = REQUESTS
    benchmark.extra_info["repeat_bias"] = REPEAT_BIAS
    benchmark.extra_info["client_errors"] = sum(
        report.client_errors for report in reports + [failover]
    )
    benchmark.extra_info["hit_rate"] = cold["hit_rate"]
    benchmark.extra_info["p50_ms"] = cold["p50_ms"]
    benchmark.extra_info["p99_ms"] = cold["p99_ms"]
    benchmark.extra_info["failover_added_ms"] = round(
        failover.p99_ms - warm.p99_ms, 3
    )
