"""Cluster chaos acceptance: node death + partition under live load.

The ISSUE-10 acceptance scenario: a 3-node cluster with one peer link
partitioned and one node SIGKILLed *while a 200-request batch is in
flight* completes the batch with zero client errors, every answer
exact, and the answer stream bit-identical across a
seed-identical rerun.  Determinism under chaos is the paper
reproduction's whole contract: any replica computes any key
bit-identically, so *which* node answered is invisible in the results.
"""

import asyncio
import dataclasses
import json
import threading
import time

import pytest

from repro.cluster.chaos import ClusterChaosConfig
from repro.cluster.membership import Peer
from repro.cluster.router import routing_key
from repro.cluster.transport import PeerTransport
from repro.common.errors import PeerUnavailable
from repro.service.loadgen import build_schedule, run_load
from repro.service.protocol import parse_request

from tests.test_service import fakes

EXPERIMENTS = ["alpha", "beta", "gamma", "delta"]
EXPECTED_ROWS = {
    "alpha": [[22]],
    "beta": [[23]],
    "gamma": [[333]],
    "delta": [[1936]],
}


class TestChaosConfig:
    def test_partition_is_static(self):
        chaos = ClusterChaosConfig(partitioned=("node1",))
        assert chaos.is_partitioned("node1")
        assert not chaos.is_partitioned("node0")

    def test_default_plan_partitions_nothing(self):
        chaos = ClusterChaosConfig()
        assert chaos.partitioned == ()
        assert not chaos.is_partitioned("node0")

    def test_plan_is_immutable(self):
        chaos = ClusterChaosConfig(partitioned=("node1",))
        with pytest.raises(dataclasses.FrozenInstanceError):
            chaos.partitioned = ()


class TestPartitionedTransport:
    def _request(self, transport, name, timeout):
        peer = Peer(name=name, host="127.0.0.1", port=9)
        return asyncio.run(
            transport.request(peer, {"op": "ping"}, timeout=timeout)
        )

    def test_partitioned_link_fails_before_any_connect(self):
        transport = PeerTransport(
            chaos=ClusterChaosConfig(partitioned=("node1",))
        )
        with pytest.raises(PeerUnavailable, match="partitioned"):
            self._request(transport, "node1", timeout=5.0)

    def test_other_links_reach_the_transport(self):
        # A zero budget stops the attempt right after the partition
        # check, so no socket is opened either way.
        transport = PeerTransport(
            chaos=ClusterChaosConfig(partitioned=("node1",))
        )
        with pytest.raises(PeerUnavailable, match="no budget"):
            self._request(transport, "node0", timeout=0.0)


def routed_total(router):
    counters = router.metrics.snapshot()["counters"]
    routed = counters.get("cluster.requests.routed", {})
    return sum(routed.values())


def run_acceptance_batch(cluster_factory, load_seed):
    """One full chaos batch; returns the LoadReport."""
    cluster = cluster_factory(
        router_kwargs={
            "chaos": ClusterChaosConfig(partitioned=("node1",)),
            "health_interval": 0.2,
            "seed": 7,
        }
    )
    schedule = build_schedule(200, EXPERIMENTS, seed=load_seed)
    holder = {}

    def load():
        holder["report"] = run_load(
            "127.0.0.1", cluster.router_port, schedule, timeout=30.0
        )

    thread = threading.Thread(target=load)
    thread.start()
    # SIGKILL semantics mid-batch: wait until the router has answered
    # some requests, then abort a live node under the running load.
    deadline = time.monotonic() + 30.0
    while routed_total(cluster.router) < 40:
        assert time.monotonic() < deadline, "batch never got going"
        time.sleep(0.005)
    cluster.kill_node("node2")
    thread.join(120.0)
    assert not thread.is_alive(), "load batch hung"
    return holder["report"]


class TestChaosAcceptance:
    def test_batch_survives_kill_and_partition_bit_identically(
        self, cluster_factory
    ):
        first = run_acceptance_batch(cluster_factory, load_seed=42)
        assert first.total == 200
        assert first.client_errors == 0
        assert first.by_status == {"ok": 200}
        for response in first.responses:
            assert response["status"] == "ok"
            # Every answer is computed or cached, never a substitute:
            # with only node faults, failover reaches a live replica.
            assert response["source"] in ("pool", "cache")
        # Seed-identical rerun on a fresh cluster: the answer stream is
        # bit-identical, regardless of which nodes happened to serve.
        second = run_acceptance_batch(cluster_factory, load_seed=42)
        assert second.client_errors == 0
        first_stream = [
            json.dumps(r["result"], sort_keys=True)
            for r in first.responses
        ]
        second_stream = [
            json.dumps(r["result"], sort_keys=True)
            for r in second.responses
        ]
        assert first_stream == second_stream

    def test_every_result_is_the_expected_exact_payload(
        self, cluster_factory
    ):
        report = run_acceptance_batch(cluster_factory, load_seed=5)
        assert report.client_errors == 0
        for response in report.responses:
            experiment_id = response["result"]["experiment_id"]
            assert (
                response["result"]["rows"]
                == EXPECTED_ROWS[experiment_id]
            )


class TestMidRequestKill:
    def test_kill_while_serving_fails_over(self, cluster_factory):
        registry = dict(fakes.FAST_REGISTRY)
        registry["sleepy"] = fakes.run_sleepy
        cluster = cluster_factory(registry=registry)
        key = routing_key(
            parse_request(b'{"op": "run", "experiment_id": "sleepy"}\n')
        )
        primary = cluster.router.ring.preference(key)[0]
        holder = {}

        def request():
            with cluster.client(timeout=30.0) as client:
                holder["response"] = client.request("sleepy")

        thread = threading.Thread(target=request)
        thread.start()
        # run_sleepy blocks its node for 0.4s; kill the serving node
        # while the request is in flight.
        time.sleep(0.15)
        cluster.kill_node(primary)
        thread.join(30.0)
        assert not thread.is_alive()
        response = holder["response"]
        assert response["status"] == "ok"
        assert response["source"] in ("pool", "cache")
        assert response["result"]["rows"] == [[2]]

