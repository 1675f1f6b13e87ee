"""Router behavior: placement, failover, anti-entropy.

Two layers of test: ``_route`` unit tests against a scripted fake
transport (no sockets — exact control over refusals, failures, and
latencies), and full-fabric integration tests over the in-process
cluster harness.
"""

import asyncio
import time

import pytest

from repro.cluster import ClusterRouter, Membership, RouterConfig
from repro.cluster.ring import HashRing
from repro.cluster.router import routing_key
from repro.common.deadline import Deadline
from repro.common.errors import PeerUnavailable
from repro.service.protocol import parse_request

from tests.test_service import fakes


def make_request(payload):
    import json

    return parse_request((json.dumps(payload) + "\n").encode())


class TestRoutingKey:
    def test_run_key_fields(self):
        request = make_request(
            {"op": "run", "experiment_id": "alpha", "trials": 5}
        )
        assert routing_key(request) == "run/alpha/trials=5/defense=none"

    def test_analyze_key_fields(self):
        request = make_request(
            {"op": "analyze", "policy": "tree-plru", "ways": 8}
        )
        assert (
            routing_key(request)
            == "analyze/tree-plru/ways=8/defense=none"
        )

    def test_refresh_and_deadline_do_not_change_placement(self):
        plain = make_request({"op": "run", "experiment_id": "alpha"})
        dressed = make_request(
            {
                "op": "run",
                "experiment_id": "alpha",
                "refresh": True,
                "deadline_ms": 50,
            }
        )
        assert routing_key(plain) == routing_key(dressed)


class ScriptedTransport:
    """Peer name -> async callable(payload) -> (response, elapsed).

    Honors the attempt budget the way the real transport does: a peer
    still silent when ``timeout`` runs out is ``PeerUnavailable``.
    """

    def __init__(self, behavior):
        self.behavior = behavior
        self.calls = []

    async def request(self, peer, payload, timeout=None):
        self.calls.append(peer.name)
        try:
            return await asyncio.wait_for(
                self.behavior[peer.name](dict(payload)), timeout
            )
        except asyncio.TimeoutError:
            raise PeerUnavailable(f"{peer.name} did not answer in time")


def ok_response(name, degraded=False, latency=0.0):
    async def respond(payload):
        if latency:
            await asyncio.sleep(latency)
        response = {
            "v": 1,
            "status": "ok",
            "degraded": degraded,
            "source": "pool",
            "cache_key": "ab" * 32,
            "result": {"from": name},
        }
        return response, latency or 0.001

    return respond


def refuse(status):
    async def respond(payload):
        return {"v": 1, "status": status}, 0.001

    return respond


def unavailable():
    async def respond(payload):
        raise PeerUnavailable("scripted failure")

    return respond


def make_router(behavior, **config_overrides):
    membership = Membership.from_spec(
        ",".join(f"{name}=h:{7001 + i}"
                 for i, name in enumerate(sorted(behavior)))
    )
    router = ClusterRouter(RouterConfig(**config_overrides), membership)
    router.transport = ScriptedTransport(behavior)
    return router


RUN = {"op": "run", "experiment_id": "alpha"}


class TestRouteUnit:
    def _route(self, router, payload):
        return asyncio.run(router._route(make_request(payload)))

    def test_happy_path_uses_primary(self):
        router = make_router(
            {"a": ok_response("a"), "b": ok_response("b"),
             "c": ok_response("c")}
        )
        primary = router.ring.preference(
            routing_key(make_request(RUN))
        )[0]
        response = self._route(router, RUN)
        assert response["status"] == "ok"
        assert response["result"] == {"from": primary}
        counters = router.metrics.snapshot()["counters"]
        assert counters["cluster.requests.routed"] == {primary: 1}

    def test_transport_failure_fails_over(self):
        behavior = {name: ok_response(name) for name in "abc"}
        router = make_router(behavior)
        order = router.ring.preference(routing_key(make_request(RUN)))
        router.transport.behavior[order[0]] = unavailable()
        response = self._route(router, RUN)
        assert response["status"] == "ok"
        assert response["result"] == {"from": order[1]}
        counters = router.metrics.snapshot()["counters"]
        assert counters["cluster.requests.failover"] >= 1
        assert counters["cluster.peer.failures"] == {order[0]: 1}

    def test_refusal_fails_over_and_is_last_resort_answer(self):
        behavior = {name: refuse("shed") for name in "abc"}
        router = make_router(behavior)
        response = self._route(router, RUN)
        # Every peer refused: the client sees the refusal (retryable),
        # never a transport error.
        assert response["status"] == "shed"

    def test_all_peers_dead_is_a_clean_error(self):
        router = make_router({name: unavailable() for name in "abc"})
        response = self._route(
            router, dict(RUN, request_id="req-9")
        )
        assert response["status"] == "error"
        assert response["request_id"] == "req-9"
        assert "no peer" in response["error"]["message"]

    def test_failed_peer_breaker_records_failures(self):
        router = make_router({name: unavailable() for name in "abc"})
        self._route(router, RUN)
        assert all(
            breaker._consecutive_failures >= 1
            for breaker in router.breakers.values()
        )

    def test_slow_but_alive_primary_gets_one_attempt(self):
        behavior = {name: ok_response(name) for name in "abc"}
        router = make_router(behavior, request_timeout=2.0)
        order = router.ring.preference(routing_key(make_request(RUN)))
        router.transport.behavior[order[0]] = ok_response(
            order[0], latency=0.3
        )
        response = self._route(router, RUN)
        assert response["result"] == {"from": order[0]}
        assert router.transport.calls == [order[0]]
        counters = router.metrics.snapshot()["counters"]
        assert "cluster.requests.failover" not in counters

    def test_primary_past_request_timeout_fails_over_in_budget(self):
        behavior = {name: ok_response(name) for name in "abc"}
        router = make_router(behavior, request_timeout=0.2)
        order = router.ring.preference(routing_key(make_request(RUN)))
        router.transport.behavior[order[0]] = ok_response(
            order[0], latency=5.0
        )
        start = time.monotonic()
        response = self._route(router, dict(RUN, deadline_ms=2000))
        elapsed = time.monotonic() - start
        assert response["result"] == {"from": order[1]}
        assert elapsed < 2.0, "failover must fit the client's budget"
        assert router.transport.calls == order[:2]
        counters = router.metrics.snapshot()["counters"]
        assert counters["cluster.requests.failover"] == 1
        assert counters["cluster.peer.failures"] == {order[0]: 1}

    def test_each_dead_peer_is_tried_exactly_once(self):
        router = make_router({name: unavailable() for name in "abc"})
        order = router.ring.preference(routing_key(make_request(RUN)))
        self._route(router, RUN)
        assert router.transport.calls == order
        counters = router.metrics.snapshot()["counters"]
        assert counters["cluster.requests.failover"] == len(order) - 1

    def test_refusing_peers_are_tried_exactly_once(self):
        router = make_router({name: refuse("draining") for name in "abc"})
        order = router.ring.preference(routing_key(make_request(RUN)))
        response = self._route(router, RUN)
        assert response["status"] == "draining"
        assert router.transport.calls == order

    def test_refusal_fails_over_without_a_breaker_failure(self):
        behavior = {name: ok_response(name) for name in "abc"}
        router = make_router(behavior)
        order = router.ring.preference(routing_key(make_request(RUN)))
        router.transport.behavior[order[0]] = refuse("rejected")
        response = self._route(router, RUN)
        assert response["result"] == {"from": order[1]}
        assert router.transport.calls == order[:2]
        # A refusal is an alive peer saying no: its breaker stays clean.
        assert router.breakers[order[0]]._consecutive_failures == 0
        counters = router.metrics.snapshot()["counters"]
        assert counters["cluster.requests.failover"] == 1
        assert "cluster.peer.failures" not in counters

    def test_degraded_answer_is_not_failed_over(self):
        behavior = {name: ok_response(name) for name in "abc"}
        router = make_router(behavior)
        order = router.ring.preference(routing_key(make_request(RUN)))
        router.transport.behavior[order[0]] = ok_response(
            order[0], degraded=True
        )
        response = self._route(router, RUN)
        assert response["result"] == {"from": order[0]}
        assert router.transport.calls == [order[0]]

    def test_failover_attempt_carries_only_the_remaining_budget(self):
        seen = []

        async def record_then_fail(payload):
            seen.append(payload.get("deadline_ms"))
            await asyncio.sleep(0.05)
            raise PeerUnavailable("scripted failure")

        router = make_router({name: record_then_fail for name in "abc"})
        response = self._route(router, dict(RUN, deadline_ms=2000))
        assert response["status"] == "error"
        assert len(seen) == 3
        assert all(0 < budget <= 2000 for budget in seen)
        assert seen == sorted(seen, reverse=True)
        assert seen[0] - seen[-1] >= 90, "each hop re-derives the budget"

    def test_attempt_timeout_is_request_timeout_capped_by_deadline(self):
        router = make_router(
            {name: ok_response(name) for name in "ab"},
            request_timeout=3.0,
        )
        assert router._attempt_timeout(None) == 3.0
        assert router._attempt_timeout(Deadline.after(60.0)) == 3.0
        assert router._attempt_timeout(Deadline.after(0.5)) <= 0.5

    def test_degraded_answer_schedules_repair(self):
        behavior = {name: ok_response(name) for name in "abc"}
        router = make_router(behavior)
        order = router.ring.preference(routing_key(make_request(RUN)))
        router.transport.behavior[order[0]] = ok_response(
            order[0], degraded=True
        )
        response = self._route(router, RUN)
        assert response["degraded"] is True
        counters = router.metrics.snapshot()["counters"]
        assert counters["cluster.responses.degraded"] == 1
        assert counters["cluster.repairs.scheduled"] == 1
        assert router.repairer._queue.qsize() == 1

    def test_expired_deadline_stops_attempts(self):
        router = make_router({name: ok_response(name) for name in "abc"})
        response = self._route(router, dict(RUN, deadline_ms=0))
        assert response["status"] == "error"
        assert router.transport.calls == []

    def test_open_breakers_are_tried_last(self):
        behavior = {name: ok_response(name) for name in "abc"}
        router = make_router(behavior, breaker_failures=1)
        order = router.ring.preference(routing_key(make_request(RUN)))
        router.breakers[order[0]].record_failure()
        assert router.breakers[order[0]].state == "open"
        response = self._route(router, RUN)
        assert response["result"] == {"from": order[1]}


class TestClusterIntegration:
    def test_ping_and_run_through_router(self, cluster_factory):
        cluster = cluster_factory()
        with cluster.client() as client:
            assert client.ping()["status"] == "pong"
            first = client.request("alpha")
            assert first["status"] == "ok"
            assert first["result"]["rows"] == [[22]]
            assert first["degraded"] is False
            second = client.request("alpha")
            assert second["source"] == "cache", (
                "repeat must land on the warm replica"
            )
            assert second["result"] == first["result"]

    def test_killed_primary_fails_over_exactly(self, cluster_factory):
        cluster = cluster_factory()
        key = routing_key(make_request({"op": "run",
                                        "experiment_id": "gamma"}))
        primary = cluster.router.ring.preference(key)[0]
        cluster.kill_node(primary)
        with cluster.client() as client:
            response = client.request("gamma")
        assert response["status"] == "ok"
        assert response["degraded"] is False
        assert response["result"]["rows"] == [[333]]

    def test_stats_federation(self, cluster_factory):
        cluster = cluster_factory()
        cluster.kill_node("node2")
        with cluster.client() as client:
            stats = client.stats()
        assert stats["status"] == "stats"
        assert stats["node"] == "router"
        assert stats["members"] == ["node0", "node1", "node2"]
        assert stats["peers"]["node0"]["reachable"] is True
        assert stats["peers"]["node0"]["stats"]["node"] == "node0"
        assert stats["peers"]["node2"]["reachable"] is False
        assert set(stats["breakers"]) == {"node0", "node1", "node2"}

    def test_backfill_at_router_is_a_clean_error(self, cluster_factory):
        cluster = cluster_factory()
        with cluster.client() as client:
            response = client.roundtrip(
                {
                    "op": "backfill",
                    "cache_key": "ab" * 32,
                    "result": {"x": 1},
                    "checksum": "sha256:0",
                }
            )
            assert response["status"] == "error"
            assert "node-internal" in response["error"]["message"]
            # The connection survived the refused op.
            assert client.ping()["status"] == "pong"

    def test_forwarded_requests_are_counted_by_nodes(
        self, cluster_factory
    ):
        cluster = cluster_factory()
        with cluster.client() as client:
            client.request("alpha")
            stats = client.stats()
        forwarded = 0
        for entry in stats["peers"].values():
            counters = entry["stats"]["metrics"]["counters"]
            forwarded += counters.get("cluster.requests.forwarded", 0)
        assert forwarded >= 1

    def test_failure_on_registered_seed_is_degraded_not_rotated(
        self, cluster_factory
    ):
        registry = dict(fakes.FAST_REGISTRY, flaky=fakes.run_flaky)
        cluster = cluster_factory(node_count=2, registry=registry)
        with cluster.client() as client:
            response = client.request("flaky")
        assert response["status"] == "ok"
        assert response["degraded"] is True
        assert response["error"]["type"] == "RuntimeError"
        # The degraded answer queues a repair; the donor replica fails
        # the same way, so nothing is backfilled.
        deadline = time.monotonic() + 10.0
        while (
            cluster.router.repairer.processed < 1
            and time.monotonic() < deadline
        ):
            time.sleep(0.05)
        counters = cluster.router.metrics.snapshot()["counters"]
        assert counters.get("cluster.repairs.failed") == 1
        for service in cluster.services.values():
            assert service.pools[0].breaker._consecutive_failures == 1
            key = service._key_for("flaky")
            assert service.cache.get_payload(key) is None


def find_primary(names, experiment_id):
    """Placement for an experiment, computed without a live cluster."""
    membership = Membership.from_spec(
        ",".join(f"{name}=h:{7100 + i}" for i, name in enumerate(names))
    )
    ring = HashRing(membership.peers, replicas=2)
    key = routing_key(
        make_request({"op": "run", "experiment_id": experiment_id})
    )
    return ring.preference(key)


class TestAntiEntropy:
    def test_degraded_node_is_backfilled_with_exact_result(
        self, cluster_factory
    ):
        # Place a broken registry on alpha's primary: it can cache and
        # serve, but cannot *compute* alpha.
        order = find_primary(["node0", "node1", "node2"], "alpha")
        broken = order[0]
        broken_registry = dict(fakes.FAST_REGISTRY)
        broken_registry["alpha"] = fakes.run_alpha_boom
        cluster = cluster_factory(
            per_node_registry={broken: broken_registry},
            node_kwargs={"breaker_failures": 1},
            router_kwargs={"health_interval": 0.2},
        )
        # Trip the broken node's pool breaker with direct requests so
        # it starts serving degraded stub answers.
        with cluster.node_client(broken) as direct:
            for _ in range(4):
                response = direct.request("alpha")
                if response.get("degraded"):
                    break
            assert response["degraded"] is True
            assert response["source"] == "stub"
        # Through the router: the degraded answer reaches the client
        # immediately and queues an anti-entropy repair.
        with cluster.client() as client:
            routed = client.request("alpha")
        assert routed["status"] == "ok"
        assert routed["degraded"] is True
        deadline = time.monotonic() + 10.0
        while (
            cluster.router.repairer.processed < 1
            and time.monotonic() < deadline
        ):
            time.sleep(0.05)
        counters = cluster.router.metrics.snapshot()["counters"]
        assert counters.get("cluster.repairs.completed") == 1
        # The broken node now serves the *exact* replica-computed
        # result from its backfilled cache (still flagged degraded —
        # its pool is still broken — but the payload is exact).
        with cluster.node_client(broken) as direct:
            healed = direct.request("alpha")
        assert healed["source"] == "cache"
        assert healed["result"]["rows"] == [[22]]
