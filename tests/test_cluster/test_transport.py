"""The pooled peer transport: reuse, its one same-peer retry, what never
goes back to the pool, and drains that do not wait on idle connections.

Most tests run the transport against :class:`StubNode`, a line server
whose answers a test scripts per ``request_id`` (a late answer, a wrong
id, a hangup), and count its accepted connections.  The fabric tests
run real :class:`ExperimentService` nodes behind a started router.
"""

import asyncio
import json
from contextlib import asynccontextmanager

import pytest

from repro.cluster import ClusterRouter, Membership, Peer, RouterConfig
from repro.cluster.chaos import ClusterChaosConfig
from repro.cluster.router import routing_key
from repro.cluster.transport import MAX_IDLE_PER_PEER, PeerTransport
from repro.common.errors import PeerUnavailable
from repro.service.protocol import parse_request
from repro.service.server import ExperimentService, ServiceConfig

from tests.test_service import fakes


class StubNode:
    """A line server answering ``{"request_id", "status": "ok"}``.

    Args:
        name: The peer name.
        script: ``request_id -> async action(response, connection)``;
            the action returns the response to send, or None to hang
            up without answering.  ``connection`` counts accepts from 1.
    """

    def __init__(self, name="stub", script=None):
        self.name = name
        self.script = dict(script or {})
        self.accepts = 0
        self.writers = set()
        self.server = None
        self.peer = None

    async def start(self):
        self.server = await asyncio.start_server(
            self._handle, "127.0.0.1", 0
        )
        port = self.server.sockets[0].getsockname()[1]
        self.peer = Peer(name=self.name, host="127.0.0.1", port=port)
        return self

    async def stop(self):
        self.server.close()
        for writer in list(self.writers):
            writer.close()
        await self.server.wait_closed()

    async def _handle(self, reader, writer):
        self.accepts += 1
        connection = self.accepts
        self.writers.add(writer)
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                request_id = json.loads(line).get("request_id", "")
                response = {
                    "v": 1,
                    "request_id": request_id,
                    "status": "ok",
                    "degraded": False,
                    "result": {"from": self.name, "echo": request_id},
                }
                action = self.script.get(request_id)
                if action is not None:
                    response = await action(response, connection)
                    if response is None:
                        break
                writer.write((json.dumps(response) + "\n").encode())
                await writer.drain()
        except (ConnectionError, OSError):
            pass
        finally:
            self.writers.discard(writer)
            writer.close()


def ask(request_id):
    return {"op": "run", "experiment_id": "alpha", "request_id": request_id}


async def hang_up_on_reuse(response, connection):
    """Hang up when the request arrives on the first (pooled) connection."""
    return None if connection == 1 else response


async def late(response, connection):
    await asyncio.sleep(0.5)
    return response


async def wrong_id(response, connection):
    return dict(response, request_id="someone-else")


class TestPooledTransport:
    def test_sequential_requests_share_one_connection(self):
        async def scenario():
            node = await StubNode().start()
            transport = PeerTransport()
            try:
                for index in range(10):
                    response, _ = await transport.request(
                        node.peer, ask(f"r{index}"), timeout=5.0
                    )
                    assert response["request_id"] == f"r{index}"
            finally:
                await transport.close()
                await node.stop()
            return node.accepts

        assert asyncio.run(scenario()) == 1

    def test_dead_pooled_connection_is_retried_once_on_a_fresh_one(self):
        async def scenario():
            node = await StubNode(
                script={"second": hang_up_on_reuse}
            ).start()
            transport = PeerTransport()
            try:
                await transport.request(node.peer, ask("first"), timeout=5.0)
                response, _ = await transport.request(
                    node.peer, ask("second"), timeout=5.0
                )
            finally:
                await transport.close()
                await node.stop()
            return response, node.accepts

        response, accepts = asyncio.run(scenario())
        assert response["request_id"] == "second"
        assert response["status"] == "ok"
        assert accepts == 2

    def test_retry_whose_connect_fails_is_peer_unavailable(self):
        async def scenario():
            node = await StubNode(
                script={"second": hang_up_on_reuse}
            ).start()
            transport = PeerTransport()
            try:
                await transport.request(node.peer, ask("first"), timeout=5.0)
                # The listener goes away: the pooled connection stays
                # open until the request hangs it up, and the retry's
                # fresh connect is refused.
                node.server.close()
                with pytest.raises(PeerUnavailable, match="cannot connect"):
                    await transport.request(
                        node.peer, ask("second"), timeout=5.0
                    )
            finally:
                await transport.close()
                await node.stop()
            return node.accepts

        assert asyncio.run(scenario()) == 1

    def test_timed_out_connection_never_returns_to_the_pool(self):
        async def scenario():
            node = await StubNode(script={"slow": late}).start()
            transport = PeerTransport()
            try:
                with pytest.raises(PeerUnavailable, match="did not answer"):
                    await transport.request(
                        node.peer, ask("slow"), timeout=0.1
                    )
                response, _ = await transport.request(
                    node.peer, ask("next"), timeout=5.0
                )
                # Outlive the slow answer: it lands on a closed
                # connection, never on the next request's.
                await asyncio.sleep(0.6)
                again, _ = await transport.request(
                    node.peer, ask("after"), timeout=5.0
                )
            finally:
                await transport.close()
                await node.stop()
            return response, again, node.accepts

        response, again, accepts = asyncio.run(scenario())
        assert response["request_id"] == "next"
        assert again["request_id"] == "after"
        assert accepts == 2

    def test_request_id_mismatch_is_peer_unavailable(self):
        async def scenario():
            node = await StubNode(script={"mine": wrong_id}).start()
            transport = PeerTransport()
            try:
                with pytest.raises(PeerUnavailable, match="request_id"):
                    await transport.request(
                        node.peer, ask("mine"), timeout=5.0
                    )
                response, _ = await transport.request(
                    node.peer, ask("next"), timeout=5.0
                )
            finally:
                await transport.close()
                await node.stop()
            return response, node.accepts

        response, accepts = asyncio.run(scenario())
        assert response["request_id"] == "next"
        assert accepts == 2

    def test_partition_is_checked_before_the_pool(self):
        async def scenario():
            node = await StubNode().start()
            transport = PeerTransport()
            try:
                await transport.request(node.peer, ask("first"), timeout=5.0)
                transport.chaos = ClusterChaosConfig(
                    partitioned=(node.name,)
                )
                with pytest.raises(PeerUnavailable, match="partitioned"):
                    await transport.request(
                        node.peer, ask("second"), timeout=5.0
                    )
            finally:
                await transport.close()
                await node.stop()

        asyncio.run(scenario())

    def test_idle_connections_per_peer_are_capped(self):
        wide = MAX_IDLE_PER_PEER + 2

        async def slow(response, connection):
            await asyncio.sleep(0.05)
            return response

        async def scenario():
            node = await StubNode(
                script={f"r{i}": slow for i in range(2 * wide)}
            ).start()
            transport = PeerTransport()
            try:
                for batch in range(2):
                    await asyncio.gather(*(
                        transport.request(
                            node.peer, ask(f"r{batch * wide + i}"), 5.0
                        )
                        for i in range(wide)
                    ))
            finally:
                await transport.close()
                await node.stop()
            return node.accepts

        # The first batch opens one connection per request and keeps
        # the cap; the second reuses those and opens the rest.
        assert asyncio.run(scenario()) == wide + (wide - MAX_IDLE_PER_PEER)

    def test_close_hangs_up_idle_connections(self):
        async def scenario():
            node = await StubNode().start()
            transport = PeerTransport()
            await transport.request(node.peer, ask("first"), timeout=5.0)
            assert len(node.writers) == 1
            await transport.close()
            for _ in range(100):
                if not node.writers:
                    break
                await asyncio.sleep(0.01)
            open_after = len(node.writers)
            await node.stop()
            return open_after

        assert asyncio.run(scenario()) == 0


class CountingService(ExperimentService):
    """A service node that counts the connections it accepts."""

    accepts = 0

    async def _handle_client(self, reader, writer):
        self.accepts += 1
        await super()._handle_client(reader, writer)


@asynccontextmanager
async def fabric(tmp_path, node_count=2, **router_kwargs):
    """Counting nodes behind a started router, all on this loop."""
    services = {}
    for index in range(node_count):
        name = f"node{index}"
        service = CountingService(
            ServiceConfig(
                port=0, pools=1, drain_timeout=5.0, name=name,
                cache_dir=str(tmp_path / f"cache-{name}"),
            ),
            registry=fakes.FAST_REGISTRY,
        )
        await service.start()
        services[name] = service
    membership = Membership(
        [Peer(name=name, host="127.0.0.1", port=service.port)
         for name, service in services.items()]
    )
    router_kwargs.setdefault("health_interval", 60.0)
    router = ClusterRouter(RouterConfig(**router_kwargs), membership)
    await router.start()
    try:
        while router.health.rounds < 1:
            await asyncio.sleep(0.01)
        yield router, services
    finally:
        await router.drain()
        for service in services.values():
            await service.drain()


async def line_client(port, payloads):
    """Send ``payloads`` one by one on one connection; the answers."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    answers = []
    try:
        for payload in payloads:
            writer.write((json.dumps(payload) + "\n").encode())
            await writer.drain()
            answers.append(json.loads(await reader.readline()))
    finally:
        writer.close()
    return answers


def counters(router, name):
    return router.metrics.snapshot()["counters"].get(name, {})


class TestFabricReuse:
    def test_sequential_routed_requests_open_one_connection_per_peer(
        self, tmp_path
    ):
        experiments = ["alpha", "beta", "gamma", "delta"]

        async def scenario():
            async with fabric(tmp_path) as (router, services):
                answers = await line_client(router.port, [
                    {"op": "run", "experiment_id": experiments[i % 4],
                     "request_id": f"r{i}"}
                    for i in range(24)
                ])
                return answers, {
                    name: service.accepts
                    for name, service in services.items()
                }

        answers, accepts = asyncio.run(scenario())
        assert [a["request_id"] for a in answers] == [
            f"r{i}" for i in range(24)
        ]
        assert all(a["status"] == "ok" for a in answers)
        # The first health round opened each peer's one connection.
        assert accepts == {"node0": 1, "node1": 1}

    def test_pooled_connection_the_node_closed_is_no_failover(
        self, tmp_path
    ):
        request = parse_request(
            b'{"op": "run", "experiment_id": "alpha", "request_id": "x"}\n'
        )

        async def scenario():
            async with fabric(tmp_path) as (router, services):
                primary = router.ring.preference(routing_key(request))[0]
                node = services[primary]
                for _ in range(100):
                    if node._idle:
                        break
                    await asyncio.sleep(0.01)
                assert len(node._idle) == 1
                # The node hangs up its idle connection; the router's
                # pooled end still looks open when the request takes it.
                for writer in list(node._idle):
                    writer.close()
                response = await router._route(request)
                return response, primary, node.accepts, router

        response, primary, accepts, router = asyncio.run(scenario())
        assert response["status"] == "ok"
        assert response["request_id"] == "x"
        assert accepts == 2
        assert counters(router, "cluster.requests.routed") == {primary: 1}
        assert counters(router, "cluster.requests.failover") == {}
        assert counters(router, "cluster.peer.failures") == {}
        assert router.breakers[primary].state == "closed"

    def test_node_drain_hangs_up_an_idle_pooled_connection(self, tmp_path):
        async def scenario():
            async with fabric(tmp_path) as (router, services):
                node = services["node0"]
                peer = router.membership.get("node0")
                await router.transport.request(
                    peer, {"op": "ping"}, timeout=5.0
                )
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", node.port
                )
                writer.write(b'{"op": "ping"}\n')
                await writer.drain()
                assert json.loads(await reader.readline())["status"] == "pong"
                await asyncio.wait_for(node.drain(), timeout=5.0)
                # The idle client was hung up, not left open.
                assert await asyncio.wait_for(reader.read(), 5.0) == b""
                writer.close()
                with pytest.raises(PeerUnavailable):
                    await router.transport.request(
                        peer, {"op": "ping"}, timeout=5.0
                    )
                return node.accepts

        assert asyncio.run(scenario()) == 2
