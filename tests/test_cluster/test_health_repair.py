"""Unit tests: health checks against a fake transport, no sockets."""

import asyncio

from repro.cluster.health import HealthMonitor
from repro.cluster.membership import Membership
from repro.common.breaker import CircuitBreaker
from repro.common.errors import PeerUnavailable
from repro.obs.session import ObsSession


class FakeTransport:
    """Scriptable transport: peer name -> response dict or exception."""

    def __init__(self, behavior):
        self.behavior = behavior
        self.calls = []

    async def request(self, peer, payload, timeout=None):
        self.calls.append((peer.name, dict(payload)))
        action = self.behavior[peer.name]
        if callable(action):
            action = action(payload)
        if isinstance(action, Exception):
            raise action
        return action, 0.001


def make_monitor(behavior, threshold=2):
    membership = Membership.from_spec("a=h1:7001,b=h2:7002")
    transport = FakeTransport(behavior)
    breakers = {
        name: CircuitBreaker(failure_threshold=threshold, name=name)
        for name in membership.names()
    }
    metrics = ObsSession().metrics
    monitor = HealthMonitor(
        membership, transport, breakers, metrics, interval=0.01
    )
    return monitor, breakers, metrics


class TestHealthMonitor:
    def test_healthy_peer_stays_closed(self):
        monitor, breakers, metrics = make_monitor(
            {"a": {"status": "pong"}, "b": {"status": "pong"}}
        )
        for peer in monitor.membership:
            assert asyncio.run(monitor.check_peer(peer)) is True
        assert breakers["a"].state == "closed"
        snapshot = metrics.snapshot()
        assert snapshot["gauges"]["cluster.peer.health"] == {"a": 0, "b": 0}

    def test_dead_peer_trips_breaker(self):
        monitor, breakers, metrics = make_monitor(
            {
                "a": PeerUnavailable("refused"),
                "b": {"status": "pong"},
            },
            threshold=2,
        )
        peer_a = monitor.membership.get("a")
        asyncio.run(monitor.check_peer(peer_a))
        assert breakers["a"].state == "closed"
        asyncio.run(monitor.check_peer(peer_a))
        assert breakers["a"].state == "open"
        assert metrics.snapshot()["gauges"]["cluster.peer.health"]["a"] == 2

    def test_open_breaker_is_not_pinged_until_probe_due(self):
        monitor, breakers, _ = make_monitor(
            {"a": PeerUnavailable("refused"), "b": {"status": "pong"}},
            threshold=1,
        )
        peer_a = monitor.membership.get("a")
        asyncio.run(monitor.check_peer(peer_a))
        assert breakers["a"].state == "open"
        calls_before = len(monitor.transport.calls)
        asyncio.run(monitor.check_peer(peer_a))
        assert len(monitor.transport.calls) == calls_before

    def test_non_pong_response_counts_as_failure(self):
        monitor, breakers, _ = make_monitor(
            {"a": {"status": "error"}, "b": {"status": "pong"}},
            threshold=1,
        )
        asyncio.run(monitor.check_peer(monitor.membership.get("a")))
        assert breakers["a"].state == "open"

    def test_run_loop_rounds_and_stops(self):
        monitor, _, _ = make_monitor(
            {"a": {"status": "pong"}, "b": {"status": "pong"}}
        )

        async def drive():
            stop = asyncio.Event()
            task = asyncio.ensure_future(monitor.run(stop))
            while monitor.rounds < 2:
                await asyncio.sleep(0.005)
            stop.set()
            await asyncio.wait_for(task, timeout=2.0)

        asyncio.run(drive())
        assert monitor.rounds >= 2

