"""Shared harness: an in-process N-node cluster plus router.

All nodes and the router share one asyncio loop on one background
thread — the same thread+``asyncio.run`` shape as the single-node
:class:`tests.test_service.conftest.ServiceHarness`, scaled out.  One
loop (rather than one per node) keeps teardown deterministic and lets
``kill_node`` schedule a chaos :meth:`ExperimentService.abort` with a
plain ``run_coroutine_threadsafe``.
"""

import asyncio
import threading

import pytest

from repro.cluster import ClusterRouter, Membership, Peer, RouterConfig
from repro.service.client import ServiceClient
from repro.service.server import ExperimentService, ServiceConfig

from tests.test_service import fakes


class ClusterHarness:
    """N service nodes plus one router, on one background loop.

    Args:
        node_count: Number of service nodes (named ``node0..n-1``).
        registry: Experiment registry for every node (defaults to the
            fast fakes).
        node_kwargs: Extra :class:`ServiceConfig` fields for every node.
        per_node_kwargs: ``{name: {field: value}}`` overrides for
            individual nodes (e.g. a broken registry on one).
        router_kwargs: Extra :class:`RouterConfig` fields.
        per_node_registry: ``{name: registry}`` overrides.
    """

    def __init__(
        self,
        node_count=3,
        registry=None,
        node_kwargs=None,
        per_node_kwargs=None,
        router_kwargs=None,
        per_node_registry=None,
    ):
        self.node_count = node_count
        self.registry = fakes.FAST_REGISTRY if registry is None else registry
        self.node_kwargs = dict(node_kwargs or {})
        self.per_node_kwargs = dict(per_node_kwargs or {})
        self.per_node_registry = dict(per_node_registry or {})
        self.router_kwargs = dict(router_kwargs or {})
        self.services = {}
        self.membership = None
        self.router = None
        self.router_port = None
        self._loop = None
        self._stop = None
        self._thread = None
        self._ready = threading.Event()
        self._error = None

    def start(self):
        self._thread = threading.Thread(target=self._run, daemon=True)
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
            for index in range(self.node_count):
                name = f"node{index}"
                kwargs = dict(self.node_kwargs)
                kwargs.update(self.per_node_kwargs.get(name, {}))
                kwargs.setdefault("port", 0)
                kwargs.setdefault("pools", 1)
                kwargs.setdefault("drain_timeout", 5.0)
                kwargs["name"] = name
                service = ExperimentService(
                    ServiceConfig(**kwargs),
                    registry=self.per_node_registry.get(
                        name, self.registry
                    ),
                )
                await service.start()
                self.services[name] = service
                peers.append(
                    Peer(name=name, host=kwargs.get("host", "127.0.0.1"),
                         port=service.port)
                )
            self.membership = Membership(peers)
            self.router = ClusterRouter(
                RouterConfig(**self.router_kwargs), self.membership
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

    def stop(self, timeout=30.0):
        if self._loop is not None and self._stop is not None:
            try:
                self._loop.call_soon_threadsafe(self._stop.set)
            except RuntimeError:
                pass  # loop already closed
        self._thread.join(timeout)
        assert not self._thread.is_alive(), "cluster failed to drain"

    def kill_node(self, name, wait=10.0):
        """Chaos node death: SIGKILL semantics via ``abort()``."""
        future = asyncio.run_coroutine_threadsafe(
            self.services[name].abort(), self._loop
        )
        future.result(wait)

    def submit(self, coro, wait=30.0):
        """Run a coroutine on the cluster's loop from test code."""
        return asyncio.run_coroutine_threadsafe(coro, self._loop).result(
            wait
        )

    def client(self, timeout=15.0):
        """Blocking client pointed at the router's client-facing port."""
        return ServiceClient("127.0.0.1", self.router_port, timeout=timeout)

    def node_client(self, name, timeout=15.0):
        """Blocking client pointed directly at one node."""
        return ServiceClient(
            "127.0.0.1", self.services[name].port, timeout=timeout
        )


@pytest.fixture
def cluster_factory(tmp_path):
    """Build-and-start cluster harnesses; all stopped at teardown."""
    started = []
    counter = [0]

    def factory(node_count=3, **kwargs):
        counter[0] += 1
        node_kwargs = dict(kwargs.pop("node_kwargs", {}))
        per_node_kwargs = {
            name: dict(overrides)
            for name, overrides in kwargs.pop(
                "per_node_kwargs", {}
            ).items()
        }
        for index in range(node_count):
            name = f"node{index}"
            per_node_kwargs.setdefault(name, {}).setdefault(
                "cache_dir",
                str(tmp_path / f"cluster-{counter[0]}" / f"cache-{name}"),
            )
        harness = ClusterHarness(
            node_count=node_count,
            node_kwargs=node_kwargs,
            per_node_kwargs=per_node_kwargs,
            **kwargs,
        )
        started.append(harness)
        return harness.start()

    yield factory
    for harness in started:
        harness.stop()
