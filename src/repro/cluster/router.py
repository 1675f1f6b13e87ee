"""The client-facing cluster router: protocol v1 in, replicas behind.

``python -m repro route`` runs one of these in front of a static set of
service nodes.  Clients speak the exact single-node line-JSON protocol —
same ops, same response shapes — and the router makes the cluster look
like one unusually durable node:

* **placement** — each request's routing key (derived from the same
  fields the service's result cache hashes) walks the consistent-hash
  ring to an ordered preference list: R replicas first, every other
  node as a last resort (any node *can* compute any key; replicas are
  merely where the cache is warm);
* **failover** — the one place a request is retried: each preference
  entry gets exactly one attempt, and a peer that refuses (rejected /
  shed / draining), answers an execution error (``CircuitOpen``,
  ``ExperimentTimeout``, a crash, what the experiment raised), or fails
  at the transport level (dead node, severed link, timeout past
  ``request_timeout``) hands over to the next, all inside the client's
  original deadline budget.  A malformed request (``ServiceError``) is
  answered at once: every node would refuse it the same way.  When no
  peer succeeds, the client gets the last answer a peer gave, so the
  error names its cause.  A budget spent before the first attempt still
  gets that attempt, which a node answers without executing (as it
  would answer the client directly).  A slow but alive peer is waited
  for, never duplicated.

The router holds no result cache of its own and keeps no per-request
durable state — it can be restarted freely, and several can front the
same membership (placement is a pure function of key and membership).
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.common.breaker import CircuitBreaker
from repro.common.deadline import Deadline, deadline_from_ms
from repro.common.errors import PeerUnavailable
from repro.cluster.chaos import ClusterChaosConfig
from repro.cluster.health import HealthMonitor
from repro.cluster.membership import Membership
from repro.cluster.ring import DEFAULT_VNODES, HashRing
from repro.cluster.transport import PeerTransport
from repro.obs.registry import MetricsRegistry
from repro.service.protocol import (
    PROTOCOL_VERSION,
    LineFrontEnd,
    Request,
    status_response,
)

#: Response statuses that mean "this peer will not take the work right
#: now, another might" — they trigger failover, not a client error.
REFUSAL_STATUSES = ("rejected", "shed", "draining")


#: TCP connect budget per peer attempt.
CONNECT_TIMEOUT = 2.0

#: Budget for one health ping (and one peer's stats probe).
HEALTH_TIMEOUT = 1.0

#: Budget for the one attempt a request gets when its deadline has run
#: out before any peer was tried.  A node answers such a request without
#: executing it (a cache read or an ``ExperimentTimeout`` error), so a
#: ping's budget is enough.
SPENT_BUDGET_TIMEOUT = HEALTH_TIMEOUT


@dataclass
class RouterConfig:
    """Tunables for one router process.

    Args:
        host: Client-facing listen address.
        port: Client-facing listen port (0 = ephemeral).
        replicas: Replica-set size R on the hash ring.
        vnodes: Ring points per peer.
        seed: Seeds the breakers' probe jitter (decorrelated per peer,
            reproducible per seed).
        request_timeout: End-to-end budget per peer attempt when the
            client set no deadline.
        health_interval: Seconds between health-check rounds.
        breaker_failures: Consecutive failures that open a peer breaker.
        breaker_reset: Base seconds before an open breaker probes.
        chaos: Optional static partition plan (tests only).
    """

    host: str = "127.0.0.1"
    port: int = 0
    replicas: int = 2
    vnodes: int = DEFAULT_VNODES
    seed: int = 0
    request_timeout: float = 10.0
    health_interval: float = 0.5
    breaker_failures: int = 2
    breaker_reset: float = 2.0
    chaos: Optional[ClusterChaosConfig] = field(default=None, repr=False)


def routing_key(request: Request) -> str:
    """The placement key: same identity fields the node caches hash.

    Two requests that a service node would answer from one cache entry
    produce one routing key, so repeats land on the warm replica.
    (``refresh`` and ``deadline_ms`` are deliberately excluded — they
    change *how* a request is served, not *which result* it names.)
    """
    if request.op == "analyze":
        return (
            f"analyze/{request.policy}/ways={request.ways}/"
            f"defense={request.defense}"
        )
    return (
        f"run/{request.experiment_id}/trials={request.trials}/"
        f"defense={request.defense}"
    )


class ClusterRouter(LineFrontEnd):
    """One router process: listener, breakers, health monitor.

    Args:
        config: Router tunables.
        membership: The static peer registry to route over.
    """

    def __init__(self, config: RouterConfig, membership: Membership):
        super().__init__()
        self.config = config
        self.membership = membership
        self.metrics = MetricsRegistry()
        self.ring = HashRing(
            membership.peers,
            replicas=config.replicas,
            vnodes=config.vnodes,
        )
        self.transport = PeerTransport(
            connect_timeout=CONNECT_TIMEOUT,
            request_timeout=config.request_timeout,
            chaos=config.chaos,
        )
        # One breaker per peer; distinct jitter seeds so probes
        # decorrelate across peers while replaying exactly per seed.
        self.breakers: Dict[str, CircuitBreaker] = {
            peer.name: CircuitBreaker(
                failure_threshold=config.breaker_failures,
                reset_timeout=config.breaker_reset,
                jitter=config.seed + index,
                name=peer.name,
            )
            for index, peer in enumerate(membership)
        }
        self.health = HealthMonitor(
            membership,
            self.transport,
            self.breakers,
            self.metrics,
            interval=config.health_interval,
            timeout=HEALTH_TIMEOUT,
        )
        self.draining = False
        # Born in start(): asyncio primitives bind their loop at
        # creation on Python 3.9.
        self._stop: Optional[asyncio.Event] = None
        self._background: List[asyncio.Task] = []

    # -- lifecycle ------------------------------------------------------

    async def start(self) -> None:
        """Bind the client listener; start the health loop."""
        self._stop = asyncio.Event()
        await self.listen(self.config.host, self.config.port)
        self._background = [
            asyncio.ensure_future(self.health.run(self._stop)),
        ]

    async def drain(self) -> None:
        """Stop accepting clients, let the health loop wind down, close
        the pooled peer connections."""
        if self.draining:
            return
        self.draining = True
        await self.close_listener()
        if self._stop is not None:
            self._stop.set()
        if self._background:
            await asyncio.gather(*self._background, return_exceptions=True)
        for writer in list(self._writers):
            try:
                writer.close()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass
        await self.transport.close()

    # -- dispatch -------------------------------------------------------

    async def _dispatch(self, request: Request) -> Dict:
        if request.op == "ping":
            return status_response(request, "pong")
        if request.op == "stats":
            return await self._stats(request)
        if self.draining:
            return status_response(request, "draining")
        return await self._route(request)

    async def _stats(self, request: Request) -> Dict:
        """Federated stats: the router's own view plus every peer's."""

        async def probe(peer) -> Tuple[str, Dict]:
            try:
                response, _ = await self.transport.request(
                    peer,
                    {"version": PROTOCOL_VERSION, "op": "stats"},
                    timeout=HEALTH_TIMEOUT,
                )
                return peer.name, {"reachable": True, "stats": response}
            except PeerUnavailable as error:
                return peer.name, {"reachable": False, "error": str(error)}

        probed = await asyncio.gather(
            *(probe(peer) for peer in self.membership)
        )
        return {
            **status_response(request, "stats"),
            "node": "router",
            "draining": self.draining,
            "replicas": self.ring.replicas,
            "members": list(self.membership.names()),
            "breakers": {
                name: breaker.state
                for name, breaker in self.breakers.items()
            },
            "metrics": self.metrics.snapshot(),
            "peers": dict(probed),
        }

    # -- routing --------------------------------------------------------

    def _forward_payload(self, request: Request) -> Dict:
        return {
            "version": PROTOCOL_VERSION,
            "op": request.op,
            "experiment_id": request.experiment_id,
            "request_id": request.request_id,
            "refresh": request.refresh,
            "policy": request.policy,
            "ways": request.ways,
            "defense": request.defense,
            "trials": request.trials,
            "forwarded": True,
        }

    def _attempt_payload(
        self, payload: Dict, deadline: Optional[Deadline]
    ) -> Dict:
        attempt = dict(payload)
        if deadline is not None:
            # Re-derive the budget at send time so a failover attempt
            # carries only what is actually left of the client's budget.
            attempt["deadline_ms"] = max(
                0.0, round(deadline.remaining() * 1000, 3)
            )
        return attempt

    def _attempt_timeout(self, deadline: Optional[Deadline]) -> float:
        if deadline is None:
            return self.config.request_timeout
        remaining = deadline.remaining()
        if remaining <= 0:
            remaining = SPENT_BUDGET_TIMEOUT
        return min(self.config.request_timeout, remaining)

    async def _route(self, request: Request) -> Dict:
        key = routing_key(request)
        payload = self._forward_payload(request)
        deadline = (
            deadline_from_ms(request.deadline_ms)
            if request.deadline_ms is not None
            else None
        )
        preference = self.ring.preference(key)
        # Known-open breakers go to the back of the line: they are
        # still *tried* if everything healthier fails (the health view
        # can be stale), but never before a peer believed alive.
        order = [
            name
            for name in preference
            if self.breakers[name].state != "open"
        ] + [
            name
            for name in preference
            if self.breakers[name].state == "open"
        ]
        last_answer: Optional[Dict] = None
        last_failure = ""
        for index, name in enumerate(order):
            # A spent budget still gets its first attempt, so the router
            # answers what a node answers (a cached result or an
            # ExperimentTimeout error); it only stops the failover.
            if index and deadline is not None and deadline.expired:
                break
            if index:
                self.metrics.counter("cluster.requests.failover").inc()
            breaker = self.breakers[name]
            try:
                response, _ = await self.transport.request(
                    self.membership.get(name),
                    self._attempt_payload(payload, deadline),
                    timeout=self._attempt_timeout(deadline),
                )
            except PeerUnavailable as error:
                last_failure = str(error)
                breaker.record_failure()
                self.metrics.counter(
                    "cluster.peer.failures", label=name
                ).inc()
                continue
            breaker.record_success()
            if _fails_over(response):
                last_answer = response
                continue
            self.metrics.counter(
                "cluster.requests.routed", label=name
            ).inc()
            return response
        if last_answer is not None:
            return last_answer
        return {
            **status_response(request, "error"),
            "error": {
                "type": "PeerUnavailable",
                "message": f"no peer could serve the request "
                f"(last: {last_failure})",
            },
        }


def _fails_over(response: Dict) -> bool:
    """Whether another peer might answer what this one did not.

    A refusal and a node's execution error both fail over; a malformed
    request (``ServiceError``) would be refused the same way everywhere.
    """
    status = response.get("status")
    if status in REFUSAL_STATUSES:
        return True
    return (
        status == "error"
        and response.get("error", {}).get("type") != "ServiceError"
    )
