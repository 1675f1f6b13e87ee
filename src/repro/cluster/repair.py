"""Anti-entropy repair: degraded answers heal themselves afterwards.

When a node's worker pool is broken, the service answers from its
analytic stub and tags the response ``degraded=true`` — correct
behavior under PR-6's degraded-serving contract, but it leaves that
node's :class:`~repro.service.cache.ResultCache` without the exact
result, so *every future request* routed there degrades too.  In a
cluster that is fixable: some replica holds (or can compute) the exact
answer.  This module closes the loop — whenever the router serves a
degraded response, it enqueues a repair that

1. re-runs the original request against the key's other replicas until
   one returns an exact (non-degraded) result, then
2. pushes that result into the degraded node's cache via the protocol's
   ``backfill`` op, checksummed end-to-end so a corrupted transfer is
   rejected rather than cached.

Repairs are strictly background work: a bounded queue with
drop-and-count overflow (``cluster.repairs.dropped``) keeps a flood of
degraded traffic from turning the repairer into an amplifier, and an
in-flight key set deduplicates the common case of many clients hitting
the same cold degraded key at once.
"""

from __future__ import annotations

import asyncio
from typing import Dict, List, Set

from repro.cluster.membership import Membership
from repro.cluster.transport import PeerTransport
from repro.common.atomicio import checksum
from repro.common.errors import PeerUnavailable
from repro.obs.registry import MetricsRegistry
from repro.service.cache import canonical_entry
from repro.service.protocol import PROTOCOL_VERSION


class AntiEntropyRepairer:
    """Background backfiller for nodes that served degraded answers.

    Args:
        membership: Peer registry (names → addresses).
        transport: Shared transport (repairs honor chaos faults too).
        metrics: Registry for the ``cluster.repairs.*`` counters.
        queue_depth: Bound on queued repairs; overflow is dropped and
            counted, never blocks the serving path.
        request_timeout: Budget per donor / backfill round trip.
    """

    def __init__(
        self,
        membership: Membership,
        transport: PeerTransport,
        metrics: MetricsRegistry,
        queue_depth: int = 64,
        request_timeout: float = 10.0,
    ):
        if queue_depth < 1:
            raise ValueError(f"queue_depth must be >= 1, got {queue_depth}")
        self.membership = membership
        self.transport = transport
        self.metrics = metrics
        self.request_timeout = request_timeout
        self._queue: asyncio.Queue = asyncio.Queue(maxsize=queue_depth)
        self._pending_keys: Set[str] = set()
        #: Repairs fully processed (diagnostics / test synchronization).
        self.processed = 0

    def schedule(
        self,
        cache_key: str,
        request_payload: Dict,
        degraded_peer: str,
        donors: List[str],
    ) -> bool:
        """Queue one repair; returns False if deduplicated or dropped.

        Args:
            cache_key: The service-side cache key the degraded response
                reported (``cache_key`` field of the response).
            request_payload: The original wire request, replayed
                verbatim against donors to obtain the exact result.
            degraded_peer: Name of the node that answered degraded.
            donors: Peer names to ask for the exact result, in
                preference order (the key's other replicas first).
        """
        if not cache_key or not donors:
            return False
        if cache_key in self._pending_keys:
            return False
        try:
            self._queue.put_nowait(
                (cache_key, dict(request_payload), degraded_peer, donors)
            )
        except asyncio.QueueFull:
            self.metrics.counter("cluster.repairs.dropped").inc()
            return False
        self._pending_keys.add(cache_key)
        self.metrics.counter("cluster.repairs.scheduled").inc()
        return True

    async def _repair_one(
        self,
        cache_key: str,
        request_payload: Dict,
        degraded_peer: str,
        donors: List[str],
    ) -> bool:
        exact = None
        for donor_name in donors:
            donor = self.membership.get(donor_name)
            try:
                response, _ = await self.transport.request(
                    donor, request_payload, timeout=self.request_timeout
                )
            except PeerUnavailable:
                continue
            if (
                response.get("status") == "ok"
                and not response.get("degraded")
                and response.get("cache_key") == cache_key
                and isinstance(response.get("result"), dict)
            ):
                exact = response["result"]
                break
        if exact is None:
            return False
        # Checksum covers the exact payload the receiving cache will
        # store, so the receiver verifies before trusting the transfer.
        entry = {"key": cache_key, "result": exact}
        target = self.membership.get(degraded_peer)
        try:
            response, _ = await self.transport.request(
                target,
                {
                    "version": PROTOCOL_VERSION,
                    "op": "backfill",
                    "cache_key": cache_key,
                    "result": exact,
                    "checksum": checksum(canonical_entry(entry)),
                },
                timeout=self.request_timeout,
            )
        except PeerUnavailable:
            return False
        return response.get("status") == "ok" and bool(
            response.get("applied")
        )

    async def run(self, stop: asyncio.Event) -> None:
        """Drain repairs until ``stop`` is set and the queue is empty."""
        while True:
            if stop.is_set() and self._queue.empty():
                return
            try:
                item = await asyncio.wait_for(self._queue.get(), timeout=0.1)
            except asyncio.TimeoutError:
                continue
            cache_key, payload, degraded_peer, donors = item
            try:
                repaired = await self._repair_one(
                    cache_key, payload, degraded_peer, donors
                )
                if repaired:
                    self.metrics.counter("cluster.repairs.completed").inc()
                else:
                    self.metrics.counter("cluster.repairs.failed").inc()
            finally:
                self._pending_keys.discard(cache_key)
                self.processed += 1
