"""Async peer requests over pooled connections: the fabric's only wire
primitive.

A request takes an idle connection to its peer when one exists and
opens one otherwise; the node serves any number of lines per connection
(:class:`~repro.service.protocol.LineFrontEnd`), so reuse needs no
protocol change.  A TCP handshake and teardown cost several times a
cache hit's work on the node, so reuse is what keeps the hop cheap.

The pooled contract:

* **only a clean answer pools a connection** — a connection goes back
  to its peer's pool only after one whole, well-formed response line
  whose ``request_id`` matches the one sent.  A timeout, a
  cancellation, a transport error, a malformed or oversized line or a
  ``request_id`` mismatch closes it, so a late answer can never be read
  as the next request's answer.  At most :data:`MAX_IDLE_PER_PEER` idle
  connections are kept per peer;
* **a dead pooled connection is retried once, on the same peer** — a
  reused connection that is reset, or hits EOF before any response
  byte (the node hung it up while it sat idle), is replaced by one
  fresh connection to the same peer, inside the same budget.  That
  retry is not a failover: the caller sees one attempt.  If the fresh
  connect fails too, the attempt raises :class:`PeerUnavailable`;
* **partitions are checked first** — the chaos partition check runs
  before the pool is consulted, so a partitioned link fails instantly
  even with idle connections to that peer;
* :meth:`PeerTransport.close` closes every idle connection (the
  router's drain).

Every failure mode a peer can present — connect refusal, a timeout
against the caller's budget, a mid-frame disconnect, an oversized or
malformed response line — is normalized to
:class:`~repro.common.errors.PeerUnavailable`, the single exception the
failover loop handles.
"""

from __future__ import annotations

import asyncio
import json
import time
from typing import Dict, List, Optional, Tuple

from repro.common.errors import PeerUnavailable
from repro.cluster.chaos import ClusterChaosConfig
from repro.cluster.membership import Peer
from repro.service.protocol import MAX_LINE_BYTES, encode_line

#: Idle connections kept per peer.  Concurrent requests past this many
#: still connect; their connections are closed instead of kept.
MAX_IDLE_PER_PEER = 8

_Connection = Tuple[asyncio.StreamReader, asyncio.StreamWriter]


class _Stale(Exception):
    """A reused connection was reset or closed before answering."""


class PeerTransport:
    """Sends one request line to one peer and reads one response line.

    Args:
        connect_timeout: Budget for the TCP connect alone.
        request_timeout: Default end-to-end budget per attempt when the
            caller has no tighter deadline.
        chaos: Optional :class:`ClusterChaosConfig` (tests only).
    """

    def __init__(
        self,
        connect_timeout: float = 2.0,
        request_timeout: float = 30.0,
        chaos: Optional[ClusterChaosConfig] = None,
    ):
        self.connect_timeout = connect_timeout
        self.request_timeout = request_timeout
        self.chaos = chaos
        self._idle: Dict[Peer, List[_Connection]] = {}
        self._closed = False

    async def request(
        self,
        peer: Peer,
        payload: Dict,
        timeout: Optional[float] = None,
    ) -> Tuple[Dict, float]:
        """One round trip; returns ``(response, elapsed_seconds)``.

        Raises:
            PeerUnavailable: On any transport-level failure — the
                caller's cue to fail over.
        """
        if self.chaos is not None and self.chaos.is_partitioned(peer.name):
            raise PeerUnavailable(
                f"link to peer {peer.name!r} is partitioned"
            )
        budget = self.request_timeout if timeout is None else timeout
        if budget <= 0:
            raise PeerUnavailable(
                f"no budget left to contact peer {peer.name!r}"
            )
        started = time.monotonic()
        deadline = started + budget
        connection = self._take(peer)
        if connection is not None:
            try:
                response = await self._exchange(
                    peer, connection, payload, deadline, budget, True
                )
                return response, time.monotonic() - started
            except _Stale:
                pass
        connection = await self._connect(peer, deadline)
        response = await self._exchange(
            peer, connection, payload, deadline, budget, False
        )
        return response, time.monotonic() - started

    async def close(self) -> None:
        """Close every idle connection; later answers close theirs."""
        self._closed = True
        idle, self._idle = self._idle, {}
        writers = [writer for pool in idle.values() for _, writer in pool]
        for writer in writers:
            writer.close()
        for writer in writers:
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    def _take(self, peer: Peer) -> Optional[_Connection]:
        """The most recently pooled live connection to ``peer``."""
        pool = self._idle.get(peer)
        while pool:
            reader, writer = pool.pop()
            if writer.is_closing() or reader.at_eof():
                writer.close()
                continue
            return reader, writer
        return None

    def _release(self, peer: Peer, connection: _Connection) -> None:
        pool = self._idle.setdefault(peer, [])
        if self._closed or len(pool) >= MAX_IDLE_PER_PEER:
            connection[1].close()
        else:
            pool.append(connection)

    async def _connect(self, peer: Peer, deadline: float) -> _Connection:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise PeerUnavailable(
                f"no budget left to contact peer {peer.name!r}"
            )
        try:
            return await asyncio.wait_for(
                asyncio.open_connection(
                    peer.host, peer.port, limit=MAX_LINE_BYTES
                ),
                timeout=min(self.connect_timeout, remaining),
            )
        except asyncio.TimeoutError:
            raise PeerUnavailable(
                f"connect to peer {peer.name!r} timed out"
            )
        except OSError as error:
            raise PeerUnavailable(
                f"cannot connect to peer {peer.name!r}: {error}"
            )

    async def _exchange(
        self,
        peer: Peer,
        connection: _Connection,
        payload: Dict,
        deadline: float,
        budget: float,
        reused: bool,
    ) -> Dict:
        """Send ``payload`` on ``connection``; pool it only on a clean
        answer, close it on every other outcome (cancellation too)."""
        try:
            response = await self._answer(
                peer, connection, payload, deadline, budget, reused
            )
        except BaseException:
            connection[1].close()
            raise
        self._release(peer, connection)
        return response

    async def _answer(
        self,
        peer: Peer,
        connection: _Connection,
        payload: Dict,
        deadline: float,
        budget: float,
        reused: bool,
    ) -> Dict:
        reader, writer = connection
        try:
            writer.write(encode_line(payload))
            await writer.drain()
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise PeerUnavailable(
                    f"budget expired sending to peer {peer.name!r}"
                )
            line = await asyncio.wait_for(
                reader.readline(), timeout=remaining
            )
        except asyncio.TimeoutError:
            raise PeerUnavailable(
                f"peer {peer.name!r} did not answer within {budget:.3f}s"
            )
        except (ConnectionResetError, BrokenPipeError) as error:
            if reused:
                raise _Stale()
            raise PeerUnavailable(
                f"transport failure talking to peer {peer.name!r}: {error}"
            )
        except (asyncio.LimitOverrunError, ValueError, OSError) as error:
            raise PeerUnavailable(
                f"transport failure talking to peer {peer.name!r}: {error}"
            )
        if not line:
            if reused:
                raise _Stale()
            raise PeerUnavailable(
                f"peer {peer.name!r} disconnected before a response"
            )
        if len(line) > MAX_LINE_BYTES:
            raise PeerUnavailable(
                f"peer {peer.name!r} sent an oversized response line"
            )
        if not line.endswith(b"\n"):
            raise PeerUnavailable(
                f"peer {peer.name!r} disconnected mid-response"
            )
        try:
            response = json.loads(line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise PeerUnavailable(
                f"peer {peer.name!r} sent a malformed response: {error}"
            )
        if not isinstance(response, dict):
            raise PeerUnavailable(
                f"peer {peer.name!r} response is not a JSON object"
            )
        sent = payload.get("request_id", "")
        if response.get("request_id", "") != sent:
            raise PeerUnavailable(
                f"peer {peer.name!r} answered request_id "
                f"{response.get('request_id')!r}, expected {sent!r}"
            )
        return response
