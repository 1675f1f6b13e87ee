"""One-shot async peer requests: the fabric's only wire primitive.

Deliberately connection-per-request: the router's failure semantics
("this attempt failed, try the next replica") map one-to-one onto a
fresh TCP connection per attempt, with no pooled-connection state to
invalidate after a peer dies mid-frame.  At reproduction-cluster scale
the extra handshake is noise next to an experiment execution.

Every failure mode a peer can present — connect refusal, a timeout
against the caller's budget, a mid-frame disconnect, an oversized or
malformed response line — is normalized to
:class:`~repro.common.errors.PeerUnavailable`, the single exception the
failover loop handles.  The cluster chaos plane hooks in here: a
partitioned peer's connect raises instantly.
"""

from __future__ import annotations

import asyncio
import json
import time
from typing import Dict, Optional, Tuple

from repro.common.errors import PeerUnavailable
from repro.cluster.chaos import ClusterChaosConfig
from repro.cluster.membership import Peer
from repro.service.protocol import MAX_LINE_BYTES, encode_line


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
        try:
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(
                    peer.host, peer.port, limit=MAX_LINE_BYTES
                ),
                timeout=min(self.connect_timeout, budget),
            )
        except asyncio.TimeoutError:
            raise PeerUnavailable(
                f"connect to peer {peer.name!r} timed out"
            )
        except OSError as error:
            raise PeerUnavailable(
                f"cannot connect to peer {peer.name!r}: {error}"
            )
        try:
            try:
                writer.write(encode_line(payload))
                await writer.drain()
                remaining = budget - (time.monotonic() - started)
                if remaining <= 0:
                    raise PeerUnavailable(
                        f"budget expired sending to peer {peer.name!r}"
                    )
                line = await asyncio.wait_for(
                    reader.readline(), timeout=remaining
                )
            except asyncio.TimeoutError:
                raise PeerUnavailable(
                    f"peer {peer.name!r} did not answer within "
                    f"{budget:.3f}s"
                )
            except (
                ConnectionResetError,
                BrokenPipeError,
                asyncio.LimitOverrunError,
                ValueError,
                OSError,
            ) as error:
                raise PeerUnavailable(
                    f"transport failure talking to peer {peer.name!r}: "
                    f"{error}"
                )
            if not line:
                raise PeerUnavailable(
                    f"peer {peer.name!r} disconnected before a response"
                )
            if len(line) > MAX_LINE_BYTES:
                raise PeerUnavailable(
                    f"peer {peer.name!r} sent an oversized response line"
                )
            try:
                response = json.loads(line.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as error:
                raise PeerUnavailable(
                    f"peer {peer.name!r} sent a malformed response: "
                    f"{error}"
                )
            if not isinstance(response, dict):
                raise PeerUnavailable(
                    f"peer {peer.name!r} response is not a JSON object"
                )
            return response, time.monotonic() - started
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass
