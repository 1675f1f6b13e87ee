"""Blocking line-JSON client for the experiment service.

Deliberately synchronous: the load generator, the CLI, and the tests
all want deterministic request/response ordering, and a plain socket
with a file wrapper gives exactly that with no event loop of its own.
"""

from __future__ import annotations

import json
import socket
from typing import Dict, Optional

from repro.common.errors import ServiceError
from repro.service.protocol import MAX_LINE_BYTES, encode_line


class ServiceClient:
    """One TCP connection to a running service.

    Args:
        host: Server address.
        port: Server port.
        timeout: Socket timeout for connect and each response read.

    Usable as a context manager; the connection opens lazily on the
    first request and reconnects automatically after :meth:`close` (the
    drain/reconnect tests lean on that).
    """

    def __init__(self, host: str, port: int, timeout: float = 30.0):
        self.host = host
        self.port = port
        self.timeout = timeout
        self._sock: Optional[socket.socket] = None
        self._file = None

    # -- connection management ------------------------------------------

    def connect(self) -> None:
        if self._sock is not None:
            return
        sock = socket.create_connection(
            (self.host, self.port), timeout=self.timeout
        )
        self._sock = sock
        self._file = sock.makefile("rb")

    def close(self) -> None:
        if self._file is not None:
            try:
                self._file.close()
            except OSError:
                pass
            self._file = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def __enter__(self) -> "ServiceClient":
        self.connect()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- the wire -------------------------------------------------------

    def send_only(self, payload: Dict) -> None:
        """Send a request and do NOT read the response.

        The chaos plane's ``client_disconnect`` fault: callers follow
        with :meth:`close`, abandoning the server mid-request.
        """
        self.connect()
        self._sock.sendall(encode_line(payload))

    def roundtrip(self, payload: Dict) -> Dict:
        """Send one request line, read one response line."""
        self.send_only(payload)
        line = self._file.readline(MAX_LINE_BYTES + 1)
        if not line:
            self.close()
            raise ServiceError(
                "connection closed by server before a response arrived"
            )
        if len(line) > MAX_LINE_BYTES:
            self.close()
            raise ServiceError(
                f"response line exceeds {MAX_LINE_BYTES} bytes"
            )
        try:
            return json.loads(line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            self.close()
            raise ServiceError(f"response is not valid JSON: {error}")

    # -- the protocol ---------------------------------------------------

    def request(
        self,
        experiment_id: str,
        deadline_ms: Optional[float] = None,
        request_id: str = "",
        refresh: bool = False,
        trials: int = 0,
        defense: str = "none",
    ) -> Dict:
        """Run (or fetch from cache) one experiment.

        With ``trials > 0``, ``experiment_id`` names a channel algorithm
        (``alg1``/``alg2``) and the server runs that many independent
        transfers through the vectorized batch engine, answering with an
        aggregate error-rate summary.

        With ``defense`` set, ``experiment_id`` names a channel
        algorithm (``alg1``/``alg2``/``occupancy``) and the server runs
        it against that defense design, answering with one
        ``ext_randomized`` matrix cell.  ``trials`` and ``defense``
        cannot be combined (the server refuses the pair at parse time).
        """
        payload: Dict = {"op": "run", "experiment_id": experiment_id}
        if deadline_ms is not None:
            payload["deadline_ms"] = deadline_ms
        if request_id:
            payload["request_id"] = request_id
        if refresh:
            payload["refresh"] = True
        if trials:
            payload["trials"] = trials
        if defense != "none":
            payload["defense"] = defense
        return self.roundtrip(payload)

    def analyze(
        self,
        policy: str,
        ways: int,
        defense: str = "none",
        deadline_ms: Optional[float] = None,
        request_id: str = "",
        refresh: bool = False,
    ) -> Dict:
        """Static leakage analysis of one policy shape (zero simulation).

        The response's ``result`` is a
        ``repro.analysis.leakage.PolicyLeakage`` dict; a state space
        beyond the server's eager budget arrives as a structured
        refusal (``result["mode"] == "refused"``), not an error.
        """
        payload: Dict = {
            "op": "analyze",
            "policy": policy,
            "ways": ways,
            "defense": defense,
        }
        if deadline_ms is not None:
            payload["deadline_ms"] = deadline_ms
        if request_id:
            payload["request_id"] = request_id
        if refresh:
            payload["refresh"] = True
        return self.roundtrip(payload)

    def ping(self) -> Dict:
        return self.roundtrip({"op": "ping"})

    def stats(self) -> Dict:
        return self.roundtrip({"op": "stats"})

