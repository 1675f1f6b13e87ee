"""Wire protocol of the experiment service: line-delimited JSON.

One request is one ``\\n``-terminated JSON object; one response is one
``\\n``-terminated JSON object.  Lines are bounded (:data:`MAX_LINE_BYTES`)
so a malicious or broken client cannot balloon server memory — the same
"never unbounded" rule the request queues follow.

Request shape::

    {"op": "run", "experiment_id": "table2", "deadline_ms": 5000,
     "request_id": "r-17", "refresh": false}

``op`` is ``run`` (execute or serve from cache), ``ping`` (liveness),
``stats`` (metrics/breaker/queue snapshot), or ``analyze`` (static
leakage analysis of a replacement policy — zero simulation; see
``docs/LEAKAGE.md``).  ``deadline_ms`` is the end-to-end budget the
whole request — queueing, execution, a router's failover — must fit
into;
``refresh`` bypasses the cache *read* (the result is still written
back).

A ``run`` request with ``trials > 0`` is a multi-trial batch request:
``experiment_id`` names a channel algorithm (``alg1``/``alg2``) and the
server runs that many independent transfers through the vectorized
batch engine (``repro.sim.batch``), answering with an aggregate
error-rate summary::

    {"op": "run", "experiment_id": "alg1", "trials": 1000,
     "request_id": "b-1"}

A ``run`` request with ``defense`` set names a channel algorithm
(``alg1``/``alg2``/``occupancy``) to run against one defense design
from the registry (``repro.defenses``), randomized index designs
included::

    {"op": "run", "experiment_id": "alg1", "defense": "ceaser",
     "request_id": "d-1"}

``trials`` and ``defense`` cannot be combined: the lockstep batch
engine compiles the undefended single-set layout into its policy
tables, so defended runs are scalar only and the combination is
refused at parse time.

An ``analyze`` request names a policy shape instead of an experiment::

    {"op": "analyze", "policy": "lru", "ways": 4, "defense": "none",
     "deadline_ms": 2000, "request_id": "a-3"}

The response's ``result`` is one leakage entry
(``repro.analysis.leakage.PolicyLeakage.to_dict``); a shape whose
state space exceeds the eager budget comes back ``status=ok`` with
``result.mode == "refused"`` — a structured refusal, not an error.

``forwarded`` (bool, default false) marks a request relayed by the
cluster router (``python -m repro route``) rather than sent by a
client directly — observability only, the request path is identical.

Response statuses:

====================  ====================================================
``ok``                Executed or served from cache; ``result`` carries
                      the exact payload (``source`` says which).
``rejected``          Token-bucket admission control refused the request
                      (429-style); ``retry_after_ms`` hints when to retry.
``shed``              Admitted, but the bounded queue of the lane that
                      would execute it (a pool, or the analysis lane)
                      was full (backpressure).
``draining``          The server is shutting down gracefully; reconnect
                      and retry — finished results are served from cache.
``error``             No result: ``error.type`` names why.  A malformed
                      request (bad JSON, unknown op or experiment id,
                      oversized line) is ``ServiceError``; a request the
                      node could not execute is ``CircuitOpen``,
                      ``ExperimentTimeout``, ``WorkerCrashed``, or the
                      exception the experiment raised.
====================  ====================================================
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass
from typing import Dict, Optional

from repro.common.errors import ServiceError

#: Hard bound on one request/response line, in bytes (newline included).
MAX_LINE_BYTES = 1_048_576

#: Protocol revision, echoed in every response.
PROTOCOL_VERSION = 1

#: Operations a request may name.
OPS = ("run", "ping", "stats", "analyze")

#: Defense models the ``analyze`` op accepts: the closed-table models
#: of ``repro.analysis.reachability.DEFENSES`` plus the randomized
#: index designs, which the analyzer answers with a structured refusal
#: (``result.mode == "refused"``) rather than a wire error.  Kept
#: literal here so the wire layer does not import the analysis stack.
ANALYZE_DEFENSES = ("none", "no-hit-update", "ceaser", "skew")

#: Defense designs a ``run`` request may name (mirrors
#: ``repro.defenses.registry.SIMULATED_DEFENSES``, kept literal so the
#: wire layer does not import the simulator; a registry test asserts
#: the mirror).
RUN_DEFENSES = ("none", "fifo", "random", "no-hit-update", "ceaser", "skew")

#: Associativity bound for ``analyze`` (matches the simulator's caches;
#: a request beyond it is malformed, not refused).
MAX_ANALYZE_WAYS = 64

#: Bound on one ``run`` request's batch-trial count — one request is one
#: lockstep block, so this caps the server-side array allocation.
MAX_TRIALS = 100_000

#: Response statuses a client may see (documented above).
STATUSES = ("ok", "rejected", "shed", "draining", "error", "pong", "stats")


@dataclass(frozen=True)
class Request:
    """One validated client request."""

    op: str
    experiment_id: str = ""
    deadline_ms: Optional[float] = None
    request_id: str = ""
    refresh: bool = False
    policy: str = ""
    ways: int = 0
    defense: str = "none"
    trials: int = 0
    forwarded: bool = False


def parse_request(line: bytes) -> Request:
    """Validate one wire line into a :class:`Request`.

    Raises:
        ServiceError: On malformed JSON, a non-object payload, an
            unknown ``op``, a missing/invalid ``experiment_id`` for
            ``run``, or a negative/non-numeric ``deadline_ms``.
    """
    if len(line) > MAX_LINE_BYTES:
        raise ServiceError(
            f"request line exceeds {MAX_LINE_BYTES} bytes"
        )
    try:
        data = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ServiceError(f"request is not valid JSON: {error}")
    if not isinstance(data, dict):
        raise ServiceError("request must be a JSON object")
    op = data.get("op")
    if op not in OPS:
        raise ServiceError(f"unknown op {op!r}; expected one of {OPS}")
    experiment_id = data.get("experiment_id", "")
    if op == "run" and (
        not isinstance(experiment_id, str) or not experiment_id
    ):
        raise ServiceError("op 'run' requires a non-empty experiment_id")
    deadline_ms = data.get("deadline_ms")
    if deadline_ms is not None:
        if isinstance(deadline_ms, bool) or not isinstance(
            deadline_ms, (int, float)
        ):
            raise ServiceError(
                f"deadline_ms must be a number, got {deadline_ms!r}"
            )
        if deadline_ms < 0:
            raise ServiceError(
                f"deadline_ms must be >= 0, got {deadline_ms}"
            )
    request_id = data.get("request_id", "")
    if not isinstance(request_id, str):
        raise ServiceError("request_id must be a string")
    refresh = data.get("refresh", False)
    if not isinstance(refresh, bool):
        raise ServiceError("refresh must be a boolean")
    forwarded = data.get("forwarded", False)
    if not isinstance(forwarded, bool):
        raise ServiceError("forwarded must be a boolean")
    trials = data.get("trials", 0)
    if isinstance(trials, bool) or not isinstance(trials, int):
        raise ServiceError(f"trials must be an integer, got {trials!r}")
    if trials < 0 or trials > MAX_TRIALS:
        raise ServiceError(
            f"trials must be in [0, {MAX_TRIALS}], got {trials}"
        )
    policy = data.get("policy", "")
    ways = data.get("ways", 0)
    defense = data.get("defense", "none")
    if op == "run":
        if defense not in RUN_DEFENSES:
            raise ServiceError(
                f"unknown defense {defense!r}; expected one of "
                f"{RUN_DEFENSES}"
            )
        if defense != "none" and trials:
            raise ServiceError(
                "trials cannot be combined with a defense: the lockstep "
                "batch engine compiles the undefended single-set layout "
                "into its policy tables (see docs/DEFENSES.md)"
            )
    if op == "analyze":
        if not isinstance(policy, str) or not policy:
            raise ServiceError("op 'analyze' requires a non-empty policy")
        if isinstance(ways, bool) or not isinstance(ways, int):
            raise ServiceError(f"ways must be an integer, got {ways!r}")
        if ways < 1 or ways > MAX_ANALYZE_WAYS:
            raise ServiceError(
                f"ways must be in [1, {MAX_ANALYZE_WAYS}], got {ways}"
            )
        if defense not in ANALYZE_DEFENSES:
            raise ServiceError(
                f"unknown defense {defense!r}; expected one of "
                f"{ANALYZE_DEFENSES}"
            )
    return Request(
        op=op,
        experiment_id=experiment_id if isinstance(experiment_id, str) else "",
        deadline_ms=deadline_ms,
        request_id=request_id,
        refresh=refresh,
        policy=policy if isinstance(policy, str) else "",
        ways=ways if isinstance(ways, int) else 0,
        defense=defense if isinstance(defense, str) else "none",
        trials=trials,
        forwarded=forwarded,
    )


def encode_line(payload: Dict) -> bytes:
    """Serialize one response/request object as a bounded wire line."""
    line = json.dumps(payload, sort_keys=True) + "\n"
    raw = line.encode("utf-8")
    if len(raw) > MAX_LINE_BYTES:
        raise ServiceError(
            f"encoded line exceeds {MAX_LINE_BYTES} bytes "
            f"({len(raw)} bytes)"
        )
    return raw


def status_response(request: Request, status: str) -> Dict:
    """The fields every response to ``request`` starts from."""
    return {
        "v": PROTOCOL_VERSION,
        "request_id": request.request_id,
        "status": status,
    }


def error_response(message: str, request_id: str = "") -> Dict:
    """The structured shape of a malformed request (``ServiceError``)."""
    return {
        "v": PROTOCOL_VERSION,
        "request_id": request_id,
        "status": "error",
        "error": {"type": "ServiceError", "message": message},
    }


class LineFrontEnd:
    """A TCP listener speaking this protocol: the node's and the router's.

    Subclasses supply ``async _dispatch(request) -> response`` and
    ``async drain()``.  The framing discipline is the same for both: an
    oversized line gets an error and a hangup; a malformed line gets an
    error and the connection survives; a clean EOF or a vanished client
    closes the connection quietly.  A connection carries any number of
    request lines, one answer each, until the client hangs up or
    :meth:`close_listener` runs.
    """

    def __init__(self) -> None:
        self.server: Optional[asyncio.AbstractServer] = None
        self.port: Optional[int] = None
        # Open client connections, so a drain or a chaos abort can
        # reach them, and the ones whose handler waits for a next line.
        self._writers: set = set()
        self._idle: set = set()
        self._closing = False

    async def listen(self, host: str, port: int) -> None:
        """Bind the listener; :attr:`port` is the bound port after."""
        self.server = await asyncio.start_server(
            self._handle_client, host=host, port=port, limit=MAX_LINE_BYTES
        )
        self.port = self.server.sockets[0].getsockname()[1]

    async def serve_until(self, stop: "asyncio.Event") -> None:
        """Serve until ``stop`` is set, then drain."""
        await stop.wait()
        await self.drain()

    async def close_listener(self) -> None:
        """Stop accepting, hang up idle connections, wait for the rest.

        A connection whose handler waits for its next line is closed at
        once; a busy one is closed after it writes its answer.  From
        Python 3.12.1 on, ``Server.wait_closed`` waits for every open
        connection, so an idle keep-alive client (a router's pooled
        connection, an idle :class:`ServiceClient`) would otherwise
        hold the drain forever.
        """
        self._closing = True
        if self.server is None:
            return
        self.server.close()
        for writer in list(self._idle):
            writer.close()
        await self.server.wait_closed()

    async def _handle_client(self, reader, writer) -> None:
        self._writers.add(writer)
        try:
            while not self._closing:
                self._idle.add(writer)
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    self._idle.discard(writer)
                    writer.write(
                        encode_line(
                            error_response(
                                f"request line exceeds {MAX_LINE_BYTES} bytes"
                            )
                        )
                    )
                    await writer.drain()
                    break
                self._idle.discard(writer)
                if not line:
                    break
                try:
                    request = parse_request(line)
                except ServiceError as error:
                    response = error_response(str(error))
                else:
                    response = await self._dispatch(request)
                writer.write(encode_line(response))
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError, OSError):
            # The client vanished (a crash, a dropped link, a chaos
            # disconnect).  Nothing to tell anyone; just clean up.
            pass
        finally:
            self._writers.discard(writer)
            self._idle.discard(writer)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass
