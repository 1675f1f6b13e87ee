"""Channel-as-a-service: a fault-tolerant front end for the experiment farm.

ROADMAP item 2: a long-running asyncio service that accepts experiment
requests over a line-delimited JSON TCP protocol, validates them against
the experiment registry, and shards them across worker pools — built so
the faults it simulates (crashes, corruption, disconnects) cannot take
it down.  The robustness core:

* **admission control** — a token bucket rejects excess load with an
  explicit 429-style response instead of queueing it to death;
* **backpressure** — per-pool queues are bounded; a full queue sheds
  the request immediately (never unbounded buffering);
* **deadline propagation** — a client's ``deadline_ms`` rides the
  request into :class:`~repro.common.deadline.Deadline` and down
  to the runner's per-experiment budget;
* **circuit breaking** — each pool sits behind a
  :class:`~repro.common.breaker.CircuitBreaker`; a crash-looping pool
  answers a ``CircuitOpen`` error in microseconds instead of timing out
  slowly;
* **exact answers or typed errors** — results are memoized in a
  checksummed, manifest-keyed cache; a request the node cannot execute
  gets an ``error`` whose type names the cause, never a substitute.

See ``docs/SERVICE.md`` for the protocol and knob reference.
"""

from repro.service.cache import ResultCache, request_key
from repro.service.client import ServiceClient
from repro.service.protocol import Request, parse_request
from repro.service.server import ExperimentService, ServiceConfig, TokenBucket

__all__ = [
    "ExperimentService",
    "Request",
    "ResultCache",
    "ServiceClient",
    "ServiceConfig",
    "TokenBucket",
    "parse_request",
    "request_key",
]
