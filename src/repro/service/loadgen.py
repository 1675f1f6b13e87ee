"""Deterministic load generator for the experiment service.

Two halves, both seeded:

* :func:`build_schedule` — the request sequence.  A rich-get-richer
  draw (repeat an earlier request with probability ``repeat_bias``,
  else pick a fresh experiment) produces the skewed popularity real
  request streams have, which is what gives the cache a predictable,
  seed-reproducible hit-rate floor for the tests to police.
* :func:`run_load` — drive the schedule through a
  :class:`~repro.service.client.ServiceClient`, measure per-request
  latency on the monotonic clock, and fold everything into a
  :class:`LoadReport` (status counts, hit rate, p50/p99).

The chaos plane plugs in through ``chaos.decide_disconnect``: selected
requests are sent and then abandoned (connection closed without reading
the response), exercising the server's dead-writer path without ever
counting as client errors — the abandonment *is* the test.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.common.errors import ServiceError
from repro.common.rng import make_rng
from repro.service.client import ServiceClient


def build_schedule(
    n: int,
    experiment_ids: Sequence[str],
    seed: int = 0,
    repeat_bias: float = 0.7,
) -> List[str]:
    """A seeded, popularity-skewed request sequence.

    Each request repeats a uniformly chosen *earlier* request with
    probability ``repeat_bias`` (so popular experiments snowball), else
    draws fresh from ``experiment_ids``.  Deterministic in ``seed``.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not experiment_ids:
        raise ValueError("experiment_ids must be non-empty")
    if not 0.0 <= repeat_bias <= 1.0:
        raise ValueError(
            f"repeat_bias must be in [0, 1], got {repeat_bias}"
        )
    rng = make_rng(seed)
    ids = list(experiment_ids)
    schedule: List[str] = []
    for _ in range(n):
        if schedule and rng.random() < repeat_bias:
            schedule.append(schedule[rng.randrange(len(schedule))])
        else:
            schedule.append(ids[rng.randrange(len(ids))])
    return schedule


@dataclass
class LoadReport:
    """Everything one load run produced, plus derived aggregates."""

    total: int = 0
    by_status: Dict[str, int] = field(default_factory=dict)
    by_source: Dict[str, int] = field(default_factory=dict)
    disconnected: int = 0
    client_errors: int = 0
    latencies_ms: List[float] = field(default_factory=list)
    responses: List[Dict] = field(default_factory=list)

    def _count(self, table: Dict[str, int], key: str) -> None:
        table[key] = table.get(key, 0) + 1

    def record(self, response: Dict, elapsed_ms: float) -> None:
        self.total += 1
        self.latencies_ms.append(elapsed_ms)
        self.responses.append(response)
        self._count(self.by_status, response.get("status", "?"))
        source = response.get("source")
        if source:
            self._count(self.by_source, source)

    @property
    def hit_rate(self) -> float:
        """Fraction of answered requests served from the cache."""
        answered = self.by_status.get("ok", 0)
        if not answered:
            return 0.0
        return self.by_source.get("cache", 0) / answered

    def percentile_ms(self, q: float) -> float:
        """Latency percentile (nearest-rank) over completed requests."""
        if not self.latencies_ms:
            return 0.0
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"q must be in [0, 100], got {q}")
        ordered = sorted(self.latencies_ms)
        rank = max(0, min(len(ordered) - 1, round(q / 100.0 * len(ordered)) - 1))
        return ordered[rank]

    @property
    def p50_ms(self) -> float:
        return self.percentile_ms(50.0)

    @property
    def p99_ms(self) -> float:
        return self.percentile_ms(99.0)

    def summary(self) -> Dict:
        """Plain-data aggregate view (what the smoke scripts print)."""
        return {
            "total": self.total,
            "by_status": dict(self.by_status),
            "by_source": dict(self.by_source),
            "disconnected": self.disconnected,
            "client_errors": self.client_errors,
            "hit_rate": round(self.hit_rate, 4),
            "p50_ms": round(self.p50_ms, 3),
            "p99_ms": round(self.p99_ms, 3),
        }


def run_load(
    host: str,
    port: int,
    schedule: Sequence[str],
    deadline_ms: Optional[float] = None,
    chaos=None,
    timeout: float = 60.0,
    retry_sleep: float = 0.01,
    max_retries: int = 50,
) -> LoadReport:
    """Drive ``schedule`` through the service, sequentially.

    ``rejected``/``shed`` responses are retried (with a small sleep,
    honouring ``retry_after_ms`` when given) up to ``max_retries`` times
    — the load generator models a well-behaved client, so backpressure
    slows it down rather than failing it.  Transport-level surprises are
    counted in ``client_errors`` instead of raised: the chaos acceptance
    criterion is *zero* of them.

    Args:
        host: Server address.
        port: Server port.
        schedule: Experiment ids in request order (see
            :func:`build_schedule`).
        deadline_ms: Optional per-request end-to-end budget.
        chaos: Optional
            :class:`~repro.experiments.chaos.ServiceChaosConfig`; its
            ``decide_disconnect`` picks requests to abandon mid-flight.
        timeout: Client socket timeout.
        retry_sleep: Base sleep between backpressure retries.
        max_retries: Backpressure retries per request before giving up
            (counted as a client error).
    """
    report = LoadReport()
    client = ServiceClient(host, port, timeout=timeout)
    try:
        for index, experiment_id in enumerate(schedule):
            if chaos is not None and chaos.decide_disconnect(index):
                # Abandon the request: send, close, never read.  A
                # separate throwaway connection so the main one's
                # request/response pairing stays intact.
                ghost = ServiceClient(host, port, timeout=timeout)
                try:
                    ghost.send_only(
                        {"op": "run", "experiment_id": experiment_id}
                    )
                except (OSError, ServiceError):
                    pass
                finally:
                    ghost.close()
                report.disconnected += 1
                continue
            start = time.monotonic()
            response = _request_with_backoff(
                client,
                experiment_id,
                deadline_ms,
                f"lg-{index}",
                retry_sleep,
                max_retries,
                report,
            )
            if response is None:
                continue
            elapsed_ms = (time.monotonic() - start) * 1000.0
            report.record(response, elapsed_ms)
    finally:
        client.close()
    return report


def _request_with_backoff(
    client: ServiceClient,
    experiment_id: str,
    deadline_ms: Optional[float],
    request_id: str,
    retry_sleep: float,
    max_retries: int,
    report: LoadReport,
) -> Optional[Dict]:
    """One request, retrying through backpressure; None on client error."""
    for _ in range(max_retries + 1):
        try:
            response = client.request(
                experiment_id,
                deadline_ms=deadline_ms,
                request_id=request_id,
            )
        except (OSError, ServiceError):
            report.client_errors += 1
            client.close()
            return None
        status = response.get("status")
        if status not in ("rejected", "shed"):
            return response
        hint_ms = response.get("retry_after_ms")
        pause = retry_sleep
        if isinstance(hint_ms, (int, float)) and hint_ms > 0:
            pause = max(pause, hint_ms / 1000.0)
        time.sleep(pause)
    report.client_errors += 1
    return None
