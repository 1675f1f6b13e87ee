"""Circuit breaker: fail fast around a dependency that is failing slow.

The experiment service wraps every worker pool in one of these.  Without
it, a crash-looping pool makes each request ride the full
timeout + retry + quarantine path before failing — under load that turns
one broken pool into a convoy of slow errors.  With it, the pool's
recent history is consulted *before* any work is queued: a pool that has
failed ``failure_threshold`` times in a row is declared **open** and
requests are refused immediately (the service answers an error typed
``CircuitOpen``, which a cluster router fails over on), shedding in
microseconds instead of timing out in seconds.

States (the classic three):

* **closed** — healthy; calls flow through, consecutive failures are
  counted, and ``failure_threshold`` of them in a row trips the breaker;
* **open** — failing; every ``allow()`` is refused until a recovery
  probe comes due.  The probe delay is ``reset_timeout`` stretched by a
  *seeded* jitter draw, so many breakers tripped by the same outage do
  not all probe (and potentially re-crash their pools) in lockstep —
  the same decorrelation argument as
  :func:`repro.common.retry.full_jitter`, and just as reproducible;
* **half-open** — probing; exactly one call is let through.  Success
  closes the breaker, failure re-opens it (with a fresh jittered probe
  delay).

The clock is injectable (monotonic by default) so state transitions are
unit-testable without sleeping, and every transition can be observed via
``on_transition`` — the service mirrors it into the
``service.breaker.state`` gauge.
"""

from __future__ import annotations

import time
from typing import Callable, Optional

from repro.common.rng import RngLike, make_rng

#: The three breaker states, as wire-friendly strings.
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


class CircuitBreaker:
    """Consecutive-failure circuit breaker with seeded probe jitter.

    Args:
        failure_threshold: Consecutive failures (with no intervening
            success) that trip a closed breaker open.
        reset_timeout: Base delay before an open breaker allows a
            recovery probe, in seconds.
        probe_jitter: Fraction of ``reset_timeout`` by which the probe
            delay is randomly stretched — the delay is drawn uniformly
            from ``[reset_timeout, reset_timeout * (1 + probe_jitter)]``
            using a seeded RNG, so probes decorrelate across breakers
            while staying reproducible.
        jitter: Seed (or RNG) for the probe-jitter draws.
        clock: Monotonic time source (injectable for tests).
        name: Label for diagnostics and the state gauge.
        on_transition: Optional callback ``(breaker, old_state,
            new_state)`` fired on every state change.
    """

    def __init__(
        self,
        failure_threshold: int = 3,
        reset_timeout: float = 5.0,
        probe_jitter: float = 0.5,
        jitter: RngLike = 0,
        clock: Callable[[], float] = time.monotonic,
        name: str = "",
        on_transition: Optional[Callable] = None,
    ):
        if failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        if reset_timeout <= 0:
            raise ValueError(
                f"reset_timeout must be > 0, got {reset_timeout}"
            )
        if probe_jitter < 0:
            raise ValueError(
                f"probe_jitter must be >= 0, got {probe_jitter}"
            )
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self.probe_jitter = probe_jitter
        self.name = name
        self.clock = clock
        self.on_transition = on_transition
        self._rng = make_rng(jitter)
        self._state = CLOSED
        self._consecutive_failures = 0
        self._probe_at: Optional[float] = None
        self._probe_inflight = False
        #: Total times the breaker tripped open (diagnostics).
        self.times_opened = 0

    # -- state ----------------------------------------------------------

    @property
    def state(self) -> str:
        """Current state; reading it performs the open→half-open check."""
        if self._state == OPEN and self.clock() >= self._probe_at:
            self._transition(HALF_OPEN)
        return self._state

    def _transition(self, new_state: str) -> None:
        old_state = self._state
        if old_state == new_state:
            return
        self._state = new_state
        if new_state == HALF_OPEN:
            self._probe_inflight = False
        if self.on_transition is not None:
            self.on_transition(self, old_state, new_state)

    def _schedule_probe(self) -> None:
        delay = self.reset_timeout * (
            1.0 + self.probe_jitter * self._rng.random()
        )
        self._probe_at = self.clock() + delay

    # -- the caller-facing protocol -------------------------------------

    def allow(self) -> bool:
        """May one call proceed right now?

        Closed: always.  Open: no, until the probe timer fires (at which
        point the breaker turns half-open).  Half-open: exactly one call
        — the probe — is allowed; further calls are refused until the
        probe reports via :meth:`record_success` /
        :meth:`record_failure` (or is abandoned via
        :meth:`abandon_probe`).
        """
        state = self.state  # performs the open -> half-open check
        if state == CLOSED:
            return True
        if state == HALF_OPEN and not self._probe_inflight:
            self._probe_inflight = True
            return True
        return False

    def record_success(self) -> None:
        """A call finished cleanly: half-open closes, failures reset."""
        self._consecutive_failures = 0
        self._probe_inflight = False
        if self._state in (HALF_OPEN, OPEN):
            # OPEN here means a pre-trip call straggled in with a good
            # result; treat it as evidence of recovery either way.
            self._transition(CLOSED)

    def record_failure(self) -> None:
        """A call failed: count it, trip or re-open as the state demands."""
        self._consecutive_failures += 1
        self._probe_inflight = False
        if self._state == HALF_OPEN:
            # The probe failed: back to open with a fresh jittered delay.
            self._schedule_probe()
            self.times_opened += 1
            self._transition(OPEN)
        elif (
            self._state == CLOSED
            and self._consecutive_failures >= self.failure_threshold
        ):
            self._schedule_probe()
            self.times_opened += 1
            self._transition(OPEN)

    def abandon_probe(self) -> None:
        """Release a half-open probe slot that never ran.

        The service takes a probe slot with :meth:`allow` *before*
        enqueueing; if the queue is full and the call is shed, the slot
        must be returned or the breaker would wait forever for a probe
        verdict that is never coming.
        """
        self._probe_inflight = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = f" {self.name!r}" if self.name else ""
        return (
            f"CircuitBreaker({label} state={self.state}"
            f" failures={self._consecutive_failures})"
        )
