"""End-to-end deadlines: one absolute time budget shared by every layer.

Per-attempt timeouts compose badly: a request that allows 3 attempts of
10 s each can legally take 30 s even though the caller needed an answer
in 15.  A :class:`Deadline` is the absolute form of the budget — "this
work is worthless after T" — created once at the edge (a service
request, a CLI invocation) and *propagated* down through the router's
failover attempts, the experiment runner's per-experiment budget
(:meth:`~repro.experiments.runner.ExperimentRunner.run_many`), and
across process boundaries to supervised workers.  Each layer shrinks its own
timeout to what remains instead of stacking budgets.

Deadlines are measured on ``time.monotonic`` (never wall-clock: the
clock is injectable for tests, and host wall-clock must not leak into
simulated results — see the ``no-wallclock`` lint rule).  Crossing a
process boundary serializes the *remaining* budget, not the absolute
timestamp, because monotonic clocks are not comparable between
processes.
"""

from __future__ import annotations

import time
from typing import Callable, Optional


class Deadline:
    """An absolute point on a monotonic clock after which work is void.

    Args:
        expires_at: Absolute expiry on ``clock``'s timeline.
        clock: Monotonic time source (injectable for tests).
    """

    __slots__ = ("expires_at", "clock")

    def __init__(
        self,
        expires_at: float,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.expires_at = float(expires_at)
        self.clock = clock

    @classmethod
    def after(
        cls,
        seconds: float,
        clock: Callable[[], float] = time.monotonic,
    ) -> "Deadline":
        """A deadline ``seconds`` from now; must be a finite budget."""
        if seconds < 0:
            raise ValueError(f"deadline budget must be >= 0, got {seconds}")
        return cls(clock() + seconds, clock=clock)

    def remaining(self) -> float:
        """Seconds left, clamped at 0.0 once expired."""
        return max(0.0, self.expires_at - self.clock())

    @property
    def expired(self) -> bool:
        return self.clock() >= self.expires_at

    def bound(self, timeout: Optional[float]) -> float:
        """Shrink a per-attempt timeout to what the deadline allows.

        ``None`` (no per-attempt timeout) becomes the remaining budget —
        a deadline always implies *some* bound; a finite timeout is
        capped at the remaining budget.
        """
        remaining = self.remaining()
        if timeout is None:
            return remaining
        return min(timeout, remaining)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Deadline(remaining={self.remaining():.3f}s)"


def deadline_from_ms(
    budget_ms: Optional[float],
    clock: Callable[[], float] = time.monotonic,
) -> Optional[Deadline]:
    """Build a deadline from a millisecond budget (wire format), or None.

    The service protocol carries budgets in integer milliseconds
    (``deadline_ms``); workers receiving a serialized remaining budget
    rebuild the deadline on their own monotonic clock.
    """
    if budget_ms is None:
        return None
    if budget_ms < 0:
        raise ValueError(f"deadline_ms must be >= 0, got {budget_ms}")
    return Deadline.after(budget_ms / 1000.0, clock=clock)
