"""Replacement-policy interface.

A replacement policy is a per-set state machine.  The cache informs it of
every access (hits *and* fills — this is the property the paper exploits:
LRU-family state is updated even on hits, so a sender can signal with
cache hits alone) and asks it for a victim way on a miss that requires a
replacement.

Policies are deliberately unaware of addresses; they see only way indices.
This keeps them bit-exact replicas of the hardware state machines they
model and makes them independently testable.  Table I runs on them
without a cache: its per-set loop drives a policy directly, compiled to
tables (``repro.replacement.tables``) where the 8-way state space closes.
"""

from __future__ import annotations

import abc
from typing import Any, List, Optional, Sequence

from repro.common.errors import ConfigurationError


class ReplacementPolicy(abc.ABC):
    """Per-set replacement state machine for an N-way cache set.

    Subclasses implement the three state transitions: ``touch`` (access to
    a way, hit or fill), ``victim`` (choose the way to evict), and
    ``invalidate`` (a way's line was removed without replacement).
    """

    #: Human-readable policy name used in experiment tables.
    name: str = "abstract"

    # Slots on the base let fully-slotted subclasses (the table-driven
    # fast path) avoid per-instance dicts; subclasses that declare no
    # ``__slots__`` of their own still get a ``__dict__`` as usual.
    __slots__ = ("ways",)

    def __init__(self, ways: int):
        if ways < 1:
            raise ConfigurationError(f"ways must be >= 1, got {ways}")
        self.ways = ways

    @abc.abstractmethod
    def touch(self, way: int) -> None:
        """Record an access (hit or fill) to ``way``, updating the state."""

    @abc.abstractmethod
    def victim(self, valid: Optional[Sequence[bool]] = None) -> int:
        """Return the way to evict next, without mutating the state.

        Args:
            valid: Optional per-way validity flags.  When given and some
                way is invalid, hardware fills invalid ways first; the
                policy must return the lowest-index invalid way in that
                case (matching real controllers).
        """

    def invalidate(self, way: int) -> None:
        """A line was removed from ``way`` (flush); default is no-op.

        Policies that track per-way recency may choose to age the way so
        it becomes the next victim; the default models hardware that
        leaves replacement state untouched on invalidation (the valid bit
        already forces the way to be refilled first).
        """

    def reset(self) -> None:
        """Return the state to its power-on value."""
        self.__init__(self.ways)  # subclasses store all state in __init__

    @abc.abstractmethod
    def state_snapshot(self) -> Any:
        """Return an immutable copy of the internal state (for tests)."""

    @abc.abstractmethod
    def state_restore(self, snapshot: Any) -> None:
        """Restore internal state from a snapshot."""

    @property
    @abc.abstractmethod
    def state_bits(self) -> int:
        """Number of hardware bits this policy needs per set."""

    def _first_invalid(self, valid: Optional[Sequence[bool]]) -> Optional[int]:
        """Shared helper: lowest invalid way index, or None if all valid."""
        if valid is None:
            return None
        if len(valid) != self.ways:
            raise ConfigurationError(
                f"valid mask has {len(valid)} entries for {self.ways}-way set"
            )
        for i, v in enumerate(valid):
            if not v:
                return i
        return None

    def __repr__(self) -> str:
        return f"{type(self).__name__}(ways={self.ways})"


def check_way(policy: ReplacementPolicy, way: int) -> None:
    """Validate a way index against a policy's associativity."""
    if not 0 <= way < policy.ways:
        raise ConfigurationError(
            f"way {way} out of range for {policy.ways}-way set"
        )


def access_sequence(policy: ReplacementPolicy, ways: List[int]) -> None:
    """Apply a sequence of way touches; convenience for tests/experiments."""
    for way in ways:
        policy.touch(way)
