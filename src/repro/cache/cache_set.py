"""One cache set: N ways of line metadata plus a replacement policy.

The set is the unit at which the LRU channel operates — the paper's
"target set".  It exposes exactly the operations a cache controller
performs: lookup, replacement-state update, victim selection, fill, and
invalidation.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.common.errors import SimulationError
from repro.cache.line import CacheLine
from repro.replacement.base import ReplacementPolicy


class CacheSet:
    """N-way set with pluggable replacement policy.

    Args:
        ways: Associativity.
        policy: Replacement policy instance owned by this set.
    """

    # The runtime sanitizer checks installs by swapping a sanitized set's
    # class for a subclass overriding :meth:`install`
    # (``repro.analysis.proxies``), so subclasses add no state there.
    __slots__ = ("ways", "policy", "lines")

    def __init__(self, ways: int, policy: ReplacementPolicy):
        if policy.ways != ways:
            raise SimulationError(
                f"policy sized for {policy.ways} ways used in {ways}-way set"
            )
        self.ways = ways
        self.policy = policy
        self.lines: List[CacheLine] = [CacheLine() for _ in range(ways)]

    def lookup(self, tag: int) -> Optional[int]:
        """Return the way holding ``tag``, or None on a miss."""
        for way, line in enumerate(self.lines):
            if line.matches(tag):
                return way
        return None

    def valid_mask(self) -> List[bool]:
        return [line.valid for line in self.lines]

    def touch(self, way: int, is_fill: bool = False) -> None:
        """Update replacement state for an access to ``way``.

        Policies that distinguish fills from hits (FIFO, SRRIP) expose an
        ``on_fill`` method; LRU-family policies treat both identically —
        which is the root cause of the paper's channel.
        """
        on_fill = getattr(self.policy, "on_fill", None)
        if is_fill and on_fill is not None:
            on_fill(way)
        else:
            self.policy.touch(way)

    def choose_victim(self, domain: Optional[int] = None) -> int:
        """Pick the way to replace, honouring invalid-way-first fill."""
        victim_for = getattr(self.policy, "victim_for", None)
        if domain is not None and victim_for is not None:
            return victim_for(domain, self.valid_mask())
        return self.policy.victim(self.valid_mask())

    def install(
        self, way: int, tag: int, address: int, dirty: bool = False
    ) -> Optional[int]:
        """Place a new line into ``way``; return the evicted address.

        Does *not* update replacement state — the controller decides
        whether a fill updates state (see :meth:`touch`).
        """
        line = self.lines[way]
        evicted = line.address if line.valid else None
        line.tag = tag
        line.valid = True
        line.dirty = dirty
        line.locked = False
        line.utag = None
        line.address = address
        return evicted

    def invalidate_tag(self, tag: int) -> Optional[int]:
        """Flush the line with ``tag`` if present; return its way."""
        way = self.lookup(tag)
        if way is None:
            return None
        self.lines[way].invalidate()
        self.policy.invalidate(way)
        return way

    def resident_addresses(self) -> List[int]:
        """Addresses currently held by the set (test introspection)."""
        return [line.address for line in self.lines if line.valid]

    def locked_ways(self) -> List[int]:
        return [w for w, line in enumerate(self.lines) if line.valid and line.locked]

    def snapshot(self) -> Tuple:
        """Immutable snapshot of (resident tags, policy state) for tests."""
        tags = tuple(
            (line.tag if line.valid else None) for line in self.lines
        )
        return (tags, self.policy.state_snapshot())
