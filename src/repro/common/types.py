"""Core value types shared across the cache, timing, and channel layers.

The simulator moves :class:`MemoryAccess` records through a cache hierarchy
and produces :class:`AccessOutcome` records.  Keeping these as small frozen
records makes every layer easy to test in isolation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple, Optional

from repro.common.compat import DATACLASS_SLOTS


class AccessType(enum.Enum):
    """The kind of memory operation a thread performs."""

    LOAD = "load"
    STORE = "store"
    FLUSH = "flush"  # clflush-style invalidation down to memory

    def is_demand(self) -> bool:
        """Return True for accesses that bring data into the cache."""
        return self in (AccessType.LOAD, AccessType.STORE)


class CacheLevel(enum.IntEnum):
    """Where in the hierarchy an access was served.

    The integer values order the levels by distance from the core, which
    lets code compare levels directly (``hit_level <= CacheLevel.L1``).
    """

    L1 = 1
    L2 = 2
    LLC = 3
    MEMORY = 4


@dataclass(frozen=True, **DATACLASS_SLOTS)
class MemoryAccess:
    """A single memory operation issued by a simulated thread.

    Attributes:
        address: Byte address of the access.  Line/set mapping is derived
            by the cache from its own geometry.
        access_type: Load, store, or flush.
        thread_id: Identifier of the issuing thread; used for per-thread
            performance counters and for way-predictor utag modeling.
        address_space: Identifier of the virtual address space the access
            was issued from.  Two threads in the same process share an
            address space; separate processes do not.  The AMD way
            predictor keys its utag on (address_space, virtual address).
        locked: For PL-cache experiments, whether this access carries a
            lock request for the touched line.
        unlock: Whether this access carries an unlock request.
        speculative: True for accesses issued under speculation (Spectre
            modeling).  Defense models may treat these differently.
    """

    address: int
    access_type: AccessType = AccessType.LOAD
    thread_id: int = 0
    address_space: int = 0
    locked: bool = False
    unlock: bool = False
    speculative: bool = False

    def __post_init__(self) -> None:
        if self.address < 0:
            raise ValueError(f"address must be non-negative, got {self.address}")


class AccessOutcome(NamedTuple):
    """The result of pushing one :class:`MemoryAccess` through a hierarchy.

    A named tuple: immutable, and cheaper to build than a frozen
    dataclass, which matters because every L1 miss builds one.

    Outcomes carry no reference to their access, so a hierarchy can
    hand out one shared instance for every outcome without an eviction
    address (see :meth:`repro.cache.hierarchy.CacheHierarchy.access`).

    Attributes:
        hit_level: The level that served the data (``MEMORY`` for a full
            miss).  Flushes report the deepest level they had to touch.
        latency: Cycles the access took, according to the hierarchy's
            latency table (before any timer noise is applied).
        evicted_address: Address of the line evicted from L1 by this
            access, if any.  Channels use this for white-box assertions in
            tests; attackers in the simulation never read it.
        was_way_predictor_miss: AMD model only — the physical address hit
            but the utag mismatched, so the observed latency is a miss
            latency even though the data was present.
    """

    hit_level: CacheLevel
    latency: float
    evicted_address: Optional[int] = None
    was_way_predictor_miss: bool = False

    @property
    def l1_hit(self) -> bool:
        """True when the access was served by L1 at L1-hit latency."""
        return self.hit_level == CacheLevel.L1 and not self.was_way_predictor_miss


@dataclass
class LineAddress:
    """Decomposition of a byte address for a particular cache geometry.

    Attributes:
        tag: High-order bits identifying the line within its set.
        set_index: Which cache set the address maps to.
        offset: Byte offset inside the line (unused by the simulator but
            kept for completeness and tests).
    """

    tag: int
    set_index: int
    offset: int = 0

    def recompose(self, num_sets: int, line_size: int) -> int:
        """Rebuild the byte address from the decomposition."""
        return (self.tag * num_sets + self.set_index) * line_size + self.offset


@dataclass
class Observation:
    """One timed measurement taken by a channel receiver.

    Attributes:
        sequence: Index of this observation in the receiver's trace.
        latency: Observed (noisy, quantized) latency in cycles.
        timestamp: Simulated global cycle at which the measurement ended.
        decoded_bit: The bit the receiver inferred, if decoding was done
            inline; None when decoding happens in post-processing.
    """

    sequence: int
    latency: float
    timestamp: int = 0
    decoded_bit: Optional[int] = None
