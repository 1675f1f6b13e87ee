"""Bit-PLRU / MRU replacement (Malamy et al.; paper Section II-B).

One MRU bit per way.  An access sets the way's bit; when that sets the
last zero bit, every bit is cleared, the just-accessed way's too (paper
Section II-B), so that way can be the next victim.  The victim is the
lowest-index way whose MRU bit is 0.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.replacement.base import ReplacementPolicy, check_way


class BitPLRU(ReplacementPolicy):
    """MRU-bit pseudo-LRU: N bits of state for an N-way set."""

    name = "Bit-PLRU"

    def __init__(self, ways: int):
        super().__init__(ways)
        self._mru = [0] * ways

    def touch(self, way: int) -> None:
        check_way(self, way)
        self._mru[way] = 1
        if all(self._mru):
            # Saturation: "once all the ways have the MRU-bit set to 1,
            # all the MRU-bits are reset to 0" (paper Section II-B).
            # Note the just-accessed way is reset too — this exact
            # semantic is what makes Table I's Bit-PLRU column converge
            # to 100%/99% eviction after >= 8 loop iterations.
            self._mru = [0] * self.ways

    def victim(self, valid: Optional[Sequence[bool]] = None) -> int:
        invalid = self._first_invalid(valid)
        if invalid is not None:
            return invalid
        for way, bit in enumerate(self._mru):
            if bit == 0:
                return way
        # Unreachable given touch() never leaves all bits set, but a
        # freshly-restored snapshot could: fall back to way 0.
        return 0

    def mru_bit(self, way: int) -> int:
        """Expose a way's MRU bit for tests."""
        check_way(self, way)
        return self._mru[way]

    def state_snapshot(self) -> Tuple[int, ...]:
        return tuple(self._mru)

    def state_restore(self, snapshot: Tuple[int, ...]) -> None:
        if len(snapshot) != self.ways or any(b not in (0, 1) for b in snapshot):
            raise ValueError(f"invalid Bit-PLRU snapshot {snapshot!r}")
        self._mru = list(snapshot)

    @property
    def state_bits(self) -> int:
        return self.ways
