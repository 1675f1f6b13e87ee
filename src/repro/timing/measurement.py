"""Latency-measurement primitives: single-access rdtscp and pointer chasing.

The paper's receiver needs to see the 4-vs-12-cycle difference between an
L1 hit and an L1 miss.  Appendix A shows a bare ``rdtscp`` measurement
(Figure 12's code) cannot do this; Section IV-D's pointer-chasing data
structure can:

* seven list elements live in the receiver's own memory, **all mapping to
  one dedicated cache set** so they never pollute the target set;
* the 8th element is the target address;
* the loads are address-dependent, so the total time is the true sum of
  the eight latencies, cleanly exposing the target's hit/miss delta.
"""

from __future__ import annotations

from typing import List, Optional

from repro.cache.hierarchy import CacheHierarchy
from repro.common.errors import ConfigurationError
from repro.timing.tsc import TimestampCounter


def observed_chase_latency(
    tsc: TimestampCounter, total_latency: float, chain_length: int
) -> float:
    """Observed value of a pointer-chase traversal of ``chain_length``+1 loads.

    Short chains (below the paper's 7 elements) let the timer
    serialization re-absorb part of the work (footnote 3's "noise by
    lfence"); at length >= 7 the chain fully exposes the true latency sum.
    """
    shadow_fraction = max(0.0, 1.0 - chain_length / 7.0)
    hidden = shadow_fraction * tsc.spec.serialization_shadow
    exposed = max(0.0, total_latency - hidden)
    return tsc.measure(exposed, serialized=True)


def batch_observed_latency(
    probe_hit,
    hit_latency: float,
    miss_latency: float,
    spec,
    noise_keys,
    draw_index: int,
    chain_length: int = 7,
):
    """Vectorized pointer-chase probe measurement for a batch of trials.

    One trial's reading is exactly what the scalar path produces for a
    primed chain: ``chain_length`` L1 hits plus the probe (L1 hit or
    ``miss_latency``), run through :func:`observed_chase_latency` and
    :meth:`TimestampCounter.measure` — shadow subtraction, Gaussian
    timer overhead, floor quantization, clamp at zero.  The overhead
    draw comes from the trial's counter-based noise stream
    (:func:`repro.common.rng.stream_gauss`) at position ``draw_index``,
    so the value is a pure function of (trial key, draw index) and the
    batch and solo paths read identical noise.

    Args:
        probe_hit: Boolean ndarray, one entry per trial.
        hit_latency / miss_latency: Serving latencies for the probe's
            two outcomes (L1 hit vs. next-level hit).
        spec: :class:`~repro.timing.tsc.TSCSpec` noise parameters.
        noise_keys: Per-trial stream keys (``uint64`` ndarray).
        draw_index: Stream position; advance it once per probe.
        chain_length: Pointer-chase chain length (7 fully exposes the
            latency sum; shorter chains re-enter the timer shadow).
    """
    import numpy as np  # deferred: scalar callers never pay the import

    from repro.common.rng import stream_gauss

    total = chain_length * hit_latency + np.where(
        probe_hit, hit_latency, miss_latency
    )
    shadow_fraction = max(0.0, 1.0 - chain_length / 7.0)
    exposed = np.maximum(0.0, total - shadow_fraction * spec.serialization_shadow)
    overhead = stream_gauss(
        noise_keys, draw_index, spec.overhead_mean, spec.overhead_jitter
    )
    granularity = spec.granularity
    reading = np.floor((exposed + overhead) / granularity) * granularity
    return np.maximum(0.0, reading)


def rdtscp_measure(
    hierarchy: CacheHierarchy,
    tsc: TimestampCounter,
    address: int,
    thread_id: int = 0,
    address_space: int = 0,
    count: bool = False,
) -> float:
    """Measure one load with rdtscp, as in the paper's Figure 12.

    Returns the *observed* duration — which, per Appendix A, does not
    separate L1 hits from L2 hits because the load hides behind the
    timer's serialization (``serialized=False``).
    """
    outcome = hierarchy.load(
        address, thread_id=thread_id, address_space=address_space, count=count
    )
    return tsc.measure(outcome.latency, serialized=False)


class PointerChase:
    """The paper's pointer-chasing measurement structure (Section IV-D).

    Args:
        hierarchy: The memory system to measure against.
        tsc: Timer model producing observed values.
        chain_set: Cache-set index that hosts the local chain elements.
            Must differ from every target set the receiver measures
            (the paper's "any other set can be used as the target set").
        chain_length: Number of local elements before the target; the
            paper uses 7 and footnote 3 explains the trade-off, which
            :meth:`measure` models (short chains partially hide behind
            the timer serialization again).
        thread_id / address_space: Identity of the measuring thread.
    """

    def __init__(
        self,
        hierarchy: CacheHierarchy,
        tsc: TimestampCounter,
        chain_set: int = 0,
        chain_length: int = 7,
        thread_id: int = 0,
        address_space: int = 0,
    ):
        if chain_length < 1:
            raise ConfigurationError(
                f"chain_length must be >= 1, got {chain_length}"
            )
        l1 = hierarchy.config.l1
        if chain_length > l1.ways:
            raise ConfigurationError(
                f"chain of {chain_length} cannot stay resident in a "
                f"{l1.ways}-way set"
            )
        if not 0 <= chain_set < l1.num_sets:
            raise ConfigurationError(f"chain_set {chain_set} out of range")
        self.hierarchy = hierarchy
        self.tsc = tsc
        self.chain_set = chain_set
        self.chain_length = chain_length
        self.thread_id = thread_id
        self.address_space = address_space
        self.chain_addresses: List[int] = self._build_chain(l1)

    def _build_chain(self, l1) -> List[int]:
        """Distinct line addresses that all map to ``chain_set``.

        Tags are spaced irregularly (gaps 1, 2, 3, ...) so that walking
        the chain never presents a constant stride to the hardware
        prefetcher — a linked list in practice is similarly scattered.
        """
        set_stride = l1.num_sets * l1.line_size
        base = self.chain_set * l1.line_size
        # High tag offset keeps chain lines disjoint from channel lines.
        chain_base = base + (1 << 30)
        addresses = []
        offset = 0
        for i in range(self.chain_length):
            addresses.append(chain_base + offset * set_stride)
            offset += i + 1
        return addresses

    def prime_chain(self) -> None:
        """Fetch the local elements into L1 before measuring."""
        for address in self.chain_addresses:
            self.hierarchy.load(
                address,
                thread_id=self.thread_id,
                address_space=self.address_space,
                count=False,
            )

    def measure(self, target_address: int, count: bool = False) -> float:
        """Timed traversal: chain elements then the target address.

        Returns the observed total duration.  When the chain is primed,
        the total is ``chain_length * L1_hit + target_latency`` plus
        timer overhead; the target's hit/miss difference survives intact
        because the chain serializes execution.

        Short chains (below the paper's 7) re-expose part of the timer
        serialization shadow, degrading separability
        (``tests/test_timing/test_measurement.py`` compares 1 and 7).
        """
        total = 0.0
        for address in self.chain_addresses:
            outcome = self.hierarchy.load(
                address,
                thread_id=self.thread_id,
                address_space=self.address_space,
                count=count,
            )
            total += outcome.latency
        target_outcome = self.hierarchy.load(
            target_address,
            thread_id=self.thread_id,
            address_space=self.address_space,
            count=count,
        )
        total += target_outcome.latency
        return observed_chase_latency(self.tsc, total, self.chain_length)

    def expected_all_hit_latency(self) -> float:
        """True (pre-noise) cost when every element including target hits."""
        return (self.chain_length + 1) * self.hierarchy.config.l1.hit_latency

    def hit_miss_threshold(self) -> float:
        """Decision threshold between target-hit and target-miss readings.

        Placed midway between the expected all-hit total and the total
        with an L2-latency target, plus the timer's mean overhead — the
        red dotted line in the paper's trace figures.
        """
        hit_total = self.expected_all_hit_latency()
        miss_total = (
            self.chain_length * self.hierarchy.config.l1.hit_latency
            + self.hierarchy.config.l2.hit_latency
        )
        midpoint = (hit_total + miss_total) / 2.0
        return midpoint + self.tsc.spec.overhead_mean
