"""Two-level cache hierarchy with main memory.

This is the memory system the simulated threads talk to.  It produces a
latency for every access according to where the access hit — the raw
signal every timing channel in the paper is built on — and maintains the
per-level performance counters used by Tables VI and VII.

The LRU channels target the L1D, matching the paper's focus: "L1 is
directly accessed by the processor pipeline and L1 LRU state is updated
on every memory access" (Section III).
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from repro.cache.cache import SetAssociativeCache
from repro.cache.config import HierarchyConfig
from repro.cache.prefetcher import StridePrefetcher
from repro.cache.way_predictor import WayPredictor
from repro.common.rng import RngLike, make_rng, spawn_rng
from repro.common.types import AccessOutcome, AccessType, CacheLevel, MemoryAccess
from repro.obs.instruments import for_hierarchy
from repro.obs.session import active as obs_active

#: Thread id under which prefetcher-initiated fills are accounted, so
#: they never contaminate a victim's or attacker's own counters.
PREFETCH_THREAD = -1


class CacheHierarchy:
    """L1 + L2 + memory, with optional prefetcher and way predictor.

    Args:
        config: Geometry and latencies for both levels.
        rng: Seed for stochastic policies at either level.
        l1_cache: Pre-built L1 (e.g. a :class:`PLCache`); defaults to a
            plain set-associative cache built from ``config.l1``.
        prefetcher: Optional stride prefetcher whose fills pollute L1
            LRU state (Appendix C noise model).
        invisible_speculation: InvisiSpec-style defense — accesses marked
            ``speculative`` produce correct latencies but make no state
            change anywhere in the hierarchy (Section IX-B).
        engine: ``"fast"`` (table-driven policies + tag maps, the
            default; see ``repro.sim.fastpath``) or ``"reference"``
            (the oracle implementation, bit-identical).  None consults
            the process-wide default (``REPRO_ENGINE``, set by the
            CLI's ``--engine``).  A pre-built ``l1_cache`` is used as
            given either way.
    """

    def __init__(
        self,
        config: HierarchyConfig = HierarchyConfig(),
        rng: RngLike = None,
        l1_cache: Optional[SetAssociativeCache] = None,
        prefetcher: Optional[StridePrefetcher] = None,
        invisible_speculation: bool = False,
        engine: Optional[str] = None,
    ):
        # Imported lazily: repro.sim.fastpath subclasses the cache layer,
        # so a top-level import here would be circular.
        from repro.sim.fastpath import (
            FastSetAssociativeCache,
            demand_paths,
            resolve_engine,
        )

        self.config = config
        self.engine = resolve_engine(engine)
        cache_cls = (
            FastSetAssociativeCache
            if self.engine == "fast"
            else SetAssociativeCache
        )
        base_rng = make_rng(rng)
        predictor = WayPredictor() if config.way_predictor else None
        self.l1 = l1_cache or cache_cls(
            config.l1, rng=spawn_rng(base_rng, "l1"), way_predictor=predictor
        )
        self.l2 = cache_cls(config.l2, rng=spawn_rng(base_rng, "l2"))
        self.llc: Optional[SetAssociativeCache] = None
        if config.llc is not None:
            self.llc = cache_cls(config.llc, rng=spawn_rng(base_rng, "llc"))
        self.prefetcher = prefetcher
        self.invisible_speculation = invisible_speculation
        # Shared immutable outcomes for the two results that carry no
        # eviction address: most accesses are L1 hits, so this saves an
        # allocation on each of them.
        self._l1_hit = AccessOutcome(
            hit_level=CacheLevel.L1, latency=config.l1.hit_latency
        )
        self._utag_miss = AccessOutcome(
            hit_level=CacheLevel.L1,
            latency=config.l2.hit_latency,
            was_way_predictor_miss=True,
        )
        # Observability handles, bound once at construction; None when no
        # session is active, so the access path pays one `is None` check.
        self._obs = for_hierarchy(obs_active(), config)
        # On plain fast caches, demand accesses run in place
        # (repro.sim.fastpath.demand_paths), and the schedulers' kernels
        # finish their L1 misses through the same ``_l1_miss``.  The
        # reference engine, the oracle, keeps ``_demand_access`` below.
        self._l1_miss = None
        if cache_cls is FastSetAssociativeCache:
            paths = demand_paths(self)
            if paths is not None:
                self._l1_miss, self._demand_access = paths

    # ------------------------------------------------------------------
    # The access path
    # ------------------------------------------------------------------

    def access(self, access: MemoryAccess, count: bool = True) -> AccessOutcome:
        """Send one access through the hierarchy and return its outcome."""
        if access.access_type == AccessType.FLUSH:
            return self._flush(access)
        if access.speculative and self.invisible_speculation:
            return self._invisible_access(access)

        outcome = self._demand_access(access, count=count)
        if self.prefetcher is not None and not access.speculative:
            self._run_prefetcher(access)
        return outcome

    def _demand_access(self, access: MemoryAccess, count: bool) -> AccessOutcome:
        obs = self._obs
        l1_result = self.l1.lookup(access, count=count)
        if l1_result.hit:
            if l1_result.way_predictor_miss:
                # Data was resident but the utag mispredicted: the load
                # replays through the slow path and observes ~L2 latency.
                if obs is not None:
                    obs.record_l1_hit(self.config.l2.hit_latency, count)
                return self._utag_miss
            if obs is not None:
                obs.record_l1_hit(self.config.l1.hit_latency, count)
            return self._l1_hit

        l2_result = self.l2.lookup(access, count=count)
        if l2_result.hit:
            fill = self.l1.fill(access)
            if obs is not None:
                obs.record_l2_hit(
                    self.config.l2.hit_latency, count, fill.evicted_address
                )
            return AccessOutcome(
                hit_level=CacheLevel.L2,
                latency=self.config.l2.hit_latency,
                evicted_address=fill.evicted_address,
            )

        if self.llc is not None:
            llc_result = self.llc.lookup(access, count=count)
            if llc_result.hit:
                l2_fill = self.l2.fill(access)
                fill = self.l1.fill(access)
                if obs is not None:
                    obs.record_llc_hit(
                        self.config.llc.hit_latency,
                        count,
                        fill.evicted_address,
                        l2_fill.evicted_address,
                    )
                return AccessOutcome(
                    hit_level=CacheLevel.LLC,
                    latency=self.config.llc.hit_latency,
                    evicted_address=fill.evicted_address,
                )
            llc_fill = self.llc.fill(access)
        else:
            llc_fill = None

        l2_fill = self.l2.fill(access)
        fill = self.l1.fill(access)
        if obs is not None:
            obs.record_memory_fetch(
                self.config.memory_latency,
                count,
                fill.evicted_address,
                l2_fill.evicted_address,
                None if llc_fill is None else llc_fill.evicted_address,
                had_llc=self.llc is not None,
            )
        return AccessOutcome(
            hit_level=CacheLevel.MEMORY,
            latency=self.config.memory_latency,
            evicted_address=fill.evicted_address,
        )

    def _invisible_access(self, access: MemoryAccess) -> AccessOutcome:
        """Latency-correct, state-free access for the InvisiSpec defense."""
        if self.l1.probe(access.address):
            level, latency = CacheLevel.L1, self.config.l1.hit_latency
        elif self.l2.probe(access.address):
            level, latency = CacheLevel.L2, self.config.l2.hit_latency
        elif self.llc is not None and self.llc.probe(access.address):
            level, latency = CacheLevel.LLC, self.config.llc.hit_latency
        else:
            level, latency = CacheLevel.MEMORY, self.config.memory_latency
        return AccessOutcome(hit_level=level, latency=latency)

    def _flush(self, access: MemoryAccess) -> AccessOutcome:
        """clflush semantics: invalidate in every level."""
        self.l1.flush(access.address)
        self.l2.flush(access.address)
        if self.llc is not None:
            self.llc.flush(access.address)
        if self._obs is not None:
            self._obs.record_flush()
        return AccessOutcome(
            hit_level=CacheLevel.MEMORY,
            latency=self.config.flush_latency,
        )

    def _run_prefetcher(self, access: MemoryAccess) -> None:
        """Train on the demand stream; insert predicted lines into L1/L2."""
        obs = self._obs
        targets = self.prefetcher.observe(access.thread_id, access.address)
        for target in targets:
            prefetch = MemoryAccess(
                address=target,
                thread_id=PREFETCH_THREAD,
                address_space=access.address_space,
            )
            # Prefetches that already hit in L1 still touch the LRU state
            # in real controllers only on demand hits, so skip them.
            if self.l1.probe(target):
                continue
            if self.llc is not None and not self.llc.probe(target):
                llc_fill = self.llc.fill(prefetch)
                if obs is not None:
                    obs.fill_llc(llc_fill.evicted_address)
            if not self.l2.probe(target):
                l2_fill = self.l2.fill(prefetch)
                if obs is not None:
                    obs.fill_l2(l2_fill.evicted_address)
            l1_fill = self.l1.fill(prefetch)
            if obs is not None:
                obs.fill_l1(l1_fill.evicted_address)

    # ------------------------------------------------------------------
    # Conveniences
    # ------------------------------------------------------------------

    def load(
        self,
        address: int,
        thread_id: int = 0,
        address_space: int = 0,
        count: bool = True,
        speculative: bool = False,
    ) -> AccessOutcome:
        """Shorthand for a plain load access."""
        return self.access(
            MemoryAccess(
                address=address,
                thread_id=thread_id,
                address_space=address_space,
                speculative=speculative,
            ),
            count=count,
        )

    def flush_address(self, address: int, thread_id: int = 0) -> AccessOutcome:
        """Shorthand for a clflush."""
        return self.access(
            MemoryAccess(
                address=address,
                access_type=AccessType.FLUSH,
                thread_id=thread_id,
            )
        )

    def warm(
        self, addresses: Iterable[int], thread_id: int = 0, address_space: int = 0
    ) -> None:
        """Pre-load addresses without perturbing performance counters."""
        for address in addresses:
            self.load(
                address,
                thread_id=thread_id,
                address_space=address_space,
                count=False,
            )

    def counters(self) -> List:
        """All counter banks, L1 outward (for MissRateReport rows)."""
        banks = [self.l1.counters, self.l2.counters]
        if self.llc is not None:
            banks.append(self.llc.counters)
        return banks

    def reset_counters(self) -> None:
        self.l1.reset_counters()
        self.l2.reset_counters()
        if self.llc is not None:
            self.llc.reset_counters()

    def latency_for_level(self, level: CacheLevel) -> float:
        """The configured latency of a hierarchy level."""
        if level == CacheLevel.L1:
            return self.config.l1.hit_latency
        if level == CacheLevel.L2:
            return self.config.l2.hit_latency
        if level == CacheLevel.LLC and self.llc is not None:
            return self.config.llc.hit_latency
        return self.config.memory_latency
