"""Fast-path simulation engine: table-driven sets, cached geometry.

The reference engine (``repro.cache``) executes each replacement policy
as a Python state machine and rediscovers the cache geometry (log2 of
line size and set count) on every access.  This module keeps the exact
control flow but removes the interpretive overhead:

* replacement policies become :class:`~repro.replacement.tables.TabledPolicy`
  instances — one interned int of state per set, transitions by table
  lookup (see ``repro.replacement.tables``);
* ``CacheSet.lookup``'s linear tag scan becomes a dict probe
  (:class:`FastCacheSet` maintains a tag -> way map across installs and
  invalidations);
* address decomposition uses shift/mask constants computed once at
  construction instead of per-access ``log2`` properties;
* a hierarchy of plain fast caches finishes each demand access in place
  (:func:`demand_paths`): no ``lookup``/``fill`` calls, no
  ``LookupResult``/``FillResult``, and one miss routine shared with the
  schedulers' kernels.

Policies that cannot be table-compiled (``random`` draws from an RNG
stream, ``partitioned-plru`` is domain-aware) silently fall back to
their reference implementations — still inside a :class:`FastCacheSet`,
so the tag-map speedup applies regardless.

Engine selection: :class:`~repro.sim.machine.Machine`,
:class:`~repro.cache.hierarchy.CacheHierarchy` and the CLI accept
``engine="fast" | "reference"``.  ``fast`` is the default; the
process-wide choice lives in the ``REPRO_ENGINE`` environment variable
so it propagates to ``multiprocessing`` workers under both fork and
spawn start methods.  The reference engine stays the oracle:
``tests/test_perf`` drives both engines over identical traces and
requires bit-identical behaviour, so the engine is provenance, never
part of a result's identity.  Multi-trial entry points
(:meth:`~repro.experiments.runner.ExperimentRunner.run_trials`, the
CLI's ``run --trials N``, the service's multi-trial ``run`` op) run on
the lockstep batch engine (:mod:`repro.sim.batch`) whichever engine
is selected.
"""

from __future__ import annotations

import os
from typing import Dict, Optional

from repro.cache.cache import FillResult, LookupResult, SetAssociativeCache
from repro.cache.cache_set import CacheSet
from repro.cache.config import CacheConfig
from repro.common.errors import ConfigurationError
from repro.common.rng import RngLike
from repro.common.types import (
    AccessOutcome,
    AccessType,
    CacheLevel,
    MemoryAccess,
)
from repro.replacement.tables import TABLEABLE_POLICIES, TabledPolicy

#: Engine names: the oracle, then the default.
ENGINES = ("reference", "fast")

#: Environment variable holding the process-wide default engine.
ENGINE_ENV = "REPRO_ENGINE"


def _checked(engine: str, source: str = "engine") -> str:
    if engine not in ENGINES:
        raise ConfigurationError(
            f"unknown {source} {engine!r}; choose from {ENGINES}"
        )
    return engine


def default_engine() -> str:
    """The process-wide default engine: ``REPRO_ENGINE``, else ``fast``.

    Raises :class:`~repro.common.errors.ConfigurationError` when
    ``REPRO_ENGINE`` names no engine, so a typo fails up front rather
    than inside every machine built later.
    """
    return _checked(os.environ.get(ENGINE_ENV, "fast"), ENGINE_ENV)


def set_default_engine(engine: Optional[str]) -> None:
    """Set (or, with None, clear) the process-wide default engine.

    Stored in the environment rather than a module global so pool
    workers inherit it under both fork and spawn start methods.
    """
    if engine is None:
        os.environ.pop(ENGINE_ENV, None)
    else:
        os.environ[ENGINE_ENV] = _checked(engine)


def resolve_engine(engine: Optional[str]) -> str:
    """Resolve an explicit engine choice or fall back to the default."""
    return default_engine() if engine is None else _checked(engine)


class FastCacheSet(CacheSet):
    """Cache set with an O(1) tag -> way map instead of a linear scan.

    The map is maintained by the install/invalidate mutations, which are
    the only operations that change tag residency.  Behaviour is
    bit-identical to :class:`~repro.cache.cache_set.CacheSet`: resident
    tags are unique (enforced by the cache control flow and checked by
    the sanitizer), so the map and the scan agree on every lookup.
    """

    __slots__ = ("_tag_map",)

    def __init__(self, ways: int, policy):
        super().__init__(ways, policy)
        self._tag_map: Dict[int, int] = {}

    def lookup(self, tag: int) -> Optional[int]:
        return self._tag_map.get(tag)

    def install(
        self, way: int, tag: int, address: int, dirty: bool = False
    ) -> Optional[int]:
        # Body of CacheSet.install inlined (fills are the second
        # hottest operation), plus the map maintenance.
        tag_map = self._tag_map
        line = self.lines[way]
        if line.valid:
            evicted = line.address
            if tag_map.get(line.tag) == way:
                del tag_map[line.tag]
        else:
            evicted = None
        line.tag = tag
        line.valid = True
        line.dirty = dirty
        line.locked = False
        line.utag = None
        line.address = address
        tag_map[tag] = way
        return evicted

    def invalidate_tag(self, tag: int) -> Optional[int]:
        way = self._tag_map.pop(tag, None)
        if way is None:
            return None
        self.lines[way].invalidate()
        self.policy.invalidate(way)
        return way


class FastSetAssociativeCache(SetAssociativeCache):
    """Set-associative cache using tabled policies and cached geometry.

    Drop-in subclass of :class:`~repro.cache.cache.SetAssociativeCache`;
    only construction hooks and the address/lookup hot path differ.
    When the way predictor is active or a subclass overrides a hit-path
    hook, ``lookup`` defers to the reference control flow so the hooks
    keep their exact semantics.
    """

    def __init__(
        self,
        config: CacheConfig,
        rng: RngLike = None,
        way_predictor=None,
        index_function=None,
    ):
        super().__init__(
            config,
            rng=rng,
            way_predictor=way_predictor,
            index_function=index_function,
        )
        self._offset_bits = config.offset_bits
        self._index_mask = config.num_sets - 1
        self._tag_shift = config.offset_bits + config.index_bits
        self._line_mask = ~(config.line_size - 1)
        self._update_on_hit = config.update_lru_on_hit
        # Preallocated results: lookups are pure reads of these, so one
        # immutable instance per outcome avoids 10^6s of allocations.
        self._miss_result = LookupResult(hit=False)
        self._hit_results = [
            LookupResult(hit=True, way=way) for way in range(config.ways)
        ]
        # CounterBank.record inlined on the hot path; the dicts are
        # stable (reset() clears them in place), so binding them once is
        # safe and saves a call per access.
        self._references = self.counters.references
        self._misses = self.counters.misses
        cls = type(self)
        no_lock_hook = (
            cls._apply_lock_request is SetAssociativeCache._apply_lock_request
        )
        self._plain_hit_path = (
            no_lock_hook
            and cls._update_hit_state is SetAssociativeCache._update_hit_state
            and cls._check_way_predictor
            is SetAssociativeCache._check_way_predictor
        )
        self._plain_fill_path = (
            no_lock_hook
            and cls._choose_victim is SetAssociativeCache._choose_victim
            and cls._update_fill_state
            is SetAssociativeCache._update_fill_state
            and cls._set_utag is SetAssociativeCache._set_utag
        )
        if self._index_fn is not None:
            # The inlined hot paths hard-code modulo indexing; a keyed
            # index function must flow through the reference control
            # flow (whose _locate consults it) or it would be silently
            # ignored under the fast engine.
            self._plain_hit_path = False
            self._plain_fill_path = False

    @staticmethod
    def _make_policy(config: CacheConfig, base_rng, index: int):
        if config.policy in TABLEABLE_POLICIES:
            # Every set shares one compiled table object; per-set state
            # is just the interned index inside the TabledPolicy.
            return TabledPolicy(config.ways, base=config.policy)
        return SetAssociativeCache._make_policy(config, base_rng, index)

    @staticmethod
    def _make_set(ways: int, policy) -> CacheSet:
        return FastCacheSet(ways, policy)

    def _locate(self, address: int):
        fn = self._index_fn
        if fn is not None:
            return self.sets[fn.index(address)], address >> self._offset_bits
        return (
            self.sets[(address >> self._offset_bits) & self._index_mask],
            address >> self._tag_shift,
        )

    def lookup(self, access: MemoryAccess, count: bool = True) -> LookupResult:
        if self.way_predictor is not None or not self._plain_hit_path:
            return super().lookup(access, count=count)
        address = access.address
        cache_set = self.sets[(address >> self._offset_bits) & self._index_mask]
        way = cache_set._tag_map.get(address >> self._tag_shift)
        if way is None:
            if count:
                self._references[access.thread_id] += 1
                self._misses[access.thread_id] += 1
            return self._miss_result
        if self._update_on_hit:
            # Same transition as CacheSet.touch(way, is_fill=False),
            # without re-resolving the optional on_fill attribute.
            cache_set.policy.touch(way)
        if count:
            self._references[access.thread_id] += 1
        return self._hit_results[way]

    def fill(self, access: MemoryAccess) -> FillResult:
        if self.way_predictor is not None or not self._plain_fill_path:
            return super().fill(access)
        address = access.address
        return FillResult(
            evicted_address=_fill(
                self.sets[(address >> self._offset_bits) & self._index_mask],
                address >> self._tag_shift,
                address & self._line_mask,
                access.access_type is AccessType.STORE,
            )
        )

    def probe(self, address: int) -> bool:
        if self._index_fn is not None:
            cache_set, tag = self._locate(address)
            return cache_set.lookup(tag) is not None
        cache_set = self.sets[(address >> self._offset_bits) & self._index_mask]
        return cache_set.lookup(address >> self._tag_shift) is not None


def _fill(cache_set: FastCacheSet, tag: int, address: int, dirty: bool):
    """Bring a line into a plain fast set after a miss.

    ``SetAssociativeCache.fill``'s victim choice, install and fill
    transition, exactly; returns the evicted line address (None when
    the set had a free way).
    """
    if len(cache_set._tag_map) == cache_set.ways:
        # Set is full: ask the policy (valid-mask construction and the
        # invalid-way scan would both be wasted work).
        victim = cache_set.policy.victim(None)
    else:
        # Hardware fills the lowest-index invalid way first.
        victim = next(
            way for way, line in enumerate(cache_set.lines) if not line.valid
        )
    evicted = cache_set.install(victim, tag, address, dirty)
    # CacheSet.touch(victim, is_fill=True) with one less call frame.
    policy = cache_set.policy
    on_fill = getattr(policy, "on_fill", None)
    if on_fill is not None:
        on_fill(victim)
    else:
        policy.touch(victim)
    return evicted


def _plain(cache) -> bool:
    """Whether a level's lookups and fills can be done in place."""
    return getattr(cache, "_plain_hit_path", False) and cache._plain_fill_path


def demand_paths(hierarchy):
    """The fast engine's in-place demand path for ``hierarchy``, or None.

    Returns ``(finish_l1_miss, demand_access)`` when every level is a
    plain fast cache (the L1 may have a way predictor; no level has a
    keyed index function, a PL cache's lock hooks or any other hit or
    fill hook):

    * ``finish_l1_miss(l1_set, address, access_type, thread_id, space,
      utag, count)`` finishes an access whose L1 probe missed in
      ``l1_set``, the set the caller already resolved.  It counts the
      L1 miss, does the L2 (and LLC) lookup and the fills in
      ``CacheHierarchy._demand_access``'s order, reports the outcome to
      an observing session and returns the outcome that route returns,
      field for field.  ``utag`` is the way predictor's
      ``utag(space, address)``, stored with the L1 fill (None without
      a predictor).
    * ``demand_access(access, count)`` is ``_demand_access`` for one
      :class:`MemoryAccess`: the L1 probe and hit (the utag check
      included) in place, and every miss through ``finish_l1_miss``.

    Both schedulers' kernels call ``finish_l1_miss`` too, so this is
    the one copy of the fast engine's miss code.  Levels are bound
    once; sets' policies are read per access, so a sanitizer's policy
    and set wrappers see every transition and install.
    """
    l1, l2, llc = hierarchy.l1, hierarchy.l2, hierarchy.llc
    if not (_plain(l1) and _plain(l2) and (llc is None or _plain(llc))):
        return None
    config = hierarchy.config
    obs = hierarchy._obs
    predictor = l1.way_predictor
    utag_of = None if predictor is None else predictor.utag
    l1_sets, l1_offset, l1_index = l1.sets, l1._offset_bits, l1._index_mask
    l1_shift, l1_line = l1._tag_shift, l1._line_mask
    l1_update = l1._update_on_hit
    l1_references, l1_misses = l1._references, l1._misses
    l1_latency = config.l1.hit_latency
    l1_hit, utag_miss = hierarchy._l1_hit, hierarchy._utag_miss
    l2_sets, l2_offset, l2_index = l2.sets, l2._offset_bits, l2._index_mask
    l2_shift, l2_line = l2._tag_shift, l2._line_mask
    l2_update = l2._update_on_hit
    l2_references, l2_misses = l2._references, l2._misses
    l2_latency = config.l2.hit_latency
    if llc is not None:
        llc_sets, llc_offset = llc.sets, llc._offset_bits
        llc_index, llc_shift, llc_line = (
            llc._index_mask,
            llc._tag_shift,
            llc._line_mask,
        )
        llc_update = llc._update_on_hit
        llc_references, llc_misses = llc._references, llc._misses
        llc_latency = config.llc.hit_latency
    memory_latency = config.memory_latency
    store = AccessType.STORE
    L2, LLC, MEMORY = CacheLevel.L2, CacheLevel.LLC, CacheLevel.MEMORY
    # AccessOutcome's own __new__ is Python code; every field is given.
    new_outcome = tuple.__new__

    def finish_l1_miss(l1_set, address, access_type, tid, space, utag, count):
        if count:
            l1_references[tid] += 1
            l1_misses[tid] += 1
        dirty = access_type is store
        l2_set = l2_sets[(address >> l2_offset) & l2_index]
        l2_tag = address >> l2_shift
        way = l2_set._tag_map.get(l2_tag)
        if way is not None:
            if l2_update:
                l2_set.policy.touch(way)
            if count:
                l2_references[tid] += 1
            level, latency = L2, l2_latency
        else:
            if count:
                l2_references[tid] += 1
                l2_misses[tid] += 1
            llc_evicted = None
            if llc is not None:
                llc_set = llc_sets[(address >> llc_offset) & llc_index]
                llc_tag = address >> llc_shift
                way = llc_set._tag_map.get(llc_tag)
                if way is not None:
                    if llc_update:
                        llc_set.policy.touch(way)
                    if count:
                        llc_references[tid] += 1
                else:
                    if count:
                        llc_references[tid] += 1
                        llc_misses[tid] += 1
                    llc_evicted = _fill(
                        llc_set, llc_tag, address & llc_line, dirty
                    )
            l2_evicted = _fill(l2_set, l2_tag, address & l2_line, dirty)
            if way is not None:
                level, latency = LLC, llc_latency
            else:
                level, latency = MEMORY, memory_latency
        tag = address >> l1_shift
        evicted = _fill(l1_set, tag, address & l1_line, dirty)
        if utag is not None:
            line = l1_set.lines[l1_set._tag_map[tag]]
            line.utag = utag
            line.owner_space = space
        if obs is not None:
            if level is L2:
                obs.record_l2_hit(latency, count, evicted)
            elif level is LLC:
                obs.record_llc_hit(latency, count, evicted, l2_evicted)
            else:
                obs.record_memory_fetch(
                    latency,
                    count,
                    evicted,
                    l2_evicted,
                    llc_evicted,
                    had_llc=llc is not None,
                )
        return new_outcome(AccessOutcome, (level, latency, evicted, False))

    def demand_access(access, count=True):
        address = access.address
        space = access.address_space
        l1_set = l1_sets[(address >> l1_offset) & l1_index]
        way = l1_set._tag_map.get(address >> l1_shift)
        utag = None if utag_of is None else utag_of(space, address)
        if way is None:
            return finish_l1_miss(
                l1_set,
                address,
                access.access_type,
                access.thread_id,
                space,
                utag,
                count,
            )
        # SetAssociativeCache._check_way_predictor: adopt a missing
        # utag, retrain a mismatched one; only the mismatch is observed.
        mispredict = False
        if utag is not None:
            line = l1_set.lines[way]
            stored = line.utag
            if stored != utag:
                line.utag = utag
                line.owner_space = space
                mispredict = stored is not None
        if l1_update:
            l1_set.policy.touch(way)
        if count:
            l1_references[access.thread_id] += 1
        if mispredict:
            if obs is not None:
                obs.record_l1_hit(l2_latency, count)
            return utag_miss
        if obs is not None:
            obs.record_l1_hit(l1_latency, count)
        return l1_hit

    return finish_l1_miss, demand_access
