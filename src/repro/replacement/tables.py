"""Precompiled replacement-policy transition tables (fast-path engine).

Replacement policies are tiny per-set finite-state machines — the same
observation the paper's in-house simulator builds on when it enumerates
policy state spaces (Section IV-C).  Instead of re-executing the Python
state machine on every access, this module compiles a policy into lookup
tables over interned state indices:

* ``touch``:  ``state x way -> state`` (hit-path transition),
* ``fill``:   ``state x way -> state`` (fill-path transition; identical
  to ``touch`` for LRU-family policies that do not distinguish fills),
* ``victim``: ``state -> (way, state)`` — a transition, not just a
  lookup, because SRRIP's victim search *ages* the RRPVs in place,
* ``invalidate``: ``state x way -> state`` (sparse; flushes are rare).

States are interned as dense integers; per-set replacement state then
collapses to a single int, and the hot loop becomes two list indexings.
Small state spaces (Tree-PLRU's ``2^(N-1)``, FIFO's ``N``) are
enumerated eagerly by breadth-first closure from the power-on state;
large ones (true LRU at 16 ways has ``16!`` orderings) fill in lazily,
memoising exactly the states a workload actually reaches.

:class:`TabledPolicy` wraps a compiled table set in the standard
:class:`~repro.replacement.base.ReplacementPolicy` interface, so a
table-driven set is a drop-in replacement for the reference policy and
can be checked bit-for-bit against it (``tests/test_perf``).
"""

from __future__ import annotations

import inspect
import math
from typing import Any, Dict, List, Optional, Sequence, Tuple, Type

from repro.common.errors import ConfigurationError
from repro.replacement.base import ReplacementPolicy, check_way
from repro.replacement.bit_plru import BitPLRU
from repro.replacement.fifo import FIFO
from repro.replacement.rrip import SRRIP
from repro.replacement.tree_plru import TreePLRU
from repro.replacement.true_lru import TrueLRU

#: Policies whose transitions are pure functions of (state, way) and can
#: therefore be compiled.  ``random`` is excluded (victim selection draws
#: from an RNG stream, not from state) and ``partitioned-plru`` is
#: excluded (its ``victim_for`` protocol is domain-aware).
TABLEABLE_POLICIES: Dict[str, Type[ReplacementPolicy]] = {
    "lru": TrueLRU,
    "tree-plru": TreePLRU,
    "bit-plru": BitPLRU,
    "fifo": FIFO,
    "srrip": SRRIP,
}

#: Enumerate the full state space eagerly while it fits in this many
#: states; beyond the budget, tables grow lazily as states are visited.
EAGER_STATE_BUDGET = 4096


class TableArrays:
    """Dense numpy snapshot of a *closed* table set (batch-engine export).

    The same data ``repro.analysis.reachability`` freezes into a
    :class:`~repro.analysis.reachability.ClosedTransitionSystem` — flat
    ``state * ways + way`` transition vectors plus per-state victim
    way/state — as read-only ``int32`` ndarrays, so the batch engine can
    advance thousands of trials with ``np.take``-style gathers instead
    of per-trial list indexing.  Exists only for eagerly-closed tables:
    an open (lazily-growing) table set has no dense form, and callers
    fall back to per-trial scalar lookups (``batch.fallback.open_table``).

    Attributes:
        touch: ``state * ways + way -> state`` hit-path transitions.
        fill: ``state * ways + way -> state`` fill-path transitions.
        victim_way: ``state -> way`` chosen on a full-set miss.
        victim_next: ``state -> state`` after the victim *search* (before
            the fill transition; SRRIP ages RRPVs while searching).
        evict_to: ``state -> state`` for a composed full-set miss
            (victim search + fill into the chosen way).
        initial: Interned power-on state.
        prepared: State after filling ways ``0..ways-1`` from power-on.
    """

    __slots__ = (
        "policy_name",
        "ways",
        "state_count",
        "touch",
        "fill",
        "victim_way",
        "victim_next",
        "evict_to",
        "initial",
        "prepared",
    )

    def __init__(self, tables: "PolicyTables"):
        import numpy as np  # deferred: keeps the lint/analysis import chain numpy-free

        ways = tables.ways
        n = tables.state_count
        self.policy_name = tables.policy_name
        self.ways = ways
        self.state_count = n
        self.touch = np.fromiter(tables._touch, dtype=np.int32, count=n * ways)
        self.fill = np.fromiter(tables._fill, dtype=np.int32, count=n * ways)
        self.victim_way = np.fromiter(
            (way for way, _ in tables._victim), dtype=np.int32, count=n
        )
        self.victim_next = np.fromiter(
            (nxt for _, nxt in tables._victim), dtype=np.int32, count=n
        )
        self.evict_to = self.fill[
            self.victim_next.astype(np.int64) * ways + self.victim_way
        ]
        self.initial = tables.initial
        prepared = tables.initial
        for way in range(ways):
            prepared = tables.fill_to(prepared, way)
        self.prepared = prepared
        for array in (
            self.touch,
            self.fill,
            self.victim_way,
            self.victim_next,
            self.evict_to,
        ):
            array.setflags(write=False)  # shared through the memo

    def __repr__(self) -> str:
        return (
            f"TableArrays({self.policy_name!r}, ways={self.ways}, "
            f"states={self.state_count})"
        )


def estimated_state_count(
    policy_name: str, ways: int, **kwargs: Any
) -> Optional[int]:
    """Size of a policy's reachable-state upper bound, or None if unknown.

    Used only to decide eager-vs-lazy compilation, so an over-estimate is
    harmless (it merely forces lazy mode).
    """
    if policy_name == "lru":
        return math.factorial(ways)
    if policy_name == "tree-plru":
        return 2 ** (ways - 1)
    if policy_name == "bit-plru":
        return 2 ** ways
    if policy_name == "fifo":
        return ways
    if policy_name == "srrip":
        rrpv_bits = kwargs.get("rrpv_bits", 2)
        return (2 ** rrpv_bits) ** ways
    return None


class PolicyTables:
    """Compiled transition/victim tables for one (policy, ways) pairing.

    Tables are flat lists indexed ``state * ways + way`` (transitions) or
    ``state`` (victims).  Entries start as None and are materialised on
    first use by replaying the reference policy; eager compilation simply
    walks the breadth-first closure up front so the hot path never pays
    the replay cost.

    Args:
        policy_name: Key into :data:`TABLEABLE_POLICIES`.
        ways: Set associativity.
        eager_budget: Enumerate the full space up front when the
            estimated state count does not exceed this.
        **kwargs: Forwarded to the reference policy constructor
            (e.g. ``rrpv_bits`` for SRRIP).
    """

    def __init__(
        self,
        policy_name: str,
        ways: int,
        eager_budget: int = EAGER_STATE_BUDGET,
        **kwargs: Any,
    ):
        if policy_name not in TABLEABLE_POLICIES:
            raise ConfigurationError(
                f"policy {policy_name!r} cannot be table-compiled; "
                f"choose from {sorted(TABLEABLE_POLICIES)}"
            )
        self.policy_name = policy_name
        self.ways = ways
        self.kwargs = dict(kwargs)
        # One mutable reference instance is reused for every replay.
        self._scratch = TABLEABLE_POLICIES[policy_name](ways, **kwargs)
        self.base_type = type(self._scratch)
        self.display_name = self._scratch.name
        self.state_bits = self._scratch.state_bits
        self.has_fill = hasattr(self._scratch, "on_fill")

        self.states: List[Any] = []
        self.index: Dict[Any, int] = {}
        self._touch: List[Optional[int]] = []
        self._fill: List[Optional[int]] = []
        self._victim: List[Optional[Tuple[int, int]]] = []
        self._invalidate: Dict[Tuple[int, int], int] = {}

        fresh = TABLEABLE_POLICIES[policy_name](ways, **kwargs)
        self.initial = self.intern(fresh.state_snapshot())
        estimate = estimated_state_count(policy_name, ways, **kwargs)
        self.eager = estimate is not None and estimate <= eager_budget
        self._closed = False
        self._arrays: Optional[TableArrays] = None
        if self.eager:
            self._compile_closure()
            self._closed = True

    # -- state interning -------------------------------------------------

    def intern(self, snapshot: Any) -> int:
        """Map a reference-policy snapshot to its dense state index."""
        idx = self.index.get(snapshot)
        if idx is None:
            idx = len(self.states)
            self.index[snapshot] = idx
            self.states.append(snapshot)
            self._touch.extend([None] * self.ways)
            self._fill.extend([None] * self.ways)
            self._victim.append(None)
        return idx

    # -- hot-path lookups (lazily self-filling) --------------------------

    def touch_to(self, state: int, way: int) -> int:
        nxt = self._touch[state * self.ways + way]
        if nxt is None:
            nxt = self._replay_touch(state, way, is_fill=False)
        return nxt

    def fill_to(self, state: int, way: int) -> int:
        nxt = self._fill[state * self.ways + way]
        if nxt is None:
            nxt = self._replay_touch(state, way, is_fill=True)
        return nxt

    def victim_of(self, state: int) -> Tuple[int, int]:
        entry = self._victim[state]
        if entry is None:
            entry = self._replay_victim(state)
        return entry

    def invalidate_to(self, state: int, way: int) -> int:
        nxt = self._invalidate.get((state, way))
        if nxt is None:
            scratch = self._scratch
            scratch.state_restore(self.states[state])
            scratch.invalidate(way)
            nxt = self.intern(scratch.state_snapshot())
            self._invalidate[(state, way)] = nxt
        return nxt

    # -- replay (reference policy is the single source of truth) ---------

    def _replay_touch(self, state: int, way: int, is_fill: bool) -> int:
        scratch = self._scratch
        scratch.state_restore(self.states[state])
        if is_fill and self.has_fill:
            scratch.on_fill(way)  # type: ignore[attr-defined]
        else:
            scratch.touch(way)
        nxt = self.intern(scratch.state_snapshot())
        table = self._fill if is_fill else self._touch
        table[state * self.ways + way] = nxt
        return nxt

    def _replay_victim(self, state: int) -> Tuple[int, int]:
        scratch = self._scratch
        scratch.state_restore(self.states[state])
        # victim() may mutate (SRRIP ages RRPVs while searching), so the
        # table entry is a full transition: (chosen way, next state).
        way = scratch.victim(None)
        entry = (way, self.intern(scratch.state_snapshot()))
        self._victim[state] = entry
        return entry

    def _compile_closure(self) -> None:
        """Breadth-first closure over touch/fill/victim from power-on."""
        cursor = 0
        while cursor < len(self.states):
            for way in range(self.ways):
                self.touch_to(cursor, way)
                self.fill_to(cursor, way)
            self.victim_of(cursor)
            cursor += 1

    # -- introspection ---------------------------------------------------

    @property
    def state_count(self) -> int:
        return len(self.states)

    @property
    def is_closed(self) -> bool:
        """True when the eager breadth-first closure has been computed.

        A closed table set enumerates *every* state reachable from
        power-on via touch/fill/victim, with all transition entries
        materialised — the precondition for exact static analysis
        (``repro.analysis.leakage``).  Lazily-grown tables are never
        closed: they memoise only the states a workload happened to
        reach.  (``invalidate`` transitions stay lazy either way; a
        flush can intern states past the closed core.)
        """
        return self._closed

    def as_arrays(self) -> TableArrays:
        """Dense numpy snapshot of a closed table set (memoised).

        Repeated calls return the *same* :class:`TableArrays` object, so
        every batch-engine instance built over one memoised table set
        shares one copy of the transition arrays.
        :func:`clear_table_cache` drops the memo along with the tables.

        Raises:
            ConfigurationError: When the tables are open (grown lazily);
                an open state space has no dense form.  Batch callers
                catch this and take the per-trial scalar fallback.
        """
        if not self._closed:
            raise ConfigurationError(
                f"tables for {self.policy_name!r} at {self.ways} ways are "
                f"open (lazily grown) and have no dense array export; "
                f"raise eager_budget to close the space, or use the "
                f"batch engine's per-trial fallback"
            )
        if self._arrays is None:
            self._arrays = TableArrays(self)
        return self._arrays

    def transition_count(self) -> int:
        """Number of materialised (state, way) transition entries."""
        return sum(
            1 for entry in self._touch if entry is not None
        ) + sum(1 for entry in self._fill if entry is not None)

    def __repr__(self) -> str:
        mode = "eager" if self.eager else "lazy"
        return (
            f"PolicyTables({self.policy_name!r}, ways={self.ways}, "
            f"states={self.state_count}, {mode})"
        )


#: Process-wide memo so every set of a cache shares one table object.
_TABLE_CACHE: Dict[Tuple[Any, ...], PolicyTables] = {}

#: Front of :data:`_TABLE_CACHE` keyed on the call's own arguments, so
#: the repeat calls (one per cache set) skip the signature binding.
_CALL_CACHE: Dict[Tuple[Any, ...], PolicyTables] = {}


def _effective_parameters(
    policy_name: str, ways: int, kwargs: Dict[str, Any]
) -> Tuple[Tuple[str, Any], ...]:
    """Canonical constructor parameters for the memo key.

    Binding through the reference constructor's signature (defaults
    applied) makes ``compile_tables("srrip", 4)`` and
    ``compile_tables("srrip", 4, rrpv_bits=2)`` share one table object,
    while genuinely different parameterizations never collide.
    """
    cls = TABLEABLE_POLICIES[policy_name]
    try:
        bound = inspect.signature(cls.__init__).bind(None, ways, **kwargs)
    except TypeError as error:
        raise ConfigurationError(
            f"cannot compile tables for {policy_name!r}: {error}"
        ) from None
    bound.apply_defaults()
    params = []
    for name, value in bound.arguments.items():
        if name in ("self", "ways"):
            continue
        if bound.signature.parameters[name].kind is inspect.Parameter.VAR_KEYWORD:
            params.extend(sorted(value.items()))
            continue
        params.append((name, value))
    for name, value in params:
        try:
            hash(value)
        except TypeError:
            raise ConfigurationError(
                f"policy parameter {name}={value!r} is unhashable and "
                f"cannot key the table memo; pass a hashable value"
            ) from None
    return tuple(sorted(params))


def compile_tables(
    policy_name: str,
    ways: int,
    eager_budget: Optional[int] = None,
    **kwargs: Any,
) -> PolicyTables:
    """Return (building if needed) the shared tables for a policy shape.

    The memo key covers the policy class identity, associativity, the
    *effective* constructor parameters (defaults applied), and any
    non-default ``eager_budget``, so parameterized or defended variants
    never silently share interned tables.
    """
    call_key = (policy_name, ways, eager_budget, tuple(sorted(kwargs.items())))
    try:
        return _CALL_CACHE[call_key]
    except KeyError:
        pass
    except TypeError:
        # An unhashable argument: the binding below reports it.
        call_key = None
    if policy_name not in TABLEABLE_POLICIES:
        raise ConfigurationError(
            f"policy {policy_name!r} cannot be table-compiled; "
            f"choose from {sorted(TABLEABLE_POLICIES)}"
        )
    params = _effective_parameters(policy_name, ways, kwargs)
    budget = EAGER_STATE_BUDGET if eager_budget is None else eager_budget
    key = (policy_name, TABLEABLE_POLICIES[policy_name], ways, params, budget)
    tables = _TABLE_CACHE.get(key)
    if tables is None:
        tables = PolicyTables(policy_name, ways, eager_budget=budget, **kwargs)
        _TABLE_CACHE[key] = tables
    if call_key is not None:
        _CALL_CACHE[call_key] = tables
    return tables


def clear_table_cache() -> None:
    """Drop memoised tables (test isolation / memory pressure).

    Also drops each cached table set's dense :class:`TableArrays`
    snapshot, so callers holding a ``PolicyTables`` reference across a
    clear rebuild their arrays instead of resurrecting dropped ones.
    """
    for tables in _TABLE_CACHE.values():
        tables._arrays = None
    _TABLE_CACHE.clear()
    _CALL_CACHE.clear()


class TabledPolicy(ReplacementPolicy):
    """Table-driven drop-in for any policy in :data:`TABLEABLE_POLICIES`.

    Holds a single int (the interned state index) instead of the
    reference policy's lists, and performs every transition by table
    lookup.  Snapshots are exchanged in the *reference* format, so a
    tabled set and a reference set can be compared directly and the
    PR 2 sanitizer checkers apply unchanged.

    Args:
        ways: Set associativity.
        base: Name of the underlying policy to compile.
        tables: Pre-compiled tables to share (must match ``ways``).
        **kwargs: Forwarded to the reference policy constructor.
    """

    __slots__ = ("name", "rrpv_bits", "_tables", "_state")

    def __init__(
        self,
        ways: int,
        base: str = "tree-plru",
        tables: Optional[PolicyTables] = None,
        **kwargs: Any,
    ):
        super().__init__(ways)
        if tables is None:
            tables = compile_tables(base, ways, **kwargs)
        elif tables.ways != ways:
            raise ConfigurationError(
                f"tables sized for {tables.ways} ways used in "
                f"{ways}-way policy"
            )
        self._tables = tables
        self._state = tables.initial
        self.name = tables.display_name
        if isinstance(tables._scratch, SRRIP):
            # Mirror the attribute the sanitizer's SRRIP checker reads.
            self.rrpv_bits = tables._scratch.rrpv_bits

    @property
    def table_base_type(self) -> Type[ReplacementPolicy]:
        """Reference policy class these tables were compiled from."""
        return self._tables.base_type

    def touch(self, way: int) -> None:
        # check_way and PolicyTables.touch_to are inlined here: this is
        # the single hottest call in the fast engine and each saved
        # frame is measurable.
        if way < 0 or way >= self.ways:
            check_way(self, way)
        tables = self._tables
        state = self._state
        nxt = tables._touch[state * tables.ways + way]
        if nxt is None:
            nxt = tables._replay_touch(state, way, is_fill=False)
        self._state = nxt

    def on_fill(self, way: int) -> None:
        """Fill-path transition (same as touch for LRU-family bases)."""
        if way < 0 or way >= self.ways:
            check_way(self, way)
        tables = self._tables
        state = self._state
        nxt = tables._fill[state * tables.ways + way]
        if nxt is None:
            nxt = tables._replay_touch(state, way, is_fill=True)
        self._state = nxt

    def victim(self, valid: Optional[Sequence[bool]] = None) -> int:
        if valid is not None:
            invalid = self._first_invalid(valid)
            if invalid is not None:
                return invalid
        tables = self._tables
        entry = tables._victim[self._state]
        if entry is None:
            entry = tables._replay_victim(self._state)
        way, self._state = entry
        return way

    def invalidate(self, way: int) -> None:
        check_way(self, way)
        self._state = self._tables.invalidate_to(self._state, way)

    def reset(self) -> None:
        self._state = self._tables.initial

    def state_snapshot(self) -> Any:
        return self._tables.states[self._state]

    def state_restore(self, snapshot: Any) -> None:
        idx = self._tables.index.get(snapshot)
        if idx is None:
            # Never-visited state: validate through the reference policy
            # (which raises ValueError on malformed snapshots), then
            # intern its canonical snapshot form.
            scratch = self._tables._scratch
            scratch.state_restore(snapshot)
            idx = self._tables.intern(scratch.state_snapshot())
        self._state = idx

    @property
    def state_bits(self) -> int:
        return self._tables.state_bits

    def __repr__(self) -> str:
        return (
            f"TabledPolicy({self._tables.policy_name!r}, "
            f"ways={self.ways}, state={self._state})"
        )
