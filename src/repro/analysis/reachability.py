"""Reachability and observation-equivalence over compiled policy tables.

A replacement policy compiled by :mod:`repro.replacement.tables` *is* a
finite transition system: states are interned policy snapshots, inputs
are ``touch(way)`` (a hit on a resident line), ``evict`` (a miss that
runs the victim search and fills the chosen way), and ``invalidate``
(a flush).  This module turns an eagerly-closed table set into an
explicit :class:`ClosedTransitionSystem` and computes the two exact
ingredients of the Cañones–Köpf–Reineke leakage metrics:

* **reachable sets** — breadth-first closures from a start state under a
  chosen input alphabet (hits-only for the paper's stealth sender, full
  alphabet for a sender that may also miss, flush-augmented to account
  for ``invalidate``);
* **observation-equivalence partitions** — Moore-style partition
  refinement to a fixed point, under two attacker models:

  - the **victim-way observer** (the paper's Algorithm 2 receiver): the
    attacker owns every line in the set, may touch any way, and on each
    miss observes *which way* was evicted;
  - the **hit/miss observer** (the paper's Algorithm 1 receiver): the
    attacker shares one *target* line with the victim, may re-access the
    target (observing hit or miss) or access a fresh line (forcing an
    eviction), and observes only timing — modelled exactly as a
    marked-line product automaton over ``(policy state, marked way)``.

The same system answers Table I's exhaustive Sequence-1 bound
(:func:`sequence1_worst_case`): every resting state crossed with every
rotation of the lines, run on the transition tables until line 0 leaves.

Everything here is exact and deterministic: no simulation, no sampling,
no randomness.  Lazily-grown (open) tables are refused with
:class:`~repro.common.errors.LeakageAnalysisError` rather than silently
under-approximated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.common.errors import ConfigurationError, LeakageAnalysisError
from repro.replacement.tables import (
    EAGER_STATE_BUDGET,
    TABLEABLE_POLICIES,
    PolicyTables,
    compile_tables,
    estimated_state_count,
)

#: Defense dimension understood by the static analyzer.  ``none`` is the
#: unmodified policy; ``no-hit-update`` models the Section IX-B defense
#: (hits do not update replacement state, as in InvisiSpec's invisible
#: loads): the touch table becomes the identity while fills and victim
#: search are untouched.
DEFENSES: Tuple[str, ...] = ("none", "no-hit-update")

#: Marker for "the shared target line has been evicted" in the
#: marked-line product automaton (stored where a way index would be).
EVICTED = -1


@dataclass(frozen=True)
class ClosedTransitionSystem:
    """Immutable dense view of one eagerly-closed policy table set.

    All arrays are snapshots taken at construction time, so later lazy
    growth of the shared :class:`PolicyTables` (e.g. via ``invalidate``)
    cannot skew an analysis in flight.

    Attributes:
        policy_name: Registry key (``lru``, ``tree-plru``, ...).
        display_name: Human-readable policy name.
        ways: Set associativity.
        defense: ``none`` or ``no-hit-update``.
        n: Number of states in the closed core.
        initial: Power-on state index.
        prepared: State after sequentially filling ways ``0..ways-1``
            from power-on (the receiver's prime phase).
        touch: ``state * ways + way -> state`` hit transitions.
        fill: ``state * ways + way -> state`` fill transitions.
        victim_way: ``state -> way`` chosen by the victim search.
        evict_to: ``state -> state`` after victim search *and* filling
            the chosen way (one complete miss).
        state_bits: Hardware bits of replacement state per set.
    """

    policy_name: str
    display_name: str
    ways: int
    defense: str
    n: int
    initial: int
    prepared: int
    touch: Tuple[int, ...]
    fill: Tuple[int, ...]
    victim_way: Tuple[int, ...]
    evict_to: Tuple[int, ...]
    state_bits: int

    def touch_to(self, state: int, way: int) -> int:
        return self.touch[state * self.ways + way]

    def successors(self, alphabet: str) -> Callable[[int], Sequence[int]]:
        """A sender's one-access moves, for :func:`closure`.

        ``"touch"`` is the paper's stealth sender (hits only, never
        causing an eviction); ``"touch+evict"`` also allows misses.
        """
        ways, touch, evict_to = self.ways, self.touch, self.evict_to
        if alphabet == "touch":
            return lambda s: touch[s * ways:s * ways + ways]
        if alphabet == "touch+evict":
            return lambda s: touch[s * ways:s * ways + ways] + (evict_to[s],)
        raise ValueError(f"unknown alphabet {alphabet!r}")


def require_closed(
    policy_name: str,
    ways: int,
    eager_budget: Optional[int] = None,
    **kwargs: Any,
) -> PolicyTables:
    """Compile tables for a policy shape, refusing lazy (open) tables.

    Raises:
        LeakageAnalysisError: When the estimated state space exceeds the
            eager budget, so the tables would grow lazily and any
            "exact" analysis over them would be a silent lie.
        ConfigurationError: When the policy is not tableable at all.
    """
    if policy_name not in TABLEABLE_POLICIES:
        raise ConfigurationError(
            f"policy {policy_name!r} has no transition tables; "
            f"choose from {sorted(TABLEABLE_POLICIES)}"
        )
    budget = EAGER_STATE_BUDGET if eager_budget is None else eager_budget
    estimate = estimated_state_count(policy_name, ways, **kwargs)
    if estimate is None or estimate > budget:
        raise LeakageAnalysisError(
            f"tables for {policy_name!r} at {ways} ways are open "
            f"(estimated {estimate} states > eager budget {budget}); "
            f"exact analysis requires an eagerly-closed state space — "
            f"raise eager_budget to at least {estimate} to analyze, "
            f"or accept the refusal",
            policy=policy_name,
            ways=ways,
            estimated_states=estimate,
            eager_budget=budget,
        )
    tables = compile_tables(policy_name, ways, eager_budget=budget, **kwargs)
    if not tables.is_closed:
        raise LeakageAnalysisError(
            f"tables for {policy_name!r} at {ways} ways were compiled "
            f"lazily and are not closed",
            policy=policy_name,
            ways=ways,
            estimated_states=estimate,
            eager_budget=budget,
        )
    return tables


def build_system(
    policy_name: str,
    ways: int,
    defense: str = "none",
    eager_budget: Optional[int] = None,
    **kwargs: Any,
) -> ClosedTransitionSystem:
    """Snapshot a closed table set into a dense transition system."""
    if defense not in DEFENSES:
        raise LeakageAnalysisError(
            f"unknown defense {defense!r}; choose from {list(DEFENSES)}",
            policy=policy_name,
            ways=ways,
        )
    tables = require_closed(policy_name, ways, eager_budget, **kwargs)
    n = tables.state_count
    # The dense form is shared with the batch engine: PolicyTables
    # memoises one TableArrays snapshot per closed table set, and this
    # system is a frozen (tuple-typed, defense-adjusted) view of it.
    arrays = tables.as_arrays()
    if defense == "no-hit-update":
        # Hits leave replacement state untouched: the hit channel the
        # paper exploits (Section IV) is closed by construction.
        touch = tuple(s for s in range(n) for _ in range(ways))
    else:
        touch = tuple(int(s) for s in arrays.touch)
    return ClosedTransitionSystem(
        policy_name=policy_name,
        display_name=tables.display_name,
        ways=ways,
        defense=defense,
        n=n,
        initial=arrays.initial,
        prepared=arrays.prepared,
        touch=touch,
        fill=tuple(int(s) for s in arrays.fill),
        victim_way=tuple(int(w) for w in arrays.victim_way),
        evict_to=tuple(int(s) for s in arrays.evict_to),
        state_bits=tables.state_bits,
    )


# -- reachability ---------------------------------------------------------


def closure(
    start: int, successors: Callable[[int], Sequence[int]]
) -> Tuple[List[int], List[int]]:
    """Breadth-first closure from ``start`` under one input alphabet.

    ``successors(s)`` lists the states one input of the alphabet leads
    to from ``s``.  Returns ``(levels, order)``: ``order`` holds every
    reachable state in the order found, and ``levels[k]`` counts the
    states reachable with at most ``k`` inputs, so ``order[:levels[k]]``
    is that set.  ``levels[0] == 1`` (just the start state), and the
    last entry is the fixed point, reached at horizon ``len(levels) - 1``
    — for a sender alphabet, the Cañones–Köpf–Reineke *absorbed
    secrets* at each horizon.
    """
    seen = {start}
    order = [start]
    levels = [1]
    done = 0
    while done < len(order):
        horizon = len(order)
        for s in order[done:horizon]:
            for t in successors(s):
                if t not in seen:
                    seen.add(t)
                    order.append(t)
        done = horizon
        if len(order) > horizon:
            levels.append(len(order))
    return levels, order


def resting_states(
    policy_name: str,
    ways: int,
    include_flush: bool = False,
    eager_budget: Optional[int] = None,
    **kwargs: Any,
) -> List[int]:
    """States reachable between complete accesses ("resting" states).

    The table core counts every interned snapshot, *including* the
    transient mid-victim-search states of policies whose search mutates
    state (SRRIP ages RRPVs while scanning).  This closure instead
    composes each miss into one step (victim search + fill into the
    chosen way), so it holds only the states a set can actually rest
    in between accesses, in the order found from power-on.  With
    ``include_flush`` the lazy ``invalidate`` table joins the alphabet
    — flushes can reach states ordinary accesses cannot, and may
    intern states beyond the closed core, so this walks the tables
    rather than a :class:`ClosedTransitionSystem` snapshot.
    """
    tables = require_closed(policy_name, ways, eager_budget, **kwargs)
    all_ways = range(ways)

    def successors(s: int) -> List[int]:
        succs = [tables.touch_to(s, w) for w in all_ways]
        succs += [tables.fill_to(s, w) for w in all_ways]
        way, after = tables.victim_of(s)
        succs.append(tables.fill_to(after, way))
        if include_flush:
            succs += [tables.invalidate_to(s, w) for w in all_ways]
        return succs

    return closure(tables.initial, successors)[1]


# -- Sequence 1's eviction bound (Table I) --------------------------------


@dataclass
class WorstCaseResult:
    """Outcome of the exhaustive Sequence-1 sweep.

    Attributes:
        policy: Policy name.
        ways: Associativity analyzed.
        states_checked: Number of (state, placement) pairs checked.
        worst_iterations: Max iterations before line 0's eviction;
            ``max_iterations + 1`` if some pair outlasts the cap.
        histogram: iterations → count of pairs needing exactly that many.
    """

    policy: str
    ways: int
    states_checked: int
    worst_iterations: int
    histogram: Dict[int, int]

    @property
    def claim_holds(self) -> bool:
        """True when every state evicts line 0 within ``ways`` iterations."""
        return self.worst_iterations <= self.ways


def sequence1_worst_case(
    policy_name: str, ways: int = 8, max_iterations: int = 16
) -> WorstCaseResult:
    """Exhaustively bound Sequence 1's eviction delay for a policy shape.

    Sequence 1 (Section IV-C) accesses lines ``0..ways`` in turn — one
    line more than the set holds — and repeats.  Table I samples how
    many passes evict line 0; this query checks every resting state of
    the closed system crossed with every rotation of lines ``0..ways-1``
    over the ways (the resting states already hold every recency order,
    so rotations suffice), running the sequence on the transition
    tables until line 0 leaves the set.

    Raises:
        LeakageAnalysisError: When the shape's tables are open.
        ConfigurationError: When the policy is not tableable.
    """
    system = build_system(policy_name, ways)
    touch, victim_way = system.touch, system.victim_way
    evict_to = system.evict_to
    histogram: Dict[int, int] = {}
    for start in resting_states(policy_name, ways):
        for rotation in range(ways):
            state = start
            lines = [(rotation + way) % ways for way in range(ways)]
            iterations = max_iterations + 1
            for iteration in range(1, max_iterations + 1):
                for line in range(ways + 1):
                    if line in lines:
                        state = touch[state * ways + lines.index(line)]
                    else:
                        lines[victim_way[state]] = line
                        state = evict_to[state]
                if 0 not in lines:
                    iterations = iteration
                    break
            histogram[iterations] = histogram.get(iterations, 0) + 1
    return WorstCaseResult(
        policy=policy_name,
        ways=ways,
        states_checked=sum(histogram.values()),
        worst_iterations=max(histogram),
        histogram=dict(sorted(histogram.items())),
    )


# -- observation-equivalence refinement -----------------------------------


def _moore_refine(
    n: int,
    initial_block: Sequence[int],
    successor_tables: Sequence[Sequence[int]],
) -> Tuple[List[int], int]:
    """Coarsest Moore partition: same outputs, same successor blocks.

    ``initial_block[s]`` is the (already-canonicalised) output class of
    state ``s``; ``successor_tables`` holds one ``state -> state`` array
    per input symbol.  Returns ``(block_id per state, class count)``.
    The refinement reaches its fixed point in at most ``n`` rounds; in
    practice distinguishing experiments for replacement policies are
    short and it converges in a handful.
    """
    block = list(initial_block)
    count = len(set(block))
    while True:
        signatures: Dict[Tuple[int, ...], int] = {}
        new_block = [0] * n
        for s in range(n):
            sig = (block[s],) + tuple(
                block[table[s]] for table in successor_tables
            )
            idx = signatures.get(sig)
            if idx is None:
                idx = len(signatures)
                signatures[sig] = idx
            new_block[s] = idx
        if len(signatures) == count:
            return new_block, count
        block = new_block
        count = len(signatures)


def victim_observer_partition(
    system: ClosedTransitionSystem,
) -> Tuple[List[int], int]:
    """Observation-equivalence under the victim-way observer.

    The attacker owns every line, may touch any way (always a hit) and
    force an eviction with a fresh line; each eviction reveals the
    chosen victim way (the attacker sees *which of its lines* missed —
    the paper's Algorithm 2 receiver).  Two policy states are
    equivalent iff no such strategy tells them apart.
    """
    n = system.n
    ways = system.ways
    tables: List[List[int]] = []
    for w in range(ways):
        tables.append([system.touch[s * ways + w] for s in range(n)])
    tables.append(list(system.evict_to))
    return _moore_refine(n, system.victim_way, tables)


@dataclass
class HitMissPartition:
    """Result of the marked-line product refinement.

    Attributes:
        block_of_state: Equivalence class of ``(s, marked_way)`` for
            each policy state ``s``, with the marked (target) line at
            the canonical post-prepare way — i.e. which policy states
            the Algorithm 1 receiver can tell apart.
        classes_over_states: Number of distinct classes in
            ``block_of_state``.
        product_classes: Classes over the whole product automaton.
        marked_way: Canonical target way after the prepare phase.
        start_state: Policy state after the prepare phase (prime the
            set, then install the target line) — the sender's starting
            point for absorption.
    """

    block_of_state: List[int] = field(default_factory=list)
    classes_over_states: int = 0
    product_classes: int = 0
    marked_way: int = 0
    start_state: int = 0


def hitmiss_observer_partition(
    system: ClosedTransitionSystem,
) -> HitMissPartition:
    """Observation-equivalence under the hit/miss (timing) observer.

    Models the paper's Algorithm 1 receiver exactly: one shared target
    line at a (hidden, evolving) way ``m``, two inputs —

    * ``check``: re-access the target.  Hit if resident (state follows
      the touch table); miss if evicted (victim search runs, the target
      is re-installed at the chosen way).
    * ``evict``: access a fresh line, always a miss; the chosen victim
      way is *not* observed, but if it held the target the target is
      now evicted.

    The product automaton has states ``(policy state, m)`` with ``m`` a
    way index or :data:`EVICTED`; observations are the hit/miss bit per
    input.  Partition refinement over the product yields the coarsest
    equivalence; states are then compared with the target at the
    canonical post-prepare way.
    """
    n = system.n
    ways = system.ways
    marks = ways + 1  # way 0..ways-1, or EVICTED at index `ways`
    size = n * marks

    check_to = [0] * size
    evict_to = [0] * size
    # Output bit of `check` (1 = hit); `evict` always observes a miss.
    check_obs = [0] * size
    for s in range(n):
        v = system.victim_way[s]
        after_evict = system.evict_to[s]
        base = s * marks
        for m in range(ways):
            i = base + m
            check_obs[i] = 1
            check_to[i] = system.touch[s * ways + m] * marks + m
            evict_to[i] = after_evict * marks + (ways if v == m else m)
        i = base + ways  # target evicted
        check_obs[i] = 0
        check_to[i] = after_evict * marks + v
        evict_to[i] = after_evict * marks + ways

    block, product_classes = _moore_refine(
        size, check_obs, (check_to, evict_to)
    )

    # Canonical prepare phase: prime ways 0..ways-1, then access the
    # target (a miss) — it lands at the victim way of the primed state.
    prepared = system.prepared
    marked_way = system.victim_way[prepared]
    start_state = system.evict_to[prepared]

    block_of_state = [block[s * marks + marked_way] for s in range(n)]
    classes_over_states = len(set(block_of_state))
    return HitMissPartition(
        block_of_state=block_of_state,
        classes_over_states=classes_over_states,
        product_classes=product_classes,
        marked_way=marked_way,
        start_state=start_state,
    )
