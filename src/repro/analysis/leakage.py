"""Static leakage metrics over compiled replacement-policy tables.

Implements ROADMAP item 4: quantify the paper's LRU-state channel
*statically*, in the style of Cañones–Köpf–Reineke ("Security Analysis
of Cache Replacement Policies"), by walking the exact transition system
that :mod:`repro.replacement.tables` already compiles — zero simulation.

For every ``policy x associativity x defense`` cell the analyzer
reports:

* ``reachable_states`` — size of the eager closure from power-on (and
  ``flush_reachable_states``, the closure when ``invalidate`` joins the
  alphabet);
* ``distinguishable`` — observation-equivalence class counts under the
  *victim-way* observer (Algorithm 2 receiver) and the *hit/miss*
  observer (Algorithm 1 receiver, via the marked-line product
  automaton);
* ``absorbed`` — cumulative absorbed-secret counts per sender sequence
  length, for the paper's stealth hits-only sender and for a sender
  that may also miss, to their fixed points;
* ``capacity_bits`` — channel-capacity upper bounds per length:
  ``log2`` of the number of *distinguishable* states among the states
  absorbed within ``n`` accesses, per observer, with the fixed-point
  limit.

The bounds are exact upper bounds for one channel use: no receiver
strategy can extract more than ``capacity`` bits per transmission,
and for every pair of distinguishable states some strategy separates
them.  Policies outside :data:`TABLEABLE_POLICIES` get analytic
entries (``random`` is stateless toward recency; ``partitioned-plru``
isolates domains by construction); shapes whose state space exceeds
the eager budget are *refused*, not approximated — the refusal is
itself a structured entry.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.common.errors import ConfigurationError, LeakageAnalysisError
from repro.common.gendoc import update_generated_section
from repro.analysis.reachability import (
    DEFENSES,
    build_system,
    closure,
    hitmiss_observer_partition,
    resting_states,
    victim_observer_partition,
)
from repro.replacement.tables import TABLEABLE_POLICIES

#: Bump when the JSON artifact's schema or semantics change; the drift
#: checker refuses to compare across versions.
LEAKAGE_SCHEMA_VERSION = 1

#: Policies analyzed without tables, mapped to the analytic rationale.
ANALYTIC_POLICIES: Dict[str, str] = {
    "random": (
        "victim selection draws from an RNG stream, independent of the "
        "access history; replacement state absorbs no secrets and both "
        "observers see noise — capacity 0 (paper Section IX-A)"
    ),
    "partitioned-plru": (
        "DAWG-style way partitioning confines each domain's fills and "
        "victim search to its own ways; cross-domain replacement state "
        "is never shared, so cross-domain capacity is 0 by construction "
        "(paper Section IX-C)"
    ),
}

#: Registry aliases that are engines, not policies, and are skipped.
SKIPPED_POLICIES: Dict[str, str] = {
    "tabled": "engine alias for a table-compiled base policy, not a "
    "distinct replacement algorithm",
}

#: Randomized-index defenses, mapped to why exact analysis is refused.
#: The analyzer's transition system is *per set* under a fixed
#: address-to-set mapping; these designs remove exactly that premise,
#: so the cells are refused structurally (mode ``"refused"``) and the
#: designs are scored dynamically instead — see ``ext_randomized`` and
#: ``docs/DEFENSES.md``.
RANDOMIZED_DEFENSES: Dict[str, str] = {
    "ceaser": (
        "keyed index randomization breaks the closed-table premise: "
        "which lines are set-congruent depends on the epoch key, and a "
        "remap invalidates lines mid-trace, so no fixed per-set "
        "transition system exists to enumerate; scored dynamically "
        "(ext_randomized)"
    ),
    "skew": (
        "per-way index functions give an address a different candidate "
        "set in every way: replacement state is no longer confined to "
        "one set's ways and the per-set product automaton the observers "
        "are defined over does not exist; scored dynamically "
        "(ext_randomized)"
    ),
}


@dataclass
class PolicyLeakage:
    """Exact (or analytic) leakage metrics for one policy shape."""

    policy: str
    display_name: str
    ways: int
    defense: str
    mode: str  # "exact" | "analytic" | "refused"
    table_states: int = 0
    reachable_states: int = 0
    flush_reachable_states: int = 0
    state_bits: int = 0
    distinguishable: Dict[str, int] = field(default_factory=dict)
    absorbed: Dict[str, Any] = field(default_factory=dict)
    capacity_bits: Dict[str, Any] = field(default_factory=dict)
    refusal: str = ""
    notes: str = ""

    def capacity_limit(self, observer: str) -> float:
        return float(self.capacity_bits.get(f"{observer}-limit", 0.0))

    def to_dict(self) -> Dict[str, Any]:
        return {
            "policy": self.policy,
            "display_name": self.display_name,
            "ways": self.ways,
            "defense": self.defense,
            "mode": self.mode,
            "table_states": self.table_states,
            "reachable_states": self.reachable_states,
            "flush_reachable_states": self.flush_reachable_states,
            "state_bits": self.state_bits,
            "distinguishable": dict(self.distinguishable),
            "absorbed": dict(self.absorbed),
            "capacity_bits": dict(self.capacity_bits),
            "refusal": self.refusal,
            "notes": self.notes,
        }


def _round_bits(value: float) -> float:
    """Stable 6-decimal rounding so JSON artifacts are byte-comparable."""
    return round(value, 6)


def _capacity_series(
    levels: Sequence[int],
    order: Sequence[int],
    block_of_state: Sequence[int],
) -> List[float]:
    """log2(#distinct observation classes) among each absorbed set.

    ``levels``/``order`` are a :func:`closure`: the states absorbed
    within ``k`` accesses are ``order[:levels[k]]``.
    """
    series = []
    classes = set()
    found = 0
    for level in levels:
        classes.update(block_of_state[s] for s in order[found:level])
        found = level
        series.append(_round_bits(math.log2(len(classes))))
    return series


def analyze_policy(
    policy: str,
    ways: int,
    defense: str = "none",
    eager_budget: Optional[int] = None,
    **kwargs: Any,
) -> PolicyLeakage:
    """Full static leakage analysis of one policy shape.

    Returns an ``exact`` entry for tableable policies whose state space
    closes within the eager budget, an ``analytic`` entry for policies
    whose leakage is known without tables, and a ``refused`` entry when
    exact analysis is impossible (open tables).  Unknown policy names
    raise :class:`~repro.common.errors.ConfigurationError`.
    """
    known = policy in TABLEABLE_POLICIES or policy in ANALYTIC_POLICIES
    if defense in RANDOMIZED_DEFENSES and known:
        # Structured refusal, not an error: the request is well-formed,
        # the analysis is impossible by construction.  Checked before
        # the closed-table defense whitelist so randomized designs are
        # never reported as "unknown".
        return PolicyLeakage(
            policy=policy,
            display_name=policy,
            ways=ways,
            defense=defense,
            mode="refused",
            refusal=RANDOMIZED_DEFENSES[defense],
            notes=(
                "randomized-index designs are evaluated dynamically; "
                "see docs/DEFENSES.md"
            ),
        )
    if defense not in DEFENSES and defense not in RANDOMIZED_DEFENSES:
        raise ConfigurationError(
            f"unknown defense {defense!r}; choose from "
            f"{list(DEFENSES) + list(RANDOMIZED_DEFENSES)}"
        )
    if policy in ANALYTIC_POLICIES:
        return PolicyLeakage(
            policy=policy,
            display_name=policy,
            ways=ways,
            defense=defense,
            mode="analytic",
            distinguishable={"victim-way": 1, "hit-miss": 1},
            absorbed={
                "hit-only": [1],
                "hit-only-limit": 1,
                "hit-only-converged-at": 0,
                "full-limit": 1,
            },
            capacity_bits={
                "victim-way": [0.0],
                "hit-miss": [0.0],
                "victim-way-limit": 0.0,
                "hit-miss-limit": 0.0,
            },
            notes=ANALYTIC_POLICIES[policy],
        )
    if policy in SKIPPED_POLICIES:
        raise ConfigurationError(
            f"policy {policy!r} is not analyzable: {SKIPPED_POLICIES[policy]}"
        )
    if policy not in TABLEABLE_POLICIES:
        raise ConfigurationError(
            f"unknown policy {policy!r}; analyzable policies are "
            f"{sorted(TABLEABLE_POLICIES) + sorted(ANALYTIC_POLICIES)}"
        )
    try:
        system = build_system(
            policy, ways, defense=defense, eager_budget=eager_budget, **kwargs
        )
    except LeakageAnalysisError as refusal:
        return PolicyLeakage(
            policy=policy,
            display_name=policy,
            ways=ways,
            defense=defense,
            mode="refused",
            refusal=str(refusal),
        )

    vw_block, vw_classes = victim_observer_partition(system)
    hm = hitmiss_observer_partition(system)

    hit_levels, hit_order = closure(
        hm.start_state, system.successors("touch")
    )
    full_levels, _ = closure(hm.start_state, system.successors("touch+evict"))

    vw_series = _capacity_series(hit_levels, hit_order, vw_block)
    hm_series = _capacity_series(hit_levels, hit_order, hm.block_of_state)

    resting = resting_states(
        policy, ways, include_flush=False, eager_budget=eager_budget, **kwargs
    )
    flushed = resting_states(
        policy, ways, include_flush=True, eager_budget=eager_budget, **kwargs
    )

    return PolicyLeakage(
        policy=policy,
        display_name=system.display_name,
        ways=ways,
        defense=defense,
        mode="exact",
        table_states=system.n,
        reachable_states=len(resting),
        flush_reachable_states=len(flushed),
        state_bits=system.state_bits,
        distinguishable={
            "victim-way": vw_classes,
            "hit-miss": hm.classes_over_states,
            "hit-miss-product": hm.product_classes,
        },
        absorbed={
            "hit-only": hit_levels,
            "hit-only-limit": hit_levels[-1],
            "hit-only-converged-at": len(hit_levels) - 1,
            "full-limit": full_levels[-1],
        },
        capacity_bits={
            "victim-way": vw_series,
            "hit-miss": hm_series,
            "victim-way-limit": vw_series[-1],
            "hit-miss-limit": hm_series[-1],
        },
        notes=(
            "exact over the closed transition system; capacities are "
            "per-transmission upper bounds for a hits-only sender"
        ),
    )


@dataclass
class LeakageReport:
    """All analyzed cells plus the derived defense ranking."""

    entries: List[PolicyLeakage]
    ways: Tuple[int, ...]
    defenses: Tuple[str, ...]
    eager_budget: int
    skipped: Dict[str, str] = field(default_factory=dict)

    def ranking(self) -> List[Dict[str, Any]]:
        """Cells ordered worst (leakiest) first.

        Primary key is the hit/miss capacity limit (the paper's
        Algorithm 1 channel), then the victim-way limit, then name —
        refused cells sink to the bottom with null capacities.
        """
        def sort_key(entry: PolicyLeakage):
            refused = 1 if entry.mode == "refused" else 0
            return (
                refused,
                -entry.capacity_limit("hit-miss"),
                -entry.capacity_limit("victim-way"),
                entry.policy,
                entry.ways,
                entry.defense,
            )

        ranked = []
        for rank, entry in enumerate(sorted(self.entries, key=sort_key), 1):
            ranked.append(
                {
                    "rank": rank,
                    "policy": entry.policy,
                    "ways": entry.ways,
                    "defense": entry.defense,
                    "mode": entry.mode,
                    "capacity_hit_miss": (
                        None
                        if entry.mode == "refused"
                        else entry.capacity_limit("hit-miss")
                    ),
                    "capacity_victim_way": (
                        None
                        if entry.mode == "refused"
                        else entry.capacity_limit("victim-way")
                    ),
                }
            )
        return ranked

    def to_dict(self) -> Dict[str, Any]:
        return {
            "leakage_version": LEAKAGE_SCHEMA_VERSION,
            "eager_budget": self.eager_budget,
            "ways": list(self.ways),
            "defenses": list(self.defenses),
            "skipped": dict(self.skipped),
            "entries": [entry.to_dict() for entry in self.entries],
            "ranking": self.ranking(),
        }

    def to_canonical_json(self) -> str:
        """Deterministic serialization: sorted keys, fixed indentation.

        Every number in the report is either an integer or a 6-decimal
        rounding of ``log2`` of an integer, so two runs over the same
        code produce byte-identical artifacts on any platform.
        """
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    def render_table(self) -> str:
        """Human-readable ranked table for the CLI."""
        header = (
            f"{'rank':>4}  {'policy':<16} {'ways':>4}  {'defense':<13} "
            f"{'mode':<8} {'states':>7} {'absorbed':>8} "
            f"{'cap(hit/miss)':>13} {'cap(victim)':>11}"
        )
        lines = [header, "-" * len(header)]
        by_key = {
            (e.policy, e.ways, e.defense): e for e in self.entries
        }
        for row in self.ranking():
            entry = by_key[(row["policy"], row["ways"], row["defense"])]
            if entry.mode == "refused":
                absorbed = states = "-"
                cap_hm = cap_vw = "refused"
            else:
                states = str(entry.reachable_states) or "-"
                if entry.mode == "analytic":
                    states = "-"
                absorbed = str(entry.absorbed.get("hit-only-limit", "-"))
                cap_hm = f"{row['capacity_hit_miss']:.3f}"
                cap_vw = f"{row['capacity_victim_way']:.3f}"
            lines.append(
                f"{row['rank']:>4}  {entry.policy:<16} {entry.ways:>4}  "
                f"{entry.defense:<13} {entry.mode:<8} {states:>7} "
                f"{absorbed:>8} {cap_hm:>13} {cap_vw:>11}"
            )
        if self.skipped:
            lines.append("")
            for name in sorted(self.skipped):
                lines.append(f"skipped {name}: {self.skipped[name]}")
        return "\n".join(lines)


def analyze_matrix(
    policies: Optional[Sequence[str]] = None,
    ways: Sequence[int] = (4, 8),
    defenses: Sequence[str] = DEFENSES,
    eager_budget: Optional[int] = None,
) -> LeakageReport:
    """Analyze every requested policy x ways x defense cell.

    ``policies`` defaults to every registered policy
    (:data:`~repro.replacement.POLICY_REGISTRY`); engine aliases are
    skipped with a recorded reason rather than silently dropped.
    """
    from repro.replacement import POLICY_REGISTRY
    from repro.replacement.tables import EAGER_STATE_BUDGET

    if policies is None:
        policies = sorted(POLICY_REGISTRY)
    budget = EAGER_STATE_BUDGET if eager_budget is None else eager_budget
    skipped: Dict[str, str] = {}
    entries: List[PolicyLeakage] = []
    for policy in policies:
        if policy in SKIPPED_POLICIES:
            skipped[policy] = SKIPPED_POLICIES[policy]
            continue
        for w in ways:
            for defense in defenses:
                entries.append(
                    analyze_policy(
                        policy, w, defense=defense, eager_budget=budget
                    )
                )
    return LeakageReport(
        entries=entries,
        ways=tuple(ways),
        defenses=tuple(defenses),
        eager_budget=budget,
        skipped=skipped,
    )


# ----------------------------------------------------------------------
# Generated defense-matrix section in docs/DEFENSES.md
# ----------------------------------------------------------------------

#: Markers bracketing the generated matrix section in docs/DEFENSES.md.
DEFENSE_DOC_BEGIN = (
    "<!-- defense-matrix:begin (generated; edit repro/analysis/leakage.py) -->"
)
DEFENSE_DOC_END = "<!-- defense-matrix:end -->"

#: Associativities the generated static table covers (the simulator's
#: L1 is 8-way; 4-way shows the scaling).
DEFENSE_DOC_WAYS = (4, 8)


def _static_defense_rows(ways: Sequence[int]) -> List[str]:
    """One markdown row per registered defense design and associativity."""
    from repro.defenses.registry import DEFENSE_REGISTRY

    rows = []
    for design in DEFENSE_REGISTRY.values():
        # Randomized designs carry no analyzer policy: score the
        # baseline policy under the design's name to exercise (and
        # document) the structured refusal.
        policy = design.analyzer_policy or "tree-plru"
        defense = (
            design.name
            if design.name in RANDOMIZED_DEFENSES
            else design.analyzer_defense
        )
        for w in ways:
            entry = analyze_policy(policy, w, defense=defense)
            if entry.mode == "refused":
                cap_hm = cap_vw = "refused"
            else:
                cap_hm = f"{entry.capacity_limit('hit-miss'):.3f}"
                cap_vw = f"{entry.capacity_limit('victim-way'):.3f}"
            rows.append(
                f"| {design.name} | {design.kind} | {policy} | {w} | "
                f"{entry.mode} | {cap_hm} | {cap_vw} |"
            )
    return rows


def _dynamic_matrix_rows(baseline_path: str) -> List[str]:
    """The committed ``ext_randomized`` baseline as markdown rows."""
    with open(baseline_path) as handle:
        baseline = json.load(handle)
    rows = []
    for row in baseline["rows"]:
        design, channel, attacker, intensity, error, capacity = row
        rows.append(
            f"| {design} | {channel} | {attacker} | {intensity:g} | "
            f"{error:.4f} | {capacity:,.0f} |"
        )
    return rows


def defense_doc_markdown(
    baseline_path: str = "benchmarks/RANDOMIZED_baseline.json",
) -> str:
    """The generated section body for ``docs/DEFENSES.md``.

    Two tables: the static analyzer's verdict per registered defense
    design (capacity bounds in bits per transmission, or a structured
    refusal for the randomized designs), and the committed dynamic
    ``ext_randomized`` matrix (bit-error rate and the BSC capacity
    bound in bits per second).  CI checks both against the code — the
    first by recomputation, the second against the committed baseline
    that a pytest ties back to :func:`run_ext_randomized`.
    """
    lines = [
        "",
        "### Static analyzer verdicts "
        "(bits per transmission, recomputed)",
        "",
        "| design | kind | analyzer cell | ways | mode "
        "| cap (hit/miss) | cap (victim-way) |",
        "|---|---|---|---|---|---|---|",
    ]
    lines.extend(_static_defense_rows(DEFENSE_DOC_WAYS))
    lines.extend(
        [
            "",
            "### Dynamic evaluation matrix "
            "(`ext_randomized`, committed baseline)",
            "",
            "| design | channel | attacker | intensity "
            "| error rate | capacity bound (bps) |",
            "|---|---|---|---|---|---|",
        ]
    )
    lines.extend(_dynamic_matrix_rows(baseline_path))
    lines.append("")
    return "\n".join(lines)


def update_defense_doc(
    path: str,
    check: bool = False,
    baseline_path: str = "benchmarks/RANDOMIZED_baseline.json",
) -> bool:
    """Regenerate the defense-matrix section inside ``path``.

    Returns True when the doc was already current.  With ``check`` the
    file is never written (the CI docs-drift gate calls it this way,
    mirroring the OBSERVABILITY.md catalogue check).
    """
    return update_generated_section(
        path, DEFENSE_DOC_BEGIN, DEFENSE_DOC_END,
        defense_doc_markdown(baseline_path),
        check=check, error=LeakageAnalysisError,
    )


def diff_reports(
    current: Dict[str, Any], baseline: Dict[str, Any]
) -> List[str]:
    """Human-readable drift between two leakage report dicts.

    Compares schema version, the full ranking order, and every entry's
    exact metrics.  Returns an empty list when nothing drifted.  Used
    by the CLI ``--check`` flag so a policy or defense change that
    alters leakage rankings fails the build.
    """
    problems: List[str] = []
    cur_version = current.get("leakage_version")
    base_version = baseline.get("leakage_version")
    if cur_version != base_version:
        return [
            f"leakage schema version changed: baseline {base_version}, "
            f"current {cur_version}; regenerate the baseline"
        ]

    def rank_key(row):
        return (row["policy"], row["ways"], row["defense"])

    cur_rank = [rank_key(r) for r in current.get("ranking", [])]
    base_rank = [rank_key(r) for r in baseline.get("ranking", [])]
    if cur_rank != base_rank:
        problems.append(
            "leakage ranking order changed:\n"
            f"  baseline: {base_rank}\n"
            f"  current:  {cur_rank}"
        )

    def entry_map(report):
        return {
            (e["policy"], e["ways"], e["defense"]): e
            for e in report.get("entries", [])
        }

    cur_entries = entry_map(current)
    base_entries = entry_map(baseline)
    for key in sorted(set(base_entries) | set(cur_entries)):
        label = f"{key[0]}/ways={key[1]}/defense={key[2]}"
        if key not in cur_entries:
            problems.append(f"{label}: present in baseline, missing now")
            continue
        if key not in base_entries:
            problems.append(f"{label}: new cell not in baseline")
            continue
        cur_e, base_e = cur_entries[key], base_entries[key]
        for metric in (
            "mode",
            "table_states",
            "reachable_states",
            "flush_reachable_states",
            "distinguishable",
            "absorbed",
            "capacity_bits",
        ):
            if cur_e.get(metric) != base_e.get(metric):
                problems.append(
                    f"{label}: {metric} drifted from "
                    f"{base_e.get(metric)!r} to {cur_e.get(metric)!r}"
                )
    return problems
