"""Static leakage analyzer vs. ground truth.

Three kinds of evidence that the zero-simulation metrics are right:

* **Known exact values** — LRU's state space is the 4! = 24 orderings,
  tree-PLRU has exactly 2^(ways-1) states, FIFO absorbs nothing from
  hits.  These are checkable by hand from the paper.
* **Differential Monte-Carlo / exhaustive-reference checks** — the
  *reference* policy objects (not the tables) are driven through the
  paper's Algorithm 1 protocol and through exhaustive hits-only
  exploration; the empirical mutual information and absorbed-state
  counts must agree with the static bounds within tolerance.
* **Determinism and refusal contracts** — canonical JSON is
  byte-identical across runs and matches the committed baseline; open
  tables are refused, never silently approximated.
"""

import json
import pathlib
import random

import pytest

from repro.analysis.leakage import (
    ANALYTIC_POLICIES,
    LEAKAGE_SCHEMA_VERSION,
    LeakageReport,
    analyze_matrix,
    analyze_policy,
    diff_reports,
)
from repro.analysis.reachability import (
    DEFENSES,
    absorbed_levels,
    build_system,
    hitmiss_observer_partition,
    resting_reachable_count,
    victim_observer_partition,
)
from repro.channels.capacity import BinaryChannelStats
from repro.common.errors import ConfigurationError, LeakageAnalysisError
from repro.replacement import POLICY_REGISTRY, make_policy
from repro.replacement.tables import (
    EAGER_STATE_BUDGET,
    TABLEABLE_POLICIES,
    clear_table_cache,
    compile_tables,
)

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
BASELINE = REPO_ROOT / "benchmarks" / "LEAKAGE_baseline.json"

#: Paper policies that leak through the hit channel at 4 ways.
LEAKY = ("lru", "tree-plru", "bit-plru", "srrip")


def _fill(policy, way):
    """Model a fill: FIFO/SRRIP split fills from hits via on_fill."""
    on_fill = getattr(policy, "on_fill", None)
    (on_fill or policy.touch)(way)


def _prepare(name, ways, rng=None):
    """Algorithm 1 prime: target first (way 0), then the other ways."""
    kwargs = {"rng": rng.randrange(2**31)} if name == "random" else {}
    policy = make_policy(name, ways, **kwargs)
    for w in range(ways):
        _fill(policy, w)
    return policy


class TestExactKnownValues:
    """Spot values checkable by hand against the paper / CKR."""

    def test_lru4_state_space_is_permutations(self):
        entry = analyze_policy("lru", 4)
        assert entry.mode == "exact"
        assert entry.reachable_states == 24  # 4! recency orderings
        # Every ordering is distinguishable by watching victim ways:
        assert entry.distinguishable["victim-way"] == 24
        assert entry.capacity_limit("victim-way") == pytest.approx(
            4.584963, abs=1e-5
        )
        # The timing receiver resolves target depth: log2(ways) bits.
        assert entry.capacity_limit("hit-miss") == pytest.approx(2.0)

    def test_tree_plru4_state_space_is_tree_bits(self):
        entry = analyze_policy("tree-plru", 4)
        assert entry.reachable_states == 8  # 2^(ways-1) tree bits
        assert entry.distinguishable["victim-way"] == 8
        assert entry.capacity_limit("victim-way") == pytest.approx(3.0)

    def test_fifo_hits_absorb_nothing(self):
        entry = analyze_policy("fifo", 4)
        # FIFO ignores hits entirely: the stealth sender cannot move
        # the state, so both channels carry zero bits (Section IX-A).
        assert entry.absorbed["hit-only-limit"] == 1
        assert entry.capacity_limit("hit-miss") == 0.0
        assert entry.capacity_limit("victim-way") == 0.0

    def test_no_hit_update_closes_the_hit_channel(self):
        for name in LEAKY:
            entry = analyze_policy(name, 4, defense="no-hit-update")
            assert entry.capacity_limit("hit-miss") == 0.0, name
            assert entry.capacity_limit("victim-way") == 0.0, name
            assert entry.absorbed["hit-only-limit"] == 1, name

    def test_capacity_series_is_monotone_and_bounded(self):
        for name in LEAKY:
            entry = analyze_policy(name, 4)
            series = entry.capacity_bits["hit-miss"]
            assert series == sorted(series), name
            assert series[-1] <= entry.state_bits, name

    def test_analytic_policies_have_zero_capacity(self):
        for name in ANALYTIC_POLICIES:
            entry = analyze_policy(name, 4)
            assert entry.mode == "analytic"
            assert entry.capacity_limit("hit-miss") == 0.0
            assert entry.capacity_limit("victim-way") == 0.0
            assert entry.notes


class TestDifferentialMonteCarlo:
    """The reference policy objects agree with the static metrics."""

    @pytest.mark.parametrize("name", LEAKY + ("fifo",))
    @pytest.mark.parametrize("ways", [4])
    def test_absorbed_states_match_exhaustive_reference(self, name, ways):
        """Exhaustive hits-only BFS over *reference* policies matches
        the absorbed-secret levels computed from the tables."""
        system = build_system(name, ways)
        hm = hitmiss_observer_partition(system)
        levels, _ = absorbed_levels(system, hm.start_state, "touch")

        # Reference start: prime ways 0..ways-1, then one miss
        # installing the target (exactly the canonical prepare).
        policy = make_policy(name, ways)
        for w in range(ways):
            _fill(policy, w)
        victim = policy.victim()
        _fill(policy, victim)

        seen = {policy.state_snapshot()}
        frontier = [policy.state_snapshot()]
        ref_levels = [1]
        while frontier:
            nxt = []
            for snapshot in frontier:
                for w in range(ways):
                    policy.state_restore(snapshot)
                    policy.touch(w)
                    after = policy.state_snapshot()
                    if after not in seen:
                        seen.add(after)
                        nxt.append(after)
            frontier = nxt
            if nxt:
                ref_levels.append(len(seen))
        assert ref_levels == levels

    @pytest.mark.parametrize("name", LEAKY)
    def test_leaky_policies_decode_algorithm1(self, name):
        """The paper's Algorithm 1 receiver extracts ~1 bit/use from
        every policy the static analyzer calls leaky."""
        mi = self._channel_mi(name)
        assert mi >= 0.9, f"{name}: MI {mi:.3f} below decode threshold"

    @pytest.mark.parametrize("name", ["fifo", "random"])
    def test_capacity_zero_policies_do_not_decode(self, name):
        mi = self._channel_mi(name)
        assert mi <= 0.05, f"{name}: MI {mi:.3f} but static capacity is 0"

    @pytest.mark.parametrize("name", LEAKY + ("fifo", "random"))
    def test_empirical_mi_within_static_bound(self, name):
        """MC mutual information never exceeds the static capacity
        upper bound (plus estimation tolerance)."""
        entry = analyze_policy(name, 4)
        static = (
            0.0
            if entry.mode != "exact"
            else entry.capacity_limit("hit-miss")
        )
        mi = self._channel_mi(name)
        assert mi <= static + 0.05, (
            f"{name}: MC MI {mi:.3f} exceeds static bound {static:.3f}"
        )

    @staticmethod
    def _channel_mi(name, ways=4, trials=400, seed=1234):
        """Empirical MI of the Algorithm 1 channel at one bit/use.

        Sender encodes 1 by re-touching the shared target (a hit — the
        stealth sender), 0 by staying silent.  The receiver then evicts
        ``ways - 1`` fresh lines and checks whether the target
        survived.
        """
        rng = random.Random(seed)
        sent = [rng.randrange(2) for _ in range(trials)]
        decoded = []
        for bit in sent:
            policy = _prepare(name, ways, rng)
            if bit:
                policy.touch(0)
            evicted = False
            for _ in range(ways - 1):
                victim = policy.victim()
                _fill(policy, victim)
                if victim == 0:
                    evicted = True
            decoded.append(0 if evicted else 1)
        return BinaryChannelStats.from_bits(
            sent, decoded
        ).mutual_information()


class TestObservationEquivalence:
    """Partition-refinement classes are genuinely indistinguishable."""

    @pytest.mark.parametrize("name", ["lru", "tree-plru", "srrip"])
    def test_equivalent_states_yield_identical_victim_traces(self, name):
        """Any two states the victim-way observer cannot distinguish
        produce identical victim sequences under random probing."""
        system = build_system(name, 4)
        block, classes = victim_observer_partition(system)
        by_class = {}
        for state, cls in enumerate(block):
            by_class.setdefault(cls, []).append(state)
        rng = random.Random(99)
        pairs = [
            states[:2] for states in by_class.values() if len(states) >= 2
        ]
        if not pairs:
            assert classes == system.n  # fully distinguishable
            return
        for a, b in pairs:
            for _ in range(20):
                sa, sb = a, b
                for _ in range(12):
                    if rng.randrange(2):
                        w = rng.randrange(system.ways)
                        sa = system.touch_to(sa, w)
                        sb = system.touch_to(sb, w)
                    else:
                        assert (
                            system.victim_way[sa] == system.victim_way[sb]
                        )
                        sa = system.evict_to[sa]
                        sb = system.evict_to[sb]

    def test_lru_distinguishable_count_matches_depth(self):
        """For LRU the hit/miss receiver learns exactly the target's
        recency depth — ways distinct classes, not ways! states."""
        system = build_system("lru", 4)
        hm = hitmiss_observer_partition(system)
        assert hm.classes_over_states == 4


class TestGoldenDeterminism:
    """Canonical JSON is reproducible and matches the committed
    baseline artifact."""

    def test_two_runs_are_byte_identical(self):
        first = analyze_matrix(ways=(4,)).to_canonical_json()
        clear_table_cache()
        second = analyze_matrix(ways=(4,)).to_canonical_json()
        assert first == second

    def test_matches_committed_baseline(self):
        assert BASELINE.exists(), (
            "benchmarks/LEAKAGE_baseline.json missing; regenerate with "
            "PYTHONPATH=src python -m repro.analysis leakage "
            "--json benchmarks/LEAKAGE_baseline.json"
        )
        baseline = json.loads(BASELINE.read_text())
        current = analyze_matrix().to_dict()
        assert diff_reports(current, baseline) == []

    def test_diff_reports_flags_drift(self):
        report = analyze_matrix(policies=["lru"], ways=(4,)).to_dict()
        drifted = json.loads(json.dumps(report))
        drifted["entries"][0]["reachable_states"] += 1
        problems = diff_reports(drifted, report)
        assert any("reachable_states" in p for p in problems)

    def test_diff_reports_refuses_cross_version(self):
        report = analyze_matrix(policies=["fifo"], ways=(4,)).to_dict()
        older = json.loads(json.dumps(report))
        older["leakage_version"] = LEAKAGE_SCHEMA_VERSION - 1
        problems = diff_reports(report, older)
        assert problems and "version" in problems[0]

    def test_ranking_reproduces_paper_defense_ordering(self):
        """Section IX qualitatively: plain LRU-family policies leak,
        FIFO/random/partitioning and no-hit-update do not."""
        report = analyze_matrix(ways=(4,))
        cap = {
            (r["policy"], r["defense"]): r["capacity_hit_miss"]
            for r in report.ranking()
        }
        for name in LEAKY:
            assert cap[(name, "none")] > 0.0, name
            assert cap[(name, "no-hit-update")] == 0.0, name
        for name in ("fifo", "random", "partitioned-plru"):
            assert cap[(name, "none")] == 0.0, name


class TestRefusals:
    """Open tables are refused with a structured, actionable error."""

    def test_lru8_refused_at_default_budget(self):
        entry = analyze_policy("lru", 8)
        assert entry.mode == "refused"
        assert "40320" in entry.refusal  # 8! states
        assert str(EAGER_STATE_BUDGET) in entry.refusal
        assert entry.capacity_bits == {}

    def test_raising_the_budget_unlocks_exact_analysis(self):
        entry = analyze_policy("lru", 8, eager_budget=40320)
        assert entry.mode == "exact"
        assert entry.reachable_states == 40320
        # Victim-way capacity saturates at log2(8!) bits — the paper's
        # "LRU state encodes the full permutation" observation.
        assert entry.capacity_limit("victim-way") == pytest.approx(
            15.299208, abs=1e-5
        )
        assert entry.capacity_limit("hit-miss") == pytest.approx(3.0)

    def test_build_system_raises_structured_error(self):
        with pytest.raises(LeakageAnalysisError) as excinfo:
            build_system("lru", 16)
        error = excinfo.value
        assert error.policy == "lru"
        assert error.ways == 16
        assert error.estimated_states > error.eager_budget

    def test_unknown_policy_and_defense_raise(self):
        with pytest.raises(ConfigurationError):
            analyze_policy("clairvoyant", 4)
        with pytest.raises(ConfigurationError):
            analyze_policy("lru", 4, defense="prayer")
        with pytest.raises(ConfigurationError):
            analyze_policy("tabled", 4)  # engine alias, not a policy

    def test_resting_reachability_refuses_open_tables(self):
        with pytest.raises(LeakageAnalysisError):
            resting_reachable_count("srrip", 8)


class TestTableMemoization:
    """Satellite: the compile_tables memo key covers constructor
    parameters, so distinct configurations never share tables."""

    def setup_method(self):
        clear_table_cache()

    def test_default_and_explicit_params_share_one_compilation(self):
        implicit = compile_tables("srrip", 4)
        explicit = compile_tables("srrip", 4, rrpv_bits=2)
        assert implicit is explicit

    def test_distinct_params_get_distinct_tables(self):
        two = compile_tables("srrip", 4, rrpv_bits=2)
        three = compile_tables("srrip", 4, rrpv_bits=3)
        assert two is not three
        assert three.state_count > two.state_count

    def test_unknown_kwarg_is_a_configuration_error(self):
        with pytest.raises(ConfigurationError):
            compile_tables("lru", 4, wayz=7)

    def test_unhashable_kwarg_is_a_configuration_error(self):
        with pytest.raises(ConfigurationError):
            compile_tables("srrip", 4, rrpv_bits=[2])

    def test_is_closed_reflects_compilation_mode(self):
        assert compile_tables("lru", 4).is_closed
        assert not compile_tables("lru", 8, eager_budget=16).is_closed

    def test_budget_is_part_of_the_key(self):
        small = compile_tables("lru", 4, eager_budget=64)
        default = compile_tables("lru", 4)
        assert small is not default

    def test_repeat_calls_skip_signature_binding(self, monkeypatch):
        from repro.replacement import tables as tables_module

        binds = []
        bind = tables_module._effective_parameters

        def counting_bind(*args):
            binds.append(args[0])
            return bind(*args)

        monkeypatch.setattr(tables_module, "_effective_parameters", counting_bind)
        first = compile_tables("srrip", 4, rrpv_bits=2)
        for _ in range(5):
            assert compile_tables("srrip", 4, rrpv_bits=2) is first
        assert binds == ["srrip"]
        # A differently spelled call binds once, then shares the table.
        assert compile_tables("srrip", 4) is first
        assert binds == ["srrip", "srrip"]

    def test_errors_repeat_on_every_call(self):
        for _ in range(2):
            with pytest.raises(ConfigurationError):
                compile_tables("lru", 4, wayz=7)
            with pytest.raises(ConfigurationError):
                compile_tables("srrip", 4, rrpv_bits=[2])
            with pytest.raises(ConfigurationError):
                compile_tables("no-such-policy", 4)

    def test_clear_drops_the_call_memo(self):
        before = compile_tables("tree-plru", 4)
        clear_table_cache()
        assert compile_tables("tree-plru", 4) is not before


class TestMatrixContract:
    """analyze_matrix covers the registry and stays consistent with
    the wire protocol."""

    def test_every_registered_policy_is_accounted_for(self):
        report = analyze_matrix(ways=(4,))
        covered = {e.policy for e in report.entries} | set(report.skipped)
        assert covered == set(POLICY_REGISTRY)

    def test_tableable_and_analytic_policies_do_not_overlap(self):
        assert not set(TABLEABLE_POLICIES) & set(ANALYTIC_POLICIES)

    def test_protocol_defenses_mirror_analysis_defenses(self):
        from repro.analysis.leakage import RANDOMIZED_DEFENSES
        from repro.service.protocol import ANALYZE_DEFENSES

        assert tuple(ANALYZE_DEFENSES) == tuple(DEFENSES) + tuple(
            RANDOMIZED_DEFENSES
        )

    def test_report_roundtrips_through_json(self):
        report = analyze_matrix(policies=["lru", "fifo"], ways=(4,))
        data = json.loads(report.to_canonical_json())
        assert data["leakage_version"] == LEAKAGE_SCHEMA_VERSION
        assert len(data["entries"]) == len(report.entries)
        assert [r["rank"] for r in data["ranking"]] == list(
            range(1, len(report.entries) + 1)
        )

    def test_render_table_lists_every_cell(self):
        report = analyze_matrix(ways=(4,))
        table = report.render_table()
        for entry in report.entries:
            assert entry.policy in table
        assert "skipped tabled" in table


def test_leakage_report_dataclass_sorts_refused_last():
    report = analyze_matrix(policies=["lru"], ways=(4, 8))
    assert isinstance(report, LeakageReport)
    ranking = report.ranking()
    assert ranking[-1]["mode"] == "refused"
    assert ranking[-1]["capacity_hit_miss"] is None
