"""Tests for the exhaustive Sequence-1 state-space query."""

import pytest

from repro.analysis.reachability import sequence1_worst_case
from repro.common.errors import ConfigurationError, LeakageAnalysisError


class TestSequence1WorstCase:
    def test_true_lru_always_one_iteration(self):
        """Section IV-C: 'true LRU will always evict line 0'."""
        result = sequence1_worst_case("lru", ways=4)
        assert result.worst_iterations == 1
        assert result.histogram == {1: result.states_checked}

    def test_tree_plru_bounded_by_three(self):
        """The exact bound behind Table I's 99.2% at 3 iterations."""
        result = sequence1_worst_case("tree-plru", ways=8)
        assert result.worst_iterations == 3
        assert result.claim_holds

    def test_bit_plru_bounded_by_exactly_ways(self):
        """The exact bound behind Table I's '100% at >= 8 iterations':
        Bit-PLRU's worst case is exactly the associativity."""
        result = sequence1_worst_case("bit-plru", ways=8)
        assert result.worst_iterations == 8
        assert result.claim_holds

    def test_bit_plru_four_way(self):
        result = sequence1_worst_case("bit-plru", ways=4)
        assert result.worst_iterations == 4

    def test_tree_plru_four_way(self):
        result = sequence1_worst_case("tree-plru", ways=4)
        assert result.worst_iterations <= 3

    def test_histogram_accounts_for_all_pairs(self):
        result = sequence1_worst_case("tree-plru", ways=8)
        assert sum(result.histogram.values()) == result.states_checked

    def test_state_counts(self):
        # Tree-PLRU: 2^7 states x 8 placements.
        assert sequence1_worst_case("tree-plru", ways=8).states_checked == 1024
        # Bit-PLRU: (2^8 - 1) reachable states x 8 placements.
        assert sequence1_worst_case("bit-plru", ways=8).states_checked == 2040

    @pytest.mark.parametrize(
        "policy, ways, error",
        [
            # Open tables: the refusal names the eager budget.
            ("srrip", 8, LeakageAnalysisError),
            # No transition tables at all.
            ("random", 4, ConfigurationError),
        ],
    )
    def test_unsupported_policy(self, policy, ways, error):
        with pytest.raises(error) as excinfo:
            sequence1_worst_case(policy, ways=ways)
        if error is LeakageAnalysisError:
            assert "eager budget" in str(excinfo.value)
            assert excinfo.value.eager_budget < excinfo.value.estimated_states

    def test_no_state_escapes(self):
        """claim_holds is the channel's reliability guarantee: every
        possible prior state converges to line-0 eviction."""
        for policy in ("tree-plru", "bit-plru"):
            assert sequence1_worst_case(policy, ways=8).claim_holds
