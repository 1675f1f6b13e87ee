"""Tests for the experiment modules (fast-parameter smoke + key claims).

Slow sweeps run with reduced trial counts here.  The claims on the
full-fidelity runs of the slowest experiments are checked against their
committed EXPERIMENTS.md blocks in tests/test_docs.py.
"""

import pytest

from repro.experiments import EXPERIMENT_REGISTRY
from repro.experiments.base import ExperimentResult
from repro.experiments.table1 import PAPER_TABLE1, eviction_probability
from repro.sim.specs import AMD_EPYC_7571, INTEL_E3_1245V5, INTEL_E5_2690


@pytest.fixture(scope="module")
def run():
    """Run a registered experiment at most once per module."""
    results = {}

    def get(experiment_id):
        if experiment_id not in results:
            results[experiment_id] = EXPERIMENT_REGISTRY[experiment_id]()
        return results[experiment_id]

    return get


class TestRegistry:
    def test_every_paper_experiment_registered(self):
        expected = {
            "table1", "table2", "table4", "table5", "table6", "table7",
            "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
            "fig11", "fig13", "fig14", "fig15",
        }
        assert expected <= set(EXPERIMENT_REGISTRY)


class TestTable1:
    def test_lru_always_evicts(self):
        for iterations in (1, 2, 3, 8):
            for seq in (1, 2):
                for cond in ("random", "sequential"):
                    p = eviction_probability(
                        "lru", seq, cond, iterations, trials=150, rng=1
                    )
                    assert p == 1.0

    def test_tree_plru_seq1_random_matches_paper(self):
        """Compare the most-cited Table I column within tolerance."""
        for iters, expected in [(1, 0.504), (2, 0.828), (3, 0.992)]:
            ours = eviction_probability(
                "tree-plru", 1, "random", iters, trials=400, rng=1
            )
            assert ours == pytest.approx(expected, abs=0.08)

    def test_tree_plru_seq2_plateaus_below_one(self):
        """Sequence 2 under Tree-PLRU converges to ~62%, never 100%."""
        p = eviction_probability(
            "tree-plru", 2, "sequential", iterations=8, trials=300, rng=1
        )
        assert 0.4 < p < 0.8

    def test_bit_plru_converges_to_certainty(self):
        p = eviction_probability(
            "bit-plru", 1, "random", iterations=8, trials=300, rng=1
        )
        assert p > 0.95

    def test_sequential_condition_not_worse_seq1(self):
        random_p = eviction_probability(
            "tree-plru", 1, "random", 2, trials=300, rng=1
        )
        seq_p = eviction_probability(
            "tree-plru", 1, "sequential", 2, trials=300, rng=1
        )
        assert seq_p >= random_p - 0.05

    def test_paper_reference_values_present(self):
        assert PAPER_TABLE1[("tree-plru", 1, "random", 1)] == 0.504


class TestFastExperiments:
    @pytest.mark.parametrize("eid", ["table2", "table5", "fig11"])
    def test_runs_and_renders(self, run, eid):
        result = run(eid)
        assert isinstance(result, ExperimentResult)
        assert result.rows
        text = result.render()
        assert result.title in text

    def test_table2_latencies_match_spec(self, run):
        result = run("table2")
        assert len(result.rows) == 3
        by_machine = {row[0]: row for row in result.rows}
        assert by_machine["AMD EPYC 7571"][3] == 17.0
        assert by_machine["Intel Xeon E5-2690"][3] == 12.0

    def test_table5_ordering_claim(self, run):
        """LRU encode < F+R(L1) < F+R(mem) on every machine."""
        result = run("table5")
        for row in result.rows:
            fr_mem, fr_l1, lru = row[1], row[3], row[5]
            # On AMD the way-predictor penalty makes the LRU encode
            # nearly equal to F+R(L1) (paper: 52 vs 56 cycles).
            assert lru <= fr_l1 < fr_mem

    def test_fig11_contrast(self, run):
        result = run("fig11")
        by_design = {row[0]: row for row in result.rows}
        assert by_design["original PL"][1] == 1.0
        assert by_design["PL + LRU lock"][2] is True


class TestFig3AndFig13:
    def test_fig3_separable(self):
        from repro.experiments.fig3 import measure_chase_histograms

        hists = measure_chase_histograms(INTEL_E5_2690, samples=300)
        assert hists.separability > 0.9
        assert hists.miss.mode() > hists.hit.mode()
        # AMD's coarse timer widens both peaks, but they stay apart.
        amd = measure_chase_histograms(AMD_EPYC_7571, samples=300)
        assert amd.miss.mode() > amd.hit.mode()

    def test_fig13_overlapping(self):
        from repro.experiments.fig13 import rdtscp_histograms

        for spec in (INTEL_E5_2690, AMD_EPYC_7571):
            l1_hist, l2_hist, mem_hist = rdtscp_histograms(spec, samples=300)
            assert l1_hist.overlap(l2_hist) > 0.8, spec.name
            assert mem_hist.mode() > l1_hist.mode() + 100, spec.name


class TestFig5Trace:
    def test_contrast_present_for_both_algorithms(self):
        from repro.experiments.fig5 import alternating_trace

        # Fig 14 is Fig 5 on the E3-1245 v5 (Appendix B).
        for spec in (INTEL_E5_2690, INTEL_E3_1245V5):
            for algorithm in (1, 2):
                trace = alternating_trace(spec, algorithm, bits=12)
                assert trace.block_contrast > 2.0


class TestFig9:
    def test_cpi_overhead_under_two_percent(self, run):
        result = run("fig9")
        geomean_row = result.rows[-1]
        assert geomean_row[0] == "GEOMEAN"
        assert float(geomean_row[4]) < 1.02
        assert float(geomean_row[5]) < 1.02


class TestSpectreExperiment:
    def test_table7_all_variants_recover(self, run):
        result = run("table7")
        for row in result.rows:
            assert row[4] == "100%"

    def test_table7_fr_mem_l2_heavier(self, run):
        result = run("table7")
        e5 = [r for r in result.rows if "E5-2690" in r[0]]
        rates = {r[1]: float(r[3].rstrip("%")) for r in e5}
        assert rates["flush_reload"] > rates["lru_alg1"]
