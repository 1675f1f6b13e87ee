"""Tests for the extension experiment modules and CSV export."""

import pytest

from repro.experiments import EXPERIMENT_REGISTRY
from repro.experiments.base import ExperimentResult


class TestExtensionRegistry:
    def test_all_extensions_registered(self):
        expected = {
            "ext_llc", "ext_side_channel", "ext_randomized_index",
            "ext_multiset", "ext_verify_table1", "ext_detector",
            "ext_coding",
        }
        assert expected <= set(EXPERIMENT_REGISTRY)


class TestExtVerifyTable1:
    def test_exact_bounds(self):
        result = EXPERIMENT_REGISTRY["ext_verify_table1"]()
        bounds = {row[0].split(" ")[0]: row[2] for row in result.rows}
        assert bounds["lru"] == 1
        assert bounds["tree-plru"] == 3
        assert bounds["bit-plru"] == 8


class TestExtDetector:
    def test_verdicts(self):
        result = EXPERIMENT_REGISTRY["ext_detector"]()
        verdicts = {row[0]: row[3] for row in result.rows}
        assert verdicts["F+R (mem) sender"] == "YES"
        assert verdicts["LRU Alg.1 sender"] == "no"
        assert verdicts["benign gcc-like process"] == "no"


class TestExtCoding:
    def test_coding_never_hurts_much_and_usually_helps(self, run):
        result = run("ext_coding")
        for row in result.rows:
            raw, coded = row[1], row[2]
            assert coded <= raw + 0.01
        # At the lowest noise point coding should clean up fully-ish.
        assert result.rows[0][2] <= result.rows[0][1] / 2


class TestExtRandomizedIndex:
    def test_defense_verdict(self):
        result = EXPERIMENT_REGISTRY["ext_randomized_index"]()
        labels = {row[0]: row[2] for row in result.rows}
        assert labels["baseline Tree-PLRU"] == "yes"
        assert labels["randomized index"] == "no"


class TestExtMultiset:
    def test_rounds_shrink_linearly_with_lanes(self):
        result = EXPERIMENT_REGISTRY["ext_multiset"]()
        rounds = {row[0]: row[1] for row in result.rows}
        assert rounds[1] == 8 * rounds[8] == 32 * rounds[32]
        assert all(row[2] == 1.0 for row in result.rows)


class TestExtSideChannel:
    def test_all_keys_recovered(self):
        result = EXPERIMENT_REGISTRY["ext_side_channel"]()
        assert all(row[0] == row[1] for row in result.rows)


class TestCSVExport:
    def test_to_csv_shape(self):
        result = ExperimentResult(
            experiment_id="x",
            title="t",
            columns=["a", "b"],
            rows=[[1, "two"], [3.5, "four"]],
        )
        lines = result.to_csv().strip().splitlines()
        assert lines[0] == "a,b"
        assert lines[1] == "1,two"
        assert len(lines) == 3

    def test_save_csv(self, tmp_path):
        result = ExperimentResult(
            experiment_id="x", title="t", columns=["a"], rows=[[1]]
        )
        path = tmp_path / "out.csv"
        result.save_csv(str(path))
        assert path.read_text().startswith("a")


class TestExtAlg2TimeSliced:
    def test_negative_result_reproduced(self, run):
        result = run("ext_alg2_timesliced")
        contrasts = {row[0]: float(row[3].rstrip("%")) for row in result.rows}
        # Algorithm 1 carries signal; Algorithm 2 does not (paper V-B).
        assert contrasts["Alg 1"] > 3 * contrasts["Alg 2"]
        assert contrasts["Alg 2"] < 10


class TestExtCapacity:
    def test_capacity_ordering(self):
        result = EXPERIMENT_REGISTRY["ext_capacity"]()
        rows = {row[0]: row for row in result.rows}
        healthy = rows["Alg 1, d=8"][3]
        defended = rows["Alg 1 vs random-replacement L1"][3]
        assert healthy > 0.9
        assert defended < 0.05
        # Hundreds of Kbps in rate terms (Table IV).
        assert rows["Alg 1, d=8"][4] > 100
        # Bad Tree-PLRU parity collapses capacity well below healthy.
        assert rows["Alg 2, d=4 (bad parity)"][3] < healthy / 4
