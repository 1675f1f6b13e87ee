"""The one generated-section rewriter behind both doc-drift gates."""

import pathlib

import pytest

from repro.analysis.leakage import update_defense_doc
from repro.common.errors import LeakageAnalysisError, ReproError
from repro.common.gendoc import update_generated_section

BEGIN = "<!-- gen:begin -->"
END = "<!-- gen:end -->"
BASELINE = (
    pathlib.Path(__file__).resolve().parents[2]
    / "benchmarks"
    / "RANDOMIZED_baseline.json"
)


def _doc(tmp_path, body="stale"):
    path = tmp_path / "DOC.md"
    path.write_text(f"intro\n{BEGIN}\n{body}\n{END}\ntail\n")
    return path


def test_rewrites_only_the_section(tmp_path):
    path = _doc(tmp_path)
    assert update_generated_section(str(path), BEGIN, END, "fresh") is False
    assert path.read_text() == f"intro\n{BEGIN}\nfresh\n{END}\ntail\n"
    assert update_generated_section(str(path), BEGIN, END, "fresh") is True


def test_check_mode_never_writes(tmp_path):
    path = _doc(tmp_path)
    assert not update_generated_section(
        str(path), BEGIN, END, "fresh", check=True
    )
    assert "stale" in path.read_text()


def test_missing_markers_raise_the_callers_error(tmp_path):
    path = tmp_path / "DOC.md"
    path.write_text(f"{END}\n{BEGIN}\n")  # markers out of order
    with pytest.raises(ReproError, match="markers"):
        update_generated_section(str(path), BEGIN, END, "x")
    with pytest.raises(LeakageAnalysisError, match="markers"):
        update_defense_doc(str(path), check=True, baseline_path=str(BASELINE))
