"""Report rendering: blocks, summaries, JSONL parsing, golden output."""

import json
import os

import pytest

from repro.common.atomicio import seal_jsonl
from repro.common.errors import CheckpointCorruptWarning, ObservabilityError
from repro.experiments.base import ExperimentResult
from repro.obs.catalog import catalog_markdown
from repro.obs.manifest import RunManifest
from repro.obs.report import (
    CATALOG_BEGIN,
    CATALOG_END,
    experiment_block,
    metrics_summary_line,
    read_records,
    render_report,
    update_catalog_doc,
)

GOLDEN = os.path.join(os.path.dirname(__file__), "golden_report.md")


def _result():
    return ExperimentResult(
        experiment_id="fig4",
        title="Figure 4: error rate vs transmission rate",
        columns=["d", "error"],
        rows=[[4, 0.05], [8, 0.02]],
        paper_expectation="errors stay under 15%.",
    )


def _manifest():
    return RunManifest(
        experiment_id="fig4",
        seed=7,
        machines=[{"spec": "Intel Xeon E5-2690", "count": 1}],
        engine="reference",
        package_version="1.0.0",
        git_rev="abc1234",
        python_version="3.11.0",
    )


def _metrics():
    return {
        "counters": {
            "cache.l1.hits": 100,
            "cache.fills": {"L1D": 10, "L2": 4},
            "channel.bits.sent": 8,
        },
        "gauges": {"channel.threshold": 8},
        "histograms": {
            "access.latency": {
                "edges": [4.0, 8.0],
                "counts": [90, 10, 0],
                "count": 100,
                "sum": 440.0,
            }
        },
    }


def sample_records():
    """The synthetic trace the golden file renders (kept tiny on
    purpose: regenerate with
    ``python tests/test_obs/regen_golden.py`` after format changes)."""
    return [
        {
            "type": "run",
            "experiment_ids": ["fig4"],
            "package_version": "1.0.0",
            "git_rev": "abc1234",
            "python_version": "3.11.0",
            "engine": "reference",
            "jobs": 1,
            "sanitize": False,
            "summary": "1 ok, 0 failed",
        },
        dict(_manifest().to_dict(), type="manifest"),
        {"type": "result", "experiment_id": "fig4",
         "result": _result().to_dict()},
        {"type": "metrics", "experiment_id": "fig4", "metrics": _metrics()},
        {"type": "span_start", "name": "experiment", "id": 1, "seq": 0,
         "experiment_id": "fig4"},
        {"type": "event", "name": "channel.bit", "bit": 1, "cycle": 600,
         "span": 1, "seq": 1, "experiment_id": "fig4"},
        {"type": "span_end", "name": "experiment", "id": 1, "seq": 2,
         "experiment_id": "fig4"},
    ]


class TestSummaryLine:
    def test_orders_and_skips_zero_counters(self):
        line = metrics_summary_line(
            {"counters": {"cache.l1.hits": 3, "cache.l1.misses": 0,
                          "channel.bits.sent": 8}}
        )
        assert line == "_metrics: cache.l1.hits=3 · channel.bits.sent=8_"

    def test_labelled_counters_are_summed(self):
        line = metrics_summary_line(
            {"counters": {"cache.evictions": {"lru": 10, "tree-plru": 4}}}
        )
        assert "cache.evictions=14" in line

    def test_empty_metrics(self):
        assert metrics_summary_line(None) == "_metrics: none recorded_"
        assert metrics_summary_line({}) == "_metrics: none recorded_"


class TestExperimentBlock:
    def test_shape(self):
        block = experiment_block(_result(), _manifest(), _metrics())
        lines = block.splitlines()
        assert lines[0] == "### fig4"
        assert lines[2] == "```"
        assert block.endswith(
            "_metrics: cache.l1.hits=100 · channel.bits.sent=8_\n"
        )
        assert "_run: seed 7 · Intel Xeon E5-2690 · " in block
        # provenance (engine included) never in blocks
        assert "abc1234" not in block
        assert "reference" not in block

    def test_manifest_optional(self):
        block = experiment_block(_result())
        assert "_run:" not in block
        assert "_metrics: none recorded_" in block


def _sealed_trace(records):
    """Serialize records the way the runner writes a trace."""
    return seal_jsonl([json.dumps(r) for r in records])


class TestReadRecords:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "run.jsonl"
        records = sample_records()
        path.write_text(_sealed_trace(records))
        assert read_records(str(path)) == records

    def test_bad_json_reports_line_and_quarantines(self, tmp_path):
        # Only a writer bug can seal a body that is not JSONL; the read
        # still names the line.
        path = tmp_path / "run.jsonl"
        path.write_text(seal_jsonl(['{"type": "run"}', "not json"]))
        with pytest.warns(CheckpointCorruptWarning):
            with pytest.raises(ObservabilityError, match=":2:"):
                read_records(str(path))
        assert not path.exists()
        assert (tmp_path / "run.jsonl.corrupt").exists()

    def test_empty_file_is_quarantined(self, tmp_path):
        # A torn write can publish an empty file: it has no footer.
        path = tmp_path / "run.jsonl"
        path.write_text("\n")
        with pytest.warns(CheckpointCorruptWarning):
            with pytest.raises(ObservabilityError, match="trace-footer"):
                read_records(str(path))
        assert (tmp_path / "run.jsonl.corrupt").exists()


class TestTraceFooter:
    def test_valid_footer_verified_and_stripped(self, tmp_path):
        path = tmp_path / "run.jsonl"
        records = sample_records()
        path.write_text(_sealed_trace(records))
        assert read_records(str(path)) == records

    def test_footerless_trace_is_rejected(self, tmp_path):
        # Footer-less traces are not read as a legacy format: a trace cut
        # at a record boundary looks exactly like one.
        path = tmp_path / "run.jsonl"
        records = sample_records()
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        with pytest.warns(CheckpointCorruptWarning, match="trace-footer"):
            with pytest.raises(ObservabilityError, match="trace-footer"):
                read_records(str(path))
        assert not path.exists()
        assert (tmp_path / "run.jsonl.corrupt").exists()

    def test_footer_only_file_is_empty(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text(seal_jsonl([]))
        with pytest.raises(ObservabilityError, match="empty trace"):
            read_records(str(path))

    def test_executor_stats_rendered_from_header(self):
        records = sample_records()
        records[0] = dict(
            records[0],
            executor={
                "workers_spawned": 2,
                "workers_crashed": 3,
                "workers_killed_deadline": 1,
                "workers_killed_heartbeat": 0,
                "tasks_requeued": 2,
                "tasks_quarantined": 1,
            },
        )
        rendered = render_report(records)
        assert (
            "_executor: crashed 3 · requeued 2 · quarantined 1 · "
            "deadline-kills 1 · heartbeat-kills 0_" in rendered
        )

    def test_no_executor_line_without_header_stats(self):
        assert "_executor:" not in render_report(sample_records())


class TestGoldenReport:
    def test_render_matches_golden(self):
        with open(GOLDEN) as handle:
            golden = handle.read()
        assert render_report(sample_records()) + "\n" == golden

    def test_report_block_identical_to_doc_block(self):
        # The one invariant everything hangs off: report and generator
        # share the formatter byte-for-byte.
        rendered = render_report(sample_records())
        assert experiment_block(_result(), _manifest(), _metrics()) in rendered


class TestCatalogDoc:
    def _doc(self, tmp_path, body="stale"):
        path = tmp_path / "OBS.md"
        path.write_text(
            f"intro\n\n{CATALOG_BEGIN}\n{body}\n{CATALOG_END}\n\ntail\n"
        )
        return str(path)

    def test_update_rewrites_section_only(self, tmp_path):
        path = self._doc(tmp_path)
        assert update_catalog_doc(path) is False  # was stale
        with open(path) as handle:
            text = handle.read()
        assert catalog_markdown() in text
        assert text.startswith("intro\n")
        assert text.endswith("\ntail\n")
        assert update_catalog_doc(path) is True  # now current

    def test_check_mode_never_writes(self, tmp_path):
        path = self._doc(tmp_path)
        assert update_catalog_doc(path, check=True) is False
        with open(path) as handle:
            assert "stale" in handle.read()

    def test_missing_markers_rejected(self, tmp_path):
        path = tmp_path / "OBS.md"
        path.write_text("no markers here\n")
        with pytest.raises(ObservabilityError, match="markers"):
            update_catalog_doc(str(path))
        assert path.read_text() == "no markers here\n"

    def test_committed_doc_is_current(self):
        repo_root = os.path.dirname(os.path.dirname(os.path.dirname(GOLDEN)))
        doc = os.path.join(repo_root, "docs", "OBSERVABILITY.md")
        assert update_catalog_doc(doc, check=True) is True
