"""End-to-end: run --trace → report reproduces the EXPERIMENTS.md block
verbatim, and checkpoints round-trip the observability capture."""

import json
import os
import re

import repro.experiments  # noqa: F401 - populates the registry
from repro.experiments.runner import ExperimentRunner
from repro.obs.report import (
    RunRecords,
    experiment_block,
    read_records,
    render_report,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def committed_block(experiment_id):
    with open(os.path.join(REPO_ROOT, "EXPERIMENTS.md")) as handle:
        text = handle.read()
    match = re.search(
        rf"^### {experiment_id}\n.*?(?=^### |\Z)",
        text,
        re.MULTILINE | re.DOTALL,
    )
    assert match, f"no committed block for {experiment_id}"
    return match.group(0).rstrip("\n") + "\n"


class TestTraceToReport:
    def test_trace_artifact_regenerates_committed_block(self, tmp_path):
        trace = str(tmp_path / "run.jsonl")
        runner = ExperimentRunner(trace_path=trace)
        report = runner.run_many(["table2"])
        assert report.ok
        assert runner.write_trace(report, ["table2"]) == trace

        records = read_records(trace)
        run = RunRecords(records)
        block = experiment_block(
            run.results["table2"],
            run.manifests["table2"],
            run.metrics["table2"],
        )
        assert block == committed_block("table2")
        # the full rendered report embeds the same bytes
        assert block in render_report(records)

    def test_trace_stream_shape(self, tmp_path):
        trace = str(tmp_path / "run.jsonl")
        runner = ExperimentRunner(trace_path=trace)
        report = runner.run_many(["table2"])
        runner.write_trace(report, ["table2"])
        records = read_records(trace)
        assert records[0]["type"] == "run"
        assert records[0]["experiment_ids"] == ["table2"]
        kinds = {record["type"] for record in records}
        assert {"run", "manifest", "result", "metrics"} <= kinds
        for record in records:
            if record["type"] in ("event", "span_start", "span_end"):
                assert record["experiment_id"] == "table2"

    def test_observe_without_trace_skips_artifact(self, tmp_path):
        runner = ExperimentRunner(observe=True)
        report = runner.run_many(["table2"])
        assert runner.write_trace(report, ["table2"]) is None
        capture = runner.captures["table2"]
        assert capture.manifest.experiment_id == "table2"
        assert capture.metrics["counters"]


class TestCheckpointRoundTrip:
    def test_capture_survives_checkpoint_restore(self, tmp_path):
        checkpoint = str(tmp_path / "ckpt.json")
        first = ExperimentRunner(observe=True, checkpoint_path=checkpoint)
        assert first.run_many(["table2"]).ok
        with open(checkpoint) as handle:
            data = json.load(handle)["data"]
        assert "table2" in data["obs"]

        second = ExperimentRunner(observe=True, checkpoint_path=checkpoint)
        report = second.run_many(["table2"])
        assert report.ok
        restored = second.captures["table2"]
        assert restored.manifest.to_dict() == first.captures[
            "table2"
        ].manifest.to_dict()
        assert restored.metrics == first.captures["table2"].metrics
