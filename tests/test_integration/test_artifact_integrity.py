"""Durable artifacts: one integrity contract, compatibility, paths.

Checkpoints, cache entries and traces are all sealed by
:mod:`repro.common.atomicio`.  Every way of damaging one — a flipped
bit, a torn write, a cut at a record boundary, a stripped envelope or
footer, a version this build does not read — must be detected and
quarantined to ``<path>.corrupt``, and the artifact must never be
resumed, served or rendered.
"""

import json
import os

import pytest

from repro.__main__ import main
from repro.common.errors import (
    CheckpointCorruptWarning,
    ConfigurationError,
    ObservabilityError,
)
from repro.experiments.base import ExperimentResult
from repro.experiments.chaos import bit_flip_file
from repro.experiments.runner import ExperimentRunner
from repro.obs.registry import MetricsRegistry
from repro.obs.report import read_records
from repro.service.cache import ResultCache

IDS = ["alpha", "beta"]
CACHE_KEY = "cafebabe"


def run_alpha():
    return ExperimentResult(
        experiment_id="alpha", title="alpha", columns=["x"], rows=[[1]]
    )


def run_beta():
    return ExperimentResult(
        experiment_id="beta", title="beta", columns=["x"], rows=[[2]]
    )


REGISTRY = {"alpha": run_alpha, "beta": run_beta}


# -- the three artifacts: write one, then try to consume it -------------


def write_checkpoint(path):
    ExperimentRunner(
        retries=0, checkpoint_path=path, registry=REGISTRY
    ).run_many(IDS)


def consume_checkpoint(path):
    runner = ExperimentRunner(
        retries=0, checkpoint_path=path, registry=REGISTRY, observe=True
    )
    with pytest.warns(CheckpointCorruptWarning, match="quarantined"):
        report = runner.run_many(IDS)
    assert report.ok
    assert report.resumed == []
    assert runner.corrupt_artifacts_detected == 1
    counters = runner.batch_metrics["counters"]
    assert counters["checkpoint.corrupt.detected"] == 1


def write_cache_entry(path):
    ResultCache(os.path.dirname(path)).put(
        CACHE_KEY, {"key": CACHE_KEY, "result": {"rows": [[3]]}}
    )


def consume_cache_entry(path):
    metrics = MetricsRegistry()
    cache = ResultCache(os.path.dirname(path), metrics=metrics)
    assert cache.get_payload(CACHE_KEY) is None
    counters = metrics.snapshot()["counters"]
    assert counters["service.cache.corrupt"] == 1
    assert counters["service.cache.miss"] == 1


def write_trace(path):
    runner = ExperimentRunner(retries=0, trace_path=path, registry=REGISTRY)
    runner.write_trace(runner.run_many(IDS), IDS)


def consume_trace(path):
    with pytest.warns(CheckpointCorruptWarning, match="quarantined"):
        with pytest.raises(ObservabilityError, match="quarantined"):
            read_records(path)


ARTIFACTS = {
    "checkpoint": ("ck.json", write_checkpoint, consume_checkpoint),
    "cache-entry": (f"{CACHE_KEY}.json", write_cache_entry,
                    consume_cache_entry),
    "trace": ("run.jsonl", write_trace, consume_trace),
}


# -- the damage: each takes the file's text, returns the damaged text ---


def truncate_mid_record(text):
    # Halfway through the last data record: the envelope's one record,
    # or the trace line before the footer.
    lines = text.splitlines(keepends=True)
    records = lines[:-1] if len(lines) > 1 else lines
    start = sum(len(line) for line in records[:-1])
    return text[: start + len(records[-1]) // 2]


def truncate_at_record_boundary(text):
    # A trace loses its footer and last record at a line boundary; a
    # one-record file is cut back to its only boundary, the start.
    lines = text.splitlines(keepends=True)
    return "".join(lines[:-2]) if len(lines) > 1 else ""


def remove_envelope_or_footer(text):
    lines = text.splitlines(keepends=True)
    if len(lines) > 1:
        return "".join(lines[:-1])
    # The bare payload: what an unversioned checkpoint looked like.
    return json.dumps(json.loads(text)["data"])


def unsupported_version(text):
    # Version 1 is what the cache wrote before every record moved to 2.
    head, footer = text.rstrip("\n").rpartition("\n")[0::2]
    if head:
        footer = footer.replace('"trace_version": 2', '"trace_version": 1')
        return f"{head}\n{footer}\n"
    return text.replace('"version": 2', '"version": 1', 1)


DAMAGE = {
    "truncated-mid-record": truncate_mid_record,
    "truncated-at-boundary": truncate_at_record_boundary,
    "envelope-or-footer-removed": remove_envelope_or_footer,
    "unsupported-version": unsupported_version,
}


@pytest.mark.parametrize("damage", ["bit-flip", *DAMAGE])
@pytest.mark.parametrize("artifact", sorted(ARTIFACTS))
def test_damaged_artifact_is_quarantined_never_consumed(
    tmp_path, artifact, damage
):
    name, write, consume = ARTIFACTS[artifact]
    path = str(tmp_path / name)
    write(path)
    with open(path) as handle:
        original = handle.read()
    if damage == "bit-flip":
        bit_flip_file(path, seed=5)
    else:
        damaged = DAMAGE[damage](original)
        assert damaged != original
        with open(path, "w") as handle:
            handle.write(damaged)
    with open(path, "rb") as handle:
        damaged_bytes = handle.read()
    consume(path)
    with open(path + ".corrupt", "rb") as handle:
        assert handle.read() == damaged_bytes


def test_report_exits_1_on_a_trace_cut_at_a_record_boundary(
    tmp_path, capsys
):
    path = str(tmp_path / "run.jsonl")
    write_trace(path)
    with open(path) as handle:
        cut = truncate_at_record_boundary(handle.read())
    with open(path, "w") as handle:
        handle.write(cut)
    with pytest.warns(CheckpointCorruptWarning):
        assert main(["report", path]) == 1
    assert "no trace-footer" in capsys.readouterr().err
    assert os.path.exists(path + ".corrupt")


def test_unversioned_checkpoint_is_not_rewritten_under_a_checksum(tmp_path):
    path = tmp_path / "ck.json"
    write_checkpoint(str(path))
    bare = remove_envelope_or_footer(path.read_text())
    path.write_text(bare)
    consume_checkpoint(str(path))
    assert (tmp_path / "ck.json.corrupt").read_text() == bare


# -- cross-build compatibility ------------------------------------------

#: A one-result checkpoint exactly as the previous build wrote it.
PARENT_CHECKPOINT = (
    '{"version": 2, "checksum": "sha256:8fc2a89960d9886c5e9cb20aa2457308'
    'bfff6b2d019f4fb354800761caec1161", "data": {"results": {"alpha": '
    '{"experiment_id": "alpha", "title": "alpha", "columns": ["x"], '
    '"rows": [[1]], "paper_expectation": "", "notes": ""}}, "obs": {}}}'
)

#: A one-experiment trace exactly as the previous build wrote it.
PARENT_TRACE = "".join(
    line + "\n"
    for line in (
        '{"type": "run", "trace_version": 2, "experiment_ids": ["alpha"], '
        '"package_version": "1.0.0", "git_rev": "unknown", '
        '"python_version": "3.11.7", "engine": "reference", "jobs": 1, '
        '"sanitize": false, "summary": "1 completed, 0 failed"}',
        '{"type": "manifest", "experiment_id": "alpha", "seed": null, '
        '"attempts": 1, "machines": [], "fault_models": [], '
        '"engine": "reference", "sanitize": false, '
        '"package_version": "1.0.0", "git_rev": "unknown", '
        '"python_version": "3.11.7"}',
        '{"type": "result", "experiment_id": "alpha", "result": '
        '{"experiment_id": "alpha", "title": "alpha", "columns": ["x"], '
        '"rows": [[1]], "paper_expectation": "", "notes": ""}}',
        '{"type": "metrics", "experiment_id": "alpha", "metrics": '
        '{"counters": {"trace.events.dropped": 0}, "gauges": {}, '
        '"histograms": {}}}',
        '{"type": "span_start", "name": "experiment", "id": 1, '
        '"experiment_id": "alpha", "attempt": 0, "seq": 0}',
        '{"type": "span_end", "name": "experiment", "id": 1, "seq": 1, '
        '"experiment_id": "alpha"}',
        '{"type": "trace-footer", "trace_version": 2, "records": 6, '
        '"checksum": "sha256:d236284a510b629fe7bf2de76177520e739e85643b6'
        '28f3ad456c64da119f0e1"}',
    )
)


class TestCrossBuildCompatibility:
    def test_checkpoint_written_now_matches_the_previous_build(
        self, tmp_path
    ):
        path = tmp_path / "ck.json"
        ExperimentRunner(
            retries=0, checkpoint_path=str(path), registry=REGISTRY
        ).run_many(["alpha"])
        assert path.read_text() == PARENT_CHECKPOINT

    def test_previous_build_checkpoint_resumes(self, tmp_path):
        path = tmp_path / "ck.json"
        path.write_text(PARENT_CHECKPOINT)
        report = ExperimentRunner(
            retries=0, checkpoint_path=str(path), registry=REGISTRY
        ).run_many(IDS)
        assert report.resumed == ["alpha"]
        assert [r.rows for r in report.results] == [[[1]], [[2]]]

    def test_previous_build_trace_reads_like_a_new_one(self, tmp_path):
        path = tmp_path / "run.jsonl"
        runner = ExperimentRunner(
            retries=0, trace_path=str(path), registry=REGISTRY
        )
        runner.write_trace(runner.run_many(["alpha"]), ["alpha"])
        written = read_records(str(path))
        parent = tmp_path / "parent.jsonl"
        parent.write_text(PARENT_TRACE)
        previous = read_records(str(parent))
        assert [r["type"] for r in written] == [r["type"] for r in previous]
        assert written[2] == previous[2]


# -- artifact paths are checked before any work runs --------------------


class TestArtifactPaths:
    @pytest.mark.parametrize("option", ["checkpoint_path", "trace_path"])
    def test_missing_directory_is_a_configuration_error(
        self, tmp_path, option
    ):
        path = str(tmp_path / "nodir" / "artifact")
        with pytest.raises(ConfigurationError, match="does not exist"):
            ExperimentRunner(registry=REGISTRY, **{option: path})

    def test_bare_file_name_means_the_working_directory(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        runner = ExperimentRunner(
            retries=0, checkpoint_path="ck.json", registry=REGISTRY
        )
        assert runner.run_many(IDS).ok
        assert (tmp_path / "ck.json").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "table2", "table4", "--checkpoint", "nodir/ck.json"],
            ["run", "table2", "table4", "--trace", "nodir/t.jsonl"],
            ["run", "alg1", "--trials", "8", "--checkpoint", "nodir/ck"],
            ["run", "alg1", "--trials", "8", "--trace", "nodir/t.jsonl"],
        ],
    )
    def test_cli_exits_2_before_running_anything(
        self, tmp_path, monkeypatch, capsys, argv
    ):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "nodir" in err and "does not exist" in err
        assert os.listdir(tmp_path) == []
