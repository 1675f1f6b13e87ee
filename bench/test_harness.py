"""Tests of the benchmark harness itself: ``python -m pytest bench/``.

They check the metric contract in ``BENCHMARK.json``, the self-time
and quartile arithmetic, and that the correctness gate rejects a
perturbed result.  Apart from one run shorter than a single trial block,
they do not run the workloads.
"""

import json
import os
import re
import shutil
import statistics
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import gate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


@pytest.fixture(scope="module")
def spec():
    return run.load_spec()


def test_spec_has_exactly_the_contract_keys(spec):
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert os.path.getsize(os.path.join(ROOT, "BENCHMARK.json")) <= 64 * 1024


def test_paths_and_command(spec):
    assert 1 <= len(spec["paths"]) <= 16
    for path in spec["paths"]:
        assert PATH.match(path) and not path.startswith("/") and ".." not in path
        assert os.path.isdir(os.path.join(ROOT, path))
    assert 1 <= len(spec["command"]) <= 32
    assert all(len(part) <= 200 for part in spec["command"])
    for part in spec["command"][1:]:
        assert part.split("/")[0] in spec["paths"], part


def test_names_units_and_counts(spec):
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    names = []
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")
        names.append(metric["name"])
    assert all(NAME.match(name) for name in names), names
    assert len(names) == len(set(names))


def test_setup_has_the_largest_bound(spec):
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_spec_workloads_are_the_worker_workloads(spec):
    assert [w["name"] for w in spec["workloads"]] == list(worker.WORKLOADS)


def test_span_metrics_read_the_layer_table(spec):
    recorded = [
        {"span": 1, "parent": None, "name": "experiments.runner.run_trials", "id": "a",
         "start": 0.0, "end": 10.0},
        {"span": 2, "parent": 1, "name": "sim.batch.run_transfer", "id": "a", "start": 1.0, "end": 7.0},
        {"span": 3, "parent": 1, "name": "experiments.checkpoint", "id": "a", "start": 7.0, "end": 8.0,
         "bytes": 300},
        {"span": 4, "parent": 1, "name": "experiments.checkpoint", "id": "a", "start": 8.0, "end": 8.5,
         "bytes": 200},
        {"span": 5, "parent": None, "name": "channels.decode", "id": "a", "start": 11.0, "end": 12.0},
    ]
    names = {m["name"] for m in spec["per_layer"]}
    metrics = worker.span_metrics(spans.layer_table(recorded), recorded, names)
    assert set(metrics) <= names
    assert metrics["sim.batch.run_transfer.s"] == pytest.approx(6.0)
    assert metrics["experiments.checkpoint.s"] == pytest.approx(1.5)
    assert metrics["experiments.checkpoint.writes"] == 2
    assert metrics["experiments.checkpoint.bytes"] == 500
    assert metrics["experiments.runner.overhead_s"] == pytest.approx(4.0)
    assert metrics["channels.decode.calls"] == 1


def test_exact_counts_are_per_layer_metrics(spec):
    names = {m["name"] for m in spec["per_layer"]}
    assert set(run.EXACT_COUNTS) <= names


def test_self_time_subtracts_the_union_of_children():
    recorded = [
        {"span": 1, "parent": None, "name": "op", "id": "a", "start": 0.0, "end": 10.0},
        {"span": 2, "parent": 1, "name": "x", "id": "a", "start": 1.0, "end": 3.0},
        {"span": 3, "parent": 1, "name": "x", "id": "a", "start": 2.0, "end": 5.0},
        {"span": 4, "parent": 1, "name": "y", "id": "a", "start": 9.0, "end": 12.0},
        {"span": 5, "parent": 3, "name": "z", "id": "a", "start": 2.5, "end": 3.5},
    ]
    own = spans.self_times(recorded)
    assert own[1] == pytest.approx(10.0 - 4.0 - 1.0)
    assert own[3] == pytest.approx(3.0 - 1.0)
    assert own[5] == pytest.approx(1.0)
    table = {row["layer"]: row for row in spans.layer_table(recorded)}
    assert table["x"]["calls"] == 2
    assert table["x"]["self_s"] == pytest.approx(2.0 + 2.0)
    assert sum(row["self_frac"] for row in table.values()) == pytest.approx(1.0)


def test_recorder_links_parents_and_restores_patches():
    class Layer:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    original = Layer.__dict__["inner"]
    recorder = spans.SpanRecorder()
    recorder.patch(Layer, "outer", "outer")
    recorder.patch(Layer, "inner", "inner")
    with recorder.span("bench.op", "unit-7"):
        assert Layer().outer() == 2
    recorder.unpatch()
    assert Layer.__dict__["inner"] is original
    by_name = {s["name"]: s for s in recorder.spans}
    assert by_name["inner"]["parent"] == by_name["outer"]["span"]
    assert by_name["outer"]["parent"] == by_name["bench.op"]["span"]
    assert {s["id"] for s in recorder.spans} == {"unit-7"}


def test_profile_shares_skip_blocking_builtins():
    src = os.path.join(ROOT, "src")
    stats = {
        (f"{src}/repro/sim/scheduler.py", 1, "run"): (1, 1, 3.0, 3.0, {}),
        ("~", 0, "<method 'get' of '_queue.SimpleQueue' objects>"): (1, 1, 50.0, 50.0, {}),
        ("~", 0, "<built-in method builtins.min>"): (1, 1, 1.0, 1.0, {}),
    }
    shares = spans.profile_shares(stats, src, ["sim", "builtins", "other"])
    assert shares == {"sim": 0.75, "builtins": 0.25, "other": 0.0}


def test_quartile_spread_follows_statistics_quantiles():
    values = [10.0, 11.0, 9.0, 10.5, 12.0, 10.2, 9.8, 10.1, 10.3, 9.9]
    q1, _, q3 = statistics.quantiles(values, n=4)
    stats = run.quartile_spread(values)
    assert stats["median"] == statistics.median(values)
    assert stats["spread"] == pytest.approx((q3 - q1) / statistics.median(values))
    assert run.quartile_spread([4.0])["spread"] == 0.0


def test_gate_rejects_a_perturbed_row():
    committed = gate.parse_experiments_md(os.path.join(ROOT, "EXPERIMENTS.md"))
    tokens = committed["fig4"]["rows"][0]
    row = [f"{tokens[0]} {tokens[1]}"] + [float(t) for t in tokens[2:]]
    assert gate.check_row(committed, "fig4", row, 4) is None
    row[4] += 0.001
    assert "committed" in gate.check_row(committed, "fig4", row, 4)


def test_gate_rejects_a_perturbed_table():
    from repro.experiments.table2 import run_table2

    committed = gate.parse_experiments_md(os.path.join(ROOT, "EXPERIMENTS.md"))
    result = run_table2().to_dict()
    assert gate.check_result(committed, result) is None
    result["rows"][0][-1] = "tampered"
    assert "differs" in gate.check_result(committed, result)


def test_request_schedule_is_the_load_model_plus_refresh():
    from repro.service.loadgen import build_schedule

    first = worker.request_schedule(5)
    again = worker.request_schedule(5)
    drawn = [next(first) for _ in range(5000)]
    assert drawn == [next(again) for _ in range(5000)]
    refreshes = [shape for shape, refresh in drawn if refresh]
    assert len(refreshes) == len(drawn) * len(worker.REFRESH_SLOTS) // 25
    assert refreshes[: len(worker.SHAPES)] == worker.SHAPES
    keys = [worker.shape_key(shape) for shape, refresh in drawn if not refresh]
    assert keys == build_schedule(len(keys), [worker.shape_key(s) for s in worker.SHAPES], seed=5)


def test_gate_checks_footers_of_whole_experiments():
    committed = gate.parse_experiments_md(os.path.join(ROOT, "EXPERIMENTS.md"))
    assert gate.check_footers(committed, ["table2"]) == []
    committed["table2"]["metrics"] = committed["table2"]["metrics"].replace("=6", "=7")
    assert gate.check_footers(committed, ["table2"]) == [
        "table2: _metrics: digest differs from EXPERIMENTS.md"
    ]


def test_window_shorter_than_one_block_still_reports():
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), "--workload", "batch-trials",
         "--seed", "3", "--seconds", "0.001", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), REPRO_ENGINE="fast"),
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1][len("BENCH-RESULT "):])
    assert result["attempted"] == 1 and result["errors"] == []


def test_run_fails_without_the_source_tree(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "smt-sweep", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip().endswith("}")
    with pytest.raises(json.JSONDecodeError):
        json.loads(proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "")
