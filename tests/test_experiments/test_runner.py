"""Tests for the resilient experiment runner."""

import json
import os
import subprocess
import threading
import time

import pytest

from repro.common.deadline import Deadline
from repro.common.errors import CheckpointCorruptWarning, ExperimentTimeout
from repro.experiments.base import ExperimentResult
from repro.experiments.runner import (
    ExperimentFailure,
    ExperimentRunner,
    RunReport,
)
from repro.experiments.supervisor import MAX_SLOT_RESPAWNS
from repro.obs.manifest import git_revision


def _result(experiment_id, rows=None):
    return ExperimentResult(
        experiment_id=experiment_id,
        title=f"test result {experiment_id}",
        columns=["x"],
        rows=rows if rows is not None else [[1]],
    )


# Module level, so a bounded run can pickle them into its worker process.


def wedged():
    time.sleep(30.0)
    return _result("wedged")


def slow_failure():
    time.sleep(0.15)
    raise RuntimeError("failing slowly")


def seeded(rng: int = 7):
    return _result("seeded", rows=[[rng]])


def healthy():
    return _result("healthy")


def report_pid():
    return _result("pid", rows=[[os.getpid()]])


class TestRunOne:
    def test_passes_through_a_healthy_experiment(self):
        registry = {"good": lambda: _result("good")}
        runner = ExperimentRunner(registry=registry)
        assert runner.run_one("good").experiment_id == "good"

    def test_retries_until_success(self):
        calls = []

        def flaky():
            calls.append(True)
            if len(calls) < 3:
                raise RuntimeError("stochastic failure")
            return _result("flaky")

        runner = ExperimentRunner(retries=2, registry={"flaky": flaky})
        assert runner.run_one("flaky").experiment_id == "flaky"
        assert len(calls) == 3

    def test_rotates_seed_for_rng_experiments(self):
        seeds = []

        def seeded(rng: int = 7):
            seeds.append(rng)
            if len(seeds) < 3:
                raise RuntimeError("bad noise realization")
            return _result("seeded")

        runner = ExperimentRunner(retries=2, registry={"seeded": seeded})
        runner.run_one("seeded")
        # First attempt uses the experiment's own default; retries rotate.
        assert seeds == [7, 1007, 2007]

    def test_raises_after_exhausting_retries(self):
        def broken():
            raise ValueError("deterministically broken")

        runner = ExperimentRunner(retries=1, registry={"broken": broken})
        with pytest.raises(ValueError, match="deterministically broken"):
            runner.run_one("broken")

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            ExperimentRunner(timeout_seconds=0.0)
        with pytest.raises(ValueError):
            ExperimentRunner(retries=-1)


class TestAttemptLoop:
    """``run_one``'s attempt loop: retries + 1 tries, seeds rotated."""

    def test_first_success_runs_once_on_the_registered_seed(self):
        seeds = []

        def fn(rng: int = 7):
            seeds.append(rng)
            return _result("x")

        runner = ExperimentRunner(retries=3, registry={"x": fn})
        runner.run_one("x")
        assert seeds == [7]

    def test_zero_retries_runs_exactly_once(self):
        seeds = []

        def fn(rng: int = 7):
            seeds.append(rng)
            raise RuntimeError("broken")

        runner = ExperimentRunner(retries=0, registry={"x": fn})
        with pytest.raises(RuntimeError, match="broken"):
            runner.run_one("x")
        assert seeds == [7]

    @pytest.mark.parametrize("retries", [1, 2, 4])
    def test_attempt_count_is_retries_plus_one(self, retries):
        calls = []

        def fn():
            calls.append(True)
            raise RuntimeError("always fails")

        runner = ExperimentRunner(retries=retries, registry={"x": fn})
        with pytest.raises(RuntimeError):
            runner.run_one("x")
        assert len(calls) == retries + 1

    def test_raises_the_last_attempts_error(self):
        def fn(rng: int = 7):
            raise RuntimeError(f"attempt with seed {rng}")

        runner = ExperimentRunner(retries=2, registry={"x": fn})
        with pytest.raises(RuntimeError, match="seed 2007"):
            runner.run_one("x")

    def test_experiment_without_rng_is_retried_unchanged(self):
        calls = []

        def fn(**kwargs):
            calls.append(kwargs)
            if len(calls) < 2:
                raise RuntimeError("flaky")
            return _result("x")

        runner = ExperimentRunner(retries=1, registry={"x": fn})
        runner.run_one("x")
        assert calls == [{}, {}]

    def test_base_exception_is_not_retried(self):
        calls = []

        def fn():
            calls.append(True)
            raise KeyboardInterrupt

        runner = ExperimentRunner(retries=3, registry={"x": fn})
        with pytest.raises(KeyboardInterrupt):
            runner.run_one("x")
        assert len(calls) == 1

    def test_observed_capture_is_the_winning_attempt(self):
        def fn(rng: int = 7):
            if rng < 2007:
                raise RuntimeError("flaky")
            return _result("x", rows=[[rng]])

        runner = ExperimentRunner(
            retries=2, observe=True, registry={"x": fn}
        )
        assert runner.run_one("x").rows == [[2007]]
        capture = runner.captures["x"]
        assert capture.manifest.seed == 2007
        assert capture.manifest.attempts == 3
        assert capture.metrics["counters"]["runner.retries"] == 2

class TestRunMany:
    def test_failures_do_not_stop_the_batch(self):
        def broken():
            raise RuntimeError("boom")

        registry = {
            "a": lambda: _result("a"),
            "b": broken,
            "c": lambda: _result("c"),
        }
        runner = ExperimentRunner(retries=0, registry=registry)
        report = runner.run_many(["a", "b", "c"])
        assert [r.experiment_id for r in report.results] == ["a", "c"]
        assert [f.experiment_id for f in report.failures] == ["b"]
        assert not report.ok
        assert "2 completed" in report.summary()
        assert "1 failed" in report.summary()

    def test_callbacks_fire_per_outcome(self):
        def broken():
            raise RuntimeError("boom")

        registry = {"a": lambda: _result("a"), "b": broken}
        completed, failed = [], []
        runner = ExperimentRunner(retries=0, registry=registry)
        runner.run_many(
            ["a", "b"],
            on_result=lambda result, elapsed: completed.append(
                result.experiment_id
            ),
            on_failure=lambda failure: failed.append(failure.experiment_id),
        )
        assert completed == ["a"]
        assert failed == ["b"]

    def test_rotates_seed_and_records_it_in_the_manifest(self):
        def seeded(rng: int = 5):
            if rng == 5:
                raise RuntimeError("fails on its registered seed")
            return _result("seeded", rows=[[rng]])

        runner = ExperimentRunner(
            retries=1, observe=True, registry={"seeded": seeded}
        )
        report = runner.run_many(["seeded"])
        assert report.results[0].rows == [[1005]]
        manifest = runner.captures["seeded"].manifest
        assert manifest.seed == 1005
        assert manifest.attempts == 2

    def test_failure_record_is_structured(self):
        def broken():
            raise KeyError("missing table")

        runner = ExperimentRunner(retries=2, registry={"x": broken})
        report = runner.run_many(["x"])
        failure = report.failures[0]
        assert isinstance(failure, ExperimentFailure)
        assert failure.error_type == "KeyError"
        assert failure.attempts == 3
        assert "missing table" in failure.message
        assert "FAILED" in failure.render()


class TestCheckpointing:
    def test_completed_results_survive_a_restart(self, tmp_path):
        checkpoint = str(tmp_path / "progress.json")
        calls = []

        def tracked():
            calls.append(True)
            return _result("a", rows=[[41], [42]])

        registry = {"a": tracked}
        first = ExperimentRunner(
            retries=0, checkpoint_path=checkpoint, registry=registry
        ).run_many(["a"])
        assert first.resumed == []
        second = ExperimentRunner(
            retries=0, checkpoint_path=checkpoint, registry=registry
        ).run_many(["a"])
        assert second.resumed == ["a"]
        assert len(calls) == 1  # not recomputed
        assert second.results[0].rows == [[41], [42]]

    def test_interrupted_batch_resumes_after_the_failure(self, tmp_path):
        checkpoint = str(tmp_path / "progress.json")

        def broken():
            raise RuntimeError("boom")

        registry = {"a": lambda: _result("a"), "b": broken}
        report = ExperimentRunner(
            retries=0, checkpoint_path=checkpoint, registry=registry
        ).run_many(["a", "b"])
        assert not report.ok
        envelope = json.loads((tmp_path / "progress.json").read_text())
        saved = envelope["data"]
        assert list(saved["results"]) == ["a"]  # failure not checkpointed

        registry["b"] = lambda: _result("b")
        retry = ExperimentRunner(
            retries=0, checkpoint_path=checkpoint, registry=registry
        ).run_many(["a", "b"])
        assert retry.ok
        assert retry.resumed == ["a"]

    def test_corrupt_checkpoint_only_costs_recomputation(self, tmp_path):
        checkpoint = tmp_path / "progress.json"
        checkpoint.write_text("{ not json")
        registry = {"a": lambda: _result("a")}
        with pytest.warns(CheckpointCorruptWarning, match="quarantined"):
            report = ExperimentRunner(
                retries=0, checkpoint_path=str(checkpoint), registry=registry
            ).run_many(["a"])
        assert report.ok
        assert report.resumed == []
        # The bad file was moved aside for inspection, never overwritten
        # in place or silently discarded.
        assert (tmp_path / "progress.json.corrupt").read_text() == "{ not json"


class TestResultSerialization:
    def test_round_trip(self):
        result = ExperimentResult(
            experiment_id="x",
            title="t",
            columns=["a", "b"],
            rows=[[1, "two"], [3.5, None]],
            paper_expectation="expected",
            notes="noted",
        )
        assert ExperimentResult.from_dict(result.to_dict()) == result

    def test_save_csv_uses_binary_safe_newlines(self, tmp_path):
        result = _result("csv", rows=[[1], [2]])
        path = tmp_path / "out.csv"
        result.save_csv(str(path))
        raw = path.read_bytes()
        assert b"\r\r\n" not in raw
        assert raw.count(b"\r\n") == 3  # header + two rows


class TestRunReport:
    def test_empty_report_is_ok(self):
        assert RunReport().ok


class TestBoundedRuns:
    """A wall-clock bound moves the experiment into a worker process."""

    def test_wedged_experiment_times_out_and_leaves_no_thread(self):
        threads_before = threading.active_count()
        runner = ExperimentRunner(
            timeout_seconds=0.3,
            retries=0,
            registry={"wedged": wedged},
            heartbeat_interval=0.05,
        )
        start = time.monotonic()
        report = runner.run_many(["wedged"], jobs=1)
        assert time.monotonic() - start < 2.0
        (failure,) = report.failures
        assert failure.error_type == "ExperimentTimeout"
        assert "wall-clock" in failure.message
        assert runner.executor_stats.workers_killed_deadline == 1
        assert threading.active_count() == threads_before

    def test_timeout_covers_every_attempt(self):
        # Eleven attempts of 0.15 s cannot fit a 0.5 s budget: the
        # budget is per experiment, not per attempt.
        runner = ExperimentRunner(
            timeout_seconds=0.5,
            retries=10,
            registry={"slow": slow_failure},
            heartbeat_interval=0.05,
        )
        (failure,) = runner.run_many(["slow"]).failures
        assert failure.error_type == "ExperimentTimeout"

    @pytest.mark.parametrize("timeout", [None, 60.0])
    def test_deadline_bounds_the_run(self, timeout):
        # With no configured timeout, or a longer one, the deadline's
        # remaining time is the task deadline.
        runner = ExperimentRunner(
            timeout_seconds=timeout,
            retries=0,
            registry={"wedged": wedged},
            heartbeat_interval=0.05,
        )
        start = time.monotonic()
        report = runner.run_many(["wedged"], deadline=Deadline.after(0.3))
        assert time.monotonic() - start < 2.0
        assert report.failures[0].error_type == "ExperimentTimeout"

    def test_expired_deadline_starts_no_worker(self):
        failed = []
        runner = ExperimentRunner(retries=0, registry={"x": wedged})
        report = runner.run_many(
            ["x"], on_failure=failed.append, deadline=Deadline.after(0.0)
        )
        (failure,) = report.failures
        assert failed == [failure]
        assert failure.error_type == ExperimentTimeout.__name__
        assert "not started" in failure.message
        assert failure.attempts == 0
        assert runner.executor_stats is None

    def test_generous_deadline_gives_the_unbounded_bytes(self):
        unbounded = ExperimentRunner(
            retries=1, registry={"seeded": seeded}
        ).run_many(["seeded"])
        bounded = ExperimentRunner(
            retries=1, registry={"seeded": seeded}
        ).run_many(["seeded"], deadline=Deadline.after(60.0))
        assert bounded.ok
        assert [r.to_dict() for r in bounded.results] == [
            r.to_dict() for r in unbounded.results
        ]

    def test_timeouts_spare_the_batch_and_the_worker_slot(self):
        # Each timeout kills the one worker; more timeouts in a row than
        # the slot's respawn budget still leave it serving the batch.
        wedged_ids = [f"wedged{i}" for i in range(MAX_SLOT_RESPAWNS + 2)]
        registry = dict.fromkeys(wedged_ids, wedged)
        registry["healthy"] = healthy
        runner = ExperimentRunner(
            timeout_seconds=0.3,
            retries=0,
            registry=registry,
            heartbeat_interval=0.05,
        )
        report = runner.run_many(wedged_ids + ["healthy"], jobs=1)
        assert [f.experiment_id for f in report.failures] == wedged_ids
        assert {f.error_type for f in report.failures} == {
            "ExperimentTimeout"
        }
        assert [r.experiment_id for r in report.results] == ["healthy"]
        assert runner.executor_stats.workers_killed_deadline == len(
            wedged_ids
        )

    def test_expired_deadline_still_reports_checkpointed_results(
        self, tmp_path
    ):
        checkpoint = str(tmp_path / "progress.json")
        registry = {"healthy": healthy, "wedged": wedged}
        ExperimentRunner(
            checkpoint_path=checkpoint, registry=registry
        ).run_many(["healthy"])
        report = ExperimentRunner(
            checkpoint_path=checkpoint, registry=registry
        ).run_many(["healthy", "wedged"], deadline=Deadline.after(0.0))
        assert report.resumed == ["healthy"]
        assert [r.experiment_id for r in report.results] == ["healthy"]
        (failure,) = report.failures
        assert failure.experiment_id == "wedged"
        assert "not started" in failure.message


class TestWhereExperimentsRun:
    """``run_many`` is the one place that picks in-process or a worker."""

    def test_unbounded_single_job_runs_in_this_process(self):
        runner = ExperimentRunner(registry={"pid": report_pid})
        (result,) = runner.run_many(["pid"], jobs=1).results
        assert result.rows == [[os.getpid()]]
        assert runner.executor_stats is None

    def test_bounded_run_executes_in_a_worker_process(self):
        # ``runner.executor`` is live only while the bounded batch runs.
        seen = []
        runner = ExperimentRunner(
            timeout_seconds=60.0,
            registry={"pid": report_pid},
            heartbeat_interval=0.05,
        )
        assert runner.executor is None
        report = runner.run_many(
            ["pid"],
            jobs=1,
            on_result=lambda result, elapsed: seen.append(runner.executor),
        )
        (result,) = report.results
        assert result.rows[0][0] != os.getpid()
        (executor,) = seen
        assert executor is not None
        assert runner.executor is None
        assert runner.executor_stats.workers_spawned == 1
        assert runner.executor_stats.clean


class TestRunTrials:
    def test_rejects_bad_arguments(self):
        runner = ExperimentRunner()
        with pytest.raises(ValueError, match="unknown batch algorithm"):
            runner.run_trials("alg9", trials=4)
        with pytest.raises(ValueError, match="trials"):
            runner.run_trials("alg1", trials=0)
        with pytest.raises(ValueError, match="block_size"):
            runner.run_trials("alg1", trials=4, block_size=0)
        with pytest.raises(ValueError, match="message_length"):
            runner.run_trials("alg1", trials=4, message_length=0)

    def test_blocks_cover_the_trial_range_exactly_once(self):
        results = []
        runner = ExperimentRunner()
        report = runner.run_trials(
            "alg1",
            trials=11,
            message_length=4,
            block_size=4,
            on_result=lambda r, _t: results.append(r),
        )
        assert report.ok
        assert [r.experiment_id for r in results] == [
            "alg1@trials0-4",
            "alg1@trials4-8",
            "alg1@trials8-11",
        ]
        trial_ids = [row[0] for r in results for row in r.rows]
        assert trial_ids == list(range(11))

    def test_rows_do_not_depend_on_block_size(self):
        def rows(block_size):
            collected = []
            ExperimentRunner().run_trials(
                "alg2",
                trials=10,
                message_length=4,
                block_size=block_size,
                on_result=lambda r, _t: collected.extend(r.rows),
            )
            return collected

        assert rows(3) == rows(10)

    def test_checkpoint_resume_restores_completed_blocks(self, tmp_path):
        checkpoint = tmp_path / "trials.json"
        first = ExperimentRunner(checkpoint_path=checkpoint)
        first.run_trials("alg1", trials=8, message_length=4, block_size=4)

        restored = []
        second = ExperimentRunner(checkpoint_path=checkpoint)
        report = second.run_trials(
            "alg1",
            trials=8,
            message_length=4,
            block_size=4,
            on_result=lambda r, _t: restored.append(r),
        )
        assert report.ok
        assert sorted(report.resumed) == [
            "alg1@trials0-4",
            "alg1@trials4-8",
        ]
        assert [r.experiment_id for r in restored] == [
            "alg1@trials0-4",
            "alg1@trials4-8",
        ]

    def test_observed_run_captures_batch_counters(self):
        runner = ExperimentRunner(observe=True)
        runner.run_trials("alg1", trials=6, message_length=4, block_size=6)
        assert list(runner.captures) == ["alg1@trials0-6"]
        counters = runner.captures["alg1@trials0-6"].metrics["counters"]
        assert counters["batch.trials"] == 6
        assert counters["batch.steps"] > 0

    def test_observed_blocks_start_git_at_most_once(self, monkeypatch):
        # Every block's manifest carries the checkout revision; the
        # ``git rev-parse`` behind it runs once per process.
        git_revision.cache_clear()
        calls = []
        run = subprocess.run

        def counting(*args, **kwargs):
            calls.append(args)
            return run(*args, **kwargs)

        monkeypatch.setattr(subprocess, "run", counting)
        runner = ExperimentRunner(observe=True)
        report = runner.run_trials(
            "alg1", trials=8, message_length=4, block_size=2
        )
        assert report.ok and len(runner.captures) == 4
        assert len(calls) <= 1
        revisions = {c.manifest.git_rev for c in runner.captures.values()}
        assert len(revisions) == 1
