"""Tests for the resilient experiment runner."""

import json
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
    _AttemptBox,
)


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def _result(experiment_id, rows=None):
    return ExperimentResult(
        experiment_id=experiment_id,
        title=f"test result {experiment_id}",
        columns=["x"],
        rows=rows if rows is not None else [[1]],
    )


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

    def test_timeout_surfaces_as_experiment_timeout(self):
        def wedged():
            time.sleep(30.0)
            return _result("wedged")

        runner = ExperimentRunner(
            timeout_seconds=0.1, retries=0, registry={"wedged": wedged}
        )
        with pytest.raises(ExperimentTimeout, match="wall-clock"):
            runner.run_one("wedged")

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

    def test_deadline_expiring_mid_loop_stops_after_that_attempt(self):
        clock = FakeClock()
        deadline = Deadline.after(5.0, clock=clock)
        seeds = []

        def fn(rng: int = 7):
            seeds.append(rng)
            clock.advance(3.0)  # the second attempt crosses the budget
            raise RuntimeError(f"attempt with seed {rng}")

        runner = ExperimentRunner(retries=5, registry={"x": fn})
        with pytest.raises(RuntimeError, match="seed 1007"):
            runner.run_one("x", deadline=deadline)
        assert seeds == [7, 1007]

    def test_attempt_that_overruns_the_deadline_keeps_its_result(self):
        # The deadline only gates *further* attempts; a success that
        # finishes after it expired is still returned.
        clock = FakeClock()
        deadline = Deadline.after(1.0, clock=clock)

        def fn():
            clock.advance(2.0)
            return _result("x")

        runner = ExperimentRunner(retries=2, registry={"x": fn})
        assert runner.run_one("x", deadline=deadline).experiment_id == "x"


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


class TestAttemptBox:
    def test_publish_before_seal_is_kept(self):
        box = _AttemptBox()
        assert box.publish("result", 42)
        assert box.seal() == {"result": 42}

    def test_publish_after_seal_is_rejected(self):
        # The exact race the box exists to close: a worker finishing
        # between the join timeout and the parent's verdict must find
        # the box already sealed.
        box = _AttemptBox()
        assert box.seal() == {}
        assert not box.publish("result", "too late")
        assert box.seal() == {}


class TestTimeoutDiscard:
    def test_late_result_is_discarded_and_leak_counted(self):
        release = threading.Event()
        finished = threading.Event()

        def wedged():
            release.wait(5.0)
            finished.set()
            return _result("wedged")

        runner = ExperimentRunner(
            timeout_seconds=0.1, retries=0, registry={"wedged": wedged}
        )
        with pytest.raises(ExperimentTimeout):
            runner.run_one("wedged")
        assert runner.leaked_timeout_threads == 1
        # Let the stuck worker finish *after* the verdict: its result
        # lands in a sealed box, so nothing observable changes.
        release.set()
        assert finished.wait(5.0)
        assert runner.leaked_timeout_threads == 1

    def test_leak_metric_lands_on_the_active_session(self):
        from repro.obs.session import ObsSession, observe

        def wedged():
            time.sleep(5.0)
            return _result("wedged")

        runner = ExperimentRunner(
            timeout_seconds=0.05, retries=0, registry={"wedged": wedged}
        )
        session = ObsSession()
        with observe(session):
            with pytest.raises(ExperimentTimeout):
                runner.run_one("wedged")
        counters = session.metrics.snapshot()["counters"]
        assert counters["runner.timeouts.leaked_threads"] == 1

    def test_fast_attempt_leaks_nothing(self):
        runner = ExperimentRunner(
            timeout_seconds=5.0, retries=0, registry={"quick": lambda: _result("quick")}
        )
        assert runner.run_one("quick").experiment_id == "quick"
        assert runner.leaked_timeout_threads == 0


class TestRunOneDeadline:
    def test_expired_deadline_refuses_to_start(self):
        calls = []

        def fn():
            calls.append(True)
            return _result("x")

        runner = ExperimentRunner(retries=0, registry={"x": fn})
        deadline = Deadline.after(0.0)
        with pytest.raises(ExperimentTimeout, match="not started"):
            runner.run_one("x", deadline=deadline)
        assert calls == []

    def test_deadline_bounds_attempt_even_without_configured_timeout(self):
        def wedged():
            time.sleep(5.0)
            return _result("wedged")

        runner = ExperimentRunner(retries=0, registry={"wedged": wedged})
        start = time.monotonic()
        with pytest.raises(ExperimentTimeout):
            runner.run_one("wedged", deadline=Deadline.after(0.2))
        assert time.monotonic() - start < 2.0

    def test_deadline_stops_the_retry_loop_early(self):
        calls = []

        def slow_failure():
            calls.append(True)
            time.sleep(0.15)
            raise RuntimeError("failing slowly")

        runner = ExperimentRunner(
            retries=10, registry={"slow": slow_failure}
        )
        with pytest.raises((RuntimeError, ExperimentTimeout)):
            runner.run_one("slow", deadline=Deadline.after(0.2))
        assert len(calls) <= 2

    def test_expired_deadline_raises_last_error_instead_of_retrying(self):
        clock = FakeClock()
        deadline = Deadline.after(5.0, clock=clock)
        seeds = []

        def fn(rng: int = 7):
            seeds.append(rng)
            clock.advance(6.0)  # the attempt itself eats the budget
            raise RuntimeError(f"attempt with seed {rng}")

        runner = ExperimentRunner(retries=2, registry={"x": fn})
        with pytest.raises(RuntimeError, match="seed 7"):
            runner.run_one("x", deadline=deadline)
        assert seeds == [7]

    def test_retries_proceed_while_budget_allows(self):
        clock = FakeClock()
        deadline = Deadline.after(10.0, clock=clock)
        seeds = []

        def fn(rng: int = 7):
            seeds.append(rng)
            clock.advance(0.1)
            if len(seeds) < 3:
                raise RuntimeError("flaky")
            return _result("x")

        runner = ExperimentRunner(retries=2, registry={"x": fn})
        assert runner.run_one("x", deadline=deadline).experiment_id == "x"
        assert seeds == [7, 1007, 2007]

    def test_generous_deadline_changes_nothing(self):
        runner = ExperimentRunner(
            retries=1, registry={"ok": lambda: _result("ok")}
        )
        result = runner.run_one("ok", deadline=Deadline.after(60.0))
        assert result.experiment_id == "ok"


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
