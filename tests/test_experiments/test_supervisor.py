"""Unit tests for the supervised crash-safe executor.

Worker functions live at module level so ``multiprocessing`` can pickle
them into worker processes.  Everything stochastic is seeded through
:class:`~repro.experiments.chaos.ChaosConfig`, so every crash in these
tests happens at the same point on every run.
"""

import os
import signal
import time

import pytest

from repro.common.errors import ExecutorError
from repro.experiments.chaos import ChaosConfig, schedule_signal
from repro.experiments.runner import ExperimentFailure
from repro.experiments.supervisor import (
    MAX_SLOT_RESPAWNS,
    ExecutorStats,
    SupervisedExecutor,
)


def echo_worker(spec):
    task_id, value = spec
    return (task_id, "result", {"value": value}, 0.0, None)


def sleepy_worker(spec):
    task_id, seconds = spec
    time.sleep(seconds)
    return (task_id, "result", {"slept": seconds}, seconds, None)


def suicidal_worker(spec):
    os._exit(9)


def echo_tasks(n):
    return [(f"t{i}", (f"t{i}", i * 10)) for i in range(n)]


def collect():
    records = []
    return records, records.append


def find_kill_seed(task_id, kill_probability):
    """A chaos seed that kills ``task_id``'s first attempt but not its
    second — the deterministic way to exercise requeue-then-success."""
    for seed in range(1000):
        config = ChaosConfig(
            seed=seed, kill_before_run=kill_probability, only_tasks=(task_id,)
        )
        if (
            config.decide(task_id, 0).kill_before_run
            and not config.decide(task_id, 1).kill_before_run
        ):
            return seed
    raise AssertionError("no suitable seed in range")


class TestHappyPath:
    def test_all_tasks_complete_once(self):
        records, on_record = collect()
        executor = SupervisedExecutor(
            worker_fn=echo_worker, jobs=2, heartbeat_interval=0.1
        )
        outcome = executor.run(echo_tasks(6), on_record)
        assert sorted(r[0] for r in records) == [f"t{i}" for i in range(6)]
        assert {r[2]["value"] for r in records} == {0, 10, 20, 30, 40, 50}
        assert not outcome.interrupted
        assert outcome.unfinished == []
        assert outcome.stats.clean
        assert outcome.stats.workers_spawned == 2

    def test_stats_to_dict_round_trips_every_counter(self):
        stats = ExecutorStats(
            workers_crashed=1,
            workers_killed_deadline=2,
            workers_killed_heartbeat=3,
            tasks_requeued=4,
            tasks_quarantined=5,
            workers_spawned=6,
        )
        assert stats.to_dict() == {
            "workers_crashed": 1,
            "workers_killed_deadline": 2,
            "workers_killed_heartbeat": 3,
            "tasks_requeued": 4,
            "tasks_quarantined": 5,
            "workers_spawned": 6,
        }
        assert not stats.clean
        assert ExecutorStats().clean


class TestValidation:
    def test_constructor_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            SupervisedExecutor(worker_fn=echo_worker, jobs=0)
        with pytest.raises(ValueError):
            SupervisedExecutor(
                worker_fn=echo_worker, jobs=1, heartbeat_interval=0.0
            )
        with pytest.raises(ValueError):
            SupervisedExecutor(
                worker_fn=echo_worker, jobs=1, max_task_crashes=0
            )
        with pytest.raises(ValueError):
            SupervisedExecutor(
                worker_fn=echo_worker, jobs=1, drain_timeout=-1.0
            )
        with pytest.raises(ValueError):
            SupervisedExecutor(
                worker_fn=echo_worker, jobs=1, task_deadline=0.0
            )

    def test_duplicate_task_ids_rejected(self):
        executor = SupervisedExecutor(worker_fn=echo_worker, jobs=1)
        with pytest.raises(ValueError, match="duplicate"):
            executor.run(
                [("same", ("same", 1)), ("same", ("same", 2))],
                lambda record: None,
            )


class TestCrashRecovery:
    def test_killed_task_requeues_and_completes(self):
        seed = find_kill_seed("t1", 0.5)
        records, on_record = collect()
        executor = SupervisedExecutor(
            worker_fn=echo_worker,
            jobs=2,
            heartbeat_interval=0.1,
            chaos=ChaosConfig(
                seed=seed, kill_before_run=0.5, only_tasks=("t1",)
            ),
        )
        outcome = executor.run(echo_tasks(4), on_record)
        assert sorted(r[0] for r in records) == ["t0", "t1", "t2", "t3"]
        assert all(r[1] == "result" for r in records)
        assert outcome.stats.workers_crashed == 1
        assert outcome.stats.tasks_requeued == 1
        assert outcome.stats.tasks_quarantined == 0
        assert outcome.stats.workers_spawned == 3  # 2 initial + 1 respawn

    def test_poison_task_quarantined_as_structured_failure(self):
        records, on_record = collect()
        executor = SupervisedExecutor(
            worker_fn=echo_worker,
            jobs=2,
            heartbeat_interval=0.1,
            max_task_crashes=2,
            chaos=ChaosConfig(
                seed=0, kill_before_run=1.0, only_tasks=("t2",)
            ),
        )
        outcome = executor.run(echo_tasks(4), on_record)
        by_id = {r[0]: r for r in records}
        assert by_id["t2"][1] == "failure"
        payload = by_id["t2"][2]
        assert payload["error_type"] == "WorkerCrashed"
        assert "quarantined after 2 consecutive" in payload["message"]
        assert payload["attempts"] == 2
        # The rest of the batch is unharmed.
        for task_id in ("t0", "t1", "t3"):
            assert by_id[task_id][1] == "result"
        assert outcome.stats.tasks_quarantined == 1
        assert outcome.stats.workers_crashed == 2
        assert not outcome.interrupted

    def test_all_slots_dead_raises_executor_error(self):
        executor = SupervisedExecutor(
            worker_fn=suicidal_worker,
            jobs=1,
            heartbeat_interval=0.1,
            max_task_crashes=MAX_SLOT_RESPAWNS + 10,
        )
        with pytest.raises(ExecutorError, match="respawn"):
            executor.run([("doomed", ("doomed", 0))], lambda record: None)


class TestDeadlineAndHeartbeat:
    def test_deadline_kill_is_a_timeout_and_is_not_requeued(self):
        # A re-run is bit-identical, so it could only time out again:
        # the first deadline kill ends the task even with crash budget
        # left.
        records, on_record = collect()
        executor = SupervisedExecutor(
            worker_fn=sleepy_worker,
            jobs=1,
            heartbeat_interval=0.05,
            task_deadline=0.3,
            max_task_crashes=3,
        )
        outcome = executor.run([("wedged", ("wedged", 30.0))], on_record)
        # The record is shaped like a failure ``worker_fn`` returns.
        ((task_id, kind, payload, elapsed, obs_payload),) = records
        assert (task_id, kind, obs_payload) == ("wedged", "failure", None)
        assert elapsed >= 0.3
        failure = ExperimentFailure(**payload)
        assert failure.experiment_id == "wedged"
        assert failure.error_type == "ExperimentTimeout"
        assert "deadline" in failure.message
        assert failure.attempts == 1
        assert failure.elapsed_seconds == elapsed
        assert outcome.stats.workers_killed_deadline == 1
        assert outcome.stats.tasks_requeued == 0
        assert outcome.stats.tasks_quarantined == 0

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_deadline_kill_spares_the_rest_of_the_batch(self, jobs):
        # The killed slot respawns with fresh pipes and any other slot
        # keeps going: every other task runs and each reports once.
        records, on_record = collect()
        executor = SupervisedExecutor(
            worker_fn=sleepy_worker,
            jobs=jobs,
            heartbeat_interval=0.05,
            task_deadline=0.3,
        )
        tasks = [("wedged", ("wedged", 30.0))] + [
            (f"q{i}", (f"q{i}", 0.0)) for i in range(4)
        ]
        outcome = executor.run(tasks, on_record)
        kinds = {r[0]: r[1] for r in records}
        assert len(records) == len(tasks)
        assert kinds.pop("wedged") == "failure"
        assert set(kinds.values()) == {"result"}
        assert outcome.stats.workers_spawned == jobs + 1
        assert outcome.stats.workers_killed_deadline == 1
        assert outcome.unfinished == []

    def test_stale_heartbeat_kill(self):
        records, on_record = collect()
        executor = SupervisedExecutor(
            worker_fn=sleepy_worker,
            jobs=1,
            heartbeat_interval=0.05,
            heartbeat_timeout=0.4,
            max_task_crashes=1,
            chaos=ChaosConfig(
                seed=0, stall_heartbeat=1.0, stall_seconds=60.0
            ),
        )
        outcome = executor.run([("frozen", ("frozen", 30.0))], on_record)
        assert records[0][1] == "failure"
        assert "heartbeat" in records[0][2]["message"]
        assert outcome.stats.workers_killed_heartbeat == 1
        assert outcome.stats.tasks_quarantined == 1


class TestSignalDrain:
    def test_sigint_drains_in_flight_and_reports_unfinished(self):
        records, on_record = collect()
        tasks = [(f"s{i}", (f"s{i}", 0.4)) for i in range(4)]
        executor = SupervisedExecutor(
            worker_fn=sleepy_worker,
            jobs=2,
            heartbeat_interval=0.1,
            drain_timeout=10.0,
        )
        handler_before = signal.getsignal(signal.SIGINT)
        timer = schedule_signal(0.15, signal.SIGINT)
        try:
            outcome = executor.run(tasks, on_record)
        finally:
            timer.cancel()
        assert outcome.interrupted
        finished = {r[0] for r in records}
        assert finished  # the in-flight tasks were allowed to finish
        assert set(outcome.unfinished) == {t[0] for t in tasks} - finished
        assert outcome.unfinished  # and the rest was never started
        # The previous SIGINT handler was restored afterwards.
        assert signal.getsignal(signal.SIGINT) is handler_before
