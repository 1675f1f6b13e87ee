"""Tests for the process-parallel experiment runner and checkpoint costs.

The experiment functions live at module level so ``multiprocessing``
can pickle them into pool workers (lambdas, which the sequential tests
use freely, cannot cross a process boundary).
"""

import json
import os
import signal
import time
from functools import partial

import pytest

from repro.experiments.base import ExperimentResult
from repro.experiments.chaos import schedule_signal
from repro.experiments.runner import ExperimentRunner, _pool_worker

IDS = ["alpha", "beta", "gamma", "delta"]


def _result(experiment_id, rows=None):
    return ExperimentResult(
        experiment_id=experiment_id,
        title=f"test result {experiment_id}",
        columns=["x"],
        rows=rows if rows is not None else [[1]],
    )


def run_alpha():
    return _result("alpha")


def run_beta():
    return _result("beta", rows=[[2]])


def run_gamma(rng: int = 42):
    # Embeds its seed so seed determinism is observable in the result.
    return _result("gamma", rows=[[rng]])


def run_delta():
    return _result("delta", rows=[[4]])


def run_broken():
    raise RuntimeError("intentional failure")


def run_after_marker(marker, experiment_id):
    # Finishes only once a later experiment has written ``marker``.
    deadline = time.monotonic() + 60.0
    while not os.path.exists(marker):
        if time.monotonic() > deadline:
            raise TimeoutError(f"{marker} never appeared")
        time.sleep(0.01)
    return _result(experiment_id)


def run_writing_marker(marker, experiment_id):
    with open(marker, "w"):
        pass
    return _result(experiment_id)


def make_registry():
    return {
        "alpha": run_alpha,
        "beta": run_beta,
        "gamma": run_gamma,
        "delta": run_delta,
    }


def checkpoint_payload(path):
    """Unwrap a v2 checkpoint envelope, asserting its shape on the way."""
    envelope = json.loads(path.read_text())
    assert envelope["version"] == 2
    assert envelope["checksum"].startswith("sha256:")
    return envelope["data"]


class TestParallelRunMany:
    def test_matches_sequential_run(self):
        sequential = ExperimentRunner(
            retries=0, registry=make_registry()
        ).run_many(IDS)
        parallel = ExperimentRunner(
            retries=0, registry=make_registry()
        ).run_many(IDS, jobs=2)
        assert [r.experiment_id for r in parallel.results] == IDS
        assert [r.to_dict() for r in parallel.results] == [
            r.to_dict() for r in sequential.results
        ]
        assert parallel.ok

    def test_results_reported_in_submission_order(self):
        report = ExperimentRunner(
            retries=0, registry=make_registry()
        ).run_many(list(reversed(IDS)), jobs=4)
        assert [r.experiment_id for r in report.results] == list(
            reversed(IDS)
        )

    def test_failure_isolation(self):
        registry = make_registry()
        registry["broken"] = run_broken
        ids = ["alpha", "broken", "beta", "gamma"]
        report = ExperimentRunner(retries=0, registry=registry).run_many(
            ids, jobs=2
        )
        assert not report.ok
        assert [f.experiment_id for f in report.failures] == ["broken"]
        assert report.failures[0].error_type == "RuntimeError"
        assert "intentional failure" in report.failures[0].message
        assert [r.experiment_id for r in report.results] == [
            "alpha",
            "beta",
            "gamma",
        ]

    def test_callbacks_fire_per_completion(self):
        seen_results, seen_failures = [], []
        registry = make_registry()
        registry["broken"] = run_broken
        ExperimentRunner(retries=0, registry=registry).run_many(
            ["alpha", "beta", "broken"],
            on_result=lambda result, elapsed: seen_results.append(
                result.experiment_id
            ),
            on_failure=lambda failure: seen_failures.append(
                failure.experiment_id
            ),
            jobs=2,
        )
        assert sorted(seen_results) == ["alpha", "beta"]
        assert seen_failures == ["broken"]

    def test_callbacks_fire_in_submission_order(self, tmp_path):
        # The first experiment finishes only after the last one has, so
        # records arrive out of order; the callbacks must not.
        marker = str(tmp_path / "last-finished")
        checkpoint = tmp_path / "progress.json"
        registry = {
            "first": partial(run_after_marker, marker, "first"),
            "broken": run_broken,
            "last": partial(run_writing_marker, marker, "last"),
        }
        seen = []

        def on_result(result, elapsed):
            saved = sorted(checkpoint_payload(checkpoint)["results"])
            seen.append((result.experiment_id, saved))

        report = ExperimentRunner(
            retries=0, registry=registry, checkpoint_path=str(checkpoint)
        ).run_many(
            ["first", "broken", "last"],
            on_result=on_result,
            on_failure=lambda failure: seen.append(
                (failure.experiment_id, None)
            ),
            jobs=2,
        )
        assert [entry[0] for entry in seen] == ["first", "broken", "last"]
        # ``last`` arrived, and was checkpointed, before ``first``.
        assert seen[0][1] == ["first", "last"]
        assert [r.experiment_id for r in report.results] == ["first", "last"]

    def test_checkpoint_written_and_resumed(self, tmp_path):
        checkpoint = tmp_path / "progress.json"
        first = ExperimentRunner(
            retries=0,
            checkpoint_path=str(checkpoint),
            registry=make_registry(),
        ).run_many(IDS, jobs=2)
        assert first.ok
        data = checkpoint_payload(checkpoint)
        assert sorted(data["results"]) == sorted(IDS)
        # Second run restores everything: even a registry of bombs never
        # gets called.
        bombs = {experiment_id: run_broken for experiment_id in IDS}
        second = ExperimentRunner(
            retries=0, checkpoint_path=str(checkpoint), registry=bombs
        ).run_many(IDS, jobs=2)
        assert second.ok
        assert sorted(second.resumed) == sorted(IDS)

    def test_seed_determinism_across_jobs(self):
        for jobs in (1, 3):
            report = ExperimentRunner(
                retries=0, registry=make_registry()
            ).run_many(IDS, jobs=jobs)
            gamma = next(
                r for r in report.results if r.experiment_id == "gamma"
            )
            assert gamma.rows == [[42]]

    def test_jobs_must_be_positive(self):
        runner = ExperimentRunner(registry=make_registry())
        with pytest.raises(ValueError):
            runner.run_many(IDS, jobs=0)

    def test_oversubscribed_jobs_warn_but_still_run(self):
        import os

        runner = ExperimentRunner(
            retries=0, registry=make_registry(), observe=True
        )
        too_many = (os.cpu_count() or 1) + 63
        with pytest.warns(RuntimeWarning, match="exceeds os.cpu_count"):
            report = runner.run_many(IDS, jobs=too_many)
        assert report.ok
        counters = runner.batch_metrics["counters"]
        assert counters["runner.jobs.oversubscribed"] == 1

    def test_default_jobs_match_the_host(self):
        import os

        from repro.experiments.runner import auto_jobs

        assert auto_jobs() == (os.cpu_count() or 1)

    def test_single_pending_experiment_stays_in_process(self):
        # jobs > 1 with one pending id takes the sequential path — no
        # pool overhead, and in-process registries with lambdas work.
        runner = ExperimentRunner(
            retries=0, registry={"solo": lambda: _result("solo")}
        )
        report = runner.run_many(["solo"], jobs=8)
        assert [r.experiment_id for r in report.results] == ["solo"]


SLOW_IDS = [f"slow{i}" for i in range(6)]


def run_slow(experiment_id, rng: int = 5):
    # Slow enough that a mid-batch SIGINT reliably interrupts, seeded so
    # re-runs are bit-identical.
    time.sleep(0.35)
    return _result(experiment_id, rows=[[rng, experiment_id]])


def make_slow_registry():
    return {
        experiment_id: partial(run_slow, experiment_id)
        for experiment_id in SLOW_IDS
    }


class TestResumeSemantics:
    """SIGINT mid-batch → checkpoint flushed → re-run completes the
    remainder, and the union is bit-identical to an undisturbed run."""

    def test_sigint_then_rerun_is_bit_identical(self, tmp_path):
        expected = [
            r.to_dict()
            for r in ExperimentRunner(
                retries=0, registry=make_slow_registry()
            )
            .run_many(SLOW_IDS)
            .results
        ]

        checkpoint = tmp_path / "progress.json"
        first = ExperimentRunner(
            retries=0,
            checkpoint_path=str(checkpoint),
            registry=make_slow_registry(),
            heartbeat_interval=0.1,
            drain_timeout=10.0,
        )
        timer = schedule_signal(0.4, signal.SIGINT)
        try:
            interrupted = first.run_many(SLOW_IDS, jobs=2)
        finally:
            timer.cancel()
        assert interrupted.interrupted
        assert not interrupted.ok
        assert interrupted.unfinished
        assert "unfinished" in interrupted.summary()
        done = {r.experiment_id for r in interrupted.results}
        assert set(interrupted.unfinished) == set(SLOW_IDS) - done
        # Everything that finished made it into the flushed checkpoint.
        saved = checkpoint_payload(checkpoint)
        assert sorted(saved["results"]) == sorted(done)

        second = ExperimentRunner(
            retries=0,
            checkpoint_path=str(checkpoint),
            registry=make_slow_registry(),
        )
        resumed = second.run_many(SLOW_IDS, jobs=2)
        assert resumed.ok
        assert not resumed.interrupted
        assert sorted(resumed.resumed) == sorted(done)
        assert [r.to_dict() for r in resumed.results] == expected


class TestDurableCheckpoints:
    def test_no_tmp_file_left_behind(self, tmp_path):
        checkpoint = tmp_path / "progress.json"
        ExperimentRunner(
            retries=0,
            checkpoint_path=str(checkpoint),
            registry=make_registry(),
        ).run_many(IDS, jobs=2)
        assert not (tmp_path / "progress.json.tmp").exists()
        assert checkpoint.exists()


class TestPoolWorker:
    def test_result_payload_round_trips(self):
        experiment_id, kind, payload, elapsed, obs = _pool_worker(
            ("beta", False, run_beta, False, False)
        )
        assert (experiment_id, kind) == ("beta", "result")
        assert ExperimentResult.from_dict(payload).rows == [[2]]
        assert elapsed >= 0.0
        assert obs is None

    def test_failure_payload_is_structured(self):
        experiment_id, kind, payload, _, obs = _pool_worker(
            ("broken", False, run_broken, False, False)
        )
        assert (experiment_id, kind) == ("broken", "failure")
        assert payload["error_type"] == "RuntimeError"
        assert payload["attempts"] == 1
        assert obs is None

    def test_observing_worker_returns_capture(self):
        _, kind, _, _, obs = _pool_worker(
            ("beta", False, run_beta, True, False)
        )
        assert kind == "result"
        assert obs is not None
        assert obs["manifest"]["experiment_id"] == "beta"
        assert "metrics" in obs and obs["events"] == []


class TestCheckpointCosts:
    def test_entries_encoded_once_per_completion(self, monkeypatch, tmp_path):
        import repro.experiments.runner as runner_module

        calls = []
        real_dumps = json.dumps

        def counting_dumps(obj, *args, **kwargs):
            calls.append(obj)
            return real_dumps(obj, *args, **kwargs)

        monkeypatch.setattr(runner_module.json, "dumps", counting_dumps)
        runner = ExperimentRunner(
            retries=0,
            checkpoint_path=str(tmp_path / "progress.json"),
            registry=make_registry(),
        )
        runner.run_many(IDS)
        # One encode per result body plus one per id key fragment —
        # linear in completions, not quadratic (the old code re-encoded
        # every prior result on every save: 1+2+3+4 = 10 bodies).
        bodies = [c for c in calls if isinstance(c, dict)]
        assert len(bodies) == len(IDS)

    def test_pure_resume_skips_the_write(self, tmp_path):
        checkpoint = tmp_path / "progress.json"
        ExperimentRunner(
            retries=0,
            checkpoint_path=str(checkpoint),
            registry=make_registry(),
        ).run_many(IDS)
        stamp = checkpoint.stat().st_mtime_ns
        resumed = ExperimentRunner(
            retries=0,
            checkpoint_path=str(checkpoint),
            registry=make_registry(),
        )
        report = resumed.run_many(IDS)
        assert sorted(report.resumed) == sorted(IDS)
        assert not resumed._checkpoint_dirty
        assert checkpoint.stat().st_mtime_ns == stamp

    def test_checkpoint_file_is_valid_json(self, tmp_path):
        checkpoint = tmp_path / "progress.json"
        ExperimentRunner(
            retries=0,
            checkpoint_path=str(checkpoint),
            registry=make_registry(),
        ).run_many(IDS)
        data = checkpoint_payload(checkpoint)
        restored = {
            experiment_id: ExperimentResult.from_dict(entry)
            for experiment_id, entry in data["results"].items()
        }
        assert restored["gamma"].rows == [[42]]


class TestSignatureResolution:
    def test_registered_seed_is_the_rng_default(self):
        assert ExperimentRunner._registered_seed(run_gamma) == 42

        def unseeded(rng=None):
            return None

        assert ExperimentRunner._registered_seed(unseeded) is None

    def test_rng_parameter_absent(self):
        assert ExperimentRunner._registered_seed(run_alpha) is None

    def test_uninspectable_function_is_tolerated(self):
        assert ExperimentRunner._registered_seed(dict.fromkeys) is None
