"""Resilient experiment runner: timeouts, retries, checkpoints, jobs.

``python -m repro run all`` regenerates every table and figure in one
go; a single wedged or crashing experiment should cost that one
experiment, not the whole batch.  The runner wraps each registered
experiment with:

* a **wall-clock budget** — ``timeout_seconds`` (shrunk by a caller's
  end-to-end ``deadline``) bounds one experiment, all attempts
  included.  A bounded experiment runs in a supervised worker process,
  which the supervisor SIGKILLs at the budget; the experiment then
  fails as :class:`~repro.common.errors.ExperimentTimeout`.  Nothing
  else bounds a run: with no budget (and ``jobs=1``) the experiment
  runs in this process;
* **retry with seed rotation** — experiments whose run function takes
  an ``rng`` parameter are retried with a different seed each attempt,
  so a run that landed in a pathological noise realization gets a fresh
  draw (same idea as re-running a flaky hardware measurement).  The
  manifest records the seed that actually ran.  The service builds its
  runner with ``retries=0``: a served answer must be the registered
  seed's bytes, so there a failure is answered ``degraded`` instead;
* **graceful degradation** — an experiment that still fails after its
  retries becomes a structured :class:`ExperimentFailure` in the
  report; the remaining experiments run normally and the process exit
  code reflects the failures;
* **JSON checkpointing** — each completed result is persisted
  immediately, so an interrupted ``run all`` resumes where it stopped
  instead of recomputing finished experiments.  Entries are encoded
  once per completion and the already-encoded fragments are reused, so
  checkpointing a batch of n experiments costs O(n) encoding work, not
  O(n^2).  Checkpoints are sealed records
  (:func:`~repro.common.atomicio.seal`): a torn, bit-flipped or
  unversioned file is *detected* at load, quarantined to
  ``<name>.corrupt``, and loudly warned about — never silently
  swallowed;
* **supervised process parallelism** — ``run_many(..., jobs=N)`` fans
  independent experiments out over the supervised executor
  (:mod:`repro.experiments.supervisor`): long-lived workers with
  heartbeats and per-task deadlines, re-queue of tasks lost to worker
  death, poison-task quarantine after ``max_task_crashes`` consecutive
  crashes, and graceful SIGINT/SIGTERM drain that flushes the
  checkpoint before returning.  Every experiment derives its seeds
  from its own registered defaults (rotated deterministically on
  retry), so results are bit-identical to a sequential run even when
  workers crash and tasks re-run; completions merge into the
  checkpoint as they arrive, and per-experiment failure isolation is
  unchanged.
"""

from __future__ import annotations

import inspect
import json
import os
import time
import warnings
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.common.atomicio import RECORD_VERSION, atomic_write_text
from repro.common.atomicio import quarantine_file, seal, seal_jsonl, unseal
from repro.common.deadline import Deadline
from repro.common.errors import CheckpointCorruptWarning, ConfigurationError
from repro.experiments.base import EXPERIMENT_REGISTRY, ExperimentResult
from repro.obs.manifest import RunManifest
from repro.obs.session import ObsSession, active, observe

#: Seed offset between retry attempts, applied to experiments whose run
#: function exposes an ``rng`` parameter.
_SEED_STRIDE = 1000


def auto_jobs() -> int:
    """Default batch worker count: one per CPU actually present.

    ``run_many`` honours any explicit ``jobs`` value (tests rely on
    oversubscribing a small host to exercise the supervisor), but the
    CLI default goes through here so ``--jobs`` never silently
    oversubscribes by default.
    """
    return os.cpu_count() or 1


def _maybe_observe(session: Optional[ObsSession]):
    """``observe(session)``, or a no-op context when observability is off."""
    if session is None:
        return nullcontext()
    return observe(session)


@dataclass
class ObsCapture:
    """Observability record of one experiment's successful attempt.

    Attributes:
        experiment_id: Registered experiment id.
        manifest: Reproducibility record (seed, machines, engine, ...).
        metrics: ``MetricsRegistry.snapshot()`` of the winning attempt,
            or None for entries restored from an old checkpoint.
        events: Trace-bus records of the winning attempt (empty unless
            the runner was tracing).
    """

    experiment_id: str
    manifest: RunManifest
    metrics: Optional[Dict] = None
    events: List[Dict] = field(default_factory=list)

    def to_dict(self) -> Dict:
        """Checkpoint payload: manifest + metrics (events are trace-only)."""
        return {"manifest": self.manifest.to_dict(), "metrics": self.metrics}

    @classmethod
    def from_dict(cls, experiment_id: str, data: Dict) -> "ObsCapture":
        return cls(
            experiment_id=experiment_id,
            manifest=RunManifest.from_dict(data["manifest"]),
            metrics=data.get("metrics"),
        )


@dataclass
class ExperimentFailure:
    """One experiment that failed after exhausting its retries."""

    experiment_id: str
    error_type: str
    message: str
    attempts: int
    elapsed_seconds: float

    def render(self) -> str:
        return (
            f"[{self.experiment_id}] FAILED after {self.attempts} "
            f"attempt(s) in {self.elapsed_seconds:.1f}s: "
            f"{self.error_type}: {self.message}"
        )


@dataclass
class RunReport:
    """Outcome of one batch: completed results plus structured failures.

    ``interrupted`` means a SIGINT/SIGTERM drained the batch: completed
    results (and the checkpoint) are intact, ``unfinished`` lists the
    experiment ids that never ran, and a re-run with the same
    checkpoint completes exactly the remainder.
    """

    results: List[ExperimentResult] = field(default_factory=list)
    failures: List[ExperimentFailure] = field(default_factory=list)
    resumed: List[str] = field(default_factory=list)
    interrupted: bool = False
    unfinished: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures and not self.interrupted

    def summary(self) -> str:
        parts = [f"{len(self.results)} completed"]
        if self.resumed:
            parts.append(f"{len(self.resumed)} restored from checkpoint")
        parts.append(f"{len(self.failures)} failed")
        if self.interrupted:
            parts.append(
                f"interrupted with {len(self.unfinished)} unfinished "
                "(checkpoint flushed; re-run to resume)"
            )
        return ", ".join(parts)


def _pool_worker(spec: Tuple) -> Tuple[str, str, Dict, float, Optional[Dict]]:
    """Run one experiment in a worker process; returns a picklable record.

    This is the task body the supervised executor's workers run.
    ``spec`` is ``(experiment_id, retries, sanitize, fn, observe,
    tracing)`` where ``fn`` is None for globally registered
    experiments (the worker re-imports the registry — cheap under fork,
    required under spawn) or the pickled callable for custom registries.
    Results come back as ``to_dict`` payloads, the same round-trip
    format the checkpoint uses; the trailing element carries the
    worker's :class:`ObsCapture` (manifest/metrics/events) when
    observability was on.  Task-level errors are caught and returned as
    structured failure records — an exception escaping this function
    would kill the worker and be misread as a crash.  The worker's
    runner has no wall-clock bound: the supervisor's task deadline is
    the only one.
    """
    experiment_id, retries, sanitize, fn, observing, tracing = spec
    if fn is None:
        import repro.experiments  # noqa: F401 - populates the registry

        registry = None
    else:
        registry = {experiment_id: fn}
    runner = ExperimentRunner(
        retries=retries,
        sanitize=sanitize,
        registry=registry,
        observe=observing,
    )
    runner.tracing = tracing
    start = time.monotonic()
    try:
        result = runner.run_one(experiment_id)
    except Exception as error:  # noqa: BLE001 - isolated per experiment
        payload = {
            "experiment_id": experiment_id,
            "error_type": type(error).__name__,
            "message": str(error),
            "attempts": retries + 1,
            "elapsed_seconds": time.monotonic() - start,
        }
        return (
            experiment_id,
            "failure",
            payload,
            payload["elapsed_seconds"],
            None,
        )
    capture = runner.captures.get(experiment_id)
    obs_payload = None
    if capture is not None:
        obs_payload = capture.to_dict()
        obs_payload["events"] = capture.events
    return (
        experiment_id,
        "result",
        result.to_dict(),
        time.monotonic() - start,
        obs_payload,
    )


class ExperimentRunner:
    """Runs registered experiments with isolation between them.

    Args:
        timeout_seconds: Wall-clock budget for one experiment, all
            attempts included; ``None`` disables it.  A bounded
            experiment runs in a supervised worker process that is
            SIGKILLed at the budget (see :meth:`run_many`).
        retries: Extra attempts after the first failure (0 = fail
            fast).  Attempts rotate the experiment's ``rng`` seed when
            its run function accepts one.
        checkpoint_path: JSON file for completed results; when set,
            experiments already recorded there are restored instead of
            re-run, and every new completion is persisted immediately.
        registry: Experiment-id → callable mapping; defaults to the
            global registry (injection point for tests).
        sanitize: Run every experiment with the runtime sanitizer armed
            (see :mod:`repro.analysis.sanitize`): machines the
            experiment builds get invariant-checking proxies, and state
            corruption surfaces as a structured
            :class:`~repro.common.errors.InvariantViolation` failure
            for that experiment instead of a silently wrong table.
        observe: Open an observability session around every attempt
            (see :mod:`repro.obs`): the winning attempt's metrics
            snapshot and run manifest land in :attr:`captures` (and in
            the checkpoint).  Implied by ``trace_path``.
        trace_path: Write the batch as a JSONL trace artifact
            (:meth:`write_trace`): run header, then per experiment a
            manifest, result, metrics snapshot, and the trace-bus tail.
        max_task_crashes: Consecutive worker crashes one experiment may
            cause in the supervised executor before it is quarantined
            as a structured failure instead of re-queued.
        heartbeat_interval: Worker heartbeat period in the supervised
            executor.
        drain_timeout: After SIGINT/SIGTERM, how long in-flight
            experiments may finish before being killed.
        chaos: Test-only :class:`~repro.experiments.chaos.ChaosConfig`
            injected into workers.
    """

    def __init__(
        self,
        timeout_seconds: Optional[float] = None,
        retries: int = 1,
        checkpoint_path: Optional[str] = None,
        registry: Optional[Dict[str, Callable[..., ExperimentResult]]] = None,
        sanitize: bool = False,
        observe: bool = False,
        trace_path: Optional[str] = None,
        max_task_crashes: int = 3,
        heartbeat_interval: float = 1.0,
        drain_timeout: float = 10.0,
        chaos=None,
    ):
        if timeout_seconds is not None and timeout_seconds <= 0:
            raise ValueError(
                f"timeout_seconds must be > 0, got {timeout_seconds}"
            )
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        for option, path in (("checkpoint", checkpoint_path),
                             ("trace", trace_path)):
            # Refuse before any work runs; a bare name means the cwd.
            if path and not os.path.isdir(os.path.dirname(path) or "."):
                raise ConfigurationError(
                    f"{option} path {path}: its directory does not exist"
                )
        self.timeout_seconds = timeout_seconds
        self.retries = retries
        self.checkpoint_path = checkpoint_path
        self.registry = EXPERIMENT_REGISTRY if registry is None else registry
        self.sanitize = sanitize
        self.trace_path = trace_path
        self.observe = observe or trace_path is not None
        self.max_task_crashes = max_task_crashes
        self.heartbeat_interval = heartbeat_interval
        self.drain_timeout = drain_timeout
        self.chaos = chaos
        #: Whether per-attempt sessions carry a trace bus: on with a
        #: ``trace_path``, and in a pool worker whose parent traces.
        self.tracing = trace_path is not None
        #: Per-experiment observability records (manifest, metrics,
        #: trace events) of completed experiments, keyed by id.
        self.captures: Dict[str, ObsCapture] = {}
        #: Supervisor recovery counters of the last parallel batch
        #: (:class:`~repro.experiments.supervisor.ExecutorStats`), or
        #: None when the batch ran in-process.
        self.executor_stats = None
        #: The supervised executor of the batch in flight, or None.
        self.executor = None
        #: Corrupt durable artifacts detected (and quarantined) by this
        #: runner — surfaces in the trace header.
        self.corrupt_artifacts_detected = 0
        #: Snapshot of the batch-level (parent-process) metrics of the
        #: last ``run_many`` call, when observability was on: executor
        #: recovery counters, checkpoint corruption detections.
        self.batch_metrics: Optional[Dict] = None
        # id -> JSON-encoded checkpoint entry; each entry is encoded
        # exactly once (at load or at completion) and reused verbatim
        # for every subsequent checkpoint write.
        self._encoded_entries: Dict[str, str] = {}
        self._encoded_obs: Dict[str, str] = {}
        self._checkpoint_dirty = False

    # -- single experiment ---------------------------------------------

    def run_one(self, experiment_id: str) -> ExperimentResult:
        """Run one experiment in this process through the retry loop.

        Nothing here bounds the run's wall clock: :meth:`run_many`
        moves a bounded experiment into a supervised worker process.
        Raises whatever the final attempt raised once retries are
        exhausted.
        """
        fn = self.registry[experiment_id]
        # Resolve the signature once; retries reuse the parameter
        # instead of re-running inspect.signature per attempt.
        rng_parameter = self._rng_parameter(fn)

        def attempt(index: int) -> ExperimentResult:
            kwargs = {}
            if rng_parameter is not None and index > 0:
                kwargs["rng"] = self._rotated_seed(rng_parameter, index)
            if not self.observe:
                return self._run_attempt(fn, kwargs)
            # A fresh session per attempt: counts never bleed between
            # retries, and only the winning attempt's capture survives.
            session = self._session()
            with observe(session):
                with session.span(
                    "experiment", experiment_id=experiment_id, attempt=index
                ):
                    result = self._run_attempt(fn, kwargs)
            if index > 0:
                session.metrics.counter("runner.retries").inc(index)
            self._capture(
                experiment_id,
                session,
                self._attempt_seed(rng_parameter, index),
                index + 1,
            )
            return result

        for index in range(self.retries):
            try:
                return attempt(index)
            except Exception:  # noqa: BLE001 - the next attempt runs
                pass
        return attempt(self.retries)

    def _run_attempt(self, fn: Callable, kwargs: Dict) -> ExperimentResult:
        if self.sanitize:
            from repro.analysis.sanitize import scoped_sanitize

            with scoped_sanitize():
                return fn(**kwargs)
        return fn(**kwargs)

    def _session(self) -> ObsSession:
        """A fresh per-attempt session, with a trace bus when tracing."""
        return ObsSession() if self.tracing else ObsSession(trace_depth=0)

    def _capture(
        self,
        capture_id: str,
        session: ObsSession,
        seed: Optional[int],
        attempts: int,
    ) -> None:
        """Record a winning attempt's manifest, metrics, and events."""
        from repro.sim.fastpath import default_engine

        self.captures[capture_id] = ObsCapture(
            experiment_id=capture_id,
            manifest=RunManifest.with_provenance(
                experiment_id=capture_id,
                seed=seed,
                attempts=attempts,
                machines=session.machines(),
                fault_models=session.fault_models(),
                engine=default_engine(),
                sanitize=self.sanitize,
            ),
            metrics=session.metrics.snapshot(),
            events=session.bus.records() if session.bus is not None else [],
        )

    @staticmethod
    def _rng_parameter(fn: Callable) -> Optional[inspect.Parameter]:
        """The run function's ``rng`` parameter, if it has one."""
        try:
            return inspect.signature(fn).parameters.get("rng")
        except (TypeError, ValueError):
            return None

    @staticmethod
    def _rotated_seed(parameter: inspect.Parameter, attempt: int) -> int:
        base = parameter.default
        if not isinstance(base, int):
            base = 0
        return base + attempt * _SEED_STRIDE

    @staticmethod
    def _attempt_seed(
        parameter: Optional[inspect.Parameter], attempt: int
    ) -> Optional[int]:
        """The seed attempt ``attempt`` actually ran with (for manifests)."""
        if parameter is None:
            return None
        if attempt == 0:
            default = parameter.default
            return default if isinstance(default, int) else None
        return ExperimentRunner._rotated_seed(parameter, attempt)

    # -- batches --------------------------------------------------------

    def run_many(
        self,
        ids: Sequence[str],
        on_result: Optional[Callable[[ExperimentResult, float], None]] = None,
        on_failure: Optional[Callable[[ExperimentFailure], None]] = None,
        jobs: int = 1,
        deadline: Optional[Deadline] = None,
    ) -> RunReport:
        """Run a batch, isolating failures and checkpointing progress.

        This is the one place that decides where an experiment runs.
        With no wall-clock bound and ``jobs == 1`` (or a single pending
        experiment) it runs in this process.  Otherwise the batch goes
        to the supervised executor, whose SIGKILL at the task deadline
        is the only thing that bounds an experiment.

        Args:
            ids: Experiment ids, in execution order.  Results and
                failures are reported in this order regardless of
                ``jobs``.
            on_result: Callback fired after each completion (restored
                checkpoint entries fire it with 0.0 elapsed seconds).
            on_failure: Callback fired after each terminal failure.
            jobs: Number of worker processes.  1 (the default) runs an
                unbounded batch in this process; higher values fan
                pending experiments out over the supervised executor
                (:mod:`repro.experiments.supervisor`), which survives
                worker crashes, hangs, and signals.  Seeds are derived
                from each experiment's own registered defaults, so
                parallel results are identical to sequential ones even
                when a task re-runs after a crash.
            deadline: Optional end-to-end budget from the caller (a
                service request).  Each experiment's task deadline is
                the smaller of ``timeout_seconds`` and the time the
                deadline has left when the batch starts; once it has
                expired, pending experiments fail as
                ``ExperimentTimeout`` without starting a worker.
        """
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        cpu_count = os.cpu_count() or 1
        oversubscribed = jobs > cpu_count
        if oversubscribed:
            # Honoured anyway (tests deliberately oversubscribe tiny
            # hosts to exercise the supervisor), but flagged: extra
            # workers only time-slice the same cores.
            warnings.warn(
                f"jobs={jobs} exceeds os.cpu_count()={cpu_count}; "
                f"extra workers will time-slice, not speed up the batch",
                RuntimeWarning,
                stacklevel=2,
            )
        report = RunReport()
        batch_session = ObsSession(trace_depth=0) if self.observe else None
        with _maybe_observe(batch_session):
            if oversubscribed and batch_session is not None:
                batch_session.metrics.counter(
                    "runner.jobs.oversubscribed"
                ).inc()
            completed = self._load_checkpoint()
            pending: List[str] = []
            for experiment_id in ids:
                if experiment_id in completed:
                    result = completed[experiment_id]
                    report.results.append(result)
                    report.resumed.append(experiment_id)
                    if on_result is not None:
                        on_result(result, 0.0)
                else:
                    pending.append(experiment_id)
            task_deadline = self.timeout_seconds
            if deadline is not None:
                task_deadline = deadline.bound(task_deadline)
            if task_deadline is not None and task_deadline <= 0:
                for experiment_id in pending:
                    failure = ExperimentFailure(
                        experiment_id=experiment_id,
                        error_type="ExperimentTimeout",
                        message="not started: end-to-end deadline expired",
                        attempts=0,
                        elapsed_seconds=0.0,
                    )
                    report.failures.append(failure)
                    if on_failure is not None:
                        on_failure(failure)
            elif pending and (
                task_deadline is not None or (jobs > 1 and len(pending) > 1)
            ):
                self._run_parallel(
                    pending,
                    report,
                    completed,
                    on_result,
                    on_failure,
                    jobs,
                    task_deadline,
                )
            else:
                self._run_sequential(
                    pending, report, completed, on_result, on_failure
                )
        if batch_session is not None:
            self.batch_metrics = batch_session.metrics.snapshot()
        return report

    def run_trials(
        self,
        algorithm: str,
        trials: int,
        message_length: int = 64,
        block_size: int = 256,
        seed: int = 2020,
        hierarchy=None,
        on_result: Optional[Callable[[ExperimentResult, float], None]] = None,
        on_failure: Optional[Callable[[ExperimentFailure], None]] = None,
    ) -> RunReport:
        """Run N independent channel trials through the batch engine.

        Trials are executed in lockstep blocks of ``block_size`` by
        :class:`~repro.sim.batch.BatchEngine`; each block becomes one
        :class:`ExperimentResult` (one row per trial: bit errors and
        error rate) flowing through the same checkpoint, callback,
        capture, and trace plumbing as ``run_many``.  Per-trial RNG
        streams are keyed by the *absolute* trial index, so block
        boundaries never change any trial's result — which is what makes
        the per-block checkpoint ids (``alg1@trials0-256``) safe to
        restore under a different ``trials`` total.  A checkpoint is
        only reusable for the same ``block_size``/``message_length``/
        ``seed``; block ids do not encode those, so use a fresh
        checkpoint file per configuration.

        Args:
            algorithm: ``"alg1"`` or ``"alg2"`` (see
                :data:`~repro.sim.batch.BATCH_CHANNELS`).
            trials: Total independent transfers to run.
            message_length: Bits per trial.
            block_size: Lockstep batch width per block (memory scales
                with it; results do not depend on it).
            seed: Master seed for the per-trial streams.
            hierarchy: Optional cache shape override.
            on_result / on_failure: Per-block callbacks, as in
                ``run_many``.
        """
        from repro.sim.batch import BATCH_CHANNELS, BatchEngine

        if algorithm not in BATCH_CHANNELS:
            raise ValueError(
                f"unknown batch algorithm {algorithm!r}; "
                f"choose from {sorted(BATCH_CHANNELS)}"
            )
        if trials < 1:
            raise ValueError(f"trials must be >= 1, got {trials}")
        if block_size < 1:
            raise ValueError(f"block_size must be >= 1, got {block_size}")
        if message_length < 1:
            raise ValueError(
                f"message_length must be >= 1, got {message_length}"
            )
        engine = BatchEngine(
            algorithm=algorithm, hierarchy=hierarchy, seed=seed
        )
        blocks = [
            (lo, min(trials, lo + block_size))
            for lo in range(0, trials, block_size)
        ]
        report = RunReport()
        completed = self._load_checkpoint()
        for lo, hi in blocks:
            block_id = f"{algorithm}@trials{lo}-{hi}"
            restored = completed.get(block_id)
            if restored is not None:
                report.results.append(restored)
                report.resumed.append(block_id)
                if on_result is not None:
                    on_result(restored, 0.0)
                continue
            start = time.monotonic()
            try:
                result = self._run_trial_block(
                    engine, block_id, lo, hi, message_length, seed
                )
            except Exception as error:  # noqa: BLE001 - degraded, not fatal
                failure = ExperimentFailure(
                    experiment_id=block_id,
                    error_type=type(error).__name__,
                    message=str(error),
                    attempts=1,
                    elapsed_seconds=time.monotonic() - start,
                )
                report.failures.append(failure)
                if on_failure is not None:
                    on_failure(failure)
                continue
            report.results.append(result)
            completed[block_id] = result
            self._record_completion(block_id, result)
            self._save_checkpoint(completed)
            if on_result is not None:
                on_result(result, time.monotonic() - start)
        return report

    def _run_trial_block(
        self,
        engine,
        block_id: str,
        lo: int,
        hi: int,
        message_length: int,
        seed: int,
    ) -> ExperimentResult:
        """One lockstep block: transfer, per-trial rows, obs capture."""
        session = self._session() if self.observe else None
        with _maybe_observe(session):
            if session is not None:
                with session.span(
                    "trial-block", experiment_id=block_id, attempt=0
                ):
                    transfer = engine.run_transfer(
                        hi - lo, message_length, trial_offset=lo
                    )
            else:
                transfer = engine.run_transfer(
                    hi - lo, message_length, trial_offset=lo
                )
        errors = (transfer.sent != transfer.decoded).sum(axis=1)
        rates = transfer.error_rates()
        notes = (
            f"engine=batch seed={seed} "
            f"threshold={transfer.threshold:.2f} cycles"
        )
        if transfer.fallback_steps:
            notes += (
                f"; open-table fallback served "
                f"{transfer.fallback_steps} trial-steps"
            )
        result = ExperimentResult(
            experiment_id=block_id,
            title=(
                f"batch {engine.algorithm} trials {lo}..{hi - 1} "
                f"({message_length} bits/trial)"
            ),
            columns=["trial", "bit_errors", "error_rate"],
            rows=[
                [lo + index, int(errors[index]), float(rates[index])]
                for index in range(hi - lo)
            ],
            notes=notes,
        )
        if session is not None:
            self._capture(block_id, session, seed, 1)
        return result

    def _run_sequential(
        self,
        pending: Sequence[str],
        report: RunReport,
        completed: Dict[str, ExperimentResult],
        on_result,
        on_failure,
    ) -> None:
        for experiment_id in pending:
            start = time.monotonic()
            try:
                result = self.run_one(experiment_id)
            except Exception as error:  # noqa: BLE001 - degraded, not fatal
                failure = ExperimentFailure(
                    experiment_id=experiment_id,
                    error_type=type(error).__name__,
                    message=str(error),
                    attempts=self.retries + 1,
                    elapsed_seconds=time.monotonic() - start,
                )
                report.failures.append(failure)
                if on_failure is not None:
                    on_failure(failure)
                continue
            report.results.append(result)
            completed[experiment_id] = result
            self._record_completion(experiment_id, result)
            self._save_checkpoint(completed)
            if on_result is not None:
                on_result(result, time.monotonic() - start)

    def _run_parallel(
        self,
        pending: Sequence[str],
        report: RunReport,
        completed: Dict[str, ExperimentResult],
        on_result,
        on_failure,
        jobs: int,
        task_deadline: Optional[float],
    ) -> None:
        """Run pending experiments on the supervised executor.

        Checkpoint merges happen in this (parent) process as completions
        arrive.  Callbacks fire in submission order, as ``run_many``
        promises: a completion waits until every experiment before it
        has arrived, and an interrupted batch releases the rest, in
        order, once the executor returns.  The final report lists
        results in submission order too, so output is stable across
        schedules.  Worker crashes re-queue their task (the re-run is
        bit-identical), poison tasks arrive as structured
        ``WorkerCrashed`` failures, and a task past ``task_deadline`` is
        killed and arrives as an ``ExperimentTimeout`` failure.
        """
        from repro.experiments.supervisor import SupervisedExecutor

        global_registry = self.registry is EXPERIMENT_REGISTRY
        tasks = [
            (
                experiment_id,
                (
                    experiment_id,
                    self.retries,
                    self.sanitize,
                    None if global_registry else self.registry[experiment_id],
                    self.observe,
                    self.tracing,
                ),
            )
            for experiment_id in pending
        ]
        results_by_id: Dict[str, ExperimentResult] = {}
        failures_by_id: Dict[str, ExperimentFailure] = {}
        elapsed_by_id: Dict[str, float] = {}
        released = 0

        def release(stop_at_gap: bool) -> None:
            """Fire the callbacks of arrived records, in ``pending`` order."""
            nonlocal released
            while released < len(pending):
                experiment_id = pending[released]
                if experiment_id in results_by_id:
                    if on_result is not None:
                        on_result(
                            results_by_id[experiment_id],
                            elapsed_by_id[experiment_id],
                        )
                elif experiment_id in failures_by_id:
                    if on_failure is not None:
                        on_failure(failures_by_id[experiment_id])
                elif stop_at_gap:
                    return
                released += 1

        def on_record(record) -> None:
            experiment_id, kind, payload, elapsed, obs_payload = record
            if kind == "result":
                result = ExperimentResult.from_dict(payload)
                results_by_id[experiment_id] = result
                elapsed_by_id[experiment_id] = elapsed
                completed[experiment_id] = result
                if obs_payload is not None:
                    capture = ObsCapture.from_dict(experiment_id, obs_payload)
                    capture.events = obs_payload.get("events", [])
                    self.captures[experiment_id] = capture
                self._record_completion(experiment_id, result)
                self._save_checkpoint(completed)
            else:
                failures_by_id[experiment_id] = ExperimentFailure(**payload)
            release(stop_at_gap=True)

        executor = SupervisedExecutor(
            worker_fn=_pool_worker,
            jobs=min(jobs, len(tasks)),
            heartbeat_interval=self.heartbeat_interval,
            task_deadline=task_deadline,
            max_task_crashes=self.max_task_crashes,
            drain_timeout=self.drain_timeout,
            chaos=self.chaos,
        )
        self.executor = executor
        try:
            outcome = executor.run(tasks, on_record)
        finally:
            self.executor = None
        # A drain leaves unfinished experiments; what arrived after the
        # first of them is still reported, in order.
        release(stop_at_gap=False)
        self.executor_stats = outcome.stats
        report.interrupted = outcome.interrupted
        report.unfinished = list(outcome.unfinished)
        # A drain interrupts the executor loop between completions; the
        # per-completion saves already flushed everything that finished,
        # but make the final state explicit (and cheap: clean skips).
        self._save_checkpoint(completed)
        for experiment_id in pending:
            if experiment_id in results_by_id:
                report.results.append(results_by_id[experiment_id])
            elif experiment_id in failures_by_id:
                report.failures.append(failures_by_id[experiment_id])

    # -- checkpointing --------------------------------------------------

    def _load_checkpoint(self) -> Dict[str, ExperimentResult]:
        self._encoded_entries = {}
        self._encoded_obs = {}
        self._checkpoint_dirty = False
        if self.checkpoint_path is None:
            return {}
        try:
            with open(self.checkpoint_path) as handle:
                raw = handle.read()
        except FileNotFoundError:
            return {}
        except (OSError, UnicodeDecodeError) as error:
            # UnicodeDecodeError: a bit flip can corrupt the UTF-8
            # encoding itself, before JSON parsing even starts.
            return self._quarantine_checkpoint(f"unreadable: {error}")
        try:
            entries = json.loads(unseal(raw))
        except ValueError as error:
            return self._quarantine_checkpoint(str(error))
        restored = {}
        try:
            for experiment_id, entry in entries.get("results", {}).items():
                restored[experiment_id] = ExperimentResult.from_dict(entry)
                # Encode restored entries once, straight from the raw dict.
                self._encoded_entries[experiment_id] = json.dumps(entry)
            for experiment_id, entry in entries.get("obs", {}).items():
                if experiment_id in restored:
                    self.captures[experiment_id] = ObsCapture.from_dict(
                        experiment_id, entry
                    )
                    self._encoded_obs[experiment_id] = json.dumps(entry)
        except (KeyError, TypeError, AttributeError) as error:
            self.captures.clear()
            self._encoded_entries = {}
            self._encoded_obs = {}
            return self._quarantine_checkpoint(
                f"entries do not decode ({type(error).__name__}: {error})"
            )
        return restored

    def _quarantine_checkpoint(self, reason: str) -> Dict:
        """Move a corrupt checkpoint aside and warn — never silently eat it."""
        corrupt_path = quarantine_file(self.checkpoint_path)
        self.corrupt_artifacts_detected += 1
        session = active()
        if session is not None:
            session.metrics.counter("checkpoint.corrupt.detected").inc()
        where = (
            f"quarantined to {corrupt_path}"
            if corrupt_path
            else "could not be quarantined (left in place; it will be "
            "overwritten)"
        )
        warnings.warn(
            f"checkpoint {self.checkpoint_path} failed integrity checks "
            f"({reason}); {where}; completed experiments will be "
            "recomputed",
            CheckpointCorruptWarning,
            stacklevel=3,
        )
        return {}

    def _record_completion(
        self, experiment_id: str, result: ExperimentResult
    ) -> None:
        """Encode one finished result (and its capture) for checkpoint reuse."""
        if self.checkpoint_path is not None:
            self._encoded_entries[experiment_id] = json.dumps(result.to_dict())
            capture = self.captures.get(experiment_id)
            if capture is not None:
                self._encoded_obs[experiment_id] = json.dumps(capture.to_dict())
            self._checkpoint_dirty = True

    def _save_checkpoint(self, completed: Dict[str, ExperimentResult]) -> None:
        if self.checkpoint_path is None or not self._checkpoint_dirty:
            # Nothing new since the last write (e.g. a pure resume):
            # skip the write entirely.
            return
        # Assemble from the per-entry fragments; only brand-new entries
        # were encoded since the last write, so a batch of n completions
        # costs O(n) total encoding work instead of O(n^2).
        fragments = []
        obs_fragments = []
        for experiment_id, result in completed.items():
            encoded = self._encoded_entries.get(experiment_id)
            if encoded is None:
                encoded = json.dumps(result.to_dict())
                self._encoded_entries[experiment_id] = encoded
            fragments.append(f"{json.dumps(experiment_id)}: {encoded}")
            encoded_obs = self._encoded_obs.get(experiment_id)
            if encoded_obs is not None:
                obs_fragments.append(
                    f"{json.dumps(experiment_id)}: {encoded_obs}"
                )
        payload = (
            '{"results": {'
            + ", ".join(fragments)
            + '}, "obs": {'
            + ", ".join(obs_fragments)
            + "}}"
        )
        # The write is atomic *and durable* (fsync before rename) so a
        # power loss never publishes an empty or torn file.
        atomic_write_text(self.checkpoint_path, seal(payload))
        self._checkpoint_dirty = False

    # -- trace artifact -------------------------------------------------

    def write_trace(
        self, report: RunReport, ids: Sequence[str], jobs: int = 1
    ) -> Optional[str]:
        """Write the batch's JSONL trace artifact to ``trace_path``.

        One ``run`` header (provenance + invocation), then per completed
        experiment a ``manifest``, ``result``, and ``metrics`` record,
        then the per-experiment trace-bus records (each stamped with its
        ``experiment_id``).  Returns the path written, or None when the
        runner has no ``trace_path``.
        """
        if self.trace_path is None:
            return None
        from repro.obs.manifest import git_revision
        from repro.sim.fastpath import default_engine
        import platform

        import repro

        lines: List[str] = []
        header = {
            "type": "run",
            "trace_version": RECORD_VERSION,
            "experiment_ids": list(ids),
            "package_version": repro.__version__,
            "git_rev": git_revision(),
            "python_version": platform.python_version(),
            "engine": default_engine(),
            "jobs": jobs,
            "sanitize": self.sanitize,
            "summary": report.summary(),
        }
        if self.executor_stats is not None:
            header["executor"] = self.executor_stats.to_dict()
        if self.corrupt_artifacts_detected:
            header["corrupt_artifacts_detected"] = (
                self.corrupt_artifacts_detected
            )
        lines.append(json.dumps(header))
        for result in report.results:
            capture = self.captures.get(result.experiment_id)
            if capture is not None:
                manifest_record = {"type": "manifest"}
                manifest_record.update(capture.manifest.to_dict())
                lines.append(json.dumps(manifest_record))
            lines.append(
                json.dumps(
                    {
                        "type": "result",
                        "experiment_id": result.experiment_id,
                        "result": result.to_dict(),
                    }
                )
            )
            if capture is not None and capture.metrics is not None:
                lines.append(
                    json.dumps(
                        {
                            "type": "metrics",
                            "experiment_id": result.experiment_id,
                            "metrics": capture.metrics,
                        }
                    )
                )
        for result in report.results:
            capture = self.captures.get(result.experiment_id)
            if capture is None:
                continue
            for record in capture.events:
                stamped = dict(record)
                stamped["experiment_id"] = result.experiment_id
                lines.append(json.dumps(stamped))
        for failure in report.failures:
            lines.append(
                json.dumps(
                    {
                        "type": "failure",
                        "experiment_id": failure.experiment_id,
                        "error_type": failure.error_type,
                        "message": failure.message,
                        "attempts": failure.attempts,
                    }
                )
            )
        atomic_write_text(self.trace_path, seal_jsonl(lines))
        return self.trace_path
