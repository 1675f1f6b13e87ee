"""Resilient experiment runner: timeouts, retries, checkpoints, jobs.

``python -m repro run all`` regenerates every table and figure in one
go; a single wedged or crashing experiment should cost that one
experiment, not the whole batch.  The runner wraps each registered
experiment with:

* a **wall-clock timeout** — the experiment runs on a worker thread and
  is abandoned (the daemon thread is left to die with the process) if
  it exceeds the budget, surfacing as
  :class:`~repro.common.errors.ExperimentTimeout`.  The abandoned
  thread's result slot is *sealed* at the timeout verdict, so a late
  result is provably discarded (never merged into the checkpoint), and
  the leak is counted via ``runner.timeouts.leaked_threads``;
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
  O(n^2).  Checkpoints are versioned and checksummed: a torn or
  bit-flipped file is *detected* at load, quarantined to
  ``<name>.corrupt``, and loudly warned about — never silently
  swallowed — and the legacy (PR 3/4) unversioned format migrates to
  the checksummed one on first load;
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

import hashlib
import inspect
import json
import os
import threading
import time
import warnings
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.common.atomicio import atomic_write_text, quarantine_file
from repro.common.deadline import Deadline
from repro.common.errors import CheckpointCorruptWarning, ExperimentTimeout
from repro.experiments.base import EXPERIMENT_REGISTRY, ExperimentResult
from repro.obs.manifest import RunManifest
from repro.obs.session import ObsSession, active, observe

#: Seed offset between retry attempts, applied to experiments whose run
#: function exposes an ``rng`` parameter.
_SEED_STRIDE = 1000

#: Current on-disk checkpoint format.  Version 2 wraps the PR 3/4
#: payload in a ``{"version", "checksum", "data"}`` envelope whose
#: checksum covers the exact bytes of the ``data`` value.
CHECKPOINT_VERSION = 2

#: Current trace-artifact format: the JSONL stream ends with a
#: ``trace-footer`` record carrying a checksum over every preceding
#: byte.  Readers accept footer-less (PR 4) traces unchanged.
TRACE_VERSION = 2


def auto_jobs() -> int:
    """Default batch worker count: one per CPU actually present.

    ``run_many`` honours any explicit ``jobs`` value (tests rely on
    oversubscribing a small host to exercise the supervisor), but the
    CLI default goes through here so ``--jobs`` never silently
    oversubscribes by default.
    """
    return os.cpu_count() or 1


def _sha256_label(text: str) -> str:
    return "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()


def _maybe_observe(session: Optional[ObsSession]):
    """``observe(session)``, or a no-op context when observability is off."""
    if session is None:
        return nullcontext()
    return observe(session)


class _AttemptBox:
    """Single-use, sealable result slot shared with a worker thread.

    The timeout path cannot kill a wedged thread — but it *can* make the
    thread's eventual result unreachable.  The parent seals the box the
    instant the timeout verdict is reached; a publish after the seal is
    rejected (returns False) and the value is dropped on the floor, so a
    late result can never race its way into the checkpoint or overwrite
    a retry's result.  All transitions happen under one lock, so there
    is no window where "timed out" and "result accepted" both hold.
    """

    __slots__ = ("_lock", "_sealed", "_outcome")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._sealed = False
        self._outcome: Dict = {}

    def publish(self, key: str, value) -> bool:
        """Store the worker's outcome; False means the box was sealed."""
        with self._lock:
            if self._sealed:
                return False
            self._outcome[key] = value
            return True

    def seal(self) -> Dict:
        """Close the box forever and return whatever arrived in time."""
        with self._lock:
            self._sealed = True
            return dict(self._outcome)


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
    ``spec`` is ``(experiment_id, timeout, retries, sanitize, fn,
    observe, trace_depth)`` where ``fn`` is None for globally registered
    experiments (the worker re-imports the registry — cheap under fork,
    required under spawn) or the pickled callable for custom registries.
    Results come back as ``to_dict`` payloads, the same round-trip
    format the checkpoint uses; the trailing element carries the
    worker's :class:`ObsCapture` (manifest/metrics/events) when
    observability was on.  Task-level errors are caught and returned as
    structured failure records — an exception escaping this function
    would kill the worker and be misread as a crash.
    """
    experiment_id, timeout, retries, sanitize, fn, observing, trace_depth = spec
    if fn is None:
        import repro.experiments  # noqa: F401 - populates the registry

        registry = None
    else:
        registry = {experiment_id: fn}
    runner = ExperimentRunner(
        timeout_seconds=timeout,
        retries=retries,
        sanitize=sanitize,
        registry=registry,
        observe=observing,
        trace_depth=max(trace_depth, 1),
    )
    runner._tracing = trace_depth > 0
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
        timeout_seconds: Wall-clock budget per attempt; ``None``
            disables the timeout.
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
        trace_depth: Ring-buffer depth for the per-attempt trace bus
            (only meaningful with ``trace_path``).
        max_task_crashes: Consecutive worker crashes one experiment may
            cause under ``jobs > 1`` before it is quarantined as a
            structured failure instead of re-queued.
        heartbeat_interval: Worker heartbeat period under ``jobs > 1``.
        drain_timeout: After SIGINT/SIGTERM, how long in-flight
            experiments may finish before being killed.
        task_deadline_seconds: Hard per-task wall-clock backstop
            enforced by worker SIGKILL; default derives from
            ``timeout_seconds`` (attempts budget plus grace), ``None``
            with no timeout.
        chaos: Test-only :class:`~repro.experiments.chaos.ChaosConfig`
            injected into workers.
    """

    #: Grace added to the derived per-task deadline: the worker's own
    #: cooperative timeout fires first; the supervisor kill is for
    #: processes too wedged to honor it.
    TASK_DEADLINE_GRACE = 30.0

    def __init__(
        self,
        timeout_seconds: Optional[float] = None,
        retries: int = 1,
        checkpoint_path: Optional[str] = None,
        registry: Optional[Dict[str, Callable[..., ExperimentResult]]] = None,
        sanitize: bool = False,
        observe: bool = False,
        trace_path: Optional[str] = None,
        trace_depth: int = 65536,
        max_task_crashes: int = 3,
        heartbeat_interval: float = 1.0,
        drain_timeout: float = 10.0,
        task_deadline_seconds: Optional[float] = None,
        chaos=None,
    ):
        if timeout_seconds is not None and timeout_seconds <= 0:
            raise ValueError(
                f"timeout_seconds must be > 0, got {timeout_seconds}"
            )
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        if trace_depth < 1:
            raise ValueError(f"trace_depth must be >= 1, got {trace_depth}")
        self.timeout_seconds = timeout_seconds
        self.retries = retries
        self.checkpoint_path = checkpoint_path
        self.registry = EXPERIMENT_REGISTRY if registry is None else registry
        self.sanitize = sanitize
        self.trace_path = trace_path
        self.trace_depth = trace_depth
        self.observe = observe or trace_path is not None
        self.max_task_crashes = max_task_crashes
        self.heartbeat_interval = heartbeat_interval
        self.drain_timeout = drain_timeout
        self.task_deadline_seconds = task_deadline_seconds
        self.chaos = chaos
        # Whether per-attempt sessions carry a trace bus (the worker
        # flips this on without a file path of its own).
        self._tracing = trace_path is not None
        #: Per-experiment observability records (manifest, metrics,
        #: trace events) of completed experiments, keyed by id.
        self.captures: Dict[str, ObsCapture] = {}
        #: Supervisor recovery counters of the last parallel batch
        #: (:class:`~repro.experiments.supervisor.ExecutorStats`), or
        #: None when the batch ran in-process.
        self.executor_stats = None
        #: Corrupt durable artifacts detected (and quarantined) by this
        #: runner — surfaces in the trace header.
        self.corrupt_artifacts_detected = 0
        #: Worker threads abandoned by a per-attempt timeout (they die
        #: with the process; their late results are sealed out).
        self.leaked_timeout_threads = 0
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
        self._legacy_checkpoint = False

    # -- single experiment ---------------------------------------------

    def run_one(
        self,
        experiment_id: str,
        deadline: Optional[Deadline] = None,
    ) -> ExperimentResult:
        """Run one experiment through the timeout/retry harness.

        Args:
            experiment_id: Registered experiment id.
            deadline: Optional end-to-end budget propagated from the
                caller (a service request, a CLI flag).  Each attempt's
                timeout is shrunk to the remaining budget, and no
                further attempt starts (the last error is raised) once
                the deadline has expired — the attempt budgets compose
                with it instead of stacking past it.

        Raises whatever the final attempt raised (or
        :class:`ExperimentTimeout`) once retries are exhausted.
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
                return self._run_attempt(experiment_id, fn, kwargs, deadline)
            # A fresh session per attempt: counts never bleed between
            # retries, and only the winning attempt's capture survives.
            session = ObsSession(
                trace_depth=self.trace_depth if self._tracing else 0
            )
            with observe(session):
                with session.span(
                    "experiment", experiment_id=experiment_id, attempt=index
                ):
                    result = self._run_attempt(
                        experiment_id, fn, kwargs, deadline
                    )
            if index > 0:
                session.metrics.counter("runner.retries").inc(index)
            self._capture(experiment_id, session, rng_parameter, index)
            return result

        index = 0
        while True:
            try:
                return attempt(index)
            except Exception:
                index += 1
                if index > self.retries or (
                    deadline is not None and deadline.expired
                ):
                    raise

    def _run_attempt(
        self,
        experiment_id: str,
        fn: Callable,
        kwargs: Dict,
        deadline: Optional[Deadline] = None,
    ) -> ExperimentResult:
        if self.sanitize:
            from repro.analysis.sanitize import scoped_sanitize

            with scoped_sanitize():
                return self._call_with_timeout(
                    experiment_id, fn, kwargs, deadline
                )
        return self._call_with_timeout(experiment_id, fn, kwargs, deadline)

    def _capture(
        self,
        experiment_id: str,
        session: ObsSession,
        rng_parameter: Optional[inspect.Parameter],
        index: int,
    ) -> None:
        """Record the winning attempt's manifest, metrics, and events."""
        from repro.sim.fastpath import default_engine

        self.captures[experiment_id] = ObsCapture(
            experiment_id=experiment_id,
            manifest=RunManifest.with_provenance(
                experiment_id=experiment_id,
                seed=self._attempt_seed(rng_parameter, index),
                attempts=index + 1,
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

    def _call_with_timeout(
        self,
        experiment_id: str,
        fn: Callable,
        kwargs: Dict,
        deadline: Optional[Deadline] = None,
    ) -> ExperimentResult:
        timeout = self.timeout_seconds
        if deadline is not None:
            if deadline.expired:
                raise ExperimentTimeout(
                    f"experiment {experiment_id!r} not started: "
                    "end-to-end deadline already expired"
                )
            # A deadline always implies *some* per-attempt bound, even
            # when the runner itself has no timeout configured.
            timeout = deadline.bound(timeout)
        if timeout is None:
            return fn(**kwargs)
        box = _AttemptBox()

        def worker():
            try:
                result = fn(**kwargs)
            except BaseException as error:  # noqa: BLE001 - reported below
                box.publish("error", error)
            else:
                box.publish("result", result)

        thread = threading.Thread(
            target=worker, name=f"experiment-{experiment_id}", daemon=True
        )
        thread.start()
        thread.join(timeout)
        # Seal *before* inspecting: from this instant any result the
        # worker produces is provably discarded, closing the race where
        # an attempt finishes between the join timeout and the verdict.
        outcome = box.seal()
        if not outcome:
            # The worker cannot be killed; as a daemon it dies with the
            # process, and the batch moves on without it — but the leak
            # is counted, not silent.
            self.leaked_timeout_threads += 1
            session = active()
            if session is not None:
                session.metrics.counter(
                    "runner.timeouts.leaked_threads"
                ).inc()
            raise ExperimentTimeout(
                f"experiment {experiment_id!r} exceeded "
                f"{timeout:.1f}s wall-clock budget"
            )
        if "error" in outcome:
            raise outcome["error"]
        return outcome["result"]

    # -- batches --------------------------------------------------------

    def run_many(
        self,
        ids: Sequence[str],
        on_result: Optional[Callable[[ExperimentResult, float], None]] = None,
        on_failure: Optional[Callable[[ExperimentFailure], None]] = None,
        jobs: int = 1,
    ) -> RunReport:
        """Run a batch, isolating failures and checkpointing progress.

        Args:
            ids: Experiment ids, in execution order.  Results and
                failures are reported in this order regardless of
                ``jobs``.
            on_result: Callback fired after each completion (restored
                checkpoint entries fire it with 0.0 elapsed seconds).
            on_failure: Callback fired after each terminal failure.
            jobs: Number of worker processes.  1 (the default) runs in
                this process; higher values fan pending experiments out
                over the supervised executor
                (:mod:`repro.experiments.supervisor`), which survives
                worker crashes, hangs, and signals.  Seeds are derived
                from each experiment's own registered defaults, so
                parallel results are identical to sequential ones even
                when a task re-runs after a crash.
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
            if self._legacy_checkpoint and completed:
                # One-step migration: rewrite the legacy (unversioned)
                # checkpoint in the checksummed envelope immediately.
                self._checkpoint_dirty = True
                self._save_checkpoint(completed)
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
            if jobs == 1 or len(pending) <= 1:
                self._run_sequential(
                    pending, report, completed, on_result, on_failure
                )
            else:
                self._run_parallel(
                    pending, report, completed, on_result, on_failure, jobs
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
        if self._legacy_checkpoint and completed:
            self._checkpoint_dirty = True
            self._save_checkpoint(completed)
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
        session = (
            ObsSession(trace_depth=self.trace_depth if self._tracing else 0)
            if self.observe
            else None
        )
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
            from repro.sim.fastpath import default_engine

            self.captures[block_id] = ObsCapture(
                experiment_id=block_id,
                manifest=RunManifest.with_provenance(
                    experiment_id=block_id,
                    seed=seed,
                    attempts=1,
                    machines=session.machines(),
                    fault_models=session.fault_models(),
                    engine=default_engine(),
                    sanitize=self.sanitize,
                ),
                metrics=session.metrics.snapshot(),
                events=(
                    session.bus.records() if session.bus is not None else []
                ),
            )
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

    def _task_deadline(self) -> Optional[float]:
        """The supervisor's hard per-task kill budget.

        Explicit ``task_deadline_seconds`` wins; otherwise derive from
        the cooperative per-attempt timeout (which the worker enforces
        itself) — all attempts plus grace — or no deadline at all.
        """
        if self.task_deadline_seconds is not None:
            return self.task_deadline_seconds
        if self.timeout_seconds is None:
            return None
        budget = self.timeout_seconds * (self.retries + 1)
        return budget + self.TASK_DEADLINE_GRACE

    def _run_parallel(
        self,
        pending: Sequence[str],
        report: RunReport,
        completed: Dict[str, ExperimentResult],
        on_result,
        on_failure,
        jobs: int,
    ) -> None:
        """Fan pending experiments out over the supervised executor.

        Callbacks and checkpoint merges happen in this (parent) process
        as completions arrive; the final report lists results in
        submission order so output is stable across schedules.  Worker
        crashes re-queue their task (the re-run is bit-identical) and
        poison tasks arrive as structured ``WorkerCrashed`` failures.
        """
        from repro.experiments.supervisor import SupervisedExecutor

        global_registry = self.registry is EXPERIMENT_REGISTRY
        tasks = [
            (
                experiment_id,
                (
                    experiment_id,
                    self.timeout_seconds,
                    self.retries,
                    self.sanitize,
                    None if global_registry else self.registry[experiment_id],
                    self.observe,
                    self.trace_depth if self._tracing else 0,
                ),
            )
            for experiment_id in pending
        ]
        results_by_id: Dict[str, ExperimentResult] = {}
        failures_by_id: Dict[str, ExperimentFailure] = {}

        def on_record(record) -> None:
            experiment_id, kind, payload, elapsed, obs_payload = record
            if kind == "result":
                result = ExperimentResult.from_dict(payload)
                results_by_id[experiment_id] = result
                completed[experiment_id] = result
                if obs_payload is not None:
                    capture = ObsCapture.from_dict(experiment_id, obs_payload)
                    capture.events = obs_payload.get("events", [])
                    self.captures[experiment_id] = capture
                self._record_completion(experiment_id, result)
                self._save_checkpoint(completed)
                if on_result is not None:
                    on_result(result, elapsed)
            else:
                failure = ExperimentFailure(**payload)
                failures_by_id[experiment_id] = failure
                if on_failure is not None:
                    on_failure(failure)

        executor = SupervisedExecutor(
            worker_fn=_pool_worker,
            jobs=min(jobs, len(tasks)),
            heartbeat_interval=self.heartbeat_interval,
            task_deadline=self._task_deadline(),
            max_task_crashes=self.max_task_crashes,
            drain_timeout=self.drain_timeout,
            chaos=self.chaos,
        )
        outcome = executor.run(tasks, on_record)
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
        self._legacy_checkpoint = False
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
            data = json.loads(raw)
        except json.JSONDecodeError as error:
            return self._quarantine_checkpoint(f"not valid JSON ({error})")
        if not isinstance(data, dict):
            return self._quarantine_checkpoint("top-level value is not a dict")
        if "version" in data:
            entries = self._verify_envelope(raw, data)
            if entries is None:
                return {}
        else:
            # Legacy PR 3/4 format: no envelope, payload at top level.
            # Accept it and migrate to the checksummed format on the
            # next save (run_many forces one immediately).
            entries = data
            self._legacy_checkpoint = True
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

    def _verify_envelope(self, raw: str, data: Dict) -> Optional[Dict]:
        """Validate a versioned checkpoint envelope; None means corrupt.

        The checksum covers the exact bytes of the ``data`` value as
        written by :meth:`_save_checkpoint`, so any torn tail, flipped
        bit, or hand edit inside the payload is caught without
        re-canonicalizing the JSON.
        """
        version = data.get("version")
        if version != CHECKPOINT_VERSION:
            self._quarantine_checkpoint(
                f"unsupported checkpoint version {version!r} "
                f"(this build writes {CHECKPOINT_VERSION})"
            )
            return None
        body = raw.rstrip()
        marker = '"data": '
        index = body.find(marker)
        if not body.endswith("}") or index == -1:
            self._quarantine_checkpoint("envelope layout is malformed")
            return None
        payload = body[index + len(marker):-1]
        if _sha256_label(payload) != data.get("checksum"):
            self._quarantine_checkpoint("checksum mismatch")
            return None
        entries = data.get("data")
        if not isinstance(entries, dict):
            self._quarantine_checkpoint("data section is not a dict")
            return None
        return entries

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
        # Envelope: version + checksum over the payload's exact bytes.
        # The write is atomic *and durable* (fsync before rename) so a
        # power loss never publishes an empty or torn file.
        text = (
            f'{{"version": {CHECKPOINT_VERSION}, '
            f'"checksum": "{_sha256_label(payload)}", '
            f'"data": {payload}}}'
        )
        atomic_write_text(self.checkpoint_path, text)
        self._checkpoint_dirty = False
        self._legacy_checkpoint = False

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
            "trace_version": TRACE_VERSION,
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
        body = "\n".join(lines) + "\n"
        footer = json.dumps(
            {
                "type": "trace-footer",
                "trace_version": TRACE_VERSION,
                "records": len(lines),
                "checksum": _sha256_label(body),
            }
        )
        atomic_write_text(self.trace_path, body + footer + "\n")
        return self.trace_path
