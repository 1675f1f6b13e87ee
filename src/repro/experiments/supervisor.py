"""Supervised crash-safe process executor for experiment batches.

``run_many(jobs=N)`` used to fan out over a bare ``multiprocessing``
pool, which has exactly one failure policy: hope.  A worker that
segfaults, gets OOM-killed, or wedges in a C loop takes the whole batch
with it, and Ctrl-C loses every in-flight result.  This module replaces
the pool with a small supervisor built the way long-running campaign
drivers (gem5 batch runners, cluster schedulers) are built:

* **long-lived workers, explicit assignment** — each worker process
  owns a pair of one-way pipes, tasks in and results out, so the
  supervisor always knows exactly which task every worker owns, and a
  worker that dies can lose only its own in-flight record (no shared
  queue whose lock a dying writer could take with it);
* **heartbeats** — a worker-side thread stamps a shared array every
  ``heartbeat_interval`` seconds; a stale stamp means the process is
  frozen (not merely busy: the heartbeat thread beats through a busy
  main thread) and gets hard-killed;
* **per-task deadlines** — the one wall-clock bound on an experiment: a
  task still running at its deadline has its worker SIGKILLed and ends
  as an ``ExperimentTimeout`` failure record.  It is not re-queued: a
  re-run is bit-identical, so it could only time out again;
* **re-queue on worker death** — a task whose worker crashed (or was
  killed for a stale heartbeat) goes back to the front of the queue and
  re-runs; experiment seeds derive from registered defaults, so a
  re-run is bit-identical to an undisturbed run;
* **poison-task quarantine** — a task that kills its worker
  ``max_task_crashes`` times in a row is converted into a structured
  failure record (``error_type: WorkerCrashed``) instead of crashing
  the batch a fourth time;
* **graceful signal drain** — first SIGINT/SIGTERM stops assignment and
  lets in-flight tasks finish (up to ``drain_timeout``); a second
  signal aborts immediately.  Either way the caller gets a normal
  return and flushes its checkpoint.

The chaos harness (:mod:`repro.experiments.chaos`) plugs into the
worker entry point so every one of these paths is exercised by seeded,
deterministic tests rather than trusted on faith.
"""

from __future__ import annotations

import multiprocessing
import signal as signal_module
import threading
import time
from dataclasses import dataclass, field
from multiprocessing.connection import Connection, wait
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.common.errors import ExecutorError
from repro.common.retry import full_jitter
from repro.common.rng import make_rng
from repro.obs.session import active

#: Consecutive respawns of one worker slot without a single completed
#: task before the slot is declared broken (guards against a worker
#: that dies on startup respawning forever).
MAX_SLOT_RESPAWNS = 5

#: Default heartbeat staleness multiplier: a worker is considered
#: frozen when its last beat is older than this many intervals.
HEARTBEAT_TIMEOUT_INTERVALS = 10.0


@dataclass
class ExecutorStats:
    """Recovery-behaviour counters for one supervised batch."""

    workers_crashed: int = 0
    workers_killed_deadline: int = 0
    workers_killed_heartbeat: int = 0
    tasks_requeued: int = 0
    tasks_quarantined: int = 0
    workers_spawned: int = 0

    def to_dict(self) -> Dict[str, int]:
        return {
            "workers_spawned": self.workers_spawned,
            "workers_crashed": self.workers_crashed,
            "workers_killed_deadline": self.workers_killed_deadline,
            "workers_killed_heartbeat": self.workers_killed_heartbeat,
            "tasks_requeued": self.tasks_requeued,
            "tasks_quarantined": self.tasks_quarantined,
        }

    @property
    def clean(self) -> bool:
        """True when no recovery machinery fired (the happy path)."""
        return (
            self.workers_crashed == 0
            and self.tasks_requeued == 0
            and self.tasks_quarantined == 0
        )


@dataclass
class ExecutorOutcome:
    """What one :meth:`SupervisedExecutor.run` call did."""

    stats: ExecutorStats
    interrupted: bool = False
    unfinished: List[str] = field(default_factory=list)


@dataclass
class _WorkerSlot:
    """Parent-side bookkeeping for one worker process."""

    index: int
    process: Optional[multiprocessing.Process] = None
    #: Send end of the worker's task pipe.
    tasks: Optional[Connection] = None
    #: Receive end of the worker's result pipe; None once it hit EOF.
    results: Optional[Connection] = None
    task_id: Optional[str] = None
    assigned_at: float = 0.0
    respawns_without_completion: int = 0
    dead: bool = False

    @property
    def idle(self) -> bool:
        return self.task_id is None


def _worker_main(
    index: int,
    tasks: Connection,
    results: Connection,
    heartbeats,
    heartbeat_interval: float,
    worker_fn: Callable,
    chaos_data: Optional[Dict],
) -> None:
    """Worker process entry point: heartbeat thread + task loop.

    SIGINT is ignored so a terminal Ctrl-C (which signals the whole
    foreground process group) reaches only the supervisor, which then
    drains cleanly.  The task loop runs until the ``None`` sentinel or
    end of file on the task pipe.
    """
    signal_module.signal(signal_module.SIGINT, signal_module.SIG_IGN)
    chaos = None
    if chaos_data:
        from repro.experiments.chaos import ChaosConfig

        chaos = ChaosConfig.from_dict(chaos_data)
    stop = threading.Event()
    # Monotonic timestamp before which the heartbeat thread stays
    # silent; chaos stalls push it forward to simulate a frozen worker.
    stall_until = [0.0]

    def beat() -> None:
        while not stop.is_set():
            now = time.monotonic()
            if now >= stall_until[0]:
                heartbeats[index] = now
            stop.wait(heartbeat_interval)

    beater = threading.Thread(
        target=beat, name=f"heartbeat-{index}", daemon=True
    )
    beater.start()
    try:
        while True:
            try:
                item = tasks.recv()
            except EOFError:
                break
            if item is None:
                break
            task_id, attempt, spec = item
            if chaos is not None:
                from repro.experiments.chaos import chaos_exit

                decision = chaos.decide(task_id, attempt)
                if decision.stall_heartbeat:
                    stall_until[0] = time.monotonic() + chaos.stall_seconds
                if decision.kill_before_run:
                    chaos_exit()
                record = worker_fn(spec)
                if decision.kill_before_report:
                    chaos_exit()
            else:
                record = worker_fn(spec)
            # A direct write on this worker's own pipe: no feeder
            # thread and no lock shared with other workers.
            results.send((task_id, record))
    finally:
        stop.set()


class SupervisedExecutor:
    """Crash-safe fan-out of picklable task specs over worker processes.

    Args:
        worker_fn: Module-level callable executing one spec in a worker
            process; its return value is delivered verbatim to
            ``on_record`` in the parent.  It must handle task-level
            errors itself (return a failure record); an exception
            escaping it kills the worker and is treated as a crash.
        jobs: Number of worker processes.
        heartbeat_interval: Seconds between worker heartbeat stamps.
        heartbeat_timeout: Staleness threshold before a worker is
            declared frozen and killed; default
            ``HEARTBEAT_TIMEOUT_INTERVALS * heartbeat_interval``.
        task_deadline: Hard wall-clock budget for one task execution,
            enforced by SIGKILL + respawn; the task then ends as an
            ``ExperimentTimeout`` failure record.  ``None`` disables it.
        max_task_crashes: Consecutive worker deaths one task may cause
            before it is quarantined as a structured failure.
        drain_timeout: After the first SIGINT/SIGTERM, how long
            in-flight tasks may keep running before being killed.
        chaos: Optional :class:`~repro.experiments.chaos.ChaosConfig`
            injected into workers (tests only).
        poll_interval: Supervisor loop period.
        respawn_seed: Seed for the full-jitter backoff between worker
            respawns (keeps crash-looping slots from spinning hot and
            decorrelates respawn stampedes across batches).
    """

    #: Exit statuses that mean "killed by the supervisor" rather than
    #: "crashed on its own" (negative = died to a signal).
    _KILL_STATUS = (-signal_module.SIGKILL, -signal_module.SIGTERM)

    def __init__(
        self,
        worker_fn: Callable,
        jobs: int,
        heartbeat_interval: float = 1.0,
        heartbeat_timeout: Optional[float] = None,
        task_deadline: Optional[float] = None,
        max_task_crashes: int = 3,
        drain_timeout: float = 10.0,
        chaos=None,
        poll_interval: float = 0.05,
        respawn_seed: int = 0,
    ):
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if heartbeat_interval <= 0:
            raise ValueError(
                f"heartbeat_interval must be > 0, got {heartbeat_interval}"
            )
        if max_task_crashes < 1:
            raise ValueError(
                f"max_task_crashes must be >= 1, got {max_task_crashes}"
            )
        if drain_timeout < 0:
            raise ValueError(
                f"drain_timeout must be >= 0, got {drain_timeout}"
            )
        if task_deadline is not None and task_deadline <= 0:
            raise ValueError(
                f"task_deadline must be > 0, got {task_deadline}"
            )
        self.worker_fn = worker_fn
        self.jobs = jobs
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_timeout = (
            HEARTBEAT_TIMEOUT_INTERVALS * heartbeat_interval
            if heartbeat_timeout is None
            else heartbeat_timeout
        )
        self.task_deadline = task_deadline
        self.max_task_crashes = max_task_crashes
        self.drain_timeout = drain_timeout
        self.chaos = chaos
        self.poll_interval = poll_interval
        self.stats = ExecutorStats()
        self._respawn_rng = make_rng(respawn_seed)
        self._signal_count = 0
        self._drain_requested_at: Optional[float] = None
        self._abort = False
        self._old_handlers: List[Tuple[int, object]] = []

    # -- public API -----------------------------------------------------

    def run(
        self,
        tasks: Sequence[Tuple[str, object]],
        on_record: Callable[[object], None],
    ) -> ExecutorOutcome:
        """Execute every (task_id, spec) pair, surviving worker failures.

        ``on_record`` fires in this process, in completion order, once
        per task: with each worker record, or with a synthesized failure
        record (shaped like ``worker_fn``'s) for a task that timed out
        or was quarantined as poison.
        """
        self._pending: List[str] = [task_id for task_id, _ in tasks]
        self._specs: Dict[str, object] = dict(tasks)
        if len(self._specs) != len(tasks):
            raise ValueError("duplicate task ids in batch")
        self._crashes: Dict[str, int] = {}
        self._first_assigned: Dict[str, float] = {}
        self._on_record = on_record
        self._heartbeats = multiprocessing.Array(
            "d", max(self.jobs, 1), lock=False
        )
        self._slots = [_WorkerSlot(index=i) for i in range(self.jobs)]
        self._signal_count = 0
        self._drain_requested_at = None
        self._abort = False
        self._install_signal_handlers()
        try:
            for slot in self._slots:
                self._spawn(slot)
            self._loop()
        finally:
            self._restore_signal_handlers()
            self._shutdown()
        unfinished = list(self._pending) + [
            slot.task_id for slot in self._slots if slot.task_id is not None
        ]
        return ExecutorOutcome(
            stats=self.stats,
            interrupted=self._signal_count > 0,
            unfinished=unfinished,
        )

    @property
    def draining(self) -> bool:
        return self._drain_requested_at is not None

    def worker_pids(self) -> List[int]:
        """PIDs of currently live worker processes (empty outside run).

        Exposed for the chaos plane: service-level acceptance tests
        SIGKILL a pool's worker mid-batch through this, the same way an
        OOM killer would, and assert the recovery path.
        """
        slots = getattr(self, "_slots", None)
        if not slots:
            return []
        return [
            slot.process.pid
            for slot in slots
            if slot.process is not None and slot.process.is_alive()
        ]

    # -- supervisor loop ------------------------------------------------

    def _loop(self) -> None:
        while self._pending or any(not s.idle for s in self._slots):
            if self._abort:
                break
            if self.draining:
                if all(s.idle for s in self._slots):
                    break
                if (
                    time.monotonic() - self._drain_requested_at
                    > self.drain_timeout
                ):
                    break
            else:
                self._assign_tasks()
            self._drain_results()
            self._police_workers()

    def _assign_tasks(self) -> None:
        for slot in self._slots:
            if not self._pending:
                return
            if slot.dead or not slot.idle:
                continue
            if slot.process is None or not slot.process.is_alive():
                continue
            task_id = self._pending.pop(0)
            self._first_assigned.setdefault(task_id, time.monotonic())
            slot.task_id = task_id
            slot.assigned_at = time.monotonic()
            attempt = self._crashes.get(task_id, 0)
            try:
                slot.tasks.send((task_id, attempt, self._specs[task_id]))
            except OSError:
                # The worker died after the liveness check; policing
                # finds it dead and re-queues the task.
                pass

    def _drain_results(self) -> None:
        """Wait up to one poll interval for records on any result pipe."""
        owners = {
            slot.results: slot
            for slot in self._slots
            if slot.results is not None
        }
        for reader in wait(list(owners), timeout=self.poll_interval):
            self._receive(owners[reader])

    def _receive(self, slot: _WorkerSlot) -> None:
        """Take one record off ``slot``'s pipe; EOF means its worker died."""
        try:
            task_id, record = slot.results.recv()
        except (EOFError, OSError):
            slot.results.close()
            slot.results = None
            return
        slot.task_id = None
        slot.respawns_without_completion = 0
        self._crashes.pop(task_id, None)
        self._on_record(record)

    def _police_workers(self) -> None:
        now = time.monotonic()
        for slot in self._slots:
            if slot.dead or slot.process is None:
                continue
            if not slot.process.is_alive():
                self._handle_worker_death(slot, cause="crashed")
                continue
            if (
                slot.task_id is not None
                and self.task_deadline is not None
                and now - slot.assigned_at > self.task_deadline
            ):
                self._kill_worker(slot)
                self._handle_worker_death(slot, cause="deadline")
                continue
            if now - self._heartbeats[slot.index] > self.heartbeat_timeout:
                self._kill_worker(slot)
                self._handle_worker_death(slot, cause="heartbeat")

    def _kill_worker(self, slot: _WorkerSlot) -> None:
        process = slot.process
        if process is None:
            return
        process.kill()
        process.join(5.0)

    def _handle_worker_death(self, slot: _WorkerSlot, cause: str) -> None:
        """Account for a dead worker, settle its task, respawn.

        A deadline kill ends the task as a timeout; any other death
        re-queues it (or quarantines it once it has killed
        ``max_task_crashes`` workers).  A timeout settles the task, so,
        like a delivered record, it resets the slot's respawn budget.
        The respawn closes the dead worker's pipes, so a record it wrote
        but the parent never read is dropped with them: every task is
        reported exactly once.
        """
        if slot.process is not None:
            slot.process.join(5.0)
        self.stats.workers_crashed += 1
        self._metric("executor.workers.crashed")
        if cause == "deadline":
            self.stats.workers_killed_deadline += 1
        elif cause == "heartbeat":
            self.stats.workers_killed_heartbeat += 1
        task_id = slot.task_id
        slot.task_id = None
        if task_id is not None:
            crashes = self._crashes.get(task_id, 0) + 1
            self._crashes[task_id] = crashes
            if cause == "deadline":
                self._fail(
                    task_id,
                    "ExperimentTimeout",
                    f"{task_id!r} exceeded its {self.task_deadline:.1f}s "
                    "wall-clock deadline; its worker was killed",
                    crashes,
                )
                slot.respawns_without_completion = 0
            elif crashes >= self.max_task_crashes:
                self._quarantine(task_id, crashes, cause)
            elif not self.draining:
                self._pending.insert(0, task_id)
                self.stats.tasks_requeued += 1
                self._metric("executor.tasks.requeued")
            else:
                # Draining: the task stays unfinished rather than
                # restarting work after the user asked us to stop.
                self._pending.insert(0, task_id)
        slot.respawns_without_completion += 1
        if slot.respawns_without_completion > MAX_SLOT_RESPAWNS:
            slot.dead = True
            slot.process = None
            self._close_pipes(slot)
            self._check_slots_remaining()
            return
        # Full-jitter backoff so a crash-looping slot does not spin hot
        # (and parallel supervisors do not respawn in lockstep).
        delay = full_jitter(
            min(0.05 * (2 ** (slot.respawns_without_completion - 1)), 0.5),
            self._respawn_rng,
        )
        if delay > 0:
            time.sleep(delay)
        self._spawn(slot)

    def _check_slots_remaining(self) -> None:
        if all(slot.dead for slot in self._slots) and self._pending:
            raise ExecutorError(
                f"all {self.jobs} worker slot(s) exhausted their respawn "
                f"budget ({MAX_SLOT_RESPAWNS}) with "
                f"{len(self._pending)} task(s) still pending; the worker "
                "environment is broken (see stderr of the dead workers)"
            )

    def _quarantine(self, task_id: str, crashes: int, cause: str) -> None:
        """Convert a poison task into a structured failure record."""
        self.stats.tasks_quarantined += 1
        self._metric("executor.tasks.quarantined")
        detail = {
            "crashed": "its worker process died",
            "heartbeat": "its worker's heartbeat went stale and it "
            "was killed",
        }.get(cause, cause)
        self._fail(
            task_id,
            "WorkerCrashed",
            f"quarantined after {crashes} consecutive worker crash(es); "
            f"last one: {detail}",
            crashes,
        )

    def _fail(
        self, task_id: str, error_type: str, message: str, attempts: int
    ) -> None:
        """Deliver a synthesized failure record for ``task_id``."""
        elapsed = time.monotonic() - self._first_assigned.get(
            task_id, time.monotonic()
        )
        payload = {
            "experiment_id": task_id,
            "error_type": error_type,
            "message": message,
            "attempts": attempts,
            "elapsed_seconds": elapsed,
        }
        self._on_record((task_id, "failure", payload, elapsed, None))

    # -- worker lifecycle -----------------------------------------------

    def _spawn(self, slot: _WorkerSlot) -> None:
        self._close_pipes(slot)
        task_reader, slot.tasks = multiprocessing.Pipe(duplex=False)
        slot.results, result_writer = multiprocessing.Pipe(duplex=False)
        self._heartbeats[slot.index] = time.monotonic()
        chaos_data = self.chaos.to_dict() if self.chaos is not None else None
        slot.process = multiprocessing.Process(
            target=_worker_main,
            name=f"repro-worker-{slot.index}",
            args=(
                slot.index,
                task_reader,
                result_writer,
                self._heartbeats,
                self.heartbeat_interval,
                self.worker_fn,
                chaos_data,
            ),
            daemon=True,
        )
        slot.process.start()
        # Other workers forked meanwhile (by this executor or another
        # one in the process) may inherit these ends, so a worker's death
        # need not show up as EOF: ``_police_workers`` detects it with
        # ``is_alive()``, and EOF only takes the reader out of ``wait()``.
        task_reader.close()
        result_writer.close()
        self.stats.workers_spawned += 1

    @staticmethod
    def _close_pipes(slot: _WorkerSlot) -> None:
        for end in (slot.tasks, slot.results):
            if end is not None:
                end.close()
        slot.tasks = slot.results = None

    def _shutdown(self) -> None:
        for slot in self._slots:
            process = slot.process
            if process is not None and process.is_alive():
                if slot.idle:
                    try:
                        slot.tasks.send(None)
                    except OSError:
                        pass
                    process.join(2.0)
                if process.is_alive():
                    process.kill()
                    process.join(5.0)
            self._close_pipes(slot)

    # -- signal handling ------------------------------------------------

    def _install_signal_handlers(self) -> None:
        self._old_handlers = []
        if threading.current_thread() is not threading.main_thread():
            return
        for signum in (signal_module.SIGINT, signal_module.SIGTERM):
            try:
                previous = signal_module.signal(signum, self._on_signal)
            except (ValueError, OSError):  # pragma: no cover - platform
                continue
            self._old_handlers.append((signum, previous))

    def _restore_signal_handlers(self) -> None:
        for signum, previous in self._old_handlers:
            try:
                signal_module.signal(signum, previous)
            except (ValueError, OSError):  # pragma: no cover - platform
                pass
        self._old_handlers = []

    def _on_signal(self, signum, frame) -> None:
        self._signal_count += 1
        if self._drain_requested_at is None:
            self._drain_requested_at = time.monotonic()
        if self._signal_count >= 2:
            self._abort = True

    # -- observability --------------------------------------------------

    @staticmethod
    def _metric(name: str) -> None:
        session = active()
        if session is not None:
            session.metrics.counter(name).inc()
