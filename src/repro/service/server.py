"""The asyncio experiment service: admission, backpressure, breakers.

Request path (all decisions on the event-loop thread, so no state needs
locks).  Every request that executes — ``run`` in its plain, ``trials``
and ``defense`` shapes, and ``analyze`` — takes the same one::

    draining? ── validate ── admission (token bucket) ── cache read
        ── singleflight ── [circuit breaker] ── bounded lane queue
        ── execute ── memoize

The kinds differ only in their validation, cache key, counters and the
*lane* that executes them.  A ``run`` goes to one of the experiment
pools, sharded by experiment id, each guarded by a circuit breaker and
answering with ``source=pool``.  An ``analyze`` goes to the one analysis
lane, which has no breaker (the analysis is deterministic; there is no
flaky dependency to trip on) and answers with ``source=analysis``; it
also refuses to start work whose deadline has already expired.

Every stage that can refuse does so *explicitly* and *immediately*:
admission refusal is a ``rejected`` response with a retry hint, a full
lane queue is a ``shed`` response, an open breaker short-circuits to a
cached or analytic-stub response tagged ``degraded=true``.  Nothing
buffers unboundedly: each lane runs one execution at a time with at
most ``queue_depth`` waiting, and nothing blocks a client on a pool
that recent history says is broken.

Execution itself happens off the loop, one single-thread executor per
lane.  A pool executes through :class:`InlineBackend`: each request is
a one-experiment ``ExperimentRunner.run_many`` batch with the request's
deadline.  A request with no wall-clock bound (no ``deadline_ms`` and
no ``--timeout``) runs in the pool's thread.  A bounded one runs in a
supervised worker *process* that is SIGKILLed at the bound: crashes
(including chaos-injected or external SIGKILL) are survived by the
executor's recovery machinery, and the worker pid is exposed so the
chaos suite can kill it mid-request.

Graceful drain reuses the runner's semantics: on ``drain()`` the
service stops admitting (``draining`` responses), lets in-flight
requests finish within ``drain_timeout``, flushes the cache, and
closes.  Reconnecting clients get finished results from the cache
bit-identically.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional

from repro.common.breaker import CircuitBreaker
from repro.common.deadline import Deadline, deadline_from_ms
from repro.common.errors import ServiceError
from repro.experiments.base import EXPERIMENT_REGISTRY, ExperimentResult
from repro.obs.registry import MetricsRegistry
from repro.service.cache import ResultCache, key_fields, request_key
from repro.service.protocol import (
    LineFrontEnd,
    Request,
    error_response,
    status_response,
)

#: Numeric encoding of breaker states for the ``service.breaker.state``
#: gauge (labelled by pool name).
BREAKER_STATE_VALUES = {"closed": 0, "half-open": 1, "open": 2}

#: Jitter fraction on an open pool breaker's probe delay (seeded).
BREAKER_JITTER = 0.5


@dataclass
class ServiceConfig:
    """Every knob of one service instance.

    Args:
        host: Bind address.
        port: Bind port; 0 picks a free one (read it back from
            :attr:`ExperimentService.port` after ``start``).
        pools: Worker pools; requests shard across them by experiment
            id, so one wedged pool cannot absorb every request.
        queue_depth: Bound of each lane's request queue (every pool's,
            and the analysis lane's); a full queue sheds (never
            unbounded buffering).
        rate: Token-bucket refill rate, requests/second.
        burst: Token-bucket capacity (burst allowance).
        timeout_seconds: Wall-clock budget for one execution; a bounded
            execution runs in a supervised worker process.  Each
            request runs once: a failure is the pool breaker's evidence
            and the client gets a ``degraded`` answer, never a result
            computed from another seed.
        sanitize: Run executions with the runtime sanitizer armed.
        breaker_failures: Consecutive failures that open a pool's
            circuit breaker.
        breaker_reset: Base seconds before an open breaker probes.
        cache_dir: Directory of the durable result cache.
        drain_timeout: How long in-flight requests may finish during a
            graceful drain.
        seed: Master seed for breaker probe jitter.
        heartbeat_interval: Worker heartbeat period of a bounded
            execution's worker process.
        max_task_crashes: Worker crashes one bounded request may cause
            before it is reported failed.
        chaos: Optional
            :class:`~repro.experiments.chaos.ServiceChaosConfig`
            (tests only): cache corruption after writes, worker chaos
            forwarded to bounded executions' workers.
        name: Node identity within a cluster (peers.json name); echoed
            in ``stats`` responses so the router's stats federation can
            attribute each node's snapshot.  Empty outside a cluster.
    """

    host: str = "127.0.0.1"
    port: int = 0
    pools: int = 2
    queue_depth: int = 8
    rate: float = 200.0
    burst: int = 50
    timeout_seconds: Optional[float] = None
    sanitize: bool = False
    breaker_failures: int = 3
    breaker_reset: float = 1.0
    cache_dir: str = "service-cache"
    drain_timeout: float = 10.0
    seed: int = 0
    heartbeat_interval: float = 0.2
    max_task_crashes: int = 3
    chaos: Optional[object] = None
    name: str = ""

    def __post_init__(self):
        if self.pools < 1:
            raise ServiceError(f"pools must be >= 1, got {self.pools}")
        if self.queue_depth < 1:
            raise ServiceError(
                f"queue_depth must be >= 1, got {self.queue_depth}"
            )
        if self.rate <= 0 or self.burst < 1:
            raise ServiceError(
                f"rate must be > 0 and burst >= 1, got rate={self.rate} "
                f"burst={self.burst}"
            )


class TokenBucket:
    """Continuous-refill token bucket for admission control.

    ``rate`` tokens/second flow in, up to ``burst`` stored; each
    admitted request takes one.  When empty, :meth:`retry_after` says
    how long until the next token — clients get an honest 429-style
    hint instead of a guess.
    """

    def __init__(
        self,
        rate: float,
        burst: int,
        clock: Callable[[], float] = time.monotonic,
    ):
        if rate <= 0:
            raise ServiceError(f"rate must be > 0, got {rate}")
        if burst < 1:
            raise ServiceError(f"burst must be >= 1, got {burst}")
        self.rate = float(rate)
        self.burst = float(burst)
        self.clock = clock
        self._tokens = float(burst)
        self._stamp = clock()

    def _refill(self) -> None:
        now = self.clock()
        self._tokens = min(
            self.burst, self._tokens + (now - self._stamp) * self.rate
        )
        self._stamp = now

    def try_take(self) -> bool:
        """Take one token if available; False means reject."""
        self._refill()
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True
        return False

    def retry_after(self) -> float:
        """Seconds until one token will be available."""
        self._refill()
        deficit = 1.0 - self._tokens
        return max(0.0, deficit / self.rate)


def failed(error_type: str, message: str) -> Dict:
    """The outcome of an execution that produced no result."""
    return {"ok": False, "error": {"type": error_type, "message": message}}


# ----------------------------------------------------------------------
# Execution (runs on a lane's single executor thread)
# ----------------------------------------------------------------------


def _execute_trials(algorithm: str, trials: int) -> Dict:
    """One multi-trial batch request, executed inline.

    The lockstep batch engine (:mod:`repro.sim.batch`) is deterministic
    and fast enough that crash isolation buys nothing here, so it never
    goes to a worker process.  The payload is an aggregate summary —
    one row, not one per trial — so a 100k-trial answer still fits the
    wire's line bound.
    """
    from repro.sim.batch import run_batch_transfer

    transfer = run_batch_transfer(algorithm=algorithm, trials=trials)
    rates = transfer.error_rates()
    result = ExperimentResult(
        experiment_id=f"{algorithm}@trials{trials}",
        title=(
            f"batch {algorithm}: {trials} lockstep trials "
            f"({transfer.message_length} bits/trial)"
        ),
        columns=[
            "trials",
            "mean_error_rate",
            "min_error_rate",
            "max_error_rate",
        ],
        rows=[
            [
                trials,
                float(rates.mean()),
                float(rates.min()),
                float(rates.max()),
            ]
        ],
        notes=f"engine=batch threshold={transfer.threshold:.2f} cycles",
    )
    return {"ok": True, "result": result.to_dict()}


def _execute_defended(channel_id: str, defense: str) -> Dict:
    """One defended-channel request, executed inline.

    Mirrors :func:`_execute_trials`: the defended run is a
    deterministic scalar simulation (seconds, not minutes), so crash
    isolation buys nothing and it never goes to a worker process.  The
    payload is one matrix cell — the same row shape as the
    ``ext_randomized`` baseline (see ``docs/DEFENSES.md``).
    """
    from repro.experiments.randomized import run_defended_channel

    result = run_defended_channel(channel_id, defense=defense)
    return {"ok": True, "result": result.to_dict()}


def _execute_analysis(policy: str, ways: int, defense: str) -> Dict:
    """One ``analyze`` request: a static table walk, zero simulation."""
    from repro.analysis import leakage

    entry = leakage.analyze_policy(policy, ways, defense=defense)
    return {"ok": True, "result": entry.to_dict()}


class InlineBackend:
    """Execute requests through a single-attempt :class:`ExperimentRunner`.

    A custom registry works for bounded requests too, as long as its
    callables are picklable (module-level): the worker process gets the
    function, as under ``run_many(jobs=N)``.  Batch and defended
    requests run inline; an exception they raise becomes a failed
    outcome on the lane that called :meth:`execute`.
    """

    def __init__(self, config: ServiceConfig, registry: Optional[Dict]):
        from repro.experiments.runner import ExperimentRunner

        self.runner = ExperimentRunner(
            timeout_seconds=config.timeout_seconds,
            retries=0,
            sanitize=config.sanitize,
            registry=registry,
            max_task_crashes=config.max_task_crashes,
            heartbeat_interval=config.heartbeat_interval,
            drain_timeout=config.drain_timeout,
            chaos=None if config.chaos is None else config.chaos.worker,
        )

    def execute(
        self,
        experiment_id: str,
        deadline: Optional[Deadline],
        trials: int = 0,
        defense: str = "none",
    ) -> Dict:
        if trials:
            return _execute_trials(experiment_id, trials)
        if defense != "none":
            return _execute_defended(experiment_id, defense)
        report = self.runner.run_many([experiment_id], deadline=deadline)
        if report.results:
            return {"ok": True, "result": report.results[0].to_dict()}
        (failure,) = report.failures
        return failed(failure.error_type, failure.message)

    def worker_pids(self) -> List[int]:
        executor = self.runner.executor
        return [] if executor is None else executor.worker_pids()


# ----------------------------------------------------------------------
# Lanes
# ----------------------------------------------------------------------


@dataclass
class _Job:
    """One admitted execution waiting in (or running from) a lane."""

    call: Callable[[], Dict]
    future: "asyncio.Future"


def _settle(future: "asyncio.Future", outcome: Dict) -> None:
    if not future.done():
        future.set_result(outcome)


class _Lane:
    """Where executions run: a bounded queue and one executor thread.

    The experiment pools carry a circuit breaker and a backend; the
    analysis lane has neither.  ``source`` is the response tag of a
    result the lane computed.
    """

    def __init__(
        self,
        name: str,
        service: "ExperimentService",
        source: str,
        breaker: Optional[CircuitBreaker] = None,
        backend: Optional[InlineBackend] = None,
    ):
        self.name = name
        self.service = service
        self.source = source
        self.breaker = breaker
        self.backend = backend
        self.queue: asyncio.Queue = asyncio.Queue(
            maxsize=service.config.queue_depth
        )
        self.executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix=f"svc-{name}"
        )
        self.task: Optional[asyncio.Task] = None
        self.busy = False

    def start(self) -> None:
        self.task = asyncio.get_running_loop().create_task(self._loop())
        if self.breaker is not None:
            self.service._publish_breaker_state(self.breaker)

    async def _loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            try:
                job = await asyncio.wait_for(self.queue.get(), timeout=0.1)
            except asyncio.TimeoutError:
                if self.service.draining:
                    break
                continue
            self.busy = True
            try:
                outcome = await loop.run_in_executor(self.executor, job.call)
            except asyncio.CancelledError:
                # Hard drain: the execution thread may still be running,
                # but the waiter must not hang on a result that will
                # never be published.
                _settle(
                    job.future,
                    failed(
                        "ServiceError", "drain timeout cancelled the execution"
                    ),
                )
                raise
            except Exception as error:  # noqa: BLE001 - surfaced to waiter
                outcome = failed(type(error).__name__, str(error))
            finally:
                self.busy = False
            _settle(job.future, outcome)

    async def stop(self, timeout: float) -> None:
        """Let the in-flight job finish, then tear the lane down."""
        if self.task is None:
            return
        try:
            await asyncio.wait_for(self.task, timeout=timeout)
        except asyncio.TimeoutError:
            self.task.cancel()
            try:
                await self.task
            except (asyncio.CancelledError, Exception):  # noqa: BLE001
                pass
        self.executor.shutdown(wait=False)


def _analyzable(policy: str) -> bool:
    from repro.analysis.leakage import ANALYTIC_POLICIES, SKIPPED_POLICIES
    from repro.replacement import POLICY_REGISTRY
    from repro.replacement.tables import TABLEABLE_POLICIES

    if policy in SKIPPED_POLICIES:
        return False
    return (
        policy in POLICY_REGISTRY
        or policy in TABLEABLE_POLICIES
        or policy in ANALYTIC_POLICIES
    )


# ----------------------------------------------------------------------
# The service
# ----------------------------------------------------------------------


class ExperimentService(LineFrontEnd):
    """The asyncio front end; see the module docstring for the design.

    Args:
        config: Every knob (:class:`ServiceConfig`).
        registry: Experiment-id → callable mapping; defaults to the
            global registry (injection point for tests; bounded
            executions need module-level callables).
    """

    def __init__(
        self, config: ServiceConfig, registry: Optional[Dict] = None
    ):
        super().__init__()
        self.config = config
        self._custom_registry = registry
        self.registry = EXPERIMENT_REGISTRY if registry is None else registry
        self.metrics = MetricsRegistry()
        self.cache = ResultCache(config.cache_dir, metrics=self.metrics)
        self.bucket = TokenBucket(config.rate, config.burst)
        # Lanes are born in start(): asyncio primitives must be born on
        # the loop they are awaited on (Python 3.9 binds at creation).
        self.pools: List[_Lane] = []
        self._analysis: Optional[_Lane] = None
        self.draining = False
        self._drained: Optional[asyncio.Event] = None
        # key -> future of the in-flight execution: concurrent requests
        # for the same key coalesce onto one run (singleflight).
        self._inflight: Dict[str, asyncio.Future] = {}

    # -- lifecycle ------------------------------------------------------

    async def start(self) -> None:
        """Bind the listener and start the lane loops."""
        if self._custom_registry is None:
            import repro.experiments  # noqa: F401 - populates the registry

        self._drained = asyncio.Event()
        config = self.config
        for index in range(config.pools):
            name = f"pool-{index}"
            breaker = CircuitBreaker(
                failure_threshold=config.breaker_failures,
                reset_timeout=config.breaker_reset,
                probe_jitter=BREAKER_JITTER,
                jitter=config.seed * 1000 + index,
                name=name,
                on_transition=self._publish_breaker_state,
            )
            backend = InlineBackend(config, self._custom_registry)
            self.pools.append(_Lane(name, self, "pool", breaker, backend))
        # Static leakage analyses are CPU-bound pure Python; their own
        # lane keeps them off the loop *and* serialised, so an analyze
        # burst cannot starve experiment pools.
        self._analysis = _Lane("analysis", self, "analysis")
        for lane in self._lanes():
            lane.start()
        await self.listen(config.host, config.port)

    def _lanes(self) -> List[_Lane]:
        return self.pools + ([self._analysis] if self._analysis else [])

    async def drain(self) -> None:
        """Graceful shutdown: finish in-flight work, flush, close.

        New requests get ``draining`` responses the moment this starts;
        queued and in-flight requests may finish within
        ``drain_timeout``; the cache is flushed so reconnecting clients
        get finished results bit-identically.
        """
        if self.draining:
            if self._drained is not None:
                await self._drained.wait()
            return
        self.draining = True
        per_lane = max(self.config.drain_timeout, 0.2)
        await asyncio.gather(*(lane.stop(per_lane) for lane in self._lanes()))
        # Whatever never ran: tell the waiters.
        for lane in self._lanes():
            while not lane.queue.empty():
                _settle(
                    lane.queue.get_nowait().future,
                    failed("ServiceError", "server drained before execution"),
                )
        self.cache.flush()
        await self.close_listener()
        if self._drained is not None:
            self._drained.set()

    async def abort(self) -> None:
        """Hard node death (cluster chaos only): die like a SIGKILL.

        No drain, no cache flush, no goodbye frames: the listener
        closes, every open client connection is severed with an RST
        (``transport.abort``), and the lane loops are cancelled with
        their work abandoned.  Clients observe exactly what a killed
        process gives them — a mid-frame disconnect — which is the
        signal the cluster router's failover machinery exists for.
        """
        self.draining = True
        if self.server is not None:
            self.server.close()
        for writer in list(self._writers):
            transport = writer.transport
            if transport is not None:
                transport.abort()
        for lane in self._lanes():
            if lane.task is not None:
                lane.task.cancel()
            lane.executor.shutdown(wait=False)
        if self._drained is not None:
            self._drained.set()

    def worker_pids(self) -> Dict[str, List[int]]:
        """Live worker pids per pool (bounded executions; chaos hooks)."""
        return {
            pool.name: pool.backend.worker_pids() for pool in self.pools
        }

    # -- request dispatch -----------------------------------------------

    async def _dispatch(self, request: Request) -> Dict:
        if request.forwarded:
            self.metrics.counter("cluster.requests.forwarded").inc()
        if request.op == "ping":
            return status_response(request, "pong")
        if request.op == "stats":
            return self._stats(request)
        if request.op == "backfill":
            return self._backfill(request)
        return await self._execute(request)

    async def _execute(self, request: Request) -> Dict:
        """The one path of every request that executes (``run``,
        ``analyze``); see the module docstring."""
        start = time.monotonic()
        if self.draining:
            return status_response(request, "draining")
        invalid = self._invalid(request)
        if invalid is not None:
            return error_response(invalid, request.request_id)
        if not self.bucket.try_take():
            self.metrics.counter("service.requests.rejected").inc()
            return self._retry_later(request, "rejected")
        self.metrics.counter("service.requests.admitted").inc()
        analyze = request.op == "analyze"
        if analyze:
            self.metrics.counter("analysis.leakage.requests").inc()
        elif request.defense != "none":
            self.metrics.counter(
                "service.requests.defended", label=request.defense
            ).inc()
        key = self._key_for(request)
        deadline = deadline_from_ms(request.deadline_ms)
        if not request.refresh:
            payload = self.cache.get_payload(key)
            if payload is not None:
                return self._ok(request, key, payload, "cache", start)
        if analyze and deadline is not None and deadline.remaining() <= 0:
            return self._degraded(
                request,
                key,
                start,
                {
                    "type": "ExperimentTimeout",
                    "message": "deadline expired before analysis",
                },
            )
        lane = (
            self._analysis
            if analyze
            else self._pool_for(request.experiment_id)
        )
        inflight = self._inflight.get(key)
        if inflight is not None:
            # Coalesce onto the running execution instead of queueing a
            # duplicate (singleflight).
            outcome = await asyncio.shield(inflight)
            return self._finish(request, key, dict(outcome), start, lane)
        breaker = lane.breaker
        if breaker is not None:
            if not breaker.allow():
                return self._degraded(
                    request,
                    key,
                    start,
                    {
                        "type": "CircuitOpen",
                        "message": f"{lane.name} circuit breaker is open",
                    },
                )
            self._publish_breaker_state(breaker)
        if analyze:
            call = partial(
                _execute_analysis,
                request.policy,
                request.ways,
                request.defense,
            )
        else:
            call = partial(
                lane.backend.execute,
                request.experiment_id,
                deadline,
                request.trials,
                request.defense,
            )
        future = asyncio.get_running_loop().create_future()
        try:
            lane.queue.put_nowait(_Job(call, future))
        except asyncio.QueueFull:
            if breaker is not None:
                breaker.abandon_probe()
            self.metrics.counter("service.requests.shed").inc()
            return self._retry_later(request, "shed")
        self._inflight[key] = future
        try:
            outcome = await future
        finally:
            self._inflight.pop(key, None)
        return self._finish(request, key, outcome, start, lane, breaker)

    def _invalid(self, request: Request) -> Optional[str]:
        """Why the node cannot execute this request, or None."""
        if request.op == "analyze":
            if _analyzable(request.policy):
                return None
            return f"unknown or non-analyzable policy {request.policy!r}"
        if request.trials:
            from repro.sim.batch import BATCH_CHANNELS

            if request.experiment_id not in BATCH_CHANNELS:
                return (
                    f"unknown batch algorithm {request.experiment_id!r}; "
                    f"choose from {sorted(BATCH_CHANNELS)}"
                )
        elif request.defense != "none":
            from repro.experiments.randomized import DEFENDED_CHANNELS

            if request.experiment_id not in DEFENDED_CHANNELS:
                return (
                    f"unknown defended channel {request.experiment_id!r}; "
                    f"choose from {list(DEFENDED_CHANNELS)}"
                )
        elif request.experiment_id not in self.registry:
            return f"unknown experiment {request.experiment_id!r}"
        return None

    def _finish(
        self,
        request: Request,
        key: str,
        outcome: Dict,
        start: float,
        lane: _Lane,
        breaker: Optional[CircuitBreaker] = None,
    ) -> Dict:
        """Answer an execution's outcome: memoize a result, or degrade.

        ``breaker`` is given only to the request that queued the
        execution, so one execution is one piece of breaker evidence
        however many requests coalesced onto it.
        """
        if not outcome.get("ok"):
            if breaker is not None:
                breaker.record_failure()
                self._publish_breaker_state(breaker)
            return self._degraded(request, key, start, outcome.get("error"))
        if breaker is not None:
            breaker.record_success()
            self._publish_breaker_state(breaker)
        payload = outcome.get("payload")
        if payload is None:
            result = outcome["result"]
            if request.op == "analyze":
                if result.get("mode") == "refused":
                    self.metrics.counter("analysis.leakage.refused").inc()
                else:
                    self.metrics.counter(
                        "analysis.leakage.computed", label=request.policy
                    ).inc()
            payload = self.cache.put(key, {"key": key, "result": result})
            outcome["payload"] = payload
            self._maybe_corrupt(key)
        return self._ok(request, key, payload, lane.source, start)

    # -- response builders ----------------------------------------------

    def _retry_later(self, request: Request, status: str) -> Dict:
        response = status_response(request, status)
        response["retry_after_ms"] = round(
            self.bucket.retry_after() * 1000.0, 3
        )
        return response

    def _ok(
        self,
        request: Request,
        key: str,
        payload: str,
        source: str,
        start: float,
    ) -> Dict:
        response = status_response(request, "ok")
        response["degraded"] = False
        response["source"] = source
        response["cache_key"] = key
        entry = json.loads(payload)
        response["result"] = entry["result"]
        response["elapsed_ms"] = round(
            (time.monotonic() - start) * 1000.0, 3
        )
        return response

    def _degraded(
        self,
        request: Request,
        key: str,
        start: float,
        error: Optional[Dict] = None,
    ) -> Dict:
        """Serve a cached or analytic-stub substitute, tagged degraded.

        ``status`` stays ``ok`` — degradation is a quality tag, not an
        error: the client still gets a usable, deterministic payload.
        """
        self.metrics.counter("service.requests.degraded").inc()
        response = status_response(request, "ok")
        response["degraded"] = True
        response["cache_key"] = key
        cached = self.cache.get(key)
        if cached is not None:
            response["source"] = "cache"
            response["result"] = cached["result"]
        else:
            response["source"] = "stub"
            response["result"] = analytic_stub(request.experiment_id)
        if error is not None:
            response["error"] = error
        response["elapsed_ms"] = round(
            (time.monotonic() - start) * 1000.0, 3
        )
        return response

    def _backfill(self, request: Request) -> Dict:
        """Anti-entropy repair: accept an exact result from a replica.

        The entry is rebuilt canonically from the wire fields and only
        stored when its checksum verifies AND no differing local entry
        exists (the cache's converge-or-refuse semantics) — a node never
        lets a peer overwrite results it computed itself.
        """
        if self.draining:
            return status_response(request, "draining")
        applied = self.cache.backfill(
            request.cache_key,
            {"key": request.cache_key, "result": request.result},
            checksum=request.checksum,
        )
        if not applied:
            self.metrics.counter("cluster.backfill.rejected").inc()
            return error_response(
                "backfill rejected: checksum mismatch or conflicting "
                "local entry",
                request.request_id,
            )
        self.metrics.counter("cluster.backfill.applied").inc()
        response = status_response(request, "ok")
        response["applied"] = True
        response["cache_key"] = request.cache_key
        return response

    def _stats(self, request: Request) -> Dict:
        response = status_response(request, "stats")
        response["node"] = self.config.name
        response["draining"] = self.draining
        response["metrics"] = self.metrics.snapshot()
        response["pools"] = {
            pool.name: {
                "breaker": pool.breaker.state,
                "queued": pool.queue.qsize(),
                "busy": pool.busy,
            }
            for pool in self.pools
        }
        response["cache_entries"] = len(self.cache)
        return response

    # -- plumbing -------------------------------------------------------

    def _key_for(self, request: Request) -> str:
        """The cache key: the identity fields of the result a request
        names (``refresh`` and ``deadline_ms`` change only how it is
        served)."""
        if request.op == "analyze":
            from repro.replacement.tables import EAGER_STATE_BUDGET

            fields = key_fields(
                experiment_id=(
                    f"analyze/{request.policy}/ways={request.ways}/"
                    f"defense={request.defense}/budget={EAGER_STATE_BUDGET}"
                ),
                seed=0,
                sanitize=False,
            )
        elif request.defense != "none":
            # Defended channel runs: the design is part of the result
            # bits, and run_defended_channel pins its own master seed.
            fields = key_fields(
                experiment_id=f"{request.experiment_id}@{request.defense}",
                seed=17,
                sanitize=self.config.sanitize,
            )
        elif request.trials:
            # Batch-trial requests: the trial count is part of the
            # result bits, and the seed is fixed by the batch path
            # (deterministic counter-based streams from the batch
            # engine's default master seed).
            fields = key_fields(
                experiment_id=(
                    f"{request.experiment_id}@trials{request.trials}"
                ),
                seed=None,
                sanitize=self.config.sanitize,
            )
        else:
            from repro.experiments.runner import ExperimentRunner

            parameter = ExperimentRunner._rng_parameter(
                self.registry[request.experiment_id]
            )
            fields = key_fields(
                experiment_id=request.experiment_id,
                seed=ExperimentRunner._attempt_seed(parameter, 0),
                sanitize=self.config.sanitize,
            )
        return request_key(fields)

    def _pool_for(self, experiment_id: str) -> _Lane:
        digest = hashlib.sha256(experiment_id.encode("utf-8")).digest()
        index = int.from_bytes(digest[:4], "big") % len(self.pools)
        return self.pools[index]

    def _publish_breaker_state(
        self, breaker: CircuitBreaker, *_transition
    ) -> None:
        self.metrics.gauge("service.breaker.state", label=breaker.name).set(
            BREAKER_STATE_VALUES[breaker.state]
        )

    def _maybe_corrupt(self, key: str) -> None:
        """Chaos hook: bit-flip the entry just written (tests only)."""
        chaos = self.config.chaos
        if chaos is None or not chaos.decide_corrupt(key):
            return
        from repro.experiments.chaos import bit_flip_file

        try:
            bit_flip_file(self.cache.path(key), seed=chaos.seed)
        except (OSError, ValueError):
            return
        self.cache.discard_memory(key)


def analytic_stub(experiment_id: str) -> Dict:
    """Deterministic substitute payload for degraded-mode serving.

    Shaped exactly like a real :class:`ExperimentResult` payload so
    clients parse one format, with the degradation spelled out in
    ``notes`` (and the response's ``degraded``/``source`` tags).
    """
    return ExperimentResult(
        experiment_id=experiment_id,
        title=f"analytic stub for {experiment_id} (degraded)",
        columns=[],
        rows=[],
        paper_expectation="",
        notes=(
            "degraded response: the worker pool was unavailable and no "
            "cached result existed; retry later for exact data"
        ),
    ).to_dict()
