"""The asyncio experiment service: admission, backpressure, breakers.

Request path (all decisions on the event-loop thread, so no state needs
locks)::

    parse/validate ── admission (token bucket) ── cache lookup
        ── circuit breaker ── bounded pool queue ── execute ── memoize

Every stage that can refuse does so *explicitly* and *immediately*:
admission refusal is a ``rejected`` response with a retry hint, a full
pool queue is a ``shed`` response, an open breaker short-circuits to a
cached or analytic-stub response tagged ``degraded=true``.  Nothing
buffers unboundedly and nothing blocks a client on a pool that recent
history says is broken.

Execution itself happens off the loop, one single-thread executor per
pool, through :class:`InlineBackend`: each request is a one-experiment
``ExperimentRunner.run_many`` batch with the request's deadline.  A
request with no wall-clock bound (no ``deadline_ms`` and no
``--timeout``) runs in the pool's thread.  A bounded one runs in a
supervised worker *process* that is SIGKILLed at the bound: crashes
(including chaos-injected or external SIGKILL) are survived by the
executor's recovery machinery, and the worker pid is exposed so the
chaos suite can kill it mid-request.

Graceful drain reuses the PR-5 semantics: on ``drain()`` the service
stops admitting (``draining`` responses), lets in-flight requests finish
within ``drain_timeout``, flushes the cache, and closes.  Reconnecting
clients get finished results from the cache bit-identically.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.common.breaker import CircuitBreaker
from repro.common.deadline import Deadline, deadline_from_ms
from repro.common.errors import ServiceError
from repro.experiments.base import EXPERIMENT_REGISTRY, ExperimentResult
from repro.obs.session import ObsSession
from repro.service.cache import ResultCache, key_fields, request_key
from repro.service.protocol import (
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    Request,
    encode_line,
    error_response,
    parse_request,
)

#: Numeric encoding of breaker states for the ``service.breaker.state``
#: gauge (labelled by pool name).
BREAKER_STATE_VALUES = {"closed": 0, "half-open": 1, "open": 2}


@dataclass
class ServiceConfig:
    """Every knob of one service instance.

    Args:
        host: Bind address.
        port: Bind port; 0 picks a free one (read it back from
            :attr:`ExperimentService.port` after ``start``).
        pools: Worker pools; requests shard across them by experiment
            id, so one wedged pool cannot absorb every request.
        queue_depth: Bound of each pool's request queue; a full queue
            sheds (never unbounded buffering).
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
        breaker_jitter: Jitter fraction on the probe delay (seeded).
        cache_dir: Directory of the durable result cache.
        drain_timeout: How long in-flight requests may finish during a
            graceful drain.
        seed: Master seed for breaker probe jitter.
        trace_depth: Ring-buffer depth for request-scoped trace spans;
            0 disables tracing (metrics stay on).
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
    breaker_jitter: float = 0.5
    cache_dir: str = "service-cache"
    drain_timeout: float = 10.0
    seed: int = 0
    trace_depth: int = 0
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


# ----------------------------------------------------------------------
# Execution (runs in the pool's single executor thread)
# ----------------------------------------------------------------------


def _execute_trials(algorithm: str, trials: int) -> Dict:
    """One multi-trial batch request, executed inline.

    The lockstep batch engine (:mod:`repro.sim.batch`) is deterministic
    and fast enough that crash isolation buys nothing here, so it never
    goes to a worker process.  The payload is an aggregate summary —
    one row, not one per trial — so a 100k-trial answer still fits the
    wire's line bound.
    """
    from repro.experiments.base import ExperimentResult
    from repro.sim.batch import run_batch_transfer

    try:
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
            notes=(
                f"engine=batch threshold={transfer.threshold:.2f} cycles"
            ),
        )
    except Exception as error:  # noqa: BLE001 - becomes degraded response
        return {
            "ok": False,
            "error": {
                "type": type(error).__name__,
                "message": str(error),
            },
        }
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

    try:
        result = run_defended_channel(channel_id, defense=defense)
    except Exception as error:  # noqa: BLE001 - becomes degraded response
        return {
            "ok": False,
            "error": {
                "type": type(error).__name__,
                "message": str(error),
            },
        }
    return {"ok": True, "result": result.to_dict()}


class InlineBackend:
    """Execute requests through a single-attempt :class:`ExperimentRunner`.

    A custom registry works for bounded requests too, as long as its
    callables are picklable (module-level): the worker process gets the
    function, as under ``run_many(jobs=N)``.
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
        error = {"type": failure.error_type, "message": failure.message}
        return {"ok": False, "error": error}

    def worker_pids(self) -> List[int]:
        executor = self.runner.executor
        return [] if executor is None else executor.worker_pids()


# ----------------------------------------------------------------------
# Pools
# ----------------------------------------------------------------------


@dataclass
class _Job:
    """One admitted request waiting in (or running from) a pool queue."""

    request: Request
    key: str
    deadline: Optional[Deadline]
    future: "asyncio.Future"


class _Pool:
    """One worker pool: bounded queue + breaker + single executor thread."""

    def __init__(
        self, index: int, name: str, service: "ExperimentService", backend
    ):
        self.name = name
        self.service = service
        self.backend = backend
        self.queue: asyncio.Queue = asyncio.Queue(
            maxsize=service.config.queue_depth
        )
        self.breaker = CircuitBreaker(
            failure_threshold=service.config.breaker_failures,
            reset_timeout=service.config.breaker_reset,
            probe_jitter=service.config.breaker_jitter,
            jitter=service.config.seed * 1000 + index,
            name=name,
            on_transition=service._on_breaker_transition,
        )
        self.executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix=f"svc-{name}"
        )
        self.task: Optional[asyncio.Task] = None
        self.busy = False

    def start(self) -> None:
        self.task = asyncio.get_running_loop().create_task(self._loop())
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
            if job is None:
                break
            self.busy = True
            try:
                outcome = await loop.run_in_executor(
                    self.executor,
                    self.backend.execute,
                    job.request.experiment_id,
                    job.deadline,
                    job.request.trials,
                    job.request.defense,
                )
            except asyncio.CancelledError:
                # Hard drain: the execution thread may still be running,
                # but the waiter must not hang on a result that will
                # never be published.
                if not job.future.done():
                    job.future.set_result(
                        {
                            "ok": False,
                            "error": {
                                "type": "ServiceError",
                                "message": "drain timeout cancelled "
                                "the execution",
                            },
                        }
                    )
                raise
            except Exception as error:  # noqa: BLE001 - surfaced to waiter
                outcome = {
                    "ok": False,
                    "error": {
                        "type": type(error).__name__,
                        "message": str(error),
                    },
                }
            finally:
                self.busy = False
            if not job.future.done():
                job.future.set_result(outcome)

    async def stop(self, timeout: float) -> None:
        """Let the in-flight job finish, then tear the pool down."""
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


# ----------------------------------------------------------------------
# The service
# ----------------------------------------------------------------------


class ExperimentService:
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
        self.config = config
        self._custom_registry = registry
        self.registry = EXPERIMENT_REGISTRY if registry is None else registry
        self.session = ObsSession(trace_depth=config.trace_depth)
        self.metrics = self.session.metrics
        self.cache = ResultCache(config.cache_dir, metrics=self.metrics)
        self.bucket = TokenBucket(config.rate, config.burst)
        self.pools: List[_Pool] = []
        self.server: Optional[asyncio.AbstractServer] = None
        self.port: Optional[int] = None
        self.draining = False
        # Static leakage analyses are CPU-bound pure Python; one
        # dedicated thread keeps them off the loop *and* serialised, so
        # an analyze burst cannot starve experiment pools.
        self._analysis_executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="svc-analysis"
        )
        # Created inside start() — asyncio primitives must be born on
        # the loop they are awaited on (Python 3.9 binds at creation).
        self._drained: Optional[asyncio.Event] = None
        # key -> future of the in-flight execution: concurrent requests
        # for the same key coalesce onto one run (singleflight).
        self._inflight: Dict[str, asyncio.Future] = {}
        # Open client connections, so a chaos abort() can sever them
        # the way a SIGKILL'd process would (RST, not FIN).
        self._writers: set = set()

    # -- lifecycle ------------------------------------------------------

    async def start(self) -> None:
        """Bind the listener and start the pool loops."""
        if self._custom_registry is None:
            import repro.experiments  # noqa: F401 - populates the registry

        self._drained = asyncio.Event()
        for index in range(self.config.pools):
            backend = InlineBackend(self.config, self._custom_registry)
            pool = _Pool(index, f"pool-{index}", self, backend)
            self.pools.append(pool)
            pool.start()
        self.server = await asyncio.start_server(
            self._handle_client,
            host=self.config.host,
            port=self.config.port,
            limit=MAX_LINE_BYTES,
        )
        self.port = self.server.sockets[0].getsockname()[1]

    async def drain(self) -> None:
        """Graceful shutdown: finish in-flight work, flush, close.

        New ``run`` requests get ``draining`` responses the moment this
        starts; queued and in-flight requests may finish within
        ``drain_timeout``; the cache is flushed so reconnecting clients
        get finished results bit-identically.
        """
        if self.draining:
            if self._drained is not None:
                await self._drained.wait()
            return
        self.draining = True
        per_pool = max(self.config.drain_timeout, 0.2)
        await asyncio.gather(
            *(pool.stop(per_pool) for pool in self.pools)
        )
        # Whatever never ran: tell the waiters.
        for pool in self.pools:
            while not pool.queue.empty():
                job = pool.queue.get_nowait()
                if job is not None and not job.future.done():
                    job.future.set_result(
                        {
                            "ok": False,
                            "error": {
                                "type": "ServiceError",
                                "message": "server drained before execution",
                            },
                        }
                    )
        self.cache.flush()
        self._analysis_executor.shutdown(wait=False)
        if self.server is not None:
            self.server.close()
            await self.server.wait_closed()
        if self._drained is not None:
            self._drained.set()

    async def serve_until(self, stop: "asyncio.Event") -> None:
        """Serve until ``stop`` is set, then drain gracefully."""
        await stop.wait()
        await self.drain()

    async def abort(self) -> None:
        """Hard node death (cluster chaos only): die like a SIGKILL.

        No drain, no cache flush, no goodbye frames: the listener
        closes, every open client connection is severed with an RST
        (``transport.abort``), and the pool loops are cancelled with
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
        for pool in self.pools:
            if pool.task is not None:
                pool.task.cancel()
            pool.executor.shutdown(wait=False)
        self._analysis_executor.shutdown(wait=False)
        if self._drained is not None:
            self._drained.set()

    def worker_pids(self) -> Dict[str, List[int]]:
        """Live worker pids per pool (bounded executions; chaos hooks)."""
        return {
            pool.name: pool.backend.worker_pids() for pool in self.pools
        }

    # -- connection handling --------------------------------------------

    async def _handle_client(self, reader, writer) -> None:
        self._writers.add(writer)
        try:
            while True:
                try:
                    line = await reader.readline()
                except (
                    asyncio.LimitOverrunError,
                    ValueError,
                ):
                    writer.write(
                        encode_line(
                            error_response(
                                f"request line exceeds {MAX_LINE_BYTES} bytes"
                            )
                        )
                    )
                    await writer.drain()
                    break
                if not line:
                    break
                try:
                    request = parse_request(line)
                except ServiceError as error:
                    writer.write(encode_line(error_response(str(error))))
                    await writer.drain()
                    continue
                response = await self._dispatch(request)
                writer.write(encode_line(response))
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError, OSError):
            # The client vanished (chaos client_disconnect, a crash, a
            # dropped link).  Nothing to tell anyone; just clean up.
            pass
        finally:
            self._writers.discard(writer)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    # -- request dispatch -----------------------------------------------

    async def _dispatch(self, request: Request) -> Dict:
        if request.forwarded:
            self.metrics.counter("cluster.requests.forwarded").inc()
        if request.op == "ping":
            return self._base(request, "pong")
        if request.op == "stats":
            return self._stats(request)
        if request.op == "backfill":
            return self._backfill(request)
        if request.op == "analyze":
            with self.session.span(
                "service.request",
                experiment_id=(
                    f"analyze/{request.policy}/{request.ways}/"
                    f"{request.defense}"
                ),
                request_id=request.request_id,
            ):
                return await self._dispatch_analyze(request)
        with self.session.span(
            "service.request",
            experiment_id=request.experiment_id,
            request_id=request.request_id,
        ):
            return await self._dispatch_run(request)

    async def _dispatch_run(self, request: Request) -> Dict:
        start = time.monotonic()
        if self.draining:
            return self._base(request, "draining")
        if request.trials:
            from repro.sim.batch import BATCH_CHANNELS

            if request.experiment_id not in BATCH_CHANNELS:
                return error_response(
                    f"unknown batch algorithm {request.experiment_id!r}; "
                    f"choose from {sorted(BATCH_CHANNELS)}",
                    request.request_id,
                )
        elif request.defense != "none":
            from repro.experiments.randomized import DEFENDED_CHANNELS

            if request.experiment_id not in DEFENDED_CHANNELS:
                return error_response(
                    f"unknown defended channel {request.experiment_id!r}; "
                    f"choose from {list(DEFENDED_CHANNELS)}",
                    request.request_id,
                )
        elif request.experiment_id not in self.registry:
            return error_response(
                f"unknown experiment {request.experiment_id!r}",
                request.request_id,
            )
        if not self.bucket.try_take():
            self.metrics.counter("service.requests.rejected").inc()
            response = self._base(request, "rejected")
            response["retry_after_ms"] = round(
                self.bucket.retry_after() * 1000.0, 3
            )
            return response
        self.metrics.counter("service.requests.admitted").inc()
        if request.defense != "none":
            self.metrics.counter(
                "service.requests.defended", label=request.defense
            ).inc()
        key = self._key_for(
            request.experiment_id, request.trials, request.defense
        )
        deadline = deadline_from_ms(request.deadline_ms)
        if not request.refresh:
            payload = self.cache.get_payload(key)
            if payload is not None:
                return self._ok(
                    request, key, payload, source="cache", start=start
                )
        inflight = self._inflight.get(key)
        if inflight is not None:
            # Coalesce onto the running execution instead of queueing a
            # duplicate (singleflight).
            outcome = await asyncio.shield(inflight)
            return self._finish(
                request, key, dict(outcome), start, record_breaker=False
            )
        pool = self._pool_for(request.experiment_id)
        if not pool.breaker.allow():
            self.metrics.counter("service.requests.degraded").inc()
            return self._degraded(
                request,
                key,
                start,
                error={
                    "type": "CircuitOpen",
                    "message": f"{pool.name} circuit breaker is open",
                },
            )
        self._publish_breaker_state(pool.breaker)
        future = asyncio.get_running_loop().create_future()
        job = _Job(
            request=request, key=key, deadline=deadline, future=future
        )
        try:
            pool.queue.put_nowait(job)
        except asyncio.QueueFull:
            pool.breaker.abandon_probe()
            self.metrics.counter("service.requests.shed").inc()
            response = self._base(request, "shed")
            response["retry_after_ms"] = round(
                self.bucket.retry_after() * 1000.0, 3
            )
            return response
        self._inflight[key] = future
        try:
            outcome = await future
        finally:
            self._inflight.pop(key, None)
        response = self._finish(
            request, key, outcome, start, pool=pool, record_breaker=True
        )
        return response

    async def _dispatch_analyze(self, request: Request) -> Dict:
        """The zero-simulation analytic endpoint (ROADMAP item 2).

        Same admission, deadline, cache, and singleflight rules as
        ``run``, but execution is a static table walk on a dedicated
        analysis thread — no experiment pool, no breaker (there is no
        flaky dependency to trip on: the analysis is deterministic).
        A shape whose state space exceeds the eager budget is served as
        a *structured refusal* (``result.mode == "refused"``), cached
        like any other answer.
        """
        start = time.monotonic()
        if self.draining:
            return self._base(request, "draining")
        if not self._analyzable(request.policy):
            return error_response(
                f"unknown or non-analyzable policy {request.policy!r}",
                request.request_id,
            )
        if not self.bucket.try_take():
            self.metrics.counter("service.requests.rejected").inc()
            response = self._base(request, "rejected")
            response["retry_after_ms"] = round(
                self.bucket.retry_after() * 1000.0, 3
            )
            return response
        self.metrics.counter("service.requests.admitted").inc()
        self.metrics.counter("analysis.leakage.requests").inc()
        key = self._analysis_key(
            request.policy, request.ways, request.defense
        )
        if not request.refresh:
            payload = self.cache.get_payload(key)
            if payload is not None:
                return self._ok(
                    request, key, payload, source="cache", start=start
                )
        deadline = deadline_from_ms(request.deadline_ms)
        if deadline is not None and deadline.remaining() <= 0:
            self.metrics.counter("service.requests.degraded").inc()
            return self._degraded(
                request,
                key,
                start,
                error={
                    "type": "ExperimentTimeout",
                    "message": "deadline expired before analysis",
                },
            )
        inflight = self._inflight.get(key)
        if inflight is not None:
            outcome = await asyncio.shield(inflight)
            return self._finish_analyze(request, key, dict(outcome), start)
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        self._inflight[key] = future
        try:
            outcome = await loop.run_in_executor(
                self._analysis_executor,
                self._run_analysis,
                request.policy,
                request.ways,
                request.defense,
            )
        except Exception as error:  # noqa: BLE001 - surfaced as degraded
            outcome = {
                "ok": False,
                "error": {
                    "type": type(error).__name__,
                    "message": str(error),
                },
            }
        finally:
            self._inflight.pop(key, None)
            if not future.done():
                future.set_result(outcome)
        return self._finish_analyze(request, key, outcome, start)

    @staticmethod
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

    @staticmethod
    def _run_analysis(policy: str, ways: int, defense: str) -> Dict:
        """Executed on the analysis thread; returns a run-style outcome."""
        from repro.analysis.leakage import analyze_policy

        try:
            entry = analyze_policy(policy, ways, defense=defense)
        except Exception as error:  # noqa: BLE001 - becomes degraded
            return {
                "ok": False,
                "error": {
                    "type": type(error).__name__,
                    "message": str(error),
                },
            }
        return {"ok": True, "result": entry.to_dict()}

    def _finish_analyze(
        self, request: Request, key: str, outcome: Dict, start: float
    ) -> Dict:
        if outcome.get("ok"):
            payload = outcome.get("payload")
            if payload is None:
                result = outcome["result"]
                if result.get("mode") == "refused":
                    self.metrics.counter("analysis.leakage.refused").inc()
                else:
                    self.metrics.counter(
                        "analysis.leakage.computed", label=request.policy
                    ).inc()
                payload = self.cache.put(key, {"key": key, "result": result})
                outcome["payload"] = payload
                self._maybe_corrupt(key)
            return self._ok(
                request, key, payload, source="analysis", start=start
            )
        self.metrics.counter("service.requests.degraded").inc()
        return self._degraded(request, key, start, error=outcome.get("error"))

    def _analysis_key(self, policy: str, ways: int, defense: str) -> str:
        from repro.replacement.tables import EAGER_STATE_BUDGET

        return request_key(
            key_fields(
                experiment_id=(
                    f"analyze/{policy}/ways={ways}/defense={defense}/"
                    f"budget={EAGER_STATE_BUDGET}"
                ),
                seed=0,
                engine="static-analysis",
                sanitize=False,
            )
        )

    def _finish(
        self,
        request: Request,
        key: str,
        outcome: Dict,
        start: float,
        pool: Optional[_Pool] = None,
        record_breaker: bool = True,
    ) -> Dict:
        if outcome.get("ok"):
            if record_breaker and pool is not None:
                pool.breaker.record_success()
                self._publish_breaker_state(pool.breaker)
            payload = outcome.get("payload")
            if payload is None:
                payload = self.cache.put(
                    key, {"key": key, "result": outcome["result"]}
                )
                outcome["payload"] = payload
                self._maybe_corrupt(key)
            return self._ok(request, key, payload, source="pool", start=start)
        if record_breaker and pool is not None:
            pool.breaker.record_failure()
            self._publish_breaker_state(pool.breaker)
        self.metrics.counter("service.requests.degraded").inc()
        return self._degraded(
            request, key, start, error=outcome.get("error")
        )

    # -- response builders ----------------------------------------------

    def _base(self, request: Request, status: str) -> Dict:
        return {
            "v": PROTOCOL_VERSION,
            "request_id": request.request_id,
            "status": status,
        }

    def _ok(
        self,
        request: Request,
        key: str,
        payload: str,
        source: str,
        start: float,
    ) -> Dict:
        response = self._base(request, "ok")
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
        response = self._base(request, "ok")
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
            return self._base(request, "draining")
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
        response = self._base(request, "ok")
        response["applied"] = True
        response["cache_key"] = request.cache_key
        return response

    def _stats(self, request: Request) -> Dict:
        response = self._base(request, "stats")
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

    def _key_for(
        self, experiment_id: str, trials: int = 0, defense: str = "none"
    ) -> str:
        from repro.experiments.runner import ExperimentRunner
        from repro.sim.fastpath import default_engine

        if defense != "none":
            # Defended channel runs: the design is part of the result
            # bits, and run_defended_channel pins its own master seed.
            return request_key(
                key_fields(
                    experiment_id=f"{experiment_id}@{defense}",
                    seed=17,
                    engine=default_engine(),
                    sanitize=self.config.sanitize,
                )
            )
        if trials:
            # Batch-trial requests: the trial count is part of the
            # result bits, and the engine/seed are fixed by the batch
            # path (deterministic counter-based streams from the
            # engine's default master seed).
            return request_key(
                key_fields(
                    experiment_id=f"{experiment_id}@trials{trials}",
                    seed=None,
                    engine="batch",
                    sanitize=self.config.sanitize,
                )
            )
        parameter = ExperimentRunner._rng_parameter(
            self.registry[experiment_id]
        )
        seed = ExperimentRunner._attempt_seed(parameter, 0)
        return request_key(
            key_fields(
                experiment_id=experiment_id,
                seed=seed,
                engine=default_engine(),
                sanitize=self.config.sanitize,
            )
        )

    def _pool_for(self, experiment_id: str) -> _Pool:
        digest = hashlib.sha256(experiment_id.encode("utf-8")).digest()
        index = int.from_bytes(digest[:4], "big") % len(self.pools)
        return self.pools[index]

    def _on_breaker_transition(self, breaker, old_state, new_state) -> None:
        self._publish_breaker_state(breaker)
        self.session.event(
            "service.breaker",
            pool=breaker.name,
            old_state=old_state,
            new_state=new_state,
        )

    def _publish_breaker_state(self, breaker) -> None:
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
