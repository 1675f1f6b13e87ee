"""One benchmark workload in a fresh interpreter.

``bench/run.py`` starts this script once per measured run (and a few
more times with ``--setup-only`` to time set-up).  The protocol on
stdout is two lines: ``BENCH-READY`` once set-up is done, and
``BENCH-RESULT <json>`` at the end.

Untraced runs (``--trace 0``) execute the workload's operations back to
back until ``--seconds`` have elapsed, then run the correctness gate.
Traced runs (``--trace 1``) execute a fixed number of operations three
times: untraced, with span wrappers and counters on, and under
cProfile; the first two must produce byte-identical results.
"""

from __future__ import annotations

import argparse
import asyncio
import cProfile
import dataclasses
import inspect
import itertools
import json
import os
import pstats
import resource
import shutil
import statistics
import sys
import tempfile
import threading
import time
from contextlib import nullcontext
from typing import Callable, Dict, Iterator, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, SRC)

import repro  # noqa: E402

if os.path.dirname(os.path.abspath(repro.__file__)) != os.path.join(SRC, "repro"):
    raise SystemExit(f"repro imported from {repro.__file__}, not from {SRC}")

import gate  # noqa: E402
from hostclock import HostClock  # noqa: E402
from run import load_spec  # noqa: E402
from spans import SpanRecorder, layer_table, profile_shares, render_layer_table  # noqa: E402


@dataclasses.dataclass
class Record:
    """One completed operation: what it was, how long, what it produced."""

    key: str
    latency: float
    payload: object
    ok: bool = True
    extra: Dict = dataclasses.field(default_factory=dict)
    end: float = dataclasses.field(default_factory=time.perf_counter)


def _default(fn: Callable, name: str):
    return inspect.signature(fn).parameters[name].default


def _median_ms(values: List[float]) -> float:
    return statistics.median(values) * 1000.0 if values else 0.0


class Workload:
    """A named sequence of operations plus the checks on their outputs."""

    name = ""
    #: Operations a traced run executes (fixed, so counts repeat exactly).
    traced_ops = 0
    #: Whether runners this workload creates collect obs counters.
    observe = False
    #: Registered experiments the workload runs whole.  A traced run
    #: reruns them observed and checks their ``_run:``/``_metrics:``
    #: footers; the other workloads run slices, which have no footer.
    whole_experiments: Tuple[str, ...] = ()

    def __init__(self, seed: int, scratch: str):
        self.seed = seed
        self.scratch = scratch
        self.clock = HostClock()
        self.committed = gate.parse_experiments_md(os.path.join(ROOT, "EXPERIMENTS.md"))

    def setup(self) -> None:
        """Reach the ready state (imports are done by the time this runs)."""

    def reset(self) -> None:
        """Return to the post-set-up state before a traced phase."""

    def close(self) -> None:
        """Release everything set-up acquired."""

    def units(self) -> List[Tuple[str, Callable[[], object]]]:
        raise NotImplementedError

    def drive(self, stop: Callable[[int, float], bool], op_span=None) -> List[Record]:
        """Run operations in order (wrapping around) until ``stop`` says so."""
        units = self.units()
        records: List[Record] = []
        start = time.perf_counter()
        index = 0
        while not stop(len(records), time.perf_counter() - start):
            key, fn = units[index % len(units)]
            index += 1
            with op_span(key) if op_span else nullcontext():
                began = time.perf_counter()
                payload = fn()
                latency = time.perf_counter() - began
            records.append(Record(key, latency, payload))
            self.clock.tick()
        return records

    def check(self, records: List[Record]) -> List[str]:
        """Correctness errors in ``records`` (empty means all exact)."""
        return _repeat_errors(records)

    def patch(self, recorder: SpanRecorder) -> None:
        """Install span wrappers around this workload's layer boundaries."""
        _patch_simulator(recorder)

    def counts(self, session) -> Dict[str, float]:
        """Per-layer exact counts after the traced phase."""
        return _session_counts(session)

    def layer_metrics(self, records: List[Record]) -> Dict[str, float]:
        """Per-layer metrics read from untraced records."""
        return {}


def _repeat_errors(records: List[Record]) -> List[str]:
    """A unit that ran twice (the order wrapped around) must repeat exactly."""
    seen: Dict[str, str] = {}
    errors = []
    for record in records:
        text = gate.canonical(record.payload)
        if seen.setdefault(record.key, text) != text:
            errors.append(f"{record.key}: rerun produced different bytes")
    return errors


def _reference_rerun(fn: Callable[[], object]) -> object:
    """``fn()`` on the reference engine (the fast engine must match it)."""
    from repro.sim.fastpath import default_engine, set_default_engine

    previous = default_engine()
    set_default_engine("reference")
    try:
        return fn()
    finally:
        set_default_engine(previous)


# ----------------------------------------------------------------------
# smt-sweep: Figure 4's hyper-threaded sweep
# ----------------------------------------------------------------------


class SmtSweep(Workload):
    """fig4's 96 hyper-threaded machines, three per operation.

    One operation is one ``fig4.sweep`` call over the three Ts values
    (the main cost factor) for one (algorithm, Tr, d), so operations
    cost about the same.  Every 8 operations complete three rows of the
    committed fig4 table.  With ``--seed 0`` every operation uses the
    registered rng; another seed gives operation ``i`` the rng
    ``seed * 1000 + i``, so a run averages over many messages.
    """

    name = "smt-sweep"
    traced_ops = 4
    TS = (4500.0, 6000.0, 12000.0)
    GRID = [(a, tr, d) for a in (1, 2) for tr in (600.0, 1000.0) for d in range(1, 9)]

    def __init__(self, seed, scratch):
        super().__init__(seed, scratch)
        from repro.experiments import fig4

        self.fig4 = fig4
        self.message_length = _default(fig4.run_fig4, "message_length")
        self.repeats = _default(fig4.run_fig4, "repeats")

    def _rng(self, index):
        return _default(self.fig4.run_fig4, "rng") if self.seed == 0 else self.seed * 1000 + index

    def _points(self, index, ts_values=TS):
        algorithm, tr, d = self.GRID[index]
        points = self.fig4.sweep(
            algorithm, tr_values=(tr,), ts_values=ts_values, d_values=(d,),
            message_length=self.message_length, repeats=self.repeats, rng=self._rng(index),
        )
        return [dataclasses.asdict(p) for p in points]

    def units(self):
        return [
            (f"fig4/alg{a}/tr{tr:g}/d{d}", lambda i=i: self._points(i))
            for i, (a, tr, d) in enumerate(self.GRID)
        ]

    def check(self, records):
        errors = _repeat_errors(records)
        reference = _reference_rerun(lambda: self._points(0, ts_values=self.TS[:1]))
        if gate.canonical(reference) != gate.canonical(records[0].payload[:1]):
            errors.append(f"{records[0].key}: fast engine differs from reference engine")
        if self.seed != 0:
            return errors
        groups: Dict[Tuple, Dict[int, Dict]] = {}
        for record in records:
            for p in record.payload:
                groups.setdefault((p["algorithm"], p["tr"], p["ts"]), {})[p["d"]] = p
        for (algorithm, tr, ts), by_d in groups.items():
            if len(by_d) < 8:
                continue
            errs = [by_d[d]["error_rate"] for d in range(1, 9)]
            row = [
                f"Alg {algorithm}", tr, ts, round(by_d[1]["rate_kbps"], 1),
                round(sum(errs) / len(errs), 3), round(min(errs), 3), round(max(errs), 3),
            ]
            error = gate.check_row(self.committed, "fig4", row, 4)
            if error:
                errors.append(error)
        return errors


# ----------------------------------------------------------------------
# timeslice-policy: Figure 6 slices interleaved with Table I slices
# ----------------------------------------------------------------------


class TimeslicePolicy(Workload):
    """fig6's time-sliced sweep and table1's Monte Carlo cells.

    Operations alternate between one d of fig6 over all three Tr values
    (three committed rows) and one (init, policy) of table1 over both
    sequences and all four iteration counts (eight committed rows); the
    two kinds cost about the same.  fig6 keeps its registered seeds for
    every ``--seed``; table1 takes the seed as its ``rng``.
    """

    name = "timeslice-policy"
    traced_ops = 2
    TR = (6.0e4, 1.0e5, 2.0e5)
    D = (1, 2, 4, 6, 7, 8)
    ITERATIONS = (1, 2, 3, 8)
    TABLE1 = [(c, p) for c in ("random", "sequential") for p in ("lru", "tree-plru", "bit-plru")]

    def __init__(self, seed, scratch):
        super().__init__(seed, scratch)
        from repro.experiments import fig6, table1
        from repro.sim.specs import INTEL_E5_2690

        self.fig6, self.table1, self.spec = fig6, table1, INTEL_E5_2690
        self.rng = _default(table1.run_table1, "rng") if seed == 0 else seed
        self.trials = _default(table1.run_table1, "trials")

    def _fig6_slice(self, d, tr_values=TR):
        points = self.fig6.time_sliced_sweep(self.spec, tr_values=tr_values, d_values=(d,), samples=40)
        return [dataclasses.asdict(p) for p in points]

    def _table1_slice(self, condition, policy):
        cells = [
            [sequence, iterations, self.table1.eviction_probability(
                policy, sequence, condition, iterations, trials=self.trials, rng=self.rng)]
            for sequence in (1, 2)
            for iterations in self.ITERATIONS
        ]
        return {"table1": [condition, policy, cells]}

    def units(self):
        units = []
        for d, (c, p) in zip(self.D, self.TABLE1):
            units.append((f"fig6/d{d}", lambda d=d: {"fig6": self._fig6_slice(d)}))
            units.append((f"table1/{c}/{p}", lambda c=c, p=p: self._table1_slice(c, p)))
        return units

    def _table1_rows(self, payload):
        if "table1" not in payload:
            return []
        condition, policy, cells = payload["table1"]
        rows = []
        for sequence, iterations, value in cells:
            paper = self.table1.PAPER_TABLE1.get(
                (policy, sequence, condition, iterations), 1.00 if policy == "lru" else None
            )
            rows.append([condition, iterations, policy, f"Seq {sequence}", round(value, 3),
                         paper if paper is not None else "-"])
        return rows

    def paper_mae(self, records) -> float:
        diffs = {}
        for record in records:
            for row in self._table1_rows(record.payload):
                if row[5] != "-":
                    diffs[tuple(row[:4])] = abs(row[4] - row[5])
        return sum(diffs.values()) / len(diffs) if diffs else 0.0

    @staticmethod
    def _fig6_rows(points):
        by_key: Dict[Tuple, Dict[int, float]] = {}
        for p in points:
            by_key.setdefault((p["tr"], p["d"]), {})[p["sent_bit"]] = p["percent_ones"]
        return [
            [tr, d, f"{v.get(0, 0.0):.0%}", f"{v.get(1, 0.0):.0%}", f"{abs(v.get(1, 0.0) - v.get(0, 0.0)):.0%}"]
            for (tr, d), v in by_key.items()
        ]

    def check(self, records):
        errors = _repeat_errors(records)
        reference = _reference_rerun(lambda: self._fig6_slice(self.D[0], tr_values=self.TR[:1]))
        served = [p for p in records[0].payload["fig6"] if p["tr"] == self.TR[0]]
        if gate.canonical(reference) != gate.canonical(served):
            errors.append(f"{records[0].key}: fast engine differs from reference engine")
        committed_cells = {
            tuple(row[:5]): float(row[5]) for row in self.committed["table1"]["rows"]
        }
        for record in records:
            found = [gate.check_row(self.committed, "fig6", row, 2)
                     for row in self._fig6_rows(record.payload.get("fig6", []))]
            for row in self._table1_rows(record.payload):
                if self.seed == 0:
                    found.append(gate.check_row(self.committed, "table1", row, 5))
                    continue
                # Another seed draws other trials: each estimate must stay
                # within sampling error (5 sd of a difference of two
                # 2000-trial binomials) of the committed one.
                expected = committed_cells[tuple(gate.row_tokens(row)[:5])]
                if abs(row[4] - expected) > 0.08:
                    found.append(f"{record.key} {row[:4]}: {row[4]} is far from committed {expected}")
            errors += [error for error in found if error]
        return errors

    def layer_metrics(self, records):
        return {"experiments.table1.paper_mae": self.paper_mae(records)}


# ----------------------------------------------------------------------
# batch-trials: the runner's trial path with a checkpoint per block
# ----------------------------------------------------------------------


class _WindowClosed(Exception):
    """Raised from the runner's per-block callback when the run is over."""


class BatchTrials(Workload):
    """``run_trials`` for alg1 then alg2, 32768 trials in 256-trial blocks.

    Each call checkpoints to a fresh file, as ``repro run alg1 --trials
    32768 --checkpoint ck.json`` does.  Calls alternate algorithms; the
    n-th call of an algorithm uses master seed ``base + n``.
    """

    name = "batch-trials"
    traced_ops = 128
    TRIALS = 32768
    BLOCK = 256

    def __init__(self, seed, scratch):
        super().__init__(seed, scratch)
        from repro.experiments.runner import ExperimentRunner

        self.runner_cls = ExperimentRunner
        self.base = _default(ExperimentRunner.run_trials, "seed") if seed == 0 else seed
        self.captures: Dict[str, Dict] = {}

    def drive(self, stop, op_span=None):
        records: List[Record] = []
        start = time.perf_counter()
        call = 0
        while True:
            algorithm = ("alg1", "alg2")[call % 2]
            seed = self.base + call // 2
            checkpoint = os.path.join(self.scratch, f"checkpoint-{call}.json")
            runner = self.runner_cls(checkpoint_path=checkpoint, observe=self.observe)
            mark = [time.perf_counter()]

            def finish(key, payload, ok):
                now = time.perf_counter()
                records.append(Record(f"{key}/seed{seed}", now - mark[0], payload, ok))
                self.clock.tick()
                if stop(len(records), now - start):
                    raise _WindowClosed
                mark[0] = time.perf_counter()

            try:
                with op_span(f"{algorithm}/seed{seed}") if op_span else nullcontext():
                    runner.run_trials(
                        algorithm, self.TRIALS, block_size=self.BLOCK, seed=seed,
                        on_result=lambda result, _: finish(result.experiment_id, result.to_dict(), True),
                        on_failure=lambda failure: finish(failure.experiment_id, failure.render(), False),
                    )
            except _WindowClosed:
                return records
            finally:
                self.captures.update({k: c.metrics for k, c in runner.captures.items()})
                if os.path.exists(checkpoint):
                    os.remove(checkpoint)
                call += 1

    def check(self, records):
        errors = _repeat_errors(records)
        by_key = {r.key: r.payload for r in records}
        for call in range(2):
            algorithm, seed = ("alg1", "alg2")[call], self.base
            timed = [by_key.get(f"{algorithm}@trials{lo}-{lo + self.BLOCK}/seed{seed}") for lo in (0, self.BLOCK)]
            if None in timed:
                continue
            rerun = self.runner_cls().run_trials(algorithm, 2 * self.BLOCK, block_size=64, seed=seed)
            small = [row for result in rerun.results for row in result.rows]
            large = [row for payload in timed for row in payload["rows"]]
            if rerun.failures or gate.canonical(small) != gate.canonical(large):
                errors.append(f"{algorithm} seed {seed}: trial rows change with block size")
        return errors

    def patch(self, recorder):
        _patch_simulator(recorder)
        from repro.experiments import runner

        recorder.patch(runner.ExperimentRunner, "run_trials", "experiments.runner.run_trials")
        recorder.patch(
            runner, "atomic_write_text", "experiments.checkpoint",
            extra_of=lambda args, kwargs: {"bytes": len(args[1].encode("utf-8"))},
        )

    def counts(self, session):
        counters: Dict[str, float] = {}
        for metrics in self.captures.values():
            for name, value in metrics.get("counters", {}).items():
                total = sum(value.values()) if isinstance(value, dict) else value
                counters[name] = counters.get(name, 0) + total
        return {
            "sim.batch.steps": counters.get("batch.steps", 0),
            "sim.batch.fallback.open_table": counters.get("batch.fallback.open_table", 0),
        }


# ----------------------------------------------------------------------
# service-routed: one closed-loop client through the cluster router
# ----------------------------------------------------------------------


SHAPES: List[Dict] = (
    [{"op": "run", "experiment_id": e} for e in ("table2", "fig11", "table5", "fig14", "fig5", "ext_side_channel")]
    + [{"op": "run", "experiment_id": a, "trials": n} for a in ("alg1", "alg2") for n in (256, 512, 1024, 2048)]
    + [{"op": "run", "experiment_id": a, "defense": d} for a in ("alg1", "alg2") for d in ("fifo", "random")]
    + [{"op": "analyze", "policy": p, "ways": w, "defense": "none"} for p in ("lru", "tree-plru", "bit-plru") for w in (4, 8)]
)
#: Requests ``i`` with ``i % 25`` in this set carry ``refresh`` (8%).
REFRESH_SLOTS = (0, 12)


def shape_key(shape: Dict) -> str:
    return "/".join(f"{k}={shape[k]}" for k in sorted(shape))


def request_schedule(seed: int) -> Iterator[Tuple[Dict, bool]]:
    """Endless seeded (shape, refresh) stream.

    Shapes come from the service's own load model,
    ``loadgen.build_schedule`` at its default repeat bias (the draw the
    service and cluster benchmarks and smoke scripts use), so popular
    shapes snowball and most requests read the cache.  On top of it,
    two requests in every 25 (8%, a chosen share, not a measured one)
    carry ``refresh`` and walk the shape list in turn, so every run
    recomputes (and rewrites) the same mix.
    """
    from repro.service.loadgen import build_schedule

    by_key = {shape_key(shape): shape for shape in SHAPES}
    drawn = _prefix_stable(lambda n: build_schedule(n, list(by_key), seed=seed))
    turn = 0
    for index in itertools.count():
        if index % 25 in REFRESH_SLOTS:
            yield SHAPES[turn % len(SHAPES)], True
            turn += 1
        else:
            yield by_key[next(drawn)], False


def _prefix_stable(build: Callable[[int], List[str]]) -> Iterator[str]:
    """Endless stream from ``build(n)``, whose first n items never depend on n."""
    done, size = 0, 1024
    while True:
        yield from build(size)[done:]
        done, size = size, 2 * size


class Cluster:
    """A router in front of two inline service nodes, on one loop thread."""

    NODES = 2

    def __init__(self, cache_root: str):
        self.cache_root = cache_root
        self.services: Dict = {}
        self.router = None
        self._loop = None
        self._stop = None
        self._ready = threading.Event()
        self._error: Optional[BaseException] = None
        self._thread = threading.Thread(target=lambda: asyncio.run(self._main()), daemon=True)

    def start(self) -> "Cluster":
        self._thread.start()
        if not self._ready.wait(60.0):
            raise RuntimeError("cluster did not start within 60 s")
        if self._error is not None:
            raise self._error
        return self

    async def _main(self) -> None:
        from repro.cluster import ClusterRouter, Membership, Peer, RouterConfig
        from repro.service.server import ExperimentService, ServiceConfig

        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        try:
            peers = []
            for index in range(self.NODES):
                name = f"node{index}"
                service = ExperimentService(ServiceConfig(
                    port=0, rate=2000.0, burst=200, drain_timeout=5.0, name=name,
                    cache_dir=os.path.join(self.cache_root, name),
                ))
                await service.start()
                self.services[name] = service
                peers.append(Peer(name=name, host="127.0.0.1", port=service.port))
            self.router = ClusterRouter(RouterConfig(), Membership(peers))
            await self.router.start()
        except BaseException as error:  # noqa: BLE001 - re-raised by start()
            self._error = error
            self._ready.set()
            return
        self._ready.set()
        await self._stop.wait()
        await self.router.drain()
        await asyncio.gather(*(s.drain() for s in self.services.values()), return_exceptions=True)

    def stop(self) -> None:
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(60.0)
        if self._thread.is_alive():
            raise RuntimeError("cluster did not drain within 60 s")


class ServiceRouted(Workload):
    """Seeded requests from one client, each waiting for its reply."""

    name = "service-routed"
    traced_ops = 300
    MAX_RETRIES = 50
    whole_experiments = tuple(
        s["experiment_id"] for s in SHAPES if s["op"] == "run" and len(s) == 2
    )

    def __init__(self, seed, scratch):
        super().__init__(seed, scratch)
        self.cluster: Optional[Cluster] = None
        self.client = None
        self.retries = 0
        self.generation = 0

    def setup(self):
        from repro.service.client import ServiceClient

        self.generation += 1
        self.cluster = Cluster(os.path.join(self.scratch, f"cluster-{self.generation}")).start()
        self.client = ServiceClient("127.0.0.1", self.cluster.router.port, timeout=120.0)
        stats = self.client.stats()
        unreachable = [n for n, p in stats.get("peers", {}).items() if not p.get("reachable")]
        if stats.get("status") != "stats" or unreachable or len(stats["peers"]) != Cluster.NODES:
            raise RuntimeError(f"router cannot reach every node: {stats}")

    def close(self):
        if self.client is not None:
            self.client.close()
            self.client = None
        if self.cluster is not None:
            self.cluster.stop()
            self.cluster = None

    def reset(self):
        self.close()
        self.retries = 0
        self.setup()

    def drive(self, stop, op_span=None):
        records: List[Record] = []
        schedule = request_schedule(self.seed)
        start = time.perf_counter()
        while not stop(len(records), time.perf_counter() - start):
            shape, refresh = next(schedule)
            request_id = f"r{len(records)}"
            payload = dict(shape, request_id=request_id)
            if refresh:
                payload["refresh"] = True
            with op_span(request_id) if op_span else nullcontext():
                began = time.perf_counter()
                response = self._send(payload)
                latency = time.perf_counter() - began
            ok = response.get("status") == "ok" and not response.get("degraded")
            records.append(Record(
                shape_key(shape), latency, response.get("result"), ok,
                {"source": response.get("source"), "elapsed_ms": response.get("elapsed_ms", 0.0)},
            ))
            self.clock.tick()
        return records

    def _send(self, payload: Dict) -> Dict:
        for _ in range(self.MAX_RETRIES + 1):
            response = self.client.roundtrip(payload)
            if response.get("status") not in ("rejected", "shed"):
                return response
            self.retries += 1
            time.sleep(max(0.01, response.get("retry_after_ms", 0.0) / 1000.0))
        return response

    def check(self, records):
        errors = _repeat_errors([r for r in records if r.ok])
        errors += [f"{r.key}: not an exact answer" for r in records if not r.ok]
        baseline = gate.leakage_baseline(os.path.join(ROOT, "benchmarks", "LEAKAGE_baseline.json"))
        checked = set()
        for record in records:
            if not record.ok or record.key in checked:
                continue
            checked.add(record.key)
            shape = next(s for s in SHAPES if shape_key(s) == record.key)
            error = self._check_one(shape, record.payload, baseline)
            if error:
                errors.append(f"{record.key}: {error}")
        return errors

    def _check_one(self, shape: Dict, served: Dict, baseline: Dict) -> Optional[str]:
        """Compare one served result with the committed or directly computed one."""
        if shape["op"] == "analyze":
            expected = baseline.get((shape["policy"], shape["ways"], shape["defense"]))
            if expected is None:
                from repro.analysis.leakage import analyze_policy

                expected = analyze_policy(shape["policy"], shape["ways"], defense=shape["defense"]).to_dict()
        elif shape.get("trials"):
            from repro.sim.batch import run_batch_transfer

            transfer = run_batch_transfer(algorithm=shape["experiment_id"], trials=shape["trials"])
            rates = transfer.error_rates()
            expected = [[shape["trials"], float(rates.mean()), float(rates.min()), float(rates.max())]]
            served = served["rows"]
        elif shape.get("defense"):
            from repro.experiments.randomized import run_defended_channel

            expected = run_defended_channel(shape["experiment_id"], defense=shape["defense"]).to_dict()
        else:
            return gate.check_result(self.committed, served)
        if gate.canonical(expected) != gate.canonical(served):
            return "served result differs from a direct call"
        return None

    def patch(self, recorder):
        from repro.analysis import leakage
        from repro.cluster.transport import PeerTransport
        from repro.service.cache import ResultCache
        from repro.service.client import ServiceClient
        from repro.service.server import InlineBackend

        recorder.patch(ServiceClient, "roundtrip", "client.request",
                       id_of=lambda args, kwargs: args[1].get("request_id", ""))
        recorder.patch(PeerTransport, "request", "cluster.peer_request",
                       id_of=lambda args, kwargs: args[2].get("request_id", ""))
        recorder.patch(InlineBackend, "execute", "service.execute",
                       id_of=lambda args, kwargs: args[1])
        recorder.patch(leakage, "analyze_policy", "analysis.leakage",
                       id_of=lambda args, kwargs: f"{args[0]}/{args[1]}")
        recorder.patch(ResultCache, "get_payload", "service.cache.read",
                       id_of=lambda args, kwargs: args[1][:12])
        recorder.patch(ResultCache, "put", "service.cache.write",
                       id_of=lambda args, kwargs: args[1][:12])
        _patch_simulator(recorder)

    def counts(self, session):
        stats = self.client.stats()
        node = {}
        for peer in stats["peers"].values():
            for name, value in peer["stats"]["metrics"]["counters"].items():
                total = sum(value.values()) if isinstance(value, dict) else value
                node[name] = node.get(name, 0) + total
        router = stats["metrics"]["counters"]
        hedged = router.get("cluster.requests.hedged", 0)
        return {
            "service.requests.rejected": node.get("service.requests.rejected", 0),
            "service.requests.shed": node.get("service.requests.shed", 0),
            "service.requests.degraded": node.get("service.requests.degraded", 0),
            "service.client.retries": self.retries,
            "cluster.requests.failover": router.get("cluster.requests.failover", 0),
            "cluster.requests.hedged": hedged,
            "cluster.hedge.win_frac": router.get("cluster.hedge.wins", 0) / hedged if hedged else 0.0,
        }

    def layer_metrics(self, records):
        from repro.service.loadgen import LoadReport

        def percentile_ms(chosen, q):
            return LoadReport(latencies_ms=[1000.0 * r.latency for r in chosen]).percentile_ms(q)

        ok = [r for r in records if r.ok]
        hits = [r for r in ok if r.extra["source"] == "cache"]
        execs = [r for r in ok if r.extra["source"] != "cache"]
        return {
            "service.hit_p50_ms": _median_ms([r.latency for r in hits]),
            "service.exec_p50_ms": _median_ms([r.latency for r in execs]),
            "service.hit_p99_ms": percentile_ms(hits, 99.0),
            "service.exec_p90_ms": percentile_ms(execs, 90.0),
            "service.node.hit_p50_ms": statistics.median([r.extra["elapsed_ms"] for r in hits]) if hits else 0.0,
            "cluster.hop.p50_ms": statistics.median(
                [1000.0 * r.latency - r.extra["elapsed_ms"] for r in hits]) if hits else 0.0,
            "service.cache.hit_frac": len(hits) / len(ok) if ok else 0.0,
        }


WORKLOADS = {w.name: w for w in (SmtSweep, TimeslicePolicy, BatchTrials, ServiceRouted)}


# ----------------------------------------------------------------------
# Layer wrappers and counts shared by the simulator workloads
# ----------------------------------------------------------------------


def _patch_simulator(recorder: SpanRecorder) -> None:
    from repro.analysis import reachability
    from repro.channels import evaluation
    from repro.channels.protocol import CovertChannelProtocol
    from repro.experiments import fig4, fig6, table1
    from repro.replacement import tables
    from repro.sim import batch
    from repro.sim.machine import Machine
    from repro.sim.scheduler import HyperThreadedScheduler, TimeSlicedScheduler

    recorder.patch(HyperThreadedScheduler, "run", "sim.sched.ht")
    recorder.patch(TimeSlicedScheduler, "run", "sim.sched.ts")
    recorder.patch(Machine, "__init__", "sim.machine.build")
    recorder.patch(batch.BatchEngine, "run_transfer", "sim.batch.run_transfer")
    for module in (tables, batch, reachability):
        recorder.patch(module, "compile_tables", "replacement.compile_tables")
    recorder.patch(CovertChannelProtocol, "run_hyper_threaded", "channels.protocol")
    recorder.patch(CovertChannelProtocol, "run_time_sliced", "channels.protocol")
    for attr in ("sample_bits", "runlength_decode", "window_decode"):
        recorder.patch(evaluation, attr, "channels.decode")
    recorder.patch(fig6, "percent_ones", "channels.decode")
    recorder.patch(fig4, "sweep", "experiments.fig4")
    recorder.patch(fig6, "time_sliced_sweep", "experiments.fig6")
    recorder.patch(table1, "eviction_probability", "experiments.table1")


def _session_counts(session) -> Dict[str, float]:
    counters = {
        name: (sum(value.values()) if isinstance(value, dict) else value)
        for name, value in session.metrics.snapshot().get("counters", {}).items()
    }
    accesses = counters.get("cache.l1.hits", 0) + counters.get("cache.l1.misses", 0)
    return {
        "sim.sched.ops": counters.get("sched.ops", 0),
        "sim.sched.slices": counters.get("sched.slices", 0),
        "cache.l1.accesses": accesses,
        "cache.l1.miss_frac": counters.get("cache.l1.misses", 0) / accesses if accesses else 0.0,
        "cache.evictions": counters.get("cache.evictions", 0),
        "replacement.transitions": counters.get("replacement.transitions", 0),
        "faults.activations": counters.get("faults.activations", 0),
        "faults.stall_cycles": counters.get("sched.fault_stall_cycles", 0),
        "channels.observations": counters.get("channel.observations", 0),
    }


def span_metrics(table: List[Dict], spans: List[Dict], names) -> Dict[str, float]:
    """Per-layer metrics read off the layer table (and the spans' byte counts).

    A layer's inclusive seconds and call count are reported as
    ``<layer>.s`` and ``<layer>.calls`` where ``names`` has them.
    """
    rows = {row["layer"]: row for row in table}
    metrics: Dict[str, float] = {}
    for layer, row in rows.items():
        for suffix, field in ((".s", "total_s"), (".calls", "calls")):
            if layer + suffix in names:
                metrics[layer + suffix] = row[field]
    checkpoint = rows.get("experiments.checkpoint")
    if checkpoint:
        metrics["experiments.checkpoint.writes"] = checkpoint["calls"]
        metrics["experiments.checkpoint.bytes"] = sum(
            span.get("bytes", 0) for span in spans if span["name"] == "experiments.checkpoint"
        )
    if "experiments.runner.run_trials" in rows:
        transfer = rows.get("sim.batch.run_transfer", {"total_s": 0.0})
        metrics["experiments.runner.overhead_s"] = (
            rows["experiments.runner.run_trials"]["total_s"] - transfer["total_s"]
        )
    return metrics


# ----------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------


def timed_run(workload: Workload, seconds: float) -> Dict:
    """The end-to-end run: operations back to back for ``seconds``.

    Latencies are reported at reference host speed (see ``hostclock``);
    the raw figures ride along for the printed report.
    """
    records = workload.drive(lambda done, elapsed: elapsed >= seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    errors = workload.check(records) if records else ["no operation completed"]
    raw = [r.latency for r in records]
    scaled = [r.latency * workload.clock.scale(r.end - r.latency, r.end) for r in records]
    return {
        "attempted": len(records),
        "failed": sum(not r.ok for r in records),
        "errors": errors,
        "metrics": {
            "op_p50_ms": _median_ms(scaled),
            "ops_per_s": len(records) / sum(scaled),
            "peak_rss_mb": peak_rss_mb,
        },
        "raw": {
            "op_p50_ms": _median_ms(raw),
            "ops_per_s": len(raw) / sum(raw),
            "calibration_ms": workload.clock.median_ms(),
        },
    }


def traced_run(workload: Workload) -> Dict:
    """The per-layer run: untraced, traced and profiled passes over the same operations.

    A discarded warm-up pass comes first, so the untraced and traced
    passes both start with the imports done and the policy-table memo
    filled, and their ratio is the tracing overhead alone.
    """
    from repro.obs.session import ObsSession, observe

    count = workload.traced_ops
    enough = lambda done, elapsed: done >= count  # noqa: E731

    workload.drive(enough)
    workload.reset()
    began = time.perf_counter()
    plain = workload.drive(enough)
    plain_s = time.perf_counter() - began

    workload.reset()
    recorder = SpanRecorder()
    session = ObsSession(trace_depth=0)
    workload.patch(recorder)
    workload.observe = True
    try:
        began = time.perf_counter()
        with observe(session):
            traced = workload.drive(enough, op_span=lambda key: recorder.span("bench.op", key))
        traced_s = time.perf_counter() - began
    finally:
        recorder.unpatch()
        workload.observe = False
    counts = workload.counts(session)

    errors = workload.check(plain) if plain else ["no operation completed"]
    for a, b in zip(plain, traced):
        if a.key != b.key or gate.canonical(a.payload) != gate.canonical(b.payload):
            errors.append(f"{a.key}: traced run produced different bytes")
            break
    errors += gate.check_footers(workload.committed, workload.whole_experiments)

    profiles: List[cProfile.Profile] = []

    def start_thread_profile(frame, event, arg):
        profile = cProfile.Profile()
        profiles.append(profile)
        profile.enable()

    main_profile = cProfile.Profile()
    profiles.append(main_profile)
    threading.setprofile(start_thread_profile)
    main_profile.enable()
    try:
        workload.reset()
        workload.drive(enough)
        workload.close()
    finally:
        main_profile.disable()
        threading.setprofile(None)
    merged = pstats.Stats(profiles[0])
    for profile in profiles[1:]:
        merged.add(profile)

    # Every per-layer metric of BENCHMARK.json is reported; an idle layer reads 0.
    names = [m["name"] for m in load_spec()["per_layer"]]
    modules = [n[len("prof."):-len(".self_frac")] for n in names if n.startswith("prof.")]
    table = layer_table(recorder.spans)
    computed = span_metrics(table, recorder.spans, names)
    computed.update(counts)
    computed.update(workload.layer_metrics(plain))
    sched_s = computed.get("sim.sched.ht.s", 0.0) + computed.get("sim.sched.ts.s", 0.0)
    ops = computed.get("sim.sched.ops", 0)
    computed["sim.sched.ns_per_op"] = 1e9 * sched_s / ops if ops else 0.0
    computed["obs.trace_overhead_frac"] = traced_s / plain_s - 1.0
    computed.update({
        f"prof.{name}.self_frac": share
        for name, share in profile_shares(merged.stats, SRC, modules).items()
    })
    unknown = sorted(set(computed) - set(names))
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json per_layer: {unknown}")
    metrics = dict.fromkeys(names, 0.0)
    metrics.update(computed)

    os.makedirs(OUT, exist_ok=True)
    trace_path = os.path.join(OUT, f"{workload.name}.trace.json")
    with open(trace_path, "w") as handle:
        json.dump({
            "workload": workload.name,
            "seed": workload.seed,
            "operations": count,
            "metrics": metrics,
            "layers": table,
            "spans": recorder.spans,
        }, handle)
    return {
        "attempted": len(plain),
        "failed": sum(not r.ok for r in plain),
        "errors": errors,
        "metrics": metrics,
        "layer_table": render_layer_table(table),
        "trace_path": os.path.relpath(trace_path, ROOT),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    os.makedirs(OUT, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=OUT)
    workload = None
    try:
        workload = WORKLOADS[args.workload](args.seed, scratch)
        workload.setup()
        print("BENCH-READY", flush=True)
        if args.setup_only:
            return 0
        if args.trace:
            result = traced_run(workload)
        else:
            result = timed_run(workload, args.seconds)
        print("BENCH-RESULT " + json.dumps(result), flush=True)
        return 0
    finally:
        if workload is not None:
            workload.close()
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
