"""The conformance matrix: one result, whatever computes or serves it.

A result is named by its ``RunManifest`` key, never by the engine, run
mode or serving path that produced it.  For seven fixed keys, one per
kind of work, every cell below must yield the canonical bytes
(:func:`repro.service.cache.canonical_entry` of the result's
``to_dict()``) of the baseline cell: the registered callable run once,
serially, in this process, on the fast engine (the session ``run``
fixture the paper-claim tests read too).

Keys:

- ``fig5`` (hyper-threaded transfer), ``ext_alg2_timesliced``
  (time-sliced), ``ext_coding`` (interrupt faults) and ``table2``:
  registered experiments;
- ``alg1@trials256``: ``run alg1 --trials 256`` on the batch engine;
- ``alg1@fifo``: ``run alg1 --defense fifo``;
- ``analyze lru@4``: the static leakage analysis of 4-way LRU.

Axes: engine {fast, reference} (the batch engine for the trials key);
run mode {serial, traced, sanitized, ``--jobs 2``, killed-and-resumed};
serving path {in-process, node, router}.  The rows below cover each
value of each axis; a key runs in every row that can reach it, but for
the two cells left out for their cost (see below).

=========================  ================================================
row                        what it runs
=========================  ================================================
fast traced --jobs 2       the four experiments as one pool batch, traced
fast traced                the trials key's blocks, traced
fast sanitized --jobs 2    the batch with ``--sanitize``
fast killed                the batch SIGINTed once its first result is
                           checkpointed (the drain kills the workers
                           still running), then rerun on the checkpoint;
                           the trials key dies after two of four blocks
reference serial           the defended channel on the reference engine
reference traced --jobs 2  the batch with ``--engine reference``; each
                           experiment block (``_run:`` footer and
                           ``_metrics:`` digest included) must equal the
                           fast traced row's: the engine is provenance
node                       a service node computes on a cold cache
reference node             a node on the reference engine answers from
                           that cache under the same cache key
router                     a router in front of two nodes on that cache
router killed              the key's preferred node killed before the
                           request; the other one answers
=========================  ================================================

Experiments take the traced, sanitized and reference rows as
``--jobs 2`` batches, which are then also the ``--jobs 2`` cells.
``ext_coding`` skips the sanitized and reference rows (:data:`COSTLY`):
there it costs 3.7 and 3.9 s on a 2-CPU host, as much as the rest of
the matrix, while CI diffs it sanitized and on the reference engine
(``run ... --sanitize`` and ``run all --engine reference``) and the
kernel differential runs interrupt faults on the general route and
the reference engine.  A served row after the first answers from the
cache the node filled: what it checks is the path, not the computation.

Cells that cannot exist:

- every in-process mode but serial, for the defended channel and the
  analysis: ``run --defense`` and ``analyze`` call their engines
  directly, with no runner to trace, sanitize, pool or checkpoint;
- the trials key sanitized, under ``--jobs 2`` or on the reference
  engine: ``run_trials`` builds no scalar machine for the sanitizer to
  arm and runs its blocks in one process, and the batch engine is the
  only engine of a trials request (``REPRO_ENGINE`` picks scalar
  machines only);
- the analysis on the reference engine: a static table walk builds no
  machine;
- traced, ``--jobs 2`` or sanitized on a node or the router: a node has
  no trace or jobs switch (it runs one request on one runner), and its
  ``--sanitize`` flag hands that runner the flag the sanitized row
  sets;
- killed on a lone node: it keeps no checkpoint, so the request it was
  running dies with it and a retry is a plain request; the router row
  is where a kill is survived.
"""

import contextlib
import json
import os
import re
import signal
import time

import numpy as np
import pytest

from repro.cluster.router import routing_key
from repro.experiments import EXPERIMENT_REGISTRY
from repro.experiments.base import ExperimentResult
from repro.experiments.runner import ExperimentRunner
from repro.obs.report import experiment_block
from repro.service.cache import canonical_entry
from repro.service.protocol import parse_request
from repro.service.server import ServiceConfig
from repro.sim.fastpath import ENGINE_ENV, set_default_engine
from tests.test_cluster.conftest import ClusterHarness
from tests.test_service.conftest import ServiceHarness

TRIALS = 256
EXPERIMENTS = ["fig5", "ext_alg2_timesliced", "ext_coding", "table2"]

#: Each key's kind and its wire request.
KEYS = {
    **{
        name: ("experiment", {"op": "run", "experiment_id": name})
        for name in EXPERIMENTS
    },
    "alg1@trials256": (
        "trials",
        {"op": "run", "experiment_id": "alg1", "trials": TRIALS},
    ),
    "alg1@fifo": (
        "defense",
        {"op": "run", "experiment_id": "alg1", "defense": "fifo"},
    ),
    "analyze lru@4": (
        "analyze",
        {"op": "analyze", "policy": "lru", "ways": 4, "defense": "none"},
    ),
}

BASELINE = ("fast", "serial", "in-process")

#: Cells left out for their cost (see the module docstring).
COSTLY = {
    ("ext_coding", "reference", "traced+jobs2", "in-process"),
    ("ext_coding", "fast", "sanitized+jobs2", "in-process"),
}

SERVED = {"experiment", "trials", "defense", "analyze"}

#: Row → the key kinds it reaches.
ROWS = {
    ("fast", "traced+jobs2", "in-process"): {"experiment"},
    ("fast", "traced", "in-process"): {"trials"},
    ("fast", "sanitized+jobs2", "in-process"): {"experiment"},
    ("fast", "killed", "in-process"): {"experiment", "trials"},
    ("reference", "serial", "in-process"): {"defense"},
    ("reference", "traced+jobs2", "in-process"): {"experiment"},
    ("fast", "serial", "node"): SERVED,
    ("reference", "serial", "node"): {"experiment", "defense"},
    ("fast", "serial", "router"): SERVED,
    ("fast", "killed", "router"): SERVED,
}


@contextlib.contextmanager
def engine(name):
    saved = os.environ.get(ENGINE_ENV)
    set_default_engine(name)
    try:
        yield
    finally:
        set_default_engine(saved)


def canonical(result):
    if isinstance(result, ExperimentResult):
        result = result.to_dict()
    return canonical_entry(result)


def trials_summary(blocks):
    """The service's one-row answer to a trials request, from blocks."""
    rows = [row for block in blocks for row in block.rows]
    rates = np.array([row[2] for row in rows])
    threshold = re.search(r"threshold=(\S+) cycles", blocks[0].notes)
    return ExperimentResult(
        experiment_id=f"alg1@trials{len(rows)}",
        title=f"batch alg1: {len(rows)} lockstep trials (64 bits/trial)",
        columns=[
            "trials", "mean_error_rate", "min_error_rate", "max_error_rate"
        ],
        rows=[
            [
                len(rows),
                float(rates.mean()),
                float(rates.min()),
                float(rates.max()),
            ]
        ],
        notes=f"engine=batch threshold={threshold.group(1)} cycles",
    )


class Killed(Exception):
    """The process died right after its last checkpoint write."""


class Cells:
    """Computes each cell once; a pool row runs every experiment at once."""

    def __init__(self, run, tmp):
        self.run = run
        self.tmp = tmp
        self.memo = {}
        self.batches = {}
        self.blocks = {}
        self.cache_keys = {}
        self.servers = {}
        self.cache_dir = str(tmp / "served-cache")

    def get(self, name, eng, mode, path):
        cell = (name, eng, mode, path)
        if cell not in self.memo:
            kind, payload = KEYS[name]
            with engine(eng):
                if path == "in-process":
                    self.memo[cell] = self.in_process(name, kind, eng, mode)
                else:
                    self.memo[cell] = getattr(self, path)(name, payload, eng, mode)
        return self.memo[cell]

    # -- in process ------------------------------------------------------

    def in_process(self, name, kind, eng, mode):
        if kind == "experiment":
            if mode == "serial":
                return canonical(self.run(name))
            if (eng, mode) not in self.batches:
                self.batches[eng, mode] = self.batch(eng, mode)
            return self.batches[eng, mode][name]
        if kind == "trials":
            return canonical(trials_summary(self.trials(mode)))
        if kind == "defense":
            from repro.experiments.randomized import run_defended_channel

            return canonical(run_defended_channel("alg1", defense="fifo"))
        from repro.analysis.leakage import analyze_policy

        return canonical(analyze_policy("lru", 4).to_dict())

    def batch(self, eng, mode):
        """Run the row's experiments in one runner; returns their bytes."""
        if mode == "killed":
            return self.killed_batch()
        ids = [
            name for name in EXPERIMENTS
            if (name, eng, mode, "in-process") not in COSTLY
        ]
        trace = str(self.tmp / f"{eng}-{mode}.jsonl")
        runner = ExperimentRunner(
            sanitize="sanitized" in mode,
            trace_path=trace if "traced" in mode else None,
        )
        jobs = 2 if "jobs2" in mode else 1
        report = runner.run_many(ids, jobs=jobs)
        assert report.ok, report.summary()
        assert [r.experiment_id for r in report.results] == ids
        if "traced" in mode:
            assert runner.write_trace(report, ids) == trace
            for result in report.results:
                capture = runner.captures[result.experiment_id]
                assert capture.manifest.engine == eng
                assert capture.metrics["counters"]
                block = experiment_block(
                    result, capture.manifest, capture.metrics
                )
                self.blocks.setdefault(result.experiment_id, set()).add(block)
        return {r.experiment_id: canonical(r) for r in report.results}

    def killed_batch(self):
        checkpoint = str(self.tmp / "batch.ckpt")
        first = ExperimentRunner(
            checkpoint_path=checkpoint,
            drain_timeout=0.0,
            heartbeat_interval=0.1,
        )

        def interrupt(result, elapsed):
            # Only while the executor's drain handler is installed.
            if first.executor is not None:
                os.kill(os.getpid(), signal.SIGINT)

        interrupted = first.run_many(EXPERIMENTS, jobs=2, on_result=interrupt)
        assert interrupted.interrupted
        done = sorted(r.experiment_id for r in interrupted.results)
        resumed = ExperimentRunner(checkpoint_path=checkpoint).run_many(
            EXPERIMENTS, jobs=2
        )
        assert resumed.ok, resumed.summary()
        assert done and sorted(resumed.resumed) == done
        return {r.experiment_id: canonical(r) for r in resumed.results}

    def trials(self, mode):
        if mode == "serial":
            return ExperimentRunner().run_trials("alg1", TRIALS).results
        if mode == "traced":
            runner = ExperimentRunner(trace_path=str(self.tmp / "trials.jsonl"))
            report = runner.run_trials("alg1", TRIALS, block_size=64)
            assert len(runner.captures) == 4
            return report.results
        checkpoint = str(self.tmp / "trials.ckpt")
        seen = []

        def die(result, elapsed):
            seen.append(result)
            if len(seen) == 2:
                raise Killed

        with pytest.raises(Killed):
            ExperimentRunner(checkpoint_path=checkpoint).run_trials(
                "alg1", TRIALS, block_size=64, on_result=die
            )
        report = ExperimentRunner(checkpoint_path=checkpoint).run_trials(
            "alg1", TRIALS, block_size=64
        )
        assert len(report.resumed) == 2
        return report.results

    # -- served ----------------------------------------------------------

    def served(self, name):
        """A long-lived server (stopped with :meth:`close`)."""
        if name not in self.servers:
            if name == "router":
                server = self.cluster()
            else:
                server = ServiceHarness(
                    ServiceConfig(cache_dir=self.cache_dir, drain_timeout=5.0)
                ).start()
            self.servers[name] = server
        return self.servers[name]

    def cluster(self):
        harness = ClusterHarness(
            node_count=2,
            registry=EXPERIMENT_REGISTRY,
            node_kwargs={"cache_dir": self.cache_dir},
            router_kwargs={"health_interval": 60.0},
        ).start()
        # Let the first health round finish: a ping caught by a kill
        # would hold the router's drain for its whole timeout.
        deadline = time.monotonic() + 10.0
        while not harness.router.health.rounds:
            assert time.monotonic() < deadline, "no health round"
            time.sleep(0.005)
        return harness

    def close(self):
        for server in self.servers.values():
            server.stop()

    def node(self, name, payload, eng, mode):
        if eng == "reference":
            self.get(name, "fast", mode, "node")
        # A second node on the same cache answers the reference row.
        with self.served(f"{eng} node").client(timeout=60.0) as client:
            response = client.roundtrip(payload)
        assert response["status"] == "ok", response
        if eng == "fast":
            assert response["source"] in ("pool", "analysis")
            self.cache_keys[name] = response["cache_key"]
        else:
            # The engine is not part of the cache key.
            assert response["source"] == "cache"
            assert response["cache_key"] == self.cache_keys[name]
        return canonical(response["result"])

    def router(self, name, payload, eng, mode):
        if mode == "serial":
            harness = self.served("router")
        else:
            # A fresh cluster per key, so that its preferred node dies.
            harness = self.cluster()
            request = parse_request(json.dumps(payload).encode())
            harness.kill_node(
                harness.router.ring.preference(routing_key(request))[0]
            )
        try:
            with harness.client(timeout=60.0) as client:
                response = client.roundtrip(payload)
        finally:
            if mode != "serial":
                harness.stop()
        assert response["status"] == "ok", response
        return canonical(response["result"])


@pytest.fixture(scope="module")
def cells(run, tmp_path_factory):
    cells = Cells(run, tmp_path_factory.mktemp("conformance"))
    yield cells
    cells.close()


MATRIX = [
    pytest.param(name, row, id=f"{name}-{'-'.join(row)}")
    for name, (kind, _) in KEYS.items()
    for row, kinds in ROWS.items()
    if kind in kinds and (name,) + row not in COSTLY
]


@pytest.mark.parametrize("name,row", MATRIX)
def test_cell_matches_the_baseline(cells, name, row):
    assert cells.get(name, *row) == cells.get(name, *BASELINE)


@pytest.mark.parametrize(
    "name",
    [
        name for name in EXPERIMENTS
        if (name, "reference", "traced+jobs2", "in-process") not in COSTLY
    ],
)
def test_experiment_block_is_the_same_under_either_engine(cells, name):
    for row in (
        ("fast", "traced+jobs2", "in-process"),
        ("reference", "traced+jobs2", "in-process"),
    ):
        cells.get(name, *row)
    assert len(cells.blocks[name]) == 1
