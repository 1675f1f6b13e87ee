"""Batch-engine benchmarks: N-trial lockstep vs. the scalar fast engine.

Run with::

    pytest benchmarks/test_bench_batch.py --benchmark-only \
        --benchmark-json=benchmarks/BENCH_batch.json

Each pair times the same workload — ``TRIALS`` independent covert-channel
transfers of ``MESSAGE_LENGTH`` bits — two ways:

* ``batch``: one :class:`~repro.sim.batch.BatchEngine.run_transfer` call,
  every trial advanced in lockstep through the dense policy-table arrays;
* ``fast``: a Python loop of scalar transfers over
  :class:`~repro.sim.fastpath.FastSetAssociativeCache`, drawing message
  bits and timer noise from the *same* counter-based streams.

Because both sides consume identical per-trial streams they produce
bit-identical sent/decoded rows (asserted here, and exhaustively in
``tests/test_perf/test_engine_equivalence.py``), so the fast/batch mean
ratio in the emitted JSON is a pure engine speedup.
``scripts_check_bench_regression.py --min-batch-speedup`` polices it.
"""

import numpy as np

from repro.common.rng import spawn_streams, stream_bits, trial_streams
from repro.common.types import MemoryAccess
from repro.sim import INTEL_E5_2690
from repro.sim.batch import (
    BATCH_CHANNELS,
    CHAIN_LENGTH,
    BatchEngine,
    default_d,
)
from repro.sim.fastpath import FastSetAssociativeCache
from repro.timing.measurement import batch_observed_latency
from repro.timing.tsc import INTEL_TSC

#: Trials per timed round — wide enough that the lockstep arrays, not
#: per-call overhead, dominate the batch side.
TRIALS = 256

#: Bits per trial; short enough to keep the scalar side in seconds.
MESSAGE_LENGTH = 32

SEED = 2020


def run_batch(algorithm):
    engine = BatchEngine(algorithm=algorithm, seed=SEED)
    return engine.run_transfer(TRIALS, message_length=MESSAGE_LENGTH)


def scalar_transfer(algorithm, hierarchy, trial_index):
    """One scalar fast-engine transfer from the trial's own streams."""
    l1 = hierarchy.l1
    keys = trial_streams(SEED, 1, offset=trial_index)
    noise_keys = spawn_streams(keys, "tsc")
    sent = stream_bits(spawn_streams(keys, "message"), MESSAGE_LENGTH)[0]
    channel = BATCH_CHANNELS[algorithm].build(
        l1, target_set=1, d=default_d(algorithm, l1.ways)
    )
    cache = FastSetAssociativeCache(l1, rng=1)

    def access(address):
        probe = MemoryAccess(address=address)
        result = cache.lookup(probe, count=False)
        if not result.hit:
            cache.fill(probe)
        return result.hit

    hits, latencies = [], []
    for position in range(MESSAGE_LENGTH):
        for address in channel.init_addresses():
            access(address)
        for address in channel.sender_addresses(int(sent[position])):
            access(address)
        for address in channel.decode_addresses():
            access(address)
        hit = access(channel.probe_address)
        hits.append(bool(hit))
        latencies.append(
            float(
                batch_observed_latency(
                    np.array([hit]),
                    l1.hit_latency,
                    hierarchy.l2.hit_latency,
                    INTEL_TSC,
                    noise_keys,
                    position,
                    CHAIN_LENGTH,
                )[0]
            )
        )
    return [int(b) for b in sent], hits, latencies


def run_scalar(algorithm):
    hierarchy = INTEL_E5_2690.hierarchy
    return [
        scalar_transfer(algorithm, hierarchy, trial)
        for trial in range(TRIALS)
    ]


def bench_trials(benchmark, engine, algorithm):
    fn = run_batch if engine == "batch" else run_scalar
    benchmark.pedantic(fn, args=(algorithm,), rounds=5, iterations=1)
    benchmark.extra_info["engine"] = engine
    benchmark.extra_info["algorithm"] = algorithm
    benchmark.extra_info["trials"] = TRIALS
    benchmark.extra_info["message_length"] = MESSAGE_LENGTH
    # The two sides must stay bit-identical on the benchmarked workload
    # (trial 0 here; every width/policy combination in the test suite).
    transfer = run_batch(algorithm)
    sent, hits, latencies = scalar_transfer(
        algorithm, INTEL_E5_2690.hierarchy, 0
    )
    assert list(transfer.sent[0]) == sent
    assert list(transfer.probe_hits[0]) == hits
    np.testing.assert_allclose(transfer.latencies[0], latencies)


def test_bench_alg1_batch(benchmark):
    """Algorithm 1 (shared memory), 256 trials in lockstep."""
    bench_trials(benchmark, "batch", "alg1")


def test_bench_alg1_fast(benchmark):
    """Algorithm 1 (shared memory), 256 scalar fast-engine trials."""
    bench_trials(benchmark, "fast", "alg1")


def test_bench_alg2_batch(benchmark):
    """Algorithm 2 (no shared memory), 256 trials in lockstep."""
    bench_trials(benchmark, "batch", "alg2")


def test_bench_alg2_fast(benchmark):
    """Algorithm 2 (no shared memory), 256 scalar fast-engine trials."""
    bench_trials(benchmark, "fast", "alg2")

