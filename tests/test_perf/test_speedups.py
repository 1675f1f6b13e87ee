"""Wall-clock bounds on the fast engine and the supervised executor.

Each test times two implementations of one workload on the same host
and bounds their ratio, so the bound means the same on any machine.
Both sides run over identical inputs and must agree bit for bit.  Each
round times the two sides back to back, in alternating order, with the
garbage collector off, and the test bounds the median of the per-round
ratios.  A shared host's speed can change by nearly 2x from one moment
to the next; timing both sides within one round compares them at one
speed, and the median ignores the rounds a speed change split.

The bounds are the ones the engines were accepted with:

* fast engine over reference on the paper's channel access loops: at
  least 2x, and at least 75% of the ratio measured when the engine
  landed (4.82x for Algorithm 1, 4.00x for Algorithm 2);
* the supervised executor's wall time on a fault-free batch over a bare
  ``multiprocessing.Pool``'s: at most the larger of 1.10 and 125% of
  the landing ratio (1.085).
"""

import gc
import multiprocessing
import statistics
import time

import pytest

from repro.cache.cache import SetAssociativeCache
from repro.channels import NoSharedMemoryLRUChannel, SharedMemoryLRUChannel
from repro.common.rng import make_rng
from repro.common.types import MemoryAccess
from repro.experiments.supervisor import SupervisedExecutor
from repro.sim import INTEL_E5_2690
from repro.sim.fastpath import FastSetAssociativeCache

#: Allowed fractional loss against a landing ratio.
TOLERANCE = 0.25


def median_ratio(numerator, denominator, rounds):
    """Median over rounds of numerator's wall time / denominator's."""
    ratios = []
    gc.disable()
    try:
        for round_index in range(rounds):
            pair = [numerator, denominator]
            if round_index % 2:
                pair.reverse()
            seconds = {}
            for fn in pair:
                start = time.perf_counter()
                fn()
                seconds[fn] = time.perf_counter() - start
            ratios.append(seconds[numerator] / seconds[denominator])
    finally:
        gc.enable()
    return statistics.median(ratios)


# -- fast engine vs reference -------------------------------------------

#: Protocol passes per timed round, and rounds.  The ratio is per
#: access, so short rounds cost nothing in accuracy, and many of them
#: make the median steady.
PASSES = 20
ROUNDS = 25

#: Message driven through the channel on each pass.
MESSAGE = [1, 0, 1, 1, 0, 0, 1, 0]


def build_cache(cache_cls):
    return cache_cls(INTEL_E5_2690.hierarchy.l1, rng=7)


def channel_accesses(channel):
    """One protocol pass as prebuilt accesses (init, encode, decode)."""
    addresses = []
    for bit in MESSAGE:
        addresses.extend(channel.init_addresses())
        addresses.extend(channel.sender_addresses(bit))
        addresses.extend(channel.decode_addresses())
        addresses.append(channel.probe_address)
    return [MemoryAccess(address=address) for address in addresses]


def access_loop(cache, accesses):
    """The simulator's inner loop: lookup, fill on miss."""
    lookup = cache.lookup
    fill = cache.fill
    for _ in range(PASSES):
        for access in accesses:
            if not lookup(access).hit:
                fill(access)


def drive_once(cache, accesses):
    """Observable trace of one pass."""
    return [cache.lookup(access).hit or cache.fill(access) for access in accesses]


@pytest.mark.parametrize(
    "channel_cls, landed",
    [(SharedMemoryLRUChannel, 4.82), (NoSharedMemoryLRUChannel, 4.00)],
    ids=["alg1", "alg2"],
)
def test_fast_engine_speedup(channel_cls, landed):
    channel = channel_cls.build(INTEL_E5_2690.hierarchy.l1, target_set=1)
    accesses = channel_accesses(channel)
    assert drive_once(build_cache(SetAssociativeCache), accesses) == (
        drive_once(build_cache(FastSetAssociativeCache), accesses)
    )
    reference = build_cache(SetAssociativeCache)
    fast = build_cache(FastSetAssociativeCache)
    speedup = median_ratio(
        lambda: access_loop(reference, accesses),
        lambda: access_loop(fast, accesses),
        ROUNDS,
    )
    floor = max(2.0, (1.0 - TOLERANCE) * landed)
    assert speedup >= floor, f"fast engine {speedup:.2f}x < {floor:.2f}x"


# -- supervised executor vs bare Pool -----------------------------------

#: Tasks per batch and workers per executor: long enough that compute
#: dominates, short enough that per-task dispatch still registers.
TASKS = 8
JOBS = 2

#: Cache accesses per task, over a working set of a few L1 footprints.
ACCESSES = 8000
WORKING_SET_LINES = 2048


def batch_task(index):
    """One batch unit: a seeded access sweep against a fresh L1 model."""
    cache = SetAssociativeCache(INTEL_E5_2690.hierarchy.l1, rng=index)
    rng = make_rng(1000 + index)
    hits = 0
    for _ in range(ACCESSES):
        access = MemoryAccess(address=rng.randrange(WORKING_SET_LINES) * 64)
        if cache.lookup(access).hit:
            hits += 1
        else:
            cache.fill(access)
    return (index, hits)


def run_pool():
    with multiprocessing.Pool(JOBS) as pool:  # repro: allow(no-bare-pool)
        return sorted(pool.map(batch_task, range(TASKS)))


def run_supervised():
    records = []
    executor = SupervisedExecutor(
        batch_task, jobs=JOBS, heartbeat_interval=0.2, poll_interval=0.01
    )
    outcome = executor.run(
        [(f"task{i:02d}", i) for i in range(TASKS)], records.append
    )
    assert outcome.stats.clean, outcome.stats.to_dict()
    assert not outcome.unfinished and not outcome.interrupted
    return sorted(records)


def test_supervised_executor_overhead():
    serial = sorted(batch_task(i) for i in range(TASKS))

    def checked(run):
        def timed():
            assert run() == serial
        return timed

    ratio = median_ratio(checked(run_supervised), checked(run_pool), 3)
    ceiling = max(1.10, (1.0 + TOLERANCE) * 1.085)
    assert ratio <= ceiling, f"supervised/pool {ratio:.2f}x > {ceiling:.2f}x"
