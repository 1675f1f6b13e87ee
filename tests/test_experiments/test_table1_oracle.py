"""Differential oracle for Table I's Monte Carlo loop.

``eviction_probability`` simulates each trial's line stream on a
``line -> way`` map, over compiled policy tables where the 8-way state
space closes.  The oracle below is the original model: a reference
:class:`~repro.cache.cache_set.CacheSet` with a linear tag scan, a
valid mask per miss and the reference policy, drawing the trial's
randomness access by access.  Both must give the same estimate for the
same seed, bit for bit.
"""

import pytest

from repro.cache.cache_set import CacheSet
from repro.common.rng import make_rng, spawn_rng
from repro.experiments import table1
from repro.experiments.table1 import LINE_X, WAYS, eviction_probability
from repro.replacement import make_policy
from repro.replacement.tables import (
    _CALL_CACHE,
    _TABLE_CACHE,
    clear_table_cache,
)


class _SetModel:
    """A single 8-way set tracking which logical line occupies which way."""

    def __init__(self, policy_name: str, rng):
        policy = make_policy(
            policy_name, WAYS, **({"rng": rng} if policy_name == "random" else {})
        )
        self.set = CacheSet(WAYS, policy)

    def access(self, line: int) -> None:
        """Access a logical line: hit updates state, miss replaces."""
        way = self.set.lookup(line)
        if way is not None:
            self.set.touch(way, is_fill=False)
            return
        victim = self.set.choose_victim()
        self.set.install(victim, tag=line, address=line)
        self.set.touch(victim, is_fill=True)

    def contains(self, line: int) -> bool:
        return self.set.lookup(line) is not None


def _warmup(model: _SetModel, condition: str, rng) -> None:
    """Establish the paper's 'random' or 'sequential' initial condition."""
    if condition == "random":
        lines = list(range(8)) + [LINE_X]
        for _ in range(32):
            model.access(rng.choice(lines))
        model.access(0)
    else:
        for _ in range(2):
            for line in range(8):
                model.access(line)
                if rng.random() < 0.5:
                    model.access(LINE_X)


def _run_sequence(model: _SetModel, sequence: int, rng) -> None:
    """One loop iteration of Sequence 1 or Sequence 2."""
    if sequence == 1:
        for line in range(9):
            model.access(line)
    else:
        inserted = False
        for line in range(8):
            model.access(line)
            if line < 7 and rng.random() < 0.5:
                model.access(LINE_X)
                inserted = True
        if not inserted:
            model.access(LINE_X)


def oracle_eviction_probability(
    policy, sequence, condition, iterations, trials, rng
) -> float:
    master = make_rng(rng)
    evicted = 0
    for _ in range(trials):
        trial_rng = spawn_rng(master, "trial")
        model = _SetModel(policy, spawn_rng(trial_rng, "policy"))
        _warmup(model, condition, trial_rng)
        for _ in range(iterations):
            _run_sequence(model, sequence, trial_rng)
        if not model.contains(0):
            evicted += 1
    return evicted / trials


TRIALS = 150


@pytest.mark.parametrize("iterations", [1, 3, 8])
@pytest.mark.parametrize("condition", ["random", "sequential"])
@pytest.mark.parametrize("sequence", [1, 2])
@pytest.mark.parametrize(
    "policy", ["lru", "tree-plru", "bit-plru", "fifo", "random"]
)
def test_matches_reference_cache_set(policy, sequence, condition, iterations):
    for rng in (1, 7):
        expected = oracle_eviction_probability(
            policy, sequence, condition, iterations, TRIALS, rng
        )
        ours = eviction_probability(
            policy, sequence, condition, iterations, trials=TRIALS, rng=rng
        )
        assert ours == expected, (policy, sequence, condition, iterations, rng)


def test_matches_after_table_cache_clear():
    clear_table_cache()
    expected = oracle_eviction_probability("tree-plru", 2, "random", 3, TRIALS, 5)
    assert eviction_probability(
        "tree-plru", 2, "random", 3, trials=TRIALS, rng=5
    ) == expected


def test_lru_is_not_compiled():
    # 8-way true LRU has 8! states; compiling it lazily would intern tens
    # of thousands of them for Table I's cells.
    clear_table_cache()
    eviction_probability("lru", 1, "random", 2, trials=20, rng=1)
    assert not any(key[0] == "lru" for key in _TABLE_CACHE)
    assert not any(key[0] == "lru" for key in _CALL_CACHE)


def test_run_table1_builds_no_lru_tables():
    clear_table_cache()
    table1.run_table1(trials=5)
    assert {key[0] for key in _TABLE_CACHE} == {"tree-plru", "bit-plru"}
