"""Table I's lockstep estimator: input checks, one pass per column, and
trial counts, seeds and word redraws the oracle file does not sample.

Every estimate is compared with the reference-``CacheSet`` oracle of
``test_table1_oracle.py``, bit for bit.
"""

import numpy as np
import pytest

from repro.common.errors import ConfigurationError
from repro.common.rng import make_rng, spawn_rng
from repro.experiments import table1
from repro.experiments.table1 import (
    ITERATIONS,
    POLICIES,
    eviction_probability,
)
from tests.test_experiments.test_table1_oracle import (
    _SetModel,
    oracle_eviction_probability,
)

@pytest.mark.parametrize(
    "change",
    [
        {"sequence": 3},
        {"condition": "bogus"},
        {"iterations": -2},
        {"trials": 0},
        {"policy": "nope"},
        {"policy": "srrip"},
        {"policy": "partitioned-plru"},
        {"policy": "tabled"},
    ],
)
def test_rejects_bad_input(change):
    call = dict(
        policy="tree-plru", sequence=1, condition="random", iterations=1,
        trials=10, rng=1,
    )
    call.update(change)
    with pytest.raises(ConfigurationError):
        eviction_probability(**call)


@pytest.mark.parametrize("condition", ["random", "sequential"])
@pytest.mark.parametrize("sequence", [1, 2])
@pytest.mark.parametrize("policy", POLICIES)
def test_curve_matches_single_calls(policy, sequence, condition):
    curve = table1._eviction_curve(
        policy, sequence, condition, ITERATIONS, 300, 3
    )
    assert curve == [
        eviction_probability(
            policy, sequence, condition, iterations, trials=300, rng=3
        )
        for iterations in ITERATIONS
    ]


def test_run_table1_makes_one_pass_per_column(monkeypatch):
    passes = []
    spawn_seeds = table1.spawn_seeds

    def counting(*args):
        passes.append(args)
        return spawn_seeds(*args)

    monkeypatch.setattr(table1, "spawn_seeds", counting)
    table1.run_table1(trials=5)
    assert len(passes) == 12  # 2 conditions x 3 policies x 2 sequences


def test_run_table1_draws_each_chunks_words_once(monkeypatch):
    # Every cell on one seed chunk reads a prefix of the same kept
    # words, whichever condition, policy or sequence comes first.
    from repro.common import rng as rng_module

    drawn = []
    draw_tops = rng_module._draw_tops

    def counting(seeds, count):
        drawn.append((tuple(seeds), count))
        return draw_tops(seeds, count)

    monkeypatch.setattr(rng_module, "_draw_tops", counting)
    with rng_module._TOPS_LOCK:
        rng_module._TOPS.clear()
    table1.run_table1(trials=1200, rng=17)
    chunks = [seeds for seeds, _ in drawn if len(seeds) > 100]
    assert [len(seeds) for seeds in chunks] == [500, 500, 200]
    assert {count for seeds, count in drawn if len(seeds) > 100} == {
        2 + table1._WARMUP_WORDS + 2 * 7 * ITERATIONS[-1]
    }


@pytest.mark.parametrize("trials", [1, 150, 501])
@pytest.mark.parametrize("policy", POLICIES)
def test_trial_counts_across_chunk_edges(policy, trials):
    assert table1._CHUNK < 501
    for condition in ("random", "sequential"):
        expected = oracle_eviction_probability(
            policy, 2, condition, 2, trials, 11
        )
        assert eviction_probability(
            policy, 2, condition, 2, trials=trials, rng=11
        ) == expected


@pytest.mark.parametrize("rng", [3, 99])
@pytest.mark.parametrize("condition", ["random", "sequential"])
@pytest.mark.parametrize("sequence", [1, 2])
@pytest.mark.parametrize("policy", POLICIES)
def test_matches_oracle_at_more_seeds(policy, sequence, condition, rng):
    expected = oracle_eviction_probability(
        policy, sequence, condition, 3, 150, rng
    )
    assert eviction_probability(
        policy, sequence, condition, 3, trials=150, rng=rng
    ) == expected


@pytest.mark.parametrize("sequence", [1, 2])
@pytest.mark.parametrize("policy", ["tree-plru", "random"])
def test_tiny_first_block_redraws_to_the_same_estimate(
    monkeypatch, policy, sequence
):
    expected = oracle_eviction_probability(
        policy, sequence, "random", 3, 150, 5
    )
    monkeypatch.setattr(table1, "_WARMUP_WORDS", 1)
    assert eviction_probability(
        policy, sequence, "random", 3, trials=150, rng=5
    ) == expected


@pytest.mark.parametrize("policy", POLICIES)
def test_kernels_match_reference_sets_on_random_streams(policy):
    # Table I's own streams leave LRU no choice (line 0 always goes), so
    # each kernel also runs random 12-line streams with random skips,
    # against one reference CacheSet per trial.
    trials, steps = 40, 80
    draw = np.random.default_rng(4)
    lines = draw.integers(0, 12, (trials, steps)).astype(np.int8)
    skips = draw.random((trials, steps)) < 0.2
    seeds = [100 + trial for trial in range(trials)]
    if policy == "lru":
        kernel = table1._LRU(trials)
    elif policy == "random":
        kernel = table1._Random(seeds, steps)
    else:
        kernel = table1._Tabled(table1._lockstep_table(policy), trials)
    slots = []
    for step in range(steps):
        slots += [(lines[:, step], skips[:, step]), None]
    models = [
        _SetModel(policy, spawn_rng(make_rng(seed), "policy")) for seed in seeds
    ]
    expected = []
    for step in range(steps):
        for trial, model in enumerate(models):
            if not skips[trial, step]:
                model.access(int(lines[trial, step]))
        expected.append(sum(model.contains(0) for model in models))
    assert table1._simulate(kernel, slots, trials) == expected
