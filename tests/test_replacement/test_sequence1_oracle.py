"""Differential oracle for the exhaustive Sequence-1 query.

``sequence1_worst_case`` runs Sequence 1 on a policy's closed
transition system, from every resting state of the compiled tables.
The oracle below shares none of that: it finds the resting states by a
breadth-first walk over *reference* policy snapshots, and runs the
sequence on a reference :class:`~repro.cache.cache_set.CacheSet` with a
linear tag scan and the valid-mask victim search.  Both must give the
same histogram of passes-until-eviction, pair for pair.
"""

import pytest

from repro.analysis.reachability import sequence1_worst_case
from repro.cache.cache_set import CacheSet
from repro.replacement import make_policy

MAX_ITERATIONS = 16


def _fill(policy, way):
    """A fill: FIFO/SRRIP split fills from hits via ``on_fill``."""
    getattr(policy, "on_fill", policy.touch)(way)


def _resting_snapshots(name, ways):
    """Snapshots a reference policy can rest in between accesses."""
    policy = make_policy(name, ways)
    start = policy.state_snapshot()
    moves = [(policy.touch, w) for w in range(ways)]
    moves += [(lambda w: _fill(policy, w), w) for w in range(ways)]
    # A miss: the victim search, then a fill of the chosen way.
    moves.append((lambda _: _fill(policy, policy.victim()), None))
    seen = {start}
    frontier = [start]
    while frontier:
        found = []
        for snapshot in frontier:
            for move, way in moves:
                policy.state_restore(snapshot)
                move(way)
                after = policy.state_snapshot()
                if after not in seen:
                    seen.add(after)
                    found.append(after)
        frontier = found
    return seen


def _passes_until_eviction(name, ways, snapshot, rotation):
    policy = make_policy(name, ways)
    policy.state_restore(snapshot)
    cache_set = CacheSet(ways, policy)
    for way in range(ways):
        line = (rotation + way) % ways
        cache_set.install(way, tag=line, address=line)
    for iteration in range(1, MAX_ITERATIONS + 1):
        for line in range(ways + 1):
            way = cache_set.lookup(line)
            if way is not None:
                cache_set.touch(way, is_fill=False)
                continue
            victim = cache_set.choose_victim()
            cache_set.install(victim, tag=line, address=line)
            cache_set.touch(victim, is_fill=True)
        if cache_set.lookup(0) is None:
            return iteration
    return MAX_ITERATIONS + 1


def oracle_histogram(name, ways):
    histogram = {}
    for snapshot in _resting_snapshots(name, ways):
        for rotation in range(ways):
            passes = _passes_until_eviction(name, ways, snapshot, rotation)
            histogram[passes] = histogram.get(passes, 0) + 1
    return dict(sorted(histogram.items()))


@pytest.mark.parametrize(
    "name", ["lru", "tree-plru", "bit-plru", "fifo", "srrip"]
)
def test_query_matches_reference_oracle(name):
    result = sequence1_worst_case(name, ways=4, max_iterations=MAX_ITERATIONS)
    assert result.histogram == oracle_histogram(name, 4)
    assert result.worst_iterations == max(result.histogram)


def test_srrip_counts_resting_states_only():
    """srrip@4's table core also interns mid-search (aged) snapshots;
    only the 197 resting ones start a pair."""
    from repro.replacement.tables import compile_tables

    assert compile_tables("srrip", 4).state_count == 255
    assert len(_resting_snapshots("srrip", 4)) == 197
    assert sequence1_worst_case("srrip", ways=4).states_checked == 197 * 4
