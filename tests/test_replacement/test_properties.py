"""Property-based tests: invariants every replacement policy must hold."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.replacement import (
    POLICY_REGISTRY,
    BitPLRU,
    FIFO,
    SRRIP,
    TreePLRU,
    TrueLRU,
    make_policy,
)

DETERMINISTIC_POLICIES = ["lru", "tree-plru", "bit-plru", "fifo", "srrip"]
ALL_POLICIES = DETERMINISTIC_POLICIES + ["random"]

WAYS = 8
touch_sequences = st.lists(
    st.integers(min_value=0, max_value=WAYS - 1), max_size=64
)


def build(name: str):
    kwargs = {"rng": 1} if name == "random" else {}
    return make_policy(name, WAYS, **kwargs)


@pytest.mark.parametrize("name", ALL_POLICIES)
class TestUniversalInvariants:
    @given(seq=touch_sequences)
    @settings(max_examples=40)
    def test_victim_in_range(self, name, seq):
        policy = build(name)
        for way in seq:
            policy.touch(way)
        assert 0 <= policy.victim() < WAYS

    @given(seq=touch_sequences)
    @settings(max_examples=40)
    def test_invalid_way_always_preferred(self, name, seq):
        policy = build(name)
        for way in seq:
            policy.touch(way)
        valid = [True] * WAYS
        valid[5] = False
        assert policy.victim(valid) == 5

    @given(seq=touch_sequences)
    @settings(max_examples=40)
    def test_lowest_invalid_way_wins(self, name, seq):
        policy = build(name)
        for way in seq:
            policy.touch(way)
        valid = [True, False, True, False, True, True, True, True]
        assert policy.victim(valid) == 1

    def test_registry_contains_policy(self, name):
        assert name in POLICY_REGISTRY


@pytest.mark.parametrize("name", DETERMINISTIC_POLICIES)
class TestDeterministicInvariants:
    @given(seq=touch_sequences)
    @settings(max_examples=40)
    def test_victim_is_pure(self, name, seq):
        """victim() must not mutate state for deterministic policies."""
        policy = build(name)
        for way in seq:
            policy.touch(way)
        first = policy.victim()
        assert policy.victim() == first

    @given(seq=touch_sequences)
    @settings(max_examples=40)
    def test_snapshot_restore_roundtrip(self, name, seq):
        policy = build(name)
        for way in seq:
            policy.touch(way)
        snap = policy.state_snapshot()
        victim = policy.victim()
        policy.touch((victim + 1) % WAYS)
        policy.state_restore(snap)
        assert policy.state_snapshot() == snap
        assert policy.victim() == victim

    @given(seq=touch_sequences)
    @settings(max_examples=40)
    def test_same_history_same_state(self, name, seq):
        a, b = build(name), build(name)
        for way in seq:
            a.touch(way)
            b.touch(way)
        assert a.state_snapshot() == b.state_snapshot()


@pytest.mark.parametrize("name", ["lru", "tree-plru", "bit-plru"])
class TestLRUFamilyInvariants:
    """Properties specific to the recency-tracking (leaking) policies."""

    @given(seq=st.lists(st.integers(min_value=0, max_value=WAYS - 1), min_size=1, max_size=32))
    @settings(max_examples=40)
    def test_just_touched_way_never_victim(self, name, seq):
        policy = build(name)
        for way in seq:
            policy.touch(way)
        if name == "bit-plru" and not any(policy.state_snapshot()):
            # The touch that sets the last MRU bit resets every bit, its
            # own included (paper Section II-B, see test_bit_plru.py's
            # test_saturation_resets_all_bits), so way 0 is the victim.
            assert policy.victim() == 0
        else:
            assert policy.victim() != seq[-1]

    @given(way=st.integers(min_value=0, max_value=WAYS - 1))
    @settings(max_examples=20)
    def test_hits_change_state(self, name, way):
        """The leaking transition: a *hit* updates the state (contrast
        with FIFO, where it does not)."""
        policy = build(name)
        for w in range(WAYS):
            policy.touch(w)
        before = policy.state_snapshot()
        policy.touch(way)
        # Either the state changed, or the way was already the most
        # recently used (touching it again is idempotent).
        if way != WAYS - 1:
            assert policy.state_snapshot() != before


class TestLRUvsPLRUDivergence:
    def test_plru_approximates_lru(self):
        """Quantify Table I's root cause: Tree-PLRU disagrees with true
        LRU on a noticeable fraction of random histories."""
        import random

        rng = random.Random(9)
        disagreements = 0
        trials = 300
        for _ in range(trials):
            lru, tree = TrueLRU(WAYS), TreePLRU(WAYS)
            for _ in range(24):
                way = rng.randrange(WAYS)
                lru.touch(way)
                tree.touch(way)
            if lru.victim() != tree.victim():
                disagreements += 1
        assert 0.2 < disagreements / trials < 0.95

    def test_fifo_ignores_reuse_lru_does_not(self):
        lru, fifo = TrueLRU(4), FIFO(4)
        for way in range(4):
            lru.touch(way)
            fifo.on_fill(way)
        # Reuse way 0 heavily: LRU protects it, FIFO doesn't care.
        for _ in range(3):
            lru.touch(0)
            fifo.touch(0)
        assert lru.victim() == 1
        assert fifo.victim() == 0
