"""Mutation tests: deliberately corrupt simulator state and assert the
sanitizer fires, with the right invariant id, set, and way."""

from types import SimpleNamespace

import pytest

from repro.analysis.proxies import SanitizingPolicy, sanitize_cache_set
from repro.analysis.sanitize import (
    enable_sanitize,
    sanitize_enabled,
    sanitize_scheduler,
    scoped_sanitize,
)
from repro.cache.cache_set import CacheSet
from repro.common.errors import InvariantViolation
from repro.faults import InterruptBurstFault
from repro.replacement import make_policy
from repro.sim.fastpath import FastCacheSet
from repro.sim.machine import Machine
from repro.sim.ops import Access, Compute, ReadTSC, SleepUntil
from repro.sim.specs import INTEL_E5_2690
from repro.sim.thread import SimThread

WAYS = 8


def _wrapped(name, **kwargs):
    return SanitizingPolicy(
        make_policy(name, WAYS, **kwargs), set_index=3, label="L1D"
    )


class TestPolicyMutations:
    def test_true_lru_duplicate_age_fires(self):
        policy = _wrapped("lru")
        policy.inner._stack[0] = policy.inner._stack[1]
        with pytest.raises(InvariantViolation) as excinfo:
            policy.victim()
        violation = excinfo.value
        assert violation.invariant == "true-lru-permutation"
        assert violation.set_index == 3
        assert "L1D[set 3]" in str(violation)

    def test_tree_plru_non_bit_node_fires(self):
        policy = _wrapped("tree-plru")
        # Node 5 is not on the touch(0) update path (leaf 8 -> 4, 2, 1),
        # so the corruption survives the touch and the check sees it.
        policy.inner._bits[5] = 7
        with pytest.raises(InvariantViolation) as excinfo:
            policy.touch(0)
        assert excinfo.value.invariant == "tree-plru-bits"
        assert "node 5" in str(excinfo.value)

    def test_bit_plru_non_bit_fires_with_way(self):
        policy = _wrapped("bit-plru")
        policy.inner._mru[2] = 5
        with pytest.raises(InvariantViolation) as excinfo:
            policy.victim()
        assert excinfo.value.invariant == "bit-plru-bits"
        assert excinfo.value.way == 2

    def test_bit_plru_lost_saturation_reset_fires(self):
        policy = _wrapped("bit-plru")
        policy.inner._mru = [1] * (WAYS - 1) + [0]
        # A buggy touch that drops the hardware saturation reset.
        policy.inner.touch = lambda way: policy.inner._mru.__setitem__(way, 1)
        with pytest.raises(InvariantViolation) as excinfo:
            policy.touch(WAYS - 1)
        assert excinfo.value.invariant == "bit-plru-saturation"

    def test_srrip_out_of_range_rrpv_fires(self):
        policy = _wrapped("srrip")
        policy.inner._rrpv[1] = 99
        with pytest.raises(InvariantViolation) as excinfo:
            policy.touch(0)
        assert excinfo.value.invariant == "srrip-rrpv-range"
        assert excinfo.value.way == 1

    def test_fifo_pointer_out_of_range_fires(self):
        policy = _wrapped("fifo")
        policy.inner._next_victim = WAYS + 4
        with pytest.raises(InvariantViolation) as excinfo:
            policy.touch(0)
        assert excinfo.value.invariant == "fifo-pointer-range"

    def test_victim_out_of_range_fires(self):
        policy = _wrapped("lru")
        policy.inner.victim = lambda valid=None: WAYS + 1
        with pytest.raises(InvariantViolation) as excinfo:
            policy.victim()
        assert excinfo.value.invariant == "victim-range"

    def test_victim_skipping_invalid_way_fires(self):
        policy = _wrapped("lru")
        policy.inner.victim = lambda valid=None: 3
        valid = [True, False, True, True, True, True, True, True]
        with pytest.raises(InvariantViolation) as excinfo:
            policy.victim(valid)
        violation = excinfo.value
        assert violation.invariant == "invalid-way-first"
        assert violation.way == 3
        assert "way 1 is invalid" in str(violation)

    def test_partitioned_domain_tree_corruption_fires(self):
        policy = _wrapped("partitioned-plru", domain_ways={0: 4, 1: 4})
        policy.inner._trees[1]._bits[3] = 9
        with pytest.raises(InvariantViolation) as excinfo:
            policy.touch(0)  # touches domain 0; domain 1 stays corrupt
        assert excinfo.value.invariant == "tree-plru-bits"
        assert "domain 1" in str(excinfo.value)

    def test_violation_carries_access_trace_tail(self):
        policy = _wrapped("lru")
        for way in range(WAYS):
            policy.touch(way)
        policy.inner._stack[0] = policy.inner._stack[1]
        with pytest.raises(InvariantViolation) as excinfo:
            policy.victim()
        violation = excinfo.value
        assert len(violation.trace) > 0
        assert any("touch(way=7)" in event for event in violation.trace)
        assert "trace tail" in str(violation)


class TestCacheSetMutations:
    def _sanitized_set(self):
        cache_set = CacheSet(4, make_policy("tree-plru", 4))
        return sanitize_cache_set(cache_set, set_index=5, label="L1D")

    def test_locked_line_eviction_fires(self):
        cache_set = self._sanitized_set()
        cache_set.install(0, 0x10, 0x1000)
        cache_set.lines[0].locked = True
        with pytest.raises(InvariantViolation) as excinfo:
            cache_set.install(0, 0x20, 0x2000)
        violation = excinfo.value
        assert violation.invariant == "pl-lock-eviction"
        assert violation.set_index == 5
        assert violation.way == 0

    def test_duplicate_resident_tag_fires(self):
        cache_set = self._sanitized_set()
        cache_set.install(0, 0x10, 0x1000)
        with pytest.raises(InvariantViolation) as excinfo:
            cache_set.install(1, 0x10, 0x1000)
        assert excinfo.value.invariant == "duplicate-tag"

    def test_healthy_install_evict_cycle_is_silent(self):
        cache_set = self._sanitized_set()
        for n in range(12):
            way = cache_set.choose_victim()
            cache_set.install(way, 0x100 + n, 0x10000 + n * 64)
            cache_set.touch(way, is_fill=True)

    def test_fast_set_installs_are_checked(self):
        cache_set = sanitize_cache_set(
            FastCacheSet(4, make_policy("tree-plru", 4)), set_index=2
        )
        assert isinstance(cache_set, FastCacheSet)
        cache_set.install(0, 0x10, 0x1000)
        assert cache_set.lookup(0x10) == 0
        with pytest.raises(InvariantViolation) as excinfo:
            cache_set.install(1, 0x10, 0x1000)
        assert excinfo.value.invariant == "duplicate-tag"
        assert excinfo.value.set_index == 2

    def test_sanitize_cache_set_is_idempotent(self):
        cache_set = self._sanitized_set()
        policy = cache_set.policy
        sanitize_cache_set(cache_set, set_index=5, label="L1D")
        assert cache_set.policy is policy


class TestSchedulerMutations:
    def _fake_scheduler(self, cost):
        return SimpleNamespace(
            _execute=lambda thread, op, now: cost,
            run=lambda *args, **kwargs: None,
        )

    def test_negative_cycle_charge_fires(self):
        scheduler = sanitize_scheduler(self._fake_scheduler(-5.0))
        thread = SimpleNamespace(name="sender")
        with pytest.raises(InvariantViolation) as excinfo:
            scheduler._execute(thread, "load", 100.0)
        assert excinfo.value.invariant == "negative-cycle-charge"

    def test_backwards_cycle_charge_fires(self):
        scheduler = sanitize_scheduler(self._fake_scheduler(1.0))
        thread = SimpleNamespace(name="sender")
        scheduler._execute(thread, "load", 100.0)
        with pytest.raises(InvariantViolation) as excinfo:
            scheduler._execute(thread, "load", 50.0)
        assert excinfo.value.invariant == "cycle-monotonicity"

    def test_monotonicity_resets_between_runs(self):
        scheduler = sanitize_scheduler(self._fake_scheduler(1.0))
        thread = SimpleNamespace(name="sender")
        scheduler._execute(thread, "load", 100.0)
        scheduler.run()  # threads restart at cycle 0 for the next run
        scheduler._execute(thread, "load", 0.0)


class TestRealSchedulerSeam:
    """The real HT scheduler routes every op through the instance seam."""

    def test_every_issued_op_passes_checked_execute(self):
        machine = Machine(
            INTEL_E5_2690,
            rng=3,
            sanitize=True,
            faults=[InterruptBurstFault(rate_per_mcycle=500.0)],
        )
        issued = []

        def program(name, rounds):
            def run():
                for i in range(rounds):
                    issued.append(name)
                    t = yield ReadTSC()
                    issued.append(name)
                    yield Access(64 * (i % 9))
                    issued.append(name)
                    yield Compute(15.0)
                    issued.append(name)
                    yield SleepUntil(t + 120.0)

            return run

        threads = [
            SimThread("a", program("a", 40), thread_id=0),
            SimThread("b", program("b", 25), thread_id=1),
        ]
        scheduler = machine.hyper_threaded(threads)
        checked = scheduler._execute
        assert checked.__name__ == "checked_execute"
        seen = []

        def counting_execute(thread, op, now):
            seen.append(thread.name)
            return checked(thread, op, now)

        scheduler._execute = counting_execute
        scheduler.run()
        assert len(issued) == 4 * (40 + 25)
        assert sorted(seen) == sorted(issued)


    def test_every_time_sliced_op_passes_checked_execute(self):
        machine = Machine(
            INTEL_E5_2690,
            rng=3,
            sanitize=True,
            faults=[InterruptBurstFault(rate_per_mcycle=500.0)],
        )
        issued = []

        def program(name, rounds):
            def run():
                for i in range(rounds):
                    issued.append(name)
                    t = yield ReadTSC()
                    issued.append(name)
                    yield Access(64 * (i % 9))
                    issued.append(name)
                    yield Compute(15.0)
                    if i % 5 == 4:
                        yield None  # ends the slice; not an op
                    issued.append(name)
                    yield SleepUntil(t + 120.0)

            return run

        threads = [
            SimThread("a", program("a", 40), thread_id=0),
            SimThread("b", program("b", 25), thread_id=1),
        ]
        scheduler = machine.time_sliced(threads, quantum=300.0, switch_cost=20.0)
        checked = scheduler._execute
        assert checked.__name__ == "checked_execute"
        seen = []

        def counting_execute(thread, op, now):
            seen.append(thread.name)
            return checked(thread, op, now)

        scheduler._execute = counting_execute
        scheduler.run(until_cycle=1e9)
        assert not any(thread.alive for thread in threads)
        assert len(issued) == 4 * (40 + 25)
        assert sorted(seen) == sorted(issued)


class TestSanitizeFlag:
    def test_scoped_sanitize_restores_previous_state(self):
        assert not sanitize_enabled()
        with scoped_sanitize():
            assert sanitize_enabled()
        assert not sanitize_enabled()

    def test_enable_disable_round_trip(self):
        enable_sanitize()
        try:
            assert sanitize_enabled()
        finally:
            enable_sanitize(False)
        assert not sanitize_enabled()
