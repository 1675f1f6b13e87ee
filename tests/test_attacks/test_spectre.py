"""Tests for the Spectre v1 model and its disclosure channels."""

import pytest

from repro.attacks.branch_predictor import TwoBitPredictor
from repro.attacks.spectre import (
    CHAIN_SET,
    TRAINING_VALUE,
    SpectreConfig,
    SpectreV1,
)
from repro.cache.prefetcher import StridePrefetcher
from repro.common.errors import ProtocolError
from repro.sim.machine import Machine
from repro.sim.specs import INTEL_E5_2690

SECRET = [7, 42, 13]


def make_attack(disclosure="lru_alg1", rng=9, machine=None, **config_kw):
    machine = machine or Machine(INTEL_E5_2690, rng=5)
    config = SpectreConfig(rounds=3, **config_kw)
    return machine, SpectreV1(
        machine, SECRET, disclosure=disclosure, config=config, rng=rng
    )


class TestBranchPredictor:
    def test_initial_weakly_not_taken(self):
        assert not TwoBitPredictor(initial=1).predict(1)

    def test_training_to_taken(self):
        predictor = TwoBitPredictor()
        for _ in range(2):
            predictor.update(1, taken=True)
        assert predictor.predict(1)

    def test_single_mispredict_does_not_flip_strong(self):
        predictor = TwoBitPredictor()
        for _ in range(4):
            predictor.update(1, taken=True)
        predictor.update(1, taken=False)
        assert predictor.predict(1)

    def test_per_branch_state(self):
        predictor = TwoBitPredictor()
        predictor.update(1, True)
        predictor.update(1, True)
        assert predictor.predict(1)
        assert not predictor.predict(2)

    def test_invalid_initial(self):
        with pytest.raises(ValueError):
            TwoBitPredictor(initial=4)

    def test_reset(self):
        predictor = TwoBitPredictor()
        predictor.update(1, True)
        predictor.update(1, True)
        predictor.reset()
        assert not predictor.predict(1)


class TestSpectreValidation:
    def test_secret_range_checked(self):
        machine = Machine(INTEL_E5_2690, rng=1)
        with pytest.raises(ProtocolError):
            SpectreV1(machine, [64], rng=1)

    def test_reserved_values_rejected(self):
        machine = Machine(INTEL_E5_2690, rng=1)
        with pytest.raises(ProtocolError):
            SpectreV1(machine, [CHAIN_SET], rng=1)
        with pytest.raises(ProtocolError):
            SpectreV1(machine, [TRAINING_VALUE], rng=1)

    def test_unknown_disclosure(self):
        machine = Machine(INTEL_E5_2690, rng=1)
        with pytest.raises(ProtocolError):
            SpectreV1(machine, SECRET, disclosure="evict_time", rng=1)


@pytest.mark.parametrize(
    "disclosure", ["flush_reload", "flush_reload_l1", "lru_alg1", "lru_alg2"]
)
class TestSpectreRecovery:
    def test_recovers_secret(self, disclosure):
        _, attack = make_attack(disclosure)
        result = attack.recover()
        assert result.recovered == SECRET

    def test_scores_favor_secret(self, disclosure):
        _, attack = make_attack(disclosure)
        result = attack.recover()
        for index, scores in enumerate(result.scores):
            best = max(scores.items(), key=lambda kv: kv[1])
            assert best[0] == SECRET[index]


class TestSpeculationWindow:
    def test_lru_survives_tiny_window(self):
        _, attack = make_attack("lru_alg1", speculation_window=30)
        assert attack.recover().accuracy(SECRET) == 1.0

    def test_flush_reload_needs_wide_window(self):
        """Table V's consequence: the miss-based disclosure needs the
        full memory round-trip inside the window."""
        for window in (30, 100):
            _, attack = make_attack("flush_reload", speculation_window=window)
            assert attack.recover().accuracy(SECRET) < 1.0, window

    def test_flush_reload_works_with_wide_window(self):
        _, attack = make_attack("flush_reload", speculation_window=450)
        assert attack.recover().accuracy(SECRET) == 1.0

    def test_no_transient_execution_without_training(self):
        machine = Machine(INTEL_E5_2690, rng=5)
        attack = SpectreV1(
            machine, SECRET, disclosure="lru_alg1",
            config=SpectreConfig(rounds=3, train_calls=0), rng=9,
        )
        # Predictor never trained: the malicious call is predicted
        # not-taken and nothing leaks.
        result = attack.recover()
        assert result.recovered != SECRET


class TestVictimModel:
    def test_in_bounds_call_touches_training_line(self):
        machine, attack = make_attack()
        attack.victim_call(0)
        assert machine.hierarchy.l1.probe(
            attack._probe_address(TRAINING_VALUE)
        )

    def test_out_of_bounds_untrained_no_access(self):
        machine, attack = make_attack()
        attack.victim_call(attack.array1_size + 0)  # predictor cold
        assert not machine.hierarchy.l1.probe(attack._probe_address(SECRET[0]))

    def test_out_of_bounds_trained_touches_secret_line(self):
        machine, attack = make_attack()
        for i in range(4):
            attack.victim_call(i % attack.array1_size)
        # Warm the secret so it resolves within the window.
        attack.victim_call(attack.array1_size + 0)
        attack.victim_call(attack.array1_size + 0)
        assert machine.hierarchy.l1.probe(attack._probe_address(SECRET[0]))


class TestPrefetcherNoise:
    def test_recovery_despite_prefetcher(self):
        """Appendix C: random per-round orders average the prefetcher
        pollution away."""
        machine = Machine(
            INTEL_E5_2690, rng=5, prefetcher=StridePrefetcher(degree=2)
        )
        attack = SpectreV1(
            machine, SECRET, disclosure="lru_alg1",
            config=SpectreConfig(rounds=5), rng=9,
        )
        assert attack.recover().accuracy(SECRET) >= 2 / 3
