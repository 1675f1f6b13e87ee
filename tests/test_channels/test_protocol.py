"""Tests for the Algorithm 3 covert-channel protocol."""

import random

import pytest

from repro.channels.algorithm1 import SharedMemoryLRUChannel
from repro.channels.algorithm2 import NoSharedMemoryLRUChannel
from repro.channels.decoder import percent_ones, sample_bits
from repro.channels.protocol import CovertChannelProtocol, ProtocolConfig
from repro.common.errors import ProtocolError
from repro.sim.machine import Machine
from repro.sim.specs import INTEL_E5_2690


def trim_to_active_window(run, ts):
    """Drop observations taken after the sender's last bit ended."""
    if run.bit_boundaries:
        end = run.bit_boundaries[-1] + ts
        run.observations = [o for o in run.observations if o.timestamp <= end]
    return run


def make_protocol(algorithm=1, d=8, ts=6000.0, tr=600.0, rng=42, **kw):
    machine = Machine(INTEL_E5_2690, rng=rng)
    if algorithm == 1:
        channel = SharedMemoryLRUChannel.build(
            machine.spec.hierarchy.l1, 1, d=d
        )
    else:
        channel = NoSharedMemoryLRUChannel.build(
            machine.spec.hierarchy.l1, 1, d=d
        )
    return CovertChannelProtocol(
        machine, channel, ProtocolConfig(ts=ts, tr=tr, **kw)
    )


class TestProtocolConfig:
    def test_validation(self):
        with pytest.raises(ProtocolError):
            ProtocolConfig(ts=0)
        with pytest.raises(ProtocolError):
            ProtocolConfig(tr=-1)
        with pytest.raises(ProtocolError):
            ProtocolConfig(chain_length=0)
        with pytest.raises(ProtocolError):
            ProtocolConfig(chain_set=-1)
        with pytest.raises(ProtocolError):
            ProtocolConfig(noise_events_per_mcycle=-0.5)

    def test_validate_for_target_flags_collision(self):
        config = ProtocolConfig(chain_set=3)
        config.validate_for_target(5)  # distinct sets are fine
        with pytest.raises(ProtocolError, match="chain_set 3"):
            config.validate_for_target(3)

    def test_samples_per_bit(self):
        assert ProtocolConfig(ts=6000, tr=600).samples_per_bit == 10.0

    def test_chain_must_avoid_target_set(self):
        machine = Machine(INTEL_E5_2690, rng=1)
        channel = SharedMemoryLRUChannel.build(
            machine.spec.hierarchy.l1, 0, d=8  # target set 0 = chain set
        )
        with pytest.raises(ProtocolError):
            CovertChannelProtocol(machine, channel, ProtocolConfig())

    def test_default_config_is_fresh_per_protocol(self):
        machine = Machine(INTEL_E5_2690, rng=1)
        channel = SharedMemoryLRUChannel.build(machine.spec.hierarchy.l1, 1)
        first = CovertChannelProtocol(machine, channel)
        second = CovertChannelProtocol(machine, channel)
        assert first.config == ProtocolConfig()
        assert first.config is not second.config
        first.config.tr = 1234.0
        assert second.config.tr == ProtocolConfig().tr


class TestHyperThreadedRun:
    def test_observation_count_covers_message(self):
        protocol = make_protocol()
        run = protocol.run_hyper_threaded([0, 1] * 5)
        assert len(run.observations) >= 10 * 10  # >= samples_per_bit * bits

    def test_bit_boundaries_recorded(self):
        protocol = make_protocol()
        run = protocol.run_hyper_threaded([1, 0, 1])
        assert len(run.bit_boundaries) == 3
        assert run.bit_boundaries == sorted(run.bit_boundaries)
        # Boundaries spaced ~Ts apart.
        gaps = [
            b - a for a, b in zip(run.bit_boundaries, run.bit_boundaries[1:])
        ]
        assert all(5500 < g < 7500 for g in gaps)

    def test_alternating_bits_visible(self):
        protocol = make_protocol()
        run = protocol.run_hyper_threaded([0, 1] * 8)
        bits = sample_bits(run)
        ones = sum(bits)
        # Roughly half the samples decode as 1.
        assert 0.3 < ones / len(bits) < 0.7

    def test_all_ones_message(self):
        protocol = make_protocol()
        run = trim_to_active_window(protocol.run_hyper_threaded([1] * 8), 6000)
        assert percent_ones(run) > 0.8

    def test_all_zeros_message(self):
        protocol = make_protocol()
        run = trim_to_active_window(protocol.run_hyper_threaded([0] * 8), 6000)
        assert percent_ones(run) < 0.2

    def test_invalid_bits_rejected(self):
        protocol = make_protocol()
        with pytest.raises(ProtocolError):
            protocol.run_hyper_threaded([0, 2])

    def test_observations_timestamped_monotonically(self):
        protocol = make_protocol()
        run = protocol.run_hyper_threaded([1, 0] * 4)
        stamps = [o.timestamp for o in run.observations]
        assert stamps == sorted(stamps)

    def test_algorithm2_polarity(self):
        protocol = make_protocol(algorithm=2, d=5)
        run = trim_to_active_window(protocol.run_hyper_threaded([1] * 8), 6000)
        assert not run.hit_means_one
        assert percent_ones(run) > 0.5


class TestTimeSlicedRun:
    def test_contrast_between_constant_bits(self):
        results = {}
        for bit in (0, 1):
            protocol = make_protocol(ts=1e6, tr=1e5, rng=3)
            run = protocol.run_time_sliced(bit, samples=30, quantum=4e4)
            results[bit] = percent_ones(run)
        assert results[1] - results[0] > 0.5

    def test_sample_count_honored(self):
        protocol = make_protocol(ts=1e6, tr=1e5, rng=3)
        run = protocol.run_time_sliced(1, samples=25, quantum=4e4)
        assert len(run.observations) == 25

    def test_noise_processes_reduce_contrast(self):
        def contrast(noise):
            vals = {}
            for bit in (0, 1):
                protocol = make_protocol(ts=1e6, tr=1e5, rng=3)
                run = protocol.run_time_sliced(
                    bit, samples=30, quantum=4e4, noise_processes=noise
                )
                vals[bit] = percent_ones(run)
            return vals[1] - vals[0]

        assert contrast(0) > contrast(2)

    @staticmethod
    def _noise_lines(protocol, process, count=64):
        steps = protocol._noise_program(
            working_set_lines=256, pace=200.0, process=process
        )()
        ops = [next(steps) for _ in range(2 * count)]
        return [op.address for op in ops[::2]]

    def test_noise_processes_draw_independent_streams(self):
        protocol = make_protocol()
        first = self._noise_lines(protocol, 0)
        second = self._noise_lines(protocol, 1)
        assert first != second
        # Process 0 keeps the stream every committed result was made with.
        rng = random.Random(0xBEEF)
        line_size = INTEL_E5_2690.hierarchy.l1.line_size
        assert first == [
            (1 << 27) + rng.randrange(256) * line_size for _ in range(64)
        ]

    def test_invalid_bit_rejected(self):
        protocol = make_protocol()
        with pytest.raises(ProtocolError):
            protocol.run_time_sliced(5, samples=4, quantum=4e4)


class TestThreshold:
    def test_threshold_between_hit_and_miss_totals(self):
        protocol = make_protocol()
        threshold = protocol._threshold()
        l1 = INTEL_E5_2690.hierarchy.l1.hit_latency
        l2 = INTEL_E5_2690.hierarchy.l2.hit_latency
        overhead = INTEL_E5_2690.tsc.overhead_mean
        assert 8 * l1 + overhead < threshold < 7 * l1 + l2 + overhead
