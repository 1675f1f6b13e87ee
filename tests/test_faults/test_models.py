"""Unit tests for the fault-model framework (`repro.faults`)."""

import math

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.common.errors import FaultInjectionError
from repro.common.rng import make_rng
from repro.common.types import Observation
from repro.faults import (
    ContextSwitchFault,
    FaultInjector,
    FaultModel,
    InterruptBurstFault,
    PoissonFault,
    PrefetcherFault,
    SampleDropFault,
    SampleDuplicateFault,
    TSCFault,
    standard_fault_suite,
)


def _full_scan(injector, start, end):
    """``stall_in_window`` as a forward sum over the whole log."""
    return sum(
        stolen for at, stolen in injector.event_log if start < at <= end
    )


def _bound(model, hierarchy, seed=7):
    model.bind(hierarchy, make_rng(seed))
    return model


class TestFaultModelBase:
    def test_disturb_before_bind_raises(self, hierarchy):
        model = FaultModel()
        with pytest.raises(FaultInjectionError, match="before bind"):
            model._disturb(0x1000)

    def test_default_hooks_are_identity(self, hierarchy):
        model = _bound(FaultModel(), hierarchy)
        assert model.on_time_advance(1e6) == 0.0
        assert model.perturb_tsc(123.0) == 123.0
        obs = Observation(sequence=0, latency=4.0)
        assert model.filter_observation(obs) == [obs]


class TestPoissonArrivals:
    def test_negative_rate_rejected(self):
        with pytest.raises(FaultInjectionError):
            InterruptBurstFault(rate_per_mcycle=-1.0)

    def test_zero_rate_never_fires(self, hierarchy):
        fault = _bound(InterruptBurstFault(rate_per_mcycle=0.0), hierarchy)
        assert fault.on_time_advance(1e9) == 0.0

    def test_event_times_are_deterministic_per_seed(self, hierarchy):
        class Recording(PoissonFault):
            name = "recording"

            def __init__(self):
                super().__init__(rate_per_mcycle=100.0)
                self.fired = []

            def inject(self, at):
                self.fired.append(at)
                return 0.0

        runs = []
        for _ in range(2):
            fault = _bound(Recording(), hierarchy, seed=11)
            fault.on_time_advance(2e6)
            runs.append(fault.fired)
        assert runs[0] == runs[1]
        assert len(runs[0]) > 0
        assert all(t <= 2e6 for t in runs[0])

    def test_events_accumulate_across_advances(self, hierarchy):
        class Recording(PoissonFault):
            name = "recording"

            def __init__(self):
                super().__init__(rate_per_mcycle=50.0)
                self.fired = []

            def inject(self, at):
                self.fired.append(at)
                return 0.0

        stepped = _bound(Recording(), hierarchy, seed=3)
        for now in (0.5e6, 1e6, 1.5e6, 2e6):
            stepped.on_time_advance(now)
        whole = _bound(Recording(), hierarchy, seed=3)
        whole.on_time_advance(2e6)
        # Same seed: chopping time into steps must not skip or re-fire
        # events.
        assert stepped.fired == whole.fired


class TestInterruptBurstFault:
    def test_validation(self):
        with pytest.raises(FaultInjectionError):
            InterruptBurstFault(1.0, burst_length=0)
        with pytest.raises(FaultInjectionError):
            InterruptBurstFault(1.0, handler_cycles=-5.0)

    def test_footprint_defaults_to_four_l1_spans(self, hierarchy):
        fault = _bound(InterruptBurstFault(1.0), hierarchy)
        l1 = hierarchy.l1.config
        assert fault.footprint_lines == 4 * l1.num_sets * l1.ways

    def test_inject_steals_handler_plus_memory_time(self, hierarchy):
        fault = _bound(
            InterruptBurstFault(1.0, burst_length=4, handler_cycles=200.0),
            hierarchy,
        )
        stall = fault.inject(at=0.0)
        # Four cold accesses each cost at least the L1 hit latency.
        assert stall > 200.0 + 4 * hierarchy.l1.config.hit_latency


class TestContextSwitchFault:
    def test_validation(self):
        with pytest.raises(FaultInjectionError):
            ContextSwitchFault(1.0, working_set_fraction=0.0)
        with pytest.raises(FaultInjectionError):
            ContextSwitchFault(1.0, working_set_fraction=5.0)

    def test_scrub_touches_the_full_working_set(self, hierarchy):
        fault = _bound(
            ContextSwitchFault(1.0, working_set_fraction=1.0), hierarchy
        )
        stall = fault.inject(at=0.0)
        l1 = hierarchy.l1.config
        lines = l1.num_sets * l1.ways
        assert stall >= lines * l1.hit_latency


class TestPrefetcherFault:
    def test_validation(self):
        with pytest.raises(FaultInjectionError):
            PrefetcherFault(1.0, degree=0)
        with pytest.raises(FaultInjectionError):
            PrefetcherFault(1.0, stride_lines=0)

    def test_prefetches_steal_no_core_time(self, hierarchy):
        fault = _bound(PrefetcherFault(1.0, degree=4), hierarchy)
        assert fault.inject(at=0.0) == 0.0


class TestTSCFault:
    def test_validation(self):
        with pytest.raises(FaultInjectionError):
            TSCFault(jitter_cycles=-1.0)

    def test_drift_scales_readings(self, hierarchy):
        fault = _bound(TSCFault(drift_ppm=1000.0), hierarchy)
        assert fault.perturb_tsc(1e6) == pytest.approx(1e6 * 1.001)

    def test_jittered_readings_stay_monotonic(self, hierarchy):
        fault = _bound(TSCFault(jitter_cycles=50.0), hierarchy)
        readings = [fault.perturb_tsc(t) for t in range(0, 10_000, 100)]
        assert readings == sorted(readings)
        assert readings[0] >= 0.0


class TestSamplingFaults:
    def test_probability_validation(self):
        with pytest.raises(FaultInjectionError):
            SampleDropFault(-0.1)
        with pytest.raises(FaultInjectionError):
            SampleDuplicateFault(1.1)

    def test_drop_probability_one_loses_everything(self, hierarchy):
        fault = _bound(SampleDropFault(1.0), hierarchy)
        obs = Observation(sequence=3, latency=12.0, timestamp=99)
        assert fault.filter_observation(obs) == []

    def test_duplicate_probability_one_twins_everything(self, hierarchy):
        fault = _bound(SampleDuplicateFault(1.0), hierarchy)
        obs = Observation(sequence=3, latency=12.0, timestamp=99)
        out = fault.filter_observation(obs)
        assert len(out) == 2
        assert out[0] is obs
        assert out[1] == obs and out[1] is not obs

    def test_probability_zero_is_identity(self, hierarchy):
        obs = Observation(sequence=0, latency=4.0)
        for fault in (SampleDropFault(0.0), SampleDuplicateFault(0.0)):
            _bound(fault, hierarchy)
            assert fault.filter_observation(obs) == [obs]


class TestFaultInjector:
    def test_rejects_non_models(self, hierarchy):
        injector = FaultInjector(hierarchy, rng_source=lambda: make_rng(1))
        with pytest.raises(FaultInjectionError, match="FaultModel"):
            injector.attach("not a model")

    def test_rng_source_is_lazy(self, hierarchy):
        calls = []

        def source():
            calls.append(True)
            return make_rng(1)

        injector = FaultInjector(hierarchy, rng_source=source)
        assert not injector.active
        assert calls == []
        injector.attach(TSCFault(jitter_cycles=1.0))
        assert injector.active
        assert calls == [True]

    def test_observation_filtering_chains_models(self, hierarchy):
        injector = FaultInjector(hierarchy, rng_source=lambda: make_rng(1))
        injector.attach_all(
            [SampleDuplicateFault(1.0), SampleDuplicateFault(1.0)]
        )
        obs = Observation(sequence=0, latency=4.0)
        assert len(injector.filter_observation(obs)) == 4

    def test_tsc_perturbations_compose(self, hierarchy):
        injector = FaultInjector(hierarchy, rng_source=lambda: make_rng(1))
        injector.attach_all(
            [TSCFault(drift_ppm=1000.0), TSCFault(drift_ppm=1000.0)]
        )
        assert injector.perturb_tsc(1e6) == pytest.approx(1e6 * 1.001 ** 2)

    def test_stall_in_window_counts_only_covered_events(self, hierarchy):
        injector = FaultInjector(hierarchy, rng_source=lambda: make_rng(1))
        injector._record_event(100.0, 10.0)
        injector._record_event(200.0, 20.0)
        injector._record_event(300.0, 40.0)
        assert injector.stall_in_window(100.0, 250.0) == 20.0
        assert injector.stall_in_window(0.0, 1000.0) == 70.0
        assert injector.stall_in_window(300.0, 400.0) == 0.0

    def test_on_time_advance_logs_stealing_events(self, hierarchy):
        injector = FaultInjector(hierarchy, rng_source=lambda: make_rng(1))
        injector.attach(InterruptBurstFault(rate_per_mcycle=100.0))
        stolen = injector.on_time_advance(1e6)
        assert stolen > 0
        assert injector.stall_in_window(0.0, 1e6) == pytest.approx(stolen)

    def test_interleaved_models_log_out_of_time_order(self, hierarchy):
        # One advance fires each model's due events model by model.
        injector = FaultInjector(hierarchy, rng_source=lambda: make_rng(1))
        injector.attach_all(
            [
                InterruptBurstFault(rate_per_mcycle=50.0),
                ContextSwitchFault(rate_per_mcycle=50.0),
            ]
        )
        injector.on_time_advance(1e6)
        times = [at for at, _ in injector.event_log]
        assert times != sorted(times)
        for start, end in [(0.0, 1e6), (2e5, 7e5), (9e5, 1e6), (1e6, 2e6)]:
            assert injector.stall_in_window(start, end) == _full_scan(
                injector, start, end
            )

    @pytest.mark.parametrize("seed", range(6))
    def test_stall_in_window_equals_the_full_scan(self, hierarchy, seed):
        # Random logs: mostly time-ordered runs with interleaved
        # stretches, non-binary-fraction costs (so the float sum shows
        # its order) and more events than the log keeps.
        rng = make_rng(seed)
        injector = FaultInjector(hierarchy, rng_source=lambda: make_rng(1))
        clock = 0.0
        for _ in range(rng.choice([10, 500, 5000])):
            clock += rng.expovariate(1e-3)
            at = clock - rng.uniform(0.0, 5e3) * (rng.random() < 0.2)
            injector._record_event(at, rng.uniform(0.0, 300.0) / 7.0)
        for _ in range(200):
            start = rng.uniform(-1e3, clock)
            end = start + rng.choice([0.0, 10.0, 1e3, 1e5, 1e9])
            assert injector.stall_in_window(start, end) == _full_scan(
                injector, start, end
            )


class TestStallInWindowProperty:
    """``stall_in_window`` is the brute-force sum, float for float.

    Logs are written as an injector writes them: each model logs its own
    events in time order, and an advance fires every model's due events
    model by model, so with several models the log is out of time
    order.  Windows start anywhere, and often exactly at a logged event
    or a running peak, where the early exit and the tail scan meet.
    """

    @settings(
        max_examples=200,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        models=st.lists(
            st.lists(
                st.tuples(st.floats(0.0, 1e4), st.integers(1, 3000)),
                max_size=12,
            ),
            min_size=1,
            max_size=4,
        ),
        advances=st.lists(st.floats(0.0, 1.2e4), max_size=6),
        windows=st.lists(
            st.tuples(
                st.integers(-1, 60),
                st.floats(-10.0, 1.2e4),
                st.sampled_from([0.0, 1.0, 50.0, 1e3, 1e9]),
            ),
            min_size=1,
            max_size=20,
        ),
    )
    def test_equals_the_brute_force_sum(
        self, hierarchy, models, advances, windows
    ):
        injector = FaultInjector(hierarchy, rng_source=lambda: make_rng(1))
        queues = [sorted(events) for events in models]
        for now in sorted(advances) + [math.inf]:
            for queue in queues:
                while queue and queue[0][0] <= now:
                    at, cycles = queue.pop(0)
                    # Not binary fractions: the sum shows its order.
                    injector._record_event(at, cycles / 7.0)
        log = list(injector.event_log)
        starts = [at for at, _ in log] + list(injector._log_peaks)
        for pick, free, span in windows:
            start = starts[pick % len(starts)] if starts and pick >= 0 else free
            end = start + span
            assert injector.stall_in_window(start, end) == sum(
                stolen for at, stolen in log if start < at <= end
            )

    def test_empty_log(self, hierarchy):
        injector = FaultInjector(hierarchy, rng_source=lambda: make_rng(1))
        for start, end in [(0.0, 1e9), (-5.0, 0.0), (7.0, 7.0)]:
            assert injector.stall_in_window(start, end) == 0.0


class TestStandardFaultSuite:
    def test_intensity_zero_is_a_quiet_machine(self):
        assert standard_fault_suite(0.0) == []

    def test_negative_intensity_rejected(self):
        with pytest.raises(FaultInjectionError):
            standard_fault_suite(-1.0)

    def test_intensity_scales_every_model(self):
        low = standard_fault_suite(1.0)
        high = standard_fault_suite(2.0)
        assert len(low) == len(high) == 6
        assert high[0].rate_per_mcycle == 2 * low[0].rate_per_mcycle

    def test_sampling_probabilities_are_capped(self):
        suite = standard_fault_suite(1000.0)
        drop = next(m for m in suite if isinstance(m, SampleDropFault))
        dup = next(m for m in suite if isinstance(m, SampleDuplicateFault))
        assert drop.probability <= 0.25
        assert dup.probability <= 0.25
