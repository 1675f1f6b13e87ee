"""Session scoping: activation, nesting, trace-disabled no-ops, and an
off mode that stays off the hot path."""

import os
import sys

import repro.obs
from repro.channels import (
    CovertChannelProtocol,
    ProtocolConfig,
    SharedMemoryLRUChannel,
)
from repro.obs.session import ObsSession, active, observe
from repro.sim import INTEL_E5_2690, Machine


class TestActivation:
    def test_inactive_by_default(self):
        assert active() is None

    def test_observe_scopes_and_restores(self):
        with observe() as session:
            assert active() is session
        assert active() is None

    def test_nesting_replaces_then_restores(self):
        with observe() as outer:
            with observe() as inner:
                assert active() is inner
            assert active() is outer

    def test_restores_on_error(self):
        try:
            with observe():
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert active() is None


class TestTraceDepthZero:
    def test_metrics_only_session_has_no_bus(self):
        session = ObsSession(trace_depth=0)
        assert session.bus is None
        session.event("ignored")
        with session.span("ignored") as span_id:
            assert span_id is None
        # metrics still work without a bus
        session.metrics.counter("cache.l1.hits").inc()
        assert session.metrics.snapshot()["counters"]["cache.l1.hits"] == 1

    def test_traced_session_wires_dropped_counter(self):
        session = ObsSession(trace_depth=2)
        for i in range(5):
            session.event("tick", i=i)
        snapshot = session.metrics.snapshot()
        assert snapshot["counters"]["trace.events.dropped"] == 3


class TestManifestNotes:
    def test_machines_dedupe_with_multiplicity(self):
        session = ObsSession(trace_depth=0)
        session.note_machine("Intel Xeon E5-2690")
        session.note_machine("Intel Xeon E5-2690")
        session.note_machine("AMD EPYC 7571")
        assert session.machines() == [
            {"spec": "Intel Xeon E5-2690", "count": 2},
            {"spec": "AMD EPYC 7571", "count": 1},
        ]

    def test_fault_models_sorted_unique(self):
        session = ObsSession(trace_depth=0)
        session.note_fault_model("tsc_jitter")
        session.note_fault_model("interrupt_burst")
        session.note_fault_model("tsc_jitter")
        assert session.fault_models() == ["interrupt_burst", "tsc_jitter"]


class TestOffMode:
    def test_transfer_calls_obs_only_while_being_built(self):
        """With no session, the instrumented hot paths never call into
        repro.obs: the only calls are the construction-time lookups,
        so their number does not grow with the message."""
        obs_dir = os.path.dirname(repro.obs.__file__) + os.sep

        def obs_calls(message):
            calls = []

            def profile(frame, event, arg):
                code = frame.f_code
                if event == "call" and code.co_filename.startswith(obs_dir):
                    calls.append(code.co_name)

            sys.setprofile(profile)
            try:
                machine = Machine(INTEL_E5_2690, rng=2024)
                channel = SharedMemoryLRUChannel.build(
                    machine.spec.hierarchy.l1, target_set=1, d=8
                )
                CovertChannelProtocol(
                    machine, channel, ProtocolConfig(ts=6000, tr=600)
                ).run_hyper_threaded(message)
            finally:
                sys.setprofile(None)
            return calls

        assert active() is None
        short = obs_calls([1, 0, 1, 1, 0, 0, 1, 0])
        long = obs_calls([1, 0, 1, 1, 0, 0, 1, 0] * 4)
        assert "active" in short
        assert long == short
