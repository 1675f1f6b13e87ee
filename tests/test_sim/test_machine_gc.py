"""Machines are freed by reference counting, not the cycle collector.

A machine owns hundreds of cache sets; if any of them sits in a
reference cycle, every dead machine waits for a collector pass, and a
run that builds many machines (one per sweep point) holds them all.
"""

import gc

import pytest

from repro.experiments import fig6
from repro.sim.machine import Machine
from repro.sim.specs import INTEL_E5_2690


@pytest.fixture
def no_collector():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def test_dead_machine_leaves_no_cyclic_garbage(no_collector):
    machine = Machine(INTEL_E5_2690, rng=3)
    del machine
    assert gc.collect() == 0


def test_fig6_slice_leaves_no_cyclic_garbage(no_collector):
    points = fig6.time_sliced_sweep(
        INTEL_E5_2690, tr_values=(6.0e4,), d_values=(8,), samples=5
    )
    assert len(points) == 2
    assert gc.collect() == 0


def test_fast_engine_machine_leaves_no_cyclic_garbage(no_collector):
    machine = Machine(INTEL_E5_2690, rng=3, engine="fast")
    del machine
    assert gc.collect() == 0
