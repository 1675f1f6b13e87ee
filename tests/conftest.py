"""Shared fixtures for the test suite."""

import pytest

from repro.cache.config import CacheConfig, HierarchyConfig
from repro.cache.hierarchy import CacheHierarchy
from repro.sim.machine import Machine
from repro.sim.specs import AMD_EPYC_7571, INTEL_E5_2690


@pytest.fixture
def l1_config() -> CacheConfig:
    """The paper's L1D geometry: 32 KiB, 8-way, 64 sets."""
    return CacheConfig(name="L1D", size=32 * 1024, ways=8, line_size=64)


@pytest.fixture
def small_config() -> CacheConfig:
    """A tiny cache for exhaustive white-box tests: 4 sets, 4 ways."""
    return CacheConfig(
        name="tiny", size=1024, ways=4, line_size=64, policy="lru"
    )


@pytest.fixture
def hierarchy() -> CacheHierarchy:
    """Default two-level hierarchy with deterministic seeding."""
    return CacheHierarchy(HierarchyConfig(), rng=1234)


@pytest.fixture
def intel_machine() -> Machine:
    return Machine(INTEL_E5_2690, rng=42)


@pytest.fixture
def amd_machine() -> Machine:
    return Machine(AMD_EPYC_7571, rng=42)


@pytest.fixture(scope="session")
def run():
    """Run a registered experiment at most once per session.

    The registered callable runs serially, in this process, on the
    default (fast) engine: the paper-claim tests read its result, and
    the conformance matrix compares every other cell against it.
    """
    from repro.experiments import EXPERIMENT_REGISTRY

    results = {}

    def get(experiment_id):
        if experiment_id not in results:
            results[experiment_id] = EXPERIMENT_REGISTRY[experiment_id]()
        return results[experiment_id]

    return get
