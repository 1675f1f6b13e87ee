"""Shared utilities: typed records, errors, statistics, edit distance, RNG.

These are the foundation types used by every other subpackage.  Nothing in
here knows about caches or channels; it is pure data-structure and math
support.
"""

from repro.common.errors import (
    ConfigurationError,
    ExperimentTimeout,
    FaultInjectionError,
    InvariantViolation,
    LintError,
    ReproError,
    SimulationError,
)
from repro.common.types import (
    AccessOutcome,
    AccessType,
    CacheLevel,
    MemoryAccess,
)
from repro.common.ascii_plot import bar_histogram, sparkline, threshold_trace
from repro.common.editdist import edit_distance, edit_operations
from repro.common.stats import (
    Histogram,
    mean,
    moving_average,
    percentile,
    threshold_classify,
)
from repro.common.rng import make_rng, spawn_rng

__all__ = [
    "AccessOutcome",
    "AccessType",
    "CacheLevel",
    "ConfigurationError",
    "ExperimentTimeout",
    "FaultInjectionError",
    "Histogram",
    "InvariantViolation",
    "LintError",
    "bar_histogram",
    "MemoryAccess",
    "ReproError",
    "SimulationError",
    "edit_distance",
    "edit_operations",
    "make_rng",
    "mean",
    "moving_average",
    "percentile",
    "sparkline",
    "spawn_rng",
    "threshold_trace",
    "threshold_classify",
]
