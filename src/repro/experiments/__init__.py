"""Experiment modules regenerating every table and figure in the paper.

Each module registers a ``run_*`` function under the paper's label
(``table1`` ... ``table7``, ``fig3`` ... ``fig15``); ``run_all`` executes
them.  See DESIGN.md section 3 for the experiment index and the tier-1
test that checks each one's claim.
"""

from repro.experiments import (  # noqa: F401  (registration side effects)
    extensions,
    extensions2,
    extensions3,
    fig3,
    fig4,
    fig5,
    fig6,
    fig7,
    fig9,
    fig11,
    fig13,
    randomized,
    robustness,
    table1,
    table2,
    table4,
    table5,
    table6,
    table7,
)
from repro.experiments.base import (
    EXPERIMENT_REGISTRY,
    ExperimentResult,
    register,
    run_all,
)

ALL_EXPERIMENT_MODULES = [
    extensions,
    extensions2,
    extensions3,
    randomized,
    robustness,
    table1, table2, table4, table5, table6, table7,
    fig3, fig4, fig5, fig6, fig7, fig9, fig11, fig13,
]

__all__ = [
    "ALL_EXPERIMENT_MODULES",
    "EXPERIMENT_REGISTRY",
    "ExperimentResult",
    "register",
    "run_all",
]
