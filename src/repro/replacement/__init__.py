"""Cache replacement policies — the state machines whose state leaks.

The paper's channel exists because LRU-family policies update their state
on *every* access (hits included).  This package provides bit-exact models
of the policies the paper discusses:

* :class:`TrueLRU` — exact recency ordering (Section II-B).
* :class:`TreePLRU` — tree-based pseudo-LRU (Table I victim behaviour).
* :class:`BitPLRU` — MRU-bit pseudo-LRU (Table I victim behaviour).
* :class:`FIFO` — fill-only state; a proposed defense (Section IX-A).
* :class:`RandomPolicy` — stateless; a proposed defense (Section IX-A).
* :class:`SRRIP` — LLC-style RRIP (reference [34]).
* :class:`PartitionedPLRU` — DAWG-style per-domain PLRU state
  partitioning (Section IX-B).
* :class:`TabledPolicy` — table-compiled drop-in for any of the above
  deterministic policies (the fast-path engine; see
  ``repro.replacement.tables`` and ``docs/PERFORMANCE.md``).

``POLICY_REGISTRY`` maps the names used in experiment configs to
constructors.  Exhaustive state-space queries over these policies (the
leakage metrics, Table I's Sequence-1 bound) read their compiled tables
in ``repro.analysis.reachability``.
"""

from typing import Callable, Dict

from repro.replacement.base import ReplacementPolicy, access_sequence
from repro.replacement.bit_plru import BitPLRU
from repro.replacement.fifo import FIFO
from repro.replacement.partitioned import PartitionedPLRU
from repro.replacement.random_policy import RandomPolicy
from repro.replacement.rrip import SRRIP
from repro.replacement.tables import TabledPolicy
from repro.replacement.tree_plru import TreePLRU
from repro.replacement.true_lru import TrueLRU

POLICY_REGISTRY: Dict[str, Callable[..., ReplacementPolicy]] = {
    "lru": TrueLRU,
    "tree-plru": TreePLRU,
    "bit-plru": BitPLRU,
    "fifo": FIFO,
    "random": RandomPolicy,
    "srrip": SRRIP,
    "partitioned-plru": PartitionedPLRU,
    "tabled": TabledPolicy,
}


def make_policy(name: str, ways: int, **kwargs) -> ReplacementPolicy:
    """Construct a policy by registry name.

    Args:
        name: One of ``POLICY_REGISTRY``'s keys (case-insensitive).
        ways: Set associativity.
        **kwargs: Policy-specific options (e.g. ``rng`` for ``random``).
    """
    key = name.lower()
    if key not in POLICY_REGISTRY:
        raise KeyError(
            f"unknown policy {name!r}; known: {sorted(POLICY_REGISTRY)}"
        )
    return POLICY_REGISTRY[key](ways, **kwargs)


__all__ = [
    "BitPLRU",
    "FIFO",
    "POLICY_REGISTRY",
    "PartitionedPLRU",
    "RandomPolicy",
    "ReplacementPolicy",
    "SRRIP",
    "TabledPolicy",
    "TreePLRU",
    "TrueLRU",
    "access_sequence",
    "make_policy",
]
