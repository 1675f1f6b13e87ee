"""Multi-node service fabric: replicated routing over the line-JSON wire.

The single-node service (:mod:`repro.service`) survives SIGKILL, cache
corruption, and disconnects — but any node death loses the whole
service.  This package scales the same robustness story across node
boundaries, exploiting the property that makes the paper's experiments
embarrassingly shardable: every request is deterministic and replayable,
so any replica can serve any key bit-identically.

Layers (each its own module, composable and unit-testable):

* :mod:`~repro.cluster.membership` — static peer registry
  (``peers.json`` / ``--peers``); every address in the fabric comes
  from here (the ``no-hardcoded-peer-address`` lint rule enforces it);
* :mod:`~repro.cluster.ring` — consistent-hash ring mapping each
  request's routing key onto R replica nodes;
* :mod:`~repro.cluster.transport` — one-shot async peer requests with
  deadline-bounded timeouts and the cluster chaos hooks;
* :mod:`~repro.cluster.health` — background per-peer health checks
  feeding reusable :class:`~repro.common.breaker.CircuitBreaker`\\ s;
* :mod:`~repro.cluster.router` — the client-facing front end
  (``python -m repro route``), speaking protocol v1 unchanged; its
  failover is the fabric's one "try another replica" mechanism, on a
  transport failure, a refusal, or a node's typed execution error;
* :mod:`~repro.cluster.chaos` — node-kill / static-partition fault
  plane for the cluster test suite.
"""

from repro.cluster.membership import Membership, Peer
from repro.cluster.ring import HashRing
from repro.cluster.router import ClusterRouter, RouterConfig

__all__ = [
    "ClusterRouter",
    "HashRing",
    "Membership",
    "Peer",
    "RouterConfig",
]
