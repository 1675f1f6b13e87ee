"""Cluster chaos: node-level faults for the fabric test suite.

Extends the executor and service chaos planes across node boundaries.
The faults a *cluster* can exhibit that a single node cannot:

* **node death** — a whole service process vanishes mid-request (the
  in-process suite calls :meth:`ExperimentService.abort`, the
  out-of-process smoke sends a real SIGKILL); clients of that node see
  mid-frame disconnects and the router must fail over;
* **peer-link partition** — the router can no longer reach one peer
  even though the peer is alive (severed link, not a dead node); the
  transport refuses the connection attempt immediately.

Node death needs no configuration here (the harness kills the node).
The partition set is static, so a chaos run replays exactly: the same
requests fail over to the same replicas every run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple


@dataclass(frozen=True)
class ClusterChaosConfig:
    """Fault plan for the cluster fabric (tests only).

    Args:
        partitioned: Peer names whose link *from the router* is severed
            for the whole run — connection attempts fail instantly, the
            way a dropped route fails, while the node itself stays
            healthy.
    """

    partitioned: Tuple[str, ...] = ()

    def is_partitioned(self, peer_name: str) -> bool:
        """Is the router→peer link severed for the whole run?"""
        return peer_name in self.partitioned
