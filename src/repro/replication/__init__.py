"""Journal-shipping replication: replicas, divergence detection, failover.

The primary's :class:`~repro.durability.commit.DurableCommitPipeline`
writes through a :class:`ShippingMedium`, which mirrors every journal byte
(and every checkpoint snapshot) onto a :class:`ShipFeed` — the replication
log is therefore *byte-identical* to the primary's write-ahead journal,
torn tails and all, which is what lets replicas reuse the recovery
machinery unchanged and what makes RPO=0 for sealed blocks hold by
construction: a frame is on the feed the instant it is on the primary's
disk.

:class:`ReplicaService` consumes the feed incrementally, re-verifying each
block exactly as recovery would — frame CRCs, the COMMIT marker's delta
digest, the SEAL record's post-state fingerprint — and quarantines itself
with a typed :class:`~repro.errors.ReplicaDivergence` (flight recorder
dumped) the moment its replay contradicts the journal.  Frames from a
deposed primary are fenced off by the monotonic epoch in each BEGIN frame
(:class:`~repro.errors.StaleEpoch`), the split-brain guard.

:class:`FailoverController` + :class:`ReplicatedChainService` drive
deterministic failover on the simulated clock: detect a lost primary by
heartbeat timeout, pick the freshest caught-up replica, drain and finalize
the dead feed, recover the candidate's own journal, and bump the fencing
epoch — preserving every sealed block.

Everything is off by default: no executor, service or facade imports this
package unless replication is explicitly attached, and benchmarks are
byte-identical with it detached.
"""

from .cluster import ClusterConfig, ReplicatedChainService
from .failover import FailoverController, FailoverPolicy, FailoverReport
from .replica import ReplicaService
from .ship import ShipFeed, ShippingMedium

__all__ = [
    "ClusterConfig",
    "FailoverController",
    "FailoverPolicy",
    "FailoverReport",
    "ReplicaService",
    "ReplicatedChainService",
    "ShipFeed",
    "ShippingMedium",
]
