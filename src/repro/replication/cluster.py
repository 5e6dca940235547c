"""The replicated chain service: one primary, N verifying replicas.

:class:`ReplicatedChainService` wraps a normal :class:`ChainService`
primary whose durable commit pipeline writes through a
:class:`~repro.replication.ship.ShippingMedium` — every journal byte and
checkpoint snapshot lands on the cluster's :class:`ShipFeed` the instant
it is durable on the primary.  Replicas poll the feed after every
ingested block, replaying and re-verifying each commit against their own
worlds and journals.

Failover (:meth:`failover`) is the deterministic promotion sequence:

1. finalize the dead primary's feed (its bytes stop being authoritative);
2. drain every healthy replica to the feed's last complete frame and
   truncate torn tails (:meth:`ReplicaService.finalize_source`);
3. elect the freshest replica (:meth:`FailoverController.pick_candidate`)
   and re-recover its *own* journal — a full re-verification of every
   sealed root it is about to serve;
4. bump the fencing epoch and fence the surviving replicas — a deposed
   primary that keeps writing (the partition case) produces frames every
   survivor rejects as :class:`~repro.errors.StaleEpoch`;
5. stand up a new feed + shipping medium + commit pipeline + executor
   over the promoted world, and snapshot it onto the new feed so late
   joiners can bootstrap.

Survivors stay subscribed to the *old* feed until
:meth:`rebase_survivors` — deliberately, so the zombie-primary window is
observable: frames a deposed primary writes past the fence are consumed,
rejected and counted before anyone moves on.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from ..concurrency.registry import make_executor
from ..durability.checkpoint import encode_snapshot, snapshot_cost_us
from ..durability.commit import DurableCommitPipeline
from ..durability.medium import MemoryMedium
from ..errors import JournalCorruptionError, ReplicationError
from ..obs.lifecycle import FlightRecorder
from ..obs.metrics import NULL_METRICS
from ..service.chain_service import ChainService
from ..workloads.block import ChainView
from .failover import FailoverController, FailoverPolicy, FailoverReport
from .replica import ReplicaService
from .ship import ShipFeed, ShippingMedium


@dataclass(slots=True, frozen=True)
class ClusterConfig:
    """Cluster shape: replica count, commit knobs, failover policy."""

    replicas: int = 2
    threads: int = 8
    checkpoint_interval: int = 0
    policy: FailoverPolicy = field(default_factory=FailoverPolicy)


class ReplicatedChainService:
    """A :class:`ChainService` primary shipping its journal to replicas.

    ``executor`` names a :mod:`repro.concurrency.registry` config; it is
    constructed again on promotion so the successor gets a fresh executor
    wired to the successor's pipeline.  The wrapped ``chain`` must be eagerly
    funded (``Chain.world`` already holding every account the workload
    will touch) — replicas see only journal bytes, so out-of-band world
    mutation during block *generation* would silently diverge them; the
    stream harnesses pre-generate blocks for exactly this reason.
    """

    def __init__(
        self,
        chain,
        executor: str,
        config: ClusterConfig | None = None,
        metrics=NULL_METRICS,
    ) -> None:
        self.chain = chain
        self.executor_name = executor
        self.config = config or ClusterConfig()
        self.metrics = metrics
        self.controller = FailoverController(self.config.policy, metrics=metrics)
        self.primary_alive = True
        self._start_block = chain.env.number

        self.feed = ShipFeed(epoch=self.controller.epoch, metrics=metrics)
        self.medium = ShippingMedium(MemoryMedium(), self.feed)
        # Prime the feed (and the primary's medium) with a genesis-point
        # snapshot: replicas bootstrap from it instead of from a genesis
        # factory, so generation-time world state never needs re-deriving.
        snapshot_block = chain.env.number - 1
        self.medium.write_snapshot(
            snapshot_block, encode_snapshot(chain.world, snapshot_block)
        )
        self.service = self._primary_service(chain, self.controller.epoch)
        self.previous_service = None

        self.replicas = [
            ReplicaService(
                f"replica-{i}",
                self.feed,
                metrics=metrics,
                flight=FlightRecorder(),
            )
            for i in range(self.config.replicas)
        ]

    def _primary_service(self, chain, epoch: int) -> ChainService:
        """A primary over ``self.medium``: a fresh executor wired to a fresh
        commit pipeline journaling at ``epoch``."""
        pipeline = DurableCommitPipeline(
            self.medium,
            checkpoint_interval=self.config.checkpoint_interval,
            metrics=self.metrics,
            epoch=epoch,
        )
        return ChainService(
            None,
            make_executor(
                self.executor_name, self.config.threads, durability=pipeline
            ),
            chain=chain,
        )

    # -- views ----------------------------------------------------------

    def healthy_replicas(self) -> list[ReplicaService]:
        return [r for r in self.replicas if r.state != "quarantined"]

    def laggards(self) -> list[ReplicaService]:
        tip = self.service.height - 1
        return [
            r
            for r in self.healthy_replicas()
            if self.controller.over_lag_budget(r, tip)
        ]

    # -- the replicated ingest path -------------------------------------

    def ingest_block(self, block, tx_hashes=None):
        outcome = self.service.ingest_block(block, tx_hashes)
        now = self.service.sim_time_us
        if self.primary_alive:
            self.controller.heartbeat(now)
        self.poll_replicas(now)
        return outcome

    def poll_replicas(self, now_us: float = 0.0) -> int:
        """One poll tick per replica; a quarantine is caught (the replica
        keeps its own ``error`` and leaves the healthy set)."""
        consumed = 0
        tip = self.service.height - 1
        for replica in self.replicas:
            try:
                consumed += replica.poll(now_us)
            except (ReplicationError, JournalCorruptionError):
                pass
            self.metrics.gauge(
                "replication_lag_blocks", replica=replica.name
            ).set(float(replica.lag_blocks(tip)))
        return consumed

    # -- failover -------------------------------------------------------

    def fail_primary(self, now_us: float) -> None:
        """The primary stops heartbeating (crash or partition)."""
        self.primary_alive = False

    def failover(self, now_us: float) -> FailoverReport:
        """Promote the freshest healthy replica; returns the accounting.

        Raises :class:`~repro.errors.ReplicationError` when every replica
        is quarantined (nothing trustworthy left to promote).
        """
        detection_us = self.controller.policy.heartbeat_timeout_us
        old_feed = self.feed
        old_feed.finalize()
        pre_apply = {r.name: r.apply_us for r in self.replicas}
        for replica in self.healthy_replicas():
            try:
                replica.poll(now_us, max_frames=0)  # 0 = unbounded drain
            except (ReplicationError, JournalCorruptionError):
                pass
        for replica in self.healthy_replicas():
            replica.finalize_source()
        candidate = self.controller.pick_candidate(self.replicas)
        if candidate is None:
            raise ReplicationError(
                "failover impossible: every replica is quarantined"
            )
        recovery = candidate.promote()
        catchup_us = (
            candidate.apply_us - pre_apply[candidate.name] + recovery.replay_us
        )

        epoch = self.controller.next_epoch()
        # Quarantined replicas stay listed (their evidence matters); only
        # the promoted candidate leaves the replica set.
        survivors = [r for r in self.replicas if r is not candidate]
        for replica in survivors:
            if replica.state != "quarantined":
                replica.fence(epoch)

        # Stand up the successor primary over the candidate's own journal.
        new_world = recovery.world
        last_committed = recovery.last_committed_block
        self.feed = ShipFeed(epoch=epoch, metrics=self.metrics)
        self.medium = ShippingMedium(candidate.medium, self.feed)
        snapshot_at = (
            last_committed
            if last_committed is not None
            else self._start_block - 1
        )
        blob = encode_snapshot(new_world, snapshot_at)
        self.medium.write_snapshot(snapshot_at, blob)
        promotion_us = snapshot_cost_us(new_world, blob)
        old_service = self.service
        new_service = self._primary_service(
            ChainView(new_world, self.chain.env), epoch
        )
        new_service.height = (
            last_committed + 1
            if last_committed is not None
            else self._start_block
        )
        # Chain continuity: the promoted node serves the same chain.
        new_service.sim_time_us = old_service.sim_time_us
        new_service.blocks_committed = old_service.blocks_committed
        new_service.txs_committed = old_service.txs_committed
        # A *copy*: a zombie predecessor ingesting more blocks must not
        # leak hashes into the promoted node's duplicate-rejection window.
        new_service._recent_tx_hashes = deque(
            old_service._recent_tx_hashes,
            maxlen=old_service._recent_tx_hashes.maxlen,
        )

        self.previous_service = old_service
        candidate.state = "promoted"
        self.replicas = survivors
        self.service = new_service
        self.primary_alive = True
        self.controller.heartbeat(now_us)

        report = FailoverReport(
            epoch=epoch,
            promoted=candidate.name,
            detection_us=detection_us,
            catchup_us=catchup_us,
            promotion_us=promotion_us,
            last_committed_block=last_committed,
            blocks_preserved=(
                last_committed - self._start_block + 1
                if last_committed is not None
                else 0
            ),
        )
        return report

    def rebase_survivors(self) -> None:
        """Move surviving replicas onto the promoted primary's feed.

        Called *after* any zombie-window observation: until then the
        survivors stay on the dead feed, consuming and rejecting whatever
        a deposed primary still writes.
        """
        for replica in self.healthy_replicas():
            replica.rebase(self.feed)

