"""The failover sweep: crash the primary at every commit crash site.

``failover_sweep`` is the replication layer's crashfuzz: for every
executor config and every enumerated crash site of the durable commit
path, a replicated cluster commits a couple of warm-up blocks, the
primary dies at exactly that site mid-commit, the heartbeat timeout
elapses, and the freshest replica is promoted.  The certified invariants,
per ``(executor, site)`` pair:

1. **RPO = 0** — the promoted world's fingerprint equals the serial
   reference of exactly the blocks whose COMMIT marker survived
   (:func:`repro.durability.site_expected_state`): pre-block state up to
   and including the torn COMMIT marker, post-block state after it.
   Never anything else, never a lost sealed block.  MPT roots are
   additionally compared at the two boundary sites.
2. **Fencing holds** — the deposed primary is resurrected as a zombie
   and commits another block onto its (finalized) feed; every surviving
   replica consumes the frames, rejects them as
   :class:`~repro.errors.StaleEpoch` (old epoch < fence), and its world
   is provably unchanged.
3. **Nothing in flight is lost** — when the crash site predates the
   COMMIT marker, the crashed block is re-ingested on the promoted
   primary (the block-level image of the facade's mempool re-queue) and
   the cluster converges to the full serial reference; survivors follow
   over the *new* feed to the same state.
4. **Failover time is bounded and accounted** — detection + catch-up +
   promotion in simulated microseconds, reported per promotion and
   aggregated.

``REPLICATION_HAZARDS`` offers the sweep plus three targeted hazards
(laggy replica, corrupted feed link, divergent replica) to the chaos
harness (:func:`repro.check.chaos.run_chaos_block`), keyed by the
``mode`` of its ``kind="replication"`` scenarios.
"""

from __future__ import annotations

import hashlib
from collections.abc import Sequence
from dataclasses import dataclass

from ..concurrency.registry import EXECUTOR_NAMES
from ..durability import enumerate_crash_sites
from ..errors import (
    DurabilityError,
    RecoveryError,
    ReplicaDivergence,
    ReplicationError,
    StaleEpoch,
)
from ..replication import ClusterConfig, FailoverPolicy, ReplicatedChainService
from ..workloads import Block, ChainView, copy_block
from .certify import CertificationReport, Divergence
from .fuzzer import BlockFuzzer, FuzzConfig
from .sweep import (
    CommitBoundary,
    SweepReport,
    apply_serially,
    crashing_at,
    failing_as,
    root_genesis,
    run_sweep,
    world_state,
)


def _synthetic_hashes(block: Block) -> list[bytes]:
    """Deterministic, globally unique per-(block, index) tx hashes.

    The sweep feeds blocks straight into the service (no mempool), and
    fuzz blocks from different seeds can contain byte-identical
    transactions; synthetic hashes keep the duplicate-rejection window
    out of the experiment without weakening it on the real ingest path.
    """
    return [
        hashlib.blake2b(
            f"{block.number}:{index}".encode(), digest_size=32
        ).digest()
        for index in range(len(block.txs))
    ]


def _serial_states(chain_world, blocks, check_roots: bool):
    """Fingerprint (and optionally MPT root) after each block, serially."""
    return [
        world_state(apply_serially(chain_world, block), check_roots)
        for block in blocks
    ]


@dataclass(slots=True)
class _Fixture:
    """One eagerly-funded chain plus pre-generated, renumbered blocks."""

    fuzzer: BlockFuzzer
    blocks: list[Block]

    def chainlike(self):
        return ChainView(self.fuzzer.chain.fresh_world(), self.fuzzer.chain.env)


def _fixture(seed: int, blocks: int, txs_per_block: int) -> _Fixture:
    fuzzer = BlockFuzzer(
        FuzzConfig(
            txs_per_block=txs_per_block, accounts=32, tokens=2, amm_pairs=1
        )
    )
    base = fuzzer.chain.env.number
    prepared = [
        copy_block(base + i, fuzzer.block(seed + i).txs, fuzzer.chain.env)
        for i in range(blocks)
    ]
    return _Fixture(fuzzer, prepared)


@dataclass(slots=True, kw_only=True)
class FailoverSweepReport(SweepReport):
    """Crash sites × executor configs, each ending in a verified promotion."""

    kind = "failover"
    faults_counter = "failovers"
    failovers: int = 0
    stale_frames_rejected: int = 0
    requeued_blocks: int = 0
    max_failover_us: float = 0.0
    min_failover_us: float = 0.0

    def counters(self) -> dict[str, float]:
        return {
            "crash_sites": float(len(self.sites)),
            "failovers": float(self.failovers),
            "stale_frames_rejected": float(self.stale_frames_rejected),
            "requeued_blocks": float(self.requeued_blocks),
            "max_failover_us": self.max_failover_us,
        }

    def as_dict(self) -> dict:
        """The sweep as one JSON-ready record (``repro replicate``'s line)."""
        return {
            "ok": self.ok,
            "block_number": self.block_number,
            "tx_count": self.tx_count,
            "sites": len(self.sites),
            "executors": len(self.executors),
            "crashes_injected": self.crashes_injected,
            "failovers": self.failovers,
            "stale_frames_rejected": self.stale_frames_rejected,
            "requeued_blocks": self.requeued_blocks,
            "min_failover_us": round(self.min_failover_us, 3),
            "max_failover_us": round(self.max_failover_us, 3),
            "divergences": [d.describe() for d in self.divergences],
        }

    def describe(self) -> str:
        head = (
            f"failover sweep block {self.block_number} ({self.tx_count} txs, "
            f"{len(self.sites)} sites x {len(self.executors)} executors, "
            f"{self.failovers} failovers, {self.stale_frames_rejected} stale "
            f"frames fenced, failover {self.min_failover_us:.0f}-"
            f"{self.max_failover_us:.0f}us): "
        )
        return self._verdict(head, "RPO=0 at every site")


def failover_sweep(
    fuzz_seed: int = 0,
    warmup_blocks: int = 2,
    txs_per_block: int = 6,
    threads: int = 4,
    executors: Sequence[str] = EXECUTOR_NAMES,
    replicas: int = 2,
    policy: FailoverPolicy | None = None,
    check_roots: bool = True,
    metrics=None,
) -> FailoverSweepReport:
    """Certify zero-loss failover at every commit crash site, per executor."""
    policy = policy or FailoverPolicy()
    fixture = _fixture(fuzz_seed, warmup_blocks + 1, txs_per_block)
    warmups, crash_block = fixture.blocks[:-1], fixture.blocks[-1]
    crash_hashes = _synthetic_hashes(crash_block)

    root_genesis(fixture.fuzzer.chain, check_roots)
    states = _serial_states(
        fixture.fuzzer.chain.fresh_world(), fixture.blocks, check_roots
    )
    boundary = CommitBoundary(states[warmup_blocks - 1], states[warmup_blocks])
    post_fp = boundary.post[0]

    report = FailoverSweepReport(
        block_number=crash_block.number,
        tx_count=len(crash_block.txs),
        sites=enumerate_crash_sites(len(crash_block.txs), checkpoint=False),
    )

    def prepare(name: str):
        """How to stand up this executor config's cluster, fresh per site."""
        return lambda: ReplicatedChainService(
            fixture.chainlike(),
            name,
            ClusterConfig(replicas=replicas, threads=threads, policy=policy),
            metrics=metrics,
        )

    def check(new_cluster, site: str) -> str | None:
        cluster = new_cluster()
        with failing_as("warm-up", ReplicationError):
            for block in warmups:
                cluster.ingest_block(block, tx_hashes=_synthetic_hashes(block))
        for replica in cluster.replicas:
            if replica.last_committed_block != warmups[-1].number:
                return f"{replica.name} fell behind during warm-up"

        # -- crash the primary mid-commit at exactly this site -----------
        pipeline = cluster.service.executor.durability
        with crashing_at(site, report, "crashed commit") as injector:
            pipeline.crash = pipeline.journal.crash = injector
            cluster.ingest_block(crash_block, tx_hashes=crash_hashes)
        pipeline.crash = pipeline.journal.crash = None

        # -- detect, elect, promote --------------------------------------
        now = cluster.service.sim_time_us
        cluster.fail_primary(now)
        lost_at = now + policy.heartbeat_timeout_us + 1.0
        if not cluster.controller.primary_lost(lost_at):
            return "heartbeat timeout never detected"
        with failing_as("failover", ReplicationError):
            promotion = cluster.failover(lost_at)
        report.failovers += 1
        total_us = promotion.total_us
        if report.min_failover_us == 0.0 or total_us < report.min_failover_us:
            report.min_failover_us = total_us
        report.max_failover_us = max(report.max_failover_us, total_us)
        if total_us < policy.heartbeat_timeout_us:
            return "failover time excludes the detection window"

        expected, want_fp, want_root = boundary.at(site)
        want_blocks = len(warmups) + (0 if expected == "pre" else 1)
        if cluster.service.world.fingerprint() != want_fp:
            return (
                f"promoted state is not the expected {expected}-crash state "
                f"(sealed blocks were lost or invented: RPO violated)"
            )
        if promotion.blocks_preserved != want_blocks:
            return (
                f"promotion preserved {promotion.blocks_preserved} blocks, "
                f"expected {want_blocks}"
            )
        if (
            want_root is not None
            and cluster.service.world.state_root() != want_root
        ):
            return f"promoted MPT root differs from the {expected} root"

        # -- the zombie window: a deposed primary keeps writing -----------
        survivors = cluster.healthy_replicas()
        survivor_fps = {r.name: r.world.fingerprint() for r in survivors}
        with failing_as("zombie commit"):
            cluster.previous_service.ingest_block(
                crash_block, tx_hashes=crash_hashes
            )
        for replica in survivors:
            before = replica.stale_frames_rejected
            try:
                replica.poll(lost_at, max_frames=0)
            except Exception as exc:  # noqa: BLE001 — any raise here is a bug
                return f"{replica.name} raised on zombie frames: {exc}"
            rejected = replica.stale_frames_rejected - before
            if rejected == 0:
                return f"{replica.name} accepted a deposed primary's frames"
            if not any(isinstance(e, StaleEpoch) for e in replica.stale_rejections):
                return f"{replica.name} kept no typed StaleEpoch evidence"
            if replica.world.fingerprint() != survivor_fps[replica.name]:
                return f"zombie frames mutated {replica.name}'s state"
            report.stale_frames_rejected += rejected

        # -- converge: re-queue the lost block, survivors follow the new feed
        cluster.rebase_survivors()
        with failing_as("post-failover serving", ReplicationError):
            if expected == "pre":
                cluster.ingest_block(crash_block, tx_hashes=crash_hashes)
                report.requeued_blocks += 1
            else:
                cluster.poll_replicas(lost_at)
        if cluster.service.world.fingerprint() != post_fp:
            return "promoted chain did not converge to the full reference"
        for replica in cluster.healthy_replicas():
            if replica.last_committed_block != crash_block.number:
                return f"{replica.name} did not follow the promoted primary's feed"
            if replica.world.fingerprint() != post_fp:
                return f"{replica.name} diverged on the promoted feed"
        return None

    return run_sweep(
        report,
        executors,
        prepare,
        check,
        metrics,
        ("replication_sweeps_total", "replication_failed_sweeps_total"),
    )


# ----------------------------------------------------------- chaos hazards
#
# Each returns ``(certification, counters, faults injected)``.  The chaos
# harness calls every hazard with the same keywords (``chain``, ``block``,
# ``seed``, ``threads``, ``check_roots``, ``metrics``); these build their
# cluster from the seed alone and take what they use.


_SCENARIO_EXECUTOR = "parallelevm"


def _scenario_cluster(
    fixture: _Fixture,
    threads: int,
    metrics,
    *,
    policy: FailoverPolicy | None = None,
) -> ReplicatedChainService:
    return ReplicatedChainService(
        fixture.chainlike(),
        _SCENARIO_EXECUTOR,
        ClusterConfig(
            replicas=2, threads=threads, policy=policy or FailoverPolicy()
        ),
        metrics=metrics,
    )


def _certify(fixture: _Fixture, mode: str, problems: list[str]) -> CertificationReport:
    """The targeted hazards pin one executor; each problem is a divergence."""
    return CertificationReport(
        block_number=fixture.blocks[0].number,
        tx_count=sum(len(b.txs) for b in fixture.blocks),
        executors=[_SCENARIO_EXECUTOR],
        divergences=[
            Divergence(_SCENARIO_EXECUTOR, mode, detail) for detail in problems
        ],
    )


def _fail_over(cluster: ReplicatedChainService, problems: list[str]):
    """Kill the primary and promote after the heartbeat timeout; the
    promotion report, or None (with the reason noted) when failover raised."""
    now = cluster.service.sim_time_us
    cluster.fail_primary(now)
    try:
        return cluster.failover(
            now + cluster.controller.policy.heartbeat_timeout_us + 1.0
        )
    except (ReplicationError, DurabilityError, RecoveryError) as exc:
        problems.append(f"failover raised {exc}")
        return None


def _primary_crash_scenario(*, seed, threads, check_roots, metrics, **_):
    """The full failover sweep: every crash site × every executor config."""
    return failover_sweep(
        fuzz_seed=seed, threads=threads, check_roots=check_roots, metrics=metrics
    ).chaos_outcome()


def _laggy_replica_scenario(*, seed, threads, metrics, **_):
    """A replica consuming one frame per poll must trip the lag budget —
    and still converge once drained."""
    fixture = _fixture(seed, blocks=5, txs_per_block=6)
    policy = FailoverPolicy(lag_budget_blocks=2)
    cluster = _scenario_cluster(fixture, threads, metrics, policy=policy)
    laggard = next(r for r in cluster.replicas if r.name == "replica-1")
    laggard.max_frames_per_poll = 1
    problems: list[str] = []
    flagged = 0
    for block in fixture.blocks:
        cluster.ingest_block(block, tx_hashes=_synthetic_hashes(block))
        if any(r.name == "replica-1" for r in cluster.laggards()):
            flagged += 1
        if any(r.name == "replica-0" for r in cluster.laggards()):
            problems.append("the healthy replica tripped the lag budget")
    if flagged == 0:
        problems.append("the laggy replica never tripped the lag budget")
    max_lag = laggard.lag_blocks(cluster.service.height - 1)
    laggard.poll(cluster.service.sim_time_us, max_frames=0)
    tip_fp = cluster.service.world.fingerprint()
    for replica in cluster.replicas:
        if replica.world.fingerprint() != tip_fp:
            problems.append(
                f"{replica.name} did not converge to the primary's state"
            )
    return (
        _certify(fixture, "laggy-replica", problems),
        {"laggard_flags": float(flagged), "max_lag_blocks": float(max_lag)},
        float(flagged),
    )


def _corrupt_feed_scenario(*, seed, threads, metrics, **_):
    """One replica's feed link corrupts a byte: typed quarantine, flight
    dump, and failover onto the intact replica still preserves everything."""
    fixture = _fixture(seed, blocks=3, txs_per_block=6)
    cluster = _scenario_cluster(fixture, threads, metrics)
    problems: list[str] = []
    for block in fixture.blocks[:-1]:
        cluster.ingest_block(block, tx_hashes=_synthetic_hashes(block))
    last = fixture.blocks[-1]
    victim = cluster.replicas[0]
    pre_len = len(cluster.feed)
    cluster.service.ingest_block(last, tx_hashes=_synthetic_hashes(last))
    region = len(cluster.feed) - pre_len
    # Flip a payload byte of the region's first frame: CRC must catch it.
    victim.flip_feed_byte = pre_len + 8 + (seed % 8 if region > 16 else 0)
    cluster.poll_replicas(cluster.service.sim_time_us)
    if victim.state != "quarantined":
        problems.append("corrupted frame bytes were not detected")
    elif victim.flight.triggered == 0:
        problems.append("quarantine did not dump the flight recorder")
    promotion = _fail_over(cluster, problems)
    if promotion is None:
        return _certify(fixture, "corrupt-feed", problems), {}, 1.0
    states = _serial_states(
        fixture.fuzzer.chain.fresh_world(), fixture.blocks, False
    )
    if promotion.promoted != "replica-1":
        problems.append(
            f"promotion picked {promotion.promoted}, not the intact replica"
        )
    if cluster.service.world.fingerprint() != states[-1][0]:
        problems.append("promoted state lost blocks despite an intact replica")
    counters = {
        "quarantines": 1.0 if victim.state == "quarantined" else 0.0,
        "blocks_preserved": float(promotion.blocks_preserved),
    }
    return _certify(fixture, "corrupt-feed", problems), counters, 1.0


def _divergent_replica_scenario(*, seed, threads, metrics, **_):
    """A replica whose replay silently corrupts one block must be caught by
    the sealed-root check, quarantined, and excluded from promotion."""
    fixture = _fixture(seed, blocks=3, txs_per_block=6)
    cluster = _scenario_cluster(fixture, threads, metrics)
    problems: list[str] = []
    victim = cluster.replicas[0]
    victim.corrupt_block = fixture.blocks[1].number
    for block in fixture.blocks:
        cluster.ingest_block(block, tx_hashes=_synthetic_hashes(block))
    if victim.state != "quarantined" or not isinstance(
        victim.error, ReplicaDivergence
    ):
        problems.append("a corrupted replay was not caught by root verification")
    elif not victim.flight.dumps:
        problems.append("divergence quarantine did not dump the flight recorder")
    promotion = _fail_over(cluster, problems)
    if promotion is None:
        return _certify(fixture, "divergent-replica", problems), {}, 1.0
    if promotion.promoted == victim.name:
        problems.append("promotion elected the quarantined replica")
    states = _serial_states(
        fixture.fuzzer.chain.fresh_world(), fixture.blocks, False
    )
    if cluster.service.world.fingerprint() != states[-1][0]:
        problems.append(
            "the promoted replica's state differs from the serial reference"
        )
    counters = {
        "divergences_caught": 1.0
        if isinstance(victim.error, ReplicaDivergence)
        else 0.0,
        "blocks_preserved": float(promotion.blocks_preserved),
    }
    return _certify(fixture, "divergent-replica", problems), counters, 1.0


# ``kind="replication"`` scenarios select a hazard by ``mode``.
REPLICATION_HAZARDS = {
    "primary-crash": _primary_crash_scenario,
    "laggy-replica": _laggy_replica_scenario,
    "corrupt-feed": _corrupt_feed_scenario,
    "divergent-replica": _divergent_replica_scenario,
}
