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

``run_replication_scenario`` adapts the sweep plus three targeted
hazards (laggy replica, corrupted feed link, divergent replica) into the
chaos harness's :class:`~repro.check.chaos.ChaosBlockReport` shape.
"""

from __future__ import annotations

import hashlib
from collections.abc import Sequence
from dataclasses import dataclass, field

from ..concurrency import SerialExecutor
from ..concurrency.registry import EXECUTOR_NAMES
from ..durability import (
    CrashInjector,
    SimulatedCrash,
    enumerate_crash_sites,
    site_expected_state,
)
from ..errors import (
    DurabilityError,
    RecoveryError,
    ReplicaDivergence,
    ReplicationError,
    StaleEpoch,
)
from ..replication import (
    ClusterConfig,
    FailoverPolicy,
    ReplicaConfig,
    ReplicatedChainService,
)
from ..workloads import Block, copy_block
from .certify import CertificationReport, Divergence, SweepReport
from .crashfuzz import ROOT_CHECK_SITES
from .fuzzer import BlockFuzzer, FuzzConfig
from .ingress import ingress_seed


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
    serial = SerialExecutor()
    world = chain_world
    states = []
    for block in blocks:
        world.apply(serial.execute_block(world, block.txs, block.env).writes)
        states.append(
            (world.fingerprint(), world.state_root() if check_roots else None)
        )
    return states


@dataclass(slots=True)
class _Fixture:
    """One eagerly-funded chain plus pre-generated, renumbered blocks."""

    fuzzer: BlockFuzzer
    blocks: list[Block]

    @property
    def base(self) -> int:
        return self.fuzzer.chain.env.number

    def chainlike(self):
        return _SweepChain(self.fuzzer.chain.fresh_world(), self.fuzzer.chain.env)


class _SweepChain:
    """The chain surface a cluster needs, over a per-run fresh world."""

    __slots__ = ("world", "env")

    def __init__(self, world, env) -> None:
        self.world = world
        self.env = env


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

    sites: list[str] = field(default_factory=list)
    crashes_injected: int = 0
    failovers: int = 0
    stale_frames_rejected: int = 0
    requeued_blocks: int = 0
    max_failover_us: float = 0.0
    min_failover_us: float = 0.0

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
    sites = enumerate_crash_sites(len(crash_block.txs), checkpoint=False)

    states = _serial_states(
        fixture.fuzzer.chain.fresh_world(), fixture.blocks, check_roots
    )
    pre_fp, pre_root = states[warmup_blocks - 1]
    post_fp, post_root = states[warmup_blocks]

    report = FailoverSweepReport(
        block_number=crash_block.number,
        tx_count=len(crash_block.txs),
        sites=sites,
    )

    for name in executors:
        report.executors.append(name)
        for site in sites:
            diverged = _sweep_one(
                name,
                site,
                fixture,
                warmups,
                crash_block,
                (pre_fp, pre_root),
                (post_fp, post_root),
                threads=threads,
                replicas=replicas,
                policy=policy,
                check_roots=check_roots,
                metrics=metrics,
                report=report,
            )
            if diverged is not None:
                report.divergences.append(diverged)

    if metrics is not None:
        metrics.counter("replication_sweeps_total").inc()
        if not report.ok:
            metrics.counter("replication_failed_sweeps_total").inc()
    return report


def _sweep_one(
    name: str,
    site: str,
    fixture: _Fixture,
    warmups: list[Block],
    crash_block: Block,
    pre_state,
    post_state,
    *,
    threads: int,
    replicas: int,
    policy: FailoverPolicy,
    check_roots: bool,
    metrics,
    report: FailoverSweepReport,
) -> Divergence | None:
    """One (executor, site) pair; returns a Divergence or None."""
    where = f"failover:{site}"
    pre_fp, pre_root = pre_state
    post_fp, post_root = post_state
    cluster = ReplicatedChainService(
        fixture.chainlike(),
        name,
        ClusterConfig(replicas=replicas, threads=threads, policy=policy),
        metrics=metrics,
    )
    try:
        for block in warmups:
            cluster.ingest_block(block, tx_hashes=_synthetic_hashes(block))
    except (DurabilityError, RecoveryError, ReplicationError) as exc:
        return Divergence(name, where, f"warm-up raised {exc}")
    for replica in cluster.replicas:
        if replica.last_committed_block != warmups[-1].number:
            return Divergence(
                name, where, f"{replica.name} fell behind during warm-up"
            )

    # -- crash the primary mid-commit at exactly this site ---------------
    injector = CrashInjector(site)
    pipeline = cluster.service.executor.durability
    pipeline.crash = injector
    pipeline.journal.crash = injector
    crash_hashes = _synthetic_hashes(crash_block)
    try:
        cluster.ingest_block(crash_block, tx_hashes=crash_hashes)
    except SimulatedCrash:
        pass
    except (DurabilityError, RecoveryError) as exc:
        return Divergence(name, where, f"crashed commit raised {exc}")
    if not injector.fired:
        return Divergence(name, where, "site never fired")
    report.crashes_injected += 1
    pipeline.crash = None
    pipeline.journal.crash = None

    # -- detect, elect, promote ------------------------------------------
    now = cluster.service.sim_time_us
    cluster.fail_primary(now)
    lost_at = now + policy.heartbeat_timeout_us + 1.0
    if not cluster.controller.primary_lost(lost_at):
        return Divergence(name, where, "heartbeat timeout never detected")
    try:
        promotion = cluster.failover(lost_at)
    except (ReplicationError, DurabilityError, RecoveryError) as exc:
        return Divergence(name, where, f"failover raised {exc}")
    report.failovers += 1
    total_us = promotion.total_us
    if report.min_failover_us == 0.0 or total_us < report.min_failover_us:
        report.min_failover_us = total_us
    report.max_failover_us = max(report.max_failover_us, total_us)
    if total_us < policy.heartbeat_timeout_us:
        return Divergence(
            name, where, "failover time excludes the detection window"
        )

    expected = site_expected_state(site)
    want_fp = pre_fp if expected == "pre" else post_fp
    want_blocks = len(warmups) + (0 if expected == "pre" else 1)
    promoted_fp = cluster.service.world.fingerprint()
    if promoted_fp != want_fp:
        return Divergence(
            name,
            where,
            f"promoted state is not the expected {expected}-crash state "
            f"(sealed blocks were lost or invented: RPO violated)",
        )
    if promotion.blocks_preserved != want_blocks:
        return Divergence(
            name,
            where,
            f"promotion preserved {promotion.blocks_preserved} blocks, "
            f"expected {want_blocks}",
        )
    if check_roots and site in ROOT_CHECK_SITES:
        want_root = pre_root if expected == "pre" else post_root
        if cluster.service.world.state_root() != want_root:
            return Divergence(
                name, where, f"promoted MPT root differs from the {expected} root"
            )

    # -- the zombie window: a deposed primary keeps writing ---------------
    survivors = cluster.healthy_replicas()
    survivor_fps = {r.name: r.world.fingerprint() for r in survivors}
    zombie = cluster.previous_service
    try:
        zombie.ingest_block(crash_block, tx_hashes=crash_hashes)
    except (DurabilityError, RecoveryError) as exc:
        return Divergence(name, where, f"zombie commit raised {exc}")
    for replica in survivors:
        before = replica.stale_frames_rejected
        try:
            replica.poll(lost_at, max_frames=0)
        except Exception as exc:  # noqa: BLE001 — any raise here is a bug
            return Divergence(
                name, where, f"{replica.name} raised on zombie frames: {exc}"
            )
        rejected = replica.stale_frames_rejected - before
        if rejected == 0:
            return Divergence(
                name, where, f"{replica.name} accepted a deposed primary's frames"
            )
        if not any(isinstance(e, StaleEpoch) for e in replica.stale_rejections):
            return Divergence(
                name, where, f"{replica.name} kept no typed StaleEpoch evidence"
            )
        if replica.world.fingerprint() != survivor_fps[replica.name]:
            return Divergence(
                name, where, f"zombie frames mutated {replica.name}'s state"
            )
        report.stale_frames_rejected += rejected

    # -- converge: re-queue the lost block, survivors follow the new feed -
    cluster.rebase_survivors()
    try:
        if expected == "pre":
            cluster.ingest_block(crash_block, tx_hashes=crash_hashes)
            report.requeued_blocks += 1
        else:
            cluster.poll_replicas(lost_at)
    except (DurabilityError, RecoveryError, ReplicationError) as exc:
        return Divergence(name, where, f"post-failover serving raised {exc}")
    if cluster.service.world.fingerprint() != post_fp:
        return Divergence(
            name, where, "promoted chain did not converge to the full reference"
        )
    for replica in cluster.healthy_replicas():
        if replica.last_committed_block != crash_block.number:
            return Divergence(
                name,
                where,
                f"{replica.name} did not follow the promoted primary's feed",
            )
        if replica.world.fingerprint() != post_fp:
            return Divergence(
                name, where, f"{replica.name} diverged on the promoted feed"
            )
    return None


# ------------------------------------------------------------- chaos modes


def run_replication_scenario(
    scenario,
    seed=0,
    threads: int = 4,
    check_roots: bool = True,
    metrics=None,
):
    """Run one ``kind="replication"`` chaos scenario.

    Returns a :class:`~repro.check.chaos.ChaosBlockReport`; the fuzzer
    block the generic harness passes around plays no role (reproduce with
    ``(scenario, seed)``, exactly like the ingress scenarios).
    """
    from .chaos import chaos_report

    mode = scenario.replication.get("mode", "primary-crash")
    seed_int = ingress_seed(seed)
    if mode == "primary-crash":
        sweep = failover_sweep(
            fuzz_seed=seed_int,
            threads=threads,
            check_roots=check_roots,
            metrics=metrics,
        )
        certification = sweep.certification
        counters = {
            "crash_sites": float(len(sweep.sites)),
            "failovers": float(sweep.failovers),
            "stale_frames_rejected": float(sweep.stale_frames_rejected),
            "requeued_blocks": float(sweep.requeued_blocks),
            "max_failover_us": sweep.max_failover_us,
        }
        faults = float(sweep.failovers)
    elif mode == "laggy-replica":
        certification, counters, faults = _laggy_replica_scenario(
            seed_int, threads, metrics
        )
    elif mode == "corrupt-feed":
        certification, counters, faults = _corrupt_feed_scenario(
            seed_int, threads, metrics
        )
    elif mode == "divergent-replica":
        certification, counters, faults = _divergent_replica_scenario(
            seed_int, threads, metrics
        )
    else:
        raise ValueError(f"unknown replication scenario mode {mode!r}")

    return chaos_report(scenario, seed, certification, counters, faults, metrics)


_SCENARIO_EXECUTOR = "parallelevm"


def _scenario_cluster(
    fixture: _Fixture,
    threads: int,
    metrics,
    *,
    policy: FailoverPolicy | None = None,
    replica_configs: dict[str, ReplicaConfig] | None = None,
) -> ReplicatedChainService:
    return ReplicatedChainService(
        fixture.chainlike(),
        _SCENARIO_EXECUTOR,
        ClusterConfig(
            replicas=2, threads=threads, policy=policy or FailoverPolicy()
        ),
        metrics=metrics,
        replica_configs=replica_configs,
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


def _laggy_replica_scenario(seed: int, threads: int, metrics):
    """A replica consuming one frame per poll must trip the lag budget —
    and still converge once drained."""
    fixture = _fixture(seed, blocks=5, txs_per_block=6)
    policy = FailoverPolicy(lag_budget_blocks=2)
    cluster = _scenario_cluster(
        fixture,
        threads,
        metrics,
        policy=policy,
        replica_configs={"replica-1": ReplicaConfig(max_frames_per_poll=1)},
    )
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
    laggard = next(r for r in cluster.replicas if r.name == "replica-1")
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


def _corrupt_feed_scenario(seed: int, threads: int, metrics):
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


def _divergent_replica_scenario(seed: int, threads: int, metrics):
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
