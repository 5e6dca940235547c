"""The crash fuzzer: certifying commit atomicity at every crash site.

``crash_sweep_block`` executes one block with every executor config, then
for each enumerated crash site of the durable commit path
(:func:`repro.durability.enumerate_crash_sites`) commits the result onto a
fresh world with a :class:`~repro.durability.crash.CrashInjector` armed on
exactly that site, lets the simulated process die, discards every live
object except the durable medium, and drives
:func:`repro.durability.recover`.  The certified invariant is binary:

    the recovered state fingerprint equals the **pre-block** state for
    every site up to and including the torn COMMIT marker, and the
    **post-block** state for every site after it — never anything else.

MPT state roots (the paper's §6.2 criterion) are additionally checked at
the two sites bracketing the atomicity boundary, where a torn hybrid would
hide if fingerprints ever collided.

``pipelined_crash_sweep_block`` extends the sweep to the multi-block
pipeline's hazard: block N+1 executes *speculatively* against N's
uncommitted overlay while N's durable commit is still in flight.  A crash
anywhere in N's commit must never let that speculative state reach
recovery — the recovered world is exactly pre-N or post-N, and a restarted
process resumes correctly from it: discarding the speculation and
re-executing both blocks when N was lost, or salvaging the speculative
result when N's commit survived.  Either way the resumed tip (and a second
recovery from the resumed journal) must match the serial reference of
N then N+1.

``reorg_roundtrip_block`` exercises the other consumer of the journal's
undo history: it commits an ancestor plus two canonical blocks durably,
rolls the chain back to the ancestor through
:class:`~repro.durability.reorg.ReorgManager`, re-executes the same
transactions as a single fork block, and verifies — per executor — that
the post-reorg state matches a serial reference of ancestor+fork and that
recovery from the post-reorg journal reproduces it.

Both entry points run per executor config (the seven the chaos suite
covers), so "atomic under crashes" is certified for every commit path, not
just the serial one.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from ..concurrency.registry import EXECUTOR_NAMES, make_executor
from ..durability import (
    DurableCommitPipeline,
    MemoryMedium,
    ReorgManager,
    enumerate_crash_sites,
    recover,
)
from ..errors import ReorgDepthExceeded
from ..workloads import Block, Chain, copy_block
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


def _crash_and_recover(
    chain: Chain,
    number: int,
    result,
    site: str,
    report,
    metrics,
    checkpoint_interval: int = 0,
):
    """Commit ``result`` with the process dying at ``site``, then recover.

    Everything but the durable medium is discarded between the two steps.
    Counts the crash and the recovery on ``report`` and returns ``(medium,
    recovered)``; raises ``_SiteFailed`` when either step misbehaves.
    """
    medium = MemoryMedium()
    with crashing_at(site, report, "commit") as crash:
        DurableCommitPipeline(
            medium,
            checkpoint_interval=checkpoint_interval,
            crash=crash,
            metrics=metrics,
        ).commit(chain.fresh_world(), number, result)
    with failing_as("recovery"):
        recovered = recover(medium, chain.fresh_world, metrics=metrics)
    report.recoveries += 1
    return medium, recovered


@dataclass(slots=True, kw_only=True)
class CrashSweepReport(SweepReport):
    """One block's crash sweep across sites × executor configs."""

    kind = "crash"

    def describe(self) -> str:
        head = (
            f"crash sweep block {self.block_number} ({self.tx_count} txs, "
            f"{len(self.sites)} sites x {len(self.executors)} executors, "
            f"{self.crashes_injected} crashes, {self.recoveries} recoveries): "
        )
        return self._verdict(head, "atomic at every site")


def crash_sweep_block(
    chain: Chain,
    block: Block,
    threads: int = 8,
    executors: Sequence[str] = EXECUTOR_NAMES,
    checkpoint_interval: int = 0,
    check_roots: bool = True,
    metrics=None,
) -> CrashSweepReport:
    """Certify commit atomicity of ``block`` at every crash site.

    Each executor config executes the block once (deterministically); its
    :class:`BlockResult` is then committed once per site onto a fresh
    world, crashed, and recovered.  ``checkpoint_interval=1`` makes the
    commit checkpoint, adding the snapshot crash sites to the sweep.
    ``check_roots`` upgrades the boundary sites' fingerprint comparison to
    full MPT root equality.
    """
    report = CrashSweepReport(
        block_number=block.number,
        tx_count=len(block),
        sites=enumerate_crash_sites(
            len(block.txs), checkpoint=checkpoint_interval == 1
        ),
    )
    root_genesis(chain, check_roots)
    pre = world_state(chain.fresh_world(), check_roots)

    def prepare(name: str):
        result = make_executor(name, threads).execute_block(
            chain.fresh_world(), block.txs, block.env
        )
        post_world = chain.fresh_world()
        post_world.apply(result.writes)
        return result, CommitBoundary(pre, world_state(post_world, check_roots))

    def check(prepared, site: str) -> str | None:
        result, boundary = prepared
        _medium, recovered = _crash_and_recover(
            chain,
            block.number,
            result,
            site,
            report,
            metrics,
            checkpoint_interval,
        )
        expected, want_fp, want_root = boundary.at(site)
        if recovered.world.fingerprint() != want_fp:
            return (
                f"recovered state is neither pre- nor the expected "
                f"{expected}-block state ({recovered.describe()})"
            )
        if want_root is not None and recovered.world.state_root() != want_root:
            return f"MPT root differs from the {expected}-block root"
        return None

    run_sweep(
        report,
        executors,
        prepare,
        check,
        metrics,
        ("crashfuzz_blocks_total", "crashfuzz_failed_blocks_total"),
    )
    if metrics is not None:
        metrics.counter("crashfuzz_crashes_total").inc(report.crashes_injected)
    return report


# ---------------------------------------------------------------- pipeline


@dataclass(slots=True, kw_only=True)
class PipelinedCrashSweepReport(SweepReport):
    """Crash sweep of block N's commit with block N+1 executing speculatively."""

    kind = "pipeline"
    speculations_discarded: int = 0
    speculations_salvaged: int = 0

    def describe(self) -> str:
        head = (
            f"pipelined crash sweep block {self.block_number} "
            f"({self.tx_count} txs, {len(self.sites)} sites x "
            f"{len(self.executors)} executors, "
            f"{self.crashes_injected} crashes, "
            f"{self.speculations_discarded} speculations discarded, "
            f"{self.speculations_salvaged} salvaged): "
        )
        return self._verdict(head, "no speculative state survived any crash")


def pipelined_crash_sweep_block(
    chain: Chain,
    block: Block,
    threads: int = 8,
    executors: Sequence[str] = EXECUTOR_NAMES,
    check_roots: bool = True,
    metrics=None,
) -> PipelinedCrashSweepReport:
    """Certify that pipelined speculation never contaminates recovery.

    ``block`` is split (contiguously, preserving per-sender nonce order)
    into blocks N and N+1.  Per executor config: N+1's result is computed
    speculatively against N's uncommitted write overlay — the multi-block
    pipeline's overlap — and *never* committed while N's durable commit is
    crashed at every enumerated site.  For each site the certified
    invariants are:

    1. recovery lands on exactly pre-N or post-N state per
       :func:`site_expected_state` — in particular never on the
       speculative N+1 overlay;
    2. a restarted process resumes from the recovered journal — discarding
       the speculation and re-executing both blocks after a pre-marker
       crash, salvaging the speculative result after a post-marker crash —
       and its tip matches the serial reference of N then N+1;
    3. a second recovery from the resumed journal reproduces that tip.
    """
    txs = block.txs
    if len(txs) < 2:
        raise ValueError("pipelined sweep needs at least 2 transactions")
    half = len(txs) // 2
    block_n = copy_block(block.number, txs[:half], block.env)
    block_n1 = copy_block(block.number + 1, txs[half:], block.env)

    report = PipelinedCrashSweepReport(
        block_number=block.number,
        tx_count=len(block),
        sites=enumerate_crash_sites(len(block_n.txs), checkpoint=False),
    )
    root_genesis(chain, check_roots)
    pre = world_state(chain.fresh_world(), check_roots)
    # Serial reference of the fully resumed chain: N then N+1.
    final_fp, final_root = world_state(
        apply_serially(chain.fresh_world(), block_n, block_n1), check_roots
    )

    def prepare(name: str):
        executor = make_executor(name, threads)
        result_n = executor.execute_block(
            chain.fresh_world(), block_n.txs, block_n.env
        )
        post_world = chain.fresh_world()
        post_world.apply(result_n.writes)
        boundary = CommitBoundary(pre, world_state(post_world, check_roots))

        # The pipeline overlap: N+1 executes against N's uncommitted
        # overlay while N's durable commit is in flight.  ``spec_fp`` is
        # the contaminated state recovery must never land on.
        spec_result = executor.execute_block(
            post_world, block_n1.txs, block_n1.env
        )
        spec_world = chain.fresh_world()
        spec_world.apply(result_n.writes)
        spec_world.apply(spec_result.writes)
        return executor, result_n, boundary, spec_result, spec_world.fingerprint()

    def check(prepared, site: str) -> str | None:
        executor, result_n, boundary, spec_result, spec_fp = prepared
        medium, recovered = _crash_and_recover(
            chain, block_n.number, result_n, site, report, metrics
        )
        expected, want_fp, want_root = boundary.at(site)
        world = recovered.world
        recovered_fp = world.fingerprint()
        if recovered_fp != want_fp:
            if recovered_fp == spec_fp:
                return "speculative N+1 state leaked into recovery"
            return (
                f"recovered state is not the expected "
                f"{expected}-block state ({recovered.describe()})"
            )
        if want_root is not None and world.state_root() != want_root:
            return f"MPT root differs from the {expected}-block root"

        # Resume: a restarted process continues journaling over the
        # recovered (truncated-clean) medium.
        resumed = DurableCommitPipeline(medium, metrics=metrics)
        with failing_as("resume"):
            if expected == "pre":
                # N never committed: the speculation ran against a
                # state that no longer exists — discard and redo both.
                for redo in (block_n, block_n1):
                    resumed.commit(
                        world,
                        redo.number,
                        executor.execute_block(world, redo.txs, redo.env),
                    )
                report.speculations_discarded += 1
            else:
                # N's commit survived: the recovered state is exactly
                # the overlay the speculation ran against — salvage it.
                resumed.commit(world, block_n1.number, spec_result)
                report.speculations_salvaged += 1
        if world.fingerprint() != final_fp:
            return "resumed tip differs from the serial N,N+1 reference"
        if check_roots and world.state_root() != final_root:
            return "resumed MPT root differs"
        with failing_as("post-resume recovery"):
            resumed_rec = recover(medium, chain.fresh_world, metrics=metrics)
        if resumed_rec.world.fingerprint() != final_fp:
            return (
                f"recovery from the resumed journal diverged "
                f"({resumed_rec.describe()})"
            )
        return None

    run_sweep(
        report,
        executors,
        prepare,
        check,
        metrics,
        (
            "crashfuzz_pipeline_blocks_total",
            "crashfuzz_failed_pipeline_blocks_total",
        ),
    )
    if metrics is not None:
        metrics.counter("crashfuzz_crashes_total").inc(report.crashes_injected)
    return report


# ------------------------------------------------------------------- reorg


@dataclass(slots=True, kw_only=True)
class ReorgRoundTripReport(SweepReport):
    """One block's reorg round trip across executor configs."""

    kind = "reorg"
    faults_counter = "rollbacks"
    depth: int
    rollbacks: int = 0

    def counters(self) -> dict[str, float]:
        return {
            "reorg_depth": float(self.depth),
            "rollbacks": float(self.rollbacks),
        }

    def describe(self) -> str:
        head = (
            f"reorg round trip block {self.block_number} "
            f"({self.tx_count} txs, depth {self.depth}, "
            f"{len(self.executors)} executors, {self.rollbacks} rollbacks): "
        )
        return self._verdict(head, "fork state matches the serial reference")


def reorg_roundtrip_block(
    chain: Chain,
    block: Block,
    threads: int = 8,
    executors: Sequence[str] = EXECUTOR_NAMES,
    check_roots: bool = True,
    metrics=None,
) -> ReorgRoundTripReport:
    """Certify undo-preimage rollback + fork re-execution per executor.

    ``block`` is split (contiguously, preserving per-sender nonce order)
    into an ancestor block A and two canonical blocks M1, M2; the fork
    branch F carries M1+M2's transactions as one block at M1's height.
    For every executor config: commit A, M1, M2 durably; roll back to A
    (verified against a serial reference of A); execute and commit F;
    verify the final state — and a recovery from the post-reorg journal —
    against a serial reference of A+F.
    """
    txs = block.txs
    third = max(1, len(txs) // 3)
    base = block.number
    ancestor = copy_block(base, txs[:third], block.env)
    main1 = copy_block(base + 1, txs[third : 2 * third], block.env)
    main2 = copy_block(base + 2, txs[2 * third :], block.env)
    fork = copy_block(base + 1, txs[third:], block.env)

    report = ReorgRoundTripReport(
        block_number=block.number, tx_count=len(block), depth=2
    )
    root_genesis(chain, check_roots)
    # Serial references: the ancestor state (the rollback target) and the
    # ancestor+fork state (the post-reorg tip).
    ref = apply_serially(chain.fresh_world(), ancestor)
    ancestor_fp = ref.fingerprint()
    fork_fp, fork_root = world_state(apply_serially(ref, fork), check_roots)

    def round_trip(executor, _site: None) -> str | None:
        medium = MemoryMedium()
        pipeline = DurableCommitPipeline(medium, metrics=metrics)
        world = chain.fresh_world()
        with failing_as("round trip", ReorgDepthExceeded):
            for canonical in (ancestor, main1, main2):
                result = executor.execute_block(
                    world, canonical.txs, canonical.env
                )
                pipeline.commit(world, canonical.number, result)

            manager = ReorgManager(pipeline, metrics=metrics)
            undone = manager.rollback(world, ancestor.number)
            report.rollbacks += 1
            if undone != [main2.number, main1.number]:
                return f"unexpected undo set {undone}"
            if world.fingerprint() != ancestor_fp:
                return (
                    "rolled-back state differs from the serial "
                    "ancestor reference"
                )

            result = executor.execute_block(world, fork.txs, fork.env)
            pipeline.commit(world, fork.number, result)

        if world.fingerprint() != fork_fp:
            return "post-reorg state differs from the serial A+F reference"
        if check_roots and world.state_root() != fork_root:
            return "post-reorg MPT root differs"
        recovered = recover(medium, chain.fresh_world, metrics=metrics)
        if recovered.world.fingerprint() != fork_fp:
            return (
                f"recovery from the post-reorg journal diverged "
                f"({recovered.describe()})"
            )
        return None

    # No crash sites: the engine runs the round trip once per executor.
    return run_sweep(
        report,
        executors,
        lambda name: make_executor(name, threads),
        round_trip,
        metrics,
        ("crashfuzz_reorg_roundtrips_total", "crashfuzz_failed_reorgs_total"),
    )
