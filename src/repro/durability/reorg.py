"""Chain-reorg rollback driven by journaled undo preimages.

A reorg rewinds the canonical chain N blocks and replaces them with a fork
branch.  The journal's UNDO records make the rewind exact: each committed
block carries the pre-block value of every key it wrote, so reverse-applying
them (tip first) reproduces the pre-block state bit-for-bit — verified at
every step against the BEGIN record's journaled pre-state fingerprint.

Undo history reaches exactly back to the last checkpoint (pruning drops
older frames), so a rollback deeper than the journal — or deeper than
``RecoveryPolicy.max_reorg_depth`` — raises
:class:`~repro.errors.ReorgDepthExceeded` instead of guessing.

After the rewind the caller executes the fork branch and commits each fork
block through the same :class:`~repro.durability.commit.DurableCommitPipeline`,
so the post-reorg journal is indistinguishable from one where the fork was
always canonical (and is itself crash-recoverable).
"""

from __future__ import annotations

from ..errors import JournalCorruptionError, RecoveryError, ReorgDepthExceeded
from ..resilience.policy import RecoveryPolicy
from ..state.world import WorldState
from .recovery import BlockFold, ReplayedBlock


class ReorgManager:
    """Rolls the world (and journal) back N blocks.

    Parameters
    ----------
    pipeline:
        The :class:`~repro.durability.commit.DurableCommitPipeline` whose
        journal holds the undo history (and through which the caller
        commits the fork blocks).
    policy:
        A :class:`~repro.resilience.policy.RecoveryPolicy`;
        ``max_reorg_depth`` bounds how far a rollback may reach.
    metrics:
        Optional metrics registry for ``durability_reorg_blocks``.
    """

    def __init__(
        self,
        pipeline,
        policy: RecoveryPolicy | None = None,
        metrics=None,
    ) -> None:
        self.pipeline = pipeline
        self.policy = policy if policy is not None else RecoveryPolicy()
        self.metrics = metrics

    # ------------------------------------------------------------- rollback

    def _committed_blocks(self) -> list[ReplayedBlock]:
        fold = BlockFold()
        committed = []
        for offset, record in self.pipeline.journal.scan().frames:
            try:
                closed = fold.push(offset, record)
            except JournalCorruptionError:
                raise RecoveryError(
                    f"cannot reorg over a corrupt journal (violation at byte "
                    f"{offset}); run recovery first"
                ) from None
            if closed is not None:
                committed.append(closed)
        if fold.open is not None and fold.open.committed:
            committed.append(fold.open)
        return committed

    def rollback(self, world: WorldState, to_block: int) -> list[int]:
        """Rewind ``world`` so ``to_block`` is the tip again.

        Undoes every committed block with a higher number, tip first,
        verifying the journaled post- and pre-state fingerprints around
        each step, then truncates the journal at the first undone block's
        BEGIN frame.  Returns the undone block numbers (tip first).
        Raises :class:`ReorgDepthExceeded` when the rollback is deeper
        than policy allows or than the journal's (possibly pruned) undo
        history reaches.
        """
        committed = self._committed_blocks()
        to_undo = [block for block in committed if block.number > to_block]
        if not to_undo:
            return []

        tip = committed[-1].number
        requested = tip - to_block
        if requested > self.policy.max_reorg_depth:
            raise ReorgDepthExceeded(requested, self.policy.max_reorg_depth)
        # History must be contiguous down to to_block: checkpoint pruning
        # drops undo frames, and a rollback across the gap cannot be exact.
        if to_undo[0].number != to_block + 1 or len(to_undo) != requested:
            raise ReorgDepthExceeded(requested, len(to_undo))

        undone: list[int] = []
        for block in reversed(to_undo):
            if block.post_root is not None and world.fingerprint() != block.post_root:
                raise RecoveryError(
                    f"block {block.number}: world state does not match the "
                    f"sealed root; refusing to roll back from unknown state"
                )
            world.apply(block.undo)
            if world.fingerprint() != block.pre_root:
                raise RecoveryError(
                    f"block {block.number}: undo preimages did not restore "
                    f"the journaled pre-state fingerprint"
                )
            undone.append(block.number)

        # Drop the undone blocks' frames: journal history and world state
        # move together, so a crash right here recovers to exactly to_block.
        self.pipeline.journal.truncate(to_undo[0].begin_offset)
        if self.metrics is not None:
            self.metrics.counter("durability_reorg_blocks").inc(len(undone))
            self.metrics.counter("durability_reorgs").inc()
        return undone
