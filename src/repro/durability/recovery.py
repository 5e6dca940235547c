"""Crash recovery: latest snapshot + committed-tail replay.

``recover`` rebuilds the world state from nothing but the durable medium
and a genesis factory:

1. restore the newest *valid* snapshot (torn/corrupt candidates — a bad
   CRC, an undecodable body — are skipped), or genesis when none exists;
2. scan the journal, truncating a torn tail (and, under the default
   ``corrupt_tail_policy="truncate"``, a corrupt interior — the degraded
   result is then exactly the last certified prefix);
3. fold the frames into blocks with :class:`BlockFold`, the journal's one
   block grammar (the reorg manager and a streaming replica fold through it
   too); a record out of grammar is corruption at its frame, cut there
   under the same policy;
4. replay every *committed* block in order — TXWRITE records in block
   order, then the SETTLE residual — verifying the COMMIT marker's delta
   digest before applying and the SEAL record's post-state fingerprint
   after;
5. discard an unterminated trailing block (BEGIN without COMMIT) and
   truncate its frames, so the journal left behind is again a clean
   prefix of history.

The result is the atomicity guarantee the crash fuzzer certifies: after a
crash at *any* site, the recovered state is the pre-block or post-block
state of the interrupted commit — never a torn hybrid.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import JournalCorruptionError, RecoveryError
from ..resilience.policy import RecoveryPolicy
from ..sim.cost import DEFAULT_COST_MODEL, CostModel
from ..state.world import WorldState
from .checkpoint import latest_valid_snapshot
from .commit import delta_digest
from .journal import (
    BeginRecord,
    CheckpointRecord,
    CommitRecord,
    SealRecord,
    UndoRecord,
    scan_journal,
)

PROTOCOL_VIOLATION = "record sequence violates the BEGIN/COMMIT protocol"


@dataclass(slots=True)
class ReplayedBlock:
    """One journaled block reconstructed from its frames.

    Built by :class:`BlockFold`, for recovery, reorg and a streaming
    replica alike; recovery and the replica replay it through
    :meth:`apply_verified` and :meth:`seal_matches`.
    """

    number: int
    begin_offset: int
    pre_root: bytes
    writes: dict = field(default_factory=dict)
    undo: dict = field(default_factory=dict)
    committed: bool = False
    delta_digest: bytes = b""
    post_root: bytes | None = None  # from the SEAL record, when present

    def apply_verified(self, world: WorldState, cost_model: CostModel) -> float | None:
        """Apply the writes to ``world`` if they match the COMMIT digest.

        Returns the simulated replay cost, or None (``world`` untouched).
        """
        if delta_digest(self.pre_root, self.writes) != self.delta_digest:
            return None
        world.apply(self.writes)
        return len(self.writes) * cost_model.commit_key_us + cost_model.fsync_us

    def seal_matches(self, world: WorldState) -> bool:
        """Whether ``world`` holds the SEAL record's post-state (or no SEAL)."""
        return self.post_root is None or world.fingerprint() == self.post_root


@dataclass(slots=True)
class RecoveryResult:
    """Everything ``recover`` learned while rebuilding the world."""

    world: WorldState
    last_committed_block: int | None
    blocks_replayed: int
    snapshot_block: int | None
    records_scanned: int
    truncated_bytes: int
    discarded_blocks: int
    corrupt_truncated: bool
    replay_us: float

    def describe(self) -> str:
        base = (
            f"recovered to block {self.last_committed_block}"
            if self.last_committed_block is not None
            else "recovered to genesis"
        )
        parts = [
            base,
            f"{self.blocks_replayed} block(s) replayed",
            f"{self.records_scanned} journal records",
        ]
        if self.snapshot_block is not None:
            parts.append(f"from snapshot @{self.snapshot_block}")
        if self.truncated_bytes:
            parts.append(f"{self.truncated_bytes} torn byte(s) truncated")
        if self.discarded_blocks:
            parts.append(f"{self.discarded_blocks} unterminated block(s) discarded")
        if self.corrupt_truncated:
            parts.append("corrupt interior truncated (degraded to prefix)")
        return ", ".join(parts)


class BlockFold:
    """The journal's block grammar, folded one frame at a time.

    ``open`` is the block streaming in.  BEGIN opens a block; TXWRITE,
    SETTLE and UNDO for its number extend it; COMMIT marks it committed;
    SEAL closes it.  A committed block may also be closed by the next BEGIN
    or CHECKPT: a committed, seal-less block is legitimate history (the
    process died between the marker and the seal, recovery replayed it,
    and journaling continued behind it).  After COMMIT only SEAL, BEGIN or
    CHECKPT may follow, the order :mod:`repro.durability.commit` writes.
    """

    __slots__ = ("open",)

    def __init__(self) -> None:
        self.open: ReplayedBlock | None = None

    def push(self, offset: int, record) -> ReplayedBlock | None:
        """Fold the record framed at ``offset``; returns the block it closes.

        A BEGIN's block keeps ``offset`` as its ``begin_offset``.  A record
        out of grammar raises :class:`JournalCorruptionError` at ``offset``
        and leaves the fold as it was.
        """
        block = self.open
        if isinstance(record, (BeginRecord, CheckpointRecord)):
            if block is not None and not block.committed:
                name = "BEGIN" if isinstance(record, BeginRecord) else "CHECKPT"
                raise JournalCorruptionError(
                    offset, f"{name} inside an uncommitted block"
                )
            self.open = None
            if isinstance(record, BeginRecord):
                self.open = ReplayedBlock(
                    record.block_number, offset, record.pre_root
                )
            return block
        if block is None or record.block_number != block.number:
            raise JournalCorruptionError(offset, PROTOCOL_VIOLATION)
        if isinstance(record, SealRecord):
            if not block.committed:
                raise JournalCorruptionError(offset, "SEAL before the COMMIT marker")
            block.post_root = record.post_root
            self.open = None
            return block
        if block.committed:
            raise JournalCorruptionError(offset, PROTOCOL_VIOLATION)
        if isinstance(record, CommitRecord):
            block.committed = True
            block.delta_digest = record.delta_digest
        elif isinstance(record, UndoRecord):
            block.undo = record.preimages
        else:  # TXWRITE or SETTLE
            block.writes.update(record.writes)
        return None


def recover(
    medium,
    genesis_factory,
    policy: RecoveryPolicy | None = None,
    cost_model: CostModel = DEFAULT_COST_MODEL,
    metrics=None,
) -> RecoveryResult:
    """Rebuild the world state from the durable medium.

    ``genesis_factory`` is a zero-argument callable returning a fresh
    genesis :class:`WorldState` (used when no valid snapshot exists).
    ``policy.corrupt_tail_policy`` decides whether a corrupt journal
    interior degrades to the last certified prefix (``"truncate"``, the
    default) or raises :class:`JournalCorruptionError` (``"raise"``).
    Every replayed block's delta is checked against its COMMIT digest and
    its post-state against its SEAL fingerprint; a mismatch is a
    :class:`RecoveryError` (the journal lies about state — no prefix can be
    certified past that point).
    """
    policy = policy if policy is not None else RecoveryPolicy()

    def reject() -> None:
        if metrics is not None:
            metrics.counter("durability_snapshots_rejected").inc()

    snapshot = latest_valid_snapshot(medium.read_snapshots(), reject)
    if snapshot is not None:
        snapshot_block, world = snapshot
    else:
        snapshot_block, world = None, genesis_factory()

    data = medium.read_journal()
    scan = scan_journal(data)
    corrupt_truncated = False
    truncated = 0
    if scan.tail_status == "corrupt":
        if policy.corrupt_tail_policy == "raise":
            raise JournalCorruptionError(scan.valid_length, scan.detail)
        corrupt_truncated = True
        if metrics is not None:
            metrics.counter("durability_corrupt_truncations").inc()
    if scan.valid_length < len(data):
        truncated = len(data) - scan.valid_length
        medium.truncate_journal(scan.valid_length)

    # Fold the whole scan before applying anything.  A violation cuts the
    # journal there; the block it left open is then the unterminated tail
    # (discarded below) or committed, seal-less history (replayed).
    fold = BlockFold()
    blocks: list[ReplayedBlock] = []
    frames = scan.frames
    for index, (offset, record) in enumerate(frames):
        try:
            closed = fold.push(offset, record)
        except JournalCorruptionError:
            if policy.corrupt_tail_policy == "raise":
                raise JournalCorruptionError(offset, PROTOCOL_VIOLATION) from None
            frames = frames[:index]
            corrupt_truncated = True
            truncated += medium.journal_size() - offset
            medium.truncate_journal(offset)
            if metrics is not None:
                metrics.counter("durability_corrupt_truncations").inc()
            break
        if closed is not None:
            blocks.append(closed)
    if fold.open is not None:
        blocks.append(fold.open)

    replay_us = 0.0
    blocks_replayed = 0
    discarded = 0
    last_committed = snapshot_block
    for block in blocks:
        if not block.committed:
            # The unterminated tail block: discard it and truncate its
            # frames so the journal ends on the last committed state.
            discarded += 1
            journal_len = medium.journal_size()
            if block.begin_offset < journal_len:
                truncated += journal_len - block.begin_offset
                medium.truncate_journal(block.begin_offset)
            continue
        if snapshot_block is not None and block.number <= snapshot_block:
            # Already folded into the snapshot; frames survive only when
            # the crash hit between snapshot write and journal pruning.
            continue
        cost = block.apply_verified(world, cost_model)
        if cost is None:
            raise RecoveryError(
                f"block {block.number}: replayed delta does not match the "
                f"COMMIT marker's digest"
            )
        replay_us += cost
        if not block.seal_matches(world):
            raise RecoveryError(
                f"block {block.number}: post-replay state fingerprint "
                f"does not match the sealed root"
            )
        blocks_replayed += 1
        last_committed = block.number

    result = RecoveryResult(
        world=world,
        last_committed_block=last_committed,
        blocks_replayed=blocks_replayed,
        snapshot_block=snapshot_block,
        records_scanned=len(frames),
        truncated_bytes=truncated,
        discarded_blocks=discarded,
        corrupt_truncated=corrupt_truncated,
        replay_us=replay_us,
    )
    if metrics is not None:
        metrics.counter("durability_recoveries").inc()
        metrics.counter("durability_recovered_blocks").inc(blocks_replayed)
        metrics.counter("durability_recovery_us").inc(replay_us)
        if truncated:
            metrics.counter("durability_truncated_bytes").inc(truncated)
        if discarded:
            metrics.counter("durability_discarded_blocks").inc(discarded)
    return result
