"""The two block grammars that predate ``BlockFold``: test oracles.

``group_blocks`` is the one ``repro.durability.recovery`` ran for
``recover`` and ``ReorgManager`` before both folded through one state
machine, moved here verbatim.  :class:`ReplicaReference` holds the protocol
decisions of ``ReplicaService._handle`` / ``_handle_begin`` /
``_handle_commit`` / ``_handle_seal`` / ``_handle_checkpoint`` from the
same time, verbatim except that they keep no journal of their own (no raw
frame is appended, no shipped snapshot written, nothing pruned), count
nothing, corrupt nothing, and raise the quarantine error where the replica
called ``_corrupt_feed`` / ``_diverge`` with the same offset and detail.
Epoch fencing and skip-to-snapshot stay in, as they were.

The two disagree on three inputs, which is why they were merged:

- a CHECKPT inside an uncommitted block is a violation to ``group_blocks``
  and nothing to the replica, which keeps streaming the block;
- a second COMMIT is accepted by ``group_blocks`` and applies the block a
  second time in the replica;
- a TXWRITE (or SETTLE, UNDO) after COMMIT extends the block in both, so
  ``recover`` fails its digest check while the replica, which applied at
  COMMIT, absorbs it.

Tests only; nothing under ``src/`` imports this module.
"""

from __future__ import annotations

from repro.durability.journal import (
    BeginRecord,
    CheckpointRecord,
    CommitRecord,
    SealRecord,
    SettleRecord,
    TxWriteRecord,
    UndoRecord,
)
from repro.durability.recovery import ReplayedBlock
from repro.errors import JournalCorruptionError, ReplicaDivergence
from repro.sim.cost import DEFAULT_COST_MODEL


def group_blocks(records) -> tuple[list[ReplayedBlock], int | None]:
    """Fold a record stream into per-block structures.

    Returns ``(blocks, corrupt_offset)``: ``corrupt_offset`` is the offset
    of the first record that violates the BEGIN/COMMIT protocol (e.g. a
    BEGIN inside an open block), or None.  ``records`` is the
    ``(offset, record)`` frame list from :func:`scan_journal`.
    """
    blocks: list[ReplayedBlock] = []
    open_block: ReplayedBlock | None = None

    def close_committed() -> bool:
        """Fold a committed (possibly seal-less) open block into the list.

        A committed block without a SEAL is legitimate history: the
        process died between the marker and the seal, recovery replayed
        it, and journaling continued behind it.
        """
        nonlocal open_block
        if open_block is not None and open_block.committed:
            blocks.append(open_block)
            open_block = None
        return open_block is None

    for offset, record in records:
        if isinstance(record, BeginRecord):
            if not close_committed():
                return blocks, offset
            open_block = ReplayedBlock(
                number=record.block_number,
                begin_offset=offset,
                pre_root=record.pre_root,
            )
        elif isinstance(record, CheckpointRecord):
            if not close_committed():
                return blocks, offset
        elif open_block is None or record.block_number != open_block.number:
            return blocks, offset
        elif isinstance(record, TxWriteRecord):
            open_block.writes.update(record.writes)
        elif isinstance(record, SettleRecord):
            open_block.writes.update(record.writes)
        elif isinstance(record, UndoRecord):
            open_block.undo = record.preimages
        elif isinstance(record, CommitRecord):
            open_block.committed = True
            open_block.delta_digest = record.delta_digest
        elif isinstance(record, SealRecord):
            if not open_block.committed:
                return blocks, offset
            open_block.post_root = record.post_root
            blocks.append(open_block)
            open_block = None
    if open_block is not None:
        blocks.append(open_block)
    return blocks, None


class ReplicaReference:
    """The replica's record handlers, over a bootstrapped world.

    ``world`` and ``last_committed_block`` are what the replica's bootstrap
    restored; ``handle`` takes each feed frame's record and offset in turn.
    """

    def __init__(self, world, last_committed_block, fence_epoch) -> None:
        self.world = world
        self.cost_model = DEFAULT_COST_MODEL
        self.fence_epoch = fence_epoch
        self.last_committed_block = last_committed_block
        self.last_sealed_block = last_committed_block
        self.blocks_applied = 0
        self.apply_us = 0.0
        self.stale_frames_rejected = 0
        self._open: ReplayedBlock | None = None
        self._stale_block: int | None = None
        self._stale_epoch = 0
        self._skip_block: int | None = None

    def _corrupt_feed(self, offset: int, detail: str):
        raise JournalCorruptionError(offset, detail)

    def _diverge(self, block_number: int, detail: str):
        raise ReplicaDivergence("reference", block_number, detail)

    def _reject_stale(self, block_number: int, epoch: int) -> None:
        self.stale_frames_rejected += 1

    def handle(self, record, offset: int) -> None:
        if isinstance(record, BeginRecord):
            self._handle_begin(record, offset)
            return
        number = record.block_number
        if self._stale_block is not None and number == self._stale_block:
            # The rest of a fenced-off block's frames.
            self._reject_stale(number, self._stale_epoch)
            return
        if self._skip_block is not None and number == self._skip_block:
            if isinstance(record, CheckpointRecord):
                self._skip_block = None
            return
        if isinstance(record, CheckpointRecord):
            self._handle_checkpoint(record)
            return
        open_block = self._open
        if open_block is None or number != open_block.number:
            self._corrupt_feed(
                offset,
                "record sequence violates the BEGIN/COMMIT protocol",
            )
        if isinstance(record, (TxWriteRecord, SettleRecord)):
            open_block.writes.update(record.writes)
        elif isinstance(record, UndoRecord):
            pass  # preserved on our journal for reorg-capable promotion
        elif isinstance(record, CommitRecord):
            self._handle_commit(record, open_block)
        elif isinstance(record, SealRecord):
            self._handle_seal(record, open_block, offset)

    def _handle_begin(self, record: BeginRecord, offset: int) -> None:
        if record.epoch < self.fence_epoch:
            self._stale_block = record.block_number
            self._stale_epoch = record.epoch
            self._skip_block = None
            self._reject_stale(record.block_number, record.epoch)
            return
        self._stale_block = None
        if self._open is not None:
            if self._open.committed:
                # A committed, seal-less predecessor is legitimate history
                # (its writes applied at COMMIT); close it and move on.
                self._open = None
            else:
                self._corrupt_feed(offset, "BEGIN inside an uncommitted block")
        if (
            self.last_committed_block is not None
            and record.block_number <= self.last_committed_block
        ):
            # Frames already folded into our bootstrap snapshot.
            self._skip_block = record.block_number
            return
        self._skip_block = None
        self._open = ReplayedBlock(
            number=record.block_number,
            begin_offset=offset,
            pre_root=record.pre_root,
        )

    def _handle_commit(self, record: CommitRecord, block: ReplayedBlock) -> None:
        block.delta_digest = record.delta_digest
        cost = block.apply_verified(self.world, self.cost_model)
        if cost is None:
            self._diverge(
                block.number,
                "replayed delta does not match the COMMIT marker's digest",
            )
        self.apply_us += cost
        block.committed = True
        self.last_committed_block = block.number
        self.blocks_applied += 1

    def _handle_seal(
        self, record: SealRecord, block: ReplayedBlock, offset: int
    ) -> None:
        if not block.committed:
            self._corrupt_feed(offset, "SEAL before the COMMIT marker")
        block.post_root = record.post_root
        if not block.seal_matches(self.world):
            self._diverge(
                block.number,
                "post-apply state fingerprint does not match the sealed root",
            )
        self.last_sealed_block = block.number
        self._open = None

    def _handle_checkpoint(self, record: CheckpointRecord) -> None:
        if self._open is not None and self._open.committed:
            self._open = None
