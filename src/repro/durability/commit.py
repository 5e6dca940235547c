"""The atomic block-commit protocol: journal first, world state second.

``DurableCommitPipeline.commit`` is the only sanctioned way to fold a
finished :class:`~repro.concurrency.base.BlockResult` into a
:class:`~repro.state.world.WorldState` when durability is on.  The order
of operations is the whole contract:

1. **Journal the block** — BEGIN (with the pre-state fingerprint), one
   TXWRITE per transaction in block order, a SETTLE record for the
   block-level fee residual, and an UNDO record holding the pre-block
   value of every written key (the reorg manager's raw material).
2. **fsync, then COMMIT** — the marker is the atomicity point.  A crash
   any earlier leaves an unterminated block that recovery discards; a
   crash any later leaves a committed block that recovery replays.
3. **Apply to the world state** — only now is the in-memory state
   mutated, and a SEAL record with the post-apply fingerprint closes the
   block so recovery can verify its replay byte-for-byte.
4. **Checkpoint** (every ``checkpoint_interval`` committed blocks) — a
   CRC-framed snapshot, a CHECKPT marker, then journal pruning.

All I/O costs are charged in *simulated* microseconds through the
:class:`~repro.sim.cost.CostModel` (``journal_byte_us``, ``fsync_us``,
``snapshot_key_us``) and mirrored into ``durability_*`` metrics when a
registry is attached; with no pipeline attached executors run the exact
pre-durability commit path, so benchmark makespans are untouched.
"""

from __future__ import annotations

import hashlib

from ..sim.cost import DEFAULT_COST_MODEL, CostModel
from ..state.world import WorldState
from .checkpoint import SnapshotEncoder, prune_behind_snapshot, snapshot_cost_us
from .journal import (
    BeginRecord,
    CheckpointRecord,
    CommitRecord,
    SealRecord,
    SettleRecord,
    TxWriteRecord,
    UndoRecord,
    WriteAheadJournal,
)
from .medium import MemoryMedium

_MISSING = object()


def publish_order(writes) -> list:
    """The deterministic order a block's committed keys become visible in.

    The commit pipeline walks keys in sorted order everywhere it matters —
    undo preimages, the crash-site apply, the delta digest — and the
    multi-block pipeline's read barrier (:mod:`repro.pipeline.driver`)
    models exactly this: a reader of an in-flight key waits for the
    fraction of the commit that precedes its key here, not for the whole
    commit.
    """
    return sorted(writes)


def delta_digest(pre_root: bytes, writes: dict) -> bytes:
    """A commitment to (pre-state, block delta), checkable before apply.

    Recovery recomputes this from the replayed TXWRITE+SETTLE records and
    compares it against the COMMIT marker — a cheap end-to-end check that
    the reconstructed delta is exactly the one the committer journaled,
    independent of the per-frame CRCs.
    """
    hasher = hashlib.blake2b(digest_size=16)
    hasher.update(pre_root)
    for key, value in sorted(writes.items()):
        hasher.update(repr(key).encode())
        hasher.update(repr(value).encode())
    return hasher.digest()


class DurableCommitPipeline:
    """Crash-consistent block commits over a durable medium.

    Parameters
    ----------
    medium:
        A :class:`MemoryMedium`/:class:`FileMedium`; defaults to a fresh
        in-memory medium.
    cost_model:
        Source of the simulated journal/fsync/snapshot costs.
    checkpoint_interval:
        Snapshot every N committed blocks (0 disables checkpoints, the
        default — the journal then reaches back to genesis).
    crash:
        Optional :class:`~repro.durability.crash.CrashInjector` for the
        crash fuzzer.
    metrics:
        Optional metrics registry; ``None`` keeps every counter update off
        the commit path.
    epoch:
        The fencing epoch stamped into every BEGIN frame (see
        :class:`~repro.durability.journal.BeginRecord`).  0 — the default —
        is an unreplicated node; the replication layer hands each promoted
        primary a strictly larger epoch so replicas can fence off frames
        from its predecessors.
    """

    def __init__(
        self,
        medium=None,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        checkpoint_interval: int = 0,
        crash=None,
        metrics=None,
        epoch: int = 0,
    ) -> None:
        self.medium = medium if medium is not None else MemoryMedium()
        self.cost_model = cost_model
        self.checkpoint_interval = checkpoint_interval
        self.crash = crash
        self.metrics = metrics
        self.epoch = epoch
        self.journal = WriteAheadJournal(self.medium, crash=crash)
        # Long-lived, so each checkpoint re-encodes only the entries written
        # since the previous one.
        self._snapshots = SnapshotEncoder()
        self.blocks_committed = 0
        self.commit_us_total = 0.0
        self.fsyncs = 0
        # The reader-visible portion of the last commit: journaling the
        # block body publishes each write to the in-memory buffer as its
        # record lands, so a pipelined reader of an in-flight key waits at
        # most this long (the fsync/marker/seal tail is durability-only —
        # no reader ever needs it).  repro.pipeline uses this to size the
        # cross-block read barrier.
        self.last_publish_us = 0.0
        # High-water marks for incremental metric publication.
        self._published_records = 0
        self._published_bytes = 0
        self._published_fsyncs = 0

    # ------------------------------------------------------------- helpers

    def _fsync(self) -> float:
        self.fsyncs += 1
        return self.cost_model.fsync_us

    def _count(self, name: str, amount: float = 1) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).inc(amount)

    # -------------------------------------------------------------- commit

    def commit(self, world: WorldState, block_number: int, result) -> float:
        """Durably commit ``result`` (a BlockResult) to ``world``.

        Returns the simulated time the durable commit cost on top of the
        executor's makespan.  Raises :class:`SimulatedCrash` only under an
        armed crash injector.
        """
        cost = self.cost_model
        writes = result.writes
        crash = self.crash
        elapsed = 0.0

        # --- 1. journal the block (redo image + undo preimages) ----------
        pre_root = world.fingerprint()
        preimages = {key: world.peek(key) for key in publish_order(writes)}
        elapsed += self.journal.append(
            BeginRecord(block_number, len(result.tx_results), pre_root, self.epoch),
            site="begin",
        ) * cost.journal_byte_us

        # Per-transaction redo records, in block order.  Replaying them
        # last-writer-wins and then folding in the settle residual must
        # reproduce ``writes`` exactly; the residual is computed against a
        # dry replay so that holds by construction.
        replayed: dict = {}
        for tx_result in sorted(result.tx_results, key=lambda r: r.tx.tx_index):
            tx_writes = tx_result.write_set
            elapsed += self.journal.append(
                TxWriteRecord(block_number, tx_result.tx.tx_index, tx_writes),
                site=f"txwrite:{tx_result.tx.tx_index}",
            ) * cost.journal_byte_us
            replayed.update(tx_writes)

        settle = {
            key: value
            for key, value in writes.items()
            if replayed.get(key, _MISSING) != value
        }
        stray = [key for key in replayed if key not in writes]
        if stray:  # pragma: no cover - executor-contract violation
            from ..errors import DurabilityError

            raise DurabilityError(
                f"per-tx write sets name {len(stray)} key(s) absent from "
                f"the block delta; journal would not replay faithfully"
            )
        elapsed += self.journal.append(
            SettleRecord(block_number, settle), site="settle"
        ) * cost.journal_byte_us
        elapsed += self.journal.append(
            UndoRecord(block_number, preimages), site="undo"
        ) * cost.journal_byte_us
        # Everything journaled so far publishes the block's writes to the
        # in-memory buffer (readers can see them); the rest of the commit
        # only makes them durable.
        self.last_publish_us = elapsed

        # --- 2. fsync the body, then the atomicity marker -----------------
        elapsed += self._fsync()
        if crash is not None:
            crash.maybe_crash("pre-commit")
        # append() drives the torn:commit site (a crash mid-frame during
        # the marker — recovery sees a torn tail, the block never
        # committed); the post-commit site fires only once the marker is
        # fsync-durable.
        elapsed += self.journal.append(
            CommitRecord(block_number, delta_digest(pre_root, writes)),
            site="commit",
        ) * cost.journal_byte_us
        elapsed += self._fsync()
        if crash is not None:
            crash.maybe_crash("post-commit")

        # --- 3. apply to the world state ----------------------------------
        if crash is None:
            world.apply(writes)
        else:
            ordered = sorted(writes.items())
            half = len(ordered) // 2
            for index, (key, value) in enumerate(ordered):
                if index == half:
                    crash.maybe_crash("mid-apply")
                world.db.write(key, value)
            crash.maybe_crash("post-apply")
        elapsed += self.journal.append(
            SealRecord(block_number, world.fingerprint()), site="seal"
        ) * cost.journal_byte_us
        if crash is not None:
            crash.maybe_crash("sealed")

        # --- 4. checkpoint + prune ----------------------------------------
        self.blocks_committed += 1
        if (
            self.checkpoint_interval
            and self.blocks_committed % self.checkpoint_interval == 0
        ):
            elapsed += self._checkpoint(world, block_number)

        self.commit_us_total += elapsed
        if self.metrics is not None:
            self._count("durability_blocks_committed")
            self._count(
                "durability_journal_records",
                self.journal.records_written - self._published_records,
            )
            self._count(
                "durability_journal_bytes",
                self.journal.bytes_written - self._published_bytes,
            )
            self._count("durability_fsyncs", self.fsyncs - self._published_fsyncs)
            self._count("durability_commit_us", elapsed)
            self._published_records = self.journal.records_written
            self._published_bytes = self.journal.bytes_written
            self._published_fsyncs = self.fsyncs
        return elapsed

    def _checkpoint(self, world: WorldState, block_number: int) -> float:
        blob = self._snapshots.encode(world, block_number)
        crash = self.crash
        if crash is not None and crash.site == "mid-snapshot":
            # A torn snapshot: half the blob reaches the medium.  Recovery
            # must reject it by CRC and fall back to the previous snapshot
            # (or genesis) plus a longer journal replay.
            self.medium.write_snapshot(block_number, blob[: max(1, len(blob) // 2)])
            crash.crash("mid-snapshot")
        self.medium.write_snapshot(block_number, blob)
        self.fsyncs += 1
        elapsed = snapshot_cost_us(world, blob, self.cost_model)
        self.journal.append(CheckpointRecord(block_number), site=None)
        pruned = prune_behind_snapshot(self.journal, block_number)
        self._count("durability_checkpoints")
        self._count("durability_pruned_bytes", pruned)
        if crash is not None:
            crash.maybe_crash("post-snapshot")
        return elapsed
