"""The replica: incremental feed replay with independent verification.

A replica is a recovery loop that never finishes: it consumes the shipped
feed frame by frame, keeps its *own* durable journal (byte-identical
frames, pruned at checkpoints) and applies each block to its own world
with recovery's code — ``read_frame``, ``latest_valid_snapshot``,
``BlockFold`` (the one block grammar: a record sequence recovery rejects,
the replica rejects at the same frame), ``ReplayedBlock.apply_verified``
(COMMIT digest, then apply) and ``seal_matches`` (SEAL fingerprint),
``prune_behind_snapshot``; it knows no durable format of its own.  What
is its own is epoch fencing, skipping what its bootstrap snapshot already
holds, quarantine, copying raw frames to its journal and applying each
block at its COMMIT.  Because every executor is deterministic (the
Block-STM argument), a verified replica *certifies* the primary's output
rather than trusting it; any contradiction is a typed
:class:`~repro.errors.ReplicaDivergence`, the replica quarantines itself,
and its flight recorder dumps the evidence.

Three consumption outcomes at the feed tail are distinguished:

- an **incomplete frame** is a torn tail in progress (or a crash) — the
  replica simply waits; :meth:`finalize_source` truncates it when the
  feed is pronounced dead;
- a **complete frame failing CRC/decode** is transport corruption (the
  medium mirror is append-atomic, so a torn write can never produce a
  complete-but-wrong frame) — typed
  :class:`~repro.errors.JournalCorruptionError`, quarantine; a sound
  frame the block grammar rejects quarantines the same way, at its start;
- a **BEGIN frame with a stale epoch** is a deposed primary writing past
  the fence — counted, evidence kept, frames dropped, replica healthy
  (:class:`~repro.errors.StaleEpoch` instances in ``stale_rejections``).

Simulated time: a block charges recovery's replay cost, accrued in
``apply_us`` — the failover controller counts it toward failover time.
"""

from __future__ import annotations

from ..durability.checkpoint import latest_valid_snapshot, prune_behind_snapshot
from ..durability.journal import (
    JOURNAL_MAGIC,
    PARTIAL_BODY,
    PARTIAL_HEADER,
    BeginRecord,
    CheckpointRecord,
    CommitRecord,
    SealRecord,
    WriteAheadJournal,
    decode_record,
    read_frame,
)
from ..durability.medium import MemoryMedium
from ..durability.recovery import BlockFold, ReplayedBlock, recover
from ..errors import JournalCorruptionError, ReplicaDivergence, StaleEpoch
from ..obs.metrics import NULL_METRICS
from ..state.world import WorldState

# How many StaleEpoch instances a replica retains as rejection evidence.
_STALE_EVIDENCE_CAP = 8


class ReplicaService:
    """One follower: own journal, own world, independent verification."""

    def __init__(
        self,
        name: str,
        feed,
        metrics=NULL_METRICS,
        flight=None,
    ) -> None:
        self.name = name
        self.feed = feed
        self.metrics = metrics
        self.flight = flight
        self.medium = MemoryMedium()
        self.world: WorldState | None = None
        self.state = "syncing"  # syncing -> streaming; terminal: quarantined
        self.error: Exception | None = None
        self.fence_epoch = feed.epoch
        self.snapshot_block: int | None = None
        self.last_committed_block: int | None = None
        self.apply_us = 0.0
        self.stale_frames_rejected = 0
        self.stale_rejections: list[StaleEpoch] = []
        # Test/chaos hooks.  ``max_frames_per_poll`` models a slow apply
        # loop (0 = unbounded): a laggy replica consumes at most that many
        # frames per poll tick, falling behind under load — the hazard the
        # lag budget exists for.  ``corrupt_block`` corrupts one of that
        # block's keys in the world right after its verified apply, forcing
        # the SEAL verification to catch a divergent replica.
        # ``flip_feed_byte`` flips one byte of *this replica's view* of the
        # feed at the given absolute offset — a per-link transport
        # corruption (the shared feed stays intact for other replicas).
        self.max_frames_per_poll = 0
        self.corrupt_block: int | None = None
        self.flip_feed_byte: int | None = None
        self._cursor = 0
        self._magic_done = False
        self._fold = BlockFold()  # its open block is the one streaming in
        self._stale_block: int | None = None
        self._stale_epoch = 0
        self._skip_block: int | None = None

    # -- introspection -------------------------------------------------

    def lag_blocks(self, primary_tip: int | None) -> int:
        """How many committed blocks this replica trails the primary by."""
        if primary_tip is None:
            return 0
        have = self.last_committed_block
        return max(0, primary_tip - have) if have is not None else primary_tip

    def _count(self, counter: str) -> None:
        self.metrics.counter(counter, replica=self.name).inc()

    # -- failure modes -------------------------------------------------

    def _quarantine(self, error: Exception, now_us: float, reason: str):
        self.state = "quarantined"
        self.error = error
        self._count("replication_quarantines_total")
        if self.flight is not None:
            self.flight.record(
                {
                    "kind": reason,
                    "replica": self.name,
                    "error": str(error),
                    "block": self.last_committed_block,
                    "now_us": now_us,
                }
            )
            self.flight.trigger(reason, now_us)
        raise error

    def _diverge(self, block_number: int, detail: str, now_us: float):
        self._count("replication_divergences_total")
        self._quarantine(
            ReplicaDivergence(self.name, block_number, detail),
            now_us,
            "replica-divergence",
        )

    def _corrupt_feed(self, offset: int, detail: str, now_us: float):
        self._count("replication_corrupt_feed_total")
        self._quarantine(
            JournalCorruptionError(offset, detail), now_us, "corrupt-feed"
        )

    def _reject_stale(self, block_number: int, epoch: int, now_us: float) -> None:
        self.stale_frames_rejected += 1
        self._count("replication_stale_frames_total")
        error = StaleEpoch(block_number, epoch, self.fence_epoch)
        if len(self.stale_rejections) < _STALE_EVIDENCE_CAP:
            self.stale_rejections.append(error)
        if self.flight is not None:
            self.flight.record(
                {
                    "kind": "stale-epoch",
                    "replica": self.name,
                    "block": block_number,
                    "epoch": epoch,
                    "fence": self.fence_epoch,
                    "now_us": now_us,
                }
            )

    # -- bootstrap -----------------------------------------------------

    def _bootstrap(self) -> bool:
        """Restore the newest valid shipped snapshot; False while none."""
        snapshots = dict(self.feed.snapshots)  # the last blob per block wins
        best = latest_valid_snapshot(
            snapshots, lambda: self._count("replication_snapshots_rejected_total")
        )
        if best is None:
            return False
        number, self.world = best
        self.snapshot_block = number
        self.last_committed_block = number
        self.medium.write_snapshot(number, snapshots[number])
        self.medium.append_journal(JOURNAL_MAGIC)
        self.state = "streaming"
        return True

    # -- the replay loop -----------------------------------------------

    def poll(self, now_us: float = 0.0, max_frames: int | None = None) -> int:
        """Consume complete frames from the feed; returns frames consumed.

        Raises the typed quarantine errors
        (:class:`~repro.errors.ReplicaDivergence` /
        :class:`~repro.errors.JournalCorruptionError`); an incomplete
        trailing frame just ends the poll.
        """
        if self.state == "quarantined":
            return 0
        if self.world is None and not self._bootstrap():
            return 0
        budget = self.max_frames_per_poll if max_frames is None else max_frames
        base = self._cursor
        data = self.feed.read_from(base)
        flip = self.flip_feed_byte
        if flip is not None and base <= flip < base + len(data):
            damaged = bytearray(data)
            damaged[flip - base] ^= 0xFF
            data = bytes(damaged)
        pos = 0
        if not self._magic_done:
            if data.startswith(JOURNAL_MAGIC):
                pos = len(JOURNAL_MAGIC)
                self._cursor = base + pos
                self._magic_done = True
            elif len(data) < len(JOURNAL_MAGIC) and JOURNAL_MAGIC.startswith(data):
                return 0  # partial magic: wait for the rest
            else:
                # A continuation feed (promoted primary over a non-empty
                # journal) starts directly with frames.
                self._magic_done = True
        consumed = 0
        while pos < len(data) and not (budget and consumed >= budget):
            payload, end, problem = read_frame(data, pos)
            if problem in (PARTIAL_HEADER, PARTIAL_BODY):
                break  # an append still in flight: wait for the rest
            offset = base + pos
            if problem:
                self._corrupt_feed(offset, problem, now_us)
            try:
                record = decode_record(payload, offset)
            except JournalCorruptionError as exc:
                self._corrupt_feed(offset, exc.detail, now_us)
            raw = data[pos:end]
            pos = end
            self._cursor = base + pos
            self._handle(record, raw, offset, now_us)
            consumed += 1
        return consumed

    def _handle(self, record, raw: bytes, offset: int, now_us: float) -> None:
        number = record.block_number
        if isinstance(record, BeginRecord):
            if record.epoch < self.fence_epoch:
                self._stale_block = number
                self._stale_epoch = record.epoch
                self._skip_block = None
                self._reject_stale(number, record.epoch, now_us)
                return
            self._stale_block = None
        elif number == self._stale_block:
            # The rest of a fenced-off block's frames.
            self._reject_stale(number, self._stale_epoch, now_us)
            return
        elif number == self._skip_block:
            if isinstance(record, CheckpointRecord):
                self._skip_block = None
            return
        fold = self._fold
        try:
            # Our journal's offset: a block's begin_offset is where our
            # own copy of it starts.
            closed = fold.push(self.medium.journal_size(), record)
        except JournalCorruptionError as exc:
            self._corrupt_feed(offset, exc.detail, now_us)
        if isinstance(record, BeginRecord):
            last = self.last_committed_block
            if last is not None and number <= last:
                # Frames already folded into our bootstrap snapshot.
                fold.open = None
                self._skip_block = number
                return
            self._skip_block = None
        self.medium.append_journal(raw)
        if isinstance(record, CommitRecord):
            self._apply(fold.open, now_us)
        elif isinstance(record, SealRecord):
            self._verify_seal(closed, now_us)
        elif isinstance(record, CheckpointRecord):
            self._checkpoint(number)

    def _apply(self, block: ReplayedBlock, now_us: float) -> None:
        cost = block.apply_verified(self.world)
        if cost is None:
            self._diverge(
                block.number,
                "replayed delta does not match the COMMIT marker's digest",
                now_us,
            )
        if self.corrupt_block == block.number and block.writes:
            key = min(block.writes)
            value = block.writes[key]
            self.world.apply(
                {key: value + 1 if isinstance(value, int) else value + b"\x00"}
            )
        self.apply_us += cost
        self.last_committed_block = block.number
        self._count("replication_blocks_applied_total")

    def _verify_seal(self, block: ReplayedBlock, now_us: float) -> None:
        if not block.seal_matches(self.world):
            self._diverge(
                block.number,
                "post-apply state fingerprint does not match the sealed root",
                now_us,
            )
        self.metrics.gauge(
            "replication_last_sealed_block", replica=self.name
        ).set(float(block.number))

    def _checkpoint(self, number: int) -> None:
        blob = dict(self.feed.snapshots).get(number)
        if blob is not None:
            self.medium.write_snapshot(number, blob)
            self.snapshot_block = number
        prune_behind_snapshot(WriteAheadJournal(self.medium), number)

    # -- failover support ----------------------------------------------

    def finalize_source(self) -> None:
        """The feed is dead: drop its torn tail and any unterminated block."""
        block = self._fold.open
        if block is not None and not block.committed:
            self.medium.truncate_journal(block.begin_offset)
        self._fold = BlockFold()
        self._stale_block = None
        self._cursor = len(self.feed)

    def rebase(self, feed) -> None:
        """Re-subscribe to a successor primary's feed (fence included)."""
        self.feed = feed
        self.fence_epoch = max(self.fence_epoch, feed.epoch)
        self._cursor = 0
        self._magic_done = False

    def fence(self, epoch: int) -> None:
        """Raise the fencing epoch (failover): older frames now rejected."""
        self.fence_epoch = max(self.fence_epoch, epoch)

    def promote(self) -> object:
        """Recover this replica's own journal into a promotable world.

        Returns the :class:`~repro.durability.recovery.RecoveryResult`;
        the recovered world replaces the streaming world (they agree on
        every sealed block — recovery re-verifies that from our own
        durable copy, the promotion-time self-check).
        """
        result = recover(self.medium, WorldState, metrics=self.metrics)
        self.world = result.world
        self.last_committed_block = result.last_committed_block
        return result
