"""Byte-level journal shipping: the feed and the mirroring medium.

Replication here is WAL shipping in the Postgres sense, scaled to the
simulated world: the primary does not *send blocks* to replicas, it lets
them read the exact bytes its write-ahead journal is made of.  Mirroring
happens inside the medium write path (synchronously with the durable
append), so at every instant ``feed bytes == primary journal appends`` —
including the prefix of a frame a crashing primary managed to get down
(the torn tail replicas must hold, and promotion must truncate, exactly
as recovery does).

What is deliberately *not* mirrored: ``reset_journal`` (checkpoint
pruning — local compaction; the feed already carries those frames) and
``truncate_journal`` (recovery-side repair).  The feed is append-only
history; consumers track their own cursors.
"""

from __future__ import annotations

from ..obs.metrics import NULL_METRICS


class ShipFeed:
    """An append-only byte feed plus the shipped checkpoint snapshots.

    ``epoch`` names the fencing epoch of the primary writing this feed
    (stamped by that primary into every BEGIN frame); a feed dies with its
    primary — after failover the controller marks it ``final`` and
    survivors drain it to its last complete frame, never read it again.
    """

    def __init__(self, epoch: int = 1, metrics=NULL_METRICS) -> None:
        self.epoch = epoch
        self.metrics = metrics
        self.final = False
        self._journal = bytearray()
        # (block_number, blob) in ship order; replicas bootstrap and
        # catch up from the newest blob that passes CRC validation.
        self.snapshots: list[tuple[int, bytes]] = []

    def __len__(self) -> int:
        return len(self._journal)

    def append(self, data: bytes) -> None:
        if self.final:
            # A deposed primary appending past the fence: the bytes land
            # (a partitioned process cannot be stopped from writing) but
            # every consumer has already finalized its cursor, and the
            # epoch check rejects the frames should anyone still look.
            self.metrics.counter("replication_fenced_bytes_total").inc(len(data))
        self._journal.extend(data)
        self.metrics.counter("replication_shipped_bytes_total").inc(len(data))

    def read_from(self, offset: int) -> bytes:
        return bytes(self._journal[offset:])

    def ship_snapshot(self, block_number: int, blob: bytes) -> None:
        self.snapshots.append((block_number, blob))
        self.metrics.counter("replication_shipped_snapshots_total").inc()

    def finalize(self) -> None:
        """Close the feed (its primary is dead or deposed)."""
        self.final = True


class ShippingMedium:
    """A durable medium that mirrors journal appends onto a :class:`ShipFeed`.

    Wraps any :class:`~repro.durability.medium.MemoryMedium`-shaped inner
    medium; the primary's commit pipeline is handed this wrapper and needs
    no replication awareness at all.  Reads, truncation and pruning are
    purely local — only new durable bytes ship.
    """

    def __init__(self, inner, feed: ShipFeed) -> None:
        self.inner = inner
        self.feed = feed

    # ------------------------------------------------------------- journal

    def append_journal(self, data: bytes) -> None:
        self.inner.append_journal(data)
        self.feed.append(data)

    def read_journal(self) -> bytes:
        return self.inner.read_journal()

    def journal_size(self) -> int:
        return self.inner.journal_size()

    @property
    def journal_writes(self) -> int:
        return self.inner.journal_writes

    def truncate_journal(self, length: int) -> None:
        self.inner.truncate_journal(length)

    def reset_journal(self, data: bytes) -> None:
        self.inner.reset_journal(data)

    # ----------------------------------------------------------- snapshots

    def write_snapshot(self, block_number: int, data: bytes) -> None:
        self.inner.write_snapshot(block_number, data)
        self.feed.ship_snapshot(block_number, data)

    def read_snapshots(self) -> dict[int, bytes]:
        return self.inner.read_snapshots()

    def prune_snapshots(self, keep: int) -> int:
        return self.inner.prune_snapshots(keep)
