"""Crash-consistent durability: WAL, checkpoints, recovery, reorg rollback.

The durability layer makes block commits atomic with respect to process
crashes, without touching the simulation's performance story:

- :mod:`repro.durability.journal` — the framed, CRC-checksummed
  write-ahead journal (BEGIN/TXWRITE/SETTLE/UNDO/COMMIT/SEAL/CHECKPT);
  ``read_frame`` is the one frame reader, replicas' and snapshots' too;
- :mod:`repro.durability.commit` — the journal-first atomic commit
  pipeline executors route through when a pipeline is attached;
- :mod:`repro.durability.checkpoint` — periodic snapshots bounding
  recovery replay (and journal size);
- :mod:`repro.durability.recovery` — snapshot + committed-tail replay
  with torn-tail truncation and typed corruption errors; ``BlockFold`` is
  the one block grammar, the reorg manager's and replicas' too;
- :mod:`repro.durability.reorg` — undo-preimage rollback for chain
  reorganisations;
- :mod:`repro.durability.crash` — the deterministic crash-site injector
  the crash fuzzer (:mod:`repro.check.crashfuzz`) drives.

Durability is **off by default** everywhere: executors take
``durability=None`` and fall back to the bare ``world.apply`` commit, so
benchmark makespans are bit-identical to a build without this package.
"""

from .checkpoint import (
    SnapshotEncoder,
    decode_snapshot,
    encode_snapshot,
    latest_valid_snapshot,
)
from .commit import DurableCommitPipeline, delta_digest
from .crash import (
    CrashInjector,
    SimulatedCrash,
    enumerate_crash_sites,
    site_expected_state,
)
from .journal import (
    BeginRecord,
    CheckpointRecord,
    CommitRecord,
    JOURNAL_MAGIC,
    JournalScan,
    SealRecord,
    SettleRecord,
    TxWriteRecord,
    UndoRecord,
    WriteAheadJournal,
    scan_journal,
)
from .medium import FileMedium, MemoryMedium
from .recovery import RecoveryResult, recover
from .reorg import ReorgManager

__all__ = [
    "BeginRecord",
    "CheckpointRecord",
    "CommitRecord",
    "CrashInjector",
    "DurableCommitPipeline",
    "FileMedium",
    "JOURNAL_MAGIC",
    "JournalScan",
    "MemoryMedium",
    "RecoveryResult",
    "ReorgManager",
    "SealRecord",
    "SettleRecord",
    "SimulatedCrash",
    "SnapshotEncoder",
    "TxWriteRecord",
    "UndoRecord",
    "WriteAheadJournal",
    "decode_snapshot",
    "delta_digest",
    "encode_snapshot",
    "enumerate_crash_sites",
    "latest_valid_snapshot",
    "recover",
    "scan_journal",
    "site_expected_state",
]
