"""Durable storage media for the write-ahead journal and checkpoints.

A *medium* is the only thing assumed to survive a crash: the executor, the
in-memory :class:`~repro.state.world.WorldState` and every overlay die with
the process, while whatever bytes reached the medium before the crash are
what recovery gets to work with.

Two implementations share one small interface:

- :class:`MemoryMedium` — a bytearray-backed medium for tests and the
  crash fuzzer, where "the process died" is simulated by discarding every
  live object except the medium;
- :class:`FileMedium` — a directory on the real filesystem (``wal.bin``
  plus ``snapshot-<block>.bin`` files) used by the CLI's ``replay
  --durable-dir`` / ``recover`` pair.

Neither medium interprets the bytes it holds; framing, checksums and
torn-tail semantics live in :mod:`repro.durability.journal`.
"""

from __future__ import annotations

import os
import re

# Exactly the names ``FileMedium._snapshot_path`` produces (no leading zeros),
# so a matched number always maps back to the file it was read off.
_SNAPSHOT_RE = re.compile(r"^snapshot-(0|[1-9]\d*)\.bin$")


class MemoryMedium:
    """An in-memory medium: the crash fuzzer's simulated disk."""

    def __init__(self) -> None:
        self._journal = bytearray()
        self._snapshots: dict[int, bytes] = {}

    # ------------------------------------------------------------- journal

    def append_journal(self, data: bytes) -> None:
        self._journal.extend(data)

    def read_journal(self) -> bytes:
        return bytes(self._journal)

    def journal_size(self) -> int:
        return len(self._journal)

    def truncate_journal(self, length: int) -> None:
        del self._journal[length:]

    def reset_journal(self, data: bytes) -> None:
        """Atomically replace the whole journal (pruning)."""
        self._journal = bytearray(data)

    # ----------------------------------------------------------- snapshots

    def write_snapshot(self, block_number: int, data: bytes) -> None:
        self._snapshots[block_number] = data

    def read_snapshots(self) -> dict[int, bytes]:
        return dict(self._snapshots)

    def prune_snapshots(self, keep: int) -> int:
        """Drop all snapshots except the newest ``keep``; return the count."""
        doomed = sorted(self._snapshots)[:-keep] if keep else sorted(self._snapshots)
        for block_number in doomed:
            del self._snapshots[block_number]
        return len(doomed)


class FileMedium:
    """A directory-backed medium for real on-disk journals.

    Snapshot writes go through a temp file + ``os.replace`` so a crash
    mid-snapshot leaves either the old file or nothing — the same
    atomic-rename discipline LevelDB uses for its MANIFEST.  (The crash
    *fuzzer* still exercises torn snapshots through :class:`MemoryMedium`,
    where tears are injected above the medium.)

    Appends share one unbuffered handle, held until :meth:`close`;
    truncating or replacing the journal closes it, so the next append
    reopens whatever file is then at the path.
    """

    JOURNAL_NAME = "wal.bin"

    def __init__(self, directory: str) -> None:
        self.directory = directory
        os.makedirs(directory, exist_ok=True)
        self._journal_path = os.path.join(directory, self.JOURNAL_NAME)
        self._append_handle = None

    def close(self) -> None:
        """Close the held append handle (idempotent; a later append reopens)."""
        handle, self._append_handle = self._append_handle, None
        if handle is not None:
            handle.close()

    # ------------------------------------------------------------- journal

    def append_journal(self, data: bytes) -> None:
        handle = self._append_handle
        if handle is None:
            handle = self._append_handle = open(
                self._journal_path, "ab", buffering=0
            )
        view = memoryview(data)
        while view:  # a raw write may be short
            view = view[handle.write(view) :]

    def read_journal(self) -> bytes:
        try:
            with open(self._journal_path, "rb") as fh:
                return fh.read()
        except FileNotFoundError:
            return b""

    def journal_size(self) -> int:
        try:
            return os.path.getsize(self._journal_path)
        except OSError:
            return 0

    def truncate_journal(self, length: int) -> None:
        self.close()
        with open(self._journal_path, "ab") as fh:
            fh.truncate(length)

    def reset_journal(self, data: bytes) -> None:
        self.close()
        tmp = self._journal_path + ".tmp"
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, self._journal_path)

    # ----------------------------------------------------------- snapshots

    def _snapshot_path(self, block_number: int) -> str:
        return os.path.join(self.directory, f"snapshot-{block_number}.bin")

    def write_snapshot(self, block_number: int, data: bytes) -> None:
        path = self._snapshot_path(block_number)
        tmp = path + ".tmp"
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)

    def _snapshot_numbers(self) -> list[int]:
        """Block numbers of the snapshot files in the directory, ascending.

        Read off the file names alone; temp files of an interrupted
        ``write_snapshot``, the journal and foreign files do not match.
        """
        matches = map(_SNAPSHOT_RE.match, os.listdir(self.directory))
        return sorted(int(match.group(1)) for match in matches if match)

    def read_snapshots(self) -> dict[int, bytes]:
        snapshots: dict[int, bytes] = {}
        for block_number in self._snapshot_numbers():
            with open(self._snapshot_path(block_number), "rb") as fh:
                snapshots[block_number] = fh.read()
        return snapshots

    def prune_snapshots(self, keep: int) -> int:
        numbers = self._snapshot_numbers()
        doomed = numbers[:-keep] if keep else numbers
        for block_number in doomed:
            os.remove(self._snapshot_path(block_number))
        return len(doomed)
