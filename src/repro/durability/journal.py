"""The framed, CRC-checksummed write-ahead journal.

Wire format
-----------

The journal opens with a 6-byte magic (``RWAL1\\n``) followed by frames::

    +----------------+----------------+------------------+
    | length (4, BE) | crc32 (4, BE)  | payload (length) |
    +----------------+----------------+------------------+

Payloads are RLP-encoded records, reusing :mod:`repro.rlp` and the public
value codec of :mod:`repro.core.serialize`: a write set is a sorted list of
``encode_pair`` pairs, the format snapshot entries share, and each state key
is encoded once for the process (``encode_key``), not once per block.  The
per-block record protocol mirrors ARIES-style physical redo/undo logging
scaled down to block granularity:

    BEGIN(n, tx_count, pre_root)
    TXWRITE(n, tx_index, writes)      # one per transaction, block order
    SETTLE(n, writes)                 # block-level residual (fee credit)
    UNDO(n, preimages)                # pre-block values of every written key
    COMMIT(n, delta_digest)           # the atomicity marker
    SEAL(n, post_root)                # post-apply state fingerprint
    CHECKPT(n)                        # a snapshot of block n is durable

A block is *committed* iff its COMMIT frame is fully on the medium;
everything after the last committed frame is either a torn tail (a crash
mid-append — silently truncated during recovery) or corruption (a CRC or
protocol violation strictly before the tail — a typed
:class:`~repro.errors.JournalCorruptionError`).

CRC32 catches every single-bit and single-byte error inside a frame, so
the corruption property tests can flip arbitrary journal bytes and rely on
recovery either truncating to a certified prefix or raising the typed
error — never replaying a silently wrong value.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from itertools import starmap

from .. import rlp
from ..core.serialize import decode_value, encode_pair
from ..errors import JournalCorruptionError

JOURNAL_MAGIC = b"RWAL1\n"
_HEADER = struct.Struct(">II")  # (payload length, crc32 of payload)

# A frame longer than this is structurally implausible (the largest real
# frames are full-block snapshots of test chains, well under a mebibyte);
# treating huge lengths as corruption keeps a flipped length byte from
# swallowing gigabytes of "payload".
MAX_FRAME_BYTES = 1 << 28

# Record tags (first RLP element of every payload).
TAG_BEGIN = b"B"
TAG_TXWRITE = b"T"
TAG_SETTLE = b"S"
TAG_UNDO = b"U"
TAG_COMMIT = b"C"
TAG_SEAL = b"R"
TAG_CHECKPT = b"K"


# ------------------------------------------------------------------ records


@dataclass(slots=True, frozen=True)
class BeginRecord:
    """Opens a block's frame group.

    ``epoch`` is the primary's fencing epoch (monotonic across failovers,
    0 for an unreplicated node).  It rides the BEGIN frame so replicas
    can reject frames from a deposed primary; journals written before the
    field existed decode with epoch 0.
    """

    block_number: int
    tx_count: int
    pre_root: bytes
    epoch: int = 0


@dataclass(slots=True, frozen=True)
class TxWriteRecord:
    block_number: int
    tx_index: int
    writes: dict


@dataclass(slots=True, frozen=True)
class SettleRecord:
    block_number: int
    writes: dict


@dataclass(slots=True, frozen=True)
class UndoRecord:
    block_number: int
    preimages: dict


@dataclass(slots=True, frozen=True)
class CommitRecord:
    block_number: int
    delta_digest: bytes


@dataclass(slots=True, frozen=True)
class SealRecord:
    block_number: int
    post_root: bytes


@dataclass(slots=True, frozen=True)
class CheckpointRecord:
    block_number: int


JournalRecord = (
    BeginRecord
    | TxWriteRecord
    | SettleRecord
    | UndoRecord
    | CommitRecord
    | SealRecord
    | CheckpointRecord
)


def _uint(value: int) -> bytes:
    return rlp.encode_bytes(rlp.uint_to_bytes(value))


def _write_set_bytes(writes: dict) -> bytes:
    """A write set as a deterministic (sorted-key) RLP list of pairs."""
    body = b"".join(starmap(encode_pair, sorted(writes.items())))
    return rlp.list_header(len(body)) + body


def _decode_writes(item: rlp.RLPItem) -> dict:
    return {decode_value(pair[0]): decode_value(pair[1]) for pair in item}


def encode_record(record: JournalRecord) -> bytes:
    """One journal record as RLP payload bytes (frame body, no header).

    Each one-byte tag is its own RLP encoding.
    """
    number = _uint(record.block_number)
    if isinstance(record, BeginRecord):
        body = TAG_BEGIN + number + _uint(record.tx_count)
        body += rlp.encode_bytes(record.pre_root) + _uint(record.epoch)
    elif isinstance(record, TxWriteRecord):
        body = TAG_TXWRITE + number + _uint(record.tx_index)
        body += _write_set_bytes(record.writes)
    elif isinstance(record, SettleRecord):
        body = TAG_SETTLE + number + _write_set_bytes(record.writes)
    elif isinstance(record, UndoRecord):
        body = TAG_UNDO + number + _write_set_bytes(record.preimages)
    elif isinstance(record, CommitRecord):
        body = TAG_COMMIT + number + rlp.encode_bytes(record.delta_digest)
    elif isinstance(record, SealRecord):
        body = TAG_SEAL + number + rlp.encode_bytes(record.post_root)
    elif isinstance(record, CheckpointRecord):
        body = TAG_CHECKPT + number
    else:  # pragma: no cover - exhaustive over JournalRecord
        raise TypeError(f"not a journal record: {record!r}")
    return rlp.list_header(len(body)) + body


def decode_record(payload: bytes, offset: int = 0) -> JournalRecord:
    """Decode one frame payload; ``offset`` only flavors error messages."""
    try:
        item = rlp.decode(payload)
    except Exception as exc:
        raise JournalCorruptionError(offset, f"undecodable record: {exc}") from exc
    if not isinstance(item, list) or len(item) < 2:
        raise JournalCorruptionError(offset, "malformed record structure")
    tag = item[0]
    try:
        number = rlp.bytes_to_uint(item[1])
        if tag == TAG_BEGIN:
            epoch = rlp.bytes_to_uint(item[4]) if len(item) > 4 else 0
            return BeginRecord(number, rlp.bytes_to_uint(item[2]), item[3], epoch)
        if tag == TAG_TXWRITE:
            return TxWriteRecord(
                number, rlp.bytes_to_uint(item[2]), _decode_writes(item[3])
            )
        if tag == TAG_SETTLE:
            return SettleRecord(number, _decode_writes(item[2]))
        if tag == TAG_UNDO:
            return UndoRecord(number, _decode_writes(item[2]))
        if tag == TAG_COMMIT:
            return CommitRecord(number, item[2])
        if tag == TAG_SEAL:
            return SealRecord(number, item[2])
        if tag == TAG_CHECKPT:
            return CheckpointRecord(number)
    except JournalCorruptionError:
        raise
    except Exception as exc:
        raise JournalCorruptionError(offset, f"malformed record body: {exc}") from exc
    raise JournalCorruptionError(offset, f"unknown record tag {tag!r}")


def frame(payload: bytes) -> bytes:
    """Wrap a record payload in the length+CRC frame header."""
    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


# read_frame's problems, besides "implausible frame length N".
PARTIAL_HEADER = "partial frame header"
PARTIAL_BODY = "partial frame body"
BAD_CRC = "frame CRC mismatch"


def read_frame(data: bytes, pos: int) -> tuple[bytes | None, int, str]:
    """The frame at ``data[pos]`` as ``(payload, end, problem)``: the one reader.

    ``problem`` is empty for a sound frame, whose CRC-checked ``payload``
    ends at ``end``.  Otherwise ``payload`` is None and ``problem`` is
    :data:`PARTIAL_HEADER` / :data:`PARTIAL_BODY` (``data`` ends inside the
    frame), an implausible length (checked first, so a flipped length byte
    never waits for gigabytes) or :data:`BAD_CRC` (complete, ending at
    ``end``).  Journal scans, replicas and snapshots word these their way.
    """
    size = len(data)
    if size - pos < _HEADER.size:
        return None, size, PARTIAL_HEADER
    length, crc = _HEADER.unpack_from(data, pos)
    if length > MAX_FRAME_BYTES:
        return None, size, f"implausible frame length {length}"
    start = pos + _HEADER.size
    end = start + length
    if end > size:
        return None, size, PARTIAL_BODY
    payload = data[start:end]
    if zlib.crc32(payload) != crc:
        return None, end, BAD_CRC
    return payload, end, ""


# -------------------------------------------------------------------- scan


@dataclass(slots=True)
class JournalScan:
    """The outcome of scanning raw journal bytes.

    ``frames`` holds ``(offset, record)`` pairs for every valid frame, in
    order; ``valid_length`` is the byte offset up to which the journal is
    intact.  ``tail_status`` is one of:

    - ``"clean"`` — the journal ends exactly on a frame boundary;
    - ``"torn"`` — a partial frame at the end (crash mid-append); bytes
      beyond ``valid_length`` should be truncated;
    - ``"corrupt"`` — a CRC/structure failure strictly *before* the tail;
      ``detail`` names it, and policy decides between truncating at
      ``valid_length`` and raising :class:`JournalCorruptionError`.
    """

    frames: list[tuple[int, JournalRecord]]
    valid_length: int
    tail_status: str
    detail: str = ""

    @property
    def records(self) -> list[JournalRecord]:
        return [record for _offset, record in self.frames]


def scan_journal(data: bytes) -> JournalScan:
    """Walk the journal frames, classifying whatever ends the walk."""
    if not data:
        return JournalScan([], 0, "clean")
    if not data.startswith(JOURNAL_MAGIC):
        if JOURNAL_MAGIC.startswith(data):
            return JournalScan([], 0, "torn", "partial journal magic")
        return JournalScan([], 0, "corrupt", "bad journal magic")

    frames: list[tuple[int, JournalRecord]] = []
    offset = len(JOURNAL_MAGIC)
    size = len(data)
    while offset < size:
        payload, end, problem = read_frame(data, offset)
        if problem in (PARTIAL_HEADER, PARTIAL_BODY):
            return JournalScan(frames, offset, "torn", problem)
        # A damaged frame that is the very last thing on the medium: a torn
        # append is indistinguishable from a flipped bit there, and
        # truncating is always safe (the frame never committed).
        tail = end >= size
        if problem == BAD_CRC:
            if tail:
                return JournalScan(frames, offset, "torn", "bad CRC on tail frame")
            return JournalScan(
                frames, offset, "corrupt", f"CRC mismatch at byte {offset}"
            )
        if problem:
            return JournalScan(frames, offset, "corrupt", problem)
        try:
            record = decode_record(payload, offset)
        except JournalCorruptionError as exc:
            return JournalScan(
                frames, offset, "torn" if tail else "corrupt", exc.detail
            )
        frames.append((offset, record))
        offset = end
    return JournalScan(frames, offset, "clean")


# ------------------------------------------------------------------ journal


class WriteAheadJournal:
    """Append-only framed journal over a durable medium.

    ``crash`` is an optional
    :class:`~repro.durability.crash.CrashInjector`; when armed, appends can
    die *mid-frame* (a torn write) or immediately after a named site, which
    is how the crash fuzzer enumerates every failure point of the commit
    path.  ``bytes_written`` / ``records_written`` feed the ``durability_*``
    metrics.

    ``_begins`` indexes ``(block_number, offset)`` of every BEGIN frame; it
    is exact while the medium is ``_size`` bytes of whole frames this
    journal wrote (None when it was opened on a non-empty medium), i.e.
    while the medium's ``journal_writes`` counter is still the ``_writes``
    this journal's last write left.  Any other write — a torn frame,
    another writer, even one that restores the length — moves the counter,
    which the next append or prune sees: the index is dropped, and pruning
    rebuilds it with one scan.
    """

    def __init__(self, medium, crash=None) -> None:
        self.medium = medium
        self.crash = crash
        self.bytes_written = 0
        self.records_written = 0
        self._begins: list[tuple[int, int]] = []
        self._size: int | None = None
        self._writes = medium.journal_writes
        if self.medium.journal_size() == 0:
            self.medium.append_journal(JOURNAL_MAGIC)
            self.bytes_written += len(JOURNAL_MAGIC)
            self._size = len(JOURNAL_MAGIC)
            self._writes = medium.journal_writes

    def append(self, record: JournalRecord, site: str | None = None) -> int:
        """Frame and append one record; returns the frame's byte length.

        With a crash injector armed on ``torn:<site>``, only a prefix of
        the frame reaches the medium before :class:`SimulatedCrash` is
        raised; armed on ``<site>``, the full frame lands first.
        """
        medium = self.medium
        if medium.journal_writes != self._writes:
            # Someone wrote the medium since this journal's last write:
            # forget the index until a prune rescans.
            self._size = None
        offset = self._size
        data = frame(encode_record(record))
        crash = self.crash
        if crash is not None and site is not None:
            torn = crash.tear_fraction(site)
            if torn is not None:
                cut = max(1, int(len(data) * torn))
                medium.append_journal(data[:cut])
                self.bytes_written += cut
                crash.crash(f"torn:{site}")
        medium.append_journal(data)
        self.bytes_written += len(data)
        self.records_written += 1
        if offset is not None:
            self._size = offset + len(data)
            self._writes = medium.journal_writes
            if isinstance(record, BeginRecord):
                self._begins.append((record.block_number, offset))
        if crash is not None and site is not None:
            crash.maybe_crash(site)
        return len(data)

    def scan(self) -> JournalScan:
        return scan_journal(self.medium.read_journal())

    def truncate(self, length: int) -> None:
        """Cut the journal back to ``length`` bytes (a reorg's rollback).

        A cut at one of the journal's own BEGIN frames keeps the index
        exact; any other cut leaves it to the next prune's scan.
        """
        medium = self.medium
        known = self._size is not None and medium.journal_writes == self._writes
        medium.truncate_journal(length)
        self._writes = medium.journal_writes
        begins = self._begins
        boundary = length == self._size
        while begins and begins[-1][1] >= length:
            boundary = begins.pop()[1] == length
        self._size = length if known and boundary else None

    def prune_through(self, block_number: int) -> int:
        """Drop all frames of blocks ``<= block_number`` (post-checkpoint).

        The journal is atomically rewritten as magic + the surviving
        suffix.  Returns the number of bytes reclaimed.  Frames of the
        retained region are byte-identical, so offsets shift but CRCs and
        recovery semantics are untouched.
        """
        medium = self.medium
        data = medium.read_journal()
        if self._size is None or medium.journal_writes != self._writes:
            scan = scan_journal(data)
            self._begins = [
                (record.block_number, offset)
                for offset, record in scan.frames
                if isinstance(record, BeginRecord)
            ]
            # An empty medium scans clean but has no magic to append behind.
            clean = data and scan.tail_status == "clean"
            self._size = len(data) if clean else None
            self._writes = medium.journal_writes
        # Everything survives from the first BEGIN of a newer block on; if
        # no newer block exists, the whole journal (including any torn
        # tail) is reclaimable.
        cut, kept = len(data), []
        for index, (number, offset) in enumerate(self._begins):
            if number > block_number:
                cut, kept = offset, self._begins[index:]
                break
        if cut <= len(JOURNAL_MAGIC):
            return 0
        survivor = JOURNAL_MAGIC + data[cut:]
        medium.reset_journal(survivor)
        self._writes = medium.journal_writes
        shift = cut - len(JOURNAL_MAGIC)
        self._begins = [(number, offset - shift) for number, offset in kept]
        if self._size is not None:
            self._size = len(survivor)
        return len(data) - len(survivor)
