"""RLP serialization of SSA operation logs.

Both deployment modes the paper sketches beyond the basic executor move
SSA information between machines: §6.3's pre-execution wants logs computed
in the transaction-dissemination window, and §7's proposer/validator split
ships schedules inside blocks.  This module gives the operation log a
canonical wire format, reusing the repo's RLP codec.

The tracking maps and the definition-use graph are *not* serialized: they
are pure functions of the entry sequence (loads re-register in
``direct_reads``, stores in ``latest_writes``/``writes_by_key``, DUG edges
come from the def fields), so :func:`decode_log` rebuilds them — which also
means a corrupted producer cannot ship inconsistent indexes.
"""

from __future__ import annotations

from .. import rlp
from ..errors import ReproError
from ..evm.message import LogRecord
from ..evm.opcodes import Op
from .ssa_log import LogEntry, PseudoOp, SSAOperationLog

_LOAD_OPS = (Op.SLOAD, PseudoOp.ILOAD)
_STORE_OPS = (Op.SSTORE, PseudoOp.ISTORE)

# Value-codec tags (first element of each encoded value list).
_T_NONE = b"n"
_T_INT = b"i"
_T_NEG = b"-"
_T_BYTES = b"b"
_T_STR = b"s"
_T_TUPLE = b"t"
_T_BOOL = b"o"


class SerializationError(ReproError):
    """Malformed or unsupported SSA-log wire data."""


def _encode_value(value) -> rlp.RLPItem:
    if value is None:
        return [_T_NONE]
    if isinstance(value, bool):
        return [_T_BOOL, b"\x01" if value else b""]
    if isinstance(value, int):
        if value < 0:
            return [_T_NEG, rlp.uint_to_bytes(-value)]
        return [_T_INT, rlp.uint_to_bytes(value)]
    if isinstance(value, bytes):
        return [_T_BYTES, value]
    if isinstance(value, str):
        return [_T_STR, value.encode()]
    if isinstance(value, tuple):
        return [_T_TUPLE, [_encode_value(v) for v in value]]
    raise SerializationError(f"cannot serialize value of type {type(value).__name__}")


def _decode_value(item: rlp.RLPItem):
    if not isinstance(item, list) or not item:
        raise SerializationError("malformed value encoding")
    tag = item[0]
    if tag == _T_NONE:
        return None
    if tag == _T_BOOL:
        return item[1] == b"\x01"
    if tag == _T_INT:
        return rlp.bytes_to_uint(item[1])
    if tag == _T_NEG:
        return -rlp.bytes_to_uint(item[1])
    if tag == _T_BYTES:
        return item[1]
    if tag == _T_STR:
        return item[1].decode()
    if tag == _T_TUPLE:
        return tuple(_decode_value(v) for v in item[1])
    raise SerializationError(f"unknown value tag {tag!r}")


def encode_value(value) -> rlp.RLPItem:
    """Encode one python value (int/bytes/str/bool/None/tuple) as RLP.

    The public face of the SSA-log value codec, shared with the durability
    journal (:mod:`repro.durability`): state keys are tagged tuples and
    state values are ints or bytes, all inside this codec's domain.
    """
    return _encode_value(value)


def encode_value_bytes(value) -> bytes:
    """``rlp.encode(encode_value(value))``, without building the nested list.

    The durability layer's codec for state keys — ``(str, bytes[, int])``
    tuples — and values (ints, bytes): those types are framed here directly
    (a one-byte tag is its own RLP encoding), anything else generically.
    """
    kind = type(value)
    if kind is int and value >= 0:
        body = _T_INT + rlp.encode_bytes(rlp.uint_to_bytes(value))
    elif kind is bytes:
        body = _T_BYTES + rlp.encode_bytes(value)
    elif kind is tuple:
        items = b"".join(map(encode_value_bytes, value))
        body = _T_TUPLE + rlp.list_header(len(items)) + items
    elif kind is str:
        body = _T_STR + rlp.encode_bytes(value.encode())
    else:
        return rlp.encode(_encode_value(value))
    return rlp.list_header(len(body)) + body


def decode_value(item: rlp.RLPItem):
    """Inverse of :func:`encode_value`."""
    return _decode_value(item)


def _encode_meta(entry: LogEntry) -> rlp.RLPItem:
    if entry.meta is None:
        return [_T_NONE]
    pairs = []
    for key, value in sorted(entry.meta.items()):
        if key == "record":
            # Materialise the event's content; the consumer re-creates a
            # fresh LogRecord (live identity does not cross the wire).
            record: LogRecord = value
            value = (b"record", record.address, record.topics, record.data)
        pairs.append([key.encode(), _encode_value(value)])
    return [_T_TUPLE, pairs]


def _decode_meta(item: rlp.RLPItem):
    if item == [_T_NONE]:
        return None
    meta = {}
    for key_bytes, value_item in item[1]:
        key = key_bytes.decode()
        value = _decode_value(value_item)
        if key == "record":
            _, address, topics, data = value
            value = LogRecord(address=address, topics=topics, data=data)
        meta[key] = value
    return meta


def encode_entry(entry: LogEntry) -> rlp.RLPItem:
    """One entry as a nested RLP structure."""
    return [
        rlp.uint_to_bytes(entry.lsn),
        rlp.uint_to_bytes(int(entry.opcode)),
        _encode_value(entry.operands),
        _encode_value(entry.result),
        _encode_value(entry.def_stack),
        _encode_value(entry.def_storage),
        _encode_value(entry.def_memory),
        _encode_value(entry.key),
        rlp.uint_to_bytes(entry.gas_cost),
        b"\x01" if entry.gas_dynamic else b"",
        _encode_meta(entry),
    ]


def decode_entry(item: rlp.RLPItem) -> LogEntry:
    if not isinstance(item, list) or len(item) != 11:
        raise SerializationError("malformed log-entry encoding")
    return LogEntry(
        lsn=rlp.bytes_to_uint(item[0]),
        opcode=rlp.bytes_to_uint(item[1]),
        operands=_decode_value(item[2]),
        result=_decode_value(item[3]),
        def_stack=_decode_value(item[4]),
        def_storage=_decode_value(item[5]),
        def_memory=_decode_value(item[6]),
        key=_decode_value(item[7]),
        gas_cost=rlp.bytes_to_uint(item[8]),
        gas_dynamic=item[9] == b"\x01",
        meta=_decode_meta(item[10]),
    )


def encode_log(log: SSAOperationLog) -> bytes:
    """Serialize a whole operation log to RLP bytes."""
    return rlp.encode(
        [
            b"\x01" if log.redoable else b"",
            [encode_entry(entry) for entry in log.entries],
        ]
    )


def decode_log(data: bytes) -> SSAOperationLog:
    """Rebuild an operation log — entries, tracking maps and DUG — from RLP."""
    decoded = rlp.decode(data)
    if not isinstance(decoded, list) or len(decoded) != 2:
        raise SerializationError("malformed log encoding")
    redoable_flag, entry_items = decoded
    log = SSAOperationLog()
    for item in entry_items:
        entry = decode_entry(item)
        if entry.lsn != log.next_lsn():
            raise SerializationError(
                f"non-sequential LSN {entry.lsn} in serialized log"
            )
        log.append(entry)
        if entry.opcode in _LOAD_OPS:
            log.record_load(entry)
        elif entry.opcode in _STORE_OPS:
            log.record_store(entry)
    log.redoable = redoable_flag == b"\x01"
    return log
