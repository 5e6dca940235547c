"""The journal's byte codec and index prune against the old nested-list code.

``tests/unit/journal_reference.py`` holds the record encoder and the
scanning prune as they were before records were built straight as bytes and
pruning went through the journal's BEGIN index.  Three properties:

- ``encode_value_bytes(v) == rlp.encode(encode_value(v))`` over the whole
  value codec: ``None``, bools, negative and 256-bit ints, byte strings at
  every RLP length boundary, text, nested tuples — some long enough for the
  long-form list header;
- ``encode_record`` equals the reference for all seven record types, with a
  fresh key memo and with one memo shared by a block's records;
- one state machine drives a ``WriteAheadJournal`` and a
  ``ReferenceJournal`` over two media through appends, prunes, truncation
  through the journal, torn appends, foreign raw appends and truncations
  (what recovery does) and reopening, and after every step the two media
  hold the same bytes.

The example budget comes from the active Hypothesis profile (CI re-runs
this file under ``--hypothesis-profile=ci``).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro import rlp
from repro.core.serialize import encode_value, encode_value_bytes
from repro.durability import (
    BeginRecord,
    CheckpointRecord,
    CommitRecord,
    CrashInjector,
    MemoryMedium,
    SealRecord,
    SettleRecord,
    SimulatedCrash,
    TxWriteRecord,
    UndoRecord,
    WriteAheadJournal,
    scan_journal,
)
from repro.durability.journal import encode_record, frame

from tests.unit.journal_reference import ReferenceJournal
from tests.unit.journal_reference import encode_record as reference_record

# -------------------------------------------------------------- the codec

sized_bytes = st.sampled_from([0, 55, 56, 1000]).flatmap(
    lambda n: st.binary(min_size=n, max_size=n)
)
leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from([-1, 0, 127, 128, 255, 256, 2**256 - 1, -(2**256 - 1)]),
    st.integers(0, 255).map(lambda b: bytes([b])),  # < 0x80 and >= 0x80
    sized_bytes,
    st.binary(max_size=80),
    st.text(max_size=70),
)
values = st.recursive(
    leaves, lambda inner: st.lists(inner, max_size=6).map(tuple), max_leaves=24
)

addresses = st.binary(min_size=20, max_size=20)
state_keys = st.one_of(
    st.tuples(st.sampled_from(["b", "n", "c"]), addresses),
    st.tuples(st.just("s"), addresses, st.integers(0, 2**256 - 1)),
)
state_values = st.one_of(
    st.integers(0, 2**256 - 1), st.binary(max_size=120), st.none()
)
write_sets = st.dictionaries(state_keys, state_values, max_size=4)


@given(values)
def test_direct_value_codec_equals_the_nested_one(value):
    assert encode_value_bytes(value) == rlp.encode(encode_value(value))


@given(st.lists(state_keys, min_size=2, max_size=8).map(tuple))
def test_long_key_tuples_take_the_long_form_header(value):
    encoded = encode_value_bytes(value)
    assert encoded[0] >= 0xF8  # a list longer than 55 bytes
    assert encoded == rlp.encode(encode_value(value))


# ------------------------------------------------------------ the records

numbers = st.integers(0, 6)
roots = st.binary(min_size=16, max_size=32)
RECORDS = {
    "begin": st.builds(
        BeginRecord, numbers, st.integers(0, 300), roots, st.integers(0, 9)
    ),
    "txwrite": st.builds(TxWriteRecord, numbers, st.integers(0, 300), write_sets),
    "settle": st.builds(SettleRecord, numbers, write_sets),
    "undo": st.builds(UndoRecord, numbers, write_sets),
    "commit": st.builds(CommitRecord, numbers, roots),
    "seal": st.builds(SealRecord, numbers, roots),
    "checkpoint": st.builds(CheckpointRecord, numbers),
}
records = st.one_of(*RECORDS.values())
# BEGIN frames are what pruning looks for: draw them as often as the rest.
journal_records = st.one_of(RECORDS["begin"], records)


@pytest.mark.parametrize("kind", list(RECORDS))
@given(data=st.data())
def test_every_record_type_encodes_as_the_reference(kind, data):
    record = data.draw(RECORDS[kind])
    assert encode_record(record) == reference_record(record)


@given(st.lists(records, max_size=12))
def test_a_shared_key_memo_changes_no_byte(block):
    keys: dict = {}
    for record in block:
        assert encode_record(record, keys) == reference_record(record)


# ------------------------------------------------------------- the prune

foreign_bytes = st.one_of(
    st.binary(min_size=1, max_size=12),
    journal_records.map(lambda record: frame(reference_record(record))),
)


class JournalMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.medium = MemoryMedium()
        self.reference = MemoryMedium()
        self.journal = WriteAheadJournal(self.medium)
        self.oracle = ReferenceJournal(self.reference)

    @rule(record=journal_records)
    def append(self, record):
        assert self.journal.append(record) == self.oracle.append(record)

    @rule(record=journal_records)
    def torn_append(self, record):
        self.journal.crash = CrashInjector("torn:site")
        with pytest.raises(SimulatedCrash):
            self.journal.append(record, site="site")
        self.journal.crash = None
        data = frame(reference_record(record))
        self.reference.append_journal(data[: max(1, len(data) // 2)])

    @rule(number=numbers)
    def prune(self, number):
        got = self.journal.prune_through(number)
        assert got == self.oracle.prune_through(number)

    @rule(data=st.data())
    def truncate(self, data):
        journal = self.reference.read_journal()
        begins = [
            offset
            for offset, record in scan_journal(journal).frames
            if isinstance(record, BeginRecord)
        ]
        lengths = st.integers(0, len(journal))
        if begins:  # a reorg's cut, or anywhere at all
            lengths = st.one_of(st.sampled_from(begins), lengths)
        length = data.draw(lengths)
        self.journal.truncate(length)
        self.reference.truncate_journal(length)

    @rule(raw=foreign_bytes)
    def foreign_append(self, raw):
        self.medium.append_journal(raw)
        self.reference.append_journal(raw)

    @rule(data=st.data())
    def foreign_truncate(self, data):
        # What recovery does: cut the medium behind the journal's back.
        length = data.draw(st.integers(0, self.reference.journal_size()))
        self.medium.truncate_journal(length)
        self.reference.truncate_journal(length)

    @rule()
    def reopen(self):
        self.journal = WriteAheadJournal(self.medium)
        self.oracle = ReferenceJournal(self.reference)

    @invariant()
    def same_bytes(self):
        assert self.medium.read_journal() == self.reference.read_journal()


JournalMachine.TestCase.settings = settings(deadline=None)
test_index_prune_matches_the_scanning_prune = JournalMachine.TestCase
