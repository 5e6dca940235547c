"""Property: every receipt bloom equals the yellow-paper derivation.

Blocks of random logs draw their addresses and topics from small pools, so
elements repeat within a block and across blocks, and all blocks of one
example hash through one ``DigestMemo`` of capacity 4 — fewer entries than
the pools hold — so entries are evicted and re-hashed mid-block.  Every
``Receipt.bloom`` must equal ``tests/unit/bloom_reference.py``'s
derivation, which hashes with the loop-form Keccak and no memo.  The example
budget comes from the active Hypothesis profile (CI re-runs this file under
``--hypothesis-profile=ci``).
"""

from __future__ import annotations

from unittest import mock

from hypothesis import given
from hypothesis import strategies as st

from repro.crypto import DigestMemo
from repro.evm.message import LogRecord, Transaction, TxResult
from repro.primitives import make_address
from repro.state import receipts
from repro.state.receipts import build_receipts

from tests.unit.bloom_reference import element_bits, reference_bloom

ADDRESSES = [make_address(n) for n in (1, 2, 0xA0)]
TOPICS = [0, 1, 0xDDF252AD, 2**256 - 1]

# The oracle's bits of every pool element, derived once up front: the
# loop-form Keccak costs about half a millisecond a call.
BITS = {
    element: element_bits(element)
    for element in ADDRESSES + [topic.to_bytes(32, "big") for topic in TOPICS]
}

logs = st.lists(
    st.builds(
        LogRecord,
        st.sampled_from(ADDRESSES),
        st.lists(st.sampled_from(TOPICS), max_size=4).map(tuple),
        st.binary(max_size=4),
    ),
    max_size=4,
)
blocks = st.lists(st.lists(logs, max_size=5), min_size=1, max_size=4)


def tx_result(index: int, tx_logs: list[LogRecord]) -> TxResult:
    tx = Transaction(sender=make_address(100), to=ADDRESSES[0], tx_index=index)
    return TxResult(tx=tx, success=True, gas_used=21_000, logs=tx_logs)


@given(blocks)
def test_every_receipt_bloom_equals_the_reference(chain):
    with mock.patch.object(receipts, "keccak256_cached", DigestMemo(4)) as memo:
        for block in chain:
            results = [tx_result(i, tx_logs) for i, tx_logs in enumerate(block)]
            built = build_receipts(results)
            assert [r.bloom for r in built] == [
                reference_bloom(tx_logs, BITS.__getitem__) for tx_logs in block
            ]
            assert len(memo) <= 4
