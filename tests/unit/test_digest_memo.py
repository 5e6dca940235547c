"""``repro.crypto.DigestMemo``: the one memo behind every remembered Keccak.

Two instances exist in the program — the process-wide ``keccak256_cached``
and one per block executor, which the interpreter is handed as its hasher
(``tests/integration/test_digest_memo_executors.py`` covers that side).
Here: the table against a model of it, and the rule that a miss — and an
``EVM`` that was handed no hasher — reaches ``repro.crypto.keccak256``
through the module global *at call time*, which is how
``benchmarks/wall/trace.py`` sees the kernel.
"""

from __future__ import annotations

from unittest import mock

from hypothesis import given
from hypothesis import strategies as st

from repro import crypto
from repro.crypto import DigestMemo, keccak256, keccak256_cached
from repro.evm.assembler import assemble
from repro.evm.interpreter import EVM
from repro.evm.message import BlockEnv, CallMessage, Transaction
from repro.primitives import make_address
from repro.state import StateView, WorldState

CONTRACT = make_address(0xCA11)
SENDER = make_address(0x5E4D)


class KeccakSpy:
    """Stands in for ``repro.crypto.keccak256`` (or for an ``EVM``'s hasher);
    keeps what it was asked."""

    def __init__(self) -> None:
        self.seen: list[bytes] = []

    def __call__(self, data) -> bytes:
        self.seen.append(bytes(data))
        return keccak256(data)


# Few enough distinct short inputs that they recur, more than the bound of 4
# so that they also evict one another; the lengths straddle the threshold.
_POOL = [bytes([i]) * length for i in range(3) for length in (0, 1, 64, 128, 129, 200)]
_INPUTS = st.lists(
    st.tuples(
        st.sampled_from(_POOL) | st.binary(max_size=200),
        st.sampled_from([bytes, bytearray, memoryview]),
    ),
    max_size=60,
)


@given(_INPUTS)
def test_any_interleaving_against_a_model_of_the_table(calls):
    """Right digest every time, as ``bytes``; never above the bound; long
    inputs never stored; the oldest entry is the one that makes room."""
    bound = 4
    memo = DigestMemo(bound)
    model: list[bytes] = []  # remembered inputs, oldest first
    expected_hashed: list[bytes] = []
    spy = KeccakSpy()
    with mock.patch.object(crypto, "keccak256", spy):
        for data, as_type in calls:
            digest = memo(as_type(data))
            assert type(digest) is bytes
            assert digest == keccak256(data)
            if len(data) > 128:
                expected_hashed.append(data)
            elif data not in model:
                expected_hashed.append(data)
                if len(model) == bound:
                    model.pop(0)
                model.append(data)
            assert len(memo) == len(model) <= bound
    assert spy.seen == expected_hashed


def test_the_threshold_is_128_bytes_inclusive():
    memo = DigestMemo(8)
    memo(b"a" * 128)
    assert len(memo) == 1
    memo(b"a" * 129)
    memo(b"a" * 10_000)
    assert len(memo) == 1


def test_a_full_table_loses_one_entry_not_all_of_them(monkeypatch):
    memo = DigestMemo(3)
    for data in (b"one", b"two", b"three", b"four"):
        memo(data)
    assert len(memo) == 3
    spy = KeccakSpy()
    monkeypatch.setattr(crypto, "keccak256", spy)
    for data in (b"two", b"three", b"four"):  # still remembered
        memo(data)
    assert spy.seen == []
    memo(b"one")  # the oldest was the one evicted
    assert spy.seen == [b"one"]


def test_two_memos_share_nothing(monkeypatch):
    first, second = DigestMemo(8), DigestMemo(8)
    first(b"only the first has hashed this")
    spy = KeccakSpy()
    monkeypatch.setattr(crypto, "keccak256", spy)
    second(b"only the first has hashed this")
    assert spy.seen == [b"only the first has hashed this"]
    assert (len(first), len(second)) == (1, 1)


def test_keccak256_cached_is_the_same_class_with_its_old_bound():
    assert type(keccak256_cached) is DigestMemo
    assert keccak256_cached.capacity == 65536
    assert keccak256_cached.MAX_INPUT_BYTES == 128
    # The one memo implementation of the module: no bare table beside it.
    assert not [
        name
        for name, value in vars(crypto).items()
        if isinstance(value, dict) and not name.startswith("__")
    ]


def test_a_miss_resolves_keccak256_when_called_not_when_built(monkeypatch):
    memo = DigestMemo(8)  # built first: nothing may be captured here
    spy = KeccakSpy()
    monkeypatch.setattr(crypto, "keccak256", spy)
    short, long = b"short input, first time", b"L" * 129
    assert memo(short) == keccak256(short)
    assert memo(long) == keccak256(long)
    assert memo(short) == keccak256(short)
    assert spy.seen == [short, long]


# ------------------------------------------------- the interpreter's default

SHA3_OF_64_BYTES = assemble(
    """
    PUSH 7 PUSH0 MSTORE
    PUSH 9 PUSH 32 MSTORE
    PUSH 64 PUSH0 SHA3
    PUSH0 MSTORE PUSH 32 PUSH0 RETURN
    """
)
PREIMAGE = (7).to_bytes(32, "big") + (9).to_bytes(32, "big")


def _evm(code: bytes, hasher=None, env: BlockEnv | None = None, world=None):
    """An ``EVM`` over ``code`` installed at CONTRACT, and a call into it."""
    world = world if world is not None else WorldState()
    world.set_code(CONTRACT, code)
    tx = Transaction(sender=SENDER, to=CONTRACT, gas_limit=100_000)
    evm = EVM(StateView(world), env or BlockEnv(), tx, hasher=hasher)
    msg = CallMessage(
        caller=SENDER, to=CONTRACT, value=0, data=b"", gas=100_000,
        static=False, depth=0,
    )
    return evm, msg


def test_an_evm_handed_no_hasher_resolves_keccak256_at_call_time(monkeypatch):
    evm, msg = _evm(SHA3_OF_64_BYTES)  # built before the spy exists
    spy = KeccakSpy()
    monkeypatch.setattr(crypto, "keccak256", spy)
    success, data, _gas = evm.call(msg)
    assert success and data == keccak256(PREIMAGE)
    assert spy.seen == [PREIMAGE]
    evm.call(msg)
    assert spy.seen == [PREIMAGE, PREIMAGE]  # plain hashing remembers nothing


def test_an_evm_hashes_through_the_hasher_it_was_given(monkeypatch):
    memo = DigestMemo(8)
    evm, msg = _evm(SHA3_OF_64_BYTES, hasher=memo)
    spy = KeccakSpy()
    monkeypatch.setattr(crypto, "keccak256", spy)
    for _ in range(3):
        success, data, _gas = evm.call(msg)
        assert success and data == keccak256(PREIMAGE)
    assert spy.seen == [PREIMAGE]
    assert len(memo) == 1


def test_extcodehash_and_blockhash_use_the_given_hasher():
    hasher = KeccakSpy()
    other = make_address(0x0DD)
    code = assemble(
        f"""
        PUSH {int.from_bytes(other, "big")} EXTCODEHASH POP
        PUSH 99 BLOCKHASH
        PUSH0 MSTORE PUSH 32 PUSH0 RETURN
        """
    )
    world = WorldState()
    world.set_code(other, b"\x00\x01\x02")
    evm, msg = _evm(code, hasher=hasher, env=BlockEnv(number=100), world=world)
    success, data, _gas = evm.call(msg)
    blockhash_input = b"blockhash:" + (99).to_bytes(32, "big")
    assert success and data == keccak256(blockhash_input)
    assert hasher.seen == [b"\x00\x01\x02", blockhash_input]
