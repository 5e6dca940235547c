"""Mempool admission control: stateless validation + stateful prechecks."""

from __future__ import annotations

import pytest

from repro.evm.message import Transaction
from repro.mempool import (
    Mempool,
    MempoolConfig,
    decode_wire_transaction,
    pseudo_signature,
    transaction_hash,
    wire_transaction,
)
from repro.workloads import ChainSpec, build_chain

from ..conftest import rejected


@pytest.fixture(scope="module")
def chain():
    return build_chain(ChainSpec(accounts=16, tokens=1, amm_pairs=0, seed=7))


def transfer(
    chain,
    sender_index: int = 0,
    nonce: int = 0,
    gas_price: int = 10,
    value: int = 1_000,
    to_index: int = 1,
) -> Transaction:
    return Transaction(
        sender=chain.accounts[sender_index],
        to=chain.accounts[to_index],
        value=value,
        data=b"",
        gas_limit=21_000,
        gas_price=gas_price,
        nonce=nonce,
    )


class TestWireCodec:
    def test_round_trip_preserves_every_field(self, chain):
        tx = transfer(chain, nonce=3, gas_price=42, value=9_999)
        wire = wire_transaction(tx)
        decoded = decode_wire_transaction(wire)
        for name in ("sender", "to", "value", "data", "gas_limit", "gas_price", "nonce"):
            assert getattr(decoded, name) == getattr(tx, name), name

    def test_hash_is_deterministic_and_index_free(self, chain):
        tx = transfer(chain)
        again = Transaction(**{
            f: getattr(tx, f)
            for f in ("sender", "to", "value", "data", "gas_limit", "gas_price", "nonce")
        }, tx_index=99)
        assert transaction_hash(tx) == transaction_hash(again)
        assert transaction_hash(tx) != transaction_hash(transfer(chain, nonce=1))

    def test_missing_required_field_is_malformed(self, chain):
        wire = wire_transaction(transfer(chain))
        del wire["sender"]
        with rejected("malformed"):
            decode_wire_transaction(wire)

    def test_bad_hex_is_malformed(self, chain):
        wire = wire_transaction(transfer(chain))
        wire["sender"] = "0xzz"
        with rejected("malformed"):
            decode_wire_transaction(wire)

    def test_negative_value_is_malformed(self, chain):
        wire = wire_transaction(transfer(chain))
        wire["value"] = -1
        with rejected("malformed"):
            decode_wire_transaction(wire)

    def test_wrong_chain_id_is_typed(self, chain):
        wire = wire_transaction(transfer(chain))
        wire["chain_id"] = 1338
        with rejected("wrong-chain-id"):
            decode_wire_transaction(wire)

    def test_oversize_calldata_is_typed(self, chain):
        wire = wire_transaction(transfer(chain))
        wire["data"] = "0x" + "ff" * 8192
        with rejected("too-large"):
            decode_wire_transaction(wire)

    def test_starved_gas_limit_is_typed(self, chain):
        wire = wire_transaction(transfer(chain))
        wire["gas_limit"] = 100
        with rejected("intrinsic-gas"):
            decode_wire_transaction(wire)

    def test_signature_shape_is_enforced(self, chain):
        tx = transfer(chain)
        wire = wire_transaction(tx)
        del wire["sig"]
        with rejected("invalid-signature"):
            decode_wire_transaction(wire)
        wire = wire_transaction(tx)
        wire["sig"] = "0x" + "ab" * 12
        with rejected("invalid-signature"):
            decode_wire_transaction(wire)
        # The deterministic pseudo-signature passes the shape checks.
        assert len(pseudo_signature(tx)) == 65
        decode_wire_transaction(wire_transaction(tx))


class TestPoolAdmission:
    def pool(self, chain, **overrides) -> Mempool:
        return Mempool(MempoolConfig(**overrides), chain.world)

    def test_admit_then_select_orders_by_fee(self, chain):
        pool = self.pool(chain)
        cheap = transfer(chain, sender_index=0, gas_price=2)
        rich = transfer(chain, sender_index=2, gas_price=50)
        pool.add(cheap)
        pool.add(rich)
        entries = pool.select(4, 30_000_000)
        assert [e.gas_price for e in entries] == [50, 2]
        assert len(pool) == 2  # selection does not evict; commit does
        pool.mark_committed(entries)
        assert len(pool) == 0

    def test_fee_floor(self, chain, monkeypatch):
        monkeypatch.setattr(MempoolConfig, "min_gas_price", 5)
        pool = self.pool(chain)
        with rejected("fee-too-low") as err:
            pool.add(transfer(chain, gas_price=4))
        assert err.value.retryable

    def test_nonce_too_low_and_gap_window(self, chain, monkeypatch):
        monkeypatch.setattr(MempoolConfig, "max_nonce_gap", 2)
        pool = self.pool(chain)
        from repro.state.keys import nonce_key

        bumped = build_chain(ChainSpec(accounts=8, tokens=1, amm_pairs=0, seed=3))
        bumped.world.apply({nonce_key(bumped.accounts[3]): 5})
        bumped_pool = Mempool(MempoolConfig(), bumped.world)
        with rejected("nonce-too-low"):
            bumped_pool.add(transfer(bumped, sender_index=3, nonce=4))
        with rejected("nonce-gap"):
            pool.add(transfer(chain, sender_index=4, nonce=3))
        # Contiguous fills keep extending the window.
        pool.add(transfer(chain, sender_index=4, nonce=0))
        pool.add(transfer(chain, sender_index=4, nonce=1))
        pool.add(transfer(chain, sender_index=4, nonce=3))

    def test_replacement_needs_a_fee_bump(self, chain):
        pool = self.pool(chain)  # a 10 % bump
        pool.add(transfer(chain, sender_index=5, gas_price=100))
        with rejected("replacement-underpriced"):
            pool.add(transfer(chain, sender_index=5, gas_price=105))
        pool.add(transfer(chain, sender_index=5, gas_price=110))
        assert len(pool) == 1
        assert pool.select(1, 30_000_000)[0].gas_price == 110

    def test_per_sender_quota(self, chain):
        pool = self.pool(chain, per_sender_quota=2)
        pool.add(transfer(chain, sender_index=6, nonce=0))
        pool.add(transfer(chain, sender_index=6, nonce=1))
        with rejected("sender-quota"):
            pool.add(transfer(chain, sender_index=6, nonce=2))

    def test_cumulative_balance_cover(self, chain):
        pool = self.pool(chain, per_sender_quota=8)
        # 1000 ETH funded; two txs of 600 ETH each cannot both be covered.
        huge = 600 * 10**18
        pool.add(transfer(chain, sender_index=7, nonce=0, value=huge))
        with rejected("insufficient-balance"):
            pool.add(transfer(chain, sender_index=7, nonce=1, value=huge))

    def test_capacity_displaces_cheapest_else_rejects(self, chain):
        pool = self.pool(chain, capacity=2)
        pool.add(transfer(chain, sender_index=0, gas_price=10))
        pool.add(transfer(chain, sender_index=2, gas_price=20))
        with rejected("mempool-full"):
            pool.add(transfer(chain, sender_index=3, gas_price=10))
        # A strictly higher fee displaces the cheapest pooled tx.
        kept = pool.add(transfer(chain, sender_index=3, gas_price=30))
        assert len(pool) == 2
        assert kept in pool
        prices = sorted(e.gas_price for e in pool.select(2, 30_000_000))
        assert prices == [20, 30]

    def test_ttl_shedding_only_fires_above_the_high_watermark(
        self, chain, monkeypatch
    ):
        monkeypatch.setattr(MempoolConfig, "high_watermark", 0.5)
        monkeypatch.setattr(MempoolConfig, "low_watermark", 0.25)
        pool = self.pool(chain, capacity=4, tx_ttl_us=100.0)
        pool.add(transfer(chain, sender_index=0, gas_price=1), now_us=0.0)
        assert pool.shed_expired(1_000.0) == []  # depth 1 < high watermark 2
        pool.add(transfer(chain, sender_index=2, gas_price=9), now_us=0.0)
        pool.add(transfer(chain, sender_index=3, gas_price=5), now_us=0.0)
        shed = pool.shed_expired(1_000.0)
        # Sheds cheapest-first down to the low watermark (1 entry).
        assert [e.gas_price for e in shed] == [1, 5]
        assert len(pool) == 1

    def test_drop_stale_after_external_commit(self, chain):
        chain2 = build_chain(ChainSpec(accounts=8, tokens=1, amm_pairs=0, seed=9))
        pool = Mempool(MempoolConfig(), chain2.world)
        pool.add(transfer(chain2, sender_index=0, nonce=0))
        pool.add(transfer(chain2, sender_index=0, nonce=1))
        from repro.state.keys import nonce_key

        chain2.world.apply({nonce_key(chain2.accounts[0]): 1})
        stale = pool.drop_stale()
        assert [e.nonce for e in stale] == [0]
        assert len(pool) == 1
