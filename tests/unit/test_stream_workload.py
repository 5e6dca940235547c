"""The continuous block stream: determinism, lazy funding, executability."""

from __future__ import annotations

from repro.concurrency import SerialExecutor
from repro.contracts import balance_slot
from repro.state.keys import balance_key, storage_key
from repro.workloads import BlockStream, StreamSpec, build_stream_chain
from repro.workloads.block import TOKEN_BALANCE
from repro.workloads.mix import HOT_RECIPIENTS

SMALL = StreamSpec(accounts=300, txs_per_block=20, seed=9)


def _tx_fingerprint(block):
    return [
        (tx.sender, tx.to, tx.value, tx.nonce, bytes(tx.data or b""))
        for tx in block.txs
    ]


class TestBuildStreamChain:
    def test_funds_accounts_linearly(self):
        chain = build_stream_chain(StreamSpec(accounts=50, seed=1))
        assert len(chain.accounts) == 50
        assert chain.world.peek(balance_key(chain.accounts[0])) > 0
        assert chain.world.peek(balance_key(chain.accounts[-1])) > 0

    def test_cache_capacity_is_applied_and_stats_reset(self):
        chain = build_stream_chain(
            StreamSpec(accounts=20, seed=1), cache_capacity=123
        )
        db = chain.world.db
        assert db.cache.capacity == 123
        assert db.cache.misses == 0 and db.cache.hits == 0
        assert len(db.cache) == 0

    def test_large_universe_builds_without_quadratic_funding(self):
        # 20k accounts would take minutes under the eager per-account ×
        # per-token genesis; the stream chain funds ether only.
        chain = build_stream_chain(StreamSpec(accounts=20_000, seed=1))
        assert len(chain.accounts) == 20_000


class TestBlockStreamDeterminism:
    def test_same_spec_same_blocks(self):
        a = BlockStream(build_stream_chain(SMALL))
        b = BlockStream(build_stream_chain(SMALL))
        for offset in range(3):
            number = SMALL.start_block + offset
            assert _tx_fingerprint(a.block(number)) == _tx_fingerprint(
                b.block(number)
            )

    def test_different_seed_different_blocks(self):
        other = StreamSpec(accounts=300, txs_per_block=20, seed=10)
        a = BlockStream(build_stream_chain(SMALL))
        b = BlockStream(build_stream_chain(other))
        assert _tx_fingerprint(a.block(SMALL.start_block)) != _tx_fingerprint(
            b.block(other.start_block)
        )

    def test_lazy_funding_writes_are_deterministic(self):
        worlds = []
        for _ in range(2):
            chain = build_stream_chain(SMALL)
            stream = BlockStream(chain)
            for offset in range(3):
                stream.block(SMALL.start_block + offset)
            worlds.append(chain.world)
        assert worlds[0].fingerprint() == worlds[1].fingerprint()


class TestLazyFunding:
    def test_funding_uses_peek_not_simulated_reads(self):
        chain = build_stream_chain(SMALL)
        stream = BlockStream(chain)
        db = chain.world.db
        stream.block(SMALL.start_block)
        # Generation provisions balances/allowances but must not touch the
        # simulated read path (cache contents, latency counters).
        assert db.cache.misses == 0 and db.cache.hits == 0
        assert len(db.cache) == 0

    def test_token_balances_appear_on_first_use(self):
        chain = build_stream_chain(SMALL)
        stream = BlockStream(chain)
        token = chain.tokens[0]
        account = chain.accounts[5]
        assert chain.world.peek(storage_key(token, balance_slot(account))) == 0
        stream._fund(token, account)
        assert (
            chain.world.peek(storage_key(token, balance_slot(account)))
            == TOKEN_BALANCE
        )
        # Memoized: a second call is a no-op set lookup.
        stream._fund(token, account)


class TestStreamExecutability:
    def test_blocks_execute_with_no_systematic_failures(self):
        chain = build_stream_chain(SMALL)
        stream = BlockStream(chain)
        executor = SerialExecutor()
        total = succeeded = 0
        for offset in range(3):
            block = stream.block(SMALL.start_block + offset)
            result = executor.execute_block(chain.world, block.txs, block.env)
            chain.world.apply(result.writes)
            total += len(result.tx_results)
            succeeded += sum(1 for r in result.tx_results if r.success)
        assert total == 3 * SMALL.txs_per_block
        assert succeeded == total


class TestConflictKnob:
    def test_hot_share_drifts_with_block_height(self):
        spec = StreamSpec(
            accounts=300, hot_recipient_share=0.2, hot_drift_per_1k=0.1, seed=3
        )
        stream = BlockStream(build_stream_chain(spec))
        start = spec.start_block
        assert stream.hot_share(start) == 0.2
        assert stream.hot_share(start + 2000) == 0.4
        assert stream.hot_share(start + 100_000) == 0.95  # clamped

    def test_hot_share_concentrates_recipients(self):
        cold = StreamSpec(
            accounts=300, txs_per_block=40, hot_recipient_share=0.0, seed=4
        )
        hot = StreamSpec(
            accounts=300, txs_per_block=40, hot_recipient_share=0.9, seed=4
        )

        def hot_hits(spec):
            stream = BlockStream(build_stream_chain(spec))
            hot_set = set(stream.chain.accounts[:HOT_RECIPIENTS])
            hits = 0
            for offset in range(4):
                for tx in stream.block(spec.start_block + offset).txs:
                    if tx.to in hot_set or (
                        tx.data and any(h in bytes(tx.data) for h in hot_set)
                    ):
                        hits += 1
            return hits

        assert hot_hits(hot) > hot_hits(cold) * 2
