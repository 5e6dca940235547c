"""Every receipt, pinned: each block's receipts root and each receipt's bloom.

Two cases, each folded into one sha256 over every block's ``receipts_root``
and every receipt's 2048-bit ``bloom``.  ``stream`` is built like the wall
benchmark's ``validate_roots`` workload — a ``BlockStream`` over a 16-account
chain with two tokens and one AMM pair, run block after block through a
``ChainService`` — so one token address and one ``Transfer`` topic recur in
block after block.  ``mainnet`` is one ``MainnetWorkload`` block with swaps
(each swap logs its two token transfers).  The literals were
recorded before the bloom hashing went through the process digest memo, so
a memo that hands back a wrong or stale digest fails here even when every
executor still agrees with serial.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.concurrency.registry import make_executor
from repro.service import ChainService
from repro.state.receipts import BLOOM_BYTES, build_receipts, receipts_root
from repro.workloads import (
    BlockStream,
    ChainSpec,
    MainnetConfig,
    MainnetWorkload,
    StreamSpec,
    build_chain,
)

START = 14_000_000
STREAM_BLOCKS = 48

RECORDED_AT_PARENT = {
    "stream": "e47db72a77ebc48f",
    "mainnet": "ab3fe3b431416c2d",
}


def _fold(digest, tx_results) -> None:
    digest.update(receipts_root(tx_results))
    for receipt in build_receipts(tx_results):
        digest.update(receipt.bloom.to_bytes(BLOOM_BYTES, "big"))


def _stream_case():
    chain = build_chain(
        ChainSpec(accounts=16, tokens=2, proxied_tokens=1, amm_pairs=1)
    )
    spec = StreamSpec(
        accounts=16, tokens=2, amm_pairs=1, txs_per_block=4, seed=1
    )
    service = ChainService(BlockStream(chain, spec), make_executor("parallelevm", 8))
    results = []
    for _ in range(STREAM_BLOCKS):
        service.run_block()
        results.append(service.last_result.tx_results)
    return chain, results


def _mainnet_case():
    chain = build_chain(ChainSpec(tokens=4, amm_pairs=2, accounts=160))
    block = MainnetWorkload(chain, MainnetConfig(txs_per_block=60)).block(START)
    result = make_executor("parallelevm", 8).execute_block(
        chain.fresh_world(), block.txs, block.env
    )
    return chain, [result.tx_results]


CASES = {"stream": _stream_case, "mainnet": _mainnet_case}


def case_digest(case: str) -> str:
    _, blocks = CASES[case]()
    digest = hashlib.sha256()
    for tx_results in blocks:
        _fold(digest, tx_results)
    return digest.hexdigest()[:16]


@pytest.mark.parametrize("case", list(CASES))
def test_receipts_equal_the_parents(case):
    assert case_digest(case) == RECORDED_AT_PARENT[case]


def test_the_stream_repeats_its_bloom_elements_across_blocks():
    _, blocks = _stream_case()
    addresses = [
        log.address for tx_results in blocks for r in tx_results for log in r.logs
    ]
    logging_blocks = sum(any(r.logs for r in tx_results) for tx_results in blocks)
    assert len(blocks) >= 40 and logging_blocks >= 20
    assert len(set(addresses)) < len(addresses) / 4


def test_the_mainnet_block_swaps_and_each_swap_logs():
    chain, (tx_results,) = _mainnet_case()
    pairs = {pair for pair, _, _ in chain.amm_pairs}
    swaps = [r for r in tx_results if r.tx.to in pairs]
    assert swaps and all(r.success and r.logs for r in swaps)


if __name__ == "__main__":
    # Print the current digests (to re-record after an intended change).
    for name in CASES:
        print(f'    "{name}": "{case_digest(name)}",')
