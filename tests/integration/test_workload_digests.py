"""Every generated transaction, pinned: the mainnet and stream generators.

For each case the generator's blocks are folded into one sha256 over every
transaction's ``(sender, to, value, data, gas_limit, gas_price, nonce,
tx_index)``, followed by what generation did to the genesis world: its
``fingerprint()`` (the lazy and transferFrom funding writes) and its
simulated read counters and cache size (the mainnet generator grants
allowances through ``get_storage``, a simulated read; the stream generator
funds through ``peek``, which must stay invisible).  The literals were
recorded before the two generators were merged into one transaction mix,
so a reordered random draw, a lost funding write or an extra simulated read
fails here even when every executor still agrees with serial.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.bench.harness import standard_chain, standard_workload
from repro.workloads import (
    BlockStream,
    ChainSpec,
    MainnetConfig,
    MainnetWorkload,
    StreamSpec,
    build_chain,
    build_stream_chain,
)

START = 14_000_000

RECORDED_AT_PARENT = {
    "mainnet-default": "ba9f374a89705f5b",
    "mainnet-standard-60": "3482fdd98454110e",
    "mainnet-120-seed-7": "ae0f60a897f5a905",
    "mainnet-fig9": "9eb73920f7735b3a",
    "stream-default": "8754ddaf7f1ec4a3",
    "stream-drift": "acf8125f7ee14996",
    "stream-3-tokens-1-pair": "e2b65e260c45de65",
    "stream-eager-chain": "d8dfdb80551ea820",
}


def _digest(chain, blocks) -> str:
    digest = hashlib.sha256()
    for block in blocks:
        digest.update(repr(block.number).encode())
        for tx in block.txs:
            row = (
                tx.sender, tx.to, tx.value, bytes(tx.data or b""),
                tx.gas_limit, tx.gas_price, tx.nonce, tx.tx_index,
            )
            digest.update(repr(row).encode())
    db = chain.world.db
    digest.update(chain.world.fingerprint())
    digest.update(repr((db.cache.misses, db.cache.hits, len(db.cache))).encode())
    return digest.hexdigest()[:16]


def _mainnet_chain():
    return build_chain(ChainSpec(tokens=4, amm_pairs=2, accounts=160))


def _mainnet_default():
    chain = _mainnet_chain()
    return chain, MainnetWorkload(chain).blocks(START, 2)


def _mainnet_standard():
    chain = standard_chain(accounts=200)
    return chain, standard_workload(chain, 60).blocks(START, 3)


def _mainnet_seeded():
    chain = _mainnet_chain()
    config = MainnetConfig(txs_per_block=120, seed=7)
    return chain, MainnetWorkload(chain, config).blocks(START + 5, 2)


def _mainnet_fig9():
    # The per-block reshaping run_fig9 does (block size and mix vary).
    chain = _mainnet_chain()
    base = MainnetConfig()
    blocks = []
    for i in range(6):
        rng = random.Random(0x9F9 ^ i)
        config = MainnetConfig(
            txs_per_block=max(10, int(120 * rng.uniform(0.15, 1.4))),
            native_share=min(0.8, base.native_share * rng.uniform(0.5, 2.5)),
            amm_share=base.amm_share * rng.uniform(0.3, 1.5),
        )
        blocks.append(MainnetWorkload(chain, config).block(START + i))
    return chain, blocks


def _stream(spec, numbers, chain=None):
    chain = chain if chain is not None else build_stream_chain(spec)
    stream = BlockStream(chain, spec)
    return chain, [stream.block(n) for n in numbers]


def _stream_default():
    spec = StreamSpec(accounts=400)
    return _stream(spec, range(spec.start_block, spec.start_block + 4))


def _stream_drift():
    spec = StreamSpec(
        accounts=300, hot_recipient_share=0.5, hot_drift_per_1k=5.0, seed=2
    )
    start = spec.start_block
    return _stream(spec, [start, start + 1, start + 2, start + 100])


def _stream_small_contracts():
    spec = StreamSpec(accounts=200, tokens=3, amm_pairs=1, txs_per_block=30, seed=4)
    return _stream(spec, range(spec.start_block, spec.start_block + 4))


def _stream_eager_chain():
    # validate_roots' fixture: every account funded at genesis.
    chain = build_chain(
        ChainSpec(accounts=60, tokens=3, proxied_tokens=1, amm_pairs=2)
    )
    spec = StreamSpec(accounts=60, tokens=3, amm_pairs=2, txs_per_block=20, seed=1)
    return _stream(spec, range(spec.start_block, spec.start_block + 4), chain)


CASES = {
    "mainnet-default": _mainnet_default,
    "mainnet-standard-60": _mainnet_standard,
    "mainnet-120-seed-7": _mainnet_seeded,
    "mainnet-fig9": _mainnet_fig9,
    "stream-default": _stream_default,
    "stream-drift": _stream_drift,
    "stream-3-tokens-1-pair": _stream_small_contracts,
    "stream-eager-chain": _stream_eager_chain,
}


def case_digest(case: str) -> str:
    return _digest(*CASES[case]())


@pytest.mark.parametrize("case", list(CASES))
def test_generated_blocks_equal_the_parents(case):
    assert case_digest(case) == RECORDED_AT_PARENT[case]


if __name__ == "__main__":
    # Print the current digests (to re-record after an intended change).
    for name in CASES:
        print(f'    "{name}": "{case_digest(name)}",')
