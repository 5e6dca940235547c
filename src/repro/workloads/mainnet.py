"""Mainnet-like blocks: the per-block replay workload.

The shared mix (:mod:`repro.workloads.mix`) in the calibration of the
paper's evaluation window, plus what mainnet blocks add: per-block
contention jitter (real blocks vary widely in contention — Figure 9's 2-7x
spread), little sender reuse within a block (nonce chains are rare but
present; hot *recipients* skew mainnet, not hot senders), and a genesis
(:func:`~repro.workloads.block.build_chain`) that already funds every
account, so only transferFrom allowances are granted.  The Figure 3
benchmark measures the realised invocation / slot-access distributions of
generated history against the paper's three headline statistics.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .block import Block, Chain, grant_allowance
from .mix import TxMix

HOT_RECIPIENT_SHARE = 0.34  # transfers crediting a hot deposit address
SENDER_REPEAT_SHARE = 0.04  # same-sender-in-block probability
CONTENTION_JITTER = 0.45  # per-block multiplicative jitter on the hot shares


@dataclass(slots=True)
class MainnetConfig:
    """Block size, seed and the two shares Figure 9 varies per block.

    The defaults are calibrated so that the resulting contention
    (conflicting-transaction share, hot-chain lengths) lands the four
    executors in the paper's Table 1 bands; the calibration benchmark is
    benchmarks/test_table1_speedups.py.
    """

    txs_per_block: int = 200
    native_share: float = 0.26  # then ERC20 calls (0.44), then AMM swaps
    amm_share: float = 0.22  # then crowdfund contributions
    seed: int = 14_000_000


class MainnetWorkload(TxMix):
    """A deterministic stream of mainnet-like blocks over one chain."""

    ERC20_SHARE = 0.44
    TRANSFER_SHARE = 0.62
    TRANSFER_FROM_SHARE = 0.18
    HOT_OWNER_SHARE = 0.75
    ACCOUNT_ZIPF = 0.85
    TOKEN_ZIPF = 1.30
    PAIR_ZIPF = 3.00

    def __init__(self, chain: Chain, config: MainnetConfig | None = None) -> None:
        super().__init__(chain)
        self.config = config or MainnetConfig()
        self._senders: list[bytes] = []

    def block(self, number: int) -> Block:
        """Generate block ``number`` (deterministic in (seed, number))."""
        cfg = self.config
        rng = random.Random((cfg.seed << 20) ^ number)
        # Blocks differ in how contended they are: scale this block's hot
        # shares by a deterministic per-block factor.
        factor = 1.0 + CONTENTION_JITTER * (2.0 * rng.random() - 1.0)
        self._senders = []
        return self._fill(
            number,
            rng,
            cfg.txs_per_block,
            cfg.native_share,
            amm_share=min(0.5, cfg.amm_share * factor),
            hot_share=min(0.9, HOT_RECIPIENT_SHARE * factor),
        )

    def _sender(self, rng: random.Random) -> bytes:
        used = self._senders
        if used and rng.random() < SENDER_REPEAT_SHARE:
            sender = rng.choice(used)
        else:
            accounts = self.chain.accounts
            sender = accounts[rng.randrange(len(accounts))]
        used.append(sender)
        return sender

    def _detour(self, rng: random.Random, index: int) -> int:
        return (index + 1) % len(self.chain.accounts)

    def _fund_transfer_from(self, token: bytes, owner: bytes, spender: bytes) -> None:
        grant_allowance(self.chain, token, owner, spender)
