"""The transaction mix every block generator draws from.

The paper evaluates on Ethereum mainnet blocks 14.0M-15.0M; the generators
synthesize that window's contention structure:

- **Transaction mix**: native ETH transfers, ERC20 calls (transfer /
  transferFrom / approve; ~9 of the top-10 contracts are ERC20s), AMM
  swaps — the DeFi share that makes hot reserve slots — and crowdfund
  contributions for the remainder.
- **Contract popularity** is Zipf-distributed (Figure 3a's straight
  log-log line): a handful of tokens and pairs take most invocations.
- **Recipient skew**: a share of transfers credit a few hot deposit
  addresses (exchanges), the commutative-RMW hot slots that dominate real
  conflict graphs [Garamvölgyi et al., ICSE '22]; a share of
  transferFroms drain one hot owner (the paper's §3.2 conflict).

:class:`TxMix` owns the block loop, the recipient picker and the four
transaction builders.  Each generator (:mod:`~repro.workloads.mainnet`,
:mod:`~repro.workloads.stream`) supplies only what differs: its block RNG
and per-block shares, its sender draw, where a recipient that drew its
own sender goes, how spent-from accounts are funded, and its calibration.
"""

from __future__ import annotations

import random

from ..contracts import encode_call
from ..evm.message import Transaction
from .block import Block, Chain, ETHER
from .zipf import ZipfSampler

HOT_RECIPIENTS = 2  # the hot deposit addresses: the chain's first accounts
TRANSFER_AMOUNT = 997
SWAP_AMOUNT = 10**8
GAS_LIMIT = 400_000


class TxMix:
    """Blocks of the four transaction families over one chain.

    Calibration, set by each generator: ``ERC20_SHARE`` of a block's
    transactions; ``TRANSFER_SHARE`` and ``TRANSFER_FROM_SHARE`` of its
    ERC20 calls (the rest approve); ``HOT_OWNER_SHARE`` of transferFroms
    drain the hot owner; the Zipf exponents of account, token and pair
    popularity.
    """

    ERC20_SHARE: float
    TRANSFER_SHARE: float
    TRANSFER_FROM_SHARE: float
    HOT_OWNER_SHARE: float
    ACCOUNT_ZIPF: float
    TOKEN_ZIPF: float
    PAIR_ZIPF: float

    def __init__(self, chain: Chain) -> None:
        self.chain = chain
        self._account_sampler = ZipfSampler(len(chain.accounts), self.ACCOUNT_ZIPF)
        self._token_sampler = ZipfSampler(len(chain.tokens), self.TOKEN_ZIPF)
        self._pair_sampler = ZipfSampler(
            max(1, len(chain.amm_pairs)), self.PAIR_ZIPF
        )
        self._hot_recipients = chain.accounts[:HOT_RECIPIENTS]
        self._hot_share = 0.0

    def blocks(self, start: int, count: int) -> list[Block]:
        return [self.block(start + i) for i in range(count)]

    def _fill(
        self, number: int, rng: random.Random, txs_per_block: int,
        native_share: float, amm_share: float, hot_share: float,
    ) -> Block:
        """Block ``number``: each transaction rolls its family from ``rng``."""
        self._hot_share = hot_share
        erc20_end = native_share + self.ERC20_SHARE
        swap_end = erc20_end + amm_share
        txs: list[Transaction] = []
        for _ in range(txs_per_block):
            sender = self._sender(rng)
            roll = rng.random()
            if roll < native_share:
                txs.append(self._native(rng, sender))
            elif roll < erc20_end:
                txs.append(self._erc20(rng, sender))
            elif roll < swap_end:
                txs.append(self._swap(rng, sender))
            else:
                txs.append(self._contribute(rng, sender))
        return Block(number=number, txs=txs, env=self.chain.env)

    # ----------------------------------------------------- generator hooks

    def _sender(self, rng: random.Random) -> bytes:
        raise NotImplementedError

    def _detour(self, rng: random.Random, index: int) -> int:
        """The account index a recipient that drew its own sender takes."""
        raise NotImplementedError

    def _fund_transfer(self, token: bytes, sender: bytes) -> None:
        """Make ``sender``'s token transfer spendable (default: genesis did)."""

    def _fund_transfer_from(self, token: bytes, owner: bytes, spender: bytes) -> None:
        """Make ``spender``'s transferFrom of ``owner``'s tokens spendable."""

    def _fund_swap(
        self, sender: bytes, pair: bytes, token0: bytes, token1: bytes
    ) -> None:
        """Make ``sender``'s swap on ``pair`` spendable (default: genesis did)."""

    # ------------------------------------------------------------ pickers

    def _account(self, rng: random.Random) -> bytes:
        return self.chain.accounts[self._account_sampler.sample(rng)]

    def _recipient(self, rng: random.Random, sender: bytes) -> bytes:
        if rng.random() < self._hot_share:
            return rng.choice(self._hot_recipients)
        accounts = self.chain.accounts
        index = self._account_sampler.sample(rng)
        if accounts[index] == sender:
            index = self._detour(rng, index)
        return accounts[index]

    # --------------------------------------------------------- tx builders

    def _native(self, rng: random.Random, sender: bytes) -> Transaction:
        recipient = self._recipient(rng, sender)
        return Transaction(
            sender=sender,
            to=recipient,
            value=rng.randrange(1, ETHER // 1000),
            gas_limit=21_000,
            nonce=self.chain.next_nonce(sender),
        )

    def _erc20(self, rng: random.Random, sender: bytes) -> Transaction:
        chain = self.chain
        token = chain.tokens[self._token_sampler.sample(rng)]
        recipient = self._recipient(rng, sender)
        if recipient in self._hot_recipients:
            # Exchange deposits flow into the dominant token: one hot
            # balance slot, not one per token (matches the 0.1%-of-slots /
            # 62%-of-accesses concentration of Figure 3b).
            token = chain.tokens[0]
        roll = rng.random()
        if roll < self.TRANSFER_SHARE:
            self._fund_transfer(token, sender)
            data = encode_call("transfer(address,uint256)", recipient, TRANSFER_AMOUNT)
        elif roll < self.TRANSFER_SHARE + self.TRANSFER_FROM_SHARE:
            # A share of transferFroms drain one hot owner (airdrop/dispenser
            # accounts): the paper's motivating conflict on balances[A].
            if rng.random() < self.HOT_OWNER_SHARE:
                owner = chain.accounts[0]
                token = chain.tokens[0]  # the hot airdrop/dispenser token
            else:
                owner = self._account(rng)
            self._fund_transfer_from(token, owner, sender)
            data = encode_call(
                "transferFrom(address,address,uint256)",
                owner,
                recipient,
                TRANSFER_AMOUNT,
            )
        else:
            data = encode_call(
                "approve(address,uint256)", recipient, TRANSFER_AMOUNT * 100
            )
        return Transaction(
            sender=sender,
            to=token,
            data=data,
            gas_limit=GAS_LIMIT,
            nonce=chain.next_nonce(sender),
        )

    def _swap(self, rng: random.Random, sender: bytes) -> Transaction:
        pair, token0, token1 = self.chain.amm_pairs[self._pair_sampler.sample(rng)]
        self._fund_swap(sender, pair, token0, token1)
        return Transaction(
            sender=sender,
            to=pair,
            data=encode_call(
                "swap(uint256,uint256,address)",
                rng.randrange(SWAP_AMOUNT // 2, SWAP_AMOUNT * 2),
                rng.randrange(2),
                sender,
            ),
            gas_limit=GAS_LIMIT,
            nonce=self.chain.next_nonce(sender),
        )

    def _contribute(self, rng: random.Random, sender: bytes) -> Transaction:
        return Transaction(
            sender=sender,
            to=self.chain.crowdfunds[0],
            data=encode_call("contribute(uint256)", rng.randrange(1, 10**6)),
            gas_limit=GAS_LIMIT,
            nonce=self.chain.next_nonce(sender),
        )
