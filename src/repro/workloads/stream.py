"""Continuous block-stream synthesis over a large account universe.

:class:`MainnetWorkload` replays single blocks against a genesis whose
every account is eagerly funded with every token balance and AMM
allowance — fine for a few hundred accounts, quadratic pain for the
hundreds of thousands a soak run (:mod:`repro.service`) needs.  This
module draws from the same transaction mix (:mod:`repro.workloads.mix`)
over large universes by funding lazily: genesis deploys the contracts and
ether balances only, and token balances / allowances are written the
first time the stream selects an account for a call that needs them.
Lazy funding goes through :meth:`WorldState.peek`/``set_*`` so it never
perturbs the simulated cache, latency model or read counters.

Everything is deterministic in ``(spec, block number)``: generating block
``n`` always produces the same transactions and the same lazy-funding
writes, in the same order — which is what lets a soak run's telemetry
stream be byte-identical across runs.

The conflict-rate knob is ``hot_recipient_share`` (the fraction of value
transfers credited to a tiny hot deposit set — the dominant conflict
shape of real blocks), optionally drifting over the stream via
``hot_drift_per_1k`` to replay rising/falling historical conflict-rate
trajectories (Anjana et al., arXiv 2505.05358).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import ClassVar

from ..contracts import allowance_slot, balance_slot
from ..primitives import make_address
from ..state.keys import storage_key
from .block import Block, Chain, ChainSpec, FUND_ETHER, TOKEN_BALANCE, build_chain
from .mix import TxMix


@dataclass(slots=True)
class StreamSpec:
    """Shape of a continuous block stream (all deterministic inputs).

    ``accounts`` is the universe size — soak acceptance runs use 100k+.
    The contract mix and its calibration are :class:`BlockStream`'s.
    """

    accounts: int = 100_000
    tokens: int = 6
    amm_pairs: int = 2
    txs_per_block: int = 40
    hot_recipient_share: float = 0.25
    hot_drift_per_1k: float = 0.0  # hot-share drift per 1000 blocks
    seed: int = 1
    start_block: ClassVar[int] = 14_000_000


def build_stream_chain(
    spec: StreamSpec | None = None,
    cache_capacity: int | None = None,
) -> Chain:
    """A genesis :class:`Chain` sized for a stream over ``spec.accounts``.

    Contracts and AMM reserves come from :func:`build_chain` over a
    *contract-only* spec (zero user accounts — the quadratic per-account
    funding loops never run); the account universe is then funded with
    ether in one linear pass.  ``cache_capacity`` bounds the simulated
    LevelDB block cache of the service's long-lived world.
    """
    spec = spec or StreamSpec()
    chain = build_chain(
        ChainSpec(tokens=spec.tokens, amm_pairs=spec.amm_pairs, accounts=0)
    )
    accounts = [make_address(10_000 + i) for i in range(spec.accounts)]
    for account in accounts:
        chain.world.set_balance(account, FUND_ETHER)
    chain.accounts = accounts
    chain.spec = spec  # the stream's sizing knobs travel with the chain
    if cache_capacity is not None:
        chain.world.db.cache.capacity = cache_capacity
    chain.world.db.cache.clear()
    chain.world.db.reset_stats()
    return chain


class BlockStream(TxMix):
    """A deterministic, unbounded stream of blocks over one chain.

    ``block(n)`` is a pure function of ``(spec.seed, n)`` *given* that
    blocks are generated in ascending order starting from
    ``spec.start_block`` (lazy funding writes the first time an account
    needs a token balance or allowance, so generation order is part of
    the determinism contract — exactly like ``Chain.next_nonce``).
    """

    NATIVE_SHARE = 0.30
    ERC20_SHARE = 0.48
    AMM_SHARE = 0.17
    TRANSFER_SHARE = 0.70
    TRANSFER_FROM_SHARE = 0.15
    HOT_OWNER_SHARE = 0.6
    ACCOUNT_ZIPF = 0.8
    TOKEN_ZIPF = 1.3
    PAIR_ZIPF = 2.0

    def __init__(self, chain: Chain, spec: StreamSpec | None = None) -> None:
        self.spec = spec if spec is not None else chain.spec
        if not isinstance(self.spec, StreamSpec):
            raise TypeError("BlockStream needs a StreamSpec")
        super().__init__(chain)
        # Lazy-funding memo: which (token, account) balances and
        # (token, owner, spender) allowances are already provisioned.
        self._funded: set = set()

    def hot_share(self, number: int) -> float:
        """This block's hot-recipient share (the conflict-rate trajectory)."""
        spec = self.spec
        drift = spec.hot_drift_per_1k * (number - spec.start_block) / 1000.0
        return min(0.95, max(0.0, spec.hot_recipient_share + drift))

    def block(self, number: int) -> Block:
        rng = random.Random((self.spec.seed << 24) ^ number)
        return self._fill(
            number,
            rng,
            self.spec.txs_per_block,
            self.NATIVE_SHARE,
            self.AMM_SHARE,
            self.hot_share(number),
        )

    def _sender(self, rng: random.Random) -> bytes:
        return self._account(rng)

    def _detour(self, rng: random.Random, index: int) -> int:
        return (self._account_sampler.sample(rng) + 1) % len(self.chain.accounts)

    # ------------------------------------------------------- lazy funding

    def _fund(self, token: bytes, account: bytes, spender: bytes | None = None) -> None:
        """Give ``account`` a ``token`` balance — or, with ``spender``, let
        ``spender`` move it — unless already provisioned."""
        memo = (token, account, spender)
        if memo in self._funded:
            return
        self._funded.add(memo)
        if spender is None:
            slot, value = balance_slot(account), TOKEN_BALANCE
        else:
            slot, value = allowance_slot(account, spender), 2**255
        world = self.chain.world
        if world.peek(storage_key(token, slot)) == 0:
            world.set_storage(token, slot, value)

    def _fund_transfer(self, token: bytes, sender: bytes) -> None:
        self._fund(token, sender)

    def _fund_transfer_from(self, token: bytes, owner: bytes, spender: bytes) -> None:
        self._fund(token, owner)
        self._fund(token, owner, spender)

    def _fund_swap(
        self, sender: bytes, pair: bytes, token0: bytes, token1: bytes
    ) -> None:
        self._fund(token0, sender)
        self._fund(token1, sender)
        self._fund(token0, sender, pair)
        self._fund(token1, sender, pair)
