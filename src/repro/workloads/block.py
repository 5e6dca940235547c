"""Chain fixtures: genesis state with deployed contracts and funded users.

A :class:`Chain` bundles a world state, its block environment and the
addresses of everything the generators need: ERC20 tokens, AMM pairs wired
to token reserves, a crowdfund contract and a population of funded user
accounts (each pre-approving every AMM pair, as real DEX users do).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace

from ..contracts import (
    AMM,
    Crowdfund,
    ERC20,
    IMPLEMENTATION_SLOT,
    Proxy,
    allowance_slot,
    balance_slot,
)
from ..contracts.amm import (
    RESERVE0_SLOT,
    RESERVE1_SLOT,
    TOKEN0_SLOT,
    TOKEN1_SLOT,
)
from ..evm.message import BlockEnv, Transaction
from ..primitives import address_to_word, make_address
from ..state.world import WorldState

ETHER = 10**18
FUND_ETHER = 1_000 * ETHER  # every account's genesis ether
TOKEN_BALANCE = 10**12  # an account's balance of each token it holds
RESERVE = 10**15  # each AMM reserve


@dataclass(slots=True)
class Block:
    """An ordered batch of transactions plus its environment."""

    number: int
    txs: list[Transaction]
    env: BlockEnv

    def __post_init__(self) -> None:
        for index, tx in enumerate(self.txs):
            tx.tx_index = index

    def __len__(self) -> int:
        return len(self.txs)


def copy_block(number: int, txs, env: BlockEnv) -> Block:
    """A Block over *copies* of ``txs`` (``__post_init__`` renumbers them).

    The sweep harnesses re-cut one fuzzed block into several (pre/post
    halves, ancestor + fork); copying keeps the pieces from renumbering
    each other's transactions.
    """
    return Block(
        number=number,
        txs=[replace(tx) for tx in txs],
        env=replace(env, number=number),
    )


@dataclass(slots=True)
class ChainSpec:
    """Sizing knobs for :func:`build_chain`."""

    tokens: int = 20
    # The hottest mainnet tokens (USDC et al.) are upgradeable proxies; the
    # first `proxied_tokens` tokens are deployed as delegate-call proxies
    # over one shared ERC20 implementation.
    proxied_tokens: int = 2
    amm_pairs: int = 8
    accounts: int = 400
    seed: int = 2022


@dataclass(slots=True)
class Chain:
    """A genesis world state plus the addresses living in it."""

    world: WorldState
    env: BlockEnv
    tokens: list[bytes]
    amm_pairs: list[tuple[bytes, bytes, bytes]]  # (pair, token0, token1)
    crowdfunds: list[bytes]
    accounts: list[bytes]
    spec: ChainSpec
    _nonces: dict[bytes, int] = field(default_factory=dict)

    def next_nonce(self, sender: bytes) -> int:
        """Sequential nonces per sender (the generators route through this)."""
        nonce = self._nonces.get(sender, 0)
        self._nonces[sender] = nonce + 1
        return nonce

    def fresh_world(self) -> WorldState:
        """An independent cold-cache copy for one executor run."""
        return self.world.clone()


@dataclass(slots=True)
class ChainView:
    """Just the ``(world, env)`` of a chain: what a service needs to run on.

    A :class:`~repro.service.chain_service.ChainService` built with
    ``chain=`` reads nothing else, so a promoted replica's recovered world,
    or one fixture's genesis cloned afresh for each sweep run, is stood up
    as a chain through this rather than through a full :class:`Chain`.
    """

    world: WorldState
    env: BlockEnv


def build_chain(spec: ChainSpec | None = None) -> Chain:
    """Construct a genesis world state per ``spec``.

    Token balances and AMM reserves are written directly into storage slots
    (the Solidity mapping layout from repro.contracts), standing in for the
    deployment and mint history that produced the paper's archive state.
    """
    spec = spec or ChainSpec()
    world = WorldState()
    env = BlockEnv(number=14_000_000, coinbase=make_address(0xC0FFEE))

    accounts = [make_address(10_000 + i) for i in range(spec.accounts)]
    tokens = [make_address(1_000 + i) for i in range(spec.tokens)]
    crowdfund = make_address(3_000)

    for account in accounts:
        world.set_balance(account, FUND_ETHER)

    # One shared implementation serves every proxied token.
    implementation = make_address(999)
    proxied = min(spec.proxied_tokens, spec.tokens)
    if proxied:
        world.set_code(implementation, ERC20)

    for index, token in enumerate(tokens):
        if index < proxied:
            world.set_code(token, Proxy)
            world.set_storage(
                token, IMPLEMENTATION_SLOT, address_to_word(implementation)
            )
        else:
            world.set_code(token, ERC20)
        world.set_storage(token, 0, TOKEN_BALANCE * spec.accounts)
        for account in accounts:
            world.set_storage(token, balance_slot(account), TOKEN_BALANCE)

    world.set_code(crowdfund, Crowdfund)

    rng = random.Random(spec.seed)
    amm_pairs: list[tuple[bytes, bytes, bytes]] = []
    for i in range(spec.amm_pairs):
        pair = make_address(2_000 + i)
        token0, token1 = rng.sample(tokens, 2) if len(tokens) >= 2 else (
            tokens[0],
            tokens[0],
        )
        world.set_code(pair, AMM)
        world.set_storage(pair, TOKEN0_SLOT, address_to_word(token0))
        world.set_storage(pair, TOKEN1_SLOT, address_to_word(token1))
        world.set_storage(pair, RESERVE0_SLOT, RESERVE)
        world.set_storage(pair, RESERVE1_SLOT, RESERVE)
        world.set_storage(token0, balance_slot(pair), RESERVE)
        world.set_storage(token1, balance_slot(pair), RESERVE)
        # Every user pre-approves the pair for both legs (standard DEX UX).
        for account in accounts:
            world.set_storage(
                token0, allowance_slot(account, pair), 2**255
            )
            world.set_storage(
                token1, allowance_slot(account, pair), 2**255
            )
        amm_pairs.append((pair, token0, token1))

    world.db.cache.clear()
    world.db.reset_stats()
    return Chain(
        world=world,
        env=env,
        tokens=tokens,
        amm_pairs=amm_pairs,
        crowdfunds=[crowdfund],
        accounts=accounts,
        spec=spec,
    )


def grant_allowance(chain: Chain, token: bytes, owner: bytes, spender: bytes) -> None:
    """Let ``spender`` move ``owner``'s ``token`` at genesis if it cannot yet.

    The check is a simulated read of the genesis world (``get_storage``):
    it warms that world's cache and counts in its read statistics.
    """
    slot = allowance_slot(owner, spender)
    if chain.world.get_storage(token, slot) == 0:
        chain.world.set_storage(token, slot, 2**255)
