"""Seeded adversarial block generation for the differential harness.

The mainnet workload (:mod:`repro.workloads.mainnet`) is calibrated to
reproduce the paper's *statistics*; the fuzzer instead hunts the rare
interleavings where optimistic schedulers break.  Every block mixes the
ordinary traffic families (Zipf-skewed ERC-20 calls on plain and proxied
tokens, AMM swaps, crowdfund contributions, native transfers) with the
edge cases a correctness bug would hide behind:

- **nonce chains** — one sender issuing several transactions in a row,
  creating intrinsic RMW chains on its nonce and balance keys;
- **balance drains** — a transfer spending (almost) the sender's entire
  balance followed by a spend from the same account, so the follow-up's
  success depends on commit order (the intrinsic GUARD_GE path);
- **reverting calls** — ``transferFrom`` without an allowance, transfers
  exceeding the sender's token balance: top-level reverts whose logs and
  state must still match serial execution exactly;
- **gas starvation** — calls whose gas limit lands below, at, or barely
  above the intrinsic cost, exercising the OOG and "intrinsic gas"
  failure envelopes;
- **burns and self-transfers** — ``to=None`` value burns and transfers
  to self (same key read and written in one intrinsic operation).

Blocks are deterministic in ``(FuzzConfig, seed)`` alone: generation never
mutates the shared chain fixture, so ``block(seed)`` is identical whether
or not other seeds were generated first — a property the shrinker and the
CI seed matrix rely on.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass

from ..contracts import allowance_slot, encode_call
from ..evm.message import Transaction
from ..workloads import Block, Chain, ChainSpec, ZipfSampler, build_chain
from ..workloads.block import ETHER, FUND_ETHER, TOKEN_BALANCE

ERC20_GAS = 200_000
FUZZ_BLOCK_BASE = 15_000_000  # fuzz blocks live above the replay window
HOT_OWNERS = 2  # accounts pre-approved as transferFrom victims
SEED_SALT = 0xF0CC  # separates fuzz streams from workload streams


@dataclass(slots=True)
class FuzzConfig:
    """Sizing and conflict knobs for :class:`BlockFuzzer`.

    A family picked per slot may emit more than one transaction (nonce
    chains, balance drains), so blocks contain *at least*
    ``txs_per_block`` transactions.
    """

    txs_per_block: int = 40
    accounts: int = 64
    tokens: int = 3
    amm_pairs: int = 2
    hot_recipients: int = 2
    hot_recipient_share: float = 0.35


class BlockFuzzer:
    """A deterministic stream of adversarial blocks over one chain fixture.

    One fixture serves every seed; each ``block(seed)`` draw is a pure
    function of the config and seed.
    """

    def __init__(self, config: FuzzConfig | None = None) -> None:
        self.config = config or FuzzConfig()
        cfg = self.config
        self.chain: Chain = build_chain(
            ChainSpec(
                tokens=cfg.tokens, amm_pairs=cfg.amm_pairs, accounts=cfg.accounts
            )
        )
        self._token_sampler = ZipfSampler(len(self.chain.tokens), 1.3)
        # (family, relative weight — not normalised, generator)
        self._families = [
            ("native", 0.16, self._native),
            ("native-drain", 0.06, self._native_drain),
            ("burn", 0.04, self._burn),
            ("erc20", 0.28, self._erc20),
            ("erc20-no-allowance", 0.06, self._erc20_no_allowance),
            ("erc20-over-balance", 0.05, self._erc20_over_balance),
            ("amm", 0.12, self._amm_swap),
            ("crowdfund", 0.07, self._crowdfund),
            ("gas-starved", 0.08, self._gas_starved),
            ("nonce-chain", 0.08, self._nonce_chain),
        ]
        self._weights = [w for _, w, _ in self._families]
        # Pre-approve the hot owners for every (token, spender) pair once,
        # at construction: generators must never touch genesis state, or
        # block(seed) would depend on which seeds were generated before it.
        for token in self.chain.tokens:
            for owner in self.hot_owners:
                for spender in self.chain.accounts:
                    self.chain.world.set_storage(
                        token, allowance_slot(owner, spender), 2**255
                    )
        self.chain.world.db.cache.clear()
        self.chain.world.db.reset_stats()

    # -------------------------------------------------------------- fixture

    @property
    def hot_owners(self) -> list[bytes]:
        return self.chain.accounts[:HOT_OWNERS]

    @property
    def hot_recipients(self) -> list[bytes]:
        return self.chain.accounts[-self.config.hot_recipients :]

    # --------------------------------------------------------------- blocks

    def block(self, seed: int) -> Block:
        """Generate the fuzz block for ``seed`` (independent of history)."""
        return self._generate(seed)[0]

    def family_counts(self, seed: int) -> Counter:
        """How many transactions of each family ``block(seed)`` contains."""
        return self._generate(seed)[1]

    def _generate(self, seed: int) -> tuple[Block, Counter]:
        cfg = self.config
        rng = random.Random((SEED_SALT << 32) ^ seed)
        generators = [g for _, _, g in self._families]
        names = [n for n, _, _ in self._families]
        txs: list[Transaction] = []
        counts: Counter = Counter()
        nonces: dict[bytes, int] = {}
        while len(txs) < cfg.txs_per_block:
            pick = rng.choices(range(len(generators)), weights=self._weights)[0]
            emitted = generators[pick](rng, nonces)
            txs.extend(emitted)
            counts[names[pick]] += len(emitted)
        return Block(number=FUZZ_BLOCK_BASE + seed, txs=txs, env=self.chain.env), counts

    # -------------------------------------------------------------- helpers

    def _next_nonce(self, nonces: dict[bytes, int], sender: bytes) -> int:
        nonce = nonces.get(sender, 0)
        nonces[sender] = nonce + 1
        return nonce

    def _sender(self, rng: random.Random) -> bytes:
        return rng.choice(self.chain.accounts)

    def _recipient(self, rng: random.Random, sender: bytes) -> bytes:
        if rng.random() < self.config.hot_recipient_share:
            return rng.choice(self.hot_recipients)
        recipient = rng.choice(self.chain.accounts)
        return recipient if recipient != sender else self.hot_recipients[0]

    def _token(self, rng: random.Random) -> bytes:
        return self.chain.tokens[self._token_sampler.sample(rng)]

    # ------------------------------------------------------------- families

    def _native(self, rng: random.Random, nonces) -> list[Transaction]:
        sender = self._sender(rng)
        roll = rng.random()
        if roll < 0.1:
            recipient, value = sender, rng.randrange(1, ETHER)  # self-transfer
        elif roll < 0.2:
            recipient, value = self._recipient(rng, sender), 0  # zero value
        else:
            recipient = self._recipient(rng, sender)
            value = rng.randrange(1, ETHER // 100)
        return [
            Transaction(
                sender=sender,
                to=recipient,
                value=value,
                gas_limit=21_000,
                nonce=self._next_nonce(nonces, sender),
            )
        ]

    def _native_drain(self, rng: random.Random, nonces) -> list[Transaction]:
        """Drain (nearly) the whole balance, then spend again.

        The follow-up's success depends on the drain having committed, so
        speculative runs observe a stale balance and the intrinsic
        solvency guard (GUARD_GE) decides redo vs full re-execution.
        """
        sender = self._sender(rng)
        recipient = self._recipient(rng, sender)
        headroom = rng.choice((0, 1, 21_000, ETHER))
        drain = Transaction(
            sender=sender,
            to=recipient,
            value=max(1, FUND_ETHER - 2 * 21_000 - headroom),
            gas_limit=21_000,
            nonce=self._next_nonce(nonces, sender),
        )
        spend = Transaction(
            sender=sender,
            to=self._recipient(rng, sender),
            value=rng.randrange(1, ETHER),
            gas_limit=21_000,
            nonce=self._next_nonce(nonces, sender),
        )
        return [drain, spend]

    def _burn(self, rng: random.Random, nonces) -> list[Transaction]:
        sender = self._sender(rng)
        return [
            Transaction(
                sender=sender,
                to=None,
                value=rng.randrange(1, ETHER),
                gas_limit=21_000,
                nonce=self._next_nonce(nonces, sender),
            )
        ]

    def _erc20(self, rng: random.Random, nonces) -> list[Transaction]:
        sender = self._sender(rng)
        token = self._token(rng)
        recipient = self._recipient(rng, sender)
        roll = rng.random()
        if roll < 0.55:
            data = encode_call(
                "transfer(address,uint256)", recipient, rng.randrange(1, 10_000)
            )
        elif roll < 0.8:
            # Drain a pre-approved hot owner: the paper's §3.2 conflict.
            owner = rng.choice(self.hot_owners)
            data = encode_call(
                "transferFrom(address,address,uint256)",
                owner,
                recipient,
                rng.randrange(1, 10_000),
            )
        else:
            data = encode_call(
                "approve(address,uint256)", recipient, rng.randrange(0, 10**9)
            )
        return [
            Transaction(
                sender=sender,
                to=token,
                data=data,
                gas_limit=ERC20_GAS,
                nonce=self._next_nonce(nonces, sender),
            )
        ]

    def _erc20_no_allowance(self, rng: random.Random, nonces) -> list[Transaction]:
        """transferFrom against an owner who never approved: must revert."""
        sender = self._sender(rng)
        # Owners outside the pre-approved hot set have zero allowance.
        owner = rng.choice(self.chain.accounts[HOT_OWNERS:-2])
        if owner == sender:
            owner = self.chain.accounts[HOT_OWNERS]
        return [
            Transaction(
                sender=sender,
                to=self._token(rng),
                data=encode_call(
                    "transferFrom(address,address,uint256)",
                    owner,
                    self._recipient(rng, sender),
                    rng.randrange(1, 1_000),
                ),
                gas_limit=ERC20_GAS,
                nonce=self._next_nonce(nonces, sender),
            )
        ]

    def _erc20_over_balance(self, rng: random.Random, nonces) -> list[Transaction]:
        """A transfer exceeding the sender's token balance: must revert."""
        sender = self._sender(rng)
        amount = TOKEN_BALANCE * rng.randrange(2, 100)
        return [
            Transaction(
                sender=sender,
                to=self._token(rng),
                data=encode_call(
                    "transfer(address,uint256)",
                    self._recipient(rng, sender),
                    amount,
                ),
                gas_limit=ERC20_GAS,
                nonce=self._next_nonce(nonces, sender),
            )
        ]

    def _amm_swap(self, rng: random.Random, nonces) -> list[Transaction]:
        sender = self._sender(rng)
        pair, _t0, _t1 = rng.choice(self.chain.amm_pairs)
        # Mostly plausible amounts, occasionally extreme (revert paths).
        amount = rng.choice(
            (rng.randrange(10**6, 10**9), rng.randrange(1, 100), 10**30)
        )
        return [
            Transaction(
                sender=sender,
                to=pair,
                data=encode_call(
                    "swap(uint256,uint256,address)",
                    amount,
                    rng.randrange(2),
                    sender,
                ),
                gas_limit=400_000,
                nonce=self._next_nonce(nonces, sender),
            )
        ]

    def _crowdfund(self, rng: random.Random, nonces) -> list[Transaction]:
        sender = self._sender(rng)
        return [
            Transaction(
                sender=sender,
                to=self.chain.crowdfunds[0],
                data=encode_call("contribute(uint256)", rng.randrange(1, 10**6)),
                gas_limit=400_000,
                nonce=self._next_nonce(nonces, sender),
            )
        ]

    def _gas_starved(self, rng: random.Random, nonces) -> list[Transaction]:
        """Gas limits straddling the intrinsic cost and the execution cost.

        ``< 21_000`` fails the intrinsic-gas check before the envelope;
        low five-figure limits pass intrinsic but run out mid-execution.
        """
        sender = self._sender(rng)
        gas_limit = rng.choice(
            (rng.randrange(1_000, 21_000), rng.randrange(22_000, 40_000))
        )
        return [
            Transaction(
                sender=sender,
                to=self._token(rng),
                data=encode_call(
                    "transfer(address,uint256)", self._recipient(rng, sender), 1
                ),
                gas_limit=gas_limit,
                nonce=self._next_nonce(nonces, sender),
            )
        ]

    def _nonce_chain(self, rng: random.Random, nonces) -> list[Transaction]:
        """One sender, several back-to-back transfers: nonce RMW chains."""
        sender = self._sender(rng)
        return [
            Transaction(
                sender=sender,
                to=self._recipient(rng, sender),
                value=rng.randrange(1, ETHER // 1000),
                gas_limit=21_000,
                nonce=self._next_nonce(nonces, sender),
            )
            for _ in range(rng.randrange(2, 5))
        ]
