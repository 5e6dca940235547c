"""ERC20 contention workloads with a controlled conflicting-transaction ratio.

Reproduces the §6.3 "Impact of Contention" setup (Figure 11): blocks of
ERC20 transactions where a chosen percentage conflict.  Conflicting
transactions follow the paper's §3.2 example — distinct senders call
``transferFrom`` against the *same* token owner, so they conflict on
``balances[owner]`` (and the owner's per-spender allowances stay disjoint,
keeping the conflict surface exactly one hot slot).  Non-conflicting
transactions are plain transfers between disjoint account pairs.
"""

from __future__ import annotations

import random

from ..contracts import encode_call
from ..evm.message import Transaction
from .block import Block, Chain, grant_allowance

TRANSFER_GAS = 200_000


def conflict_ratio_block(
    chain: Chain,
    number: int,
    tx_count: int,
    ratio: float,
    seed: int = 0,
) -> Block:
    """A block where ``ratio`` of the transactions share one hot balance
    of the chain's first token.

    ``ratio=0`` gives a fully parallel block; ``ratio=1`` makes every
    transaction (except the first to commit) observe a stale
    ``balances[owner]`` — the paper's 0%/100% endpoints.
    """
    if not 0.0 <= ratio <= 1.0:
        raise ValueError(f"conflict ratio {ratio} outside [0, 1]")
    rng = random.Random((seed << 16) ^ number)
    token = chain.tokens[0]
    accounts = chain.accounts
    if tx_count * 2 + 1 > len(accounts):
        raise ValueError(
            f"need {tx_count * 2 + 1} accounts for a disjoint block of "
            f"{tx_count} txs, have {len(accounts)}"
        )

    # The hot owner everybody drains via transferFrom.
    owner = accounts[0]
    # Disjoint sender/recipient pools for the non-conflicting population.
    pool = list(accounts[1:])
    rng.shuffle(pool)

    conflicting = int(round(tx_count * ratio))
    txs: list[Transaction] = []
    cursor = 0
    for i in range(tx_count):
        sender = pool[cursor]
        recipient = pool[cursor + 1]
        cursor += 2
        if i < conflicting:
            # transferFrom(owner -> recipient) by `sender`: conflicts with
            # every other such tx on balances[owner] only (allowances are
            # per-spender and the chain pre-approves everyone).
            grant_allowance(chain, token, owner, sender)
            data = encode_call(
                "transferFrom(address,address,uint256)", owner, recipient, 5
            )
        else:
            data = encode_call("transfer(address,uint256)", recipient, 7)
        txs.append(
            Transaction(
                sender=sender,
                to=token,
                data=data,
                gas_limit=TRANSFER_GAS,
                nonce=chain.next_nonce(sender),
            )
        )
    rng.shuffle(txs)
    return Block(number=number, txs=txs, env=chain.env)
