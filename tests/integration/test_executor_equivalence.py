"""Theorem 1 in practice: every executor reproduces the serial state.

These are the §6.2-style correctness checks, run across every workload
family: mainnet-like blocks, controlled conflict ratios, hot-recipient
floods, and AMM-heavy traffic.
"""

from __future__ import annotations

import random

import pytest

from repro.concurrency import (
    BlockSTMExecutor,
    OCCExecutor,
    SerialExecutor,
    TwoPhaseExecutor,
    TwoPLExecutor,
)
from repro.contracts import encode_call
from repro.core.executor import ParallelEVMExecutor
from repro.evm.message import Transaction
from repro.workloads import (
    Block,
    ChainSpec,
    MainnetConfig,
    MainnetWorkload,
    build_chain,
    conflict_ratio_block,
)
from repro.workloads.erc20_workload import TRANSFER_GAS

EXECUTOR_CLASSES = [
    TwoPLExecutor,
    OCCExecutor,
    BlockSTMExecutor,
    TwoPhaseExecutor,
    ParallelEVMExecutor,
]


@pytest.fixture(scope="module")
def chain():
    return build_chain(ChainSpec(tokens=4, amm_pairs=2, accounts=160))


def hot_recipient_block(chain, number: int, tx_count: int, seed: int = 0) -> Block:
    """Every transfer credits the same recipient (exchange-deposit pattern).

    The conflict is on ``balances[hot]`` — a pure commutative RMW that
    ParallelEVM's redo resolves with a three-entry slice, the best case of
    operation-level conflict handling.
    """
    rng = random.Random((seed << 16) ^ number ^ 0x5EED)
    token = chain.tokens[0]
    hot = chain.accounts[-1]
    senders = rng.sample(chain.accounts[:-1], min(tx_count, len(chain.accounts) - 1))
    txs = [
        Transaction(
            sender=sender,
            to=token,
            data=encode_call("transfer(address,uint256)", hot, 3),
            gas_limit=TRANSFER_GAS,
            nonce=chain.next_nonce(sender),
        )
        for sender in senders
    ]
    return Block(number=number, txs=txs, env=chain.env)


def blocks_under_test(chain):
    wl = MainnetWorkload(chain, MainnetConfig(txs_per_block=60))
    return {
        "mainnet": wl.block(14_000_000),
        "conflicts-0": conflict_ratio_block(chain, 2, 40, ratio=0.0),
        "conflicts-50": conflict_ratio_block(chain, 3, 40, ratio=0.5),
        "conflicts-100": conflict_ratio_block(chain, 4, 40, ratio=1.0),
        "hot-recipient": hot_recipient_block(chain, 5, 40),
    }


@pytest.fixture(scope="module")
def serial_results(chain):
    return {
        name: SerialExecutor().execute_block(
            chain.fresh_world(), block.txs, block.env
        )
        for name, block in blocks_under_test(chain).items()
    }


@pytest.mark.parametrize("executor_cls", EXECUTOR_CLASSES)
@pytest.mark.parametrize(
    "block_name", ["mainnet", "conflicts-0", "conflicts-50", "conflicts-100",
                   "hot-recipient"]
)
def test_final_state_matches_serial(chain, serial_results, executor_cls, block_name):
    block = blocks_under_test(chain)[block_name]
    serial = serial_results[block_name]
    result = executor_cls(threads=8).execute_block(
        chain.fresh_world(), block.txs, block.env
    )
    assert result.writes == serial.writes


@pytest.mark.parametrize("executor_cls", EXECUTOR_CLASSES)
def test_gas_totals_match_serial(chain, serial_results, executor_cls):
    block = blocks_under_test(chain)["mainnet"]
    serial = serial_results["mainnet"]
    result = executor_cls(threads=8).execute_block(
        chain.fresh_world(), block.txs, block.env
    )
    assert result.gas_used == serial.gas_used


@pytest.mark.parametrize("executor_cls", EXECUTOR_CLASSES)
def test_per_tx_success_flags_match_serial(chain, serial_results, executor_cls):
    block = blocks_under_test(chain)["mainnet"]
    serial = serial_results["mainnet"]
    result = executor_cls(threads=8).execute_block(
        chain.fresh_world(), block.txs, block.env
    )
    assert [r.success for r in result.tx_results] == [
        r.success for r in serial.tx_results
    ]


@pytest.mark.parametrize("threads", [1, 2, 7, 16, 33])
def test_parallelevm_thread_count_never_changes_state(chain, serial_results, threads):
    block = blocks_under_test(chain)["mainnet"]
    serial = serial_results["mainnet"]
    result = ParallelEVMExecutor(threads=threads).execute_block(
        chain.fresh_world(), block.txs, block.env
    )
    assert result.writes == serial.writes


def test_all_transactions_commit_exactly_once(chain):
    block = blocks_under_test(chain)["conflicts-100"]
    result = ParallelEVMExecutor(threads=8).execute_block(
        chain.fresh_world(), block.txs, block.env
    )
    indices = [r.tx.tx_index for r in result.tx_results]
    assert sorted(indices) == list(range(len(block.txs)))


def test_parallelevm_redo_stats_are_consistent(chain):
    block = blocks_under_test(chain)["conflicts-100"]
    result = ParallelEVMExecutor(threads=8).execute_block(
        chain.fresh_world(), block.txs, block.env
    )
    stats = result.stats
    assert stats["conflicting_txs"] > 0
    assert (
        stats["redo_successes"] + stats["redo_failures"] == stats["redo_attempts"]
    )
    # Every redo failure forced one full re-execution beyond the first pass.
    assert stats["executions"] == len(block.txs) + stats["full_aborts"]


@pytest.mark.parametrize("executor_cls", EXECUTOR_CLASSES)
def test_receipts_root_matches_serial(chain, serial_results, executor_cls):
    """Consensus-level check on the redo phase's log rewriting: the
    receipts trie (status, cumulative gas, blooms, logs) must be
    byte-identical to serial execution."""
    from repro.state.receipts import receipts_root

    block = blocks_under_test(chain)["conflicts-100"]
    serial = SerialExecutor().execute_block(
        chain.fresh_world(), block.txs, block.env
    )
    result = executor_cls(threads=8).execute_block(
        chain.fresh_world(), block.txs, block.env
    )
    assert receipts_root(result.tx_results) == receipts_root(serial.tx_results)


def test_logs_match_serial_for_redone_transactions(chain):
    """Event payloads rewritten by the redo phase must equal serial logs."""
    block = blocks_under_test(chain)["conflicts-100"]
    serial = SerialExecutor().execute_block(
        chain.fresh_world(), block.txs, block.env
    )
    result = ParallelEVMExecutor(threads=8).execute_block(
        chain.fresh_world(), block.txs, block.env
    )
    serial_logs = {
        r.tx.tx_index: [(l.address, l.topics, l.data) for l in r.logs]
        for r in serial.tx_results
    }
    for r in result.tx_results:
        assert [
            (l.address, l.topics, l.data) for l in r.logs
        ] == serial_logs[r.tx.tx_index]
