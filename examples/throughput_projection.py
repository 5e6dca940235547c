#!/usr/bin/env python3
"""Throughput projection: what the speedups mean for a chain's TPS.

The paper's motivation (§1-§2) is that with modern consensus, *execution
speed* is the block-size bottleneck: halving execution time doubles how
many transactions fit in a block interval.  This scenario turns the
measured speedups into transactions-per-second projections for an
Ethereum-like chain (12 s blocks) and a Quorum-like permissioned chain
(1 s blocks), with and without the §6.3 optimizations.

Run:  python examples/throughput_projection.py
"""

from __future__ import annotations

from repro import (
    BlockSTMExecutor,
    ChainSpec,
    MainnetConfig,
    MainnetWorkload,
    OCCExecutor,
    ParallelEVMExecutor,
    SerialExecutor,
    TwoPLExecutor,
    build_chain,
)
from repro.bench.harness import prefetched_world


def main() -> None:
    chain = build_chain(ChainSpec(tokens=8, amm_pairs=3, accounts=500))
    block = MainnetWorkload(chain, MainnetConfig(txs_per_block=200)).block(
        14_000_000
    )
    serial = SerialExecutor().execute_block(
        chain.fresh_world(), block.txs, block.env
    )
    tx_count = len(block)
    serial_tx_us = serial.makespan_us / tx_count

    configs = [("serial (geth baseline)", serial)]
    for executor in (
        TwoPLExecutor(threads=16),
        OCCExecutor(threads=16),
        BlockSTMExecutor(threads=16),
        ParallelEVMExecutor(threads=16),
    ):
        result = executor.execute_block(chain.fresh_world(), block.txs, block.env)
        assert result.writes == serial.writes
        configs.append((executor.name, result))

    # ParallelEVM + prefetching (Table 2's best deployable configuration).
    prefetched = ParallelEVMExecutor(threads=16).execute_block(
        prefetched_world(chain, serial), block.txs, block.env
    )
    assert prefetched.writes == serial.writes
    configs.append(("parallelevm + prefetch", prefetched))

    print(
        f"Reference block: {tx_count} txs, serial execution "
        f"{serial.makespan_us / 1000:.1f} ms "
        f"({serial_tx_us:.0f} us/tx simulated)\n"
    )
    print(
        f"{'configuration':<26} {'speedup':>8} {'execution-limited tps':>22} "
        f"{'txs per 12s block':>18}"
    )
    print("-" * 78)
    for name, result in configs:
        per_tx_us = result.makespan_us / tx_count
        speedup = serial.makespan_us / result.makespan_us
        # With consensus no longer the bottleneck (§2.1), execution may use
        # the whole block interval: block size scales with execution rate.
        tps = 1e6 / per_tx_us
        print(
            f"{name:<26} {speedup:>7.2f}x {tps:>21,.0f} {tps * 12:>17,.0f}"
        )
    print(
        "\n(Projection: execution-rate-limited TPS; absolute values inherit "
        "the simulated\ncost model's scale — the *ratios* between rows are "
        "the reproduced result.)"
    )


if __name__ == "__main__":
    main()
