#!/usr/bin/env python3
"""Multi-block replay with MPT state-root validation (the §6.2 check).

Replays a sequence of mainnet-like blocks twice — once with the serial
executor and once with ParallelEVM — folding each block's writes into the
world state and comparing the full Merkle Patricia trie root after every
block, exactly the criterion the paper uses against Ethereum mainnet roots.
Also demonstrates the prefetching and pre-execution deployment modes on
the final block.

Run:  python examples/block_replay_validation.py
"""

from __future__ import annotations

from repro import (
    ChainSpec,
    MainnetConfig,
    MainnetWorkload,
    ParallelEVMExecutor,
    SerialExecutor,
    build_chain,
)
from repro.bench.harness import prefetched_world

BLOCKS = 4
TXS = 60  # root hashing is O(state); keep the demo snappy


def main() -> None:
    chain = build_chain(ChainSpec(tokens=3, amm_pairs=1, accounts=80))
    workload = MainnetWorkload(chain, MainnetConfig(txs_per_block=TXS))
    blocks = workload.blocks(14_000_000, BLOCKS)

    serial_world = chain.fresh_world()
    parallel_world = chain.fresh_world()
    executor = ParallelEVMExecutor(threads=16)

    print(f"Replaying {BLOCKS} blocks x {TXS} txs with root validation:\n")
    total_speedup = 0.0
    for block in blocks:
        serial = SerialExecutor().execute_block(
            serial_world, block.txs, block.env
        )
        serial_world.apply(serial.writes)
        serial_root = serial_world.state_root()

        result = executor.execute_block(parallel_world, block.txs, block.env)
        parallel_world.apply(result.writes)
        parallel_root = parallel_world.state_root()

        match = "OK " if parallel_root == serial_root else "MISMATCH"
        speedup = serial.makespan_us / result.makespan_us
        total_speedup += speedup
        print(
            f"  block {block.number}: root {serial_root.hex()[:16]}… "
            f"[{match}] speedup {speedup:.2f}x "
            f"({result.stats['redo_successes']}/"
            f"{result.stats['conflicting_txs']} conflicts redone)"
        )
        if parallel_root != serial_root:
            raise SystemExit("state divergence — serializability violated!")

    print(f"\nmean speedup: {total_speedup / BLOCKS:.2f}x; every block's MPT "
          "root matched the serial chain (paper §6.2).")

    # Deployment modes on one more block.
    block = workload.block(14_000_000 + BLOCKS)
    serial = SerialExecutor().execute_block(chain.fresh_world(), block.txs, block.env)

    warm = executor.execute_block(
        prefetched_world(chain, serial), block.txs, block.env
    )
    assert warm.writes == serial.writes

    pre = ParallelEVMExecutor(threads=16, preexecute=True).execute_block(
        chain.fresh_world(), block.txs, block.env
    )
    assert pre.writes == serial.writes

    print("\nDeployment modes on one block (speedup vs cold serial):")
    cold = executor.execute_block(chain.fresh_world(), block.txs, block.env)
    for name, result in (
        ("ParallelEVM (cold)", cold),
        ("ParallelEVM + prefetch", warm),
        ("ParallelEVM + pre-execution", pre),
    ):
        print(f"  {name:<28} {serial.makespan_us / result.makespan_us:.2f}x")


if __name__ == "__main__":
    main()
