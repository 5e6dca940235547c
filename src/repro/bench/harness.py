"""Common experiment machinery: fixtures, the Table 1 selection, speedup runs."""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field

from ..concurrency import BlockExecutor, BlockResult, SerialExecutor
from ..errors import ConcurrencyError
from ..state.world import WorldState
from ..workloads import Block, Chain, ChainSpec, MainnetConfig, MainnetWorkload, build_chain

DEFAULT_THREADS = 16


def standard_chain(accounts: int = 500, tokens: int = 8, amm_pairs: int = 3) -> Chain:
    """The genesis fixture all experiments share (sized like §6.1's node)."""
    return build_chain(
        ChainSpec(tokens=tokens, amm_pairs=amm_pairs, accounts=accounts)
    )


def standard_workload(
    chain: Chain, txs_per_block: int | None = None
) -> MainnetWorkload:
    """The calibrated mainnet-like workload (see MainnetConfig defaults)."""
    config = MainnetConfig()
    if txs_per_block is not None:
        config.txs_per_block = txs_per_block
    return MainnetWorkload(chain, config)


# The paper's four concurrent executors, in Table 1 column order (names
# from repro.concurrency.registry).
TABLE1_EXECUTORS = ("2pl", "occ", "block-stm", "parallelevm")


@dataclass(slots=True)
class SpeedupSummary:
    """Per-executor speedups across a set of blocks."""

    name: str
    speedups: list[float] = field(default_factory=list)
    stats: list[dict] = field(default_factory=list)

    @property
    def mean(self) -> float:
        return statistics.mean(self.speedups)

    @property
    def minimum(self) -> float:
        return min(self.speedups)

    @property
    def maximum(self) -> float:
        return max(self.speedups)

    def describe(self) -> str:
        return (
            f"{self.name}: mean {self.mean:.2f}x "
            f"(min {self.minimum:.2f}, max {self.maximum:.2f}, "
            f"n={len(self.speedups)})"
        )


def measure_speedups(
    chain: Chain,
    blocks: list[Block],
    executors: list[BlockExecutor],
) -> dict[str, SpeedupSummary]:
    """Run every executor over every block; speedups vs cold serial.

    Every executor gets a fresh clone of the genesis world (cold caches),
    mirroring how the paper replays each block under each system; a run
    whose writes differ from the serial reference's raises ConcurrencyError.
    """
    summaries = {ex.name: SpeedupSummary(ex.name) for ex in executors}
    summaries["serial"] = SpeedupSummary("serial")
    for block in blocks:
        serial = SerialExecutor().execute_block(
            chain.fresh_world(), block.txs, block.env
        )
        summaries["serial"].speedups.append(1.0)
        summaries["serial"].stats.append({"makespan_us": serial.makespan_us})
        for executor in executors:
            result = executor.execute_block(
                chain.fresh_world(), block.txs, block.env
            )
            if result.writes != serial.writes:
                raise ConcurrencyError(
                    f"{executor.name} diverged from serial on block "
                    f"{block.number}"
                )
            summaries[executor.name].speedups.append(
                serial.makespan_us / result.makespan_us
            )
            summaries[executor.name].stats.append(dict(result.stats))
    return summaries


def block_touched_keys(serial: BlockResult) -> set:
    """All state keys a block touches (the prefetch oracle's first phase).

    The paper's prefetching experiment runs the block once just to discover
    and warm its storage slots, then measures the second run; ``serial``,
    the caller's cold serial reference result, is that first phase.
    """
    keys: set = set()
    for result in serial.tx_results:
        keys.update(result.read_set)
        keys.update(result.write_set)
    return keys


def prefetched_world(chain: Chain, serial: BlockResult) -> WorldState:
    """A fresh world with the keys of ``serial``'s block already cached."""
    world = chain.fresh_world()
    world.warm(block_touched_keys(serial))
    return world
