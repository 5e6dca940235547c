"""Common experiment machinery: fixtures, the Table 1 selection, and the one
measurement protocol (:func:`against_serial`) every speedup goes through."""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field

from ..concurrency import BlockExecutor, BlockResult, SerialExecutor
from ..errors import ConcurrencyError
from ..state.world import WorldState
from ..workloads import Block, Chain, ChainSpec, MainnetConfig, MainnetWorkload, build_chain

DEFAULT_THREADS = 16
START_BLOCK = 14_000_000  # the paper's evaluation window starts here


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

    @property
    def mean(self) -> float:
        return statistics.mean(self.speedups)


def against_serial(
    chain: Chain,
    block: Block,
    executors: list[BlockExecutor],
    *,
    prefetched: bool = False,
) -> tuple[BlockResult, list[BlockResult]]:
    """The measurement protocol of §6: ``block`` under every executor,
    checked against one cold serial reference run.

    Every executor gets a fresh clone of the genesis world (cold caches),
    mirroring how the paper replays each block under each system; with
    ``prefetched`` its world has the block's keys already cached
    (:func:`prefetched_world`, Table 2's second phase).  A run whose writes
    differ from the reference's raises ConcurrencyError.  Returns the
    reference and the executors' results, in executor order.
    """
    serial = SerialExecutor().execute_block(
        chain.fresh_world(), block.txs, block.env
    )
    results = []
    for executor in executors:
        world = prefetched_world(chain, serial) if prefetched else chain.fresh_world()
        result = executor.execute_block(world, block.txs, block.env)
        if result.writes != serial.writes:
            raise ConcurrencyError(
                f"{executor.name} diverged from serial on block {block.number}"
            )
        results.append(result)
    return serial, results


def measure_speedups(
    chain: Chain,
    blocks: list[Block],
    executors: list[BlockExecutor],
    *,
    prefetched: bool = False,
) -> dict[str, SpeedupSummary]:
    """Every executor's speedups over cold serial, one per block
    (:func:`against_serial`), keyed by executor name.

    Raises ValueError, before running a block, when two executors share a
    name (``make_executor("parallelevm-preexec", n).name`` is
    ``"parallelevm"``): their speedups would pool into one summary.
    """
    summaries: dict[str, SpeedupSummary] = {}
    for executor in executors:
        if executor.name in summaries:
            raise ValueError(
                f"two executors are named {executor.name!r}; "
                "measure_speedups keys its summaries by name"
            )
        summaries[executor.name] = SpeedupSummary(executor.name)
    for block in blocks:
        serial, results = against_serial(
            chain, block, executors, prefetched=prefetched
        )
        for executor, result in zip(executors, results):
            summaries[executor.name].speedups.append(
                serial.makespan_us / result.makespan_us
            )
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
