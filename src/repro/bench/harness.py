"""Common experiment machinery: fixtures, the Table 1 selection, speedup runs."""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field

from ..concurrency import BlockExecutor, SerialExecutor
from ..errors import ConcurrencyError
from ..evm.message import BlockEnv
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
    check_state: bool = True,
    warm_keys: set | None = None,
    observer_factory=None,
) -> dict[str, SpeedupSummary]:
    """Run every executor over every block; speedups vs cold serial.

    Every executor gets a fresh clone of the genesis world (cold caches),
    mirroring how the paper replays each block under each system.  With
    ``warm_keys`` the *executor* worlds are prefetched (Table 2's two-phase
    protocol) while the serial baseline stays cold.

    ``observer_factory`` (e.g. :class:`repro.obs.BlockObserver`) attaches a
    fresh observer per executor-block run; its metrics snapshot lands under
    the ``"metrics"`` key of that run's stats entry.  Observation never
    changes makespans — the discrete-event machine emits spans with the same
    event ordering either way.
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
            world = chain.fresh_world()
            if warm_keys is not None:
                world.warm(warm_keys)
            observer = None
            if observer_factory is not None:
                observer = observer_factory()
                executor.observer = observer
            try:
                result = executor.execute_block(world, block.txs, block.env)
            finally:
                if observer is not None:
                    executor.observer = None
            if check_state and result.writes != serial.writes:
                raise ConcurrencyError(
                    f"{executor.name} diverged from serial on block "
                    f"{block.number}"
                )
            summaries[executor.name].speedups.append(
                serial.makespan_us / result.makespan_us
            )
            stats = dict(result.stats)
            if observer is not None:
                stats["metrics"] = observer.metrics.as_dict()
            summaries[executor.name].stats.append(stats)
    return summaries


def block_touched_keys(chain: Chain, block: Block) -> set:
    """All state keys a block touches (the prefetch oracle's first phase).

    The paper's prefetching experiment runs the block once just to discover
    and warm its storage slots, then measures the second run; this helper is
    that first phase.
    """
    serial = SerialExecutor().execute_block(
        chain.fresh_world(), block.txs, block.env
    )
    keys: set = set()
    for result in serial.tx_results:
        keys.update(result.read_set)
        keys.update(result.write_set)
    return keys


def prefetched_world(chain: Chain, block: Block) -> WorldState:
    """A fresh world with the block's keys already cached."""
    world = chain.fresh_world()
    world.warm(block_touched_keys(chain, block))
    return world
