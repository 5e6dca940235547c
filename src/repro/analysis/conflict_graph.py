"""Conflict-graph construction and the transaction-level speedup bound."""

from __future__ import annotations

from dataclasses import dataclass

from ..concurrency import BlockResult, SerialExecutor
from ..concurrency.base import chain_depth, dependency_graph
from ..state.keys import StateKey
from ..workloads import Block, Chain


@dataclass(slots=True)
class BlockConflictAnalysis:
    """Structural contention profile of one block.

    Dependencies and hot keys come from the read/write sets of the cold
    serial reference run.  Durations are simulated microseconds of a serial
    run over a world prefetched with the block's keys: the chain links of a
    transaction-level executor re-execute against warm caches, so the *warm*
    critical path is the floor.  The *transaction-level bound* is the cold
    serial makespan (``total_us``, the baseline every speedup uses) over that
    floor — the classic critical-path argument (a transaction cannot finish
    before the transactions whose writes it reads), which caps serial, 2PL,
    OCC, Block-STM and two-phase but **not** ParallelEVM: its redo phase only
    re-executes the conflicting slice, so it can and does exceed this bound.
    """

    tx_count: int
    dependencies: list[list[int]]
    conflicting_txs: int
    hot_keys: list[tuple[StateKey, int]]  # (key, number of touching txs)
    total_us: float  # the cold serial makespan
    critical_path_us: float = 0.0
    critical_path_txs: int = 0

    @property
    def tx_level_speedup_bound(self) -> float:
        """cold serial / warm critical path: the transaction-level ceiling."""
        if self.critical_path_us <= 0:
            return float(self.tx_count or 1)
        return self.total_us / self.critical_path_us

    @property
    def conflict_share(self) -> float:
        return self.conflicting_txs / self.tx_count if self.tx_count else 0.0

    def as_dict(self, hot_keys: int = 5) -> dict:
        """JSON-ready summary (no per-tx arrays — those dwarf the payload)."""
        return {
            "tx_count": self.tx_count,
            "conflicting_txs": self.conflicting_txs,
            "conflict_share": self.conflict_share,
            "critical_path_txs": self.critical_path_txs,
            "critical_path_us": self.critical_path_us,
            "total_us": self.total_us,
            "tx_level_speedup_bound": self.tx_level_speedup_bound,
            "hot_keys": [
                {"key": str(key), "txs": count}
                for key, count in self.hot_keys[:hot_keys]
            ],
        }


def analyze_block(
    chain: Chain, block: Block, serial: BlockResult
) -> BlockConflictAnalysis:
    """Profile a block's conflict structure and its transaction-level bound.

    ``serial`` is the caller's cold serial reference result for ``block``
    on ``chain``'s genesis world; the block runs once more, serially, over
    a world prefetched with the keys that result touched.
    """
    # Imported here: ``import repro`` loads this module, and bench.harness
    # brings in ``statistics`` (with ``decimal`` and ``fractions``), which
    # cost the wall benchmark's validate_roots ~8 % when loaded eagerly.
    from ..bench.harness import prefetched_world

    warm = SerialExecutor().execute_block(
        prefetched_world(chain, serial), block.txs, block.env
    )
    durations = [r.duration_us for r in warm.tx_results]
    dependencies = dependency_graph(serial.tx_results)
    touching: dict[StateKey, set[int]] = {}
    for j, result in enumerate(serial.tx_results):
        for key in set(result.read_set) | set(result.write_set):
            touching.setdefault(key, set()).add(j)

    in_conflict = {j for j, deps in enumerate(dependencies) if deps}
    for deps in dependencies:
        in_conflict.update(deps)

    # Secondary sort on repr: ties otherwise surface in hash-dependent
    # (PYTHONHASHSEED) order, breaking byte-identical BENCH documents.
    hot_keys = sorted(
        ((key, len(indices)) for key, indices in touching.items()
         if len(indices) > 1),
        key=lambda pair: (-pair[1], repr(pair[0])),
    )

    return BlockConflictAnalysis(
        tx_count=len(block.txs),
        dependencies=dependencies,
        conflicting_txs=len(in_conflict),
        hot_keys=hot_keys,
        total_us=serial.makespan_us,
        critical_path_us=float(chain_depth(dependencies, durations)),
        critical_path_txs=chain_depth(dependencies),
    )
