"""Conflict-graph analysis and the transaction-level speedup bound."""

from __future__ import annotations

import pytest

from repro.analysis import analyze_block
from repro.concurrency import SerialExecutor
from repro.workloads import (
    ChainSpec,
    MainnetConfig,
    MainnetWorkload,
    build_chain,
    conflict_ratio_block,
)


@pytest.fixture(scope="module")
def chain():
    return build_chain(ChainSpec(tokens=3, amm_pairs=1, accounts=120))


def cold_serial(chain, block):
    return SerialExecutor().execute_block(
        chain.fresh_world(), block.txs, block.env
    )


def analyze(chain, block):
    return analyze_block(chain, block, cold_serial(chain, block))


class TestConflictFreeBlocks:
    def test_no_dependencies(self, chain):
        block = conflict_ratio_block(chain, 1, 30, ratio=0.0)
        analysis = analyze(chain, block)
        assert analysis.conflicting_txs == 0
        assert all(not deps for deps in analysis.dependencies)
        assert analysis.critical_path_txs == 1

    def test_bound_is_near_tx_count(self, chain):
        block = conflict_ratio_block(chain, 2, 30, ratio=0.0)
        analysis = analyze(chain, block)
        # The bound is total/max-duration: high for uniform blocks.
        assert analysis.tx_level_speedup_bound > 15


class TestFullyConflictingBlocks:
    def test_chain_spans_the_block(self, chain):
        block = conflict_ratio_block(chain, 3, 30, ratio=1.0)
        analysis = analyze(chain, block)
        assert analysis.conflicting_txs == 30
        assert analysis.critical_path_txs == 30  # one long chain
        # Every link waits for the one before it: the bound stays far below
        # the conflict-free one.
        assert analysis.tx_level_speedup_bound < 10

    def test_hot_key_identified(self, chain):
        from repro.contracts import balance_slot
        from repro.state.keys import storage_key

        block = conflict_ratio_block(chain, 4, 20, ratio=1.0)
        analysis = analyze(chain, block)
        # Every tx touches the owner's balance slot (alongside the proxied
        # token's code and implementation-slot keys, which tie at 20).
        full_touch = {key for key, count in analysis.hot_keys if count == 20}
        assert storage_key(
            chain.tokens[0], balance_slot(chain.accounts[0])
        ) in full_touch


class TestMainnetBlocks:
    def test_profile_is_coherent(self, chain):
        block = MainnetWorkload(chain, MainnetConfig(txs_per_block=40)).block(7)
        analysis = analyze(chain, block)
        assert analysis.tx_count == 40
        assert 0 < analysis.conflicting_txs <= 40
        assert 1 <= analysis.critical_path_txs <= 40
        assert analysis.critical_path_us <= analysis.total_us
        assert analysis.tx_level_speedup_bound >= 1.0

    def test_dependencies_point_backwards(self, chain):
        block = MainnetWorkload(chain, MainnetConfig(txs_per_block=30)).block(8)
        analysis = analyze(chain, block)
        for j, deps in enumerate(analysis.dependencies):
            assert all(i < j for i in deps)

    def test_parallelevm_can_exceed_the_tx_level_bound(self, chain):
        """The headline structural claim: operation-level conflict handling
        is not limited by the transaction-level critical path."""
        from repro.core.executor import ParallelEVMExecutor

        block = conflict_ratio_block(chain, 9, 50, ratio=1.0)
        serial = cold_serial(chain, block)
        analysis = analyze_block(chain, block, serial)
        result = ParallelEVMExecutor(threads=16).execute_block(
            chain.fresh_world(), block.txs, block.env
        )
        achieved = serial.makespan_us / result.makespan_us
        assert achieved > analysis.tx_level_speedup_bound


class TestOneBound:
    """The bound's structure is the cold run's; only durations are warm."""

    @pytest.mark.parametrize(
        "make_block",
        [
            lambda chain: MainnetWorkload(
                chain, MainnetConfig(txs_per_block=40)
            ).block(11),
            lambda chain: conflict_ratio_block(chain, 12, 30, ratio=0.5),
        ],
        ids=["mainnet", "half-conflicting"],
    )
    def test_structure_comes_from_the_cold_read_write_sets(
        self, chain, make_block
    ):
        block = make_block(chain)
        serial = cold_serial(chain, block)
        analysis = analyze_block(chain, block, serial)

        ordered = sorted(serial.tx_results, key=lambda r: r.tx.tx_index)
        # j depends on i when i is the last writer before j of a key j reads.
        dependencies = [
            sorted(
                {
                    max(i for i in range(j) if key in ordered[i].write_set)
                    for key in result.read_set
                    if any(key in ordered[i].write_set for i in range(j))
                }
            )
            for j, result in enumerate(ordered)
        ]
        depth: list[int] = []
        for deps in dependencies:
            depth.append(1 + max((depth[i] for i in deps), default=0))
        touches: dict = {}
        for result in ordered:
            for key in set(result.read_set) | set(result.write_set):
                touches[key] = touches.get(key, 0) + 1

        assert analysis.dependencies == dependencies
        assert analysis.critical_path_txs == max(depth)
        assert dict(analysis.hot_keys) == {
            key: count for key, count in touches.items() if count > 1
        }
        assert analysis.total_us == serial.makespan_us

    def test_bounds_experiment_reports_the_analysis_bound(self):
        from repro.bench.experiments import run_bounds
        from repro.bench.harness import standard_chain

        data, _ = run_bounds()
        chain = standard_chain()
        block = conflict_ratio_block(chain, 77, 150, ratio=1.0)
        analysis = analyze_block(chain, block, cold_serial(chain, block))
        contended = data["100% conflicting ERC20"]
        assert contended["bound"] == analysis.tx_level_speedup_bound
        assert contended["chain_txs"] == analysis.critical_path_txs
