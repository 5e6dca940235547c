"""The §6.3 optimizations: prefetching (Table 2) and pre-execution."""

from __future__ import annotations

import pytest

from repro.bench.harness import block_touched_keys, prefetched_world
from repro.concurrency import SerialExecutor
from repro.core.executor import ParallelEVMExecutor
from repro.workloads import ChainSpec, MainnetConfig, MainnetWorkload, build_chain


@pytest.fixture(scope="module")
def setting():
    chain = build_chain(ChainSpec(tokens=4, amm_pairs=2, accounts=160))
    wl = MainnetWorkload(chain, MainnetConfig(txs_per_block=60))
    block = wl.block(14_000_000)
    serial = SerialExecutor().execute_block(chain.fresh_world(), block.txs, block.env)
    return chain, block, serial


class TestPrefetching:
    def test_prefetched_serial_is_faster_and_identical(self, setting):
        chain, block, serial = setting
        world = prefetched_world(chain, serial)
        warm = SerialExecutor().execute_block(world, block.txs, block.env)
        assert warm.writes == serial.writes
        assert warm.makespan_us < serial.makespan_us / 1.5

    def test_prefetched_parallelevm_beats_cold(self, setting):
        chain, block, serial = setting
        cold = ParallelEVMExecutor(threads=8).execute_block(
            chain.fresh_world(), block.txs, block.env
        )
        warm = ParallelEVMExecutor(threads=8).execute_block(
            prefetched_world(chain, serial), block.txs, block.env
        )
        assert warm.writes == serial.writes
        assert warm.makespan_us < cold.makespan_us

    def test_touched_keys_cover_all_writes(self, setting):
        chain, block, serial = setting
        keys = block_touched_keys(serial)
        coinbase_keys = {k for k in serial.writes if k[1] == block.env.coinbase}
        assert set(serial.writes) - coinbase_keys <= keys


class TestPreExecution:
    def test_preexecuted_state_matches_serial(self, setting):
        chain, block, serial = setting
        result = ParallelEVMExecutor(threads=8, preexecute=True).execute_block(
            chain.fresh_world(), block.txs, block.env
        )
        assert result.writes == serial.writes

    def test_preexecution_is_fastest_mode(self, setting):
        chain, block, serial = setting
        normal = ParallelEVMExecutor(threads=8).execute_block(
            chain.fresh_world(), block.txs, block.env
        )
        pre = ParallelEVMExecutor(threads=8, preexecute=True).execute_block(
            chain.fresh_world(), block.txs, block.env
        )
        assert pre.makespan_us < normal.makespan_us

    def test_stale_preexecutions_are_repaired_by_redo(self, setting):
        chain, block, serial = setting
        result = ParallelEVMExecutor(threads=8, preexecute=True).execute_block(
            chain.fresh_world(), block.txs, block.env
        )
        # Pre-execution against the pre-block state makes every
        # hot-spot-touching tx observe stale values: redo must fire.
        assert result.stats["redo_attempts"] > 0
        assert result.writes == serial.writes
