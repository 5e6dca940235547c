"""Extensions: the Saraph-Herlihy baseline and §7 operation-level schedules."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro import (
    ChainSpec,
    MainnetConfig,
    MainnetWorkload,
    ParallelEVMExecutor,
    ScheduledValidatorExecutor,
    SerialExecutor,
    TwoPhaseExecutor,
    build_chain,
    propose_schedule,
)
from repro.workloads import conflict_ratio_block


@pytest.fixture(scope="module")
def setting():
    chain = build_chain(ChainSpec(tokens=4, amm_pairs=2, accounts=200))
    wl = MainnetWorkload(chain, MainnetConfig(txs_per_block=80))
    block = wl.block(14_000_000)
    serial = SerialExecutor().execute_block(
        chain.fresh_world(), block.txs, block.env
    )
    return chain, block, serial


class TestTwoPhase:
    def test_state_matches_serial(self, setting):
        chain, block, serial = setting
        result = TwoPhaseExecutor(threads=8).execute_block(
            chain.fresh_world(), block.txs, block.env
        )
        assert result.writes == serial.writes

    def test_counts_add_up(self, setting):
        chain, block, _ = setting
        result = TwoPhaseExecutor(threads=8).execute_block(
            chain.fresh_world(), block.txs, block.env
        )
        assert result.stats["discarded"] + result.stats["survivors"] == len(
            block.txs
        )
        assert result.stats["discarded"] > 0  # hot-spot blocks always conflict

    def test_degrades_under_full_contention(self, setting):
        """The paper's critique: two-phase collapses on hot-spot blocks."""
        chain, _, _ = setting
        block = conflict_ratio_block(chain, 99, 60, ratio=1.0)
        serial = SerialExecutor().execute_block(
            chain.fresh_world(), block.txs, block.env
        )
        two_phase = TwoPhaseExecutor(threads=8).execute_block(
            chain.fresh_world(), block.txs, block.env
        )
        parallel = ParallelEVMExecutor(threads=8).execute_block(
            chain.fresh_world(), block.txs, block.env
        )
        assert two_phase.writes == serial.writes
        # All-but-one discarded, and ParallelEVM clearly ahead.
        assert two_phase.stats["discarded"] >= len(block.txs) - 5
        assert parallel.makespan_us < two_phase.makespan_us

    def test_conflict_free_block_keeps_everyone(self, setting):
        chain, _, _ = setting
        block = conflict_ratio_block(chain, 98, 40, ratio=0.0)
        result = TwoPhaseExecutor(threads=8).execute_block(
            chain.fresh_world(), block.txs, block.env
        )
        assert result.stats["discarded"] == 0


class TestSchedules:
    @pytest.fixture(scope="class")
    def schedule(self, setting):
        chain, block, _ = setting
        schedule, proposer_result = propose_schedule(
            chain.fresh_world(), block.txs, block.env
        )
        return schedule, proposer_result

    def test_schedule_structure(self, setting, schedule):
        chain, block, _ = setting
        sched, _ = schedule
        assert len(sched.dependencies) == len(block.txs)
        # Dependencies always point backwards.
        for j, deps in enumerate(sched.dependencies):
            assert all(i < j for i in deps)
        assert 1 <= sched.critical_path_length <= len(block.txs)

    def test_dependency_validator_matches_serial(self, setting, schedule):
        chain, block, serial = setting
        sched, _ = schedule
        result = ScheduledValidatorExecutor(sched, threads=8).execute_block(
            chain.fresh_world(), block.txs, block.env
        )
        assert result.writes == serial.writes
        assert result.stats["fallbacks"] == 0

    def test_value_validator_matches_serial(self, setting, schedule):
        chain, block, serial = setting
        sched, _ = schedule
        result = ScheduledValidatorExecutor(
            sched, threads=8, use_read_values=True
        ).execute_block(chain.fresh_world(), block.txs, block.env)
        assert result.writes == serial.writes
        assert result.stats["fallbacks"] == 0

    def test_value_schedule_is_fastest(self, setting, schedule):
        chain, block, serial = setting
        sched, proposer_result = schedule
        value = ScheduledValidatorExecutor(
            sched, threads=16, use_read_values=True
        ).execute_block(chain.fresh_world(), block.txs, block.env)
        assert value.makespan_us < proposer_result.makespan_us

    def test_stale_schedule_falls_back_safely(self, setting, schedule):
        """A schedule computed for different pre-state must degrade to
        serial fallbacks, never to wrong state."""
        chain, block, serial = setting
        sched, _ = schedule
        world = chain.fresh_world()
        # Perturb a balance the block touches: shipped read values go stale.
        victim = block.txs[0].sender
        world.set_balance(victim, world.get_balance(victim) + 12345)
        reference = SerialExecutor().execute_block(
            world.clone(), block.txs, block.env
        )
        result = ScheduledValidatorExecutor(
            sched, threads=8, use_read_values=True
        ).execute_block(world, block.txs, block.env)
        assert result.writes == reference.writes
        assert result.stats["fallbacks"] > 0

    def test_wrong_sized_schedule_rejected(self, setting, schedule):
        chain, block, _ = setting
        sched, _ = schedule
        with pytest.raises(ValueError):
            ScheduledValidatorExecutor(sched, threads=8).execute_block(
                chain.fresh_world(), block.txs[:-1], block.env
            )
        short_values = replace(sched, read_sets=sched.read_sets[:-1])
        with pytest.raises(ValueError):
            ScheduledValidatorExecutor(
                short_values, threads=8, use_read_values=True
            ).execute_block(chain.fresh_world(), block.txs, block.env)

    @pytest.mark.parametrize(
        "head",
        [[[0]], [[1], [0]], [[99]]],
        ids=["self-loop", "cycle", "out-of-range"],
    )
    @pytest.mark.parametrize("use_read_values", [False, True])
    def test_malformed_schedule_rejected(
        self, setting, schedule, head, use_read_values
    ):
        """A dependency that is not an earlier transaction is rejected
        before anything runs, like a wrong-sized schedule."""
        chain, block, _ = setting
        sched, _ = schedule
        bad = replace(
            sched, dependencies=head + sched.dependencies[len(head):]
        )
        world = chain.fresh_world()
        with pytest.raises(ValueError, match="schedule does not match"):
            ScheduledValidatorExecutor(
                bad, threads=8, use_read_values=use_read_values
            ).execute_block(world, block.txs, block.env)
