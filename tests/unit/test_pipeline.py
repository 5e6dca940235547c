"""The pipeline coordinator's timeline math and the static read predictor.

Everything here is pure simulated-time arithmetic: fake block results with
hand-picked makespans and read/write sets drive the coordinator, so every
expected clock value can be computed by hand.  The predictor tests check
the static decode against transactions built with the real ABI encoder and
against what a serial execution actually reads.
"""

from __future__ import annotations

from repro.bench.harness import standard_chain, standard_workload
from repro.concurrency import SerialExecutor
from repro.concurrency.base import block_read_keys
from repro.contracts.abi import encode_address, encode_call
from repro.contracts.erc20 import balance_slot
from repro.evm.message import Transaction
from repro.obs import MetricsRegistry
from repro.pipeline import PipelineConfig, PipelineCoordinator, predicted_read_keys
from repro.sim.cost import DEFAULT_COST_MODEL
from repro.state.keys import balance_key, nonce_key, storage_key


class FakeTxResult:
    def __init__(self, read_set):
        self.read_set = read_set


class FakeBlockResult:
    """Just enough of a BlockResult for the coordinator."""

    def __init__(self, makespan_us, writes=None, reads=None):
        self.makespan_us = makespan_us
        self.writes = writes or {}
        self.tx_results = [FakeTxResult(set(reads or []))]


# ------------------------------------------------------------- predictor


class TestPredictedReadKeys:
    def _transfer(self, sender, token, recipient, amount=5):
        return Transaction(
            sender=sender,
            to=token,
            data=encode_call(
                "transfer(address,uint256)", encode_address(recipient), amount
            ),
        )

    def test_erc20_transfer_keys(self):
        sender, token, recipient = b"\x01" * 20, b"\x02" * 20, b"\x03" * 20
        keys = predicted_read_keys([self._transfer(sender, token, recipient)])
        assert balance_key(sender) in keys
        assert nonce_key(sender) in keys
        assert balance_key(token) in keys
        assert storage_key(token, balance_slot(sender)) in keys
        assert storage_key(token, balance_slot(recipient)) in keys

    def test_deterministic_and_deduplicated(self):
        sender, token, recipient = b"\x01" * 20, b"\x02" * 20, b"\x03" * 20
        txs = [
            self._transfer(sender, token, recipient),
            self._transfer(sender, token, recipient, amount=7),
        ]
        first = predicted_read_keys(txs)
        assert first == predicted_read_keys(txs)
        assert len(first) == len(set(first))

    def test_prediction_is_mostly_sound_against_serial_execution(self):
        """Predicted keys are overwhelmingly keys the block actually reads."""
        chain = standard_chain(accounts=64)
        block = standard_workload(chain, 32).block(1)
        predicted = set(predicted_read_keys(block.txs))
        result = SerialExecutor().execute_block(
            chain.fresh_world(), block.txs, block.env
        )
        actual = block_read_keys(result)
        hit = len(predicted & actual)
        assert hit / len(predicted) >= 0.6, (hit, len(predicted))

    def test_short_calldata_and_burns_are_envelope_only(self):
        sender = b"\x01" * 20
        burn = Transaction(sender=sender, to=None, value=1)
        raw = Transaction(sender=sender, to=b"\x02" * 20, data=b"\x01\x02")
        keys = predicted_read_keys([burn, raw])
        assert balance_key(sender) in keys
        assert all(key[0] != "s" for key in keys)  # no storage slots


# ----------------------------------------------------------- coordinator


class TestCoordinatorTimeline:
    def test_synchronous_config_matches_serial_accounting(self):
        """prefetch+async off: every block advances by makespan + commit."""
        registry = MetricsRegistry()
        coord = PipelineCoordinator(
            PipelineConfig(prefetch=False, async_commit=False), metrics=registry
        )
        for number in range(3):
            timing = coord.account(number, FakeBlockResult(100.0), 20.0)
            assert timing.advance_us == 120.0
            assert timing.latency_us == 120.0
        assert coord.clock_us == 360.0
        assert (
            registry.value("pipeline_serial_us")
            - registry.value("pipeline_advance_us")
            == 0.0
        )

    def test_async_commit_overlaps_disjoint_blocks(self):
        registry = MetricsRegistry()
        coord = PipelineCoordinator(
            PipelineConfig(prefetch=False), metrics=registry
        )
        first = coord.account(
            0, FakeBlockResult(100.0, writes={"a": 1}), 50.0, publish_us=10.0
        )
        assert (first.exec_start_us, first.commit_end_us) == (0.0, 150.0)
        # Block 1 reads nothing of block 0's write set: execution starts
        # the moment the exec lane frees, fully under block 0's commit.
        second = coord.account(
            1, FakeBlockResult(100.0, reads={"b"}), 50.0, publish_us=10.0
        )
        assert second.exec_start_us == 100.0
        assert second.barrier_stall_us == 0.0
        # The commit lane serialises: block 1 commits after block 0.
        assert second.commit_start_us == 200.0
        assert second.advance_us == 100.0  # the commit cost is hidden
        assert (
            registry.value("pipeline_serial_us")
            - registry.value("pipeline_advance_us")
            == 50.0
        )

    def test_read_barrier_waits_for_publish_fraction_only(self):
        coord = PipelineCoordinator(PipelineConfig(prefetch=False))
        coord.account(
            0,
            FakeBlockResult(100.0, writes={"a": 1, "b": 2}),
            50.0,
            publish_us=40.0,
        )
        # Block 1 reads "a" — rank 0 of 2 published keys, so it waits
        # until commit_start (100) + 40 * 1/2 = 120, not the full commit.
        second = coord.account(
            1, FakeBlockResult(10.0, reads={"a"}), 50.0, publish_us=40.0
        )
        assert second.exec_start_us == 120.0
        assert second.barrier_stall_us == 20.0
        assert second.barrier_keys == 1

    def test_memory_only_commit_never_barriers(self):
        """publish_us=0 (no durability): writes publish at the per-tx
        commit point inside the makespan, so readers never stall."""
        coord = PipelineCoordinator(PipelineConfig(prefetch=False))
        coord.account(0, FakeBlockResult(100.0, writes={"a": 1}), 50.0)
        second = coord.account(1, FakeBlockResult(10.0, reads={"a"}), 50.0)
        assert second.barrier_stall_us == 0.0
        assert second.exec_start_us == 100.0

    def test_prefetch_warms_cache_and_lands_on_prefetch_lane(self):
        chain = standard_chain(accounts=16)
        world = chain.fresh_world()
        sender, token, recipient = b"\x01" * 20, b"\x02" * 20, b"\x03" * 20
        tx = Transaction(
            sender=sender,
            to=token,
            data=encode_call(
                "transfer(address,uint256)", encode_address(recipient), 1
            ),
        )
        coord = PipelineCoordinator(PipelineConfig(io_depth=2))
        # Priced at the cold-read price it is handed (the executor's model's).
        warmed = coord.prefetch(world, [tx], 20.0)
        assert warmed == len(predicted_read_keys([tx]))
        expected_us = warmed * 20.0 / 2
        assert coord.prefetch_free_at == expected_us
        # Warmed again: everything is already cached, nothing to do.
        assert coord.prefetch(world, [tx], 20.0) == 0
        # The warmed keys now read as cache hits.
        before = world.db.cache.hits
        world.read(balance_key(sender))
        assert world.db.cache.hits == before + 1

    def test_prefetch_stall_charged_when_warm_outruns_exec_lane(self):
        chain = standard_chain(accounts=16)
        world = chain.fresh_world()
        tx = Transaction(sender=b"\x01" * 20, to=b"\x02" * 20)
        coord = PipelineCoordinator(PipelineConfig(io_depth=1))
        coord.prefetch(world, [tx], DEFAULT_COST_MODEL.disk_read_us)
        done = coord.prefetch_free_at
        assert done > 0.0
        timing = coord.account(0, FakeBlockResult(100.0), 10.0)
        assert timing.exec_start_us == done
        assert timing.prefetch_stall_us == done

    def test_metrics_published(self):
        registry = MetricsRegistry()
        coord = PipelineCoordinator(
            PipelineConfig(prefetch=False), metrics=registry
        )
        coord.account(0, FakeBlockResult(100.0, writes={"a": 1}), 50.0, 10.0)
        coord.account(1, FakeBlockResult(100.0, reads={"a"}), 50.0, 10.0)
        assert registry.counter("pipeline_blocks").value == 2
        assert registry.counter("pipeline_serial_us").value == 300.0
        assert registry.counter("pipeline_advance_us").value == coord.clock_us
        assert registry.counter("pipeline_barrier_blocks").value == 1
