"""The pipelined chain service end to end: equivalence, determinism, gain.

The pipeline's contract has three legs, each enforced here:

1. **Equivalence** — pipelining changes *when* the simulated clock says
   stages ran, never what executed: every executor config, including a
   faulted chaos run, ends on the serial baseline's exact state
   fingerprint, gas and tx count with the pipeline attached.
2. **Determinism** — the same pipelined :class:`SoakConfig` produces a
   byte-identical JSONL snapshot stream.
3. **Gain** — on the default soak stream with a durable commit pipeline
   attached, prefetch + async commit cut simulated service time per block
   by >= 15% versus the synchronous service.
"""

from __future__ import annotations

import io

from repro.concurrency.registry import EXECUTOR_NAMES, make_executor
from repro.durability import DurableCommitPipeline
from repro.pipeline import PipelineConfig, PipelineCoordinator
from repro.service import ChainService, SoakConfig, run_soak
from repro.workloads.stream import BlockStream, StreamSpec, build_stream_chain

SMALL = dict(
    blocks=20,
    window_blocks=5,
    accounts=400,
    txs_per_block=8,
    seed=11,
    cache_capacity=20_000,
    threads=4,
)


def _soak(**overrides):
    buf = io.StringIO()
    report = run_soak(SoakConfig(**{**SMALL, **overrides}), out=buf)
    return buf.getvalue(), report


def _service_run(
    executor_name,
    pipeline_config,
    blocks=12,
    durable=False,
    **spec_overrides,
):
    spec = StreamSpec(
        **{
            "accounts": 400,
            "txs_per_block": 8,
            "seed": 11,
            **spec_overrides,
        }
    )
    chain = build_stream_chain(spec, cache_capacity=100_000)
    executor = make_executor(executor_name, 4)
    if durable:
        executor.durability = DurableCommitPipeline()
    coordinator = (
        PipelineCoordinator(pipeline_config)
        if pipeline_config is not None
        else None
    )
    service = ChainService(BlockStream(chain), executor, pipeline=coordinator)
    gas_used = sum(outcome.gas_used for outcome in service.run(blocks))
    return service, chain, gas_used


class TestPipelineDeterminism:
    def test_pipelined_soak_jsonl_is_byte_identical(self):
        first, report_a = _soak(pipeline=PipelineConfig())
        second, report_b = _soak(pipeline=PipelineConfig())
        assert first == second
        assert first
        assert report_a.as_dict() == report_b.as_dict()

    def test_pipeline_off_stream_unchanged_by_the_subsystem(self):
        """SoakConfig defaults leave the synchronous stream untouched."""
        baseline, _ = _soak()
        explicit_off, _ = _soak(pipeline=None)
        assert baseline == explicit_off

    def test_pipelined_stream_differs_from_synchronous(self):
        """The pipeline visibly changes throughput telemetry when on."""
        on, _ = _soak(pipeline=PipelineConfig())
        off, _ = _soak()
        assert on != off


class TestPipelineEquivalence:
    def test_every_executor_matches_serial_under_the_pipeline(self):
        """All seven configs, pipelined, land on the serial sync state."""
        serial, serial_chain, serial_gas = _service_run("serial", None)
        fingerprint = serial_chain.world.fingerprint()
        for name in sorted(EXECUTOR_NAMES):
            service, chain, gas_used = _service_run(
                name, PipelineConfig(), durable=True
            )
            assert chain.world.fingerprint() == fingerprint, name
            assert gas_used == serial_gas, name
            assert service.txs_committed == serial.txs_committed, name

    def test_faulted_chaos_run_matches_serial_under_the_pipeline(self):
        """A redo-storm soak with the pipeline on certifies against the
        unfaulted synchronous run: same counters, same final summary
        fingerprint inputs (gas, txs), cache still bounded."""
        _, faulted = _soak(
            pipeline=PipelineConfig(), scenario="redo-storm",
            executor="parallelevm",
        )
        _, baseline = _soak(executor="serial")
        assert (
            faulted.summary["throughput"]["gas"]
            == baseline.summary["throughput"]["gas"]
        )
        assert (
            faulted.summary["throughput"]["txs"]
            == baseline.summary["throughput"]["txs"]
        )
        assert faulted.cache_bounded

    def test_chaos_service_state_matches_serial(self):
        from repro.resilience import SCENARIOS, FaultPlan, RecoveryPolicy

        scenario = SCENARIOS["redo-storm"]

        def factory(number):
            return FaultPlan(
                f"pipe:{number}",
                config=scenario.config,
                recovery=RecoveryPolicy(),
            )

        spec = StreamSpec(accounts=400, txs_per_block=8, seed=11)
        chain = build_stream_chain(spec, cache_capacity=100_000)
        executor = make_executor("parallelevm", 4)
        executor.durability = DurableCommitPipeline()
        service = ChainService(
            BlockStream(chain),
            executor,
            fault_plan_factory=factory,
            pipeline=PipelineCoordinator(PipelineConfig()),
        )
        for _ in service.run(12):
            pass
        _, serial_chain, _ = _service_run("serial", None)
        assert chain.world.fingerprint() == serial_chain.world.fingerprint()


class TestPipelineGain:
    def _default_stream(self, pipeline_config):
        """parallelevm over the default soak stream, durability attached."""
        service, _, _ = _service_run(
            "parallelevm",
            pipeline_config,
            blocks=30,
            durable=True,
            accounts=20_000,
            txs_per_block=40,
            seed=1,
        )
        return service

    def test_improves_at_least_15_percent_over_synchronous(self):
        sync = self._default_stream(None)
        pipe = self._default_stream(PipelineConfig())
        assert pipe.sim_time_us <= 0.85 * sync.sim_time_us, (
            pipe.sim_time_us,
            sync.sim_time_us,
        )

    def test_both_stages_contribute(self):
        sync = self._default_stream(None)
        prefetch_only = self._default_stream(PipelineConfig(async_commit=False))
        commit_only = self._default_stream(PipelineConfig(prefetch=False))
        assert prefetch_only.sim_time_us < sync.sim_time_us
        assert commit_only.sim_time_us < sync.sim_time_us


class TestFaultPlanRecoveryRestore:
    def test_plan_less_blocks_run_without_a_recovery_policy(self):
        """The recovery policy arrives only on a block's fault plan: a
        plan-less block runs with none, and a planned block runs with its
        plan's — no block inherits the previous block's policy."""
        from repro.resilience import FaultPlan, RecoveryPolicy

        spec = StreamSpec(accounts=64, txs_per_block=4, seed=3)
        chain = build_stream_chain(spec, cache_capacity=10_000)
        executor = make_executor("parallelevm", 2)
        assert executor.recovery is None

        plans = {}

        def factory(number):
            plans[number] = None
            if number % 2 == 0:
                plans[number] = FaultPlan(
                    f"r:{number}", recovery=RecoveryPolicy(redo_budget=7)
                )
            return plans[number]

        service = ChainService(
            BlockStream(chain), executor, fault_plan_factory=factory
        )
        for outcome in service.run(4):
            plan = plans[outcome.number]
            if plan is None:
                assert executor.recovery is None, outcome.number
            else:
                assert executor.recovery is plan.recovery, outcome.number
        assert [plan is None for plan in plans.values()] == [
            False, True, False, True
        ]
