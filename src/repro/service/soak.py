"""The soak harness: a configured long run of the chain service.

``run_soak`` wires the pieces together — stream chain, executor config,
telemetry, optional durability and fault injection — runs the configured
number of blocks, writes one JSONL snapshot line per telemetry window,
and returns a :class:`SoakReport`.  The whole run is deterministic: the
same :class:`SoakConfig` produces a byte-identical snapshot stream (the
soak determinism test enforces exactly that), because every input is
seeded and every reported number is simulated time.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING

from ..concurrency.registry import make_executor
from ..obs.lifecycle import SloConfig, SloMonitor, describe_serving_sections
from ..obs.metrics import HARNESS_LABEL_LIMIT, MetricsRegistry, json_document
from ..obs.streaming import SoakTelemetry, format_stat, snapshot_sink
from ..resilience import block_fault_plans
from ..workloads.stream import BlockStream, StreamSpec, build_stream_chain
from .chain_service import ChainService, SoakObserver

if TYPE_CHECKING:  # imported where used: an unpipelined soak loads none of it
    from ..pipeline import PipelineConfig


@dataclass(slots=True)
class SoakConfig:
    """Everything a soak run depends on (and nothing wall-clock)."""

    blocks: int = 200
    window_blocks: int = 20
    executor: str = "parallelevm"
    threads: int = 8
    accounts: int = 20_000
    txs_per_block: int = 40
    seed: int = 1
    cache_capacity: int = 100_000
    hot_recipient_share: float = 0.25
    hot_drift_per_1k: float = 0.0
    scenario: str | None = None  # a repro.resilience chaos scenario name
    durable_dir: str | None = None
    checkpoint_interval: int = 0
    # The multi-block pipeline (repro.pipeline): None (the default) keeps
    # the synchronous service path — and its JSONL stream — bit-identical.
    pipeline: PipelineConfig | None = None
    # A block-latency SLO monitor on the service (per-tx latency SLOs are
    # the served run's: ``repro loadgen``).
    slo_config: SloConfig | None = None

    def spec(self) -> StreamSpec:
        return StreamSpec(
            accounts=self.accounts,
            txs_per_block=self.txs_per_block,
            hot_recipient_share=self.hot_recipient_share,
            hot_drift_per_1k=self.hot_drift_per_1k,
            seed=self.seed,
        )


@dataclass(slots=True)
class SoakReport:
    """The end-of-run summary (valid — zeros and nulls — for zero blocks)."""

    executor: str
    threads: int
    blocks: int
    accounts: int
    seed: int
    summary: dict
    snapshots: int
    cache_bounded: bool
    counters: dict
    slo: dict | None

    def as_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json_document(self.as_dict())

    def describe(self) -> str:
        throughput = self.summary["throughput"]
        tx = self.summary["latency_tx_us"]
        block = self.summary["latency_block_us"]
        _q = format_stat
        lines = [
            f"soak: {self.executor} x{self.threads} · {self.blocks} blocks · "
            f"{self.accounts} accounts · seed {self.seed}",
            f"  throughput  {throughput['tx_per_s']:.1f} tx/s · "
            f"{throughput['gas_per_s']:.0f} gas/s · "
            f"{throughput['sim_time_us'] / 1e6:.2f} s simulated",
            f"  tx latency  p50/p90/p99 {_q(tx, 'p50')}/{_q(tx, 'p90')}/"
            f"{_q(tx, 'p99')} us (max {_q(tx, 'max')}, n={tx['count']})",
            f"  block latency  p50/p90/p99 {_q(block, 'p50')}/"
            f"{_q(block, 'p90')}/{_q(block, 'p99')} us",
            f"  quantile sketch relative error <= "
            f"{self.summary['quantile_relative_error']:.1%}",
        ]
        cache = self.summary.get("cache")
        if cache is not None:
            bounded = "bounded" if self.cache_bounded else "UNBOUNDED"
            lines.append(
                f"  state cache  {cache['entries']}/{cache['capacity']} "
                f"entries (peak {cache['peak_entries']}, "
                f"{cache['evictions']} evictions, hit rate "
                f"{cache['hit_rate']:.1%}) — {bounded}"
            )
        lines += describe_serving_sections(None, self.slo, None)
        interesting = {
            name: value
            for name, value in sorted(self.counters.items())
            if name.startswith(("resilience_", "durability_"))
        }
        if interesting:
            lines.append("  faults & durability:")
            for name, value in interesting.items():
                lines.append(f"    {name} = {value:g}")
        return "\n".join(lines)


def run_soak(config: SoakConfig, out=None, progress=None) -> SoakReport:
    """Run one soak; stream JSONL snapshots to ``out``; return the report.

    ``out`` is a path or a writable text file (None discards snapshots);
    ``progress`` (optional) is called with every snapshot dict — the CLI
    uses it for the live per-window report.  The snapshot stream is
    byte-identical across runs of the same config.
    """
    spec = config.spec()
    chain = build_stream_chain(spec, cache_capacity=config.cache_capacity)
    registry = MetricsRegistry(label_limit=HARNESS_LABEL_LIMIT)
    durability = pipeline = None
    if config.durable_dir is not None:
        from ..durability import DurableCommitPipeline, FileMedium

        durability = DurableCommitPipeline(
            FileMedium(config.durable_dir),
            checkpoint_interval=config.checkpoint_interval,
            metrics=registry,
        )
    if config.pipeline is not None:
        from ..pipeline import PipelineCoordinator

        pipeline = PipelineCoordinator(config.pipeline, metrics=registry)
    fault_plans = block_fault_plans(f"soak:{config.seed}", config.scenario)

    observer = SoakObserver(metrics=registry)
    slo = (
        SloMonitor(config.slo_config, metrics=registry)
        if config.slo_config is not None
        else None
    )
    service = ChainService(
        BlockStream(chain),
        make_executor(
            config.executor,
            config.threads,
            observer=observer,
            durability=durability,
        ),
        observer=observer,
        fault_plan_factory=fault_plans,
        pipeline=pipeline,
        slo=slo,
    )
    telemetry = SoakTelemetry(
        window_blocks=config.window_blocks,
        registry=registry,
        db=chain.world.db,
        slo=slo,
    )
    with snapshot_sink(out, progress) as emit:
        for outcome in service.run(config.blocks):
            snapshot = telemetry.record_block(
                outcome.number,
                tx_count=outcome.tx_count,
                gas_used=outcome.gas_used,
                latency_us=outcome.latency_us,
                tx_latencies_us=outcome.tx_latencies_us,
                advance_us=outcome.advance_us,
            )
            if snapshot is not None:
                emit(snapshot)
        if slo is not None:
            slo.finalize(service.sim_time_us)
        tail = telemetry.finish()
        if tail is not None:
            emit(tail)
    if durability is not None:
        durability.medium.close()
    cache = chain.world.db.cache
    return SoakReport(
        executor=config.executor,
        threads=config.threads,
        blocks=service.blocks_committed,
        accounts=spec.accounts,
        seed=config.seed,
        summary=telemetry.summary(),
        snapshots=telemetry.windows_emitted,
        cache_bounded=cache.peak_entries <= max(cache.capacity, 0),
        counters=registry.counter_totals(),
        slo=slo.summary() if slo is not None else None,
    )
