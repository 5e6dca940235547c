"""The ingress harness: a seeded client fleet against the served chain.

``run_ingress`` merges two event streams on one simulated clock — open-loop
client arrivals (:mod:`repro.workloads.clients`) and block-production
ticks — and drives every request through the full serving stack: JSON text
round trip (:class:`SimTransport`), dispatcher, facade, admission control,
mempool, :meth:`ChainService.ingest_block`.  It is to the serving stack
what ``run_soak`` is to the execution stack: deterministic end to end
(same config -> byte-identical JSONL), with three hard guarantees checked
on every run and reported as divergences when violated:

* **Conservation** — every admitted tx hash is committed exactly once,
  still pending, or shed with a typed reason; nothing is lost or
  double-committed, and rejected + admitted covers every submission.
* **Serial equivalence** — the committed blocks, replayed serially from
  genesis, land on the identical state fingerprint and per-block
  receipts roots as the live concurrent run.
* **Typed rejections** — every rejection and shed carries a machine-
  readable reason; the counts are reconciled against the ``rpc_*`` and
  ``mempool_*`` metrics.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import asdict, dataclass, field

from ..concurrency.registry import make_executor
from ..mempool.pool import MempoolConfig
from ..obs.lifecycle import SloConfig, describe_serving_sections
from ..obs.metrics import HARNESS_LABEL_LIMIT, MetricsRegistry
from ..resilience import block_fault_plans
from ..state.receipts import receipts_root
from ..workloads.block import ChainSpec, build_chain
from ..workloads.clients import ClientSpec
from .facade import RpcConfig
from .session import ServingSession


@dataclass(slots=True)
class IngressConfig:
    """Everything an ingress run depends on (and nothing wall-clock).

    ``rate_multiplier`` is offered load over the sustainable rate
    (:attr:`RpcConfig.sustainable_tps`); ``spike_multiplier`` boosts it
    further inside the ``[0.4, 0.7)`` fraction of the run.
    ``consumer_slowdown`` stretches the production interval without
    touching the offered rate — the slow-consumer scenario.
    """

    blocks: int = 40
    block_interval_us: float = 50_000.0
    txs_per_block: int = 16
    executor: str = "parallelevm"
    threads: int = 4
    accounts: int = 192
    seed: int = 1
    window_blocks: int = 8
    # offered load
    clients: int = 8
    rate_multiplier: float = 1.0
    spike_multiplier: float = 1.0
    read_share: float = 0.15
    malformed_share: float = 0.0
    nonce_gap_share: float = 0.0
    # consumer
    consumer_slowdown: float = 1.0
    # admission knobs
    mempool: MempoolConfig = field(default_factory=MempoolConfig)
    # fault injection on the execution path (zero-rate inertness is a
    # tested guarantee): a chaos scenario name, or an explicit FaultConfig.
    scenario: str | None = None
    fault_config: object | None = None
    # Overlap prefetch/execution/commit across served blocks
    # (repro.pipeline); block latency then includes lane stalls, which the
    # lifecycle waterfall charges to the commit phase.
    pipeline: bool = False
    # Per-tx lifecycle tracing (repro.obs.lifecycle).  On by default: the
    # tracker observes, it never touches the simulated clock, so makespans
    # and committed state are identical either way (tested).  ``slo``
    # (a SloConfig) defaults to the stock objectives.
    lifecycle: bool = True
    slo: SloConfig | None = None


@dataclass(slots=True)
class IngressReport:
    """End-of-run accounting; ``ok`` means all three guarantees held."""

    executor: str
    threads: int
    seed: int
    blocks_committed: int
    requests: int
    submitted: int
    admitted: int
    committed: int
    pending: int
    shed: dict
    rejected: dict
    reads_ok: int
    reads_shed: int
    retries: int
    gave_up: int
    backpressure_events: int
    circuit_opened: int
    divergences: list = field(default_factory=list)
    summary: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)
    lifecycle: dict | None = None
    slo: dict | None = None
    flight: dict | None = None

    @property
    def ok(self) -> bool:
        return not self.divergences

    def as_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True, indent=2) + "\n"

    def describe(self) -> str:
        shed_total = sum(self.shed.values())
        lines = [
            f"ingress: {self.executor} x{self.threads} · seed {self.seed} · "
            f"{self.blocks_committed} blocks",
            f"  requests    {self.requests} total · {self.submitted} sends · "
            f"{self.reads_ok} reads ok · {self.reads_shed} reads shed",
            f"  admission   {self.admitted} admitted · "
            f"{sum(self.rejected.values())} rejected "
            f"({', '.join(f'{k}={v}' for k, v in sorted(self.rejected.items())) or '-'})",
            f"  outcome     {self.committed} committed · {self.pending} pending "
            f"· {shed_total} shed "
            f"({', '.join(f'{k}={v}' for k, v in sorted(self.shed.items())) or '-'})",
            f"  overload    {self.backpressure_events} backpressured · "
            f"{self.retries} retries · {self.gave_up} gave up · "
            f"circuit opened {self.circuit_opened}x",
        ]
        lines += describe_serving_sections(self.lifecycle, self.slo, self.flight)
        if self.divergences:
            lines.append("  DIVERGENCES:")
            lines.extend(f"    - {d}" for d in self.divergences)
        else:
            lines.append(
                "  certified: conservation + serial equivalence + typed sheds"
            )
        return "\n".join(lines)


def run_ingress(
    config: IngressConfig,
    out=None,
    progress=None,
    waterfalls=None,
    trace_out=None,
) -> IngressReport:
    """Run one ingress session; stream JSONL windows to ``out``.

    ``waterfalls`` (path or file) streams one JSONL line per terminal
    transaction — the full latency waterfall.  ``trace_out`` (path)
    additionally records serving-lane spans and writes a Chrome trace at
    the end of the run; it implies span retention, so keep it to short
    sessions.  Both require ``config.lifecycle``.
    """
    chain = build_chain(
        ChainSpec(accounts=config.accounts, tokens=2, amm_pairs=1, seed=config.seed)
    )
    genesis = chain.world.clone()
    registry = MetricsRegistry(label_limit=HARNESS_LABEL_LIMIT)
    pipeline = None
    if config.pipeline:
        from ..pipeline import PipelineConfig, PipelineCoordinator

        pipeline = PipelineCoordinator(PipelineConfig(), metrics=registry)
    rpc = RpcConfig(
        block_txs=config.txs_per_block,
        block_interval_us=config.block_interval_us,
        record_blocks=True,
    )
    session = ServingSession(
        chain,
        config.executor,
        config.threads,
        rpc=rpc,
        mempool=config.mempool,
        metrics=registry,
        pipeline=pipeline,
        fault_plan_factory=block_fault_plans(
            f"ingress:{config.seed}", config.scenario, config.fault_config
        ),
        lifecycle=config.lifecycle,
        slo=config.slo,
        trace=trace_out is not None,
    )

    # -- the conservation ledgers, fed by the session's callbacks --------
    admitted: set[str] = set()
    committed: dict[str, int] = {}
    shed: dict[str, str] = {}
    rejected: dict = {}
    reads_ok = reads_shed = backpressure_events = 0
    live_roots: list[bytes] = []
    divergences: list[str] = []

    def on_response(request: dict, response: dict) -> None:
        nonlocal reads_ok, reads_shed, backpressure_events
        error = response.get("error")
        is_send = request["method"] == "send_transaction"
        if error is None:
            if is_send:
                admitted.add(response["result"]["tx_hash"])
            else:
                reads_ok += 1
        elif not is_send:
            reads_shed += 1
        else:
            data = error.get("data") or {}
            reason = data.get("reason", f"code{error['code']}")
            rejected[reason] = rejected.get(reason, 0) + 1
            if reason == "backpressure":
                backpressure_events += 1

    def on_block(produced) -> None:
        for entry in produced.shed:
            shed["0x" + entry.tx_hash.hex()] = "expired"
        for entry in produced.stale:
            shed["0x" + entry.tx_hash.hex()] = "stale-nonce"
        if produced.outcome is None:
            return
        for entry in produced.entries:
            tx_hash = "0x" + entry.tx_hash.hex()
            if tx_hash in committed:
                divergences.append(f"double commit of {tx_hash}")
            committed[tx_hash] = produced.outcome.number
        live_roots.append(receipts_root(session.service.last_result.tx_results))

    span_us = config.blocks * config.block_interval_us * config.consumer_slowdown
    session.run(
        ClientSpec(
            clients=config.clients,
            base_rate_tps=config.rate_multiplier * rpc.sustainable_tps,
            spike_multiplier=config.spike_multiplier,
            spike_from_us=0.4 * span_us,
            spike_until_us=0.7 * span_us,
            read_share=config.read_share,
            malformed_share=config.malformed_share,
            nonce_gap_share=config.nonce_gap_share,
            seed=config.seed,
        ),
        config.blocks,
        config.block_interval_us * config.consumer_slowdown,
        config.window_blocks,
        out=out,
        progress=progress,
        waterfalls=waterfalls,
        on_response=on_response,
        on_block=on_block,
    )
    if trace_out is not None and session.tracker is not None:
        trace = session.tracker.to_chrome_trace()
        if trace is not None:
            with open(trace_out, "w") as handle:
                json.dump(trace, handle, sort_keys=True, indent=1)
                handle.write("\n")

    # -- conservation ----------------------------------------------------
    pending = {"0x" + h.hex() for h in session.mempool.pending_hashes()}
    accounted = set(committed) | set(shed) | pending
    for tx_hash in sorted(admitted - accounted):
        divergences.append(f"admitted tx lost: {tx_hash}")
    for tx_hash in sorted(set(committed) & set(shed)):
        divergences.append(f"tx both committed and shed: {tx_hash}")
    for tx_hash, reason in sorted(shed.items()):
        if not reason:
            divergences.append(f"untyped shed of {tx_hash}")
    for reason in rejected:
        if not reason:
            divergences.append("untyped rejection observed")

    # -- serial equivalence ---------------------------------------------
    serial = make_executor("serial", 1)
    for index, block in enumerate(session.facade.committed_blocks):
        result = serial.execute_block(genesis, block.txs, block.env)
        serial.commit_block(genesis, block.number, result)
        root = receipts_root(result.tx_results)
        if root != live_roots[index]:
            divergences.append(
                f"receipts root diverges from serial at block {block.number}"
            )
    if genesis.fingerprint() != chain.world.fingerprint():
        divergences.append("final state diverges from serial replay")

    fleet = session.fleet
    sections = session.report_sections()
    return IngressReport(
        executor=config.executor,
        threads=config.threads,
        seed=config.seed,
        blocks_committed=session.service.blocks_committed,
        requests=session.transport.requests,
        submitted=sum(c.submitted for c in fleet) + sum(c.retries for c in fleet),
        admitted=len(admitted),
        committed=len(committed),
        pending=len(pending),
        shed=dict(Counter(shed.values())),
        rejected=dict(sorted(rejected.items())),
        reads_ok=reads_ok,
        reads_shed=reads_shed,
        retries=sum(c.retries for c in fleet),
        gave_up=sum(c.gave_up for c in fleet),
        backpressure_events=backpressure_events,
        circuit_opened=int(sections["counters"].get("rpc_circuit_opened_total", 0)),
        divergences=divergences,
        **sections,
    )
