"""Chaos-catalogue adapter for the ingress scenarios.

``kind="ingress"`` scenarios drive the full serving stack — seeded
open-loop clients, JSON text round trips, admission control, mempool,
``ChainService.ingest_block`` — via :func:`repro.rpc.run_ingress`, then
fold the result into the same :class:`ChaosBlockReport` shape as every
other scenario so the chaos CLI, CI jobs and dump plumbing need no new
cases.  "Faults injected" counts hostile traffic absorbed: rejected
submissions plus shed pooled txs plus shed reads.

The certified invariants are the harness's own (conservation, serial
equivalence, typed sheds) — the fuzzer block the chaos driver is
iterating over plays no role, so an ingress failure is reproduced by
``(scenario, seed)`` alone and ddmin shrinking does not apply.
"""

from __future__ import annotations

from dataclasses import fields as dataclass_fields

from ..crypto import keccak256
from ..mempool.pool import MempoolConfig
from ..obs.metrics import NULL_METRICS
from ..resilience.scenarios import ChaosScenario
from .certify import CertificationReport, Divergence

#: Default scale of one catalogue run: small enough to ride inside the
#: chaos seed matrix, big enough to push every scenario past its trigger
#: (the spike window spans blocks, the breaker needs sustained lag).
INGRESS_SCENARIO_BLOCKS = 16


def ingress_seed(seed) -> int:
    """A deterministic integer seed from the chaos harness's int-or-str."""
    if isinstance(seed, int):
        return seed
    return int.from_bytes(keccak256(str(seed).encode())[:4], "big")


def ingress_config_for(scenario: ChaosScenario, seed=None, **fields):
    """Build the :class:`IngressConfig` a scenario's overrides describe.

    The scenario's ``ingress`` dict holds plain field overrides; the
    nested ``"mempool"`` key (if present) overrides
    :class:`MempoolConfig` fields.  Unknown keys fail loudly — a typo in
    the catalogue must not silently run the default scenario.  ``fields``
    (the caller's scale: ``blocks``, ``threads``, ``executor`` …) override
    both; ``seed`` is the chaos harness's int-or-str.
    """
    from ..rpc.ingress import IngressConfig

    overrides = dict(scenario.ingress)
    mempool = MempoolConfig(**overrides.pop("mempool", {}))
    known = {f.name for f in dataclass_fields(IngressConfig)}
    unknown = set(overrides) - known
    if unknown:
        raise ValueError(
            f"scenario {scenario.name!r} overrides unknown IngressConfig "
            f"fields: {sorted(unknown)}"
        )
    if seed is not None:
        fields["seed"] = ingress_seed(seed)
    scale = dict(
        blocks=INGRESS_SCENARIO_BLOCKS, txs_per_block=12, accounts=160, clients=6
    )
    return IngressConfig(**{**scale, "mempool": mempool, **overrides, **fields})


def run_ingress_scenario(
    scenario: ChaosScenario, seed=0, metrics=NULL_METRICS, **fields
):
    """Run one ingress chaos scenario; returns a :class:`ChaosBlockReport`.

    ``fields`` override the :class:`IngressConfig` as in
    :func:`ingress_config_for`.
    """
    from ..rpc.ingress import run_ingress
    from .chaos import chaos_report

    config = ingress_config_for(scenario, seed, **fields)
    report = run_ingress(config)

    divergences = [
        Divergence(executor=config.executor, field="ingress", detail=detail)
        for detail in report.divergences
    ]
    certification = CertificationReport(
        block_number=report.blocks_committed,
        tx_count=report.committed,
        executors=[config.executor, "serial"],
        divergences=divergences,
    )
    rejected = sum(report.rejected.values())
    shed = sum(report.shed.values())
    counters = {
        "requests": float(report.requests),
        "admitted": float(report.admitted),
        "rejected": float(rejected),
        "shed": float(shed),
        "pending": float(report.pending),
        "backpressure": float(report.backpressure_events),
        "reads_shed": float(report.reads_shed),
        "retries": float(report.retries),
        "circuit_opened": float(report.circuit_opened),
        "slo_alerts": float(report.slo["alerts"] if report.slo else 0),
        "flight_dumps": float(
            len(report.flight["dumps"]) if report.flight else 0
        ),
    }
    for name, value in report.counters.items():
        if name.startswith(("rpc_", "mempool_")):
            metrics.counter(name, scenario=scenario.name).inc(value)
    return chaos_report(
        scenario,
        seed,
        certification,
        counters,
        float(rejected + shed + report.reads_shed),
        metrics,
    )
