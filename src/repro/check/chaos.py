"""Chaos mode for the correctness harness.

``run_chaos_block`` re-runs the serializability certifier with every
executor operating under a :class:`repro.resilience.FaultPlan`: the serial
*reference* inside :func:`certify_block` stays fault-free, so the oracle
checks that a degraded run — retries, redo storms, worker crashes, serial
fallbacks — still converges to the exact serial state, receipts root and
gas.  Makespans are reported for visibility only; chaos runs make no
performance claims (EXPERIMENTS.md).

The block deadline is sized from a fault-free serial probe of the same
block (``DEADLINE_FACTOR`` × the serial makespan), so the watchdog scales
with the workload instead of needing per-block tuning.  Everything is a
pure function of ``(scenario, seed, block)``: re-running a failed chaos
seed reproduces the identical fault sequence.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..concurrency import SerialExecutor
from ..concurrency.registry import EXECUTOR_NAMES, make_executor
from ..resilience import SCENARIOS, ChaosScenario, FaultPlan, RecoveryPolicy
from ..workloads import Block, Chain
from .certify import CertificationReport, certify_block
from .crashfuzz import crash_sweep_block, reorg_roundtrip_block
from .failover import REPLICATION_HAZARDS
from .ingress import ingress_seed, run_ingress_scenario

# Deadline headroom over the fault-free serial makespan.  Generous on
# purpose: the default scenarios should recover *in place* (retries, redo
# budget, abort-storm detection); the watchdog is the backstop for
# livelock, not a scenario that fires on every run.
DEADLINE_FACTOR = 25.0

# Counters summarized by ChaosBlockReport.describe()'s degradation line.
_SUMMARY_COUNTERS = (
    "storage_retries",
    "serial_tx_fallbacks",
    "serial_block_fallbacks",
)


@dataclass(slots=True)
class ChaosBlockReport:
    """One block certified under one chaos scenario."""

    scenario: str
    seed: int | str
    certification: CertificationReport
    deadline_us: float
    # Aggregated over every executor's plan; per-executor breakdowns live
    # in the metrics registry under resilience_* (labelled by executor).
    counters: dict[str, float] = field(default_factory=dict)
    faults_injected: float = 0.0

    @property
    def ok(self) -> bool:
        return self.certification.ok

    def describe(self) -> str:
        cert = self.certification
        head = (
            f"chaos[{self.scenario}] seed {self.seed} "
            f"block {cert.block_number} ({cert.tx_count} txs): "
        )
        degradation = ", ".join(
            f"{name}={self.counters[name]:g}"
            for name in _SUMMARY_COUNTERS
            if self.counters.get(name)
        )
        tail = (
            f"{self.faults_injected:g} faults injected"
            + (f", {degradation}" if degradation else "")
        )
        if self.ok:
            return head + f"serial-equivalent ({tail})"
        lines = [head + f"{len(cert.divergences)} DIVERGENCES ({tail})"]
        lines += ["  " + d.describe() for d in cert.divergences]
        return "\n".join(lines)


def chaos_report(
    scenario: ChaosScenario,
    seed: int | str,
    certification: CertificationReport,
    counters: dict[str, float],
    faults_injected: float,
    metrics=None,
    deadline_us: float = 0.0,
) -> ChaosBlockReport:
    """Count one finished scenario run into ``chaos_*`` and wrap it up.

    Every scenario kind ends here, so the chaos CLI, CI jobs and dump
    plumbing see one report shape and one pair of counters.
    """
    if metrics is not None:
        metrics.counter("chaos_blocks_total", scenario=scenario.name).inc()
        if not certification.ok:
            metrics.counter(
                "chaos_failed_blocks_total", scenario=scenario.name
            ).inc()
    return ChaosBlockReport(
        scenario=scenario.name,
        seed=seed,
        certification=certification,
        deadline_us=deadline_us,
        counters=counters,
        faults_injected=faults_injected,
    )


def run_chaos_block(
    chain: Chain,
    block: Block,
    scenario: ChaosScenario | str,
    seed: int | str = 0,
    threads: int = 8,
    recovery: RecoveryPolicy | None = None,
    redo_budget: int | None = None,
    check_roots: bool = True,
    metrics=None,
) -> ChaosBlockReport:
    """Certify ``block`` with every executor running under ``scenario``.

    ``recovery`` overrides the harness-built policy entirely (the
    scenario's ``recovery_overrides`` are then NOT applied — an explicit
    policy is taken as authoritative, e.g. a test pinning a tiny redo
    budget or deadline).  ``redo_budget`` overrides just that knob on
    whichever policy is in force (the CLI's ``--budget``).
    """
    if isinstance(scenario, str):
        scenario = SCENARIOS[scenario]
    if scenario.kind == "ingress":
        # Overload scenarios drive the serving stack end to end; the
        # fuzzer block plays no role (reproduce with (scenario, seed)).
        return run_ingress_scenario(
            scenario, seed=seed, threads=threads, metrics=metrics
        )
    if scenario.kind != "faults":
        mode = (
            scenario.replication.get("mode", "primary-crash")
            if scenario.kind == "replication"
            else scenario.kind
        )
        hazard = _HAZARDS.get(mode)
        if hazard is None:
            raise ValueError(
                f"unknown chaos scenario kind/mode {mode!r} ({scenario.name})"
            )
        outcome = hazard(
            chain=chain,
            block=block,
            seed=ingress_seed(seed),
            threads=threads,
            check_roots=check_roots,
            metrics=metrics,
        )
        return chaos_report(scenario, seed, *outcome, metrics)
    if recovery is None:
        probe = SerialExecutor().execute_block(
            chain.fresh_world(), block.txs, block.env
        )
        policy = RecoveryPolicy(
            block_deadline_us=max(probe.makespan_us, 1.0) * DEADLINE_FACTOR
        )
        if scenario.recovery_overrides:
            policy = replace(policy, **scenario.recovery_overrides)
    else:
        policy = recovery
    if redo_budget is not None:
        policy = replace(policy, redo_budget=redo_budget)
    # The chaos suite covers every config, including the serial baseline
    # (which can still hit hard storage failures).  Per-executor plans keep
    # the fault streams independent: one executor's draw count cannot shift
    # another's fault sequence, so single-executor repros replay exactly.
    plans = {
        name: FaultPlan(f"{seed}:{scenario.name}:{name}", scenario.config, policy)
        for name in EXECUTOR_NAMES
    }

    def under_plan(name: str, threads: int, **kwargs):
        return make_executor(name, threads, fault_plan=plans[name], **kwargs)

    certification = certify_block(
        chain,
        block,
        threads=threads,
        executors=EXECUTOR_NAMES,
        factory=under_plan,
        include_scheduled=False,
        check_roots=check_roots,
        metrics=metrics,
    )

    counters: dict[str, float] = {}
    faults = 0.0
    for name, plan in plans.items():
        plan.publish(metrics, executor=name)
        faults += plan.faults_injected
        for counter, value in plan.counters.items():
            counters[counter] = counters.get(counter, 0) + value
    return chaos_report(
        scenario,
        seed,
        certification,
        counters,
        faults,
        metrics,
        deadline_us=policy.block_deadline_us or 0.0,
    )


def _crash_commit(*, chain, block, seed, **common):
    """``kind="crash"``: sweep every crash site of the durable commit path."""
    return crash_sweep_block(
        chain, block, checkpoint_interval=1, **common
    ).chaos_outcome()


def _reorg_rollback(*, chain, block, seed, **common):
    """``kind="reorg"``: the rollback round trip."""
    return reorg_roundtrip_block(chain, block, **common).chaos_outcome()


# The chaos kinds whose adversary is process death, not slow hardware, by
# scenario kind — or, for ``kind="replication"``, by the scenario's mode.
# All cover the same executor configs as the fault scenarios and reuse the
# certification/shrink/dump plumbing via ``SweepReport.chaos_outcome``;
# "faults injected" counts simulated process deaths (crash sweeps), block
# rollbacks (reorgs) or failovers.  The durability sweeps run on the
# fuzzer's block; the cluster hazards are a function of (scenario, seed)
# alone, exactly like the ingress scenarios.
_HAZARDS = {
    "crash": _crash_commit,
    "reorg": _reorg_rollback,
    **REPLICATION_HAZARDS,
}
