"""The chaos scenario catalogue.

Each scenario is a named :class:`FaultConfig` (plus optional recovery-policy
overrides) targeting one hazard class the paper's happy-path evaluation
never exercises.  The default suite is deliberately adversarial *and*
convergent: every scenario either recovers in place (retries, redo budget)
or degrades through a typed escalation to the serial fallback — a hung or
diverged executor under any of them is a bug, not an expected outcome.

Chaos runs are correctness-only.  Makespans under injection measure the
cost of the faults and the recovery machinery, not the paper's algorithms;
no performance claim is ever derived from a chaos run.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

from .faults import FaultConfig, FaultPlan
from .policy import RecoveryPolicy


@dataclass(slots=True, frozen=True)
class ChaosScenario:
    """A named fault configuration with optional policy overrides.

    ``recovery_overrides`` are applied to the harness's
    :class:`RecoveryPolicy` via :func:`dataclasses.replace` — e.g. the
    abort-storm scenario lowers the storm threshold so detection (and the
    serial-fallback guarantee behind it) actually fires on small blocks.

    ``kind`` selects the harness: ``"faults"`` (the default) certifies
    under runtime fault injection; ``"crash"`` sweeps the durable commit
    path's crash sites (:func:`repro.check.crashfuzz.crash_sweep_block`);
    ``"reorg"`` runs the undo-preimage rollback round trip; ``"ingress"``
    drives a seeded open-loop client fleet through the JSON-RPC facade
    (:func:`repro.rpc.run_ingress`) with the overload knobs in
    ``ingress``; ``"replication"`` runs the replicated-cluster hazards
    (:data:`repro.check.failover.REPLICATION_HAZARDS`) selected by
    ``replication["mode"]``.  The non-fault kinds carry an empty
    :class:`FaultConfig` — their adversary is process death or hostile
    traffic, not degraded hardware.
    """

    name: str
    description: str
    config: FaultConfig
    recovery_overrides: dict = field(default_factory=dict)
    kind: str = "faults"
    # kind == "ingress" only: IngressConfig field overrides (offered-load
    # shape, misbehaviour shares, consumer slowdown).  A plain dict keeps
    # the resilience layer free of any rpc import.
    ingress: dict = field(default_factory=dict)
    # kind == "replication" only: which cluster hazard to run ("mode") —
    # a plain dict for the same layering reason as ``ingress``.
    replication: dict = field(default_factory=dict)


SCENARIOS: dict[str, ChaosScenario] = {
    scenario.name: scenario
    for scenario in (
        ChaosScenario(
            "storage-spike",
            "read-latency spikes: slow LevelDB point reads (compaction, "
            "SSD GC pauses)",
            FaultConfig(storage_spike_rate=0.2, storage_spike_factor=12.0),
        ),
        ChaosScenario(
            "storage-flaky",
            "transient read failures absorbed by retry with exponential "
            "backoff in simulated time",
            FaultConfig(storage_fail_rate=0.08, storage_fail_streak=3),
        ),
        ChaosScenario(
            "cache-thrash",
            "block-cache entries evicted under the executor's feet, "
            "forcing cold re-reads",
            FaultConfig(cache_drop_rate=0.3),
        ),
        ChaosScenario(
            "worker-stall",
            "workers stalling at task boundaries (GC pauses, noisy "
            "neighbours)",
            FaultConfig(worker_stall_rate=0.15, worker_stall_us=500.0),
        ),
        ChaosScenario(
            "worker-crash",
            "workers dying mid-task; the lost work re-executes after a "
            "restart penalty",
            FaultConfig(worker_crash_rate=0.08, worker_restart_us=300.0),
        ),
        ChaosScenario(
            "worker-slow",
            "tasks landing on degraded cores running at a fraction of "
            "full speed",
            FaultConfig(worker_slow_rate=0.2, worker_slow_factor=5.0),
        ),
        ChaosScenario(
            "redo-storm",
            "validations forced to report benign re-conflicts, driving "
            "the redo machinery (and its budget) hard",
            FaultConfig(reconflict_rate=0.6),
        ),
        ChaosScenario(
            "corrupt-guard",
            "redo attempts failing on corrupted constraint guards, "
            "escalating redo -> full re-execution -> serial fallback",
            FaultConfig(reconflict_rate=0.5, corrupt_guard_rate=0.7),
        ),
        ChaosScenario(
            "abort-storm",
            "Block-STM validations forced to fail until abort-storm "
            "detection triggers the serial fallback",
            FaultConfig(forced_abort_rate=0.9, forced_abort_cap=5),
            recovery_overrides={
                "abort_storm_factor": 2.0,
                "abort_storm_floor": 8,
            },
        ),
        ChaosScenario(
            "crash-commit",
            "process death at every crash site of the durable commit "
            "path; recovery must land on exactly the pre- or post-block "
            "state",
            FaultConfig(),
            kind="crash",
        ),
        ChaosScenario(
            "reorg-rollback",
            "a depth-2 chain reorg: undo-preimage rollback plus fork "
            "re-execution must reproduce the serial reference",
            FaultConfig(),
            kind="reorg",
        ),
        ChaosScenario(
            "traffic-spike",
            "offered load spikes to 4x the sustainable rate mid-run; "
            "backpressure and fee-priority selection must shed gracefully "
            "with no admitted tx lost",
            FaultConfig(),
            kind="ingress",
            ingress={
                "spike_multiplier": 4.0,
                "mempool": {"capacity": 96, "tx_ttl_us": 400_000.0},
            },
        ),
        ChaosScenario(
            "slow-consumer",
            "block production running 3x slower than its nominal cadence; "
            "the commit-lag circuit breaker must shed reads and TTL "
            "shedding must bound the queue",
            FaultConfig(),
            kind="ingress",
            ingress={
                "consumer_slowdown": 3.0,
                "mempool": {"capacity": 64, "tx_ttl_us": 250_000.0},
            },
        ),
        ChaosScenario(
            "malformed-storm",
            "half of all submissions are corrupted wires (bad hex, "
            "missing fields, bogus signatures, wrong chain id); every one "
            "must bounce off stateless validation with a typed reason",
            FaultConfig(),
            kind="ingress",
            ingress={"malformed_share": 0.5},
        ),
        ChaosScenario(
            "nonce-gap-flood",
            "clients deliberately skip ahead in their nonce sequences; "
            "the gap window and per-sender quotas must keep unexecutable "
            "txs from colonising the pool",
            FaultConfig(),
            kind="ingress",
            ingress={"nonce_gap_share": 0.35},
        ),
        ChaosScenario(
            "primary-crash",
            "the primary dies mid-commit at every crash site x every "
            "executor config; the freshest replica must be promoted with "
            "RPO=0, the deposed primary's frames fenced by epoch, and the "
            "lost block re-queued to full convergence",
            FaultConfig(),
            kind="replication",
            replication={"mode": "primary-crash"},
        ),
        ChaosScenario(
            "laggy-replica",
            "one replica consumes a single frame per poll; the lag budget "
            "must flag it (and only it), and an unbounded drain must still "
            "converge it to the primary's state",
            FaultConfig(),
            kind="replication",
            replication={"mode": "laggy-replica"},
        ),
        ChaosScenario(
            "corrupt-feed",
            "one replica's feed link flips a frame byte: the CRC must "
            "quarantine it with a typed error and a flight dump, and "
            "failover must still promote the intact replica losslessly",
            FaultConfig(),
            kind="replication",
            replication={"mode": "corrupt-feed"},
        ),
        ChaosScenario(
            "divergent-replica",
            "a replica silently corrupts one block during replay; the "
            "sealed-root check must quarantine it and promotion must "
            "exclude it",
            FaultConfig(),
            kind="replication",
            replication={"mode": "divergent-replica"},
        ),
        ChaosScenario(
            "havoc",
            "everything at once, at moderate rates",
            FaultConfig(
                storage_spike_rate=0.08,
                storage_fail_rate=0.03,
                cache_drop_rate=0.1,
                worker_stall_rate=0.06,
                worker_crash_rate=0.03,
                worker_slow_rate=0.06,
                reconflict_rate=0.2,
                corrupt_guard_rate=0.2,
                forced_abort_rate=0.3,
            ),
        ),
    )
}


def default_suite() -> list[ChaosScenario]:
    """The default chaos suite, in catalogue order."""
    return list(SCENARIOS.values())


def scenario_of_kind(name: str, kind: str) -> ChaosScenario:
    """Look ``name`` up in the catalogue, insisting on its ``kind``.

    Scenario names arrive from the command line and from config objects;
    an unknown or wrong-kind one fails here with a one-line
    :class:`ValueError` listing the names that would have worked.
    """
    scenario = SCENARIOS.get(name)
    if scenario is not None and scenario.kind == kind:
        return scenario
    known = ", ".join(s.name for s in SCENARIOS.values() if s.kind == kind)
    if scenario is None:
        raise ValueError(
            f"unknown chaos scenario {name!r} (scenarios of kind {kind!r}: {known})"
        )
    article = "an" if kind[0] in "aeiou" else "a"
    raise ValueError(
        f"scenario {name!r} is kind {scenario.kind!r}, not {article} "
        f"{kind} scenario (known: {known})"
    )


def block_fault_plans(
    seed_prefix: str, scenario: str | None = None
) -> Callable[[int], FaultPlan] | None:
    """The per-block :class:`FaultPlan` factory a chain service injects from.

    ``scenario`` names a ``kind="faults"`` catalogue entry (its recovery
    overrides applied to the stock policy).  Each block's plan is seeded
    ``f"{seed_prefix}:{number}"``, so injection streams are a pure
    function of (harness, seed, height).  Returns None when no scenario is
    named — the service then runs with no plan attached at all.
    """
    if scenario is None:
        return None
    chosen = scenario_of_kind(scenario, "faults")
    recovery = replace(RecoveryPolicy(), **chosen.recovery_overrides)

    def factory(number: int) -> FaultPlan:
        return FaultPlan(
            f"{seed_prefix}:{number}", config=chosen.config, recovery=recovery
        )

    return factory
