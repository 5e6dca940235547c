"""The SSA/redo slice-equivalence oracle (Algorithm 1's cross-check).

The redo phase claims that re-executing only the conflicting *slice* of a
transaction's SSA operation log yields the same result as re-running the
whole transaction against corrected state.  This module checks that claim
on every successful redo: a :class:`RedoReplayChecker` attached to a
:class:`~repro.core.executor.ParallelEVMExecutor` (via ``redo_checker``)
re-executes the transaction from scratch over the same committed state the
redo resolved against, and compares write sets, read sets, gas, success,
logs and return data field by field.

Any mismatch is a redo bug by definition — the guards of §5.2.4 were
supposed to force a fall-back instead.  Checking perturbs simulated
timing (the extra execution warms the world's cache) but never state, so
the oracle belongs in correctness harnesses, not benchmark runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..concurrency.base import run_speculative
from ..evm.message import BlockEnv, Transaction, TxResult
from ..obs.metrics import NULL_METRICS, MetricsRegistry
from ..sim.cost import DEFAULT_COST_MODEL
from ..state.view import BlockOverlay
from ..state.world import WorldState


def logs_of(result: TxResult) -> list[tuple]:
    """``result``'s LOG records as comparable ``(address, topics, data)``."""
    return [(log.address, tuple(log.topics), log.data) for log in result.logs]


@dataclass
class RedoReplayChecker:
    """Cross-validates every successful redo against a fresh execution.

    Each mismatch is recorded in ``divergences`` for the certifier to
    report.  ``metrics`` (by default the discarding
    :data:`~repro.obs.metrics.NULL_METRICS`) receives
    ``redo_replay_checks_total`` / ``redo_replay_divergences_total``.
    """

    metrics: MetricsRegistry = NULL_METRICS
    checks: int = 0
    divergences: list[str] = field(default_factory=list)

    def check(
        self,
        world: WorldState,
        overlay: BlockOverlay,
        tx: Transaction,
        env: BlockEnv,
        redone: TxResult,
    ) -> None:
        """Compare ``redone`` (the post-redo result) with a fresh run."""
        self.checks += 1
        self.metrics.counter("redo_replay_checks_total").inc()
        fresh, _meter = run_speculative(world, overlay, tx, env, DEFAULT_COST_MODEL)

        mismatches: list[str] = []
        if redone.success != fresh.success:
            mismatches.append(
                f"success {redone.success} != {fresh.success}"
            )
        if redone.gas_used != fresh.gas_used:
            mismatches.append(f"gas {redone.gas_used} != {fresh.gas_used}")
        if redone.write_set != fresh.write_set:
            keys = sorted(
                k
                for k in set(redone.write_set) | set(fresh.write_set)
                if redone.write_set.get(k) != fresh.write_set.get(k)
            )
            mismatches.append(f"write_set differs on {keys[:4]}")
        if redone.read_set != fresh.read_set:
            keys = sorted(
                k
                for k in set(redone.read_set) | set(fresh.read_set)
                if redone.read_set.get(k) != fresh.read_set.get(k)
            )
            mismatches.append(f"read_set differs on {keys[:4]}")
        if logs_of(redone) != logs_of(fresh):
            mismatches.append("log records differ")
        if redone.return_data != fresh.return_data:
            mismatches.append("return data differs")

        if not mismatches:
            return
        message = f"redo of {tx.describe()} diverged: " + "; ".join(mismatches)
        self.divergences.append(message)
        self.metrics.counter("redo_replay_divergences_total").inc()
