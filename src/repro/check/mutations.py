"""Mutation self-tests: prove the certifier can actually catch bugs.

A correctness harness that has never caught anything proves nothing
(Block-STM's artifact makes the same point by fault-injecting its
scheduler).  This module injects a *known* conflict-detection bug into
the ParallelEVM commit path — validation silently ignoring storage-slot
conflicts, the exact class of bug the paper's §5.2 machinery exists to
prevent — then demonstrates that the certifier detects the resulting
state divergence and that the shrinker reduces the failing block to a
minimal repro (two conflicting transactions).

The mutation swaps ``find_conflicts`` inside :mod:`repro.core.executor`
only: the serial reference, the other executors and the validator path
stay honest, so the differential oracle has something true to compare
against.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field

from ..state.keys import is_storage_key
from ..workloads import Chain, conflict_ratio_block
from .certify import CertificationReport, certify_block
from .shrink import ShrinkResult, shrink_block

# The self-test's contended block: its number and its transaction count.
SELF_TEST_BLOCK = 77
SELF_TEST_TXS = 12


def _drop_all(conflicts: dict) -> dict:
    return {}


def _drop_storage(conflicts: dict) -> dict:
    return {k: v for k, v in conflicts.items() if not is_storage_key(k)}


MUTATIONS = {
    # Validation reports no conflicts at all: every stale speculation
    # commits as-is.
    "conflict-blind": _drop_all,
    # Validation misses storage-slot conflicts but still sees account
    # (balance/nonce) conflicts — the subtler, more realistic bug.
    "storage-blind": _drop_storage,
}


@contextlib.contextmanager
def inject_conflict_bug(kind: str = "storage-blind"):
    """Temporarily break ParallelEVM's conflict detection.

    Patches the ``find_conflicts`` binding used by the ParallelEVM
    scheduler (executors import it by name, so only that module is
    affected).  Always restored, even on error.
    """
    import repro.core.executor as target

    mutate = MUTATIONS[kind]
    original = target.find_conflicts

    def mutated(read_set, world, overlay):
        return mutate(original(read_set, world, overlay))

    target.find_conflicts = mutated
    try:
        yield
    finally:
        target.find_conflicts = original


@dataclass(slots=True)
class SelfTestReport:
    """Outcome of one mutation self-test run."""

    mutation: str
    caught: bool
    certification: CertificationReport
    shrink: ShrinkResult | None = None
    divergence_fields: list[str] = field(default_factory=list)

    def describe(self) -> str:
        if not self.caught:
            return (
                f"mutation {self.mutation!r}: NOT CAUGHT — the certifier "
                "failed its own self-test"
            )
        lines = [
            f"mutation {self.mutation!r}: caught "
            f"({len(self.certification.divergences)} divergences: "
            f"{', '.join(sorted(set(self.divergence_fields)))})"
        ]
        if self.shrink is not None:
            lines.append(
                f"  shrunk {self.shrink.original_tx_count} -> "
                f"{self.shrink.tx_count} txs in {self.shrink.attempts} runs"
            )
        return "\n".join(lines)


def mutation_self_test(
    chain: Chain,
    mutation: str = "storage-blind",
    threads: int = 8,
) -> SelfTestReport:
    """Inject ``mutation``, certify a contended block, shrink the failure.

    Uses the §6.3 100%-conflict block (every transaction drains one hot
    ``balances[owner]`` slot), where any dropped storage conflict is
    guaranteed to surface as a committed stale write once transactions
    overlap.  Only the mutated executor is certified — the point is the
    oracle, not the honest baselines.
    """
    block = conflict_ratio_block(
        chain, SELF_TEST_BLOCK, SELF_TEST_TXS, ratio=1.0
    )
    mutant_suite = ["parallelevm"]

    with inject_conflict_bug(mutation):
        report = certify_block(
            chain,
            block,
            threads=threads,
            executors=mutant_suite,
            include_scheduled=False,
            check_roots=True,
        )
        result = SelfTestReport(
            mutation=mutation,
            caught=not report.ok,
            certification=report,
            divergence_fields=[d.field for d in report.divergences],
        )
        if result.caught:
            result.shrink = shrink_block(
                block,
                lambda candidate: not certify_block(
                    chain,
                    candidate,
                    threads=threads,
                    executors=mutant_suite,
                    include_scheduled=False,
                    check_roots=False,
                ).ok,
            )
    return result
