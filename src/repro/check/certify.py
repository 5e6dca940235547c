"""The serializability certifier: Theorem 1 as an executable oracle.

``certify_block`` runs one block through the serial reference and then
through every concurrent executor — the paper's four (2PL, OCC,
Block-STM, ParallelEVM) plus Saraph-Herlihy two-phase, §6.3 pre-execution
and both §7 scheduled-validator granularities — and compares, field by
field:

- the final write set (the block's state delta),
- per-transaction success flags and log records,
- total gas and the consensus receipts root,
- optionally the MPT ``state_root()`` after applying the delta,
- and, for the ParallelEVM runs, the SSA/redo slice-equivalence oracle
  (:mod:`repro.check.replay`) on every successful redo.

Divergences are structured (:class:`Divergence`), counted into an optional
metrics registry (``certify_blocks_total``, ``certify_divergences_total``
by executor and field), and renderable for humans and CI artifacts.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

from ..concurrency import SerialExecutor
from ..concurrency.registry import EXECUTOR_NAMES, make_executor
from ..core.schedule import ScheduledValidatorExecutor, propose_schedule
from ..obs.metrics import NULL_METRICS
from ..state.receipts import receipts_root
from ..workloads import Block, Chain
from .replay import RedoReplayChecker, logs_of

# Every concurrent config is certified against the serial reference.
_CONCURRENT_EXECUTORS = tuple(name for name in EXECUTOR_NAMES if name != "serial")

# Differing keys a divergence message names before "(+N more)".
_KEYS_SHOWN = 4


@dataclass(slots=True)
class Divergence:
    """One executor/field pair that failed serial equivalence."""

    executor: str
    field: str  # writes | success | logs | gas | receipts_root | state_root | redo_replay | tx_count
    detail: str

    def describe(self) -> str:
        return f"{self.executor}: {self.field} diverged — {self.detail}"


@dataclass(slots=True)
class CertificationReport:
    """The outcome of certifying one block across the executor suite."""

    block_number: int
    tx_count: int
    executors: list[str] = field(default_factory=list)
    divergences: list[Divergence] = field(default_factory=list)
    redo_replays: int = 0

    @property
    def ok(self) -> bool:
        return not self.divergences

    @property
    def certification(self) -> CertificationReport:
        """Itself: what every harness report offers the shrink/dump plumbing."""
        return self

    def describe(self) -> str:
        head = (
            f"block {self.block_number} ({self.tx_count} txs, "
            f"{len(self.executors)} executors, "
            f"{self.redo_replays} redo replays): "
        )
        if self.ok:
            return head + "serial-equivalent"
        lines = [head + f"{len(self.divergences)} DIVERGENCES"]
        lines += ["  " + d.describe() for d in self.divergences]
        return "\n".join(lines)


def _diff_keys(ours: dict, theirs: dict) -> str:
    keys = sorted(
        k
        for k in set(ours) | set(theirs)
        if ours.get(k) != theirs.get(k)
    )
    shown = ", ".join(repr(k) for k in keys[:_KEYS_SHOWN])
    more = (
        f" (+{len(keys) - _KEYS_SHOWN} more)" if len(keys) > _KEYS_SHOWN else ""
    )
    return f"{len(keys)} keys: {shown}{more}"


def certify_block(
    chain: Chain,
    block: Block,
    threads: int = 8,
    executors: Sequence[str] = _CONCURRENT_EXECUTORS,
    factory: Callable = make_executor,
    include_scheduled: bool = True,
    check_roots: bool = True,
    metrics=NULL_METRICS,
) -> CertificationReport:
    """Certify that every executor reproduces serial execution of ``block``.

    Each run starts from a fresh cold clone of the chain's genesis world,
    mirroring how the equivalence theorem is stated.  ``executors`` names
    the registry configs to run (narrowed e.g. during shrinking, when only
    the failing executor matters); ``factory`` is called as
    ``factory(name, threads, redo_checker=...)`` — a harness that attaches
    more (a fault plan per executor) passes a closure over
    :func:`make_executor`.  ``include_scheduled`` adds the
    proposer/validator replays, which cost one extra proposer execution of
    the block.
    """
    if check_roots:
        # Root the genesis once (as sweep.root_genesis does; that module
        # imports this one): every fresh_world() below is then a clone that
        # re-hashes only its own delta, not the whole state.
        chain.world.state_root()
    serial = SerialExecutor().execute_block(
        chain.fresh_world(), block.txs, block.env
    )
    serial_receipts = receipts_root(serial.tx_results)
    serial_logs = {r.tx.tx_index: logs_of(r) for r in serial.tx_results}
    serial_success = {r.tx.tx_index: r.success for r in serial.tx_results}

    report = CertificationReport(block_number=block.number, tx_count=len(block))
    serial_root = None
    if check_roots:
        reference = chain.fresh_world()
        reference.apply(serial.writes)
        serial_root = reference.state_root()

    def compare(name: str, result, checker: RedoReplayChecker | None) -> None:
        report.executors.append(name)
        found: list[Divergence] = []
        indices = sorted(r.tx.tx_index for r in result.tx_results)
        if indices != list(range(len(block.txs))):
            found.append(
                Divergence(name, "tx_count", f"committed indices {indices[:8]}…")
            )
        if result.writes != serial.writes:
            found.append(
                Divergence(
                    name, "writes", _diff_keys(result.writes, serial.writes)
                )
            )
        flags = {r.tx.tx_index: r.success for r in result.tx_results}
        if flags != serial_success:
            wrong = sorted(
                i for i in flags if flags.get(i) != serial_success.get(i)
            )
            found.append(Divergence(name, "success", f"tx indices {wrong[:8]}"))
        logs = {r.tx.tx_index: logs_of(r) for r in result.tx_results}
        if logs != serial_logs:
            wrong = sorted(
                i
                for i in set(logs) | set(serial_logs)
                if logs.get(i) != serial_logs.get(i)
            )
            found.append(Divergence(name, "logs", f"tx indices {wrong[:8]}"))
        if result.gas_used != serial.gas_used:
            found.append(
                Divergence(
                    name, "gas", f"{result.gas_used} != {serial.gas_used}"
                )
            )
        if receipts_root(result.tx_results) != serial_receipts:
            found.append(
                Divergence(name, "receipts_root", "receipts trie differs")
            )
        if check_roots and result.writes != serial.writes:
            # Root inequality follows from the write-set diff above, but
            # confirming it through the MPT pipeline validates the hashing
            # path the paper's §6.2 criterion actually uses.
            candidate = chain.fresh_world()
            candidate.apply(result.writes)
            if candidate.state_root() != serial_root:
                found.append(
                    Divergence(name, "state_root", "MPT roots differ")
                )
        if checker is not None:
            report.redo_replays += checker.checks
            for message in checker.divergences:
                found.append(Divergence(name, "redo_replay", message))
        report.divergences.extend(found)
        for divergence in found:
            metrics.counter(
                "certify_divergences_total",
                executor=name,
                field=divergence.field,
            ).inc()

    for name in executors:
        checker = RedoReplayChecker(metrics=metrics)
        executor = factory(name, threads, redo_checker=checker)
        if getattr(executor, "redo_checker", None) is not checker:
            checker = None
        result = executor.execute_block(chain.fresh_world(), block.txs, block.env)
        compare(name, result, checker)

    if include_scheduled:
        schedule, _proposer = propose_schedule(
            chain.fresh_world(), block.txs, block.env, threads=threads
        )
        for name, use_values in (
            ("scheduled-deps", False),
            ("scheduled-values", True),
        ):
            validator = ScheduledValidatorExecutor(
                schedule, threads=threads, use_read_values=use_values
            )
            result = validator.execute_block(
                chain.fresh_world(), block.txs, block.env
            )
            compare(name, result, None)

    metrics.counter("certify_blocks_total").inc()
    if not report.ok:
        metrics.counter("certify_failed_blocks_total").inc()
    metrics.counter("certify_redo_replays_total").inc(report.redo_replays)
    return report


# ------------------------------------------------------------------ artifacts


def block_to_json(block: Block, report: CertificationReport | None = None) -> str:
    """A self-contained JSON dump of a (minimized) repro block.

    Everything needed to reconstruct and re-certify the block by hand:
    environment, transactions (hex-encoded addresses and calldata) and,
    when given, the divergence report that condemned it.
    """
    payload = {
        "block_number": block.number,
        "env": {
            "number": block.env.number,
            "timestamp": block.env.timestamp,
            "coinbase": block.env.coinbase.hex(),
            "gas_limit": block.env.gas_limit,
            "chain_id": block.env.chain_id,
        },
        "txs": [
            {
                "tx_index": tx.tx_index,
                "sender": tx.sender.hex(),
                "to": tx.to.hex() if tx.to is not None else None,
                "value": tx.value,
                "data": tx.data.hex(),
                "gas_limit": tx.gas_limit,
                "gas_price": tx.gas_price,
                "nonce": tx.nonce,
            }
            for tx in block.txs
        ],
    }
    if report is not None:
        payload["divergences"] = [
            {"executor": d.executor, "field": d.field, "detail": d.detail}
            for d in report.divergences
        ]
    return json.dumps(payload, indent=2, sort_keys=True)
