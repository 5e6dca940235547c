"""The ingress facade: mempool + chain service + overload robustness.

This is the application layer under the JSON-RPC dispatcher.  It owns the
write path (decode -> admit -> pool), the block-production step (select ->
ingest -> receipts), and three overload mechanisms:

* **Backpressure** — when pool depth crosses the high watermark,
  submissions are answered with a ``backpressure``
  :class:`~repro.errors.AdmissionError` carrying a ``retry_after_us``
  drawn from the :class:`~repro.resilience.RecoveryPolicy` backoff
  schedule, escalating with the number of consecutive pressured blocks.
  Hysteresis: the signal clears only once depth drains below the low
  watermark.
* **Load shedding** — each production tick first sheds pooled txs past
  their TTL deadline, cheapest-first (see :meth:`Mempool.shed_expired`).
* **Circuit breaker** — a commit-lag integrator accumulates how far each
  production tick ran behind the nominal cadence (stretched tick spacing
  plus commit-lane overrun, minus spare capacity); when the lag
  crosses ``CIRCUIT_OPEN_LAG_US`` the read path (``get_balance``,
  ``get_receipt``, ``get_block``) is shed with ``circuit-open`` until the
  lane catches back up below ``CIRCUIT_CLOSE_LAG_US``.  ``health`` is
  never shed.

Everything is deterministic: the facade owns no clock (callers pass
``now_us``), draws no randomness, and reads state only via ``peek``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from ..errors import AdmissionError
from ..mempool.admission import decode_wire_transaction, transaction_hash
from ..mempool.pool import Mempool, PoolEntry
from ..obs.metrics import NULL_METRICS
from ..resilience.policy import RecoveryPolicy
from ..state.keys import balance_key, nonce_key
from ..state.receipts import build_receipts
from ..workloads.block import Block


def ingress_backoff_policy() -> RecoveryPolicy:
    """The default retry-after schedule for ingress pacing.

    Same exponential machinery as storage retries
    (:meth:`RecoveryPolicy.backoff_us`), re-based to block-production
    timescales: 5 ms doubling up to 320 ms.
    """
    return RecoveryPolicy(backoff_base_us=5_000.0, backoff_cap_us=320_000.0)


CIRCUIT_OPEN_LAG_US = 200_000.0  # commit lag that opens the read breaker
CIRCUIT_CLOSE_LAG_US = 75_000.0  # ... and that closes it again
MAX_BACKOFF_LEVEL = 6  # retry-after stops escalating after this streak
RECEIPT_HISTORY = 4096  # receipts get_receipt can still serve
BLOCK_HISTORY = 64  # blocks get_block can still serve


@dataclass(slots=True, frozen=True)
class RpcConfig:
    """Facade knobs: block shape and whether committed blocks are kept."""

    block_txs: int = 24
    block_interval_us: float = 50_000.0
    record_blocks: bool = False

    @property
    def sustainable_tps(self) -> float:
        """The offered rate one full block per production interval absorbs."""
        return self.block_txs / (self.block_interval_us / 1e6)


@dataclass(slots=True)
class ProducedBlock:
    """One production tick's outcome plus its ingress bookkeeping."""

    outcome: object  # BlockOutcome
    entries: list[PoolEntry]
    shed: list[PoolEntry]
    stale: list[PoolEntry]


class RpcFacade:
    """Serve reads and writes over one :class:`ChainService`."""

    def __init__(
        self,
        service,
        mempool: Mempool,
        config: RpcConfig | None = None,
        metrics=NULL_METRICS,
        lifecycle=None,
    ) -> None:
        self.service = service
        self.mempool = mempool
        self.config = config or RpcConfig()
        self.policy = ingress_backoff_policy()
        self.metrics = metrics
        # Optional per-tx lifecycle tracker (repro.obs.lifecycle).  Every
        # call site is None-guarded: a facade without one executes the
        # pre-lifecycle code path exactly.
        self.lifecycle = lifecycle
        self.chain_id = service.chain.env.chain_id
        self.commit_lag_us = 0.0
        self.circuit_open = False
        self.backpressure_active = False
        self._pressure_streak = 0
        self._last_tick_us: float | None = None
        self._receipts: dict[str, dict] = {}
        self._receipt_order: deque[str] = deque()
        self._blocks: deque[dict] = deque(maxlen=BLOCK_HISTORY)
        # Committed blocks retained for serial-equivalence certification
        # (harness use; off by default to keep memory bounded).
        self.committed_blocks: list[Block] = []

    # -- overload state ------------------------------------------------

    def retry_after_us(self) -> float:
        """Suggested client wait, escalating with sustained pressure."""
        level = min(self._pressure_streak, MAX_BACKOFF_LEVEL)
        return self.policy.backoff_us(level)

    def _check_backpressure(self, now_us: float = 0.0) -> None:
        pool = self.mempool
        if self.backpressure_active:
            if pool.under_low_watermark:
                self.backpressure_active = False
                return
            self.metrics.counter("rpc_backpressure_total").inc()
        elif pool.over_high_watermark:
            self.backpressure_active = True
            self.metrics.counter("rpc_backpressure_total").inc()
            if self.lifecycle is not None:
                # The activation edge only — each rejection under sustained
                # pressure is already counted per-reason.
                self.lifecycle.on_incident("backpressure", now_us)
        else:
            return
        retry_after_us = self.retry_after_us()
        raise AdmissionError(
            "backpressure",
            f"mempool depth {len(pool)} over the high watermark "
            f"{pool.config.high_depth}; retry after {retry_after_us:.0f} us",
            retry_after_us,
        )

    def _check_circuit(self) -> None:
        if self.circuit_open:
            self.metrics.counter("rpc_reads_shed_total").inc()
            raise AdmissionError(
                "circuit-open",
                f"read circuit open: commit lag {self.commit_lag_us:.0f} us "
                f"over {CIRCUIT_OPEN_LAG_US:.0f} us",
                self.retry_after_us(),
            )

    def _account_lag(self, now_us: float, advance_us: float) -> None:
        """Fold one production tick into the commit-lag integrator.

        Two lateness sources accrue against the nominal interval: the
        spacing between production ticks (a slow consumer stretches it)
        and the commit lane's simulated service time (a slow lane overruns
        it).  The commit term goes negative on a fast lane, so on-schedule
        ticks with spare capacity drain the backlog — that drain is what
        lets an opened breaker close again once the overload passes.
        """
        interval = self.config.block_interval_us
        elapsed = (
            now_us - self._last_tick_us
            if self._last_tick_us is not None
            else interval
        )
        self._last_tick_us = now_us
        self.commit_lag_us = max(
            0.0,
            self.commit_lag_us
            + (elapsed - interval)
            + (advance_us - interval),
        )
        if self.circuit_open:
            if self.commit_lag_us <= CIRCUIT_CLOSE_LAG_US:
                self.circuit_open = False
                self.metrics.counter("rpc_circuit_closed_total").inc()
        elif self.commit_lag_us >= CIRCUIT_OPEN_LAG_US:
            self.circuit_open = True
            self.metrics.counter("rpc_circuit_opened_total").inc()
            if self.lifecycle is not None:
                self.lifecycle.on_incident("circuit-open", now_us)
        self.metrics.gauge("rpc_commit_lag_us").set(self.commit_lag_us)

    # -- write path ----------------------------------------------------

    def send_transaction(self, params, now_us: float = 0.0) -> dict:
        """Validate, admit and pool one wire transaction.

        Raises an :class:`AdmissionError` on any rejection; the dispatcher
        maps it onto the JSON-RPC error envelope.
        """
        lifecycle = self.lifecycle
        try:
            self._check_backpressure(now_us)
            tx = decode_wire_transaction(
                params,
                chain_id=self.chain_id,
                block_gas_limit=self.service.chain.env.gas_limit,
            )
            tx_hash = transaction_hash(tx)
            self.mempool.add(tx, tx_hash, now_us)
        except AdmissionError as exc:
            # Backpressure has its own counter, rpc_backpressure_total.
            if exc.code != "backpressure":
                self.metrics.counter(
                    "rpc_rejected_total", reason=exc.code
                ).inc()
            if lifecycle is not None:
                lifecycle.on_rejected(exc.code, now_us, retryable=exc.retryable)
            raise
        self.metrics.counter("rpc_admitted_total").inc()
        if lifecycle is not None:
            lifecycle.on_admitted(
                "0x" + tx_hash.hex(),
                "0x" + tx.sender.hex(),
                now_us,
                queue_depth=len(self.mempool) - 1,
            )
        return {"tx_hash": "0x" + tx_hash.hex()}

    # -- read path -----------------------------------------------------

    def get_balance(self, params) -> dict:
        self._check_circuit()
        if not isinstance(params, dict) or "address" not in params:
            raise ValueError("get_balance needs an 'address' field")
        address = bytes.fromhex(params["address"].removeprefix("0x"))
        self.metrics.counter("rpc_reads_total", method="get_balance").inc()
        return {
            "balance": self.service.world.peek(balance_key(address)) or 0,
            "nonce": self.service.world.peek(nonce_key(address)) or 0,
        }

    def get_receipt(self, params) -> dict | None:
        self._check_circuit()
        if not isinstance(params, dict) or "tx_hash" not in params:
            raise ValueError("get_receipt needs a 'tx_hash' field")
        self.metrics.counter("rpc_reads_total", method="get_receipt").inc()
        tx_hash = params["tx_hash"]
        receipt = self._receipts.get(tx_hash)
        if receipt is not None:
            return receipt
        raw = bytes.fromhex(tx_hash.removeprefix("0x"))
        if raw in self.mempool:
            return {"status": "pending", "tx_hash": tx_hash}
        return None

    def get_block(self, params) -> dict | None:
        self._check_circuit()
        self.metrics.counter("rpc_reads_total", method="get_block").inc()
        number = params.get("number") if isinstance(params, dict) else None
        if number is None:
            return self._blocks[-1] if self._blocks else None
        for summary in self._blocks:
            if summary["number"] == number:
                return summary
        return None

    def health(self) -> dict:
        """Liveness + overload state; never shed, never backpressured."""
        return {
            "height": self.service.height,
            "blocks_committed": self.service.blocks_committed,
            "txs_committed": self.service.txs_committed,
            "mempool_depth": len(self.mempool),
            "backpressure": self.backpressure_active,
            "circuit_open": self.circuit_open,
            "commit_lag_us": self.commit_lag_us,
        }

    # -- block production ---------------------------------------------

    def produce_block(self, now_us: float = 0.0) -> ProducedBlock:
        """One production tick: shed, select, ingest, index receipts.

        Always returns a :class:`ProducedBlock`; on an empty pool the
        outcome is ``None`` and the tick only drains the lag integrator
        (an idle service catches its commit lane up).
        """
        lifecycle = self.lifecycle
        shed = self.mempool.shed_expired(now_us)
        for entry in shed:
            self.metrics.counter("rpc_shed_total", reason="expired").inc()
            if lifecycle is not None:
                lifecycle.on_shed("0x" + entry.tx_hash.hex(), "expired", now_us)
        service = self.service
        entries = self.mempool.select(
            self.config.block_txs, service.chain.env.gas_limit
        )
        if not entries:
            self._account_lag(now_us, 0.0)
            if not self.backpressure_active:
                self._pressure_streak = 0
            if lifecycle is not None:
                lifecycle.sample_gauges(now_us, len(self.mempool), self.circuit_open)
            return ProducedBlock(None, [], shed, [])
        block = Block(
            number=service.height,
            txs=[entry.tx for entry in entries],
            env=service.chain.env,
        )
        outcome = service.ingest_block(
            block, tx_hashes=[entry.tx_hash for entry in entries]
        )
        self._index_block(block, entries, outcome)
        if self.config.record_blocks:
            self.committed_blocks.append(block)
        self.mempool.mark_committed(entries)
        stale = self.mempool.drop_stale()
        for entry in stale:
            self.metrics.counter("rpc_shed_total", reason="stale-nonce").inc()
            if lifecycle is not None:
                lifecycle.on_shed(
                    "0x" + entry.tx_hash.hex(), "stale-nonce", now_us
                )
        if lifecycle is not None:
            lifecycle.on_block(entries, now_us, outcome)
        self._account_lag(now_us, outcome.service_advance_us)
        if self.backpressure_active and not self.mempool.under_low_watermark:
            self._pressure_streak += 1
        else:
            self._pressure_streak = 0
        self.metrics.counter("rpc_blocks_total").inc()
        self.metrics.counter("rpc_txs_committed_total").inc(len(entries))
        if lifecycle is not None:
            lifecycle.sample_gauges(now_us, len(self.mempool), self.circuit_open)
        return ProducedBlock(outcome, entries, shed, stale)

    def _index_block(self, block: Block, entries, outcome) -> None:
        results = self.service.last_result.tx_results
        receipts = build_receipts(results)
        by_index = {r.tx.tx_index: r for r in results}
        for index, (entry, receipt) in enumerate(zip(entries, receipts)):
            tx_hash = "0x" + entry.tx_hash.hex()
            self._receipts[tx_hash] = {
                "tx_hash": tx_hash,
                "status": receipt.status,
                "gas_used": by_index[index].gas_used,
                "block_number": block.number,
                "tx_index": index,
                "logs": len(receipt.logs),
            }
            self._receipt_order.append(tx_hash)
        while len(self._receipt_order) > RECEIPT_HISTORY:
            self._receipts.pop(self._receipt_order.popleft(), None)
        self._blocks.append(
            {
                "number": block.number,
                "tx_count": len(block.txs),
                "gas_used": outcome.gas_used,
                "tx_hashes": ["0x" + e.tx_hash.hex() for e in entries],
            }
        )
