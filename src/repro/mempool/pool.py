"""A bounded, fee-prioritized mempool with full admission control.

The pool is the stateful half of admission (the stateless half is
:mod:`repro.mempool.admission`).  It checks each candidate against a
read-only view of the live world — nonce discipline, cumulative balance
cover, replacement-by-fee — plus its own invariants: per-sender quotas, a
fee floor, a hard capacity with fee-based displacement, and watermark
hysteresis that the facade turns into backpressure.  All world access goes
through :meth:`WorldState.peek`, which charges no simulated latency and
touches no cache, so admission never perturbs execution determinism.

Nonce discipline lives *here* and only here: the execution envelope bumps
account nonces but deliberately does not validate ``tx.nonce`` (harness
blocks are trusted), so the pool's contiguity rules are what keeps an
admitted block serial-equivalent.

Determinism: selection and eviction order by ``(gas_price, arrival seq)``
with the monotonically assigned sequence number as the tie-break, so two
same-seed runs shed and select identically.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from ..errors import AdmissionError
from ..evm.message import Transaction
from ..state.keys import balance_key, nonce_key
from .admission import transaction_hash


@dataclass(slots=True, frozen=True)
class MempoolConfig:
    """Admission-control and shedding knobs.

    Watermarks are fractions of ``capacity``: above ``high_watermark`` the
    facade answers submissions with backpressure until depth drains below
    ``low_watermark`` (hysteresis, so the signal does not flap).
    ``tx_ttl_us`` is the queue deadline used for load shedding: once the
    pool is pressured, pooled txs older than their deadline are shed
    cheapest-first until depth reaches the low watermark.

    ``sender_rate_per_s`` turns on per-sender token-bucket rate shaping
    (0 disables it, the default): each sender's bucket starts full at
    ``sender_burst`` tokens, refills continuously at the configured rate
    on the simulated clock, and every admission attempt spends one token.
    An empty bucket rejects with code ``rate-limited`` carrying
    ``retry_after_us`` — fairness beyond the static quota, so a
    single chatty sender cannot monopolise admission throughput even
    while staying under its pooled-count quota.
    """

    capacity: int = 2048
    per_sender_quota: int = 16
    min_gas_price: int = 1
    replacement_bump_pct: float = 10.0
    max_nonce_gap: int = 4
    high_watermark: float = 0.85
    low_watermark: float = 0.60
    tx_ttl_us: float = 1_500_000.0
    max_tx_bytes: int = 4096
    sender_rate_per_s: float = 0.0
    sender_burst: int = 4

    @property
    def high_depth(self) -> int:
        return int(self.capacity * self.high_watermark)

    @property
    def low_depth(self) -> int:
        return int(self.capacity * self.low_watermark)


@dataclass(slots=True)
class PoolEntry:
    """One pooled transaction plus its admission bookkeeping."""

    tx: Transaction
    tx_hash: bytes
    seq: int
    admitted_at_us: float
    deadline_us: float

    @property
    def sender(self) -> bytes:
        return self.tx.sender

    @property
    def nonce(self) -> int:
        return self.tx.nonce or 0

    @property
    def gas_price(self) -> int:
        return self.tx.gas_price

    @property
    def cost(self) -> int:
        return self.tx.value + self.tx.gas_limit * self.tx.gas_price


class Mempool:
    """Bounded fee-prioritized transaction pool over a live world view."""

    def __init__(self, config: MempoolConfig, world, metrics=None) -> None:
        self.config = config
        self.world = world
        self.metrics = metrics
        # sender -> {nonce -> PoolEntry}; iteration order never observed.
        self._by_sender: dict[bytes, dict[int, PoolEntry]] = {}
        self._by_hash: dict[bytes, PoolEntry] = {}
        self._seq = 0
        # sender -> [tokens, last_refill_us]; only touched when rate
        # shaping is enabled, so the default path stays allocation-free.
        self._buckets: dict[bytes, list[float]] = {}

    # -- introspection -------------------------------------------------

    def __len__(self) -> int:
        return len(self._by_hash)

    def __contains__(self, tx_hash: bytes) -> bool:
        return tx_hash in self._by_hash

    def pending_hashes(self) -> list[bytes]:
        """Hashes of every pooled tx, in deterministic arrival order."""
        return sorted(self._by_hash, key=lambda h: self._by_hash[h].seq)

    @property
    def over_high_watermark(self) -> bool:
        return len(self._by_hash) >= self.config.high_depth

    @property
    def under_low_watermark(self) -> bool:
        return len(self._by_hash) <= self.config.low_depth

    def _count(self, name: str, value: float = 1, **labels) -> None:
        if self.metrics is not None:
            self.metrics.counter(name, **labels).inc(value)

    def _reject(
        self, code: str, message: str, retry_after_us: float | None = None
    ) -> AdmissionError:
        """Count one rejection under its code; the caller raises it."""
        self._count("mempool_rejected_total", reason=code)
        return AdmissionError(code, message, retry_after_us)

    def _gauge_depth(self) -> None:
        if self.metrics is not None:
            self.metrics.gauge("mempool_depth").set(len(self._by_hash))

    # -- admission -----------------------------------------------------

    def _shape_rate(self, sender: bytes, now_us: float) -> None:
        """Spend one token from the sender's bucket or reject ``rate-limited``.

        The bucket refills continuously on the simulated clock; tokens
        are spent per admission *attempt* (not per success), so hammering
        with doomed transactions burns allowance just like valid ones.
        """
        rate = self.config.sender_rate_per_s
        if rate <= 0.0:
            return
        burst = float(max(1, self.config.sender_burst))
        bucket = self._buckets.get(sender)
        if bucket is None:
            bucket = self._buckets[sender] = [burst, now_us]
        tokens, last = bucket
        tokens = min(burst, tokens + (now_us - last) * rate / 1e6)
        if tokens < 1.0:
            bucket[0] = tokens
            bucket[1] = now_us
            retry_after_us = (1.0 - tokens) / rate * 1e6
            raise self._reject(
                "rate-limited",
                f"sender 0x{sender.hex()} is over its admission rate; "
                f"retry after {retry_after_us:.0f} us",
                retry_after_us,
            )
        bucket[0] = tokens - 1.0
        bucket[1] = now_us

    def _expected_nonce(self, sender: bytes, on_chain: int) -> int:
        """The end of the sender's contiguous executable sequence."""
        pooled = self._by_sender.get(sender)
        expected = on_chain
        if pooled:
            while expected in pooled:
                expected += 1
        return expected

    def add(self, tx: Transaction, tx_hash: bytes | None = None, now_us: float = 0.0) -> bytes:
        """Admit ``tx`` or raise an :class:`AdmissionError` naming the check.

        Returns the tx hash on success.  Checks run cheapest-first:
        per-sender rate shaping (when enabled), fee floor, sender quota,
        nonce discipline, replacement-by-fee, cumulative balance cover,
        then capacity (with fee-based displacement of the cheapest pooled
        tx as the last resort).
        """
        config = self.config
        self._shape_rate(tx.sender, now_us)
        if tx.gas_price < config.min_gas_price:
            raise self._reject(
                "fee-too-low",
                f"gas price {tx.gas_price} below floor {config.min_gas_price}",
            )

        sender = tx.sender
        nonce = tx.nonce or 0
        on_chain = self.world.peek(nonce_key(sender)) or 0
        if nonce < on_chain:
            raise self._reject(
                "nonce-too-low",
                f"nonce {nonce} below account nonce {on_chain}",
            )

        pooled = self._by_sender.get(sender)
        replaced = pooled.get(nonce) if pooled else None
        if replaced is not None:
            required = replaced.gas_price + max(
                1,
                int(replaced.gas_price * config.replacement_bump_pct / 100.0),
            )
            if tx.gas_price < required:
                raise self._reject(
                    "replacement-underpriced",
                    f"replacement gas price {tx.gas_price} below required "
                    f"{required}",
                )
        else:
            if pooled is not None and len(pooled) >= config.per_sender_quota:
                raise self._reject(
                    "sender-quota",
                    f"sender has {len(pooled)} pooled txs; "
                    f"quota {config.per_sender_quota}",
                )
            expected = self._expected_nonce(sender, on_chain)
            if nonce > expected + config.max_nonce_gap:
                raise self._reject(
                    "nonce-gap",
                    f"nonce {nonce} leaves a gap past {expected} wider than "
                    f"the {config.max_nonce_gap} allowed",
                )

        balance = self.world.peek(balance_key(sender)) or 0
        pooled_cost = sum(e.cost for e in pooled.values()) if pooled else 0
        if replaced is not None:
            pooled_cost -= replaced.cost
        new_cost = tx.value + tx.gas_limit * tx.gas_price
        if pooled_cost + new_cost > balance:
            raise self._reject(
                "insufficient-balance",
                f"sender needs {pooled_cost + new_cost} wei to cover pooled "
                f"txs but holds {balance}",
            )

        if tx_hash is None:
            tx_hash = transaction_hash(tx)

        if replaced is None and len(self._by_hash) >= config.capacity:
            victim = self._cheapest()
            if victim is None or (victim.gas_price, -victim.seq) >= (
                tx.gas_price,
                -self._seq,
            ):
                raise self._reject(
                    "mempool-full",
                    f"mempool is at capacity ({config.capacity} txs)",
                )
            self._remove(victim)
            self._count("mempool_shed_total", reason="displaced")

        entry = PoolEntry(
            tx=tx,
            tx_hash=tx_hash,
            seq=self._seq,
            admitted_at_us=now_us,
            deadline_us=now_us + config.tx_ttl_us,
        )
        self._seq += 1
        if replaced is not None:
            self._remove(replaced)
            self._count("mempool_replaced_total")
        self._by_sender.setdefault(sender, {})[nonce] = entry
        self._by_hash[tx_hash] = entry
        self._count("mempool_admitted_total")
        self._gauge_depth()
        return tx_hash

    # -- selection -----------------------------------------------------

    def select(self, max_txs: int, gas_limit: int) -> list[PoolEntry]:
        """Pick up to ``max_txs`` executable txs by fee, nonce-ordered.

        Only each sender's *contiguous* nonce sequence starting at the
        on-chain nonce is executable; within that constraint selection is
        highest-fee-first with arrival order as the deterministic
        tie-break.  Selected entries stay pooled until
        :meth:`mark_committed` — a crash between select and commit loses
        nothing.
        """
        heap: list[tuple[int, int, PoolEntry]] = []
        for sender, pooled in self._by_sender.items():
            on_chain = self.world.peek(nonce_key(sender)) or 0
            entry = pooled.get(on_chain)
            if entry is not None:
                heapq.heappush(heap, (-entry.gas_price, entry.seq, entry))
        picked: list[PoolEntry] = []
        gas_left = gas_limit
        while heap and len(picked) < max_txs:
            _, _, entry = heapq.heappop(heap)
            if entry.tx.gas_limit > gas_left:
                continue
            picked.append(entry)
            gas_left -= entry.tx.gas_limit
            pooled = self._by_sender.get(entry.sender)
            if pooled is not None:
                successor = pooled.get(entry.nonce + 1)
                if successor is not None:
                    heapq.heappush(
                        heap, (-successor.gas_price, successor.seq, successor)
                    )
        self._count("mempool_selected_total", len(picked))
        return picked

    def mark_committed(self, entries) -> None:
        """Drop committed entries (and any pooled tx made stale by them)."""
        for entry in entries:
            self._remove(entry)
        self._gauge_depth()

    def drop_stale(self) -> list[PoolEntry]:
        """Evict pooled txs whose nonce the chain has already consumed.

        Called after a commit: the block may have consumed nonces (its own
        txs are removed explicitly, but replaced/competing txs from the
        same senders become permanently unexecutable).
        """
        stale: list[PoolEntry] = []
        for sender, pooled in self._by_sender.items():
            on_chain = self.world.peek(nonce_key(sender)) or 0
            stale.extend(e for n, e in pooled.items() if n < on_chain)
        for entry in stale:
            self._remove(entry)
            self._count("mempool_shed_total", reason="stale-nonce")
        if stale:
            self._gauge_depth()
        return stale

    # -- shedding ------------------------------------------------------

    def shed_expired(self, now_us: float) -> list[PoolEntry]:
        """Deadline-based load shedding, active only under pressure.

        When depth is at or above the high watermark, expired txs (older
        than their TTL deadline) are shed cheapest-first until depth
        reaches the low watermark.  Below the high watermark the deadline
        is dormant — an idle pool never sheds.
        """
        if len(self._by_hash) < self.config.high_depth:
            return []
        expired = [
            entry
            for entry in self._by_hash.values()
            if entry.deadline_us <= now_us
        ]
        expired.sort(key=lambda e: (e.gas_price, e.seq))
        shed: list[PoolEntry] = []
        low = self.config.low_depth
        for entry in expired:
            if len(self._by_hash) <= low:
                break
            self._remove(entry)
            shed.append(entry)
            self._count("mempool_shed_total", reason="expired")
        if shed:
            self._gauge_depth()
        return shed

    # -- internals -----------------------------------------------------

    def _cheapest(self) -> PoolEntry | None:
        return min(
            self._by_hash.values(),
            key=lambda e: (e.gas_price, -e.seq),
            default=None,
        )

    def _remove(self, entry: PoolEntry) -> None:
        self._by_hash.pop(entry.tx_hash, None)
        pooled = self._by_sender.get(entry.sender)
        if pooled is not None:
            current = pooled.get(entry.nonce)
            if current is entry:
                del pooled[entry.nonce]
            if not pooled:
                del self._by_sender[entry.sender]
