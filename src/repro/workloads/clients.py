"""Seeded open-loop RPC clients: the load half of the serving stack.

Each client owns one funded account and fires requests at the facade on a
deterministic Poisson schedule (seeded ``random.Random`` per client, all
timestamps simulated microseconds): native value transfers with
client-managed nonces and seeded fee levels, plus a configurable share of
reads, malformed wires (each corruption targeting a different typed
rejection) and deliberate nonce gaps.  **Open loop** means arrivals never
wait for responses — exactly the regime where admission control earns its
keep: under a traffic spike the offered rate stays up and the server must
shed, not the clients politely slow down.

Retry discipline: a retryable rejection is resubmitted after
``max(server retry_after, policy.backoff_us(attempt))`` plus seeded
jitter — the client reuses the same
:class:`~repro.resilience.RecoveryPolicy` exponential schedule the rest
of the resilience layer runs on.  After ``max_retries`` the client gives
up and the tx is accounted as abandoned (its nonce burns, so later txs
from that client exercise the pool's gap handling for free).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..evm.message import Transaction
from ..mempool.admission import wire_transaction
from ..resilience.policy import RecoveryPolicy


@dataclass(slots=True, frozen=True)
class ClientSpec:
    """Fleet shape and misbehaviour knobs (rates in tx per simulated second)."""

    clients: int = 8
    base_rate_tps: float = 400.0
    spike_multiplier: float = 1.0
    spike_from_us: float = 0.0
    spike_until_us: float = 0.0
    read_share: float = 0.15
    malformed_share: float = 0.0
    nonce_gap_share: float = 0.0
    max_retries: int = 4
    seed: int = 1


#: One corruption per AdmissionError the stateless validator can raise.
_CORRUPTIONS = (
    "missing-sender",
    "bad-hex",
    "missing-sig",
    "short-sig",
    "wrong-chain",
    "oversize",
    "starved-gas",
    "negative-value",
)


class OpenLoopClient:
    """One account, one seeded schedule, one nonce counter."""

    def __init__(
        self,
        index: int,
        account: bytes,
        recipients: list[bytes],
        spec: ClientSpec,
        policy: RecoveryPolicy,
        chain_id: int = 1,
    ) -> None:
        self.index = index
        self.account = account
        self.recipients = recipients
        self.spec = spec
        self.policy = policy
        self.chain_id = chain_id
        self.rng = random.Random((spec.seed << 16) ^ (index * 7919 + 1))
        self.nonce = 0
        self.submitted = 0
        self.retries = 0
        self.gave_up = 0
        self.reads = 0
        self._recent_hashes: list[str] = []

    # -- schedule ------------------------------------------------------

    def _rate_tps(self, now_us: float) -> float:
        spec = self.spec
        rate = spec.base_rate_tps / max(1, spec.clients)
        if spec.spike_from_us <= now_us < spec.spike_until_us:
            rate *= spec.spike_multiplier
        return rate

    def next_arrival(self, now_us: float) -> float:
        """The next open-loop arrival after ``now_us`` (Poisson, seeded)."""
        rate = self._rate_tps(now_us)
        return now_us + self.rng.expovariate(rate) * 1_000_000.0

    # -- request construction -----------------------------------------

    def make_request(self, now_us: float) -> dict:
        """Draw the next request: a read, a malformed wire, or a transfer."""
        rng = self.rng
        spec = self.spec
        roll = rng.random()
        if roll < spec.read_share:
            self.reads += 1
            return self._read_request(rng)
        if rng.random() < spec.malformed_share:
            # Corruption happens "on the wire": the payload never counts
            # against the client's nonce sequence, so a malformed storm
            # stays a malformed storm instead of degenerating into a
            # nonce-gap cascade.
            nonce_before = self.nonce
            wire = self._corrupt(rng, self._transfer_wire(rng))
            self.nonce = nonce_before
        else:
            wire = self._transfer_wire(rng)
        self.submitted += 1
        return {
            "jsonrpc": "2.0",
            "id": f"c{self.index}-{self.submitted + self.reads}",
            "method": "send_transaction",
            "params": wire,
        }

    def _transfer_wire(self, rng: random.Random) -> dict:
        spec = self.spec
        if spec.nonce_gap_share and rng.random() < spec.nonce_gap_share:
            # Deliberately skip ahead (1-8 nonces): the skipped nonces are
            # never sent, so this tx (and everything after) probes the
            # pool's gap-window enforcement.
            self.nonce += rng.randint(1, 8)
        nonce = self.nonce
        self.nonce += 1
        tx = Transaction(
            sender=self.account,
            to=rng.choice(self.recipients),
            value=rng.randint(1, 1_000_000),
            data=b"",
            gas_limit=21_000,
            gas_price=rng.randint(1, 100),  # the seeded fee level
            nonce=nonce,
        )
        return wire_transaction(tx, chain_id=self.chain_id)

    def _read_request(self, rng: random.Random) -> dict:
        if self._recent_hashes and rng.random() < 0.5:
            method = "get_receipt"
            params = {"tx_hash": rng.choice(self._recent_hashes)}
        else:
            method = "get_balance"
            params = {"address": "0x" + self.account.hex()}
        return {
            "jsonrpc": "2.0",
            "id": f"c{self.index}-{self.submitted + self.reads}",
            "method": method,
            "params": params,
        }

    def _corrupt(self, rng: random.Random, wire: dict) -> dict:
        kind = rng.choice(_CORRUPTIONS)
        wire = dict(wire)
        if kind == "missing-sender":
            wire.pop("sender", None)
        elif kind == "bad-hex":
            wire["sender"] = "0xnot-hex-at-all"
        elif kind == "missing-sig":
            wire.pop("sig", None)
        elif kind == "short-sig":
            wire["sig"] = "0x" + "ab" * 12
        elif kind == "wrong-chain":
            wire["chain_id"] = self.chain_id + 1337
        elif kind == "oversize":
            wire["data"] = "0x" + "ff" * 8192
        elif kind == "starved-gas":
            wire["gas_limit"] = 100
        else:
            wire["value"] = -1
        return wire

    # -- response handling --------------------------------------------

    def note_accepted(self, tx_hash: str) -> None:
        self._recent_hashes.append(tx_hash)
        del self._recent_hashes[:-16]

    def retry_delay_us(self, attempt: int, retry_after_us: float) -> float | None:
        """When to resubmit after retryable rejection number ``attempt``.

        ``None`` once the retry budget is spent.  The wait is the larger
        of the server's suggestion and the policy schedule, with ±10%
        seeded jitter so a fleet of clients does not thunder back in
        lockstep.
        """
        if attempt >= self.spec.max_retries:
            self.gave_up += 1
            return None
        self.retries += 1
        base = max(retry_after_us, self.policy.backoff_us(attempt))
        return base * (0.9 + 0.2 * self.rng.random())


def build_fleet(
    spec: ClientSpec,
    accounts: list[bytes],
    policy: RecoveryPolicy,
    chain_id: int = 1,
) -> list[OpenLoopClient]:
    """One client per slot, senders disjoint from the recipient pool.

    Senders take the front of ``accounts``; recipients are the remainder
    (falling back to the whole universe when it is too small).  Disjoint
    sets keep client-side nonce counters authoritative: nobody else
    spends from a client's account.
    """
    senders = accounts[: spec.clients]
    recipients = accounts[spec.clients :] or accounts
    return [
        OpenLoopClient(index, sender, recipients, spec, policy, chain_id)
        for index, sender in enumerate(senders)
    ]
