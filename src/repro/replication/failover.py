"""Deterministic failover: detection, candidate choice, fencing epochs.

The controller is deliberately dumb and fully deterministic on the
simulated clock: the primary heartbeats on every committed block, a
silence longer than ``heartbeat_timeout_us`` declares it lost, and the
successor is the *freshest* non-quarantined replica (highest committed
block, lexicographically-smallest name as the tie-break — no randomness,
so every run of a scenario elects the same node).  Each promotion bumps a
monotonic fencing epoch; the deposed primary's frames carry the old epoch
and are rejected by every replica (:class:`~repro.errors.StaleEpoch`),
which is the whole split-brain story in a single integer comparison.

Failover time is accounted in three simulated phases, reported per
promotion in a :class:`FailoverReport`:

- **detection** — the heartbeat timeout itself;
- **catch-up** — draining the dead feed's remaining frames into the
  candidate (its accrued ``apply_us``) plus re-recovering its own
  journal, which re-verifies every sealed root one last time;
- **promotion** — snapshotting the recovered world onto the successor's
  feed so late-joining replicas can bootstrap, plus the fsync.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(slots=True, frozen=True)
class FailoverPolicy:
    """When to give up on the primary and who is eligible to replace it.

    ``heartbeat_timeout_us`` is the silence that declares the primary
    dead.  ``lag_budget_blocks`` is the maximum replication lag a replica
    may carry and still be considered *caught up*; laggards beyond it are
    flagged by monitoring and deprioritised (but not disqualified — a
    laggard still beats losing sealed blocks if it is all that is left).
    """

    heartbeat_timeout_us: float = 150_000.0
    lag_budget_blocks: int = 8


@dataclass(slots=True)
class FailoverReport:
    """One promotion, fully accounted in simulated microseconds."""

    epoch: int
    promoted: str
    detection_us: float
    catchup_us: float
    promotion_us: float
    last_committed_block: int | None
    last_sealed_block: int | None
    blocks_preserved: int
    stale_frames_rejected: int = 0
    quarantined: list[str] = field(default_factory=list)

    @property
    def total_us(self) -> float:
        return self.detection_us + self.catchup_us + self.promotion_us

    def as_dict(self) -> dict:
        return {
            "epoch": self.epoch,
            "promoted": self.promoted,
            "detection_us": round(self.detection_us, 3),
            "catchup_us": round(self.catchup_us, 3),
            "promotion_us": round(self.promotion_us, 3),
            "total_us": round(self.total_us, 3),
            "last_committed_block": self.last_committed_block,
            "last_sealed_block": self.last_sealed_block,
            "blocks_preserved": self.blocks_preserved,
            "stale_frames_rejected": self.stale_frames_rejected,
            "quarantined": list(self.quarantined),
        }


class FailoverController:
    """Liveness tracking + deterministic successor election."""

    def __init__(self, policy: FailoverPolicy | None = None, metrics=None) -> None:
        self.policy = policy or FailoverPolicy()
        self.metrics = metrics
        self.epoch = 1
        self.last_heartbeat_us = 0.0
        self.failovers = 0
        self.reports: list[FailoverReport] = []

    # ------------------------------------------------------------ liveness

    def heartbeat(self, now_us: float) -> None:
        self.last_heartbeat_us = now_us

    def primary_lost(self, now_us: float) -> bool:
        return (
            now_us - self.last_heartbeat_us > self.policy.heartbeat_timeout_us
        )

    # ------------------------------------------------------------ election

    @staticmethod
    def eligible(replicas) -> list:
        return [r for r in replicas if r.state != "quarantined"]

    def pick_candidate(self, replicas):
        """The freshest healthy replica; deterministic name tie-break."""
        candidates = self.eligible(replicas)
        if not candidates:
            return None
        return min(
            candidates,
            key=lambda r: (
                -(r.last_committed_block if r.last_committed_block is not None else -1),
                r.name,
            ),
        )

    def over_lag_budget(self, replica, primary_tip: int | None) -> bool:
        return replica.lag_blocks(primary_tip) > self.policy.lag_budget_blocks

    def next_epoch(self) -> int:
        self.epoch += 1
        self.failovers += 1
        if self.metrics is not None:
            self.metrics.counter("replication_failovers_total").inc()
            self.metrics.gauge("replication_epoch").set(float(self.epoch))
        return self.epoch

    def record(self, report: FailoverReport) -> None:
        self.reports.append(report)
