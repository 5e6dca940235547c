"""The deterministic, seeded fault injector.

A :class:`FaultPlan` is the single source of chaos for one block run.  It
is a pure function of ``(seed, config)``: each injection site draws from
its own named :mod:`random` stream (``f"{seed}:{site}"``), so two runs
with the same plan make byte-identical fault decisions regardless of how
other sites interleave, and a scenario is replayable from its seed alone.

Injection sites (all optional, all no-ops at rate 0):

- **storage** (:class:`StorageFaultInjector`) — hooked into
  :meth:`repro.db.kvstore.SimulatedDiskKV.read_into`: read-latency spikes,
  cache-entry eviction (forcing cold re-reads through the block cache),
  and transient read failures absorbed by the recovery policy's
  simulated-time retry/backoff loop;
- **machine** (:class:`MachineFaultInjector`) — consulted by
  :class:`repro.sim.machine.SimMachine` at task dispatch: worker stalls
  (fixed extra latency), crashes (the task's work is lost and redone
  elsewhere: twice the duration plus a restart penalty) and slowdowns
  (a degraded core running at a fraction of full speed);
- **redo** (:class:`RedoFaultInjector`) — forced re-conflicts at
  validation (benign: the injected "corrected" value is the current
  committed value, so the redo machinery runs end to end without
  perturbing state) and corrupted constraint guards (the redo fails and
  the escalation ladder takes over);
- **scheduler** (:class:`SchedulerFaultInjector`) — forced validation
  failures in Block-STM's collaborative scheduler, capped per
  transaction so injection alone can never livelock a run; abort-storm
  *detection* lives in the recovery policy, not here.

Every decision increments a named counter on the plan; executors publish
them as ``resilience_*`` metrics so every fault and recovery action is
observable in reports and ``--metrics-json`` exports.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..errors import TransientStorageError
from .policy import RecoveryPolicy


@dataclass(slots=True, frozen=True)
class FaultConfig:
    """Per-site fault rates and magnitudes.  All rates are in [0, 1]."""

    # --- storage ---------------------------------------------------------
    storage_spike_rate: float = 0.0  # read-latency spike probability
    storage_spike_factor: float = 10.0  # latency multiplier when spiking
    storage_fail_rate: float = 0.0  # transient read-failure probability
    storage_fail_streak: int = 2  # max consecutive failures per read
    cache_drop_rate: float = 0.0  # evict the key before reading it

    # --- simulated machine workers ---------------------------------------
    worker_stall_rate: float = 0.0  # task hit by a scheduling stall
    worker_stall_us: float = 400.0  # stall length
    worker_crash_rate: float = 0.0  # task's worker dies mid-task
    worker_restart_us: float = 250.0  # respawn cost before the redo run
    worker_slow_rate: float = 0.0  # task lands on a degraded core
    worker_slow_factor: float = 4.0  # degraded core's slowdown factor

    # --- redo path -------------------------------------------------------
    reconflict_rate: float = 0.0  # forced benign validation conflicts
    corrupt_guard_rate: float = 0.0  # redo fails on an injected guard

    # --- Block-STM scheduler ---------------------------------------------
    forced_abort_rate: float = 0.0  # validation forced to fail
    forced_abort_cap: int = 2  # forced aborts per transaction


class FaultPlan:
    """All fault state for one block run, keyed on ``(seed, config)``.

    ``recovery`` rides along so the injection sites that need policy
    constants (the storage retry loop) and the executors that need
    watchdog settings read them from one place.
    """

    def __init__(
        self,
        seed: int | str,
        config: FaultConfig | None = None,
        recovery: RecoveryPolicy | None = None,
    ) -> None:
        self.seed = seed
        self.config = config if config is not None else FaultConfig()
        self.recovery = recovery if recovery is not None else RecoveryPolicy()
        self.counters: dict[str, float] = {}
        self.storage = StorageFaultInjector(self)
        self.machine = MachineFaultInjector(self)
        self.redo = RedoFaultInjector(self)
        self.scheduler = SchedulerFaultInjector(self)

    def stream(self, site: str) -> random.Random:
        """An independent, named deterministic random stream."""
        return random.Random(f"{self.seed}:{site}")

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    @property
    def faults_injected(self) -> float:
        """Total injection decisions that fired (not retries/wait time)."""
        return sum(
            value
            for name, value in self.counters.items()
            if name
            in (
                "storage_latency_spikes",
                "storage_transient_faults",
                "storage_hard_failures",
                "cache_drops",
                "worker_stalls",
                "worker_crashes",
                "worker_slowdowns",
                "forced_reconflicts",
                "corrupted_guards",
                "forced_aborts",
            )
        )

    def publish(self, metrics, executor: str | None = None) -> None:
        """Mirror the counters into a metrics registry.

        Counters (not gauges): a chaos harness aggregates several plans —
        one per executor — into one registry, labelling each by executor.
        """
        labels = {} if executor is None else {"executor": executor}
        for name in sorted(self.counters):
            metrics.counter(f"resilience_{name}", **labels).inc(
                self.counters[name]
            )
        metrics.counter("resilience_faults_injected", **labels).inc(
            self.faults_injected
        )


class StorageFaultInjector:
    """Latency spikes, cache thrash and retried transient read failures."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._rng = plan.stream("storage")

    def drop_cache(self, key) -> bool:
        """Should this key be evicted from the block cache pre-read?"""
        cfg = self.plan.config
        if cfg.cache_drop_rate <= 0 or self._rng.random() >= cfg.cache_drop_rate:
            return False
        self.plan.count("cache_drops")
        return True

    def on_read(self, key, sample):
        """Perturb one read's latency; the value is never corrupted.

        Transient failures are resolved *here*, on the simulated clock:
        each failed attempt costs the read latency plus the policy's
        exponential backoff, and the surviving sample carries the total.
        Only a streak reaching ``max_read_attempts`` escapes as a
        :class:`TransientStorageError`.
        """
        cfg = self.plan.config
        latency = sample.latency_us
        if (
            cfg.storage_spike_rate > 0
            and self._rng.random() < cfg.storage_spike_rate
        ):
            latency *= cfg.storage_spike_factor
            self.plan.count("storage_latency_spikes")
        if (
            cfg.storage_fail_rate > 0
            and self._rng.random() < cfg.storage_fail_rate
        ):
            policy = self.plan.recovery
            failures = 1 + self._rng.randrange(max(1, cfg.storage_fail_streak))
            if failures >= policy.max_read_attempts:
                self.plan.count("storage_hard_failures")
                raise TransientStorageError(key, failures)
            wait = policy.retry_wait_us(failures, sample.latency_us)
            latency += wait
            self.plan.count("storage_transient_faults")
            self.plan.count("storage_retries", failures)
            self.plan.count("backoff_wait_us", wait)
        if latency == sample.latency_us:
            return sample
        return type(sample)(sample.value, latency, sample.cache_hit)


class MachineFaultInjector:
    """Worker faults applied at task boundaries on the simulated machine."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._rng = plan.stream("machine")

    def perturb_us(self, duration_us: float) -> float:
        """Extra simulated time this task suffers (0.0 almost always).

        At most one fault per task, checked crash -> stall -> slowdown so
        the draw sequence (hence determinism) is independent of rates.
        """
        cfg = self.plan.config
        if cfg.worker_crash_rate > 0 and self._rng.random() < cfg.worker_crash_rate:
            # The worker died mid-task: its work is lost and re-executed
            # on a respawned worker — the task effectively runs twice.
            self.plan.count("worker_crashes")
            return duration_us + cfg.worker_restart_us
        if cfg.worker_stall_rate > 0 and self._rng.random() < cfg.worker_stall_rate:
            self.plan.count("worker_stalls")
            return cfg.worker_stall_us
        if cfg.worker_slow_rate > 0 and self._rng.random() < cfg.worker_slow_rate:
            self.plan.count("worker_slowdowns")
            return duration_us * (cfg.worker_slow_factor - 1.0)
        return 0.0


class RedoFaultInjector:
    """Forced re-conflicts and corrupted guards on the redo path."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._reconflict_rng = plan.stream("reconflict")
        self._guard_rng = plan.stream("guard")

    def force_reconflict(self, tx_index: int) -> bool:
        """Should this validation report injected (benign) conflicts?"""
        cfg = self.plan.config
        if (
            cfg.reconflict_rate <= 0
            or self._reconflict_rng.random() >= cfg.reconflict_rate
        ):
            return False
        self.plan.count("forced_reconflicts")
        return True

    def corrupt_guard(self, tx_index: int) -> bool:
        """Should this redo attempt fail on a corrupted constraint guard?"""
        cfg = self.plan.config
        if (
            cfg.corrupt_guard_rate <= 0
            or self._guard_rng.random() >= cfg.corrupt_guard_rate
        ):
            return False
        self.plan.count("corrupted_guards")
        return True


class SchedulerFaultInjector:
    """Forced validation failures in Block-STM, capped per transaction."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._rng = plan.stream("scheduler")
        self._forced: dict[int, int] = {}

    def force_abort(self, tx_index: int, incarnation: int) -> bool:
        """Should this (tx, incarnation) validation be forced to fail?

        Capped at ``forced_abort_cap`` per transaction so injection alone
        always terminates; sustained storms are the recovery policy's
        problem (abort-storm detection), not the injector's.
        """
        cfg = self.plan.config
        if cfg.forced_abort_rate <= 0:
            return False
        if self._forced.get(tx_index, 0) >= cfg.forced_abort_cap:
            return False
        if self._rng.random() >= cfg.forced_abort_rate:
            return False
        self._forced[tx_index] = self._forced.get(tx_index, 0) + 1
        self.plan.count("forced_aborts")
        return True
