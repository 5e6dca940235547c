"""repro.check — the differential correctness harness.

The repo-wide invariant (Theorem 1: every executor is equivalent to
serial block-order execution) gets an automated hunter:

- :mod:`repro.check.fuzzer` — seeded adversarial block generation over
  the contract workloads plus nonce/balance/gas edge cases;
- :mod:`repro.check.certify` — the serializability certifier comparing
  every executor (and the scheduled-validator path) against serial on
  write sets, receipts, gas, logs and state roots;
- :mod:`repro.check.shrink` — ddmin minimization of failing blocks;
- :mod:`repro.check.replay` — the SSA/redo slice-equivalence oracle
  cross-checking every successful redo against re-execution;
- :mod:`repro.check.mutations` — fault injection proving the harness
  catches the bug class it exists for;
- :mod:`repro.check.chaos` — the certifier under systematic fault
  injection (:mod:`repro.resilience`): every executor must survive every
  chaos scenario and still match serial state, receipts and gas;
- :mod:`repro.check.sweep` — the sweep engine the crash, reorg and
  failover sweeps share: the executor × site loop, the report base, the
  pre-/post-block commit boundary and the crash-at-a-site step;
- :mod:`repro.check.crashfuzz` — the crash fuzzer: process death at
  every site of the durable commit path (:mod:`repro.durability`) must
  recover to exactly the pre- or post-block state, and reorg rollbacks
  must reproduce the serial reference;
- :mod:`repro.check.failover` — the failover sweep: the primary of a
  replicated cluster (:mod:`repro.replication`) dies at every commit
  crash site and the promoted replica must hold exactly the sealed
  blocks (RPO = 0) behind a fencing epoch, plus the targeted cluster
  hazards of the chaos catalogue;
- :mod:`repro.check.ingress` — the overload scenarios: a seeded client
  fleet against the JSON-RPC facade (:mod:`repro.rpc`), certifying
  conservation, typed shedding and serial equivalence under traffic
  spikes, slow consumers, malformed storms and nonce-gap floods.

CLI entry points (:mod:`repro.cli.certify`): ``repro fuzz``, ``repro
certify``, ``repro chaos``, ``repro crashfuzz`` and ``repro replicate``.
"""

from .certify import (
    CertificationReport,
    Divergence,
    block_to_json,
    certify_block,
)
from .chaos import ChaosBlockReport, run_chaos_block
from .crashfuzz import (
    CrashSweepReport,
    PipelinedCrashSweepReport,
    ReorgRoundTripReport,
    crash_sweep_block,
    pipelined_crash_sweep_block,
    reorg_roundtrip_block,
)
from .failover import FailoverSweepReport, failover_sweep
from .fuzzer import BlockFuzzer, FuzzConfig
from .ingress import (
    ingress_config_for,
    ingress_seed,
    run_ingress_scenario,
)
from .mutations import (
    MUTATIONS,
    SelfTestReport,
    inject_conflict_bug,
    mutation_self_test,
)
from .replay import RedoReplayChecker, ReplayDivergence
from .shrink import ShrinkResult, shrink_block
from .sweep import SweepReport

__all__ = [
    "BlockFuzzer",
    "CertificationReport",
    "ChaosBlockReport",
    "CrashSweepReport",
    "PipelinedCrashSweepReport",
    "ReorgRoundTripReport",
    "crash_sweep_block",
    "ingress_config_for",
    "ingress_seed",
    "run_ingress_scenario",
    "reorg_roundtrip_block",
    "Divergence",
    "FailoverSweepReport",
    "failover_sweep",
    "FuzzConfig",
    "MUTATIONS",
    "RedoReplayChecker",
    "ReplayDivergence",
    "SelfTestReport",
    "ShrinkResult",
    "SweepReport",
    "block_to_json",
    "certify_block",
    "inject_conflict_bug",
    "mutation_self_test",
    "pipelined_crash_sweep_block",
    "run_chaos_block",
    "shrink_block",
]
