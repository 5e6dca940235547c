"""End-to-end replication: clusters, failover sweeps, chaos scenarios.

The tentpole invariants of ISSUE 10 exercised through the real stack:

- a replicated cluster keeps every replica byte-for-byte in sync with
  the primary's journal and state;
- the failover sweep (primary crashed at every commit crash site) ends
  in a verified promotion with RPO=0 and provable stale-epoch fencing;
- the four ``kind="replication"`` chaos scenarios dispatch through
  ``run_chaos_block`` and certify clean.
"""

from __future__ import annotations

import pytest

from repro.check import run_chaos_block
from repro.check.failover import failover_sweep
from repro.check.fuzzer import BlockFuzzer, FuzzConfig
from repro.obs import MetricsRegistry
from repro.replication import ClusterConfig, ReplicatedChainService
from repro.resilience import SCENARIOS
from repro.workloads import ChainView


@pytest.fixture(scope="module")
def fuzzer():
    return BlockFuzzer(FuzzConfig(txs_per_block=6, accounts=32, tokens=2, amm_pairs=1))


def _blocks(fuzzer, count, seed=0):
    from dataclasses import replace

    base = fuzzer.chain.env.number
    out = []
    for i in range(count):
        generated = fuzzer.block(seed + i)
        out.append(
            type(generated)(
                number=base + i,
                txs=[replace(tx) for tx in generated.txs],
                env=replace(fuzzer.chain.env, number=base + i),
            )
        )
    return out


def _hashes(block):
    import hashlib

    return [
        hashlib.blake2b(f"{block.number}:{i}".encode(), digest_size=32).digest()
        for i in range(len(block.txs))
    ]


class TestClusterStreaming:
    def test_replicas_track_the_primary_exactly(self, fuzzer):
        metrics = MetricsRegistry()
        cluster = ReplicatedChainService(
            ChainView(fuzzer.chain.fresh_world(), fuzzer.chain.env),
            "parallelevm",
            ClusterConfig(replicas=2, threads=4),
            metrics=metrics,
        )
        for block in _blocks(fuzzer, 3):
            cluster.ingest_block(block, tx_hashes=_hashes(block))
        tip_fp = cluster.service.world.fingerprint()
        for replica in cluster.replicas:
            assert replica.state == "streaming"
            assert replica.world.fingerprint() == tip_fp
            assert (
                metrics.value(
                    "replication_last_sealed_block", replica=replica.name
                )
                == cluster.service.height - 1
            )
        tip = cluster.service.height - 1
        assert all(r.lag_blocks(tip) == 0 for r in cluster.replicas)
        assert not cluster.laggards()

    def test_checkpoint_shipping_prunes_replica_journals(self, fuzzer):
        cluster = ReplicatedChainService(
            ChainView(fuzzer.chain.fresh_world(), fuzzer.chain.env),
            "serial",
            ClusterConfig(replicas=1, threads=1, checkpoint_interval=2),
        )
        blocks = _blocks(fuzzer, 4)
        for block in blocks:
            cluster.ingest_block(block, tx_hashes=_hashes(block))
        replica = cluster.replicas[0]
        assert replica.world.fingerprint() == cluster.service.world.fingerprint()
        # The checkpoint pruned the replica's own journal; its snapshot
        # advanced past genesis.
        assert replica.snapshot_block > fuzzer.chain.env.number - 1
        # The append-only feed keeps everything; the pruned replica
        # journal holds only the post-checkpoint suffix.
        assert replica.medium.journal_size() < len(cluster.feed)


class TestFailoverSweep:
    def test_two_executor_sweep_is_lossless_everywhere(self, fuzzer):
        report = failover_sweep(
            txs_per_block=5,
            threads=4,
            executors=("serial", "parallelevm"),
        )
        assert report.ok, report.describe()
        assert report.crashes_injected == len(report.sites) * 2
        assert report.failovers == report.crashes_injected
        assert report.stale_frames_rejected > 0
        # Detection (the heartbeat timeout) dominates; the bound is tight.
        assert report.min_failover_us >= 150_000.0
        assert report.max_failover_us < 300_000.0
        assert report.certification.ok

    def test_primary_crash_scenario_via_chaos_dispatch(self, fuzzer):
        block = fuzzer.block(0)
        report = run_chaos_block(
            fuzzer.chain, block, SCENARIOS["primary-crash"], seed=0, threads=4
        )
        assert report.ok, report.describe()
        assert report.counters["failovers"] > 0
        assert report.counters["stale_frames_rejected"] > 0
        assert set(report.counters) == {
            "crash_sites", "failovers", "stale_frames_rejected",
            "requeued_blocks", "max_failover_us",
        }
        assert report.faults_injected == report.counters["failovers"]
        assert all(type(v) is float for v in report.counters.values())


class TestReplicationChaosScenarios:
    @pytest.mark.parametrize(
        "name", ["laggy-replica", "corrupt-feed", "divergent-replica"]
    )
    def test_scenario_certifies_clean(self, fuzzer, name):
        metrics = MetricsRegistry()
        block = fuzzer.block(0)
        report = run_chaos_block(
            fuzzer.chain, block, SCENARIOS[name], seed=0, threads=4,
            metrics=metrics,
        )
        assert report.ok, report.describe()
        assert report.scenario == name
        assert metrics.value("chaos_blocks_total", scenario=name) == 1.0

    def test_divergence_evidence_is_kept(self, fuzzer):
        report = run_chaos_block(
            fuzzer.chain, fuzzer.block(0), SCENARIOS["divergent-replica"],
            seed=2, threads=4,
        )
        assert report.ok
        assert report.counters["divergences_caught"] == 1.0
