"""The serving stack end to end: overload scenarios, conservation,
determinism, and external block validation (ISSUE 8).

The four catalogue ingress scenarios run here exactly as ``repro chaos``
runs them; each must complete with graceful shedding — no admitted
transaction lost or double-committed, every shed and rejection typed, the
committed state serial-equivalent — while its intended overload mechanism
demonstrably fires.
"""

from __future__ import annotations

import pytest

from repro.check import ingress_config_for, run_chaos_block, run_ingress_scenario
from repro.concurrency.registry import make_executor
from repro.errors import DuplicateTransaction, NonMonotonicBlock
from repro.evm.message import Transaction
from repro.mempool import MempoolConfig
from repro.resilience import SCENARIOS
from repro.rpc import IngressConfig, run_ingress
from repro.service import ChainService
from repro.workloads import Block, ChainSpec, build_chain


def small_config(**overrides) -> IngressConfig:
    base = dict(
        blocks=10, txs_per_block=10, accounts=96, clients=5, threads=4,
        seed=3, window_blocks=4,
    )
    base.update(overrides)
    return IngressConfig(**base)


class TestIngressHarness:
    def test_sustainable_load_certifies(self):
        report = run_ingress(small_config())
        assert report.ok, report.divergences
        assert report.blocks_committed > 0
        assert report.committed > 0
        assert report.admitted == report.committed + report.pending
        # Metrics reconcile with the report's own accounting.
        assert report.counters["rpc_admitted_total"] == report.admitted
        assert report.counters["rpc_txs_committed_total"] == report.committed

    def test_same_seed_is_byte_identical(self, tmp_path):
        paths = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
        reports = [
            run_ingress(small_config(), out=str(path)) for path in paths
        ]
        blobs = [path.read_bytes() for path in paths]
        assert blobs[0] and blobs[0] == blobs[1]
        assert reports[0].as_dict() == reports[1].as_dict()

    def test_different_seed_changes_the_traffic(self, tmp_path):
        a = run_ingress(small_config(seed=3))
        b = run_ingress(small_config(seed=4))
        assert a.requests != b.requests


    @pytest.mark.parametrize("name", ["bogus", "traffic-spike"])
    def test_a_non_fault_scenario_is_a_typed_config_error(self, name):
        # The config's ``scenario`` names a *fault* scenario to inject on
        # the execution path; anything else must fail before any block runs.
        with pytest.raises(ValueError, match="storage-spike"):
            run_ingress(small_config(scenario=name))


class TestOverloadScenarios:
    def run(self, name: str):
        report = run_chaos_block(
            None, None, SCENARIOS[name], seed=1, threads=4
        )
        assert report.ok, report.describe()
        return report

    def test_catalogue_config_runs_the_requested_executor(self):
        scenario = SCENARIOS["traffic-spike"]
        assert ingress_config_for(scenario, 1).executor == "parallelevm"
        config = ingress_config_for(scenario, 1, blocks=4, executor="occ")
        report = run_ingress(config)
        assert report.ok, report.divergences
        assert report.executor == "occ"

    def test_traffic_spike_sheds_gracefully(self):
        report = self.run("traffic-spike")
        assert report.counters["backpressure"] > 0
        assert report.counters["retries"] > 0
        assert report.counters["admitted"] > 0
        assert report.faults_injected > 0

    def test_slow_consumer_opens_the_circuit(self):
        report = self.run("slow-consumer")
        assert report.counters["circuit_opened"] >= 1
        assert report.counters["reads_shed"] > 0
        assert report.counters["shed"] > 0  # TTL shedding bounded the queue

    def test_malformed_storm_bounces_with_typed_reasons(self):
        report = run_ingress_scenario(SCENARIOS["malformed-storm"], seed=1, threads=4)
        assert report.ok, report.describe()
        assert report.counters["rejected"] > 0
        assert report.counters["admitted"] > 0  # the well-formed half flows

    def test_nonce_gap_flood_is_contained(self):
        scenario = SCENARIOS["nonce-gap-flood"]
        report = run_ingress_scenario(scenario, seed=1, threads=4)
        assert report.ok, report.describe()
        assert report.counters["rejected"] > 0
        assert report.counters["pending"] <= MempoolConfig().capacity


class TestExternalBlockValidation:
    def service(self):
        chain = build_chain(ChainSpec(accounts=12, tokens=1, amm_pairs=0, seed=2))
        executor = make_executor("serial", 1)
        return chain, ChainService(None, executor, chain=chain)

    def transfer(self, chain, sender_index=0, nonce=0, value=500):
        return Transaction(
            sender=chain.accounts[sender_index],
            to=chain.accounts[-1],
            value=value,
            data=b"",
            gas_limit=21_000,
            gas_price=3,
            nonce=nonce,
        )

    def test_non_monotonic_number_is_rejected(self):
        chain, service = self.service()
        block = Block(
            number=service.height + 1, txs=[self.transfer(chain)], env=chain.env
        )
        with pytest.raises(NonMonotonicBlock):
            service.ingest_block(block)
        assert service.blocks_committed == 0

    def test_duplicate_hash_within_a_block_is_rejected(self):
        chain, service = self.service()
        tx = self.transfer(chain)
        block = Block(number=service.height, txs=[tx, tx], env=chain.env)
        with pytest.raises(DuplicateTransaction):
            service.ingest_block(block)
        assert service.blocks_committed == 0

    def test_replayed_hash_across_recent_blocks_is_rejected(self):
        chain, service = self.service()
        first = Block(
            number=service.height, txs=[self.transfer(chain)], env=chain.env
        )
        service.ingest_block(first)
        replay = Block(
            number=service.height, txs=[self.transfer(chain)], env=chain.env
        )
        with pytest.raises(DuplicateTransaction):
            service.ingest_block(replay)
        # A different transaction at the next height is accepted.
        follow = Block(
            number=service.height,
            txs=[self.transfer(chain, nonce=1)],
            env=chain.env,
        )
        outcome = service.ingest_block(follow)
        assert outcome.tx_count == 1
        assert service.blocks_committed == 2
