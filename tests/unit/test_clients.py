"""The seeded open-loop client fleet."""

from __future__ import annotations

from repro.rpc import ingress_backoff_policy
from repro.workloads.clients import ClientSpec, OpenLoopClient, build_fleet


def fleet(spec: ClientSpec, accounts: int = 12):
    universe = [bytes([i + 1]) * 20 for i in range(accounts)]
    return build_fleet(spec, universe, ingress_backoff_policy())


class TestDeterminism:
    def test_same_seed_same_schedule_and_requests(self):
        spec = ClientSpec(clients=3, seed=42, malformed_share=0.2, nonce_gap_share=0.1)
        a, b = fleet(spec), fleet(spec)
        for left, right in zip(a, b):
            now = 0.0
            for _ in range(20):
                nxt = left.next_arrival(now)
                assert nxt == right.next_arrival(now)
                assert left.make_request(nxt) == right.make_request(nxt)
                now = nxt

    def test_different_clients_draw_independent_streams(self):
        spec = ClientSpec(clients=2, seed=42)
        a, b = fleet(spec)
        assert a.next_arrival(0.0) != b.next_arrival(0.0)


class TestShape:
    def test_spike_window_boosts_the_rate(self):
        spec = ClientSpec(
            clients=1, base_rate_tps=100.0, spike_multiplier=4.0,
            spike_from_us=1_000_000.0, spike_until_us=2_000_000.0,
        )
        client = fleet(spec)[0]
        assert client._rate_tps(500_000.0) == 100.0
        assert client._rate_tps(1_500_000.0) == 400.0
        assert client._rate_tps(2_500_000.0) == 100.0

    def test_malformed_wires_do_not_burn_nonces(self):
        spec = ClientSpec(clients=1, seed=7, malformed_share=1.0, read_share=0.0)
        client = fleet(spec)[0]
        for _ in range(10):
            client.make_request(0.0)
        assert client.nonce == 0

    def test_senders_are_disjoint_from_recipients(self):
        spec = ClientSpec(clients=3)
        clients = fleet(spec, accounts=12)
        senders = {c.account for c in clients}
        for client in clients:
            assert senders.isdisjoint(client.recipients)


class TestRetry:
    def test_budget_and_jittered_backoff(self, monkeypatch):
        monkeypatch.setattr(ClientSpec, "max_retries", 2)
        spec = ClientSpec(clients=1)
        client = fleet(spec)[0]
        policy = client.policy
        delay = client.retry_delay_us(0, 0.0)
        assert delay is not None
        # Jitter stays within ±10% of the policy schedule.
        assert 0.9 * policy.backoff_us(0) <= delay <= 1.1 * policy.backoff_us(0)
        # The server's retry-after dominates when it is larger.
        big = client.retry_delay_us(1, 10_000_000.0)
        assert big >= 0.9 * 10_000_000.0
        assert client.retry_delay_us(2, 0.0) is None
        assert client.gave_up == 1
        assert client.retries == 2
