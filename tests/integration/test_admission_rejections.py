"""Every admission rejection, pinned end to end through the JSON-RPC stack.

Each case drives one rejection code through ``SimTransport`` →
``RpcDispatcher`` → ``RpcFacade`` → ``Mempool`` / ``decode_wire_transaction``
and records what a client and an operator see: the whole JSON-RPC response
(``code``, ``message``, ``data`` with ``reason`` / ``retryable`` /
``retry_after_us``), every counter the request moved (``rpc_rejected_total``,
``rpc_backpressure_total``, ``mempool_rejected_total``,
``lifecycle_rejected_total`` with their labels) and the lifecycle tracker's
rejection count.  The literals were recorded before the admission error
classes were folded into one, so a changed message, a lost label or a
miscounted rejection fails here.

To re-record after an *intended* change, run ``PYTHONPATH=src python -m
tests.integration.test_admission_rejections`` and paste the printed dict.
"""

from __future__ import annotations

import functools

import pytest

from repro.concurrency.registry import make_executor
from repro.evm.message import Transaction
from repro.mempool import Mempool, MempoolConfig, wire_transaction
from repro.obs import MetricsRegistry
from repro.obs.lifecycle import LifecycleTracker
from repro.rpc import RpcConfig, RpcDispatcher, RpcFacade, SimTransport
from repro.service import ChainService
from repro.state.keys import nonce_key
from repro.workloads import ChainSpec, build_chain


class Stack:
    """A fresh serving stack with metrics and a lifecycle tracker attached."""

    def __init__(self, **mempool_config) -> None:
        self.chain = build_chain(
            ChainSpec(accounts=12, tokens=1, amm_pairs=0, seed=5)
        )
        service = ChainService(None, make_executor("serial", 1), chain=self.chain)
        self.metrics = MetricsRegistry()
        self.tracker = LifecycleTracker(metrics=self.metrics)
        mempool = Mempool(
            MempoolConfig(**mempool_config), self.chain.world, metrics=self.metrics
        )
        self.facade = RpcFacade(
            service,
            mempool,
            RpcConfig(block_txs=4),
            metrics=self.metrics,
            lifecycle=self.tracker,
        )
        self.transport = SimTransport(
            RpcDispatcher(self.facade, metrics=self.metrics)
        )

    def wire(self, sender=0, nonce=0, gas_price=10, value=1_000) -> dict:
        return wire_transaction(
            Transaction(
                sender=self.chain.accounts[sender],
                to=self.chain.accounts[-1],
                value=value,
                data=b"",
                gas_limit=21_000,
                gas_price=gas_price,
                nonce=nonce,
            )
        )

    def send(self, wire: dict, now_us: float = 0.0) -> dict:
        return self.request("send_transaction", wire, now_us)

    def request(self, method: str, params, now_us: float = 0.0) -> dict:
        payload = {"jsonrpc": "2.0", "id": 7, "method": method, "params": params}
        return self.transport.request(payload, now_us)

    def admit(self, wire: dict, now_us: float = 0.0) -> None:
        assert "result" in self.send(wire, now_us)

    def observe(self, method: str, params, now_us: float = 0.0) -> dict:
        """The response to one request plus every counter it moved."""
        self.metrics.window_snapshot()
        rejected = self.tracker.rejected
        response = self.request(method, params, now_us)
        counters = {
            series: value
            for series, value in self.metrics.window_snapshot().items()
            if value
        }
        assert response["jsonrpc"] == "2.0" and response["id"] == 7
        error = response["error"]
        assert error["code"] == -32000  # the application-error code
        return {
            "message": error["message"],
            "data": error["data"],
            "counters": counters,
            "lifecycle_rejected": self.tracker.rejected - rejected,
        }


def _pool_constants(**constants):
    """Run a case with ``MempoolConfig`` class constants patched."""

    def wrap(case):
        @functools.wraps(case)
        def patched():
            with pytest.MonkeyPatch.context() as mp:
                for name, value in constants.items():
                    mp.setattr(MempoolConfig, name, value)
                return case()

        return patched

    return wrap


def _malformed():
    stack = Stack()
    wire = stack.wire()
    del wire["sender"]
    return stack.observe("send_transaction", wire)


def _invalid_signature():
    stack = Stack()
    wire = stack.wire()
    wire["sig"] = "0x" + "ab" * 12
    return stack.observe("send_transaction", wire)


def _wrong_chain_id():
    stack = Stack()
    wire = stack.wire()
    wire["chain_id"] = 999
    return stack.observe("send_transaction", wire)


def _too_large():
    stack = Stack()
    wire = stack.wire()
    wire["data"] = "0x" + "ff" * 8192
    return stack.observe("send_transaction", wire)


def _intrinsic_gas():
    stack = Stack()
    wire = stack.wire()
    wire["gas_limit"] = 100
    return stack.observe("send_transaction", wire)


@_pool_constants(min_gas_price=5)
def _fee_too_low():
    stack = Stack()
    return stack.observe("send_transaction", stack.wire(gas_price=4))


def _replacement_underpriced():
    stack = Stack()
    stack.admit(stack.wire(sender=5, gas_price=100))
    return stack.observe("send_transaction", stack.wire(sender=5, gas_price=105))


def _nonce_too_low():
    stack = Stack()
    stack.chain.world.apply({nonce_key(stack.chain.accounts[3]): 5})
    return stack.observe("send_transaction", stack.wire(sender=3, nonce=4))


@_pool_constants(max_nonce_gap=2)
def _nonce_gap():
    stack = Stack()
    return stack.observe("send_transaction", stack.wire(sender=4, nonce=3))


def _insufficient_balance():
    stack = Stack()
    return stack.observe("send_transaction", stack.wire(value=10**30))


def _sender_quota():
    stack = Stack(per_sender_quota=2)
    stack.admit(stack.wire(sender=6, nonce=0))
    stack.admit(stack.wire(sender=6, nonce=1))
    return stack.observe("send_transaction", stack.wire(sender=6, nonce=2))


# A watermark above capacity keeps backpressure out of the way.
@_pool_constants(high_watermark=2.0)
def _mempool_full():
    stack = Stack(capacity=2)
    stack.admit(stack.wire(sender=0, gas_price=10))
    stack.admit(stack.wire(sender=2, gas_price=20))
    return stack.observe("send_transaction", stack.wire(sender=3, gas_price=10))


# capacity 8, high watermark 4: the fifth submission trips the signal.
@_pool_constants(high_watermark=0.5, low_watermark=0.25)
def _backpressure():
    stack = Stack(capacity=8)
    for sender in range(4):
        stack.admit(stack.wire(sender=sender))
    return stack.observe("send_transaction", stack.wire(sender=5), now_us=10.0)


@_pool_constants(high_watermark=0.5, low_watermark=0.25)
def _backpressure_sustained():
    stack = Stack(capacity=8)
    for sender in range(4):
        stack.admit(stack.wire(sender=sender))
    stack.send(stack.wire(sender=5))
    stack.facade._pressure_streak = 2
    return stack.observe("send_transaction", stack.wire(sender=6), now_us=20.0)


def _circuit_open():
    stack = Stack()
    stack.facade._account_lag(50_000.0, 200_000.0)
    stack.facade._account_lag(100_000.0, 200_000.0)
    address = "0x" + stack.chain.accounts[0].hex()
    return stack.observe("get_balance", {"address": address}, now_us=100_000.0)


CASES = {
    "malformed": _malformed,
    "invalid-signature": _invalid_signature,
    "wrong-chain-id": _wrong_chain_id,
    "too-large": _too_large,
    "intrinsic-gas": _intrinsic_gas,
    "fee-too-low": _fee_too_low,
    "replacement-underpriced": _replacement_underpriced,
    "nonce-too-low": _nonce_too_low,
    "nonce-gap": _nonce_gap,
    "insufficient-balance": _insufficient_balance,
    "sender-quota": _sender_quota,
    "mempool-full": _mempool_full,
    "backpressure": _backpressure,
    "backpressure-sustained": _backpressure_sustained,
    "circuit-open": _circuit_open,
}

RECORDED_AT_PARENT = {
    'backpressure': {
        'message': 'mempool depth 4 over the high watermark 4; retry after 5000 us',
        'data': {'reason': 'backpressure', 'retry_after_us': 5000.0, 'retryable': True},
        'counters': {
            'lifecycle_incidents_total{kind=backpressure}': 1,
            'lifecycle_rejected_total{reason=backpressure}': 1,
            'rpc_backpressure_total': 1,
            'rpc_errors_total{reason=backpressure}': 1,
            'rpc_requests_total{method=send_transaction}': 1,
        },
        'lifecycle_rejected': 1,
    },
    'backpressure-sustained': {
        'message': 'mempool depth 4 over the high watermark 4; retry after 20000 us',
        'data': {'reason': 'backpressure', 'retry_after_us': 20000.0, 'retryable': True},
        'counters': {
            'lifecycle_rejected_total{reason=backpressure}': 1,
            'rpc_backpressure_total': 1,
            'rpc_errors_total{reason=backpressure}': 1,
            'rpc_requests_total{method=send_transaction}': 1,
        },
        'lifecycle_rejected': 1,
    },
    'circuit-open': {
        'message': 'read circuit open: commit lag 300000 us over 200000 us',
        'data': {'reason': 'circuit-open', 'retry_after_us': 5000.0, 'retryable': True},
        'counters': {
            'rpc_errors_total{reason=circuit-open}': 1,
            'rpc_reads_shed_total': 1,
            'rpc_requests_total{method=get_balance}': 1,
        },
        'lifecycle_rejected': 0,
    },
    'fee-too-low': {
        'message': 'gas price 4 below floor 5',
        'data': {'reason': 'fee-too-low', 'retryable': True},
        'counters': {
            'lifecycle_rejected_total{reason=fee-too-low}': 1,
            'mempool_rejected_total{reason=fee-too-low}': 1,
            'rpc_errors_total{reason=fee-too-low}': 1,
            'rpc_rejected_total{reason=fee-too-low}': 1,
            'rpc_requests_total{method=send_transaction}': 1,
        },
        'lifecycle_rejected': 1,
    },
    'insufficient-balance': {
        'message': 'sender needs 1000000000000000000000000210000 wei to cover pooled txs but holds 1000000000000000000000',
        'data': {'reason': 'insufficient-balance', 'retryable': False},
        'counters': {
            'lifecycle_rejected_total{reason=insufficient-balance}': 1,
            'mempool_rejected_total{reason=insufficient-balance}': 1,
            'rpc_errors_total{reason=insufficient-balance}': 1,
            'rpc_rejected_total{reason=insufficient-balance}': 1,
            'rpc_requests_total{method=send_transaction}': 1,
        },
        'lifecycle_rejected': 1,
    },
    'intrinsic-gas': {
        'message': 'gas limit 100 below intrinsic gas 21000',
        'data': {'reason': 'intrinsic-gas', 'retryable': False},
        'counters': {
            'lifecycle_rejected_total{reason=intrinsic-gas}': 1,
            'rpc_errors_total{reason=intrinsic-gas}': 1,
            'rpc_rejected_total{reason=intrinsic-gas}': 1,
            'rpc_requests_total{method=send_transaction}': 1,
        },
        'lifecycle_rejected': 1,
    },
    'invalid-signature': {
        'message': 'signature is 12 bytes, expected 65',
        'data': {'reason': 'invalid-signature', 'retryable': False},
        'counters': {
            'lifecycle_rejected_total{reason=invalid-signature}': 1,
            'rpc_errors_total{reason=invalid-signature}': 1,
            'rpc_rejected_total{reason=invalid-signature}': 1,
            'rpc_requests_total{method=send_transaction}': 1,
        },
        'lifecycle_rejected': 1,
    },
    'malformed': {
        'message': "missing field 'sender'",
        'data': {'reason': 'malformed', 'retryable': False},
        'counters': {
            'lifecycle_rejected_total{reason=malformed}': 1,
            'rpc_errors_total{reason=malformed}': 1,
            'rpc_rejected_total{reason=malformed}': 1,
            'rpc_requests_total{method=send_transaction}': 1,
        },
        'lifecycle_rejected': 1,
    },
    'mempool-full': {
        'message': 'mempool is at capacity (2 txs)',
        'data': {'reason': 'mempool-full', 'retryable': True},
        'counters': {
            'lifecycle_rejected_total{reason=mempool-full}': 1,
            'mempool_rejected_total{reason=mempool-full}': 1,
            'rpc_errors_total{reason=mempool-full}': 1,
            'rpc_rejected_total{reason=mempool-full}': 1,
            'rpc_requests_total{method=send_transaction}': 1,
        },
        'lifecycle_rejected': 1,
    },
    'nonce-gap': {
        'message': 'nonce 3 leaves a gap past 0 wider than the 2 allowed',
        'data': {'reason': 'nonce-gap', 'retryable': True},
        'counters': {
            'lifecycle_rejected_total{reason=nonce-gap}': 1,
            'mempool_rejected_total{reason=nonce-gap}': 1,
            'rpc_errors_total{reason=nonce-gap}': 1,
            'rpc_rejected_total{reason=nonce-gap}': 1,
            'rpc_requests_total{method=send_transaction}': 1,
        },
        'lifecycle_rejected': 1,
    },
    'nonce-too-low': {
        'message': 'nonce 4 below account nonce 5',
        'data': {'reason': 'nonce-too-low', 'retryable': False},
        'counters': {
            'lifecycle_rejected_total{reason=nonce-too-low}': 1,
            'mempool_rejected_total{reason=nonce-too-low}': 1,
            'rpc_errors_total{reason=nonce-too-low}': 1,
            'rpc_rejected_total{reason=nonce-too-low}': 1,
            'rpc_requests_total{method=send_transaction}': 1,
        },
        'lifecycle_rejected': 1,
    },
    'replacement-underpriced': {
        'message': 'replacement gas price 105 below required 110',
        'data': {'reason': 'replacement-underpriced', 'retryable': True},
        'counters': {
            'lifecycle_rejected_total{reason=replacement-underpriced}': 1,
            'mempool_rejected_total{reason=replacement-underpriced}': 1,
            'rpc_errors_total{reason=replacement-underpriced}': 1,
            'rpc_rejected_total{reason=replacement-underpriced}': 1,
            'rpc_requests_total{method=send_transaction}': 1,
        },
        'lifecycle_rejected': 1,
    },
    'sender-quota': {
        'message': 'sender has 2 pooled txs; quota 2',
        'data': {'reason': 'sender-quota', 'retryable': True},
        'counters': {
            'lifecycle_rejected_total{reason=sender-quota}': 1,
            'mempool_rejected_total{reason=sender-quota}': 1,
            'rpc_errors_total{reason=sender-quota}': 1,
            'rpc_rejected_total{reason=sender-quota}': 1,
            'rpc_requests_total{method=send_transaction}': 1,
        },
        'lifecycle_rejected': 1,
    },
    'too-large': {
        'message': 'transaction is 8372 bytes; cap is 4096',
        'data': {'reason': 'too-large', 'retryable': False},
        'counters': {
            'lifecycle_rejected_total{reason=too-large}': 1,
            'rpc_errors_total{reason=too-large}': 1,
            'rpc_rejected_total{reason=too-large}': 1,
            'rpc_requests_total{method=send_transaction}': 1,
        },
        'lifecycle_rejected': 1,
    },
    'wrong-chain-id': {
        'message': 'chain id 999 != expected 1',
        'data': {'reason': 'wrong-chain-id', 'retryable': False},
        'counters': {
            'lifecycle_rejected_total{reason=wrong-chain-id}': 1,
            'rpc_errors_total{reason=wrong-chain-id}': 1,
            'rpc_rejected_total{reason=wrong-chain-id}': 1,
            'rpc_requests_total{method=send_transaction}': 1,
        },
        'lifecycle_rejected': 1,
    },
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_rejection_matches_the_parents(case):
    assert CASES[case]() == RECORDED_AT_PARENT[case]


if __name__ == "__main__":
    print("RECORDED_AT_PARENT = {")
    for case, observe in sorted(CASES.items()):
        seen = observe()
        print(f"    {case!r}: {{")
        print(f"        'message': {seen['message']!r},")
        print(f"        'data': {seen['data']!r},")
        print("        'counters': {")
        for series, value in seen["counters"].items():
            print(f"            {series!r}: {value!r},")
        print("        },")
        print(f"        'lifecycle_rejected': {seen['lifecycle_rejected']!r},")
        print("    },")
    print("}")
