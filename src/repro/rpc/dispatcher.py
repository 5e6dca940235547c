"""A transport-agnostic JSON-RPC 2.0 dispatcher over the ingress facade.

One method table, two entry points: :meth:`RpcDispatcher.dispatch` takes a
decoded request object (what the simulated transport feeds it), and
:meth:`RpcDispatcher.handle` takes raw text (what the HTTP transport
reads off a socket) and owns parse errors.  Error mapping follows the
JSON-RPC 2.0 spec:

* ``-32700`` parse error, ``-32600`` invalid request, ``-32601`` method
  not found, ``-32602`` invalid params;
* ``-32000`` for every :class:`~repro.errors.AdmissionError` — the
  ``data`` object carries the rejection's machine-readable ``code`` as
  ``reason``, its ``retryable`` flag, and ``retry_after_us`` when the
  rejecting layer suggested a pacing delay.  Clients key their backoff off
  that data, never off the human-readable message;
* ``-32000`` with no ``data`` for a block that fails service validation.
"""

from __future__ import annotations

import json

from ..errors import AdmissionError, BlockValidationError

PARSE_ERROR = -32700
INVALID_REQUEST = -32600
METHOD_NOT_FOUND = -32601
INVALID_PARAMS = -32602
APP_ERROR = -32000

METHODS = ("send_transaction", "get_balance", "get_receipt", "get_block", "health")


def _error(request_id, code: int, message: str, data=None) -> dict:
    error = {"code": code, "message": message}
    if data is not None:
        error["data"] = data
    return {"jsonrpc": "2.0", "id": request_id, "error": error}


def _result(request_id, result) -> dict:
    return {"jsonrpc": "2.0", "id": request_id, "result": result}


class RpcDispatcher:
    """Route JSON-RPC requests into an :class:`RpcFacade`."""

    def __init__(self, facade, metrics=None) -> None:
        self.facade = facade
        self.metrics = metrics

    def _count(self, name: str, **labels) -> None:
        if self.metrics is not None:
            self.metrics.counter(name, **labels).inc()

    def dispatch(self, request, now_us: float = 0.0) -> dict:
        """Serve one decoded request object; always returns a response."""
        if not isinstance(request, dict) or "method" not in request:
            self._count("rpc_requests_total", method="invalid")
            return _error(None, INVALID_REQUEST, "not a JSON-RPC request")
        request_id = request.get("id")
        method = request["method"]
        params = request.get("params", {})
        if not isinstance(method, str) or method not in METHODS:
            self._count("rpc_requests_total", method="unknown")
            return _error(
                request_id, METHOD_NOT_FOUND, f"unknown method {method!r}"
            )
        self._count("rpc_requests_total", method=method)
        facade = self.facade
        try:
            if method == "send_transaction":
                result = facade.send_transaction(params, now_us)
            elif method == "get_balance":
                result = facade.get_balance(params)
            elif method == "get_receipt":
                result = facade.get_receipt(params)
            elif method == "get_block":
                result = facade.get_block(params)
            else:
                result = facade.health()
        except AdmissionError as exc:
            data = {"reason": exc.code, "retryable": exc.retryable}
            if exc.retry_after_us is not None:
                data["retry_after_us"] = exc.retry_after_us
            self._count("rpc_errors_total", reason=exc.code)
            return _error(request_id, APP_ERROR, str(exc), data)
        except BlockValidationError as exc:
            self._count("rpc_errors_total", reason="block-validation")
            return _error(request_id, APP_ERROR, str(exc))
        except (KeyError, ValueError, TypeError) as exc:
            self._count("rpc_errors_total", reason="invalid-params")
            return _error(request_id, INVALID_PARAMS, f"invalid params: {exc}")
        return _result(request_id, result)

    def handle(self, raw: str, now_us: float = 0.0) -> str:
        """Serve one raw JSON text request (the HTTP transport's path)."""
        try:
            request = json.loads(raw)
        except (json.JSONDecodeError, UnicodeDecodeError):
            self._count("rpc_requests_total", method="parse-error")
            return json.dumps(
                _error(None, PARSE_ERROR, "parse error"), sort_keys=True
            )
        return json.dumps(self.dispatch(request, now_us), sort_keys=True)
