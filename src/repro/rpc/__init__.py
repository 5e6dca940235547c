"""The served half of the chain service: JSON-RPC over `ChainService`.

Layers, outermost first: a transport (:class:`SimTransport` for
deterministic in-process runs, :func:`serve_http` for real demos), the
JSON-RPC 2.0 dispatcher, and the :class:`RpcFacade` owning admission
(:mod:`repro.mempool`), block production and the overload ladder
(backpressure, deadline shedding, read circuit breaker).
:class:`ServingSession` assembles that stack once and owns the one
simulated event loop; ``run_ingress`` drives it with a seeded open-loop
client fleet and certifies conservation plus serial equivalence — the
chaos catalogue's ingress scenarios are thin configs over it.
"""

from .dispatcher import RpcDispatcher
from .facade import ProducedBlock, RpcConfig, RpcFacade, ingress_backoff_policy
from .ingress import IngressConfig, IngressReport, run_ingress
from .session import ServingSession
from .transport import SimTransport, http_request, serve_http

__all__ = [
    "IngressConfig",
    "IngressReport",
    "ProducedBlock",
    "RpcConfig",
    "RpcDispatcher",
    "RpcFacade",
    "ServingSession",
    "SimTransport",
    "http_request",
    "ingress_backoff_policy",
    "run_ingress",
    "serve_http",
]
