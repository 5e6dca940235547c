"""Transaction admission: wire validation and the bounded fee-priority pool.

The front half of the serving stack (`repro.rpc` is the protocol half).
Stateless structural checks live in :mod:`repro.mempool.admission`; the
stateful pool — nonce discipline, balance cover, replacement-by-fee,
quotas, watermarks and deadline shedding — in :mod:`repro.mempool.pool`.
Every rejection is an :class:`~repro.errors.AdmissionError` with a ``code``.
"""

from .admission import (
    decode_wire_transaction,
    pseudo_signature,
    transaction_hash,
    wire_transaction,
)
from .pool import Mempool, MempoolConfig, PoolEntry

__all__ = [
    "Mempool",
    "MempoolConfig",
    "PoolEntry",
    "decode_wire_transaction",
    "pseudo_signature",
    "transaction_hash",
    "wire_transaction",
]
