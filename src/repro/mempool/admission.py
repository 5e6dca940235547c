"""Stateless admission: wire format, structural validation, tx hashing.

The JSON-RPC facade receives transactions as plain dicts ("wire
transactions").  This module is the first gate: purely structural checks
that need no state access — field presence and types, hex decoding, size
cap, chain id, signature *shape* (65 bytes, r/s in range, sane recovery
id; actual key recovery is out of scope, consistent with
:class:`~repro.evm.message.Transaction` carrying an explicit sender), and
the intrinsic-gas floor.  Everything stateful (nonces, balances, fees,
quotas) lives in :mod:`repro.mempool.pool`.

Every rejection is an :class:`~repro.errors.AdmissionError` with its
``code``; nothing here raises bare ``ValueError`` at a client.
"""

from __future__ import annotations

from .. import rlp
from ..crypto import keccak256
from ..errors import AdmissionError
from ..evm.gas import intrinsic_gas
from ..evm.message import Transaction

#: Hard cap on any single numeric field (word-sized, like the EVM).
_MAX_UINT256 = 2**256 - 1

#: secp256k1 group order; r and s must be in [1, N).
_SECP256K1_N = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141

_REQUIRED_FIELDS = ("sender", "nonce", "gas_limit", "gas_price")


def transaction_hash(tx: Transaction) -> bytes:
    """The canonical hash of a transaction's signed payload.

    ``keccak256(rlp([sender, to, value, data, gas_limit, gas_price,
    nonce]))`` — everything the sender committed to.  ``tx_index`` is a
    block-position annotation and deliberately excluded, so the hash is
    stable from wire to pool to block.
    """
    return keccak256(
        rlp.encode(
            [
                tx.sender,
                tx.to if tx.to is not None else b"",
                rlp.uint_to_bytes(tx.value),
                tx.data,
                rlp.uint_to_bytes(tx.gas_limit),
                rlp.uint_to_bytes(tx.gas_price),
                rlp.uint_to_bytes(tx.nonce or 0),
            ]
        )
    )


def _hex_bytes(value, field: str) -> bytes:
    if not isinstance(value, str):
        raise AdmissionError(
            "malformed", f"field {field!r} must be a hex string"
        )
    text = value[2:] if value.startswith("0x") else value
    try:
        return bytes.fromhex(text)
    except ValueError:
        raise AdmissionError(
            "malformed", f"field {field!r} is not valid hex"
        ) from None


def _uint(value, field: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise AdmissionError(
            "malformed", f"field {field!r} must be an integer"
        )
    if value < 0:
        raise AdmissionError(
            "malformed", f"field {field!r} must be non-negative"
        )
    if value > _MAX_UINT256:
        raise AdmissionError("malformed", f"field {field!r} exceeds 2**256-1")
    return value


def _check_signature(sig: bytes) -> None:
    if len(sig) != 65:
        raise AdmissionError(
            "invalid-signature", f"signature is {len(sig)} bytes, expected 65"
        )
    r = int.from_bytes(sig[0:32], "big")
    s = int.from_bytes(sig[32:64], "big")
    v = sig[64]
    if not 0 < r < _SECP256K1_N:
        raise AdmissionError("invalid-signature", "signature r out of range")
    if not 0 < s < _SECP256K1_N:
        raise AdmissionError("invalid-signature", "signature s out of range")
    if v not in (0, 1, 27, 28):
        raise AdmissionError(
            "invalid-signature", f"signature recovery id {v} invalid"
        )


def wire_size(params: dict) -> int:
    """The billable size of a wire transaction: its encoded payload bytes."""
    data = params.get("data", "")
    data_len = (len(data) - 2 if data.startswith("0x") else len(data)) // 2 \
        if isinstance(data, str) else 0
    # Fixed envelope (sender, to, numeric fields, signature) plus calldata.
    return 180 + data_len


def decode_wire_transaction(
    params,
    *,
    chain_id: int = 1,
    max_tx_bytes: int = 4096,
    block_gas_limit: int = 30_000_000,
) -> Transaction:
    """Decode and structurally validate a wire transaction.

    Returns a fresh :class:`Transaction` or raises an
    :class:`~repro.errors.AdmissionError` naming exactly what was wrong —
    clients see the machine-readable ``code`` in the RPC error.
    """
    if not isinstance(params, dict):
        raise AdmissionError("malformed", "transaction must be an object")
    for field in _REQUIRED_FIELDS:
        if field not in params:
            raise AdmissionError("malformed", f"missing field {field!r}")

    size = wire_size(params)
    if size > max_tx_bytes:
        raise AdmissionError(
            "too-large", f"transaction is {size} bytes; cap is {max_tx_bytes}"
        )

    got_chain = params.get("chain_id", chain_id)
    if isinstance(got_chain, bool) or not isinstance(got_chain, int):
        raise AdmissionError(
            "malformed", "field 'chain_id' must be an integer"
        )
    if got_chain != chain_id:
        raise AdmissionError(
            "wrong-chain-id", f"chain id {got_chain} != expected {chain_id}"
        )

    sender = _hex_bytes(params["sender"], "sender")
    if len(sender) != 20:
        raise AdmissionError("malformed", "sender must be a 20-byte address")
    to = params.get("to")
    if to is not None:
        to = _hex_bytes(to, "to")
        if len(to) != 20:
            raise AdmissionError("malformed", "to must be a 20-byte address")

    value = _uint(params.get("value", 0), "value")
    nonce = _uint(params["nonce"], "nonce")
    gas_limit = _uint(params["gas_limit"], "gas_limit")
    gas_price = _uint(params["gas_price"], "gas_price")
    if gas_limit > block_gas_limit:
        raise AdmissionError(
            "malformed",
            f"gas limit {gas_limit} exceeds block gas limit {block_gas_limit}",
        )
    data = _hex_bytes(params.get("data", ""), "data") if params.get("data") \
        else b""

    if "sig" not in params:
        raise AdmissionError("invalid-signature", "missing signature")
    _check_signature(_hex_bytes(params["sig"], "sig"))

    intrinsic = intrinsic_gas(data)
    if gas_limit < intrinsic:
        raise AdmissionError(
            "intrinsic-gas",
            f"gas limit {gas_limit} below intrinsic gas {intrinsic}",
        )

    return Transaction(
        sender=sender,
        to=to,
        value=value,
        data=data,
        gas_limit=gas_limit,
        gas_price=gas_price,
        nonce=nonce,
    )


def pseudo_signature(tx: Transaction) -> bytes:
    """A deterministic signature with a valid shape, for simulated clients.

    Real key recovery is outside the model; the load generator still sends
    structurally honest wires, so the shape check exercises the same path
    a real signature would take.  Derived from the tx hash, hence unique
    per payload and stable across runs.
    """
    digest = transaction_hash(tx)
    r = int.from_bytes(keccak256(digest + b"r"), "big") % (_SECP256K1_N - 1) + 1
    s = int.from_bytes(keccak256(digest + b"s"), "big") % (_SECP256K1_N - 1) + 1
    v = digest[0] & 1
    return r.to_bytes(32, "big") + s.to_bytes(32, "big") + bytes([v])


def wire_transaction(tx: Transaction, *, chain_id: int = 1, sig: bytes | None = None) -> dict:
    """Encode a :class:`Transaction` as the wire dict clients submit."""
    wire = {
        "sender": "0x" + tx.sender.hex(),
        "nonce": int(tx.nonce or 0),
        "value": tx.value,
        "gas_limit": tx.gas_limit,
        "gas_price": tx.gas_price,
        "chain_id": chain_id,
        "sig": "0x" + (sig if sig is not None else pseudo_signature(tx)).hex(),
    }
    if tx.to is not None:
        wire["to"] = "0x" + tx.to.hex()
    if tx.data:
        wire["data"] = "0x" + tx.data.hex()
    return wire
