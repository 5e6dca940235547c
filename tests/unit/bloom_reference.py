"""The yellow-paper log bloom, spelled out: the test oracle for receipt blooms.

Each element — a log's address and each of its topics as 32 big-endian
bytes — sets three of the bloom's 2048 bits: for ``i`` in 0, 2 and 4, the
low 11 bits of the big-endian pair ``digest[i], digest[i + 1]`` of the
element's Keccak-256.  The digest comes from the loop-form oracle in
``keccak_reference.py``, not from ``repro.crypto``, so no memo and no
production kernel stands between an element and its bits.

Tests only; nothing under ``src/`` imports this module.
"""

from __future__ import annotations

from .keccak_reference import keccak256


def element_bits(element: bytes) -> set[int]:
    """The bloom bit indexes ``element`` sets (three, unless two collide)."""
    digest = keccak256(element)
    return {((digest[i] << 8) | digest[i + 1]) & 0x7FF for i in (0, 2, 4)}


def log_elements(log) -> list[bytes]:
    return [log.address] + [topic.to_bytes(32, "big") for topic in log.topics]


def reference_bloom(logs, bits=element_bits) -> int:
    """The bloom over every address and topic of ``logs``, from scratch.

    ``bits`` maps an element to its bit indexes; a caller that checks many
    blooms over a few elements passes ``element_bits``' results tabulated.
    """
    bloom = 0
    for log in logs:
        for element in log_elements(log):
            for bit in bits(element):
                bloom |= 1 << bit
    return bloom


def contains(bloom: int, element: bytes) -> bool:
    """Bloom membership: every bit of ``element`` is set in ``bloom``."""
    return all(bloom >> bit & 1 for bit in element_bits(element))
