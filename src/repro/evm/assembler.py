"""A small EVM assembler: mnemonic text with labels -> bytecode.

The workload contracts (repro.contracts) are written in this assembly
dialect rather than shipped as opaque hex blobs, which keeps them auditable
and lets tests assert on their structure.  Supported syntax::

    ; comments run to end of line
    start:                  ; a label (JUMPDEST is NOT implicit — write it)
        PUSH1 0x04          ; explicit-width push with hex or decimal operand
        PUSH 1000           ; auto-width push (smallest PUSHn that fits)
        PUSH @start         ; label reference (always assembled as PUSH2)
        JUMP

Label references use a fixed PUSH2 so label resolution needs no fixpoint;
contracts are far below 64 KiB.
"""

from __future__ import annotations

from ..errors import AssemblerError
from .analysis import decode
from .opcodes import Op, is_push, opcode_name

_MNEMONICS: dict[str, int] = {op.name: op.value for op in Op}
for _i in range(1, 33):
    _MNEMONICS[f"PUSH{_i}"] = 0x5F + _i
for _i in range(1, 17):
    _MNEMONICS[f"DUP{_i}"] = 0x7F + _i
    _MNEMONICS[f"SWAP{_i}"] = 0x8F + _i
# KECCAK256 is the modern mnemonic for SHA3.
_MNEMONICS["KECCAK256"] = Op.SHA3.value


def _parse_int(token: str) -> int:
    try:
        if token.lower().startswith("0x"):
            return int(token, 16)
        return int(token, 10)
    except ValueError as exc:
        raise AssemblerError(f"bad integer literal {token!r}") from exc


def _min_push_width(value: int) -> int:
    if value == 0:
        return 1
    return (value.bit_length() + 7) // 8


def assemble(source: str) -> bytes:
    """Assemble mnemonic ``source`` into EVM bytecode."""
    # Pass 1: tokenize into (kind, payload) items and locate labels.
    items: list[tuple[str, object]] = []  # ('op', byte) | ('imm', (w,v)) | ('ref', name)
    labels: dict[str, int] = {}
    offset = 0

    for raw_line in source.splitlines():
        line = raw_line.split(";", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        i = 0
        while i < len(tokens):
            token = tokens[i]
            if token.endswith(":"):
                name = token[:-1]
                if not name:
                    raise AssemblerError("empty label name")
                if name in labels:
                    raise AssemblerError(f"duplicate label {name!r}")
                labels[name] = offset
                i += 1
                continue

            mnemonic = token.upper()
            if mnemonic == "PUSH":
                if i + 1 >= len(tokens):
                    raise AssemblerError("PUSH needs an operand")
                operand = tokens[i + 1]
                if operand.startswith("@"):
                    items.append(("op", 0x5F + 2))  # PUSH2
                    items.append(("ref", operand[1:]))
                    offset += 3
                else:
                    value = _parse_int(operand)
                    width = _min_push_width(value)
                    items.append(("op", 0x5F + width))
                    items.append(("imm", (width, value)))
                    offset += 1 + width
                i += 2
                continue

            opcode = _MNEMONICS.get(mnemonic)
            if opcode is None:
                raise AssemblerError(f"unknown mnemonic {token!r}")
            items.append(("op", opcode))
            offset += 1
            if is_push(opcode):
                width = opcode - 0x5F
                if i + 1 >= len(tokens):
                    raise AssemblerError(f"{mnemonic} needs an operand")
                operand = tokens[i + 1]
                if operand.startswith("@"):
                    if width != 2:
                        raise AssemblerError("label references require PUSH2")
                    items.append(("ref", operand[1:]))
                else:
                    value = _parse_int(operand)
                    if value >= 1 << (8 * width):
                        raise AssemblerError(
                            f"{mnemonic} operand {operand} does not fit {width} bytes"
                        )
                    items.append(("imm", (width, value)))
                offset += width
                i += 2
                continue
            i += 1

    # Pass 2: emit bytes with labels resolved.
    out = bytearray()
    for kind, payload in items:
        if kind == "op":
            out.append(payload)
        elif kind == "imm":
            width, value = payload
            out += value.to_bytes(width, "big")
        else:  # ref
            target = labels.get(payload)
            if target is None:
                raise AssemblerError(f"undefined label {payload!r}")
            out += target.to_bytes(2, "big")
    return bytes(out)


def disassemble(code: bytes) -> list[tuple[int, str, int | None]]:
    """Decode bytecode into (pc, mnemonic, immediate) rows for debugging.

    A trailing PUSH whose operand is cut short by the end of the code shows
    the value the EVM would push: the missing low bytes read as zero.
    """
    return [
        (pc, opcode_name(opcode), immediate)
        for pc, opcode, immediate, _next_pc in decode(code)
    ]
