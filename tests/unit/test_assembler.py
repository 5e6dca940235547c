"""The EVM assembler: mnemonics, pushes, labels, errors, decoding back."""

from __future__ import annotations

import pytest

from repro.errors import AssemblerError
from repro.evm.analysis import decode
from repro.evm.assembler import assemble
from repro.evm.opcodes import Op, opcode_name


class TestBasics:
    def test_single_opcode(self):
        assert assemble("STOP") == b"\x00"

    def test_sequence(self):
        assert assemble("ADD MUL STOP") == bytes([Op.ADD, Op.MUL, Op.STOP])

    def test_multiline_and_comments(self):
        source = """
        ; a comment-only line
        ADD   ; trailing comment
        STOP
        """
        assert assemble(source) == bytes([Op.ADD, Op.STOP])

    def test_case_insensitive_mnemonics(self):
        assert assemble("add") == bytes([Op.ADD])

    def test_keccak256_alias(self):
        assert assemble("KECCAK256") == bytes([Op.SHA3])

    def test_unknown_mnemonic(self):
        with pytest.raises(AssemblerError):
            assemble("FLY")


class TestPush:
    def test_explicit_width(self):
        assert assemble("PUSH1 0x05") == bytes([0x60, 5])
        assert assemble("PUSH2 0x0102") == bytes([0x61, 1, 2])

    def test_auto_width(self):
        assert assemble("PUSH 5") == bytes([0x60, 5])
        assert assemble("PUSH 256") == bytes([0x61, 1, 0])
        assert assemble("PUSH 0") == bytes([0x60, 0])

    def test_auto_width_32_bytes(self):
        code = assemble(f"PUSH {2**255}")
        assert code[0] == 0x7F  # PUSH32
        assert len(code) == 33

    def test_decimal_and_hex(self):
        assert assemble("PUSH1 10") == assemble("PUSH1 0x0a")

    def test_operand_too_wide(self):
        with pytest.raises(AssemblerError):
            assemble("PUSH1 256")

    def test_missing_operand(self):
        with pytest.raises(AssemblerError):
            assemble("PUSH1")
        with pytest.raises(AssemblerError):
            assemble("PUSH")

    def test_bad_literal(self):
        with pytest.raises(AssemblerError):
            assemble("PUSH1 zebra")

    def test_push0(self):
        assert assemble("PUSH0") == bytes([Op.PUSH0])


class TestLabels:
    def test_label_reference_is_push2(self):
        code = assemble(
            """
            PUSH @target JUMP
            target:
            JUMPDEST STOP
            """
        )
        # PUSH2 0x0004 JUMP JUMPDEST STOP
        assert code == bytes([0x61, 0, 4, Op.JUMP, Op.JUMPDEST, Op.STOP])

    def test_forward_and_backward_references(self):
        code = assemble(
            """
            start:
            JUMPDEST
            PUSH @end JUMPI
            PUSH @start JUMP
            end:
            JUMPDEST STOP
            """
        )
        assert code[-2] == Op.JUMPDEST

    def test_undefined_label(self):
        with pytest.raises(AssemblerError):
            assemble("PUSH @nowhere JUMP")

    def test_duplicate_label(self):
        with pytest.raises(AssemblerError):
            assemble("a: STOP a: STOP")

    def test_empty_label(self):
        with pytest.raises(AssemblerError):
            assemble(": STOP")

    def test_explicit_push2_label(self):
        code = assemble("PUSH2 @t JUMP t: JUMPDEST")
        assert code[:3] == bytes([0x61, 0, 4])

    def test_label_with_wrong_push_width(self):
        with pytest.raises(AssemblerError):
            assemble("PUSH1 @t t: JUMPDEST")


class TestDupSwap:
    def test_dup_range(self):
        assert assemble("DUP1") == b"\x80"
        assert assemble("DUP16") == b"\x8f"

    def test_swap_range(self):
        assert assemble("SWAP1") == b"\x90"
        assert assemble("SWAP16") == b"\x9f"


class TestDisassemble:
    """Assembled code decodes back to its instructions (``analysis.decode``
    rows: pc, opcode, immediate, next pc)."""

    def test_roundtrip_mnemonics(self):
        source = "PUSH1 0x2a PUSH1 0x01 ADD STOP"
        rows = list(decode(assemble(source)))
        assert [opcode_name(r[1]) for r in rows] == ["PUSH1", "PUSH1", "ADD", "STOP"]
        assert rows[0][2] == 0x2A

    def test_pc_accounts_for_immediates(self):
        rows = list(decode(assemble("PUSH2 0x1234 STOP")))
        assert rows[0][0] == 0
        assert rows[1][0] == 3

    def test_truncated_trailing_push_is_zero_padded_on_the_right(self):
        # Bytes past the end of the code read as zero (yellow paper, geth):
        # `PUSH2 AB` pushes 0xAB00, not 0xAB.
        assert list(decode(bytes.fromhex("61ab"))) == [(0, 0x61, 0xAB00, 3)]
        assert list(decode(bytes.fromhex("0160"))) == [
            (0, 0x01, None, 1), (1, 0x60, 0, 3),
        ]
