"""The EVM interpreter and the transaction execution envelope.

Execution model
---------------
``EVM.call`` runs one message-call frame against a :class:`StateView`
(transaction-local overlay).  It reads the frame's code through the view —
the read is charged simulated storage latency and enters the read set — and
takes the code's :func:`~repro.evm.analysis.analyse` result: the valid
JUMPDEST set and a pre-decoded ``(handler, argument)`` table, built once per
distinct bytecode and memoised by the bytes themselves.  The step loop
(``EVM._run``) is then ``handler, arg = table[pc]``, count the step, charge
its dispatch cost, ``handler(evm, frame, arg)``: no opcode is classified and
no immediate decoded at run time.  ``OPCODE_ENTRIES``, below the ``EVM``
class, is the one opcode -> handler table the analysis lays out.

``execute_transaction`` wraps a frame in the transaction envelope: intrinsic
gas, nonce bump, value transfer, fee charge — each of which is reported to
the tracer as *intrinsic* read-modify-write operations so they participate
in the SSA operation log (hot account balances conflict exactly like hot
storage slots).

The block reward is intentionally **not** paid per transaction: crediting
the coinbase inside every transaction would serialise all of them on one
balance key.  Like the paper's geth baseline (and Block-STM deployments),
fees are accumulated and credited once per block by the executor
(see repro.concurrency.base.settle_fees).

Tracer hooks fire after each successful operation with concrete values;
repro.core.tracer.SSATracer, the one tracer, defines them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .. import crypto
from .. import primitives as prim
from ..errors import (
    EVMError,
    InvalidJump,
    InvalidOpcode,
    OutOfGas,
    Revert,
    WriteProtection,
)
from ..sim.cost import DEFAULT_COST_MODEL, CostModel
from ..sim.meter import CostMeter
from ..state.keys import balance_key, code_key, nonce_key, storage_key
from ..state.view import StateView
from . import gas as G
from .analysis import CodeAnalysis, analyse
from .memory import Memory
from .message import BlockEnv, CallMessage, LogRecord, Transaction, TxResult
from .opcodes import ALU_OPS, TX_CONST_OPS, Op, opcode_name
from .stack import Stack

CALL_DEPTH_LIMIT = 1024


@dataclass(slots=True)
class Frame:
    """One message-call frame: code and its analysis, pc, stack, memory, gas."""

    msg: CallMessage
    code: bytes
    analysis: CodeAnalysis
    stack: Stack = field(default_factory=Stack)
    memory: Memory = field(default_factory=Memory)
    pc: int = 0
    gas: int = 0
    return_data: bytes = b""  # returndata of the *last completed* sub-call

    def charge(self, amount: int) -> None:
        if amount > self.gas:
            self.gas = 0
            raise OutOfGas(f"need {amount} gas at pc={self.pc}")
        self.gas -= amount


# Pure ALU semantics, keyed by opcode, applied to operands in pop order.
ALU_FUNCS = {
    Op.ADD: lambda a, b: prim.add(a, b),
    Op.MUL: lambda a, b: prim.mul(a, b),
    Op.SUB: lambda a, b: prim.sub(a, b),
    Op.DIV: lambda a, b: prim.div(a, b),
    Op.SDIV: lambda a, b: prim.sdiv(a, b),
    Op.MOD: lambda a, b: prim.mod(a, b),
    Op.SMOD: lambda a, b: prim.smod(a, b),
    Op.ADDMOD: lambda a, b, n: prim.addmod(a, b, n),
    Op.MULMOD: lambda a, b, n: prim.mulmod(a, b, n),
    Op.SIGNEXTEND: lambda i, v: prim.signextend(i, v),
    Op.LT: lambda a, b: prim.lt(a, b),
    Op.GT: lambda a, b: prim.gt(a, b),
    Op.SLT: lambda a, b: prim.slt(a, b),
    Op.SGT: lambda a, b: prim.sgt(a, b),
    Op.EQ: lambda a, b: prim.eq(a, b),
    Op.ISZERO: lambda a: prim.iszero(a),
    Op.AND: lambda a, b: prim.and_(a, b),
    Op.OR: lambda a, b: prim.or_(a, b),
    Op.XOR: lambda a, b: prim.xor(a, b),
    Op.NOT: lambda a: prim.not_(a),
    Op.BYTE: lambda i, v: prim.byte(i, v),
    Op.SHL: lambda s, v: prim.shl(s, v),
    Op.SHR: lambda s, v: prim.shr(s, v),
    Op.SAR: lambda s, v: prim.sar(s, v),
    Op.EXP: lambda b, e: prim.exp(b, e),
}
_EXP = int(Op.EXP)  # the one ALU opcode with a dynamic gas cost


class _Halt(Exception):
    """Internal control flow: a frame returned or stopped normally."""

    def __init__(self, data: bytes) -> None:
        self.data = data


def _plain_keccak256(data: bytes) -> bytes:
    """The hasher of an ``EVM`` that was handed none.

    ``repro.crypto.keccak256`` is looked up on every call: the wall benchmark
    and the tests rebind that module global, and an ``EVM`` built before they
    did must not keep hashing through the function it replaced.
    """
    return crypto.keccak256(data)


class EVM:
    """An interpreter bound to one state view, block env, tracer and meter.

    ``hasher`` is the Keccak-256 every hashing opcode goes through
    (``bytes -> 32-byte digest``).  Block executors hand in their
    :class:`~repro.crypto.DigestMemo`, so an input one executor has hashed
    before costs a table lookup on the host; the simulated hash cost is
    charged either way.
    """

    def __init__(
        self,
        view: StateView,
        env: BlockEnv,
        tx: Transaction,
        tracer=None,
        meter: CostMeter | None = None,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        hasher=None,
    ) -> None:
        self.view = view
        self.env = env
        self.tx = tx
        self.tracer = tracer
        self.meter = meter
        self.cm = cost_model
        self.hasher = hasher if hasher is not None else _plain_keccak256
        self.logs: list[LogRecord] = []
        self.ops_executed = 0

    # ----------------------------------------------------------- call API

    def call(
        self, msg: CallMessage, code_address: bytes | None = None
    ) -> tuple[bool, bytes, int]:
        """Execute a message call; returns (success, return_data, gas_left).

        ``code_address`` overrides where the executed bytecode comes from
        (DELEGATECALL runs foreign code in the current storage context).
        On failure the view is reverted to its state at call entry; on REVERT
        remaining gas is preserved, on other EVM errors it is consumed.
        """
        code = self.view.read(code_key(code_address or msg.to))
        frame = Frame(msg=msg, code=code, analysis=analyse(code), gas=msg.gas)
        mark = self.view.snapshot()
        if self.tracer is not None:
            self.tracer.begin_frame(frame)
        try:
            data = self._run(frame)
        except Revert as exc:
            self.view.revert_to(mark)
            if self.tracer is not None:
                self.tracer.end_frame(frame, success=False)
            return False, exc.data, frame.gas
        except EVMError:
            self.view.revert_to(mark)
            if self.tracer is not None:
                self.tracer.end_frame(frame, success=False)
            return False, b"", 0
        if self.tracer is not None:
            self.tracer.end_frame(frame, success=True)
        return True, data, frame.gas

    # ------------------------------------------------------------ run loop

    def _run(self, frame: Frame) -> bytes:
        table = frame.analysis.table
        meter = self.meter
        dispatch_us = self.cm.op_dispatch_us
        try:
            while True:
                handler, arg = table[frame.pc]
                self.ops_executed += 1
                if meter is not None:
                    meter.charge_compute(dispatch_us)
                handler(self, frame, arg)
        except _Halt as halt:
            return halt.data

    # ----------------------------------------------------- memory helpers

    def _expand(self, frame: Frame, offset: int, size: int) -> None:
        """Expand frame memory and charge the quadratic expansion gas."""
        if size == 0:
            return
        new_words = frame.memory.expand_to(offset, size)
        if new_words:
            frame.charge(
                G.memory_expansion_gas(new_words, frame.memory.size_words)
            )

    # ------------------------------------------------------ opcode bodies
    #
    # Every handler is called as ``handler(evm, frame, arg)`` with the
    # argument its OPCODE_ENTRIES row (or, for PUSHn, the code analysis)
    # pre-computed; ``op`` arguments are the opcode byte, for the tracer.

    def _op_stop(self, frame: Frame, op: int) -> None:
        if self.tracer is not None:
            self.tracer.trace_halt(frame, op, 0, 0)
        raise _Halt(b"")

    def _op_alu(self, frame: Frame, arg: tuple) -> None:
        op, pops, gas_cost, fn = arg
        operands = frame.stack.pop_n(pops)
        dynamic = op == _EXP
        if dynamic:
            gas_cost = G.exp_gas(operands[1])
            if self.meter is not None:
                exponent_bytes = (operands[1].bit_length() + 7) // 8
                self.meter.charge_compute(self.cm.exp_byte_us * exponent_bytes, 0)
        frame.charge(gas_cost)
        result = fn(*operands)
        frame.stack.push(result)
        frame.pc += 1
        if self.tracer is not None:
            self.tracer.trace_alu(frame, op, operands, result, gas_cost, dynamic)

    def _op_sha3(self, frame: Frame, op: int) -> None:
        offset, size = frame.stack.pop_n(2)
        frame.charge(G.sha3_gas(size))
        self._expand(frame, offset, size)
        data = frame.memory.read(offset, size)
        result = int.from_bytes(self.hasher(data), "big")
        frame.stack.push(result)
        frame.pc += 1
        if self.meter is not None:
            self.meter.charge_compute(self.cm.hash_cost(size), 0)
        if self.tracer is not None:
            self.tracer.trace_sha3(frame, offset, size, data, result)

    # -- transaction-constant environment values ----------------------------

    def _op_tx_const(self, frame: Frame, arg: tuple) -> None:
        op, gas_cost, getter = arg
        frame.charge(gas_cost)
        value = getter(self, frame)
        frame.stack.push(value)
        frame.pc += 1
        if self.tracer is not None:
            self.tracer.trace_tx_const(frame, op, value)

    # -- account-state reads -------------------------------------------------

    def _op_balance(self, frame: Frame, op: int) -> None:
        address = prim.word_to_address(frame.stack.pop())
        warm_key = ("a", address)
        cold = not self.view.is_warm(warm_key)
        self.view.mark_warm(warm_key)
        gas_cost = G.GAS_ACCOUNT_COLD if cold else G.GAS_ACCOUNT_WARM
        frame.charge(gas_cost)
        key = balance_key(address)
        value = self.view.read(key)
        frame.stack.push(value)
        frame.pc += 1
        if self.tracer is not None:
            self.tracer.trace_sload(frame, key, value, gas_cost, operand_count=1)

    def _op_selfbalance(self, frame: Frame, op: int) -> None:
        frame.charge(5)
        key = balance_key(frame.msg.to)
        value = self.view.read(key)
        frame.stack.push(value)
        frame.pc += 1
        if self.tracer is not None:
            self.tracer.trace_sload(frame, key, value, 5, operand_count=0)

    def _op_extcodesize(self, frame: Frame, op: int) -> None:
        address = prim.word_to_address(frame.stack.pop())
        warm_key = ("a", address)
        cold = not self.view.is_warm(warm_key)
        self.view.mark_warm(warm_key)
        frame.charge(G.GAS_ACCOUNT_COLD if cold else G.GAS_ACCOUNT_WARM)
        # Code is immutable post-genesis: the result is constant per tx, so
        # the tracer treats it like an environment value.
        code = self.view.peek_committed(code_key(address))
        value = len(code)
        frame.stack.push(value)
        frame.pc += 1
        if self.tracer is not None:
            self.tracer.trace_alu(
                frame, op, (prim.address_to_word(address),), value,
                G.GAS_ACCOUNT_WARM, False,
            )

    def _op_extcodehash(self, frame: Frame, op: int) -> None:
        address = prim.word_to_address(frame.stack.pop())
        warm_key = ("a", address)
        cold = not self.view.is_warm(warm_key)
        self.view.mark_warm(warm_key)
        frame.charge(G.GAS_ACCOUNT_COLD if cold else G.GAS_ACCOUNT_WARM)
        code = self.view.peek_committed(code_key(address))
        value = int.from_bytes(self.hasher(code), "big") if code else 0
        frame.stack.push(value)
        frame.pc += 1
        if self.meter is not None:
            self.meter.charge_compute(self.cm.hash_cost(len(code)), 0)
        if self.tracer is not None:
            self.tracer.trace_alu(
                frame, op, (prim.address_to_word(address),), value,
                G.GAS_ACCOUNT_WARM, False,
            )

    def _op_blockhash(self, frame: Frame, op: int) -> None:
        frame.charge(20)
        number = frame.stack.pop()
        # Deterministic stand-in for ancestor hashes (only the most recent
        # 256 blocks resolve, as on mainnet).
        if 0 <= self.env.number - number <= 256 and number < self.env.number:
            value = int.from_bytes(
                self.hasher(b"blockhash:" + number.to_bytes(32, "big")), "big"
            )
        else:
            value = 0
        frame.stack.push(value)
        frame.pc += 1
        if self.tracer is not None:
            self.tracer.trace_alu(frame, op, (number,), value, 20, False)

    # -- calldata and code ----------------------------------------------------

    def _op_calldataload(self, frame: Frame, op: int) -> None:
        frame.charge(G.GAS_FASTEST)
        offset = frame.stack.pop()
        data = frame.msg.data
        chunk = data[offset : offset + 32] if offset < len(data) else b""
        value = int.from_bytes(chunk.ljust(32, b"\x00"), "big")
        frame.stack.push(value)
        frame.pc += 1
        if self.tracer is not None:
            self.tracer.trace_calldataload(frame, offset, value)

    def _op_calldatacopy(self, frame: Frame, op: int) -> None:
        dest, src, size = frame.stack.pop_n(3)
        frame.charge(G.GAS_FASTEST + G.copy_gas(size))
        self._expand(frame, dest, size)
        data = frame.msg.data[src : src + size].ljust(size, b"\x00")
        frame.memory.write(dest, data)
        frame.pc += 1
        if self.meter is not None:
            self.meter.charge_compute(self.cm.copy_cost(size), 0)
        if self.tracer is not None:
            self.tracer.trace_copy(frame, op, dest, src, size, operand_count=3)

    def _op_codecopy(self, frame: Frame, op: int) -> None:
        dest, src, size = frame.stack.pop_n(3)
        frame.charge(G.GAS_FASTEST + G.copy_gas(size))
        self._expand(frame, dest, size)
        data = frame.code[src : src + size].ljust(size, b"\x00")
        frame.memory.write(dest, data)
        frame.pc += 1
        if self.meter is not None:
            self.meter.charge_compute(self.cm.copy_cost(size), 0)
        if self.tracer is not None:
            self.tracer.trace_copy(frame, op, dest, src, size, operand_count=3)

    def _op_returndatacopy(self, frame: Frame, op: int) -> None:
        dest, src, size = frame.stack.pop_n(3)
        frame.charge(G.GAS_FASTEST + G.copy_gas(size))
        if src + size > len(frame.return_data):
            raise EVMError("RETURNDATACOPY out of bounds")
        self._expand(frame, dest, size)
        frame.memory.write(dest, frame.return_data[src : src + size])
        frame.pc += 1
        if self.meter is not None:
            self.meter.charge_compute(self.cm.copy_cost(size), 0)
        if self.tracer is not None:
            self.tracer.trace_copy(frame, op, dest, src, size, operand_count=3)

    # -- stack housekeeping ---------------------------------------------------

    def _op_pop(self, frame: Frame, op: int) -> None:
        frame.charge(G.GAS_QUICK)
        frame.stack.pop()
        frame.pc += 1
        if self.tracer is not None:
            self.tracer.trace_pop(frame)

    def _op_push(self, frame: Frame, arg: tuple[int, int]) -> None:
        value, next_pc = arg
        frame.charge(G.GAS_FASTEST)
        frame.stack.push(value)
        frame.pc = next_pc
        if self.tracer is not None:
            self.tracer.trace_push(frame, value)

    def _op_push0(self, frame: Frame, op: int) -> None:
        frame.charge(G.GAS_QUICK)
        frame.stack.push(0)
        frame.pc += 1
        if self.tracer is not None:
            self.tracer.trace_push(frame, 0)

    def _op_dup(self, frame: Frame, n: int) -> None:
        frame.charge(G.GAS_FASTEST)
        frame.stack.dup(n)
        frame.pc += 1
        if self.tracer is not None:
            self.tracer.trace_dup(frame, n)

    def _op_swap(self, frame: Frame, n: int) -> None:
        frame.charge(G.GAS_FASTEST)
        frame.stack.swap(n)
        frame.pc += 1
        if self.tracer is not None:
            self.tracer.trace_swap(frame, n)

    # -- memory ----------------------------------------------------------------

    def _op_mload(self, frame: Frame, op: int) -> None:
        frame.charge(G.GAS_FASTEST)
        offset = frame.stack.pop()
        self._expand(frame, offset, 32)
        value = frame.memory.read_word(offset)
        frame.stack.push(value)
        frame.pc += 1
        if self.tracer is not None:
            self.tracer.trace_mload(frame, offset, value)

    def _op_mstore(self, frame: Frame, op: int) -> None:
        frame.charge(G.GAS_FASTEST)
        offset, value = frame.stack.pop_n(2)
        self._expand(frame, offset, 32)
        frame.memory.write_word(offset, value)
        frame.pc += 1
        if self.tracer is not None:
            self.tracer.trace_mstore(frame, offset, value)

    def _op_mstore8(self, frame: Frame, op: int) -> None:
        frame.charge(G.GAS_FASTEST)
        offset, value = frame.stack.pop_n(2)
        self._expand(frame, offset, 1)
        frame.memory.write_byte(offset, value)
        frame.pc += 1
        if self.tracer is not None:
            self.tracer.trace_mstore8(frame, offset, value)

    # -- storage ----------------------------------------------------------------

    def _op_sload(self, frame: Frame, op: int) -> None:
        slot = frame.stack.pop()
        key = storage_key(frame.msg.to, slot)
        cold = not self.view.is_warm(key)
        self.view.mark_warm(key)
        gas_cost = G.sload_gas(cold)
        frame.charge(gas_cost)
        value = self.view.read(key)
        frame.stack.push(value)
        frame.pc += 1
        if self.tracer is not None:
            self.tracer.trace_sload(frame, key, value, gas_cost, operand_count=1)

    def _op_sstore(self, frame: Frame, op: int) -> None:
        if frame.msg.static:
            raise WriteProtection("SSTORE in a static call")
        slot, value = frame.stack.pop_n(2)
        key = storage_key(frame.msg.to, slot)
        cold = not self.view.is_warm(key)
        self.view.mark_warm(key)
        current = self.view.read(key)
        gas_cost = G.sstore_gas(current, value, cold)
        frame.charge(gas_cost)
        self.view.write(key, value)
        frame.pc += 1
        if self.tracer is not None:
            self.tracer.trace_sstore(frame, key, value, gas_cost, current, cold)

    # -- control flow -------------------------------------------------------------

    def _op_jump(self, frame: Frame, op: int) -> None:
        frame.charge(G.GAS_MID)
        dest = frame.stack.pop()
        if dest not in frame.analysis.jumpdests:
            raise InvalidJump(f"JUMP to non-JUMPDEST {dest}")
        if self.tracer is not None:
            self.tracer.trace_jump(frame, dest)
        frame.pc = dest

    def _op_jumpi(self, frame: Frame, op: int) -> None:
        frame.charge(G.GAS_HIGH)
        dest, cond = frame.stack.pop_n(2)
        taken = cond != 0
        if taken and dest not in frame.analysis.jumpdests:
            raise InvalidJump(f"JUMPI to non-JUMPDEST {dest}")
        if self.tracer is not None:
            self.tracer.trace_jumpi(frame, dest, cond, taken)
        frame.pc = dest if taken else frame.pc + 1

    def _op_jumpdest(self, frame: Frame, op: int) -> None:
        frame.charge(G.GAS_JUMPDEST)
        frame.pc += 1

    # -- logging ---------------------------------------------------------------

    def _op_log(self, frame: Frame, topic_count: int) -> None:
        if frame.msg.static:
            raise WriteProtection("LOG in a static call")
        offset, size = frame.stack.pop_n(2)
        topics = frame.stack.pop_n(topic_count)
        frame.charge(G.log_gas(topic_count, size))
        self._expand(frame, offset, size)
        data = frame.memory.read(offset, size)
        record = LogRecord(frame.msg.to, topics, data)
        self.logs.append(record)
        frame.pc += 1
        if self.tracer is not None:
            self.tracer.trace_log(frame, record, topic_count, offset, size)

    # -- calls -------------------------------------------------------------------

    def _op_call(self, frame: Frame, op: int) -> None:
        delegate = False
        if op == Op.CALL:
            operands = frame.stack.pop_n(7)
            (gas_req, to_word, value, args_off, args_size, ret_off, ret_size) = (
                operands
            )
            static = frame.msg.static
            if static and value != 0:
                raise WriteProtection("value-bearing CALL in a static context")
        elif op == Op.DELEGATECALL:
            operands = frame.stack.pop_n(6)
            gas_req, to_word, args_off, args_size, ret_off, ret_size = operands
            value = 0
            static = frame.msg.static
            delegate = True
        else:  # STATICCALL
            operands = frame.stack.pop_n(6)
            gas_req, to_word, args_off, args_size, ret_off, ret_size = operands
            value = 0
            static = True

        if frame.msg.depth + 1 > CALL_DEPTH_LIMIT:
            raise EVMError("call depth limit exceeded")

        to = prim.word_to_address(to_word)
        warm_key = ("a", to)
        cold = not self.view.is_warm(warm_key)
        self.view.mark_warm(warm_key)
        frame.charge(G.call_gas(value, cold))
        self._expand(frame, args_off, args_size)
        self._expand(frame, ret_off, ret_size)

        available = frame.gas - frame.gas // 64
        callee_gas = min(gas_req, available)
        frame.charge(callee_gas)
        if value > 0:
            callee_gas += G.GAS_CALL_STIPEND

        call_data = frame.memory.read(args_off, args_size)
        if self.tracer is not None:
            self.tracer.trace_call_start(frame, op, operands, args_off, args_size)

        transfer_mark = self.view.snapshot()
        if value > 0:
            self._transfer(frame.msg.to, to, value)

        if self.meter is not None:
            self.meter.charge_compute(self.cm.call_frame_us, 0)

        if delegate:
            # DELEGATECALL: run the target's code with the *current* frame's
            # address, storage, caller and value.
            msg = CallMessage(
                caller=frame.msg.caller,
                to=frame.msg.to,
                value=frame.msg.value,
                data=call_data,
                gas=callee_gas,
                static=static,
                depth=frame.msg.depth + 1,
            )
            success, return_data, gas_left = self.call(msg, code_address=to)
        else:
            msg = CallMessage(
                caller=frame.msg.to,
                to=to,
                value=value,
                data=call_data,
                gas=callee_gas,
                static=static,
                depth=frame.msg.depth + 1,
            )
            success, return_data, gas_left = self.call(msg)
        if not success and value > 0:
            # The callee's own writes were already rolled back by call();
            # unwind the value transfer as well.
            self.view.revert_to(transfer_mark)

        frame.gas += gas_left
        frame.return_data = return_data
        copy_size = min(ret_size, len(return_data))
        if copy_size:
            frame.memory.write(ret_off, return_data[:copy_size])
        frame.stack.push(1 if success else 0)
        frame.pc += 1
        if self.tracer is not None:
            self.tracer.trace_call_end(frame, success, ret_off, copy_size)

    def _transfer(self, sender: bytes, recipient: bytes, value: int) -> None:
        """Move ``value`` wei; insufficient funds abort the current frame.

        The sender-side read-modify-write is reported to the tracer with a
        ``minimum`` so the redo phase re-checks solvency (a constraint
        guard — the paper's §3.2 example).
        """
        sender_key = balance_key(sender)
        sender_balance = self.view.read(sender_key)
        if self.tracer is not None:
            self.tracer.trace_intrinsic_rmw(
                sender_key, sender_balance, -value, minimum=value
            )
        if sender_balance < value:
            raise EVMError("insufficient balance for transfer")
        self.view.write(sender_key, sender_balance - value)

        recipient_key = balance_key(recipient)
        recipient_balance = self.view.read(recipient_key)
        if self.tracer is not None:
            self.tracer.trace_intrinsic_rmw(
                recipient_key, recipient_balance, value, minimum=None
            )
        self.view.write(recipient_key, recipient_balance + value)

    # -- halts ---------------------------------------------------------------

    def _op_return(self, frame: Frame, op: int) -> None:
        offset, size = frame.stack.pop_n(2)
        self._expand(frame, offset, size)
        data = frame.memory.read(offset, size)
        if self.tracer is not None:
            self.tracer.trace_halt(frame, op, offset, size)
        raise _Halt(data)

    def _op_revert(self, frame: Frame, op: int) -> None:
        offset, size = frame.stack.pop_n(2)
        self._expand(frame, offset, size)
        data = frame.memory.read(offset, size)
        if self.tracer is not None:
            self.tracer.trace_halt(frame, op, offset, size)
        raise Revert(data)

    def _op_invalid(self, frame: Frame, op: int) -> None:
        raise InvalidOpcode("INVALID opcode executed")

    def _op_undefined(self, frame: Frame, op: int) -> None:
        raise InvalidOpcode(f"undefined opcode {opcode_name(op)} at pc={frame.pc}")


# Transaction-constant environment values, by opcode: ``getter(evm, frame)``.
_TX_CONST_GETTERS = {
    Op.ADDRESS: lambda evm, frame: prim.address_to_word(frame.msg.to),
    Op.ORIGIN: lambda evm, frame: prim.address_to_word(evm.tx.sender),
    Op.CALLER: lambda evm, frame: prim.address_to_word(frame.msg.caller),
    Op.CALLVALUE: lambda evm, frame: frame.msg.value,
    Op.CALLDATASIZE: lambda evm, frame: len(frame.msg.data),
    Op.CODESIZE: lambda evm, frame: len(frame.code),
    Op.GASPRICE: lambda evm, frame: evm.tx.gas_price,
    Op.COINBASE: lambda evm, frame: prim.address_to_word(evm.env.coinbase),
    Op.TIMESTAMP: lambda evm, frame: evm.env.timestamp,
    Op.NUMBER: lambda evm, frame: evm.env.number,
    Op.GASLIMIT: lambda evm, frame: evm.env.gas_limit,
    Op.CHAINID: lambda evm, frame: evm.env.chain_id,
    Op.PC: lambda evm, frame: frame.pc,
    Op.MSIZE: lambda evm, frame: len(frame.memory),
    Op.GAS: lambda evm, frame: frame.gas,
    Op.RETURNDATASIZE: lambda evm, frame: len(frame.return_data),
}


def _opcode_entries() -> tuple:
    """The ``(handler, argument)`` dispatch entry of each of the 256 opcodes.

    ``analysis.analyse`` lays these out per pc, so the step loop never
    classifies an opcode.  Opcode arguments are plain ints (what the tracer
    has always been handed: ``code[pc]``).  PUSH1-32 carry no argument
    here: theirs is ``(immediate, next_pc)``, which only the analysis of a
    particular bytecode knows.  A byte with no row of its own gets
    ``_op_undefined``, which raises only if it is ever executed.  GAS, PC
    and the like go through ``_op_tx_const``: their values are constant for
    the transaction under the paper's gas-flow and control-flow guards.
    """
    entries: list = [(EVM._op_undefined, opcode) for opcode in range(256)]
    handlers = {
        Op.STOP: EVM._op_stop,
        Op.SHA3: EVM._op_sha3,
        Op.BALANCE: EVM._op_balance,
        Op.SELFBALANCE: EVM._op_selfbalance,
        Op.CALLDATALOAD: EVM._op_calldataload,
        Op.CALLDATACOPY: EVM._op_calldatacopy,
        Op.CODECOPY: EVM._op_codecopy,
        Op.RETURNDATACOPY: EVM._op_returndatacopy,
        Op.POP: EVM._op_pop,
        Op.PUSH0: EVM._op_push0,
        Op.MLOAD: EVM._op_mload,
        Op.MSTORE: EVM._op_mstore,
        Op.MSTORE8: EVM._op_mstore8,
        Op.SLOAD: EVM._op_sload,
        Op.SSTORE: EVM._op_sstore,
        Op.JUMP: EVM._op_jump,
        Op.JUMPI: EVM._op_jumpi,
        Op.JUMPDEST: EVM._op_jumpdest,
        Op.CALL: EVM._op_call,
        Op.DELEGATECALL: EVM._op_call,
        Op.STATICCALL: EVM._op_call,
        Op.EXTCODESIZE: EVM._op_extcodesize,
        Op.EXTCODEHASH: EVM._op_extcodehash,
        Op.BLOCKHASH: EVM._op_blockhash,
        Op.RETURN: EVM._op_return,
        Op.REVERT: EVM._op_revert,
        Op.INVALID: EVM._op_invalid,
    }
    for op, handler in handlers.items():
        entries[op] = (handler, int(op))
    for op, (pops, static_gas) in ALU_OPS.items():
        entries[op] = (EVM._op_alu, (int(op), pops, static_gas, ALU_FUNCS[op]))
    for op, gas_cost in TX_CONST_OPS.items():
        entries[op] = (EVM._op_tx_const, (int(op), gas_cost, _TX_CONST_GETTERS[op]))
    for n in range(1, 33):
        entries[Op.PUSH0 + n] = (EVM._op_push, None)
    for n in range(1, 17):
        entries[Op.DUP1 + n - 1] = (EVM._op_dup, n)
        entries[Op.SWAP1 + n - 1] = (EVM._op_swap, n)
    for topic_count in range(5):
        entries[Op.LOG0 + topic_count] = (EVM._op_log, topic_count)
    return tuple(entries)


OPCODE_ENTRIES = _opcode_entries()


def execute_transaction(
    view: StateView,
    tx: Transaction,
    env: BlockEnv,
    tracer=None,
    meter: CostMeter | None = None,
    cost_model: CostModel = DEFAULT_COST_MODEL,
    hasher=None,
) -> TxResult:
    """Run one transaction against ``view`` (the paper's read phase body).

    Applies the full envelope: intrinsic gas, nonce bump, value transfer,
    bytecode execution, and the gas fee charge — all buffered in the view.
    The caller decides what to do with the view's read/write sets.
    ``hasher`` is handed to the :class:`EVM` (plain ``keccak256`` when None).
    """
    if meter is not None:
        meter.charge_compute(cost_model.tx_fixed_us, 0)

    intrinsic = G.intrinsic_gas(tx.data)
    if intrinsic > tx.gas_limit:
        return TxResult(
            tx=tx, success=False, gas_used=tx.gas_limit, error="intrinsic gas"
        )

    # Nonce bump (an intrinsic RMW: same-sender transactions conflict here).
    nkey = nonce_key(tx.sender)
    nonce = view.read(nkey)
    if tracer is not None:
        tracer.trace_intrinsic_rmw(nkey, nonce, 1, minimum=None)
    view.write(nkey, nonce + 1)

    # Upfront solvency: the sender must cover value + the full gas allowance.
    upfront = tx.value + tx.gas_limit * tx.gas_price
    sender_bkey = balance_key(tx.sender)
    sender_balance = view.read(sender_bkey)
    if tracer is not None:
        tracer.trace_intrinsic_rmw(sender_bkey, sender_balance, 0, minimum=upfront)
    if sender_balance < upfront:
        return TxResult(
            tx=tx, success=False, gas_used=0, error="insufficient funds"
        )

    view.mark_warm(("a", tx.sender))
    evm = EVM(
        view, env, tx, tracer=tracer, meter=meter, cost_model=cost_model,
        hasher=hasher,
    )

    success = True
    error = None
    return_data = b""
    gas_left = tx.gas_limit - intrinsic

    mark = view.snapshot()
    if tx.to is not None:
        view.mark_warm(("a", tx.to))
        if tx.value:
            evm._transfer(tx.sender, tx.to, tx.value)
        code = view.read(code_key(tx.to))
        if code:
            msg = CallMessage(
                caller=tx.sender,
                to=tx.to,
                value=tx.value,
                data=tx.data,
                gas=gas_left,
                static=False,
                depth=0,
            )
            success, return_data, gas_left = evm.call(msg)
            if not success:
                # A failed top-level call reverts everything but the nonce
                # bump and the fee (charged below).
                view.revert_to(mark)
                error = "execution reverted"
    else:
        # Value burn (no recipient).  The deduction must be traced as an
        # intrinsic RMW like any transfer leg: an untraced write here
        # leaves the SSA log blind to the burn, so a later conflict on the
        # sender's balance would redo the fee chain from the *committed*
        # value and silently resurrect the burned amount (found by the
        # repro.check differential harness).  The upfront solvency guard
        # above already covers value + fees, so no extra minimum applies.
        balance = view.read(sender_bkey)
        if tracer is not None:
            tracer.trace_intrinsic_rmw(sender_bkey, balance, -tx.value, minimum=None)
        view.write(sender_bkey, balance - tx.value)

    gas_used = tx.gas_limit - gas_left

    # Fee charge: the coinbase credit is settled once per block (see module
    # docstring); only the sender-side debit happens per transaction.
    fee = gas_used * tx.gas_price
    balance_now = view.read(sender_bkey)
    if tracer is not None:
        tracer.trace_intrinsic_rmw(sender_bkey, balance_now, -fee, minimum=fee)
    view.write(sender_bkey, balance_now - fee)

    return TxResult(
        tx=tx,
        success=success,
        gas_used=gas_used,
        return_data=return_data,
        error=error,
        logs=evm.logs,
        read_set=dict(view.read_set),
        write_set=view.write_set,
        duration_us=meter.total_us if meter is not None else 0.0,
        ops_executed=evm.ops_executed,
    )
