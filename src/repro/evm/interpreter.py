"""The EVM interpreter and the transaction execution envelope.

Execution model
---------------
``EVM.call`` runs one message-call frame against a :class:`StateView`
(transaction-local overlay).  It reads the frame's code through the view —
the read is charged simulated storage latency and enters the read set — and
takes the code's :func:`~repro.evm.analysis.analyse` result: the valid
JUMPDEST set and a pre-decoded table with one ``(handler, arg, static_gas,
min_stack, max_stack)`` row per instruction, built once per distinct
bytecode and memoised by the bytes themselves.  ``OPCODE_ENTRIES``, below
the ``EVM`` class, is the one opcode -> row table the analysis lays out.
The step loop (``EVM._run``) does each step's common work inline, in geth's
order: check the stack depth against the row's bounds, charge its static
gas, ``handler(evm, frame, arg)``; the frame's step count is added to the
meter's ``ops`` when the frame ends, and its model prices them.  No
opcode is classified and no immediate decoded at run time; handlers work on
``frame.stack`` as a bare list and charge only dynamic gas (EXP, SHA3 and
copy words, memory expansion, warmth, SSTORE, LOG, CALL).

Opcodes that differ in one value share a handler whose row ``arg`` carries
it after the opcode byte: the three copies share ``_op_copy`` (a
``source(frame, src, size)``), EXTCODESIZE / EXTCODEHASH ``_op_extcode`` (a
``measure(evm, code)``), RETURN / REVERT ``_op_halt`` (the exception that
ends the frame), the ALU ops a ``primitives`` function, the transaction
constants a getter, and the three calls ``_op_call`` (``(op, pops,
delegate, static)``).

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
repro.core.tracer.SSATracer, the one tracer, defines them.  The stack-only
opcodes (PUSHn, PUSH0, DUPn, SWAPn, POP and the transaction constants) call
no hook: a traced frame carries its shadow stack (``Frame.shadow``, bound by
the tracer's ``begin_frame``), and they move its cells and count the shadow
event on the meter inline.  Six more families do the same while their
operands are constant — every operand cell None — and the tracer has bound
the frame's ``FrameShadow`` (``Frame.shadow_state``): binary ALU ops,
JUMP and JUMPI always, MLOAD and MSTORE while its shadow memory is empty,
CALLDATALOAD while its call-data map is empty.  Otherwise they call the
hook.  A frame with no shadow stack calls no hook of these opcodes (2PL's
access tracer binds none, and ignores those hooks).
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
    StackOverflow,
    StackUnderflow,
    WriteProtection,
)
from ..state.keys import balance_key, code_key, nonce_key, storage_key
from ..state.view import StateView
from . import gas as G
from .analysis import CodeAnalysis, analyse
from .memory import Memory
from .message import BlockEnv, CallMessage, LogRecord, Transaction, TxResult
from .opcodes import ALU_OPS, TX_CONST_OPS, Op, opcode_name

CALL_DEPTH_LIMIT = 1024
STACK_LIMIT = 1024


@dataclass(slots=True)
class Frame:
    """One message-call frame: code and its analysis, pc, stack, memory, gas."""

    msg: CallMessage
    code: bytes
    analysis: CodeAnalysis
    stack: list = field(default_factory=list)  # top last; _run checks bounds
    memory: Memory = field(default_factory=Memory)
    pc: int = 0
    gas: int = 0
    return_data: bytes = b""  # returndata of the *last completed* sub-call
    # The SSA tracer's shadow stack for this frame (None when untraced), and
    # its FrameShadow when the six inline constant paths may be taken.
    shadow: list | None = None
    shadow_state: object | None = None

    def charge(self, amount: int) -> None:
        if amount > self.gas:
            self.gas = 0
            raise OutOfGas(f"need {amount} gas at pc={self.pc}")
        self.gas -= amount


# Pure ALU semantics, keyed by opcode, applied to operands in pop order.
ALU_FUNCS = {
    Op.ADD: prim.add,
    Op.MUL: prim.mul,
    Op.SUB: prim.sub,
    Op.DIV: prim.div,
    Op.SDIV: prim.sdiv,
    Op.MOD: prim.mod,
    Op.SMOD: prim.smod,
    Op.ADDMOD: prim.addmod,
    Op.MULMOD: prim.mulmod,
    Op.SIGNEXTEND: prim.signextend,
    Op.LT: prim.lt,
    Op.GT: prim.gt,
    Op.SLT: prim.slt,
    Op.SGT: prim.sgt,
    Op.EQ: prim.eq,
    Op.ISZERO: prim.iszero,
    Op.AND: prim.and_,
    Op.OR: prim.or_,
    Op.XOR: prim.xor,
    Op.NOT: prim.not_,
    Op.BYTE: prim.byte,
    Op.SHL: prim.shl,
    Op.SHR: prim.shr,
    Op.SAR: prim.sar,
    Op.EXP: prim.exp,
}


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
    """An interpreter bound to one state view, block env and tracer.

    It charges the view's meter, at the prices of the meter's model.
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
        hasher=None,
    ) -> None:
        self.view = view
        self.env = env
        self.tx = tx
        self.tracer = tracer
        self.meter = view.meter
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
        except EVMError as exc:
            self.view.revert_to(mark)
            if self.tracer is not None:
                self.tracer.end_frame(frame, success=False)
            if isinstance(exc, Revert):
                return False, exc.data, frame.gas
            return False, b"", 0
        if self.tracer is not None:
            self.tracer.end_frame(frame, success=True)
        return True, data, frame.gas

    # ------------------------------------------------------------ run loop

    def _run(self, frame: Frame) -> bytes:
        """Step until a halt; step counts are summed when the frame ends."""
        table = frame.analysis.table
        stack = frame.stack
        steps = 0
        try:
            while True:
                handler, arg, static_gas, min_stack, max_stack = table[frame.pc]
                steps += 1
                depth = len(stack)
                if depth < min_stack or depth > max_stack:
                    _stack_fault(handler, arg, min_stack, depth)
                gas = frame.gas - static_gas
                if gas < 0:
                    frame.gas = 0
                    raise OutOfGas(f"need {static_gas} gas at pc={frame.pc}")
                frame.gas = gas
                handler(self, frame, arg)
        except _Halt as halt:
            return halt.data
        finally:
            self.ops_executed += steps
            self.meter.ops += steps

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
    # argument its OPCODE_ENTRIES row (or, for PUSH0-32, the code analysis)
    # pre-computed; ``op`` arguments are the opcode byte, for the tracer.
    # The loop has checked the stack bounds and charged the static gas.

    def _op_stop(self, frame: Frame, op: int) -> None:
        if self.tracer is not None:
            self.tracer.trace_halt(frame, op, 0, 0)
        raise _Halt(b"")

    def _op_binary(self, frame: Frame, arg: tuple) -> None:
        op, gas_cost, fn = arg
        stack = frame.stack
        a = stack.pop()
        b = stack[-1]
        stack[-1] = result = fn(a, b)
        frame.pc += 1
        shadow = frame.shadow
        if shadow is not None:
            if (
                shadow[-1] is None
                and shadow[-2] is None
                and frame.shadow_state is not None
            ):
                del shadow[-1]  # constant operands fold to a constant
                self.meter.events += 1
            else:
                self.tracer.trace_alu(frame, op, (a, b), result, gas_cost, False)

    def _op_alu(self, frame: Frame, arg: tuple) -> None:
        op, pops, gas_cost, fn = arg
        operands = _pop_n(frame.stack, pops)
        result = fn(*operands)
        frame.stack.append(result)
        frame.pc += 1
        if self.tracer is not None:
            self.tracer.trace_alu(frame, op, operands, result, gas_cost, False)

    def _op_exp(self, frame: Frame, op: int) -> None:
        stack = frame.stack
        base = stack.pop()
        exponent = stack[-1]
        meter = self.meter
        exponent_bytes = (exponent.bit_length() + 7) // 8
        meter.compute_ns += meter.model.ns.exp_byte * exponent_bytes
        gas_cost = G.exp_gas(exponent)
        frame.charge(gas_cost)
        stack[-1] = result = prim.exp(base, exponent)
        frame.pc += 1
        if self.tracer is not None:
            self.tracer.trace_alu(frame, op, (base, exponent), result, gas_cost, True)

    def _op_sha3(self, frame: Frame, op: int) -> None:
        stack = frame.stack
        offset, size = stack.pop(), stack.pop()
        frame.charge(G.GAS_SHA3_PER_WORD * ((size + 31) // 32))
        self._expand(frame, offset, size)
        data = frame.memory.read(offset, size)
        result = int.from_bytes(self.hasher(data), "big")
        stack.append(result)
        frame.pc += 1
        meter = self.meter
        meter.compute_ns += meter.model.ns.hash(size)
        if self.tracer is not None:
            self.tracer.trace_sha3(frame, offset, size, data, result)

    # -- transaction-constant environment values ----------------------------

    def _op_tx_const(self, frame: Frame, arg: tuple) -> None:
        op, getter = arg
        value = getter(self, frame)
        frame.stack.append(value)
        frame.pc += 1
        shadow = frame.shadow
        if shadow is not None:
            shadow.append(None)
            self.meter.events += 1

    # -- account-state reads -------------------------------------------------

    def _touch(self, key) -> bool:
        """Mark an account or storage ``key`` warm (EIP-2929); True if cold."""
        view = self.view
        cold = not view.is_warm(key)
        view.mark_warm(key)
        return cold

    def _op_balance(self, frame: Frame, op: int) -> None:
        address = prim.word_to_address(frame.stack.pop())
        cold = self._touch(("a", address))
        gas_cost = G.GAS_ACCOUNT_COLD if cold else G.GAS_ACCOUNT_WARM
        frame.charge(gas_cost)
        key = balance_key(address)
        value = self.view.read(key)
        frame.stack.append(value)
        frame.pc += 1
        if self.tracer is not None:
            self.tracer.trace_sload(frame, key, value, gas_cost, operand_count=1)

    def _op_selfbalance(self, frame: Frame, op: int) -> None:
        key = balance_key(frame.msg.to)
        value = self.view.read(key)
        frame.stack.append(value)
        frame.pc += 1
        if self.tracer is not None:
            self.tracer.trace_sload(frame, key, value, G.GAS_FAST, operand_count=0)

    def _op_extcode(self, frame: Frame, arg: tuple) -> None:
        op, measure = arg
        address = prim.word_to_address(frame.stack.pop())
        cold = self._touch(("a", address))
        frame.charge(G.GAS_ACCOUNT_COLD if cold else G.GAS_ACCOUNT_WARM)
        # Code is immutable post-genesis: the result is constant per tx, so
        # the tracer treats it like an environment value.
        value = measure(self, self.view.peek_committed(code_key(address)))
        frame.stack.append(value)
        frame.pc += 1
        if self.tracer is not None:
            self.tracer.trace_alu(
                frame, op, (prim.address_to_word(address),), value,
                G.GAS_ACCOUNT_WARM, False,
            )

    def _op_blockhash(self, frame: Frame, op: int) -> None:
        number = frame.stack.pop()
        # Deterministic stand-in for ancestor hashes (only the most recent
        # 256 blocks resolve, as on mainnet).
        if 0 <= self.env.number - number <= 256 and number < self.env.number:
            value = int.from_bytes(
                self.hasher(b"blockhash:" + number.to_bytes(32, "big")), "big"
            )
        else:
            value = 0
        frame.stack.append(value)
        frame.pc += 1
        if self.tracer is not None:
            self.tracer.trace_alu(frame, op, (number,), value, G.GAS_EXT, False)

    # -- calldata and code ----------------------------------------------------

    def _op_calldataload(self, frame: Frame, op: int) -> None:
        stack = frame.stack
        offset = stack[-1]
        data = frame.msg.data
        chunk = data[offset : offset + 32] if offset < len(data) else b""
        stack[-1] = value = int.from_bytes(chunk.ljust(32, b"\x00"), "big")
        frame.pc += 1
        shadow = frame.shadow
        if shadow is not None:
            state = frame.shadow_state
            if shadow[-1] is None and state is not None and not state.calldata:
                self.meter.events += 1  # constant offset, constant call data
            else:
                self.tracer.trace_calldataload(frame, offset, value)

    def _op_copy(self, frame: Frame, arg: tuple) -> None:
        op, source = arg
        dest, src, size = _pop_n(frame.stack, 3)
        frame.charge(G.copy_gas(size))
        data = source(frame, src, size)
        self._expand(frame, dest, size)
        frame.memory.write(dest, data)
        frame.pc += 1
        meter = self.meter
        meter.compute_ns += meter.model.ns.copy(size)
        if self.tracer is not None:
            self.tracer.trace_copy(frame, op, dest, src, size, operand_count=3)

    # -- stack housekeeping ---------------------------------------------------
    #
    # A traced frame's shadow cells move with the values: a pushed constant
    # is a constant (None) cell, DUP copies its cell's definition, SWAP and
    # POP move and drop cells.

    def _op_pop(self, frame: Frame, op: int) -> None:
        frame.stack.pop()
        frame.pc += 1
        shadow = frame.shadow
        if shadow is not None:
            shadow.pop()
            self.meter.events += 1

    def _op_push(self, frame: Frame, arg: tuple[int, int]) -> None:
        value, next_pc = arg
        frame.stack.append(value)
        frame.pc = next_pc
        shadow = frame.shadow
        if shadow is not None:
            shadow.append(None)
            self.meter.events += 1

    def _op_dup(self, frame: Frame, n: int) -> None:
        stack = frame.stack
        stack.append(stack[-n])
        frame.pc += 1
        shadow = frame.shadow
        if shadow is not None:
            shadow.append(shadow[-n])
            self.meter.events += 1

    def _op_swap(self, frame: Frame, n: int) -> None:
        stack = frame.stack
        stack[-1], stack[-1 - n] = stack[-1 - n], stack[-1]
        frame.pc += 1
        shadow = frame.shadow
        if shadow is not None:
            shadow[-1], shadow[-1 - n] = shadow[-1 - n], shadow[-1]
            self.meter.events += 1

    # -- memory ----------------------------------------------------------------

    def _op_mload(self, frame: Frame, op: int) -> None:
        stack = frame.stack
        offset = stack[-1]
        self._expand(frame, offset, 32)
        stack[-1] = value = frame.memory.read_word(offset)
        frame.pc += 1
        shadow = frame.shadow
        if shadow is not None:
            state = frame.shadow_state
            if shadow[-1] is None and state is not None and not state.memory:
                self.meter.events += 1  # constant offset, constant memory
            else:
                self.tracer.trace_mload(frame, offset, value)

    def _op_mstore(self, frame: Frame, op: int) -> None:
        stack = frame.stack
        offset, value = stack.pop(), stack.pop()
        self._expand(frame, offset, 32)
        frame.memory.write_word(offset, value)
        frame.pc += 1
        shadow = frame.shadow
        if shadow is not None:
            state = frame.shadow_state
            if (
                shadow[-1] is None
                and shadow[-2] is None
                and state is not None
                and not state.memory
            ):
                del shadow[-2:]  # a constant into constant memory
                self.meter.events += 1
            else:
                self.tracer.trace_mstore(frame, offset, value)

    def _op_mstore8(self, frame: Frame, op: int) -> None:
        stack = frame.stack
        offset, value = stack.pop(), stack.pop()
        self._expand(frame, offset, 1)
        frame.memory.write_byte(offset, value)
        frame.pc += 1
        if self.tracer is not None:
            self.tracer.trace_mstore8(frame, offset, value)

    # -- storage ----------------------------------------------------------------

    def _op_sload(self, frame: Frame, op: int) -> None:
        slot = frame.stack.pop()
        key = storage_key(frame.msg.to, slot)
        cold = self._touch(key)
        gas_cost = G.sload_gas(cold)
        frame.charge(gas_cost)
        value = self.view.read(key)
        frame.stack.append(value)
        frame.pc += 1
        if self.tracer is not None:
            self.tracer.trace_sload(frame, key, value, gas_cost, operand_count=1)

    def _op_sstore(self, frame: Frame, op: int) -> None:
        if frame.msg.static:
            raise WriteProtection("SSTORE in a static call")
        stack = frame.stack
        slot, value = stack.pop(), stack.pop()
        key = storage_key(frame.msg.to, slot)
        cold = self._touch(key)
        current = self.view.read(key)
        gas_cost = G.sstore_gas(current, value, cold)
        frame.charge(gas_cost)
        self.view.write(key, value)
        frame.pc += 1
        if self.tracer is not None:
            self.tracer.trace_sstore(frame, key, value, gas_cost, current, cold)

    # -- control flow -------------------------------------------------------------

    def _op_jump(self, frame: Frame, op: int) -> None:
        dest = frame.stack.pop()
        if dest not in frame.analysis.jumpdests:
            raise InvalidJump(f"JUMP to non-JUMPDEST {dest}")
        shadow = frame.shadow
        if shadow is not None:
            if shadow[-1] is None and frame.shadow_state is not None:
                shadow.pop()  # a constant target needs no guard
                self.meter.events += 1
            else:
                self.tracer.trace_jump(frame, dest)
        frame.pc = dest

    def _op_jumpi(self, frame: Frame, op: int) -> None:
        stack = frame.stack
        dest, cond = stack.pop(), stack.pop()
        taken = cond != 0
        if taken and dest not in frame.analysis.jumpdests:
            raise InvalidJump(f"JUMPI to non-JUMPDEST {dest}")
        shadow = frame.shadow
        if shadow is not None:
            if (
                shadow[-1] is None
                and shadow[-2] is None
                and frame.shadow_state is not None
            ):
                del shadow[-2:]  # a constant target and condition
                self.meter.events += 1
            else:
                self.tracer.trace_jumpi(frame, dest, cond, taken)
        frame.pc = dest if taken else frame.pc + 1

    def _op_jumpdest(self, frame: Frame, op: int) -> None:
        frame.pc += 1

    # -- logging ---------------------------------------------------------------

    def _op_log(self, frame: Frame, topic_count: int) -> None:
        if frame.msg.static:
            raise WriteProtection("LOG in a static call")
        stack = frame.stack
        offset, size = stack.pop(), stack.pop()
        topics = tuple([stack.pop() for _ in range(topic_count)])
        frame.charge(G.log_gas(topic_count, size))
        self._expand(frame, offset, size)
        data = frame.memory.read(offset, size)
        record = LogRecord(frame.msg.to, topics, data)
        self.logs.append(record)
        frame.pc += 1
        if self.tracer is not None:
            self.tracer.trace_log(frame, record, topic_count, offset, size)

    # -- calls -------------------------------------------------------------------

    def _op_call(self, frame: Frame, arg: tuple) -> None:
        op, pops, delegate, static = arg
        operands = _pop_n(frame.stack, pops)
        static = frame.msg.static or static
        if pops == 7:  # CALL, the one that carries a value
            gas_req, to_word, value, args_off, args_size, ret_off, ret_size = operands
            if static and value != 0:
                raise WriteProtection("value-bearing CALL in a static context")
        else:  # DELEGATECALL and STATICCALL carry no value
            gas_req, to_word, args_off, args_size, ret_off, ret_size = operands
            value = 0

        if frame.msg.depth + 1 > CALL_DEPTH_LIMIT:
            raise EVMError("call depth limit exceeded")

        to = prim.word_to_address(to_word)
        frame.charge(G.call_gas(value, self._touch(("a", to))))
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

        meter = self.meter
        meter.compute_ns += meter.model.ns.call_frame

        # DELEGATECALL runs the target's code with the *current* frame's
        # address, storage, caller and value.
        parent = frame.msg
        msg = CallMessage(
            caller=parent.caller if delegate else parent.to,
            to=parent.to if delegate else to,
            value=parent.value if delegate else value,
            data=call_data,
            gas=callee_gas,
            static=static,
            depth=parent.depth + 1,
        )
        success, return_data, gas_left = self.call(msg, code_address=to)
        if not success and value > 0:
            # The callee's own writes were already rolled back by call();
            # unwind the value transfer as well.
            self.view.revert_to(transfer_mark)

        frame.gas += gas_left
        frame.return_data = return_data
        copy_size = min(ret_size, len(return_data))
        if copy_size:
            frame.memory.write(ret_off, return_data[:copy_size])
        frame.stack.append(1 if success else 0)
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

    def _op_halt(self, frame: Frame, arg: tuple) -> None:
        op, halt = arg
        offset, size = _pop_n(frame.stack, 2)
        self._expand(frame, offset, size)
        data = frame.memory.read(offset, size)
        if self.tracer is not None:
            self.tracer.trace_halt(frame, op, offset, size)
        raise halt(data)

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


def _returndata(frame: Frame, src: int, size: int) -> bytes:
    """RETURNDATACOPY's source: raises, before any memory expansion, on a
    read past the end of the return data."""
    if src + size > len(frame.return_data):
        raise EVMError("RETURNDATACOPY out of bounds")
    return frame.return_data[src : src + size]


def _code_hash(evm: EVM, code: bytes) -> int:
    """EXTCODEHASH's measure: charges the hash, 0 for an empty account."""
    meter = evm.meter
    meter.compute_ns += meter.model.ns.hash(len(code))
    return int.from_bytes(evm.hasher(code), "big") if code else 0


# The copy opcodes' sources, ``source(frame, src, size) -> bytes``: calldata
# and code read as zero past their end.
_COPY_SOURCES = {
    Op.CALLDATACOPY: lambda f, src, n: f.msg.data[src : src + n].ljust(n, b"\0"),
    Op.CODECOPY: lambda f, src, n: f.code[src : src + n].ljust(n, b"\0"),
    Op.RETURNDATACOPY: _returndata,
}

# EXTCODESIZE's and EXTCODEHASH's ``measure(evm, code) -> int``.
_CODE_MEASURES = {
    Op.EXTCODESIZE: lambda evm, code: len(code),
    Op.EXTCODEHASH: _code_hash,
}


def _pop_n(stack: list, n: int) -> tuple:
    """Pop ``n`` (>= 1) items the loop has checked are there; top first."""
    popped = tuple(stack[: -n - 1 : -1])
    del stack[-n:]
    return popped


def _stack_fault(handler, arg, min_stack: int, depth: int) -> None:
    """Raise the error of a step whose stack ``depth`` is out of its row's
    bounds: each handler family's class and message from before the table
    checked them (a push, one pop, n pops, DUPn, SWAPn, LOG's two pops)."""
    if depth >= min_stack:
        raise StackOverflow(f"stack limit of {STACK_LIMIT} exceeded")
    if handler is EVM._op_dup or handler is EVM._op_swap:
        name = "DUP" if handler is EVM._op_dup else "SWAP"
        raise StackUnderflow(f"{name}{arg} on stack of {depth}")
    if handler is EVM._op_log:  # its offset and size first, then its topics
        min_stack, depth = (2, depth) if depth < 2 else (arg, depth - 2)
    elif min_stack == 1 and handler is not EVM._op_alu:
        raise StackUnderflow("pop from empty stack")
    raise StackUnderflow(f"need {min_stack} stack items, have {depth}")


def _opcode_entries() -> tuple:
    """The ``(handler, arg, static_gas, min_stack, max_stack)`` row of each
    of the 256 opcodes, which ``analysis.analyse`` lays out per pc.

    Arguments are the opcode byte the tracer is handed (``code[pc]``) or a
    tuple that starts with it; DUPn, SWAPn and LOGn carry n.  PUSH0-32 carry
    no argument here: theirs is ``(immediate, next_pc)`` (PUSH0's immediate
    is 0), which only the analysis of a particular bytecode knows.  A byte
    with no row of its own gets ``_op_undefined``, which raises only if it
    is ever executed.  GAS, PC and the like go through ``_op_tx_const``:
    their values are constant for the transaction under the paper's
    gas-flow and control-flow guards.

    The last three columns are geth's ``constantGas`` / ``minStack`` /
    ``maxStack``: popping ``p`` and pushing ``q`` items needs ``p`` and
    overflows above ``STACK_LIMIT + p - q``.  EXP and LOG are priced whole
    by their handlers, as in geth, and so are the warmth-priced opcodes,
    whose warm mark must precede their charge (the warm set is not undone).
    """
    rows = {  # (handler, static_gas, pops, pushes)
        Op.STOP: (EVM._op_stop, 0, 0, 0),
        Op.EXP: (EVM._op_exp, 0, 2, 1),
        Op.SHA3: (EVM._op_sha3, G.GAS_SHA3_BASE, 2, 1),
        Op.BALANCE: (EVM._op_balance, 0, 1, 1),
        Op.SELFBALANCE: (EVM._op_selfbalance, G.GAS_FAST, 0, 1),
        Op.CALLDATALOAD: (EVM._op_calldataload, G.GAS_FASTEST, 1, 1),
        Op.POP: (EVM._op_pop, G.GAS_QUICK, 1, 0),
        Op.MLOAD: (EVM._op_mload, G.GAS_FASTEST, 1, 1),
        Op.MSTORE: (EVM._op_mstore, G.GAS_FASTEST, 2, 0),
        Op.MSTORE8: (EVM._op_mstore8, G.GAS_FASTEST, 2, 0),
        Op.SLOAD: (EVM._op_sload, 0, 1, 1),
        Op.SSTORE: (EVM._op_sstore, 0, 2, 0),
        Op.JUMP: (EVM._op_jump, G.GAS_MID, 1, 0),
        Op.JUMPI: (EVM._op_jumpi, G.GAS_HIGH, 2, 0),
        Op.JUMPDEST: (EVM._op_jumpdest, G.GAS_JUMPDEST, 0, 0),
        Op.BLOCKHASH: (EVM._op_blockhash, G.GAS_EXT, 1, 1),
        Op.INVALID: (EVM._op_invalid, 0, 0, 0),
    }
    # (handler, arg, static_gas, pops, pushes) until the last line.
    entries = [(EVM._op_undefined, opcode, 0, 0, 0) for opcode in range(256)]
    for op, (pops, gas) in ALU_OPS.items():  # EXP's row is replaced below
        if pops == 2:
            entries[op] = (EVM._op_binary, (int(op), gas, ALU_FUNCS[op]), gas, 2, 1)
        else:
            arg = (int(op), pops, gas, ALU_FUNCS[op])
            entries[op] = (EVM._op_alu, arg, gas, pops, 1)
    for op, gas in TX_CONST_OPS.items():
        entries[op] = (EVM._op_tx_const, (int(op), _TX_CONST_GETTERS[op]), gas, 0, 1)
    entries[Op.PUSH0] = (EVM._op_push, None, G.GAS_QUICK, 0, 1)
    for n in range(1, 33):
        entries[Op.PUSH0 + n] = (EVM._op_push, None, G.GAS_FASTEST, 0, 1)
    for n in range(1, 17):
        entries[Op.DUP1 + n - 1] = (EVM._op_dup, n, G.GAS_FASTEST, n, n + 1)
        entries[Op.SWAP1 + n - 1] = (EVM._op_swap, n, G.GAS_FASTEST, n + 1, n + 1)
    for n in range(5):
        entries[Op.LOG0 + n] = (EVM._op_log, n, 0, 2 + n, 0)
    for op, source in _COPY_SOURCES.items():
        entries[op] = (EVM._op_copy, (int(op), source), G.GAS_FASTEST, 3, 0)
    for op, measure in _CODE_MEASURES.items():
        entries[op] = (EVM._op_extcode, (int(op), measure), 0, 1, 1)
    for op, halt in ((Op.RETURN, _Halt), (Op.REVERT, Revert)):
        entries[op] = (EVM._op_halt, (int(op), halt), 0, 2, 0)
    for op, pops, delegate, static in (
        (Op.CALL, 7, False, False),
        (Op.DELEGATECALL, 6, True, False),
        (Op.STATICCALL, 6, False, True),
    ):
        entries[op] = (EVM._op_call, (int(op), pops, delegate, static), 0, pops, 1)
    for op, (handler, gas, pops, pushes) in rows.items():
        entries[op] = (handler, int(op), gas, pops, pushes)
    return tuple(
        (handler, arg, gas, pops, STACK_LIMIT + pops - pushes)
        for handler, arg, gas, pops, pushes in entries
    )


OPCODE_ENTRIES = _opcode_entries()


def execute_transaction(
    view: StateView,
    tx: Transaction,
    env: BlockEnv,
    tracer=None,
    hasher=None,
) -> TxResult:
    """Run one transaction against ``view`` (the paper's read phase body).

    Applies the full envelope: intrinsic gas, nonce bump, value transfer,
    bytecode execution, and the gas fee charge — all buffered in the view.
    The caller decides what to do with the view's read/write sets.  Every
    charge goes to the view's meter; ``tracer`` is bound to it here, before
    its first hook.  ``hasher`` is handed to the :class:`EVM` (plain
    ``keccak256`` when None).
    """
    meter = view.meter
    meter.compute_ns += meter.model.ns.tx_fixed
    if tracer is not None:
        tracer.bind(meter)

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
        # It writes nothing, but validation must see its nonce and balance
        # reads (a later re-fund), and redo must not replay the nonce bump
        # its log chains (2PL's access tracer keeps no log).
        if getattr(tracer, "log", None) is not None:
            tracer.log.redoable = False
        return TxResult(
            tx=tx, success=False, gas_used=0, error="insufficient funds",
            read_set=dict(view.read_set),
        )

    view.mark_warm(("a", tx.sender))
    evm = EVM(view, env, tx, tracer=tracer, hasher=hasher)

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
        duration_us=meter.total_us,
        ops_executed=evm.ops_executed,
    )
