"""A from-scratch 256-bit EVM.

The interpreter implements the stack machine of the yellow paper: volatile
byte-addressable memory, persistent key-value storage, 1024-deep word stack,
gas accounting with the dynamic costs that matter to the paper (cold/warm
SLOAD, value-dependent SSTORE, memory expansion, EXP, CALL), and nested
message calls.  Each distinct bytecode is decoded once (repro.evm.analysis:
JUMPDEST set + a pre-decoded dispatch table, memoised by the code bytes, as
geth analyses a contract once per code hash), so a frame starts executing
without scanning its code and a step dispatches without classifying its
opcode.  It exposes tracer hooks at every semantic step so
ParallelEVM's SSA-operation-log generator (repro.core.tracer) can maintain
its shadow stack and shadow memory in lockstep, exactly as §5.2 describes
for the Go Ethereum prototype.
"""

from .opcodes import Op, opcode_name
from .stack import Stack
from .memory import Memory
from .message import Transaction, TxResult, BlockEnv, CallMessage, LogRecord
from .interpreter import execute_transaction, EVM
from .assembler import assemble

__all__ = [
    "Op",
    "opcode_name",
    "Stack",
    "Memory",
    "Transaction",
    "TxResult",
    "BlockEnv",
    "CallMessage",
    "LogRecord",
    "execute_transaction",
    "EVM",
    "assemble",
]
