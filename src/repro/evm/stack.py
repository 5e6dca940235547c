"""The EVM word stack (1024 items max, 256-bit unsigned words)."""

from __future__ import annotations

from ..errors import StackOverflow, StackUnderflow

STACK_LIMIT = 1024


class Stack:
    """A plain list-backed stack with EVM bounds checking.

    Item 0 of :meth:`peek` is the top of the stack, matching how the yellow
    paper numbers DUP/SWAP operands.
    """

    __slots__ = ("_items",)

    def __init__(self) -> None:
        self._items: list[int] = []

    def push(self, value: int) -> None:
        if len(self._items) >= STACK_LIMIT:
            raise StackOverflow(f"stack limit of {STACK_LIMIT} exceeded")
        self._items.append(value)

    def pop(self) -> int:
        if not self._items:
            raise StackUnderflow("pop from empty stack")
        return self._items.pop()

    def pop_n(self, n: int) -> tuple[int, ...]:
        """Pop ``n`` items; result[0] is the value that was on top."""
        if n == 0:  # LOG0's topics; `del items[-0:]` would clear the stack
            return ()
        if len(self._items) < n:
            raise StackUnderflow(f"need {n} stack items, have {len(self._items)}")
        popped = tuple(self._items[-1 : -n - 1 : -1])
        del self._items[-n:]
        return popped

    def peek(self, depth: int = 0) -> int:
        """Read the item ``depth`` positions below the top without popping."""
        if len(self._items) <= depth:
            raise StackUnderflow(f"peek depth {depth} beyond stack size")
        return self._items[-1 - depth]

    def dup(self, n: int) -> int:
        """DUPn: push a copy of the n-th item (1-based from the top)."""
        if len(self._items) < n:
            raise StackUnderflow(f"DUP{n} on stack of {len(self._items)}")
        value = self._items[-n]
        self.push(value)
        return value

    def swap(self, n: int) -> None:
        """SWAPn: exchange the top with the (n+1)-th item (1-based)."""
        if len(self._items) < n + 1:
            raise StackUnderflow(f"SWAP{n} on stack of {len(self._items)}")
        self._items[-1], self._items[-1 - n] = self._items[-1 - n], self._items[-1]

    def __len__(self) -> int:
        return len(self._items)

    def as_list(self) -> list[int]:
        """Bottom-to-top snapshot (tests and debugging)."""
        return list(self._items)
