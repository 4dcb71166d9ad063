"""The post queue: posted calls in three priority regions.

Posted calls are split into a high, a medium and a low region.  A new
node joins the tail of its priority region, and dispatch removes the
head of the first region that is not empty, so the observable order is:
ascending priority rank, first-posted first within a rank.

``AsynchList`` is that queue: one FIFO deque per region, updated in
place, so ``add`` and ``remove_first`` are O(1) at any depth.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterator
from itertools import chain
from typing import NamedTuple

from .syntax import Expr, Priority


class EmptyListError(Exception):
    """Raised when removing from an empty post queue."""


class AsynchNode(NamedTuple):
    """One posted call: target method, argument, and its post-time value.

    ``seq`` is a program-wide counter (first post is 1) that breaks
    priority ties first-come-first-served.
    """

    method: str
    arg_expr: Expr
    arg_value: int
    priority: Priority
    seq: int


class AsynchList:
    """Production post queue: one FIFO deque per priority region.

    ``regions`` holds the high, medium and low deques, in dispatch
    order.  ``Interpreter(program, postlist=...)`` makes two calls on
    its queue: ``add(node)``, whose return value it ignores, and
    ``remove_first()``, which removes and returns the head node and
    raises ``EmptyListError``, the drain's end, on an empty queue.
    Another queue in its place must update itself in place: an
    immutable one is not supported, and the tests wrap theirs in a
    holder that rebinds it.  ``len`` and iteration are for inspection.
    """

    __slots__ = ("regions",)

    def __init__(self):
        self.regions = (deque(), deque(), deque())

    @property
    def nodes(self) -> "AsynchList":
        """Dispatch-order live view, kept for the benchmark's queue hook."""
        return self

    def __iter__(self) -> Iterator[AsynchNode]:
        return chain.from_iterable(self.regions)

    def __len__(self) -> int:
        high, medium, low = self.regions
        return len(high) + len(medium) + len(low)

    def add(self, node: AsynchNode) -> "AsynchList":
        """Append a node to the tail of its priority region, in place; the
        receiver is returned only for the benchmark's queue hook.
        """
        self.regions[node.priority.rank - 1].append(node)
        return self

    def remove_first(self) -> AsynchNode:
        """Remove and return the head node."""
        for region in self.regions:
            if region:
                return region.popleft()
        raise EmptyListError("remove from empty post list")
