"""The post queue: posted calls in three priority regions.

Posted calls are split into a high, a medium and a low region.  A new
node joins the tail of its priority region, and dispatch removes the
head of the first region that is not empty, so the observable order is:
ascending priority rank, first-posted first within a rank.

``AsynchList`` is that queue: one FIFO deque per region, updated in
place, so ``add`` and ``remove_first`` are O(1) at any depth.  The
interpreter's drain ends when all three regions are empty.
"""

from __future__ import annotations

from collections import deque, namedtuple
from collections.abc import Iterator
from itertools import chain


class AsynchNode(namedtuple("AsynchNode", "method arg_expr arg_value priority")):
    """One posted call: target method, argument, its post-time value and priority."""
    __slots__ = ()


class AsynchList:
    """Production post queue: one FIFO deque per priority region.

    ``regions`` holds the high, medium and low deques, in dispatch
    order.  The interpreter makes two calls on its queue, ``add(node)``
    and ``remove_first()``, and ends its drain when all three regions
    are empty.  ``len`` and iteration are for inspection.
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
        """Remove and return the head node; ``IndexError`` on an empty queue."""
        high, medium, low = self.regions
        return (high or medium or low).popleft()
