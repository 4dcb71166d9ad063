"""The post queue: posted calls in three priority regions.

Posted calls are split into a high, a medium and a low region.  A new
node joins the tail of its priority region, and dispatch removes the
head of the first region that is not empty, so the observable order is:
ascending priority rank, first-posted first within a rank.

``AsynchList`` is that queue: one FIFO deque per region, updated in
place, so ``add`` and ``remove_first`` are O(1) at any depth.  Each
returns the queue to continue with (the receiver), which lets
``Interpreter(program, postlist=...)`` run on any other queue with the
same calls, such as a reference queue under test.
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
    order.  ``add`` and ``remove_first`` update them in place and return
    the receiver; ``check_invariants`` audits them.

    The interpreter makes three calls on whatever queue it is given:
    ``is_empty()``, ``add(node)``, which returns the queue to continue
    with, and ``remove_first()``, which returns the head node and the
    queue to continue with.
    """

    __slots__ = ("regions",)

    def __init__(self):
        self.regions = (deque(), deque(), deque())

    @classmethod
    def empty(cls) -> "AsynchList":
        return cls()

    @property
    def nodes(self) -> "AsynchList":
        """The queued nodes in dispatch order: a live view with O(1) ``len``."""
        return self

    def __iter__(self) -> Iterator[AsynchNode]:
        return chain.from_iterable(self.regions)

    def __len__(self) -> int:
        high, medium, low = self.regions
        return len(high) + len(medium) + len(low)

    def is_empty(self) -> bool:
        high, medium, low = self.regions
        return not (high or medium or low)

    def to_sequence(self) -> tuple[AsynchNode, ...]:
        return tuple(self)

    def add(self, node: AsynchNode) -> "AsynchList":
        """Append a node to the tail of its priority region; return the receiver."""
        self.regions[node.priority.rank - 1].append(node)
        return self

    def remove_first(self) -> tuple[AsynchNode, "AsynchList"]:
        """Remove and return the head node together with the receiver."""
        for region in self.regions:
            if region:
                return region.popleft(), self
        raise EmptyListError("remove from empty post list")

    def check_invariants(self) -> list[str]:
        """Audit region membership, FIFO order, and seq uniqueness.

        Returns a list of violation descriptions; empty means the queue
        is well formed.
        """
        violations = []
        seen: set[int] = set()
        for rank, region in enumerate(self.regions, start=1):
            for n in region:
                if n.priority.rank != rank:
                    violations.append(f"seq {n.seq} of rank {n.priority.rank} "
                                      f"is in the rank-{rank} region")
            seqs = [n.seq for n in region]
            if seqs != sorted(seqs):
                violations.append(f"rank-{rank} region is not in post order")
            seen.update(seqs)
        if len(seen) != len(self):
            violations.append("duplicate seq values")
        return violations
