"""Test helper: the two reference post queues and the queue audits.

* ``MarkerList`` is the paper's structure: one immutable tuple with the
  positions of the last high and last medium node as region-tail
  markers.  ``add`` and ``remove_first`` return new lists and leave the
  receiver untouched; each copies the tuple, so a drain is quadratic in
  queue depth.
* ``OracleQueue`` is a deliberately naive reference (a flat bag in
  append order, dequeued by a stable sort on priority rank), the model
  of prioritized task buffers in one line.

No node carries a post number: first-posted first within a priority is
append order alone.  ``check_trace`` (``tests/reftrace.py``) replays a
run's trace on both, with nodes built from its ``post`` lines, so the
production queue is checked from the trace alone.

Both are immutable, with a functional API: ``add`` returns a new
queue, and ``remove_first`` returns the head with the remainder, or
raises ``IndexError`` on an empty queue, as ``AsynchList``'s does;
``InPlace`` holds one behind ``AsynchList``'s in-place calls, for the
queue-level tests.  Each audits itself with ``check_invariants``;
``check_regions`` audits an ``AsynchList`` from outside, through its
``regions``, and ``audit`` picks the right one for any queue under
test.
"""

from __future__ import annotations

from dataclasses import dataclass

from priopost import Priority
from priopost.postlist import AsynchNode


@dataclass(frozen=True)
class MarkerList:
    """The paper's post queue: an immutable tuple with region-tail markers.

    ``high_tail`` / ``medium_tail`` are the positions of the last high
    and last medium node (None when that region is empty); they are
    maintained incrementally by ``add`` and ``remove_first`` and can be
    audited with ``check_invariants``.  A high node is inserted right
    after the last high node (at the front when there is none), a medium
    node right after the last medium node (after the high region when
    there is none), and a low node at the end.
    """

    nodes: tuple[AsynchNode, ...] = ()
    high_tail: int | None = None
    medium_tail: int | None = None

    def __len__(self) -> int:
        return len(self.nodes)

    def to_sequence(self) -> tuple[AsynchNode, ...]:
        return self.nodes

    def add(self, node: AsynchNode) -> "MarkerList":
        """Insert a node at the tail of its priority region."""
        high_tail = self.high_tail
        medium_tail = self.medium_tail
        if node.priority is Priority.HIGH:
            pos = 0 if high_tail is None else high_tail + 1
            high_tail = pos
            # The medium region sits behind the high region, so it shifts.
            if medium_tail is not None:
                medium_tail += 1
        elif node.priority is Priority.MEDIUM:
            if medium_tail is not None:
                pos = medium_tail + 1
            elif high_tail is not None:
                pos = high_tail + 1
            else:
                pos = 0
            medium_tail = pos
        else:
            pos = len(self.nodes)
        nodes = self.nodes[:pos] + (node,) + self.nodes[pos:]
        return type(self)(nodes, high_tail, medium_tail)

    def remove_first(self) -> tuple[AsynchNode, "MarkerList"]:
        """Remove and return the head node together with the remainder."""
        if not self.nodes:
            raise IndexError("remove from empty post list")
        head = self.nodes[0]
        high_tail = self.high_tail
        medium_tail = self.medium_tail
        high_tail = None if high_tail in (None, 0) else high_tail - 1
        medium_tail = None if medium_tail in (None, 0) else medium_tail - 1
        return head, type(self)(self.nodes[1:], high_tail, medium_tail)

    def check_invariants(self) -> list[str]:
        """Audit region order and marker coherence.

        Returns a list of violation descriptions; empty means the list
        is well formed.  FIFO order within a region is checked by ``check_trace``.
        """
        violations = []
        ranks = [n.priority.rank for n in self.nodes]
        for i in range(1, len(ranks)):
            if ranks[i] < ranks[i - 1]:
                violations.append(f"priority regions out of order at position {i}")
        expect_high = max((i for i, r in enumerate(ranks) if r == Priority.HIGH.rank),
                          default=None)
        expect_medium = max((i for i, r in enumerate(ranks) if r == Priority.MEDIUM.rank),
                            default=None)
        if self.high_tail != expect_high:
            violations.append(f"high_tail is {self.high_tail}, expected {expect_high}")
        if self.medium_tail != expect_medium:
            violations.append(f"medium_tail is {self.medium_tail}, expected {expect_medium}")
        return violations


@dataclass(frozen=True)
class OracleQueue:
    """Brute-force reference queue: a flat bag, in append order, ordered on demand.

    Dequeue order is a stable ascending sort by priority rank: the sort
    keeps append order within a rank, so this is the whole behavioural
    contract of the post queue in one line.
    """

    entries: tuple[AsynchNode, ...] = ()

    def __len__(self) -> int:
        return len(self.entries)

    def to_sequence(self) -> tuple[AsynchNode, ...]:
        return tuple(sorted(self.entries, key=lambda n: n.priority.rank))

    def add(self, node: AsynchNode) -> "OracleQueue":
        return OracleQueue(self.entries + (node,))

    def remove_first(self) -> tuple[AsynchNode, "OracleQueue"]:
        if not self.entries:
            raise IndexError("remove from empty post list")
        entries = self.entries
        i = min(range(len(entries)), key=lambda i: entries[i].priority.rank)
        return entries[i], OracleQueue(entries[:i] + entries[i + 1:])

    def check_invariants(self) -> list[str]:
        """A flat bag ordered on demand has no invariant to break."""
        return []


class InPlace:
    """An immutable reference queue behind ``AsynchList``'s in-place calls.

    ``add`` and ``remove_first`` rebind ``queue`` to the queue the
    reference returns, so ``InPlace(MarkerList())`` can be tested beside
    ``AsynchList``.  Iteration (in dispatch order) reads the wrapped queue.
    """

    __slots__ = ("queue",)

    def __init__(self, queue):
        self.queue = queue

    def __len__(self) -> int:
        return len(self.queue)

    def __iter__(self):
        return iter(self.queue.to_sequence())

    def add(self, node: AsynchNode):
        self.queue = self.queue.add(node)

    def remove_first(self) -> AsynchNode:
        node, self.queue = self.queue.remove_first()
        return node


def check_regions(queue) -> list[str]:
    """Audit an ``AsynchList``'s ``regions``: each node is in its priority's
    region.  FIFO order within a region is checked by ``check_trace``.

    Returns a list of violation descriptions; empty means the queue is
    well formed.
    """
    return [f"node {i} of the rank-{rank} region has rank {n.priority.rank}"
            for rank, region in enumerate(queue.regions, start=1)
            for i, n in enumerate(region) if n.priority.rank != rank]


def audit(queue) -> list[str]:
    """Violations in any queue under test: a wrapped reference's own
    ``check_invariants``, or ``check_regions`` of an ``AsynchList``."""
    if isinstance(queue, InPlace):
        return queue.queue.check_invariants()
    return check_regions(queue)
