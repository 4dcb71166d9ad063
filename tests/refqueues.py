"""Test helper: the two reference post queues and their in-place holder.

The interpreter takes any queue updated in place through
``Interpreter(program, postlist=...)``; the tests plug these two in,
each wrapped in ``InPlace``, to cross-check the production
``AsynchList``:

* ``MarkerList`` is the paper's structure: one immutable tuple with the
  positions of the last high and last medium node as region-tail
  markers.  ``add`` and ``remove_first`` return new lists and leave the
  receiver untouched; each copies the tuple, so a drain is quadratic in
  queue depth.
* ``OracleQueue`` is a deliberately naive reference (a flat bag
  dequeued by a stable sort on ``(rank, seq)``) used to cross-check the
  other two.

Both are immutable, with a functional API: ``add`` returns a new
queue, and ``remove_first`` returns the head with the remainder.
"""

from __future__ import annotations

from dataclasses import dataclass

from priopost import AsynchNode, EmptyListError, Priority


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
            raise EmptyListError("remove from empty post list")
        head = self.nodes[0]
        high_tail = self.high_tail
        medium_tail = self.medium_tail
        high_tail = None if high_tail in (None, 0) else high_tail - 1
        medium_tail = None if medium_tail in (None, 0) else medium_tail - 1
        return head, type(self)(self.nodes[1:], high_tail, medium_tail)

    def check_invariants(self) -> list[str]:
        """Audit region order, FIFO order, and marker coherence.

        Returns a list of violation descriptions; empty means the list
        is well formed.
        """
        violations = []
        ranks = [n.priority.rank for n in self.nodes]
        for i in range(1, len(ranks)):
            if ranks[i] < ranks[i - 1]:
                violations.append(f"priority regions out of order at position {i}")
        seqs = [n.seq for n in self.nodes]
        if len(set(seqs)) != len(seqs):
            violations.append("duplicate seq values")
        by_rank: dict[int, list[int]] = {}
        for n in self.nodes:
            by_rank.setdefault(n.priority.rank, []).append(n.seq)
        for rank, region_seqs in by_rank.items():
            if region_seqs != sorted(region_seqs):
                violations.append(f"rank-{rank} region is not in post order")
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
    """Brute-force reference queue: a flat bag ordered on demand.

    Dequeue order is a stable ascending sort by ``(priority rank,
    seq)``, which is the whole behavioural contract of the post queue
    in one line.
    """

    entries: tuple[AsynchNode, ...] = ()

    def __len__(self) -> int:
        return len(self.entries)

    def to_sequence(self) -> tuple[AsynchNode, ...]:
        return tuple(sorted(self.entries, key=lambda n: (n.priority.rank, n.seq)))

    def add(self, node: AsynchNode) -> "OracleQueue":
        return OracleQueue(self.entries + (node,))

    def remove_first(self) -> tuple[AsynchNode, "OracleQueue"]:
        if not self.entries:
            raise EmptyListError("remove from empty post list")
        head = min(self.entries, key=lambda n: (n.priority.rank, n.seq))
        i = self.entries.index(head)
        return head, OracleQueue(self.entries[:i] + self.entries[i + 1:])

    def check_invariants(self) -> list[str]:
        """A flat bag has one invariant: no seq is queued twice."""
        seqs = [n.seq for n in self.entries]
        return [] if len(set(seqs)) == len(seqs) else ["duplicate seq values"]


class InPlace:
    """An immutable reference queue behind the interpreter's in-place calls.

    ``add`` and ``remove_first`` rebind ``queue`` to the queue the
    reference returns, so ``InPlace(MarkerList())`` can be passed as
    ``Interpreter``'s ``postlist`` or tested beside ``AsynchList``.
    Iteration (in dispatch order) and ``check_invariants`` read the
    wrapped queue.
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

    def check_invariants(self) -> list[str]:
        return self.queue.check_invariants()
