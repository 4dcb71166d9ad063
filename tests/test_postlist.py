"""Post-queue tests: region insertion, head removal, markers, and the oracle.

The queue's whole contract is "stable sort by (priority rank, post seq)".
Hand-written cases pin down the production deque queue (``AsynchList``)
and the paper's region/marker mechanics (``MarkerList``); randomized op
sequences cross-check both against the brute-force ``OracleQueue``.
The two references live in ``tests/refqueues.py``, not in the package.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from priopost import (
    AsynchList,
    AsynchNode,
    EmptyListError,
    IntLit,
    Priority,
)

from refqueues import MarkerList, OracleQueue


_seq_counter = 0


def node(priority: Priority, seq: int | None = None) -> AsynchNode:
    global _seq_counter
    if seq is None:
        _seq_counter += 1
        seq = _seq_counter
    return AsynchNode("m", IntLit(0), 0, priority, seq)


def build(*priorities: Priority, queue=AsynchList):
    li = queue.empty()
    for i, p in enumerate(priorities, start=1):
        li = li.add(node(p, seq=i))
    return li


H, M, L = Priority.HIGH, Priority.MEDIUM, Priority.LOW

QUEUES = pytest.mark.parametrize("queue", [AsynchList, MarkerList],
                                 ids=lambda queue: queue.__name__)


# ------------------------------------------------------------------- add

def test_add_high_to_empty():
    n = node(H, seq=1)
    li = MarkerList.empty().add(n)
    assert li.to_sequence() == (n,)
    assert li.high_tail == 0
    assert li.medium_tail is None


def test_add_high_goes_after_high_region():
    li = build(H, M, L, queue=MarkerList)
    n = node(H, seq=4)
    out = li.add(n)
    assert [x.seq for x in out.to_sequence()] == [1, 4, 2, 3]
    assert out.high_tail == 1
    assert out.medium_tail == 2


def test_add_medium_between_high_and_low():
    li = build(H, L, queue=MarkerList)
    n = node(M, seq=3)
    out = li.add(n)
    assert [x.seq for x in out.to_sequence()] == [1, 3, 2]
    assert out.medium_tail == 1


def test_add_medium_to_empty_is_front():
    out = MarkerList.empty().add(node(M, seq=1))
    assert out.high_tail is None
    assert out.medium_tail == 0


def test_add_low_always_appends():
    li = build(L, H, M)
    out = li.add(node(L, seq=4))
    assert [x.seq for x in out.to_sequence()] == [2, 3, 1, 4]


def test_add_leaves_receiver_unchanged():
    li = build(H, M, queue=MarkerList)
    before = li.to_sequence()
    li.add(node(L))
    assert li.to_sequence() == before
    assert li.high_tail == 0 and li.medium_tail == 1


def test_nodes_and_lists_are_immutable():
    li = build(H, queue=MarkerList)
    with pytest.raises(AttributeError):
        li.high_tail = 5
    with pytest.raises(AttributeError):
        li.to_sequence()[0].seq = 99


# ---------------------------------------------------------------- remove

def test_remove_returns_head_and_rest():
    li = build(H, M, queue=MarkerList)
    head, rest = li.remove_first()
    assert head.seq == 1
    assert [x.seq for x in rest.to_sequence()] == [2]
    assert rest.high_tail is None and rest.medium_tail == 0


@pytest.mark.parametrize("p", [H, M, L])
def test_remove_of_singleton_restores_empty(p):
    n = node(p, seq=1)
    head, rest = MarkerList.empty().add(n).remove_first()
    assert head == n
    assert rest.is_empty()
    assert rest.high_tail is None and rest.medium_tail is None


def test_remove_from_empty_raises():
    with pytest.raises(EmptyListError):
        AsynchList.empty().remove_first()
    with pytest.raises(EmptyListError):
        MarkerList.empty().remove_first()
    with pytest.raises(EmptyListError):
        OracleQueue.empty().remove_first()


def test_asynch_list_updates_and_returns_the_receiver():
    li = AsynchList.empty()
    assert li.add(node(L, seq=1)) is li
    assert li.add(node(H, seq=2)) is li
    assert li.nodes is li and len(li.nodes) == 2
    assert [x.seq for x in li.nodes] == [2, 1]
    head, rest = li.remove_first()
    assert head.seq == 2 and rest is li
    assert [x.seq for x in li.to_sequence()] == [1]


@QUEUES
def test_drain_order_mixed_priorities(queue):
    # Posted L, H, M, H; dispatch order is the two highs FIFO, then M, then L.
    li = build(L, H, M, H, queue=queue)
    assert [x.seq for x in li.to_sequence()] == [2, 4, 3, 1]
    order = []
    while not li.is_empty():
        head, li = li.remove_first()
        order.append(head.seq)
    assert order == [2, 4, 3, 1]


def test_equal_priority_never_reordered():
    li = build(M, M, M)
    assert [x.seq for x in li.to_sequence()] == [1, 2, 3]


# -------------------------------------------------------------- invariants

def test_invariants_ok_on_constructed_lists():
    for queue in (AsynchList, MarkerList):
        assert queue.empty().check_invariants() == []
        assert build(L, H, M, H, M, L, queue=queue).check_invariants() == []


def test_asynch_list_invariants_detect_each_fault():
    wrong_region = AsynchList.empty()
    wrong_region.regions[0].append(node(L, 1))
    assert wrong_region.check_invariants() == ["seq 1 of rank 3 is in the rank-1 region"]
    out_of_order = AsynchList.empty()
    out_of_order.regions[1].extend([node(M, 2), node(M, 1)])
    assert out_of_order.check_invariants() == ["rank-2 region is not in post order"]
    duplicate = build(H, L)
    duplicate.regions[1].append(node(M, 1))
    assert duplicate.check_invariants() == ["duplicate seq values"]


def test_invariants_detect_region_disorder():
    bad = MarkerList((node(L, 1), node(H, 2)), high_tail=1, medium_tail=None)
    assert any("out of order" in v for v in bad.check_invariants())


def test_invariants_detect_fifo_violation():
    bad = MarkerList((node(H, 2), node(H, 1)), high_tail=1, medium_tail=None)
    assert any("post order" in v for v in bad.check_invariants())


def test_invariants_detect_duplicate_seq():
    bad = MarkerList((node(H, 1), node(M, 1)), high_tail=0, medium_tail=1)
    assert any("duplicate" in v for v in bad.check_invariants())


def test_invariants_detect_stale_markers():
    bad = MarkerList((node(H, 1),), high_tail=None, medium_tail=None)
    assert any("high_tail" in v for v in bad.check_invariants())
    bad = MarkerList((node(M, 1),), high_tail=None, medium_tail=3)
    assert any("medium_tail" in v for v in bad.check_invariants())


# ------------------------------------------------------------------ oracle

PRIORITIES = st.sampled_from([H, M, L])


@QUEUES
@settings(max_examples=200, deadline=None)
@given(st.lists(PRIORITIES, max_size=40))
def test_insert_order_matches_stable_sort(queue, priorities):
    li = queue.empty()
    oracle = OracleQueue.empty()
    for i, p in enumerate(priorities, start=1):
        n = node(p, seq=i)
        li, oracle = li.add(n), oracle.add(n)
        assert li.check_invariants() == []
        assert li.to_sequence() == oracle.to_sequence()


@QUEUES
@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.booleans(), PRIORITIES), max_size=60))
def test_mixed_ops_match_oracle(queue, ops):
    li = queue.empty()
    oracle = OracleQueue.empty()
    seq = 0
    for is_add, p in ops:
        if is_add or li.is_empty():
            seq += 1
            n = node(p, seq=seq)
            li, oracle = li.add(n), oracle.add(n)
        else:
            got, li = li.remove_first()
            want, oracle = oracle.remove_first()
            assert got == want
        assert li.check_invariants() == []
        assert li.to_sequence() == oracle.to_sequence()
    while not li.is_empty():
        got, li = li.remove_first()
        want, oracle = oracle.remove_first()
        assert got == want
    assert oracle.is_empty()


@QUEUES
def test_long_random_drains_match_oracle(queue):
    rng = random.Random(41)
    for _ in range(200):
        li = queue.empty()
        oracle = OracleQueue.empty()
        for seq in range(1, rng.randint(2, 100)):
            n = node(rng.choice([H, M, L]), seq=seq)
            li, oracle = li.add(n), oracle.add(n)
        drained = []
        while not li.is_empty():
            head, li = li.remove_first()
            drained.append(head)
        assert tuple(drained) == oracle.to_sequence()
