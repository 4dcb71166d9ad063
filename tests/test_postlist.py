"""Post-queue tests: region insertion, head removal, markers, and the oracle.

The queue's whole contract is "stable sort by priority rank over append
order".  Hand-built nodes are labelled by ``arg_value``.
Hand-written cases pin down the production deque queue (``AsynchList``)
and the paper's region/marker mechanics (``MarkerList``, on its own
functional API).  The drain-order and oracle tests run every queue under
``AsynchList``'s in-place calls (``add``, ``remove_first`` and ``len``):
``AsynchList``, and ``MarkerList`` and ``OracleQueue`` each wrapped in
``InPlace``, cross-checked against the brute-force ``OracleQueue``.
The references and the audits (``audit`` and ``check_regions``) live in
``tests/refqueues.py``, not in the package.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from priopost import IntLit, Priority
from priopost.postlist import AsynchList, AsynchNode

from refqueues import InPlace, MarkerList, OracleQueue, audit, check_regions


def node(priority: Priority, label: int = 0) -> AsynchNode:
    """A hand-built node, told apart from others by its ``arg_value``."""
    return AsynchNode("m", IntLit(0), label, priority)


def build(*priorities: Priority, queue=None):
    """Add one node per priority, labelled 1, 2, ..., to ``queue`` (a new ``AsynchList``)."""
    queue = AsynchList() if queue is None else queue
    for i, p in enumerate(priorities, start=1):
        queue.add(node(p, i))
    return queue


def markers(*priorities: Priority) -> MarkerList:
    return build(*priorities, queue=InPlace(MarkerList())).queue


H, M, L = Priority.HIGH, Priority.MEDIUM, Priority.LOW

# Every queue under the interpreter's in-place calls, by name.
IN_PLACE = {
    "AsynchList": AsynchList,
    "MarkerList": lambda: InPlace(MarkerList()),
    "OracleQueue": lambda: InPlace(OracleQueue()),
}
QUEUES = pytest.mark.parametrize("make", IN_PLACE.values(), ids=list(IN_PLACE))


# ------------------------------------------------------------------- add

def test_add_high_to_empty():
    n = node(H, 1)
    li = MarkerList().add(n)
    assert li.to_sequence() == (n,)
    assert li.high_tail == 0
    assert li.medium_tail is None


def test_add_high_goes_after_high_region():
    li = markers(H, M, L)
    n = node(H, 4)
    out = li.add(n)
    assert [x.arg_value for x in out.to_sequence()] == [1, 4, 2, 3]
    assert out.high_tail == 1
    assert out.medium_tail == 2


def test_add_medium_between_high_and_low():
    li = markers(H, L)
    n = node(M, 3)
    out = li.add(n)
    assert [x.arg_value for x in out.to_sequence()] == [1, 3, 2]
    assert out.medium_tail == 1


def test_add_medium_to_empty_is_front():
    out = MarkerList().add(node(M, 1))
    assert out.high_tail is None
    assert out.medium_tail == 0


def test_add_low_always_appends():
    li = build(L, H, M)
    li.add(node(L, 4))
    assert [x.arg_value for x in li] == [2, 3, 1, 4]


def test_add_leaves_receiver_unchanged():
    li = markers(H, M)
    before = li.to_sequence()
    li.add(node(L))
    assert li.to_sequence() == before
    assert li.high_tail == 0 and li.medium_tail == 1


def test_nodes_and_lists_are_immutable():
    li = markers(H)
    with pytest.raises(AttributeError):
        li.high_tail = 5
    with pytest.raises(AttributeError):
        li.to_sequence()[0].arg_value = 99


# ---------------------------------------------------------------- remove

def test_remove_returns_head_and_rest():
    li = markers(H, M)
    head, rest = li.remove_first()
    assert head.arg_value == 1
    assert [x.arg_value for x in rest.to_sequence()] == [2]
    assert rest.high_tail is None and rest.medium_tail == 0


@pytest.mark.parametrize("p", [H, M, L])
def test_remove_of_singleton_restores_empty(p):
    n = node(p, 1)
    head, rest = MarkerList().add(n).remove_first()
    assert head is n
    assert len(rest) == 0
    assert rest.high_tail is None and rest.medium_tail is None


def test_remove_from_empty_raises():
    for make in IN_PLACE.values():
        with pytest.raises(IndexError):
            make().remove_first()


def test_asynch_list_updates_in_place():
    li = AsynchList()
    # ``add`` returns the receiver and ``nodes`` is the receiver: the
    # benchmark's queue hook reads the depth as ``len(add(node).nodes)``.
    assert li.add(node(L, 1)) is li
    assert li.add(node(H, 2)) is li
    assert li.nodes is li and len(li) == 2
    assert [x.arg_value for x in li] == [2, 1]
    assert li.remove_first().arg_value == 2
    assert [x.arg_value for x in li] == [1]


@QUEUES
def test_drain_order_mixed_priorities(make):
    # Posted L, H, M, H; dispatch order is the two highs FIFO, then M, then L.
    li = build(L, H, M, H, queue=make())
    assert [x.arg_value for x in li] == [2, 4, 3, 1]
    order = []
    while li:
        order.append(li.remove_first().arg_value)
    assert order == [2, 4, 3, 1]


def test_equal_priority_never_reordered():
    assert [x.arg_value for x in build(M, M, M)] == [1, 2, 3]


# -------------------------------------------------------------- invariants

def test_invariants_ok_on_constructed_lists():
    for make in IN_PLACE.values():
        assert audit(make()) == []
        assert audit(build(L, H, M, H, M, L, queue=make())) == []


def test_asynch_list_invariants_detect_each_fault():
    # Region membership is the one fault ``check_regions`` audits; FIFO
    # order within a region is checked from a run's trace, by ``check_trace``.
    wrong_region = build(H, M)
    wrong_region.regions[0].append(node(L, 3))
    assert check_regions(wrong_region) == ["node 1 of the rank-1 region has rank 3"]


def test_invariants_detect_region_disorder():
    bad = MarkerList((node(L, 1), node(H, 2)), high_tail=1, medium_tail=None)
    assert any("out of order" in v for v in bad.check_invariants())


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
def test_insert_order_matches_stable_sort(make, priorities):
    li = make()
    oracle = OracleQueue()
    for i, p in enumerate(priorities, start=1):
        n = node(p, i)
        li.add(n)
        oracle = oracle.add(n)
        assert audit(li) == []
        assert tuple(li) == oracle.to_sequence()


@QUEUES
@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.booleans(), PRIORITIES), max_size=60))
def test_mixed_ops_match_oracle(make, ops):
    li = make()
    oracle = OracleQueue()
    label = 0
    for is_add, p in ops:
        if is_add or not li:
            label += 1
            n = node(p, label)
            li.add(n)
            oracle = oracle.add(n)
        else:
            want, oracle = oracle.remove_first()
            assert li.remove_first() is want
        assert audit(li) == []
        assert tuple(li) == oracle.to_sequence()
    while li:
        want, oracle = oracle.remove_first()
        assert li.remove_first() is want
    assert len(oracle) == 0


@QUEUES
def test_long_random_drains_match_oracle(make):
    rng = random.Random(41)
    for _ in range(200):
        li = make()
        oracle = OracleQueue()
        for label in range(1, rng.randint(2, 100)):
            n = node(rng.choice([H, M, L]), label)
            li.add(n)
            oracle = oracle.add(n)
        drained = []
        while li:
            drained.append(li.remove_first())
        assert tuple(drained) == oracle.to_sequence()
