"""Acceptance suite: nine criteria, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines.
Every criterion is checked against an independent oracle: hand-computed
traces for the targeted programs, the brute-force ``OracleQueue`` for
queue order, a replay of each run's logged queue calls on it and on the
paper's ``MarkerList`` (both from ``tests/refqueues.py``), a reparse
oracle for printing, and differential runs for the dead-post analysis.
Randomized corpora use fixed seeds, so results are reproducible byte
for byte.
"""

import functools
import random
import time
from pathlib import Path

import pytest

from priopost import (
    DEFAULT_BUDGET,
    Failed,
    Finished,
    IntLit,
    Interpreter,
    Priority,
    dead_posts,
    parse_program,
    pretty_print,
    run_program,
    trace_to_jsonl,
    validate_scopes,
)
from priopost.postlist import AsynchList, AsynchNode

from deadstrip import strip_dead_posts
from progen import gen_programs
from refjson import events
from refqueues import InPlace, OracleQueue, check_regions, check_replay, log_regions

PROGRAMS = Path(__file__).resolve().parent.parent / "programs"


def criterion(cid: str, title: str):
    """Print one verdict line for an acceptance criterion."""
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"{cid}: FAIL - {title}")
                raise
            print(f"{cid}: PASS - {title}")
        return wrapper
    return deco


@pytest.fixture(scope="module")
def corpus():
    """1000 random programs, reparsed so every node has a real position."""
    return [parse_program(pretty_print(p))
            for p in gen_programs(seed=20250811, count=1000)]


def event_tuples(trace):
    return [(e.seq, e.kind, e.method, e.value,
             e.priority.keyword if e.priority else None) for e in trace]


# --------------------------------------------------------------------- A1

A1_SRC = """
global g;
meth a(x) { if x { g := g * 10 + 1; } else { } }
meth b(x) { if x { g := g * 10 + 2; } else { } }
meth c(x) { if x { g := g * 10 + 3; } else { } }
meth main(x) {
    synch(a(1), low);
    synch(b(1), high);
    synch(c(1), medium);
}
"""


@criterion("A1", "priority order: high before medium before low")
def test_a1_priority_order():
    started = time.perf_counter()
    out = run_program(parse_program(A1_SRC))
    assert isinstance(out, Finished)
    assert out.global_value == 231

    expected = []
    for name in ("a", "b", "c"):
        expected += [("method-start", name), ("return", name), ("method-end", name)]
    expected += [("method-start", "main"),
                 ("post", "a"), ("post", "b"), ("post", "c"),
                 ("return", "main"), ("method-end", "main")]
    for name in ("b", "c", "a"):
        expected += [("dispatch", name), ("assign-global", name), ("return", name)]
    assert [(e["kind"], e["method"]) for e in events(out)] == expected

    dispatched = [(e["method"], e["priority"]) for e in events(out) if e["kind"] == "dispatch"]
    assert dispatched == [("b", Priority.HIGH.keyword), ("c", Priority.MEDIUM.keyword),
                          ("a", Priority.LOW.keyword)]
    assert time.perf_counter() - started < 1.0


# --------------------------------------------------------------------- A2

def a2_source() -> str:
    methods = [
        f"meth p{i}(x) {{ if x {{ g := g * 10 + {i}; }} else {{ }} }}"
        for i in range(10)
    ]
    posts = "".join(f" synch(p{i}(1), high);" for i in range(10))
    return "global g;\n" + "\n".join(methods) + f"\nmeth main(x) {{{posts} }}\n"


@criterion("A2", "FIFO within one priority: ten high posts run in post order")
def test_a2_fifo_within_priority():
    started = time.perf_counter()
    out = run_program(parse_program(a2_source()))
    assert isinstance(out, Finished)
    assert out.global_value == 123456789

    # The full expected trace, event by event.
    expected = []
    for i in range(10):
        expected += [("method-start", f"p{i}", None, None),
                     ("return", f"p{i}", None, None),
                     ("method-end", f"p{i}", None, None)]
    expected.append(("method-start", "main", None, None))
    expected += [("post", f"p{i}", 1, "high") for i in range(10)]
    expected += [("return", "main", None, None), ("method-end", "main", None, None)]
    value = 0
    for i in range(10):
        value = value * 10 + i
        expected += [("dispatch", f"p{i}", 1, "high"),
                     ("assign-global", f"p{i}", value, None),
                     ("return", f"p{i}", None, None)]
    got = [(e["kind"], e["method"], e.get("value"), e.get("priority")) for e in events(out)]
    assert got == expected
    assert time.perf_counter() - started < 1.0


# --------------------------------------------------------------------- A3

@criterion("A3", "queue matches the stable-sort oracle on 10^4 op sequences")
def test_a3_queue_oracle_equivalence():
    started = time.perf_counter()
    priorities = (Priority.HIGH, Priority.MEDIUM, Priority.LOW)
    arg = IntLit(0)
    rng = random.Random(13)
    for _ in range(10_000):
        li = AsynchList()
        oracle = InPlace(OracleQueue())
        label = 0  # each node's ``arg_value``, so no two are equal
        for _ in range(rng.randint(1, 100)):
            if not li or rng.random() < 0.6:
                label += 1
                node = AsynchNode("m", arg, label, rng.choice(priorities))
                li.add(node)
                oracle.add(node)
            else:
                assert li.remove_first() is oracle.remove_first()
        assert tuple(li) == tuple(oracle)
        assert check_regions(li) == []
        while li:
            assert li.remove_first() is oracle.remove_first()
        assert len(oracle) == 0
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"took {elapsed:.1f}s"


# --------------------------------------------------------------------- A4

@criterion("A4", "the deque queue's logged runs replay on the marker and oracle queues")
def test_a4_scheduler_representation_equivalence(corpus):
    samples = [(parse_program(path.read_text(encoding="utf-8")), 10_000)
               for path in sorted(PROGRAMS.glob("*.ap"))]
    for program, budget in [(p, DEFAULT_BUDGET) for p in corpus] + samples:
        interp = Interpreter(program, budget)
        log = log_regions(interp)
        outcome = interp.run()
        left = tuple(interp.postlist)
        assert left == () or isinstance(outcome, Failed), pretty_print(program)
        # Each dispatch removed the node either reference would have removed,
        # so a run on either would have made this run's trace, byte for byte.
        check_replay(log, left)


# --------------------------------------------------------------------- A5

@criterion("A5", "parse(pretty_print(ast)) is structurally equal on 10^3 ASTs")
def test_a5_parser_round_trip():
    for ast in gen_programs(seed=909, count=1000):
        assert validate_scopes(ast) == []
        assert parse_program(pretty_print(ast)) == ast, pretty_print(ast)


# --------------------------------------------------------------------- A6

@criterion("A6", "identical inputs give byte-identical outcomes and traces")
def test_a6_determinism(corpus):
    def render(program):
        outcome = run_program(program)
        if isinstance(outcome, Finished):
            stdout = str(outcome.global_value)
        else:
            stdout = f"{outcome.kind}@{outcome.line}:{outcome.col}"
        return stdout, trace_to_jsonl(outcome)

    for program in corpus:
        assert render(program) == render(program)


# --------------------------------------------------------------------- A7

def stack_disciplined(outcome) -> bool:
    """Replay the trace's bracket structure.

    Startup activations and dispatches open a frame at depth zero,
    run-calls nest, and every frame closes with exactly one return
    naming it; a method-end may only appear once its frame is closed.
    """
    sim = []
    for ev in events(outcome):
        kind = ev["kind"]
        if kind in ("method-start", "dispatch"):
            if sim:
                return False
            sim.append(ev["method"])
        elif kind == "run-call":
            if not sim:
                return False
            sim.append(ev["method"])
        elif kind == "return":
            if not sim or sim[-1] != ev["method"]:
                return False
            sim.pop()
        elif kind == "method-end":
            if sim:
                return False
        elif kind in ("provided-fail", "error"):
            return True  # aborted mid-frame; prefix was consistent
    return not sim if isinstance(outcome, Finished) else True


@criterion("A7", "stack discipline and terminal form on the whole corpus")
def test_a7_stack_discipline_and_terminal_form(corpus):
    for program in corpus:
        interp = Interpreter(program)
        outcome = interp.run()
        assert stack_disciplined(outcome), pretty_print(program)
        if isinstance(outcome, Finished):
            assert len(interp.postlist) == 0, pretty_print(program)
            assert interp.stack == [], pretty_print(program)


# --------------------------------------------------------------------- A8

@criterion("A8", "removing flagged dead posts never changes observable behavior")
def test_a8_dead_post_soundness(corpus):
    flagged_programs = 0
    for program in corpus:
        report = dead_posts(program)
        if report.dead_posts:
            flagged_programs += 1
        stripped = strip_dead_posts(program, report)
        assert validate_scopes(stripped) == []
        original = run_program(program)
        reduced = run_program(stripped)
        assert type(original) is type(reduced), pretty_print(program)
        if isinstance(original, Finished):
            assert original.global_value == reduced.global_value, pretty_print(program)
        else:
            assert original.kind == reduced.kind, pretty_print(program)
        assigns = lambda o: [(e["method"], e["value"]) for e in events(o)
                             if e["kind"] == "assign-global"]
        assert assigns(original) == assigns(reduced), pretty_print(program)
    # The check must actually bite: a large slice of the corpus has flags.
    assert flagged_programs >= 100, flagged_programs


# --------------------------------------------------------------------- A9

A9_SRC = """
global g;
meth w(x) { if x { g := g * 100 + x; } else { } }
meth main(x) { g := 5; synch(w(g + 1), low); g := 7; }
"""


@criterion("A9", "dispatch binds the post-time snapshot, not the dispatch store")
def test_a9_snapshot_binding():
    interp = Interpreter(parse_program(A9_SRC))
    out = interp.run()
    assert isinstance(out, Finished)
    # 7 * 100 + 6: hundreds digit proves the global changed to 7 before
    # dispatch, the units digit proves w still received the snapshot 6.
    assert out.global_value == 706

    post = [e for e in events(out) if e["kind"] == "post"][0]
    dispatch = [e for e in events(out) if e["kind"] == "dispatch"][0]
    assert post["method"] == dispatch["method"] == "w"
    assert post["value"] == 6
    assert dispatch["value"] == 6
    assert interp.store.locals["w"] == 6
