"""Dead-post analysis tests.

Pins down the effect-free criterion (what disqualifies a method), the
post graph, flagging, and stripping; cross-checks the fixpoint against an
independent reachability-based reference; and validates the differential
guarantee (stripping never changes the outcome, the final global, or the
assign-global event subsequence) on hand cases plus a random corpus.
"""

import dataclasses
import random

from priopost import (
    AssignGlobal,
    Binary,
    DeadPost,
    Finished,
    IntLit,
    Priority,
    Provided,
    Run,
    Seq,
    Synch,
    While,
    dead_posts,
    parse_program,
    pretty_print,
    run_program,
    validate_scopes,
)
from priopost.interp import CALL_DEPTH_EXCEEDED, MAX_CALL_DEPTH
from priopost.syntax import walk

from deadstrip import strip_dead_posts
from progen import gen_graph_source, gen_program, gen_programs
from refjson import events


def prog(src: str):
    p = parse_program(src)
    assert validate_scopes(p) == []
    return p


LOGGER = """
global g;
meth log(entry) { entry := entry + 1; }
meth work(x) {
    if x { g := g + x; synch(log(g), low); } else { }
}
meth main(x) { synch(work(5), high); synch(log(0), low); }
"""


# ------------------------------------------------------------- effect-free

def test_local_increment_is_effect_free():
    p = prog("global g; meth log(x) { x := x + 1; }")
    assert dead_posts(p).effect_free == {"log"}


def test_global_assign_is_an_effect():
    p = prog("global g; meth w(x) { g := x; }")
    assert dead_posts(p).effect_free == set()


def test_posting_an_effectful_method_is_an_effect():
    p = prog("global g; meth a(x) { synch(b(0), low); } meth b(y) { g := y; }")
    assert dead_posts(p).effect_free == set()


def test_running_an_effectful_method_is_an_effect():
    p = prog("global g; meth a(x) { run b(0); } meth b(y) { g := y; }")
    assert dead_posts(p).effect_free == set()


def test_chain_of_quiet_methods_is_effect_free():
    p = prog("""
    global g;
    meth a(x) { synch(b(x), high); }
    meth b(x) { run c(x + 1); }
    meth c(x) { x := x - 1; }
    """)
    assert dead_posts(p).effect_free == {"a", "b", "c"}


def test_provided_disqualifies():
    p = prog("global g; meth a(x) { provided x; }")
    assert dead_posts(p).effect_free == set()


def test_while_disqualifies():
    p = prog("global g; meth a(x) { while x { x := x - 1; } }")
    assert dead_posts(p).effect_free == set()


def test_division_in_body_disqualifies():
    p = prog("global g; meth a(x) { x := 1 / x; }")
    assert dead_posts(p).effect_free == set()
    p = prog("global g; meth a(x) { x := x % 2; }")
    assert dead_posts(p).effect_free == set()


def test_division_in_condition_disqualifies():
    p = prog("global g; meth a(x) { if 1 / x { } else { } }")
    assert dead_posts(p).effect_free == set()


def test_self_post_cycle_is_not_effect_free():
    # An effect-free repost loop would spin until the budget dies.
    p = prog("global g; meth a(x) { synch(a(x), high); }")
    assert dead_posts(p).effect_free == set()


def test_two_method_post_cycle_is_not_effect_free():
    p = prog("""
    global g;
    meth a(x) { synch(b(x), low); }
    meth b(x) { synch(a(x), low); }
    """)
    assert dead_posts(p).effect_free == set()


def test_method_reaching_a_cycle_is_pruned():
    p = prog("""
    global g;
    meth top(x) { synch(a(x), medium); }
    meth a(x) { synch(a(x), medium); }
    meth leaf(x) { x := 0; }
    """)
    assert dead_posts(p).effect_free == {"leaf"}


# ------------------------------------------------------------- post graph

def test_graph_lists_every_syntactic_edge():
    p = prog("""
    global g;
    meth a(x) { synch(b(1), high); synch(b(2), low); run b(3); }
    meth b(y) { }
    """)
    graph = dead_posts(p).graph
    assert graph.vertices == ["a", "b"]
    assert [(e.src, e.dst, e.kind, e.priority) for e in graph.edges] == [
        ("a", "b", "post", Priority.HIGH),
        ("a", "b", "post", Priority.LOW),
        ("a", "b", "run", None),
    ]


def test_graph_self_loop():
    p = prog("global g; meth a(x) { synch(a(x), low); }")
    [edge] = dead_posts(p).graph.edges
    assert (edge.src, edge.dst) == ("a", "a")


def test_graph_without_calls_is_edgeless():
    p = prog("global g; meth a(x) { g := 1; } meth b(y) { }")
    graph = dead_posts(p).graph
    assert graph.vertices == ["a", "b"]
    assert graph.edges == []


# ---------------------------------------------------------------- flagging

def test_logger_posts_are_flagged():
    report = dead_posts(prog(LOGGER))
    assert report.effect_free == {"log"}
    assert sorted(d.method for d in report.dead_posts) == ["log", "log"]


def test_post_of_effectful_method_never_flagged():
    p = prog("global g; meth w(x) { g := x; } meth m(y) { synch(w(1), high); }")
    assert dead_posts(p).dead_posts == []


def test_faulting_argument_is_never_flagged():
    # Deleting the post would delete the possible division-by-zero too.
    p = prog("""
    global g;
    meth log(x) { x := x + 1; }
    meth m(y) { synch(log(1 / y), low); }
    """)
    report = dead_posts(p)
    assert report.effect_free == {"log"}
    assert report.dead_posts == []


def test_flagged_posts_target_effect_free_methods():
    for p in gen_programs(seed=5150, count=100):
        report = dead_posts(p)
        for d in report.dead_posts:
            assert d.method in report.effect_free


def test_report_json_shape():
    obj = dead_posts(prog(LOGGER)).to_json_obj()
    assert sorted(obj) == ["dead_posts", "edges", "effect_free"]
    assert obj["effect_free"] == ["log"]
    assert {"method", "line", "col"} == set(obj["dead_posts"][0])
    first_edge = obj["edges"][0]
    assert first_edge["from"] == "work" and first_edge["to"] == "log"


# --------------------------------------------------------------- stripping

def test_strip_removes_exactly_the_flagged_posts():
    p = prog(LOGGER)
    report = dead_posts(p)
    stripped = strip_dead_posts(p, report)
    assert validate_scopes(stripped) == []
    text = pretty_print(stripped)
    assert "synch(log" not in text
    assert "synch(work(5), high);" in text
    # Re-analysis of the stripped program finds nothing left to remove.
    assert dead_posts(stripped).dead_posts == []


def test_strip_without_dead_posts_is_identity():
    p = prog("global g; meth w(x) { g := x; } meth m(y) { synch(w(1), high); }")
    assert strip_dead_posts(p, dead_posts(p)) == p


def test_logger_differential():
    p = prog(LOGGER)
    stripped = strip_dead_posts(p, dead_posts(p))
    a, b = run_program(p), run_program(stripped)
    assert isinstance(a, Finished) and isinstance(b, Finished)
    assert a.global_value == b.global_value == 5
    assigns = lambda out: [(e["method"], e["value"]) for e in events(out)
                           if e["kind"] == "assign-global"]
    assert assigns(a) == assigns(b)
    posts = lambda out: sum(e["kind"] == "post" for e in events(out))
    assert posts(a) == posts(b) + 2


def test_differential_on_random_corpus():
    for p in gen_programs(seed=1311, count=300):
        stripped = strip_dead_posts(p, dead_posts(p))
        a, b = run_program(p), run_program(stripped)
        assert type(a) is type(b)
        if isinstance(a, Finished):
            assert a.global_value == b.global_value
        else:
            assert a.kind == b.kind
        trace = lambda out: [(e["method"], e["value"]) for e in events(out)
                             if e["kind"] == "assign-global"]
        assert trace(a) == trace(b)


def run_chain_post(activations: int, posted: bool = True) -> str:
    """``main`` posts ``q0``, whose dispatch runs ``q1`` and on down to the last
    ``q``: ``activations`` methods open at once."""
    lines = ["global g;", "meth main(x) { synch(q0(1), high); }" if posted else "meth main(x) { }"]
    lines += [f"meth q{i}(x) {{ if x {{ run q{i + 1}(x); }} else {{ }} }}"
              for i in range(activations - 1)]
    return "\n".join(lines + [f"meth q{activations - 1}(x) {{ }}"])


def test_post_past_the_call_depth_bound_is_not_flagged():
    # A dispatch that opens one activation past MAX_CALL_DEPTH faults, so
    # deleting its post would turn a failed run into a finished one.
    for activations in (MAX_CALL_DEPTH, MAX_CALL_DEPTH + 1):
        p = prog(run_chain_post(activations))
        report = dead_posts(p)
        fits = activations <= MAX_CALL_DEPTH
        assert ("q0" in report.effect_free) is fits and "q1" in report.effect_free
        assert report.dead_posts == ([DeadPost("q0", 2, 16)] if fits else [])
        with_post, without = run_program(p), run_program(prog(run_chain_post(activations, False)))
        assert isinstance(without, Finished) and without.global_value == 0
        if fits:
            assert isinstance(with_post, Finished) and with_post.global_value == 0
        else:
            assert with_post.kind == CALL_DEPTH_EXCEEDED
        # The guarantee: stripping keeps the outcome, all but its trace.
        stripped = run_program(strip_dead_posts(p, report))
        assert type(stripped) is type(with_post) and stripped[:-1] == with_post[:-1]


# ------------------------------------------------------------- properties

def test_adding_a_global_assign_never_grows_effect_free():
    rng = random.Random(404)
    for _ in range(60):
        p = gen_program(rng)
        base = dead_posts(p).effect_free
        idx = rng.randrange(len(p.methods))
        m = p.methods[idx]
        poisoned = dataclasses.replace(
            m, body=Seq([AssignGlobal("g", IntLit(0))] + list(m.body.stmts)))
        q = dataclasses.replace(
            p, methods=p.methods[:idx] + [poisoned] + p.methods[idx + 1:])
        grown = dead_posts(q).effect_free
        assert grown <= base
        assert m.name not in grown


def test_fixpoint_matches_reachability_reference():
    # Reference: m is effect-free iff every method reachable from m is
    # quiet and the reachable subgraph contains no run/post cycle.
    def is_quiet(m):
        return not any(isinstance(n, (AssignGlobal, Provided, While))
                       or isinstance(n, Binary) and n.op in ("/", "%")
                       for n in walk(m.body))

    def reference(p):
        targets = {m.name: [n.method for n in walk(m.body) if isinstance(n, (Run, Synch))]
                   for m in p.methods}
        quiet = {m.name for m in p.methods if is_quiet(m)}

        def reach(start):
            seen, todo = set(), [start]
            while todo:
                cur = todo.pop()
                if cur in seen:
                    continue
                seen.add(cur)
                todo.extend(targets[cur])
            return seen

        def has_cycle(nodes):
            color = {}

            def dfs(u):
                color[u] = 1
                for v in targets[u]:
                    if v not in nodes:
                        continue
                    if color.get(v) == 1:
                        return True
                    if color.get(v, 0) == 0 and dfs(v):
                        return True
                color[u] = 2
                return False

            return any(color.get(u, 0) == 0 and dfs(u) for u in nodes)

        out = set()
        for m in p.methods:
            r = reach(m.name)
            if r <= quiet and not has_cycle(r):
                out.add(m.name)
        return out

    cyclic_sources = [
        "global g; meth a(x) { synch(a(x), high); }",
        "global g; meth a(x) { synch(b(x), low); } meth b(x) { run a(x); }",
        "global g; meth t(x) { synch(a(x), low); } meth a(x) { synch(a(x), low); }",
    ]
    rng = random.Random(78)
    cyclic_sources += [gen_graph_source(rng) for _ in range(500)]
    programs = [prog(s) for s in cyclic_sources]
    programs += gen_programs(seed=77, count=150)
    for p in programs:
        assert dead_posts(p).effect_free == reference(p), pretty_print(p)
