"""Interpreter tests: expression math, statement rules, startup order,
dispatch order, snapshots, stack discipline, failures, and the trace format.

Programs are written as source text and parsed, so these tests exercise the
whole front end; only the foreign-node, grammar-rejection, depth,
lazy-compilation, shared-node and out-of-scope-leaf tests build their trees
by hand.
Outcomes and traces are checked against hand-computed values.
"""

import gc
import json
import random
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import pytest

from priopost import (
    DEFAULT_BUDGET,
    AssignGlobal,
    AssignLocal,
    Binary,
    Expr,
    Failed,
    Finished,
    If,
    IntLit,
    Interpreter,
    Method,
    ParseError,
    Priority,
    Program,
    Provided,
    Return,
    Run,
    Seq,
    Stmt,
    Synch,
    Unary,
    Var,
    While,
    parse_program,
    pretty_print,
    run_program,
    trace_to_jsonl,
    validate_scopes,
)
from priopost import syntax
from priopost.cli import main
from priopost.interp import (
    _STMT,
    ARITH_OVERFLOW,
    CALL_DEPTH_EXCEEDED,
    DIVISION_BY_ZERO,
    MAX_CALL_DEPTH,
    PROVIDED_FAILED,
    STEP_BUDGET_EXHAUSTED,
)
from priopost.postlist import AsynchList, AsynchNode
from priopost.syntax import I64_MAX, I64_MIN, MAX_DEPTH
from progen import gen_programs, renamed
from refjson import events, ref_event_to_dict
from reftrace import check_trace

PROGRAMS = Path(__file__).resolve().parent.parent / "programs"


def run_src(src: str, budget: int = 1_000_000):
    return run_program(parse_program(src), budget=budget)


def final(src: str) -> int:
    out = run_src(src)
    assert isinstance(out, Finished), out
    return out.global_value


def failure_kind(src: str, budget: int = 1_000_000) -> str:
    out = run_src(src, budget=budget)
    assert isinstance(out, Failed), out
    return out.kind


def assert_scope_rejected(program: Program, message: str):
    """``run()`` raises ``ValueError(message)``, validate_scopes's errors one to a
    line, before its first step."""
    assert message == "\n".join(map(str, validate_scopes(program)))
    interp = Interpreter(program)
    with pytest.raises(ValueError) as raised:
        interp.run()
    assert str(raised.value) == message
    assert interp.step_count == 0 and interp.trace == []


def assert_tree_rejected(program: Program):
    """``validate_scopes`` and ``run()`` raise ``TypeError``, ``run()`` before its
    first step; any other exception fails the test."""
    with pytest.raises(TypeError):
        validate_scopes(program)
    interp = Interpreter(program)
    with pytest.raises(TypeError):
        interp.run()
    assert interp.step_count == 0 and interp.trace == []


def events_of(src: str, kind: str):
    return [e for e in events(run_src(src)) if e["kind"] == kind]


# ------------------------------------------------------------- expressions

def eval_top(expr: str) -> int:
    # The method runs once at startup with local x = 0.
    return final(f"global g; meth m(x) {{ g := {expr}; }}")


def test_literal_evaluates_to_itself():
    assert eval_top("5") == 5


def test_global_plus_local():
    src = "global g; meth m(x) { g := 2; x := 3; g := g + x; }"
    assert final(src) == 5


@pytest.mark.parametrize("expr,value", [
    ("7 + 3", 10),
    ("7 - 13", -6),
    ("6 * 7", 42),
    ("7 / 2", 3),
    ("-7 / 2", -3),       # truncation toward zero, not floor
    ("7 / -2", -3),
    ("-7 % 2", -1),       # remainder keeps the dividend's sign
    ("7 % -2", 1),
    ("-7 % 3 == -1", 1),
    ("7 % -3 == 1", 1),
    ("2 < 3", 1),
    ("3 < 2", 0),
    ("3 <= 3", 1),
    ("4 > 1", 1),
    ("4 >= 5", 0),
    ("5 == 5", 1),
    ("5 != 5", 0),
    ("2 and 3", 1),
    ("2 and 0", 0),
    ("0 or 3", 1),
    ("0 or 0", 0),
    ("!0", 1),
    ("!9", 0),
    ("-(2 + 3)", -5),
])
def test_arithmetic_and_logic(expr, value):
    assert eval_top(expr) == value


def test_division_by_zero_fails():
    assert failure_kind("global g; meth m(x) { g := 1 / 0; }") == DIVISION_BY_ZERO


def test_modulo_by_zero_fails():
    assert failure_kind("global g; meth m(x) { g := 1 % 0; }") == DIVISION_BY_ZERO


def test_no_short_circuit_and():
    # Both operands evaluate, so the division still faults.
    src = "global g; meth m(x) { g := 0 and 1 / 0; }"
    assert failure_kind(src) == DIVISION_BY_ZERO


def test_no_short_circuit_or():
    src = "global g; meth m(x) { g := 1 or 1 / 0; }"
    assert failure_kind(src) == DIVISION_BY_ZERO


def test_overflow_checked():
    src = f"global g; meth m(x) {{ g := {I64_MAX} + 1; }}"
    assert failure_kind(src) == ARITH_OVERFLOW


def test_negate_min_overflows():
    src = f"global g; meth m(x) {{ g := -(0 - {-(I64_MIN + 1)} - 1); }}"
    assert failure_kind(src) == ARITH_OVERFLOW


def test_values_at_limits_are_fine():
    assert eval_top(f"{I64_MAX}") == I64_MAX
    assert eval_top(f"0 - {I64_MAX} - 1") == I64_MIN


# Each operator class and operand shape compiles to its own closure: a
# literal right operand is a constant, the method's own local on its left
# is read from its cell, and for ``+ - *`` so are the global left of a
# literal and the local as the right operand.  These pin down what each
# shape must still do.

def fault_at(src: str) -> tuple[str, int, int]:
    out = run_src(src)
    assert isinstance(out, Failed), out
    return out.kind, out.line, out.col


def test_comparison_yields_the_integer_one_not_true(tmp_path, capsys):
    src = "global g; meth m(x) { g := 3 < 4; }"
    out = run_src(src)
    assert type(out.global_value) is int and out.global_value == 1
    assert '"kind": "assign-global", "method": "m", "value": 1}' in trace_to_jsonl(out)
    path = tmp_path / "lt.ap"
    path.write_text(src, encoding="utf-8")
    assert main(["run", str(path)]) == 0
    assert capsys.readouterr().out == "1\n"


@pytest.mark.parametrize("expr", ["0 and (1 / 0)", "1 or (1 / 0)", "x and (1 / 0)",
                                  "(1 / 0) or 1"])
def test_logic_operators_evaluate_both_operands(expr):
    line = f"meth m(x) {{ g := {expr}; }}"
    assert fault_at(f"global g;\n{line}") == (DIVISION_BY_ZERO, 2, line.index("/") + 1)


@pytest.mark.parametrize("op", ["/", "%"])
def test_literal_zero_divisor_faults_at_the_operator(op):
    for line in (f"meth m(x) {{ x := 5; g := x {op} 0; }}", f"meth m(x) {{ g := g {op} 0; }}"):
        assert fault_at(f"global g;\n{line}") == (DIVISION_BY_ZERO, 2, line.index(op) + 1)


def test_min_divided_by_literal_minus_one_overflows():
    line = f"meth m(x) {{ x := 0 - {I64_MAX} - 1; g := x / -1; }}"
    assert fault_at(f"global g;\n{line}") == (ARITH_OVERFLOW, 2, line.index("/") + 1)
    assert eval_top(f"(0 - {I64_MAX} - 1) / 1") == I64_MIN
    assert eval_top(f"(0 - {I64_MAX} - 1) % -1") == 0


MIN_TEXT = f"0 - {I64_MAX} - 1"


@pytest.mark.parametrize("body,value", [
    ("g := 7; g := g * 3;", 21),
    ("g := -7; g := g * 3;", -21),
    ("x := 4; g := 10; g := (g - 1) + x;", 13),
    ("x := 4; g := 10; g := (g * 2) - x;", 16),
    ("x := 4; g := x - x;", 0),
    (f"x := {MIN_TEXT}; g := -1 - x;", I64_MAX),
])
def test_global_left_and_local_right_operands(body, value):
    assert final(f"global g; meth m(x) {{ {body} }}") == value


@pytest.mark.parametrize("setup,expr", [
    (f"g := {I64_MAX};", "g * 2"),
    (f"g := {MIN_TEXT};", "g - 1"),
    (f"g := {MIN_TEXT};", "g * 2"),
    (f"x := {I64_MAX};", "(g + 1) + x"),
    (f"x := {MIN_TEXT};", "(g - 1) + x"),
    (f"x := {MIN_TEXT};", "(g + 0) - x"),
    (f"x := {I64_MAX};", "(g - 2) - x"),
])
def test_leaf_operand_overflow_faults_at_its_operator(setup, expr):
    line = f"meth m(x) {{ {setup} g := {expr}; }}"
    at = line.index(expr) + expr.rindex(" ") - 1  # the outer operator, 0-based
    assert fault_at(f"global g;\n{line}") == (ARITH_OVERFLOW, 2, at + 1)


@pytest.mark.parametrize("body,value", [
    ("x := -7; g := x % 3;", -1),
    ("x := 7; g := x % -3;", 1),
    ("x := -7; g := (x + 0) % 3;", -1),
    ("x := -7; g := x / 2;", -3),
    ("x := 7; g := x / -2;", -3),
    (f"x := 0 - {I64_MAX} - 1; g := x % {I64_MAX};", -1),
])
def test_remainder_and_quotient_truncate_toward_zero(body, value):
    assert final(f"global g; meth m(x) {{ {body} }}") == value


@pytest.mark.parametrize("expr", [
    Binary("<", Var("y"), IntLit(1)),
    Binary("%", Var("y"), IntLit(3)),
    Binary("+", Var("x"), Var("y")),
], ids=["left-of-comparison", "left-of-modulo", "right"])
def test_out_of_scope_leaf_raises_only_when_its_branch_runs(expr):
    # Named for the rule it replaced: ``run()`` checks the whole tree with
    # validate_scopes before its first step, so ``y`` is rejected whether or
    # not its branch would run.
    def program(cond):
        return Program("g", [Method("m", "x", Seq([
            If(cond, Seq([AssignGlobal("g", expr)]), Seq([]))]))])
    for cond in (Var("x"), IntLit(1)):
        assert_scope_rejected(program(cond), "0:0 unknown-variable: y")


@pytest.mark.parametrize("call", [Run, lambda m, arg: Synch(m, arg, Priority.HIGH)],
                         ids=["run", "synch"])
@pytest.mark.parametrize("arg", [IntLit(1), Binary("/", IntLit(1), IntLit(0))],
                         ids=["literal", "faulting"])
def test_undeclared_target_raises_before_its_argument(call, arg):
    # Hand-built: validate_scopes rejects ``nope``, so no step is taken and its
    # argument is never evaluated: even one that would fault cannot turn the
    # error into a Failed, and a branch that would not run is rejected too.
    def program(cond):
        return Program("g", [Method("m", "x", Seq([
            If(cond, Seq([call("nope", arg)]), Seq([]))]))])
    for cond in (Var("x"), IntLit(1)):
        assert_scope_rejected(program(cond), "0:0 unknown-method: nope")


# -------------------------------------------------------------- statements

def test_assign_global():
    assert final("global g; meth m(x) { g := 7; }") == 7


def test_assign_local_does_not_touch_global():
    assert final("global g; meth m(x) { x := 7; }") == 0


def test_provided_nonzero_is_noop():
    assert final("global g; meth m(x) { provided 1; g := 3; }") == 3


def test_provided_zero_aborts():
    out = run_src("global g; meth m(x) { g := 1; provided 0; g := 2; }")
    assert isinstance(out, Failed)
    assert out.kind == PROVIDED_FAILED
    assert out.line == 1
    # One provided-fail event closes the trace.
    assert events(out)[-1]["kind"] == "provided-fail"
    assert events(out)[-1]["method"] == "m"


def test_if_branches_on_nonzero():
    assert final("global g; meth m(x) { if 2 { g := 1; } else { g := 2; } }") == 1
    assert final("global g; meth m(x) { if 0 { g := 1; } else { g := 2; } }") == 2


def test_while_counts_down():
    src = "global g; meth m(x) { x := 4; while x > 0 { g := g + x; x := x - 1; } }"
    assert final(src) == 10


def test_while_false_never_runs_body():
    assert final("global g; meth m(x) { while 0 { g := 9; } }") == 0


def test_statements_after_return_are_skipped():
    assert final("global g; meth m(x) { return(); g := 9; }") == 0


def test_return_exits_from_nested_blocks():
    src = """
    global g;
    meth m(x) {
        x := 3;
        while x > 0 {
            if x == 2 { return(); } else { }
            g := g + 1;
            x := x - 1;
        }
        g := 100;
    }
    """
    assert final(src) == 1


def test_run_is_synchronous():
    src = "global g; meth a(x) { run b(5); g := g + 1; } meth b(y) { g := y; }"
    # Startup a: run b(5) sets g=5 inline, then g becomes 6.  Startup b
    # does not rebind y (only program start zeroes locals), so y is still
    # 5 from the run-call and b's own startup sets g back to 5.
    assert final(src) == 5


def test_run_binds_argument():
    src = "global g; meth a(x) { if x { g := x * 2; } else { run a(21); } }"
    assert final(src) == 42


def test_recursion_clobbers_single_local_cell():
    # One local cell per method: the inner call's argument binding
    # overwrites x; with per-activation frames the outer read would be 5.
    src = """
    global g;
    meth a(x) {
        if g == 0 {
            g := 1;
            x := 5;
            run a(7);
            g := x;
        } else {
            return();
        }
    }
    """
    assert final(src) == 7


# ------------------------------------------------------------- call depth

ENDLESS_RUN = "global g; meth f(x) { g := g + 1; run f(x); }"


def run_chain(calls: int) -> str:
    """``main`` runs ``f(calls)``, which runs down to ``f(1)``: calls + 1 open activations."""
    return (f"global g; meth f(x) {{ g := g + 1; if x > 1 {{ run f(x - 1); }} else {{ }} }}"
            f" meth main(x) {{ run f({calls}); }}")


def nested_run(levels: int) -> str:
    """A self-run under ``levels`` nested ``if``s: the most frames a level can hold."""
    return ("global g; meth f(x) { " + "if 1 { " * levels + "g := g + 1; run f(x);"
            + " } else { }" * levels + " }")


def test_endless_run_faults_at_the_run():
    interp = Interpreter(parse_program(ENDLESS_RUN))
    out = interp.run()
    assert isinstance(out, Failed)
    assert (out.kind, out.line, out.col) == (CALL_DEPTH_EXCEEDED, 1, 35)
    assert len(interp.stack) == MAX_CALL_DEPTH
    assert interp.store.global_value == MAX_CALL_DEPTH
    assert events(out)[-1] == {"seq": len(out.trace), "kind": "error", "method": "f"}
    quiet = Interpreter(parse_program(ENDLESS_RUN), trace=False)
    assert quiet.run() == Failed(CALL_DEPTH_EXCEEDED, 1, 35, [])
    assert quiet.step_count == interp.step_count


def test_call_depth_bound_is_exact():
    # The startup run of f opens one activation and runs nothing more.
    assert final(run_chain(MAX_CALL_DEPTH - 1)) == 1 + MAX_CALL_DEPTH - 1
    out = run_src(run_chain(MAX_CALL_DEPTH))
    assert isinstance(out, Failed) and out.kind == CALL_DEPTH_EXCEEDED
    assert (out.line, out.col) == (1, 46)


def test_call_depth_fault_does_not_depend_on_the_caller_stack():
    # Every level nested as deep as the parser allows, run from a Python
    # stack 20 frames short of the recursion limit.
    levels = next(n for n in range(MAX_DEPTH, 0, -1)
                  if not _too_deep(nested_run(n)))
    program = parse_program(nested_run(levels))
    limit = sys.getrecursionlimit()

    def at_depth(frames):
        return run_program(program) if frames == 0 else at_depth(frames - 1)

    for frames in (0, _headroom() - 20):
        out = at_depth(frames)
        assert isinstance(out, Failed) and out.kind == CALL_DEPTH_EXCEEDED
        assert sys.getrecursionlimit() == limit


def test_runs_in_threads_share_the_recursion_limit():
    # The limit is process-wide: no run may lower it under another
    # thread's deep run, and it is back where it was when all have ended.
    chain, endless = parse_program(run_chain(MAX_CALL_DEPTH - 1)), parse_program(ENDLESS_RUN)
    limit, interval = sys.getrecursionlimit(), sys.getswitchinterval()
    kinds = []

    def work(program, times):
        for _ in range(times):
            kinds.append(getattr(run_program(program), "kind", "finished"))

    threads = [threading.Thread(target=work, args=(chain, 10)) for _ in range(2)]
    threads.append(threading.Thread(target=work, args=(endless, 100)))
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert sorted(set(kinds)) == [CALL_DEPTH_EXCEEDED, "finished"] and len(kinds) == 120
    assert sys.getrecursionlimit() == limit


def test_parses_and_runs_in_threads_leave_the_collector_on(monkeypatch):
    # The collector's state is process-wide too.  Each request reads it and
    # turns it off in one locked step, so it is back on when all have ended.
    # Unlocked, a request could read "off" inside another thread's pause and
    # turn it off after that pause ended, for good.  A read of "off" here
    # sleeps, so that the other pause has time to end: an unlocked copy of
    # the rule was left off in 5 runs of 5.
    def isenabled():
        enabled = gc.isenabled()
        if not enabled:
            time.sleep(1e-4)
        return enabled
    monkeypatch.setattr(syntax, "gc", SimpleNamespace(
        isenabled=isenabled, disable=gc.disable, enable=gc.enable))
    long_run = parse_program("global g; meth m(x) { while g < 100000 { g := g + 1; } }")
    limit, interval = sys.getrecursionlimit(), sys.getswitchinterval()
    ends = []

    def short_requests():
        for i in range(1000):
            program = parse_program("global g; meth m(x) { g := 7; }")
            if i % 10 == 9:
                ends.append(run_program(program).global_value)

    assert gc.isenabled()
    threads = [threading.Thread(target=lambda: ends.append(run_program(long_run).global_value))]
    threads += [threading.Thread(target=short_requests) for _ in range(2)]
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert sorted(ends) == [7] * 200 + [100000]
    assert gc.isenabled()
    assert sys.getrecursionlimit() == limit


def _headroom() -> int:
    """How many more Python calls fit under the recursion limit."""
    try:
        return 1 + _headroom()
    except RecursionError:
        return 0


def _too_deep(source: str) -> bool:
    try:
        parse_program(source)
    except ParseError:
        return True
    return False


def test_synch_does_not_execute_immediately():
    src = "global g; meth a(x) { synch(b(0), high); g := 1; } meth b(y) { g := g * 10; }"
    # b's startup run happens after a (g=1 -> 10), then the dispatch (10 -> 100).
    assert final(src) == 100


def test_empty_body_finishes_at_zero():
    assert final("global g; meth m(x) { }") == 0


def test_infinite_loop_exhausts_budget():
    assert failure_kind("global g; meth m(x) { while 1 { } }",
                        budget=1000) == STEP_BUDGET_EXHAUSTED


def test_budget_counts_across_whole_run():
    src = "global g; meth m(x) { x := 50; while x > 0 { x := x - 1; } }"
    assert isinstance(run_src(src, budget=10_000), Finished)
    assert failure_kind(src, budget=20) == STEP_BUDGET_EXHAUSTED


STEP_RULE_SRC = ("global g;\nmeth m(x) {\n"
                 "    if x { g := x; } else { x := 2; while x > 0 { x := x - 1; } synch(m(5), low); }\n"
                 "}\n")
# The position of each step of STEP_RULE_SRC's run, in order.
STEP_RULE_STEPS = [
    (2, 1),                     # startup starts m
    (2, 11), (3, 5),            # m's body block, its if
    (3, 27), (3, 29), (3, 37),  # the else block, x := 2, the while
    (3, 49), (3, 51), (3, 37),  # the loop body block, x := x - 1, back to the test
    (3, 49), (3, 51), (3, 37),
    (3, 65),                    # synch(m(5), low)
    (3, 73),                    # dispatching m(5), at its argument
    (2, 11), (3, 5),            # m's body block, its if
    (3, 10), (3, 12),           # the then block, g := x
]


@pytest.mark.parametrize("trace", [True, False], ids=["trace", "no-trace"])
def test_step_rule(trace):
    # A step: starting a method at startup, dispatching a posted call,
    # entering a block, each statement a block runs, and each return to a
    # while test after its body.  Budget N allows N steps and faults at
    # the position of step N + 1.
    program = parse_program(STEP_RULE_SRC)
    interp = Interpreter(program, trace=trace)
    out = interp.run()
    assert isinstance(out, Finished) and out.global_value == 5
    assert interp.step_count == len(STEP_RULE_STEPS) == 18
    for budget in range(1, 18):
        out = Interpreter(program, budget=budget, trace=trace).run()
        assert (out.kind, out.line, out.col) == (STEP_BUDGET_EXHAUSTED, *STEP_RULE_STEPS[budget])
        check_trace(out.trace)  # a trace cut off by a fault passes
    assert isinstance(Interpreter(program, budget=18, trace=trace).run(), Finished)


# ------------------------------------------------------- startup and drain

def test_all_methods_run_at_startup_in_order():
    src = """
    global g;
    meth first(x) { g := g * 10 + 1; }
    meth second(y) { g := g * 10 + 2; }
    meth third(z) { g := g * 10 + 3; }
    """
    assert final(src) == 123


def test_startup_locals_are_zero():
    src = "global g; meth m(x) { g := x + 1; }"
    assert final(src) == 1


def test_startup_then_dispatch_example():
    src = """
    global g;
    meth main(x) { g := 1; synch(double(g + 1), low); }
    meth double(l) { g := g * l; }
    """
    # Startup: main (g=1, posts double with snapshot 2), double (g = 1*0 = 0).
    # Drain: double with l=2 (g = 0*2 = 0).
    assert final(src) == 0


def test_priority_order_high_medium_low():
    src = """
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
    assert final(src) == 231
    disp = [e["method"] for e in events_of(src, "dispatch")]
    assert disp == ["b", "c", "a"]


def test_fifo_within_same_priority():
    src = """
    global g;
    meth a(x) { if x { g := g * 10 + 1; } else { } }
    meth b(x) { if x { g := g * 10 + 2; } else { } }
    meth main(x) { synch(a(1), high); synch(b(1), high); }
    """
    assert final(src) == 12


def test_task_posted_during_drain_can_overtake():
    src = """
    global g;
    meth a(x) { if x { g := g * 10 + 1; } else { } }
    meth c(x) { if x { g := g * 10 + 3; } else { } }
    meth b(x) { if x { g := g * 10 + 2; synch(c(1), high); } else { } }
    meth main(x) { synch(b(1), high); synch(a(1), low); }
    """
    # b runs first and posts c at high, which overtakes the pending low a.
    assert final(src) == 231


def test_dispatch_binds_post_time_snapshot():
    src = """
    global g;
    meth w(x) { if x { g := g * 100 + x; } else { } }
    meth main(x) { g := 5; synch(w(g + 1), low); g := 7; }
    """
    out = run_src(src)
    assert out.global_value == 706
    post = [e for e in events(out) if e["kind"] == "post"][0]
    disp = [e for e in events(out) if e["kind"] == "dispatch"][0]
    assert post["value"] == 6 and disp["value"] == 6


def test_repost_chain_runs_to_completion():
    src = """
    global g;
    meth m(x) { if x < 3 { g := g + 1; synch(m(x + 1), medium); } else { } }
    meth main(y) { synch(m(1), low); }
    """
    # Startup m(0) posts m(1) at medium and main posts m(1) at low; each
    # dispatched m(x) with x < 3 reposts m(x+1), so both chains run out.
    out = run_src(src)
    assert isinstance(out, Finished)
    assert len(events_of(src, "dispatch")) == 6


def test_deep_queue_drains_in_rank_then_post_order():
    # Startup posts 16,000 work calls at high or medium; each dispatched
    # work posts a low tail call.  The global is an order-sensitive hash,
    # replayed here over three plain FIFOs by the README's order rule.
    posts, mod = 16_000, 1_000_003
    src = f"""
    global g;
    meth fan(i) {{
        while i < {posts} {{
            i := i + 1;
            if i % 7 < 3 {{ synch(work(i), high); }} else {{ synch(work(i), medium); }}
        }}
    }}
    meth work(x) {{ if x {{ g := (g * 31 + x) % {mod}; synch(tail(x), low); }} else {{ }} }}
    meth tail(y) {{ if y {{ g := (g * 17 + y) % {mod}; }} else {{ }} }}
    """
    fifos = {"high": deque(), "medium": deque(), "low": deque()}
    for i in range(1, posts + 1):
        fifos["high" if i % 7 < 3 else "medium"].append(("work", i))
    g = 0
    while any(fifos.values()):
        method, arg = next(q for q in fifos.values() if q).popleft()
        if method == "work":
            g = (g * 31 + arg) % mod
            fifos["low"].append(("tail", arg))
        else:
            g = (g * 17 + arg) % mod
    out = run_src(src)
    assert isinstance(out, Finished)
    assert out.global_value == g
    assert sum(e["kind"] == "dispatch" for e in events(out)) == 2 * posts


# ------------------------------------------------------------ terminal form

def test_finished_leaves_empty_queue_and_stack():
    interp = Interpreter(parse_program(
        "global g; meth m(x) { if x == 0 { synch(m(1), low); } else { } }"))
    out = interp.run()
    assert isinstance(out, Finished)
    assert len(interp.postlist) == 0
    assert interp.stack == []


def test_failed_can_leave_queue_nonempty():
    interp = Interpreter(parse_program(
        "global g; meth m(x) { synch(m(1), low); provided 0; }"))
    out = interp.run()
    assert isinstance(out, Failed)
    assert len(interp.postlist) == 1


def test_store_has_one_cell_per_method():
    interp = Interpreter(parse_program(
        "global g; meth a(x) { } meth b(y) { }"))
    interp.run()
    assert sorted(interp.store.locals) == ["a", "b"]


# ----------------------------------------------------------------- tracing

def test_trace_event_sequence_for_simple_program():
    out = run_src("global g; meth m(x) { g := 1; }")
    kinds = [e["kind"] for e in events(out)]
    assert kinds == ["method-start", "assign-global", "return", "method-end"]
    assert [e["seq"] for e in events(out)] == [1, 2, 3, 4]


def test_every_activation_closes_with_one_return():
    src = """
    global g;
    meth a(x) { if x { return(); } else { } }
    meth b(y) { run a(1); run a(0); synch(a(1), medium); }
    """
    out = run_src(src)
    opens = sum(1 for e in events(out)
                if e["kind"] in ("method-start", "run-call", "dispatch"))
    returns = sum(1 for e in events(out) if e["kind"] == "return")
    assert opens == returns == 5


def test_post_event_carries_priority_and_snapshot():
    # The program reposts forever; the first post needs only a few steps.
    out = run_src("global g; meth m(x) { g := 3; synch(m(g * 2), medium); }", budget=10)
    post = [e for e in events(out) if e["kind"] == "post"][0]
    assert post["method"] == "m"
    assert post["value"] == 6
    assert post["priority"] == Priority.MEDIUM.keyword


def test_jsonl_omits_absent_fields_and_ends_with_finished():
    out = run_src("global g; meth m(x) { g := 2; }")
    lines = trace_to_jsonl(out).splitlines()
    objs = [json.loads(line) for line in lines]
    assert objs[0] == {"seq": 1, "kind": "method-start", "method": "m"}
    assert objs[1] == {"seq": 2, "kind": "assign-global", "method": "m", "value": 2}
    assert objs[-1] == {"kind": "finished", "global": 2}
    assert all("priority" not in o for o in objs[:-1])


def reference_jsonl(outcome) -> str:
    """trace_to_jsonl's format, stated with json.dumps over ref_event_to_dict.

    Each event line is read back as a ``(seq, kind, method, value,
    priority)`` tuple, and must be exactly the reference's line for it:
    README's keys in README's order, in ``json.dumps``'s layout, with
    ``seq`` counting 1, 2, 3 and so on."""
    lines = []
    for seq, (line, obj) in enumerate(zip(outcome.trace, events(outcome)), 1):
        event = (obj.pop("seq"), obj.pop("kind"), obj.pop("method", None),
                 obj.pop("value", None), obj.pop("priority", None))
        assert obj == {} and event[0] == seq, line
        lines.append(json.dumps(ref_event_to_dict(event)) + "\n")
        assert lines[-1] == line
    if isinstance(outcome, Finished):
        lines.append(json.dumps({"kind": "finished", "global": outcome.global_value}) + "\n")
    return "".join(lines)


def test_jsonl_matches_json_dumps_of_each_event():
    for prog in gen_programs(seed=1414, count=200):
        for budget in (DEFAULT_BUDGET, 25):
            out = Interpreter(prog, budget=budget).run()
            assert trace_to_jsonl(out) == reference_jsonl(out)


@pytest.mark.parametrize("name", ["é", 'a"b', "a\\b", "\n", "", "run-call"], ids=repr)
def test_jsonl_escapes_hand_built_events(name):
    # Only a hand-built tree can name a method so.  At startup ``name`` posts
    # itself, and the caller runs it, so it posts again; its first dispatch
    # assigns the global and faults.  So the name is at every emit site.
    callee = Method(name, "x", Seq([If(
        Var("x"),
        Seq([AssignGlobal("g", Var("x")), Provided(Binary("-", Var("x"), IntLit(1)))]),
        Seq([Synch(name, IntLit(1), Priority.HIGH)]))]))
    caller = Method(name + "2", "y", Seq([Run(name, IntLit(0))]))
    out = Interpreter(Program("g", [callee, caller])).run()
    assert isinstance(out, Failed) and out.kind == PROVIDED_FAILED
    for line in out.trace:
        assert line == json.dumps(json.loads(line)) + "\n"
    assert [(e["kind"], e["method"]) for e in events(out)] == [
        ("method-start", name), ("post", name), ("return", name), ("method-end", name),
        ("method-start", name + "2"), ("run-call", name), ("post", name),
        ("return", name), ("return", name + "2"), ("method-end", name + "2"),
        ("dispatch", name), ("assign-global", name), ("provided-fail", name)]
    assert trace_to_jsonl(out) == reference_jsonl(out)


@pytest.mark.parametrize("value", [2**70, -2**70, True, 1.5, I64_MAX], ids=repr)
def test_jsonl_writes_hand_built_literals(value):
    # Only a hand-built tree holds such a literal.  One the grammar cannot
    # express is rejected before the first step, so no trace writes it as
    # Python does; the largest it can is JSON at each site that writes a value.
    method = Method("m", "x", Seq([If(
        Var("x"),
        Seq([AssignGlobal("g", Var("x"))]),
        Seq([Run("m", IntLit(value)), Synch("m", IntLit(value), Priority.LOW)]))]))
    program = Program("g", [method])
    if type(value) is not int or not 0 <= value <= I64_MAX:
        assert_tree_rejected(program)
        return
    out = Interpreter(program).run()
    assert trace_to_jsonl(out) == reference_jsonl(out)
    assert [(e["kind"], e["value"]) for e in events(out) if "value" in e] == [
        ("run-call", value), ("assign-global", value), ("post", value),
        ("dispatch", value), ("assign-global", value)]


def test_jsonl_failed_run_has_no_finished_line():
    out = run_src("global g; meth m(x) { provided 0; }")
    objs = [json.loads(line) for line in trace_to_jsonl(out).splitlines()]
    assert objs[-1]["kind"] == "provided-fail"


def test_error_event_names_faulting_method():
    out = run_src("global g; meth m(x) { g := 1 / 0; }")
    assert events(out)[-1]["kind"] == "error"
    assert events(out)[-1]["method"] == "m"


def test_failure_location_points_at_fault():
    out = run_src("global g;\nmeth m(x) {\n    g := 1 / 0;\n}")
    assert isinstance(out, Failed)
    assert out.line == 3


# ------------------------------------------------------------ determinism

def test_identical_runs_produce_identical_traces():
    src = """
    global g;
    meth a(x) { synch(b(x + 1), high); g := g + 1; }
    meth b(y) { if y > 2 { return(); } else { } synch(a(y), low); }
    """
    first = trace_to_jsonl(run_src(src))
    second = trace_to_jsonl(run_src(src))
    assert first == second


def test_trace_checker_passes_a_run_and_rejects_edited_copies():
    src = """
    global g;
    meth a(x) { if x { g := g + x; } else { synch(a(3), low); } }
    meth b(y) { synch(a(1), high); synch(a(2), medium); synch(a(4), high); }
    """
    lines = trace_to_jsonl(run_src(src)).splitlines()
    # Nodes are labelled by value: a(3) is posted at startup, then a(1), a(2)
    # and a(4).  Two posts share the high region, so FIFO order within a
    # region shows in the dispatch order.
    dispatches = [n for n, line in enumerate(lines) if '"dispatch"' in line]
    assert [json.loads(lines[n])["value"] for n in dispatches] == [1, 4, 2, 3]
    for end in range(len(lines) + 1):
        check_trace(lines[:end])  # every prefix: a run cut off there
    first, second = dispatches[:2]
    swapped = lines.copy()
    swapped[first], swapped[second] = lines[second], lines[first]
    assert json.loads(lines[first + 2])["kind"] == "return"
    for edited in (swapped,
                   lines[:first + 2] + lines[first + 3:],  # a's return dropped
                   lines[:first + 1] + ['{"kind": "error"}'],  # a fault naming no frame
                   lines + lines[-1:]):  # a line after the finished line
        with pytest.raises(AssertionError):
            check_trace(edited)


EQUAL_POSTS = ("global g;\nmeth m(x) {\n    if x { } else {\n"
               "        synch(m(1), low);\n        synch(m(1), low);\n    }\n}\n")


def test_equal_posts_dispatch_in_post_order():
    # The two posts of m(1) write identical trace lines, so check_trace cannot
    # tell which one a dispatch removed.  A step-budget fault at dispatch
    # reports the removed post's argument: budget 6 stops the first dispatch
    # and budget 10 the second.
    program = parse_program(EQUAL_POSTS)
    for budget, line in ((6, 4), (10, 5)):
        out = Interpreter(program, budget=budget).run()
        assert (out.kind, out.line, out.col) == (STEP_BUDGET_EXHAUSTED, line, 17)
        check_trace(out.trace)


TWO_POSTS = ("global g; meth a(x) { synch(b(1), low); synch(b(2), high); }"
             " meth b(y) { g := g + y; }")


def test_posted_nodes_are_asynch_nodes():
    # Budget 4 stops TWO_POSTS at b's startup, after a's two posts, so both
    # wait in the queue, in dispatch order.
    interp = Interpreter(parse_program(TWO_POSTS), budget=4)
    assert interp.run().kind == STEP_BUDGET_EXHAUSTED
    assert type(interp.postlist) is AsynchList
    # Four fields: no node carries a post number.
    assert AsynchNode._fields == ("method", "arg_expr", "arg_value", "priority")
    assert tuple(interp.postlist) == (AsynchNode("b", IntLit(2), 2, Priority.HIGH),
                                      AsynchNode("b", IntLit(1), 1, Priority.LOW))
    # The nodes each sample program leaves when a budget of 1-39 stops it.
    for path in sorted(PROGRAMS.glob("*.ap")):
        program = parse_program(path.read_text(encoding="utf-8"))
        for budget in range(1, 40):
            interp = Interpreter(program, budget=budget)
            interp.run()
            for node in interp.postlist:
                assert type(node) is AsynchNode and len(node) == 4, path
                assert node == AsynchNode(*node) and repr(node) == repr(AsynchNode(*node)), path


def test_budget_fault_at_dispatch_leaves_the_call_queued():
    # Budget 7 stops TWO_POSTS just before its first dispatch, b(2): the fault
    # names b(2)'s argument, and b(2) still heads the queue it was due from.
    interp = Interpreter(parse_program(TWO_POSTS), budget=7)
    out = interp.run()
    assert (out.kind, out.line, out.col, interp.step_count) == (STEP_BUDGET_EXHAUSTED, 1, 49, 7)
    assert tuple(interp.postlist) == (AsynchNode("b", IntLit(2), 2, Priority.HIGH),
                                      AsynchNode("b", IntLit(1), 1, Priority.LOW))
    assert json.loads(out.trace[-1]) == {"seq": 10, "kind": "error"}
    check_trace(out.trace)


def test_a_finished_run_raises_no_exception():
    # The drain ends because the three regions are empty, not on an exception
    # that the interpreter raises and catches.
    texts = [TWO_POSTS] + [path.read_text(encoding="utf-8")
                           for path in sorted(PROGRAMS.glob("*.ap"))]
    raised = []

    def tracer(frame, event, arg):
        if event == "exception":
            raised.append((frame.f_code.co_name, arg[0].__name__))
        return tracer

    finished = 0
    for text in texts:
        if not isinstance(run_src(text, budget=10_000), Finished):
            continue
        finished += 1
        for trace in (True, False):
            interp = Interpreter(parse_program(text), budget=10_000, trace=trace)
            before = sys.gettrace()
            sys.settrace(tracer)
            try:
                out = interp.run()
            finally:
                sys.settrace(before)
            assert isinstance(out, Finished) and raised == [], text
    assert finished == len(texts) - 2  # all but provided_zero.ap and count_forever.ap


@dataclass
class ForeignStmt(Stmt):
    """A statement type the interpreter has no handler for."""


@dataclass
class ForeignExpr(Expr):
    """An expression type the interpreter has no handler for."""


@pytest.mark.parametrize("stmt", [
    ForeignStmt(),
    AssignGlobal("g", ForeignExpr()),
    AssignGlobal("g", Binary("**", IntLit(2), IntLit(3))),
], ids=["statement", "expression", "operator"])
def test_foreign_node_raises_instead_of_an_outcome(stmt):
    assert_tree_rejected(Program("g", [Method("m", "x", Seq([stmt]))]))


def _cycle():
    """A negation that is its own operand: a tree of unbounded depth."""
    node = Unary("-", IntLit(1))
    node.operand = node
    return node


def _body(*stmts: Stmt) -> list[Method]:
    return [Method("m", "x", Seq(list(stmts)))]


@pytest.mark.parametrize("methods", [
    _body(Seq([AssignGlobal("g", IntLit(1))])),
    _body(If(Var("x"), AssignGlobal("g", IntLit(1)), Seq([]))),
    _body(If(Var("x"), Seq([]), AssignGlobal("g", IntLit(1)))),
    _body(While(Var("x"), AssignLocal("x", IntLit(0)))),
    [Method("m", "x", AssignGlobal("g", IntLit(1)))],
    _body(AssignGlobal("g", Binary("+", Var("g"), IntLit(True)))),
    _body(AssignGlobal("g", IntLit(2**70))),
    _body(AssignGlobal("g", IntLit(-5))),
    _body(AssignGlobal("g", Unary("~", IntLit(0)))),
    _body(AssignGlobal("g", Binary("<>", IntLit(1), IntLit(2)))),
    _body(Synch("m", IntLit(1), "high")),
    _body(AssignGlobal("g", Seq([]))),
    _body(If(IntLit(0), Seq([While(Var("x"), AssignLocal("x", IntLit(0)))]), Seq([]))),
    _body(AssignGlobal("g", _cycle())),
    [],
], ids=["block-as-statement", "then", "else", "while", "body", "bool-operand", "past-i64",
        "negative", "tilde", "foreign-binary-op", "string-priority", "block-as-expression",
        "in-code-that-never-runs", "cycle", "no-method"])
def test_interpreter_rejects_trees_the_grammar_cannot_express(methods):
    # As pretty_print does: a block is no statement, a branch or body is
    # always a block, a literal is an int in 0..I64_MAX, and an operator or
    # priority is one the grammar writes.  The whole tree is checked before
    # the first step, code that never runs included.
    assert_tree_rejected(Program("g", methods))


@pytest.mark.parametrize("stmt", [
    If(IntLit(0), Seq([AssignGlobal("g", IntLit(1))]), Seq([])),
    If(IntLit(1), Seq([]), Seq([AssignGlobal("g", IntLit(1))])),
    While(IntLit(0), Seq([AssignGlobal("g", IntLit(1))])),
], ids=["then", "else", "while"])
def test_code_that_never_runs_is_never_compiled(monkeypatch, stmt):
    # Each statement closure compiled is counted by its node type: the
    # statement that follows compiles, and the branch or body that never
    # runs compiles none.
    compiled = []
    for kind, compile_stmt in list(_STMT.items()):
        monkeypatch.setitem(_STMT, kind, lambda interp, node, method, f=compile_stmt:
                            compiled.append(type(node)) or f(interp, node, method))
    program = Program("g", _body(stmt, AssignGlobal("g", IntLit(2))))
    out = Interpreter(program).run()
    assert (type(out), out.global_value) == (Finished, 2)
    assert compiled == [type(stmt), AssignGlobal]


def _deepest_at(levels: int) -> list[Program]:
    """Two trees whose deepest node is at ``levels``: a chain of ``!`` under
    ``g :=``, and taken ``if``s nested around ``return();`` or ``g := 1;``."""
    chain = IntLit(0)
    for _ in range(levels - 3):  # the assignment is level 2, its expression 3
        chain = Unary("!", chain)
    block = Seq([Return() if levels % 2 == 0 else AssignGlobal("g", IntLit(1))])
    for _ in range((levels - 2 - levels % 2) // 2):  # each if is two levels
        block = Seq([If(IntLit(1), block, Seq([]))])
    return [Program("g", _body(AssignGlobal("g", chain))), Program("g", [Method("m", "x", block)])]


@pytest.mark.parametrize("levels", [MAX_DEPTH, MAX_DEPTH + 1, 400, 120_000])
def test_depth_is_checked_before_the_first_step(levels):
    # Up to MAX_DEPTH a tree runs, and its printed text reparses to it; past
    # it the parser rejects that text, and run() raises TypeError before its
    # first step, never RecursionError, however deep the tree.
    for program in _deepest_at(levels):
        if levels <= MAX_DEPTH:
            assert validate_scopes(program) == []
            assert type(Interpreter(program).run()) is Finished
            assert parse_program(pretty_print(program)) == program
            continue
        assert_tree_rejected(program)
        if levels == MAX_DEPTH + 1:
            with pytest.raises(ParseError, match="nesting too deep"):
                parse_program(pretty_print(program))


@pytest.mark.parametrize("src, message", [
    ("global g; meth m(x) { provided 0; g := y; }", "1:40 unknown-variable: y"),
    ("global g; meth m(x) { provided 0; synch(nope(1), low); }", "1:35 unknown-method: nope"),
    ("global g; meth m(x) { provided 0; run nope(y); }",
     "1:35 unknown-method: nope\n1:44 unknown-variable: y"),
], ids=["variable", "synch", "run"])
def test_scope_faults_raise_when_their_block_compiles(src, message):
    # Named for the rule it replaced: the fault is now rejected before the
    # first step, so the ``provided 0`` ahead of it never runs and no
    # method-start is written.  The message is validate_scopes's, one
    # error to a line, as the CLI prints it.
    assert_scope_rejected(parse_program(src), message)


def _one(stmt: Stmt) -> list[Method]:
    return [Method("m", "x", Seq([stmt]))]


# One tree per way ``validate_scopes`` rejects a name, each in code that runs:
# (its ScopeError kind, the methods).
SCOPE_FAULTS = {
    "read": ("unknown-variable", _one(AssignGlobal("g", Var("y")))),
    "assign-global": ("unknown-variable", _one(AssignGlobal("h", IntLit(1)))),
    "assign-local": ("unknown-variable", _one(AssignLocal("y", IntLit(1)))),
    "target": ("unknown-method", _one(Synch("nope", IntLit(1), Priority.LOW))),
    "duplicate": ("duplicate-method", [
        Method("m", "x", Seq([AssignGlobal("g", IntLit(1))])),
        Method("m", "x", Seq([AssignGlobal("g", Binary("+", Var("g"), IntLit(10)))]))]),
    "clash": ("global-local-clash", [Method("m", "g", Seq([AssignGlobal("g", IntLit(1))]))]),
}


@pytest.mark.parametrize("kind, methods", SCOPE_FAULTS.values(), ids=list(SCOPE_FAULTS))
def test_run_rejects_every_scope_fault(kind, methods):
    # Each is rejected before the first step, so no statement runs: run, the
    # duplicate-method tree would finish with 20, startup running the second
    # body twice.
    program = Program("g", methods)
    errors = validate_scopes(program)
    assert [error.kind for error in errors] == [kind]
    assert_scope_rejected(program, str(errors[0]))


def test_run_raises_exactly_when_validate_scopes_rejects():
    # The SCOPE_FAULTS trees, then corpus programs with identifiers renamed
    # at random as the behaviour lock renames them: every kind of scope fault,
    # in code that runs and in code that never does.
    corpus = [pretty_print(p) for p in gen_programs(20150100, 1000)]
    rng = random.Random(20150130)
    programs = [Program("g", methods) for _, methods in SCOPE_FAULTS.values()]
    programs += [parse_program(renamed(rng, rng.choice(corpus))) for _ in range(2000)]
    kinds, accepted = set(), 0
    for program in programs:
        errors = validate_scopes(program)
        kinds.update(error.kind for error in errors)
        if errors:
            assert_scope_rejected(program, "\n".join(map(str, errors)))
        else:
            accepted += 1
            assert isinstance(Interpreter(program, budget=10_000).run(), (Finished, Failed))
    assert kinds == {"unknown-variable", "unknown-method", "duplicate-method",
                     "global-local-clash"}
    assert 100 < accepted < 1000


def test_methods_sharing_one_body_read_their_own_locals():
    body = Seq([AssignGlobal("g", Binary("+", Binary("*", Var("g"), IntLit(10)), Var("x")))])
    main = Seq([Run("a", IntLit(1)), Run("b", IntLit(2))])
    program = Program("g", [Method("a", "x", body), Method("b", "x", body),
                            Method("main", "x", main)])
    out = Interpreter(program).run()
    assert isinstance(out, Finished)
    assert out.global_value == 12


def test_program_object_reruns_like_fresh_parses():
    texts = [path.read_text(encoding="utf-8") for path in sorted(PROGRAMS.glob("*.ap"))]
    texts += [pretty_print(p) for p in gen_programs(seed=1357, count=50)]
    for text in texts:
        program = parse_program(text)
        for trace in (True, False):
            again = Interpreter(program, budget=10_000, trace=trace).run()
            fresh = Interpreter(parse_program(text), budget=10_000, trace=trace).run()
            assert again == fresh, text
        assert program == parse_program(text)


def observe(interp: Interpreter):
    """Run ``interp``: the outcome's type and payload, the step count and
    the store; and the trace."""
    out = interp.run()
    end = out.global_value if isinstance(out, Finished) else (out.kind, out.line, out.col)
    return (type(out), end, interp.step_count, interp.store), out.trace


def test_trace_off_matches_trace_on():
    for program in gen_programs(seed=2468, count=500):
        full = Interpreter(program)
        full.run()
        # Half the step count also compares faults in the middle of a body.
        for budget in (DEFAULT_BUDGET, full.step_count // 2):
            on, _ = observe(Interpreter(program, budget, trace=True))
            off, trace = observe(Interpreter(program, budget, trace=False))
            assert off == on, pretty_print(program)
            assert trace == []


def test_a_second_run_is_a_fresh_run():
    # Each run starts from the program's initial state: a second run on the
    # same interpreter ends as a fresh interpreter's run does, and leaves the
    # first run's outcome, trace included, as it was.
    texts = [path.read_text(encoding="utf-8") for path in sorted(PROGRAMS.glob("*.ap"))]
    texts += [pretty_print(p) for p in gen_programs(seed=9753, count=30)]
    for text in texts:
        program = parse_program(text)
        for budget in (50, DEFAULT_BUDGET):
            for trace in (True, False):
                interp = Interpreter(program, budget=budget, trace=trace)
                first = interp.run()
                first_trace = list(first.trace)
                second = interp.run()
                fresh = Interpreter(program, budget=budget, trace=trace)
                assert second == fresh.run() and first.trace == first_trace, text
                assert (interp.step_count, interp.store, interp.trace, tuple(interp.postlist)) \
                    == (fresh.step_count, fresh.store, fresh.trace, tuple(fresh.postlist)), text


# ------------------------------------------------------------------ memory

def cyclic_garbage(*calls) -> int:
    """Objects that only the cyclic collector can free, left by ``calls`` in turn.

    Objects made before the calls are frozen, so they are neither counted
    nor scanned: a full collection of the test process would take longer.
    """
    gc.disable()
    gc.freeze()
    try:
        for call in calls:
            call()
        return gc.collect()
    finally:
        gc.unfreeze()
        gc.enable()


def test_runs_leave_no_cyclic_garbage():
    def run(program, **options):
        """A call that builds the interpreter too, so that it is counted."""
        return lambda: Interpreter(program, **options).run()

    texts = [path.read_text(encoding="utf-8") for path in sorted(PROGRAMS.glob("*.ap"))]
    texts += [pretty_print(p) for p in gen_programs(seed=8642, count=200)]
    for text in texts:
        program = parse_program(text)
        full = Interpreter(program)
        full.run()
        runs = [run(program, budget=budget, trace=trace)
                for budget in (DEFAULT_BUDGET, full.step_count // 2) for trace in (True, False)]
        assert cyclic_garbage(*runs) == 0, text
    for src in (ENDLESS_RUN, "global g; meth m(x) { g := 1 / x; }",
                "global g; meth m(x) { if 1 { return(); } else { } g := 1; }"):
        for trace in (True, False):
            assert cyclic_garbage(run(parse_program(src), trace=trace)) == 0, src

    def foreign(stmt, error):
        program = Program("g", [Method("m", "x", Seq([stmt]))])
        try:
            Interpreter(program).run()
        except error:
            return  # the exception, its traceback and their frames go here
        pytest.fail("no error")
    for stmt, error in ((ForeignStmt(), TypeError),
                        (While(Var("x"), AssignLocal("x", IntLit(0))), TypeError)):
        assert cyclic_garbage(lambda: foreign(stmt, error)) == 0, stmt
