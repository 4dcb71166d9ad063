"""Deterministic evaluator: statement execution, posting, and dispatch.

Execution has two phases:

1. **Startup.** Every method body runs once, in declaration order,
   with the global and every local initialised to 0.  There is no
   distinguished ``main``; a method that should only do work when
   dispatched must guard its body on its local (which is 0 at
   startup).
2. **Drain.** Posted calls are dispatched one at a time until the post
   queue's three regions are empty: remove the head, bind the call's
   post-time argument value to the target method's local, and run the
   body.  Calls posted while draining join the queue at their priority
   and may overtake earlier, lower-priority posts.

Other load-bearing choices, all observable in the trace:

* ``synch(m(e), p)`` evaluates ``e`` immediately; the *snapshot* is
  what the dispatched body sees, however the store changed in between.
* Each method has a single local cell, shared by every activation, so
  a recursive or re-entrant ``run`` clobbers the caller's local.
* ``return()``, by value, pops the active frame and skips the rest of
  the body; a body that ends without it returns implicitly.
* ``provided e`` with ``e = 0`` has nowhere to go: it aborts the run
  with a ``provided-failed`` outcome, as each fault does with its
  node's ``line:col``.
* Arithmetic is checked signed 64-bit with truncating division;
  ``and``/``or`` evaluate both operands (no short-circuit).
* A step budget bounds the total number of rule applications so that
  ``while`` loops cannot hang the process.
"""

from __future__ import annotations

import operator
import sys
import threading
from collections import namedtuple
from dataclasses import dataclass, field

from .postlist import AsynchList, AsynchNode
from .syntax import (
    I64_MAX,
    I64_MIN,
    MAX_DEPTH,
    AssignGlobal,
    AssignLocal,
    Binary,
    If,
    IntLit,
    Priority,
    Program,
    Provided,
    Return,
    Run,
    Seq,
    Synch,
    Unary,
    Var,
    While,
    _collector_paused,
    _json_scalar,
    validate_scopes,
)

DEFAULT_BUDGET = 1_000_000

PROVIDED_FAILED = "provided-failed"
DIVISION_BY_ZERO = "division-by-zero"
ARITH_OVERFLOW = "arith-overflow"
STEP_BUDGET_EXHAUSTED = "step-budget-exhausted"
CALL_DEPTH_EXCEEDED = "call-depth-exceeded"

MAX_CALL_DEPTH = 1_000
"""Most activations open at once; a ``run`` past it faults ``call-depth-exceeded``.
A chain with each level nested to ``MAX_DEPTH`` peaks near 45 MB RSS (300 MB at 10,000)."""

_RUN_LOCK = threading.RLock()


class ExecFailure(Exception):
    """Internal signal for a runtime fault, raised as ``ExecFailure(kind, node)``
    with the node it is at; surfaced as a Failed outcome."""


@dataclass
class Store:
    """Values of the global and of each method's single local cell."""

    global_value: int = 0
    locals: dict[str, int] = field(default_factory=dict)


class Finished(namedtuple("Finished", "global_value trace")):
    """Normal termination: post queue drained, stack empty; ``trace`` holds its event lines."""
    __slots__ = ()


class Failed(namedtuple("Failed", "kind line col trace")):
    """Aborted run; ``kind`` is a runtime fault kind above, ``trace`` its event lines."""
    __slots__ = ()


Outcome = Finished | Failed


def _div(a: int, b: int) -> int:
    """Division truncating toward zero; a zero ``b`` raises ZeroDivisionError."""
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


# Operators whose result is 0 or 1: neither ZeroDivisionError nor the range
# check can fire, so their closures have neither.
_TRUTH = {
    "==": operator.eq, "!=": operator.ne, "<": operator.lt, "<=": operator.le,
    ">": operator.gt, ">=": operator.ge,
    "and": lambda a, b: a != 0 and b != 0, "or": lambda a, b: a != 0 or b != 0,
}
# Operators that cannot divide by zero: only the range check can fire.
_RANGED = {"+": operator.add, "-": operator.sub, "*": operator.mul}
# Division and modulo by an operand that may be zero: the generic closure.
_BINARY = {"/": _div, "%": lambda a, b: a - _div(a, b) * b}


def _layout(kind: str, method: str | None, priority: Priority | None = None):
    """A trace line's text after its ``seq``, laid out as README's "Trace format"
    says: the line is ``f'{{"seq": {seq}{text}'``, or, for a kind with a value,
    ``text`` is a pair and the line ``f'{{"seq": {seq}{head}{value}{tail}'``."""
    head = f', "kind": "{kind}"' + ("" if method is None else ', "method": ' + _json_scalar(method))
    tail = "}\n" if priority is None else f', "priority": "{priority.keyword}"}}\n'
    if kind in ("post", "dispatch", "run-call", "assign-global"):
        return head + ', "value": ', tail
    return head + tail


class Interpreter:
    """A program, a step budget and a trace flag; each ``run`` executes the program.

    Each ``run`` starts from the program's initial state, making ``store``, ``postlist``
    (a new ``AsynchList``; a run finishes when its three regions are empty), ``stack``,
    ``step_count`` and ``trace`` afresh: a second run equals a fresh interpreter's.
    They stay inspectable after it returns, which the test suite uses to audit terminal states.

    ``trace`` holds one JSON line per event.  With ``trace=False`` none is
    made: ``trace`` stays ``[]`` and so does the outcome's, while the outcome,
    the store and ``step_count`` are the same as with ``trace=True``.  A closure's
    line text, ``False`` untraced, is also its test: each closure cell costs each call.

    Code runs as closures, compiled lazily and never kept on the AST.
    ``run`` makes them as it starts and drops them as it returns or
    raises: they hold the interpreter, so a run leaves no cyclic garbage
    (and pauses the cyclic collector while it goes, scope check included).
    The block (``Seq``) is the unit of compilation and of step accounting: each method body
    is one, and each ``if`` branch and ``while`` body one made when its
    statement is compiled.  A block compiles its own statements and
    their expressions the first time it runs, so code that never runs is
    never compiled.  The block takes the steps: one on entry, then one
    before each statement, at that statement's position.  Statement
    closures take none but ``while``'s step at each return to its test.
    A statement calls its children's block closures, so one level of
    statement nesting costs one Python frame.  A ``Var`` is resolved to
    its cell, and a ``run`` or ``synch`` to its target, when compiled.
    A statement closure returns ``True`` only if a ``return()`` ran in
    it; a block, ``if`` or ``while`` returns it at once, and the open
    activation pops its frame and emits ``return`` either way.  A fault
    raises ``ExecFailure`` with its node, read only to build ``Failed``.
    ``run`` (not the constructor) raises ``ValueError``, one error to a line,
    exactly when ``validate_scopes`` rejects the tree, before its first step.
    It rejects a tree the grammar cannot express when the block holding it
    first compiles, before any of that block's statements run: like
    ``pretty_print``, ``KeyError`` for a foreign statement (a block, say),
    and ``TypeError`` for a branch or body that is not a ``Seq`` or a
    literal that is not an ``int``.

    A binary operator compiles to a closure chosen by its operator class
    and operand shape.  A literal right operand is bound as a constant,
    and the method's own local left of it is read from its cell, with no
    child closure.  Comparisons, ``and`` and ``or`` yield 0 or 1, so they
    skip both the range check and the ``try`` around ZeroDivisionError.
    ``+ - *`` cannot divide: they keep only the range check, and also
    read the global left of a literal from the store, and the method's
    own local as the right operand from its cell.  Modulo by a
    nonzero literal skips both, as the remainder is smaller than the
    divisor.  Division, and modulo by anything else, get the generic
    closure, with both checks.  Every shape evaluates both operands, left
    first.
    """

    def __init__(self, program: Program, budget: int = DEFAULT_BUDGET, trace: bool = True):
        self.program = program
        self.budget = budget
        self._tracing = trace

    # -- expressions: each compiles to a closure returning the value --

    def _compile_int(self, expr: IntLit, method: str):
        value = expr.value
        if type(value) is not int:  # only a hand-built tree holds one; a trace writes ints
            raise TypeError(f"not an int literal: {expr!r}")
        return lambda: value

    def _compile_var(self, expr: Var, method: str):
        store = self.store
        if expr.name == self.program.global_name:
            return lambda: store.global_value
        cells = store.locals
        return lambda: cells[method]

    def _compile_unary(self, expr: Unary, method: str):
        operand = _EXPR[type(expr.operand)](self, expr.operand, method)
        if expr.op != "-":
            return lambda: 0 if operand() != 0 else 1

        def negate():
            v = -operand()
            if v < I64_MIN or v > I64_MAX:
                raise ExecFailure(ARITH_OVERFLOW, expr)
            return v
        return negate

    def _compile_binary(self, expr: Binary, method: str):
        op = expr.op
        lhs, rhs, store = expr.left, expr.right, self.store
        cells, glob, local = store.locals, self.program.global_name, self.methods[method].local
        k = rhs.value if type(rhs) is IntLit and type(rhs.value) is int else None
        own = k is not None and type(lhs) is Var and lhs.name == local
        left = None if own else _EXPR[type(lhs)](self, lhs, method)
        right = None if k is not None else _EXPR[type(rhs)](self, rhs, method)
        if op in _TRUTH:
            f = _TRUTH[op]
            if own:
                return lambda: 1 if f(cells[method], k) else 0
            if right is None:
                return lambda: 1 if f(left(), k) else 0
            return lambda: 1 if f(left(), right()) else 0
        if op in _RANGED:
            f = _RANGED[op]

            def overflow():
                raise ExecFailure(ARITH_OVERFLOW, expr)
            if own:
                return lambda: v if I64_MIN <= (v := f(cells[method], k)) <= I64_MAX else overflow()
            if right is None and type(lhs) is Var and lhs.name == glob:
                return lambda: v if I64_MIN <= (v := f(store.global_value, k)) <= I64_MAX else overflow()
            if right is None:
                return lambda: v if I64_MIN <= (v := f(left(), k)) <= I64_MAX else overflow()
            if type(rhs) is Var and rhs.name == local:
                return lambda: v if I64_MIN <= (v := f(left(), cells[method])) <= I64_MAX else overflow()
            return lambda: v if I64_MIN <= (v := f(left(), right())) <= I64_MAX else overflow()
        if op == "%" and k:
            m = abs(k)  # the truncating remainder has the dividend's sign
            if own:
                return lambda: a % m if (a := cells[method]) >= 0 else -(-a % m)
            return lambda: a % m if (a := left()) >= 0 else -(-a % m)
        left = left or _EXPR[type(lhs)](self, lhs, method)
        right = right or _EXPR[type(rhs)](self, rhs, method)
        op = _BINARY[op]

        def binary():
            a = left()
            b = right()
            try:
                v = op(a, b)
            except ZeroDivisionError:
                raise ExecFailure(DIVISION_BY_ZERO, expr) from None
            if v < I64_MIN or v > I64_MAX:
                raise ExecFailure(ARITH_OVERFLOW, expr)
            return v
        return binary

    # -- statements: each compiles to a closure; its block takes its step --

    def _compile_block(self, block: Seq, method: str):
        """A closure that compiles ``block``'s statements the first time it runs."""
        if type(block) is not Seq:
            raise TypeError(f"not a block: {block!r}")
        budget = self.budget
        code = None

        def run_block():
            nonlocal code
            if code is None:
                code = [(s, _STMT[type(s)](self, s, method)) for s in block.stmts]
            # Steps are taken inline, as in ``run()``: a helper would add a call per step.
            if self.step_count >= budget:
                raise ExecFailure(STEP_BUDGET_EXHAUSTED, block)
            self.step_count += 1
            for at, stmt in code:
                if self.step_count >= budget:
                    raise ExecFailure(STEP_BUDGET_EXHAUSTED, at)
                self.step_count += 1
                if stmt():
                    return True
        return run_block

    def _compile_assign_global(self, stmt: AssignGlobal, method: str):
        expr = _EXPR[type(stmt.expr)](self, stmt.expr, method)
        store, trace = self.store, self.trace
        text = self._tracing and _layout("assign-global", method)

        def assign_global():
            v = store.global_value = expr()
            if text:
                head, tail = text
                trace.append(f'{{"seq": {len(trace) + 1}{head}{v}{tail}')
        return assign_global

    def _compile_assign_local(self, stmt: AssignLocal, method: str):
        expr = _EXPR[type(stmt.expr)](self, stmt.expr, method)
        cells = self.store.locals

        def assign_local():
            cells[method] = expr()
        return assign_local

    def _compile_provided(self, stmt: Provided, method: str):
        expr = _EXPR[type(stmt.expr)](self, stmt.expr, method)

        def provided():
            if expr() == 0:
                raise ExecFailure(PROVIDED_FAILED, stmt)
        return provided

    def _compile_if(self, stmt: If, method: str):
        cond = _EXPR[type(stmt.cond)](self, stmt.cond, method)
        then = self._compile_block(stmt.then, method)
        orelse = self._compile_block(stmt.orelse, method)
        return lambda: then() if cond() != 0 else orelse()

    def _compile_while(self, stmt: While, method: str):
        cond = _EXPR[type(stmt.cond)](self, stmt.cond, method)
        body = self._compile_block(stmt.body, method)
        budget = self.budget

        def while_():
            while cond() != 0:
                if body():
                    return True
                # The step of each return to the test, inline as in ``run_block``.
                if self.step_count >= budget:
                    raise ExecFailure(STEP_BUDGET_EXHAUSTED, stmt)
                self.step_count += 1
        return while_

    def _compile_run(self, stmt: Run, method: str):
        arg = _EXPR[type(stmt.arg)](self, stmt.arg, method)
        callee = stmt.method
        cells, stack, bodies, trace = self.store.locals, self.stack, self._bodies, self.trace
        call = self._tracing and _layout("run-call", callee)
        ret = self._tracing and _layout("return", callee)

        def run():
            v = arg()
            if len(stack) >= MAX_CALL_DEPTH:  # only here: run() opens on an empty stack
                raise ExecFailure(CALL_DEPTH_EXCEEDED, stmt)
            cells[callee] = v
            if call:
                head, tail = call
                trace.append(f'{{"seq": {len(trace) + 1}{head}{v}{tail}')
            # The activation is inline, as in ``run()``: a shared helper costs a frame
            # per run level, and made ``loop``'s median interpreter time 3% slower.
            stack.append(callee)
            bodies[callee]()
            stack.pop()
            if ret:
                trace.append(f'{{"seq": {len(trace) + 1}{ret}')
        return run

    def _compile_synch(self, stmt: Synch, method: str):
        arg = _EXPR[type(stmt.arg)](self, stmt.arg, method)
        callee = stmt.method
        arg_expr, priority = stmt.arg, stmt.priority
        trace, add = self.trace, self.postlist.add
        new = tuple.__new__  # the named tuple's own ``__new__`` is a Python frame
        text = self._tracing and _layout("post", callee, priority)

        def synch():
            v = arg()
            add(new(AsynchNode, (callee, arg_expr, v, priority)))
            if text:
                head, tail = text
                trace.append(f'{{"seq": {len(trace) + 1}{head}{v}{tail}')
        return synch

    # -- activations and whole runs --

    @_collector_paused
    def run(self) -> Outcome:
        """Startup phase, then drain until the three regions are empty."""
        self.methods = {m.name: m for m in self.program.methods}
        self.store = Store(0, dict.fromkeys(self.methods, 0))
        self.postlist, self.stack, self.step_count, self.trace = AsynchList(), [], 0, []
        errors = validate_scopes(self.program)
        if errors:
            raise ValueError("\n".join(map(str, errors)))
        bodies = self._bodies = {m.name: self._compile_block(m.body, m.name)
                                 for m in self.program.methods}
        # The recursion limit is raised so that MAX_CALL_DEPTH activations fit
        # however deep the caller's stack is: MAX_DEPTH frames per activation,
        # and two activations' worth to compile a block (its own statements and
        # their expressions, never a nested block) and evaluate its deepest
        # expression.  The limit is process-wide, so runs in threads take turns.
        with _RUN_LOCK:
            limit = sys.getrecursionlimit()
            sys.setrecursionlimit(limit + (MAX_CALL_DEPTH + 2) * MAX_DEPTH)
            try:
                stack, budget, tracing, trace = self.stack, self.budget, self._tracing, self.trace
                returns, dispatches = {}, {}  # trace texts, made at need when tracing
                # Each activation, at startup and in the drain, is inline: push the
                # frame, run the body, pop the frame and append ``return``.
                for m in self.program.methods:
                    if self.step_count >= budget:
                        raise ExecFailure(STEP_BUDGET_EXHAUSTED, m)
                    self.step_count += 1
                    if tracing:
                        trace.append(f'{{"seq": {len(trace) + 1}{_layout("method-start", m.name)}')
                        returns[m.name] = _layout("return", m.name)
                    stack.append(m.name)
                    bodies[m.name]()
                    stack.pop()
                    if tracing:
                        trace.append(f'{{"seq": {len(trace) + 1}{returns[m.name]}')
                        trace.append(f'{{"seq": {len(trace) + 1}{_layout("method-end", m.name)}')
                # Drain: highest priority first, FIFO within a priority, until
                # the three regions are empty.
                high, medium, low = self.postlist.regions
                remove_first, cells = self.postlist.remove_first, self.store.locals
                while region := high or medium or low:
                    if self.step_count >= budget:  # the call stays queued
                        raise ExecFailure(STEP_BUDGET_EXHAUSTED, region[0].arg_expr)
                    method, _, value, priority = remove_first()
                    self.step_count += 1
                    cells[method] = value
                    if tracing:
                        key = method, priority.rank
                        if key not in dispatches:
                            dispatches[key] = _layout("dispatch", method, priority)
                        head, tail = dispatches[key]
                        trace.append(f'{{"seq": {len(trace) + 1}{head}{value}{tail}')
                    stack.append(method)
                    bodies[method]()
                    stack.pop()
                    if tracing:
                        trace.append(f'{{"seq": {len(trace) + 1}{returns[method]}')
                return Finished(self.store.global_value, self.trace)
            except ExecFailure as failure:
                kind, node = failure.args
                if self._tracing:
                    active = self.stack[-1] if self.stack else None
                    text = _layout("provided-fail" if kind == PROVIDED_FAILED else "error", active)
                    self.trace.append(f'{{"seq": {len(self.trace) + 1}{text}')
                return Failed(kind, node.line, node.col, self.trace)
            finally:
                self._bodies.clear()  # so that reference counting frees the run
                sys.setrecursionlimit(limit)


# The compile function for each node type, called as ``f(interp, node, method)``.
_EXPR = {
    IntLit: Interpreter._compile_int, Var: Interpreter._compile_var,
    Unary: Interpreter._compile_unary, Binary: Interpreter._compile_binary,
}
_STMT = {
    AssignGlobal: Interpreter._compile_assign_global,
    AssignLocal: Interpreter._compile_assign_local, Provided: Interpreter._compile_provided,
    If: Interpreter._compile_if, While: Interpreter._compile_while,
    Run: Interpreter._compile_run, Return: lambda interp, stmt, method: lambda: True,
    Synch: Interpreter._compile_synch,
}


def run_program(program: Program, budget: int = DEFAULT_BUDGET) -> Outcome:
    """Run a scope-valid program to its terminal state on a new ``AsynchList``."""
    return Interpreter(program, budget=budget).run()


def trace_to_jsonl(outcome: Outcome) -> str:
    """The trace as JSON lines, byte-stable for equal outcomes: the event lines, then
    on a finished run ``{"kind": "finished", "global": <final value>}``."""
    lines = outcome.trace
    if isinstance(outcome, Finished):
        lines = [*lines, f'{{"kind": "finished", "global": {_json_scalar(outcome.global_value)}}}\n']
    return "".join(lines)
