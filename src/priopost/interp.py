"""Deterministic evaluator: statement execution, posting, and dispatch.

Execution has two phases:

1. **Startup.** Every method body runs once, in declaration order,
   with the global and every local initialised to 0.  There is no
   distinguished ``main``; a method that should only do work when
   dispatched must guard its body on its local (which is 0 at
   startup).
2. **Drain.** Posted calls are dispatched one at a time until the post
   queue is empty: remove the head, bind the call's post-time argument
   value to the target method's local, and run the body.  Calls posted
   while draining join the queue at their priority and may overtake
   earlier, lower-priority posts.

Other load-bearing choices, all observable in the trace:

* ``synch(m(e), p)`` evaluates ``e`` immediately; the *snapshot* is
  what the dispatched body sees, however the store changed in between.
* Each method has a single local cell, shared by every activation, so
  a recursive or re-entrant ``run`` clobbers the caller's local.
* ``return()`` pops the active frame and discards the rest of the
  body; a body that ends without it returns implicitly.
* ``provided e`` with ``e = 0`` has nowhere to go: it aborts the run
  with a ``provided-failed`` outcome.
* Arithmetic is checked signed 64-bit with truncating division;
  ``and``/``or`` evaluate both operands (no short-circuit).
* A step budget bounds the total number of rule applications so that
  ``while`` loops cannot hang the process.
"""

from __future__ import annotations

import json
import operator
from collections.abc import Callable
from dataclasses import dataclass, field

from .postlist import AsynchList, AsynchNode
from .syntax import (
    I64_MAX,
    I64_MIN,
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
)

DEFAULT_BUDGET = 1_000_000

PROVIDED_FAILED = "provided-failed"
DIVISION_BY_ZERO = "division-by-zero"
ARITH_OVERFLOW = "arith-overflow"
STEP_BUDGET_EXHAUSTED = "step-budget-exhausted"


class ExecFailure(Exception):
    """Internal signal for a runtime fault; surfaced as a Failed outcome."""

    def __init__(self, kind: str, line: int, col: int):
        super().__init__(f"{kind} at {line}:{col}")
        self.kind = kind
        self.line = line
        self.col = col


@dataclass
class Store:
    """Values of the global and of each method's single local cell."""

    global_value: int = 0
    locals: dict[str, int] = field(default_factory=dict)


@dataclass
class TraceEvent:
    seq: int
    kind: str  # post | dispatch | run-call | return | method-start |
    #            method-end | assign-global | provided-fail | error
    method: str | None = None
    value: int | None = None
    priority: Priority | None = None

    def to_json_obj(self) -> dict:
        obj: dict = {"seq": self.seq, "kind": self.kind}
        if self.method is not None:
            obj["method"] = self.method
        if self.value is not None:
            obj["value"] = self.value
        if self.priority is not None:
            obj["priority"] = self.priority.keyword
        return obj


@dataclass
class Finished:
    """Normal termination: post queue drained, stack empty."""

    global_value: int
    trace: list[TraceEvent]


@dataclass
class Failed:
    """Aborted run; ``kind`` is one of the runtime fault kinds above."""

    kind: str
    line: int
    col: int
    trace: list[TraceEvent]


Outcome = Finished | Failed


def _div(a: int, b: int) -> int:
    """Division truncating toward zero; a zero ``b`` raises ZeroDivisionError."""
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


# Binary operators on Python ints, before the signed 64-bit range check.
_BINARY = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": _div,
    "%": lambda a, b: a - _div(a, b) * b,
    "==": lambda a, b: 1 if a == b else 0,
    "!=": lambda a, b: 1 if a != b else 0,
    "<": lambda a, b: 1 if a < b else 0,
    "<=": lambda a, b: 1 if a <= b else 0,
    ">": lambda a, b: 1 if a > b else 0,
    ">=": lambda a, b: 1 if a >= b else 0,
    "and": lambda a, b: 1 if a != 0 and b != 0 else 0,
    "or": lambda a, b: 1 if a != 0 or b != 0 else 0,
}


class _Returned(Exception):
    """Raised by ``return()``; the activation it ends catches it."""


class Interpreter:
    """One program execution; fields are the live machine state.

    ``store``, ``postlist``, ``stack``, ``step_count`` and ``trace``
    stay inspectable after ``run`` returns, which the test suite uses
    to audit terminal states.

    ``postlist`` is the post queue to run on: by default a new
    ``AsynchList``, or any queue with its interface, such as
    ``MarkerList.empty()`` or ``OracleQueue()``.  ``add`` and
    ``remove_first`` return the queue to use next and may update their
    receiver in place, as ``AsynchList`` does, so a queue passed in is
    mutated by the run.

    With ``trace=False`` no ``TraceEvent`` is built: ``trace`` stays
    ``[]`` and so does the outcome's, while the outcome, the store and
    ``step_count`` are the same as with ``trace=True``.

    Code runs as closures, compiled lazily and kept on the interpreter,
    never on the AST.  A method body is compiled the first time the
    method is activated, and kept by method name.  An ``if`` branch or
    a ``while`` body is compiled the first time it is taken, so code
    that never runs is never compiled.  Each statement closure takes its
    own step and calls its children's closures, so one level of
    statement nesting costs one Python frame.  A ``Var`` is resolved to
    the global or to its method's local cell when compiled; an
    out-of-scope variable, like a ``run`` or ``synch`` to an undeclared
    method, raises ``ValueError`` only when it executes.  ``return()``
    takes its step and raises ``_Returned``, which unwinds the rest of
    the body to the activation that is open: ``_activate`` or its copy
    inlined in the ``run`` closure.  Only there is a frame popped and
    its ``return`` event emitted, so a body that runs off its end and
    one that returns early close alike.
    """

    def __init__(self, program: Program, budget: int = DEFAULT_BUDGET,
                 postlist=None, trace: bool = True):
        self.program = program
        self.methods = {m.name: m for m in program.methods}
        self.budget = budget
        self.store = Store(0, {m.name: 0 for m in program.methods})
        self.postlist = AsynchList.empty() if postlist is None else postlist
        self.stack: list[str] = []
        self.step_count = 0
        self.trace: list[TraceEvent] = []
        self._tracing = trace
        self._post_seq = 0
        self._local_of = {m.name: m.local for m in program.methods}
        self._bodies: dict[str, Callable[[], None]] = {}

    # -- bookkeeping --

    def _emit(self, kind, method=None, value=None, priority=None):
        self.trace.append(TraceEvent(len(self.trace) + 1, kind, method, value, priority))

    def _tick(self, node):
        if self.step_count >= self.budget:
            raise ExecFailure(STEP_BUDGET_EXHAUSTED, node.line, node.col)
        self.step_count += 1

    def _body(self, method: str) -> Callable[[], None]:
        """Compile ``method``'s body on its first activation; keep it by name."""
        body = self.methods[method].body
        code = self._bodies[method] = _STMT[type(body)](self, body, method)
        return code

    # -- expressions: each compiles to a closure returning the value --

    def _compile_int(self, expr: IntLit, method: str):
        value = expr.value
        return lambda: value

    def _compile_var(self, expr: Var, method: str):
        name, store = expr.name, self.store
        if name == self.program.global_name:
            return lambda: store.global_value
        if name == self._local_of.get(method):
            cells = store.locals
            return lambda: cells[method]

        def out_of_scope():
            raise ValueError(f"variable {name!r} is not in scope of {method!r}")
        return out_of_scope

    def _compile_unary(self, expr: Unary, method: str):
        operand = _EXPR[type(expr.operand)](self, expr.operand, method)
        if expr.op != "-":
            return lambda: 0 if operand() != 0 else 1
        line, col = expr.line, expr.col

        def negate():
            v = -operand()
            if v < I64_MIN or v > I64_MAX:
                raise ExecFailure(ARITH_OVERFLOW, line, col)
            return v
        return negate

    def _compile_binary(self, expr: Binary, method: str):
        left = _EXPR[type(expr.left)](self, expr.left, method)
        right = _EXPR[type(expr.right)](self, expr.right, method)
        op, line, col = _BINARY[expr.op], expr.line, expr.col

        def binary():
            a = left()
            b = right()
            try:
                v = op(a, b)
            except ZeroDivisionError:
                raise ExecFailure(DIVISION_BY_ZERO, line, col) from None
            if v < I64_MIN or v > I64_MAX:
                raise ExecFailure(ARITH_OVERFLOW, line, col)
            return v
        return binary

    # -- statements: each compiles to a closure that takes its step --

    def _compile_seq(self, stmt: Seq, method: str):
        subs = [_STMT[type(sub)](self, sub, method) for sub in stmt.stmts]
        budget, line, col = self.budget, stmt.line, stmt.col

        def seq():
            if self.step_count >= budget:
                raise ExecFailure(STEP_BUDGET_EXHAUSTED, line, col)
            self.step_count += 1
            for sub in subs:
                sub()
        return seq

    def _compile_assign_global(self, stmt: AssignGlobal, method: str):
        expr = _EXPR[type(stmt.expr)](self, stmt.expr, method)
        budget, line, col = self.budget, stmt.line, stmt.col
        store, tracing, emit = self.store, self._tracing, self._emit

        def assign_global():
            if self.step_count >= budget:
                raise ExecFailure(STEP_BUDGET_EXHAUSTED, line, col)
            self.step_count += 1
            v = store.global_value = expr()
            if tracing:
                emit("assign-global", method, v)
        return assign_global

    def _compile_assign_local(self, stmt: AssignLocal, method: str):
        expr = _EXPR[type(stmt.expr)](self, stmt.expr, method)
        budget, line, col = self.budget, stmt.line, stmt.col
        cells = self.store.locals

        def assign_local():
            if self.step_count >= budget:
                raise ExecFailure(STEP_BUDGET_EXHAUSTED, line, col)
            self.step_count += 1
            cells[method] = expr()
        return assign_local

    def _compile_provided(self, stmt: Provided, method: str):
        expr = _EXPR[type(stmt.expr)](self, stmt.expr, method)
        budget, line, col = self.budget, stmt.line, stmt.col

        def provided():
            if self.step_count >= budget:
                raise ExecFailure(STEP_BUDGET_EXHAUSTED, line, col)
            self.step_count += 1
            if expr() == 0:
                raise ExecFailure(PROVIDED_FAILED, line, col)
        return provided

    def _compile_if(self, stmt: If, method: str):
        cond = _EXPR[type(stmt.cond)](self, stmt.cond, method)
        budget, line, col = self.budget, stmt.line, stmt.col
        then = orelse = None

        def if_():
            nonlocal then, orelse
            if self.step_count >= budget:
                raise ExecFailure(STEP_BUDGET_EXHAUSTED, line, col)
            self.step_count += 1
            if cond() != 0:
                if then is None:
                    then = _STMT[type(stmt.then)](self, stmt.then, method)
                then()
            else:
                if orelse is None:
                    orelse = _STMT[type(stmt.orelse)](self, stmt.orelse, method)
                orelse()
        return if_

    def _compile_while(self, stmt: While, method: str):
        cond = _EXPR[type(stmt.cond)](self, stmt.cond, method)
        budget, line, col = self.budget, stmt.line, stmt.col
        body = None

        def while_():
            nonlocal body
            if self.step_count >= budget:
                raise ExecFailure(STEP_BUDGET_EXHAUSTED, line, col)
            self.step_count += 1
            while cond() != 0:
                if body is None:
                    body = _STMT[type(stmt.body)](self, stmt.body, method)
                body()
                if self.step_count >= budget:
                    raise ExecFailure(STEP_BUDGET_EXHAUSTED, line, col)
                self.step_count += 1
        return while_

    def _compile_run(self, stmt: Run, method: str):
        arg = _EXPR[type(stmt.arg)](self, stmt.arg, method)
        budget, line, col = self.budget, stmt.line, stmt.col
        callee, declared = stmt.method, stmt.method in self.methods
        cells, stack, bodies = self.store.locals, self.stack, self._bodies
        tracing, emit = self._tracing, self._emit

        def run():
            if self.step_count >= budget:
                raise ExecFailure(STEP_BUDGET_EXHAUSTED, line, col)
            self.step_count += 1
            v = arg()
            if not declared:
                raise ValueError(f"method {callee!r} is not declared")
            cells[callee] = v
            if tracing:
                emit("run-call", callee, v)
            # ``_activate`` inlined, so a run chain costs no extra frame per level.
            body = bodies.get(callee) or self._body(callee)
            stack.append(callee)
            try:
                body()
            except _Returned:
                pass
            stack.pop()
            if tracing:
                emit("return", callee)
        return run

    def _compile_return(self, stmt: Return, method: str):
        budget, line, col = self.budget, stmt.line, stmt.col

        def return_():
            if self.step_count >= budget:
                raise ExecFailure(STEP_BUDGET_EXHAUSTED, line, col)
            self.step_count += 1
            raise _Returned
        return return_

    def _compile_synch(self, stmt: Synch, method: str):
        arg = _EXPR[type(stmt.arg)](self, stmt.arg, method)
        budget, line, col = self.budget, stmt.line, stmt.col
        callee, declared = stmt.method, stmt.method in self.methods
        arg_expr, priority = stmt.arg, stmt.priority
        tracing, emit = self._tracing, self._emit

        def synch():
            if self.step_count >= budget:
                raise ExecFailure(STEP_BUDGET_EXHAUSTED, line, col)
            self.step_count += 1
            if not declared:
                raise ValueError(f"method {callee!r} is not declared")
            v = arg()
            self._post_seq += 1
            node = AsynchNode(callee, arg_expr, v, priority, self._post_seq)
            self.postlist = self.postlist.add(node)
            if tracing:
                emit("post", callee, v, priority)
        return synch

    # -- activations and whole runs --

    def _activate(self, method: str):
        """Push a frame, run the body, pop the frame and emit ``return``."""
        body = self._bodies.get(method) or self._body(method)
        self.stack.append(method)
        try:
            body()
        except _Returned:
            pass
        self.stack.pop()
        if self._tracing:
            self._emit("return", method)

    def run(self) -> Outcome:
        """Startup phase, then drain; the program must be scope-valid."""
        try:
            for method in self.program.methods:
                self._tick(method)
                if self._tracing:
                    self._emit("method-start", method.name)
                self._activate(method.name)
                if self._tracing:
                    self._emit("method-end", method.name)
            # Drain: highest priority first, FIFO within a priority.
            while not self.postlist.is_empty():
                node, self.postlist = self.postlist.remove_first()
                self._tick(node.arg_expr)
                self.store.locals[node.method] = node.arg_value
                if self._tracing:
                    self._emit("dispatch", node.method, node.arg_value, node.priority)
                self._activate(node.method)
        except ExecFailure as failure:
            if self._tracing:
                active = self.stack[-1] if self.stack else None
                kind = "provided-fail" if failure.kind == PROVIDED_FAILED else "error"
                self._emit(kind, active)
            return Failed(failure.kind, failure.line, failure.col, self.trace)
        return Finished(self.store.global_value, self.trace)


# The compile function for each node type, called as ``f(interp, node, method)``.
_EXPR = {
    IntLit: Interpreter._compile_int, Var: Interpreter._compile_var,
    Unary: Interpreter._compile_unary, Binary: Interpreter._compile_binary,
}
_STMT = {
    Seq: Interpreter._compile_seq, AssignGlobal: Interpreter._compile_assign_global,
    AssignLocal: Interpreter._compile_assign_local, Provided: Interpreter._compile_provided,
    If: Interpreter._compile_if, While: Interpreter._compile_while,
    Run: Interpreter._compile_run, Return: Interpreter._compile_return,
    Synch: Interpreter._compile_synch,
}


def run_program(program: Program, budget: int = DEFAULT_BUDGET) -> Outcome:
    """Run a scope-valid program to its terminal state on a new ``AsynchList``.

    To run on another queue, such as ``MarkerList.empty()`` or
    ``OracleQueue()`` to cross-check the scheduler, pass it as
    ``Interpreter``'s ``postlist``, which the run may mutate.
    """
    return Interpreter(program, budget=budget).run()


def trace_to_jsonl(outcome: Outcome) -> str:
    """Serialize a trace as JSON lines; byte-stable for equal outcomes.

    Each event is one object with fields drawn from {seq, kind, method,
    value, priority}, absent fields omitted.  A finished run ends with
    ``{"kind": "finished", "global": <final value>}``.
    """
    lines = [json.dumps(ev.to_json_obj()) for ev in outcome.trace]
    if isinstance(outcome, Finished):
        lines.append(json.dumps({"kind": "finished", "global": outcome.global_value}))
    return "".join(line + "\n" for line in lines)
