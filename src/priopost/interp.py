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
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
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

    With ``trace=False`` no ``TraceEvent`` is built: ``trace`` stays
    ``[]`` and so does the outcome's, while the outcome, the store and
    ``step_count`` are the same as with ``trace=True``.

    The walker dispatches on ``type(node)`` through two handler tables.
    Each statement handler takes its own step and calls the handlers of
    its children directly, so one level of statement nesting costs one
    Python frame.  A statement handler returns nothing; an expression
    handler returns the value over the global and the ``active``
    method's local.  ``return()`` takes its step and raises
    ``_Returned``, which unwinds the rest of the body to the activation
    that is open: ``_activate`` or its copy inlined in ``_exec_run``.
    Only there is a frame popped and its ``return`` event emitted, so a
    body that runs off its end and one that returns early close alike.
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
        self._eval = {
            IntLit: self._eval_int, Var: self._eval_var,
            Unary: self._eval_unary, Binary: self._eval_binary,
        }
        self._exec = {
            Seq: self._exec_seq, AssignGlobal: self._exec_assign_global,
            AssignLocal: self._exec_assign_local, Provided: self._exec_provided,
            If: self._exec_if, While: self._exec_while, Run: self._exec_run,
            Return: self._exec_return, Synch: self._exec_synch,
        }

    # -- bookkeeping --

    def _emit(self, kind, method=None, value=None, priority=None):
        self.trace.append(TraceEvent(len(self.trace) + 1, kind, method, value, priority))

    def _tick(self, node):
        if self.step_count >= self.budget:
            raise ExecFailure(STEP_BUDGET_EXHAUSTED, node.line, node.col)
        self.step_count += 1

    # -- expressions --

    def _eval_int(self, expr: IntLit, active: str) -> int:
        return expr.value

    def _eval_var(self, expr: Var, active: str) -> int:
        name = expr.name
        if name == self.program.global_name:
            return self.store.global_value
        if name == self._local_of.get(active):
            return self.store.locals[active]
        raise ValueError(f"variable {name!r} is not in scope of {active!r}")

    def _eval_unary(self, expr: Unary, active: str) -> int:
        operand = expr.operand
        v = self._eval[type(operand)](operand, active)
        if expr.op != "-":
            return 0 if v != 0 else 1
        v = -v
        if v < I64_MIN or v > I64_MAX:
            raise ExecFailure(ARITH_OVERFLOW, expr.line, expr.col)
        return v

    def _eval_binary(self, expr: Binary, active: str) -> int:
        left, right = expr.left, expr.right
        a = self._eval[type(left)](left, active)
        b = self._eval[type(right)](right, active)
        try:
            v = _BINARY[expr.op](a, b)
        except ZeroDivisionError:
            raise ExecFailure(DIVISION_BY_ZERO, expr.line, expr.col) from None
        if v < I64_MIN or v > I64_MAX:
            raise ExecFailure(ARITH_OVERFLOW, expr.line, expr.col)
        return v

    # -- statements --

    def _exec_seq(self, stmt: Seq):
        self._tick(stmt)
        handlers = self._exec
        for sub in stmt.stmts:
            handlers[type(sub)](sub)

    def _exec_assign_global(self, stmt: AssignGlobal):
        self._tick(stmt)
        active = self.stack[-1]
        expr = stmt.expr
        v = self.store.global_value = self._eval[type(expr)](expr, active)
        if self._tracing:
            self._emit("assign-global", active, v)

    def _exec_assign_local(self, stmt: AssignLocal):
        self._tick(stmt)
        active = self.stack[-1]
        expr = stmt.expr
        self.store.locals[active] = self._eval[type(expr)](expr, active)

    def _exec_provided(self, stmt: Provided):
        self._tick(stmt)
        expr = stmt.expr
        if self._eval[type(expr)](expr, self.stack[-1]) == 0:
            raise ExecFailure(PROVIDED_FAILED, stmt.line, stmt.col)

    def _exec_if(self, stmt: If):
        self._tick(stmt)
        cond = stmt.cond
        taken = stmt.then if self._eval[type(cond)](cond, self.stack[-1]) != 0 else stmt.orelse
        self._exec[type(taken)](taken)

    def _exec_while(self, stmt: While):
        self._tick(stmt)
        active = self.stack[-1]
        cond, body = stmt.cond, stmt.body
        test, run_body = self._eval[type(cond)], self._exec[type(body)]
        while test(cond, active) != 0:
            run_body(body)
            self._tick(stmt)

    def _exec_run(self, stmt: Run):
        self._tick(stmt)
        arg, method = stmt.arg, stmt.method
        v = self._eval[type(arg)](arg, self.stack[-1])
        if method not in self.methods:
            raise ValueError(f"method {method!r} is not declared")
        self.store.locals[method] = v
        if self._tracing:
            self._emit("run-call", method, v)
        # ``_activate`` inlined, so a run chain costs no extra frame per level.
        self.stack.append(method)
        body = self.methods[method].body
        try:
            self._exec[type(body)](body)
        except _Returned:
            pass
        self.stack.pop()
        if self._tracing:
            self._emit("return", method)

    def _exec_return(self, stmt: Return):
        self._tick(stmt)
        raise _Returned

    def _exec_synch(self, stmt: Synch):
        self._tick(stmt)
        arg, method = stmt.arg, stmt.method
        if method not in self.methods:
            raise ValueError(f"method {method!r} is not declared")
        v = self._eval[type(arg)](arg, self.stack[-1])
        self._post_seq += 1
        node = AsynchNode(method, arg, v, stmt.priority, self._post_seq)
        self.postlist = self.postlist.add(node)
        if self._tracing:
            self._emit("post", method, v, stmt.priority)

    # -- activations and whole runs --

    def _activate(self, method: str, body: Seq):
        """Push a frame, run the body, pop the frame and emit ``return``."""
        self.stack.append(method)
        try:
            self._exec[type(body)](body)
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
                self._activate(method.name, method.body)
                if self._tracing:
                    self._emit("method-end", method.name)
            # Drain: highest priority first, FIFO within a priority.
            while not self.postlist.is_empty():
                node, self.postlist = self.postlist.remove_first()
                self._tick(node.arg_expr)
                self.store.locals[node.method] = node.arg_value
                if self._tracing:
                    self._emit("dispatch", node.method, node.arg_value, node.priority)
                self._activate(node.method, self.methods[node.method].body)
        except ExecFailure as failure:
            if self._tracing:
                active = self.stack[-1] if self.stack else None
                kind = "provided-fail" if failure.kind == PROVIDED_FAILED else "error"
                self._emit(kind, active)
            return Failed(failure.kind, failure.line, failure.col, self.trace)
        return Finished(self.store.global_value, self.trace)


def run_program(program: Program, budget: int = DEFAULT_BUDGET) -> Outcome:
    """Run a scope-valid program to its terminal state on an ``AsynchList``.

    To run on another queue, such as ``OracleQueue.empty()`` to
    cross-check the scheduler, pass it as ``Interpreter``'s ``postlist``.
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
