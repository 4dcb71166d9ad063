"""Bounded random program generator for the property-based suites.

Every generated program is scope-valid and terminates well inside the
default step budget:

* posts and runs only target methods with a strictly higher index, so the
  call/post graph is acyclic;
* while loops only appear as a counted template (counter set to at most 3,
  decremented once per iteration, never reassigned inside the loop);
* at most three run/synch statements per method body, at most one of them
  inside a loop, which caps task fan-out at a few thousand dispatches.

Multiplication always has a small literal on one side and division keeps
mostly nonzero literal denominators, so arithmetic faults are possible but
rare and value growth stays tame.  All randomness comes from the caller's
random.Random, so a fixed seed reproduces the corpus exactly.
"""

from __future__ import annotations

import random

from priopost import (
    AssignGlobal,
    AssignLocal,
    Binary,
    If,
    IntLit,
    Method,
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

MAX_METHODS = 5
MAX_TOTAL_STMTS = 30

_COMPARE_OPS = ("==", "!=", "<", "<=", ">", ">=")
_PRIORITIES = (Priority.HIGH, Priority.MEDIUM, Priority.LOW)


class _Gen:
    def __init__(self, rng: random.Random):
        self.rng = rng
        self.remaining = MAX_TOTAL_STMTS

    # ---------------- expressions ----------------

    def atom(self, names: list[str]) -> IntLit | Var:
        if self.rng.random() < 0.5:
            return IntLit(self.rng.randint(0, 9))
        return Var(self.rng.choice(names))

    def expr(self, names: list[str], depth: int, allow_div: bool = True):
        if depth <= 0 or self.rng.random() < 0.45:
            return self.atom(names)
        r = self.rng.random()
        if r < 0.30:
            op = "+"
        elif r < 0.50:
            op = "-"
        elif r < 0.62:
            # One side stays a small literal so products cannot explode.
            lit = IntLit(self.rng.randint(0, 9))
            sub = self.expr(names, depth - 1, allow_div)
            if self.rng.random() < 0.5:
                return Binary("*", lit, sub)
            return Binary("*", sub, lit)
        elif r < 0.82:
            op = self.rng.choice(_COMPARE_OPS)
        elif r < 0.90:
            op = self.rng.choice(("and", "or"))
        elif r < 0.97 and allow_div:
            op = self.rng.choice(("/", "%"))
            num = self.expr(names, depth - 1, allow_div)
            if self.rng.random() < 0.6:
                den = IntLit(self.rng.randint(1, 9))
            else:
                den = self.expr(names, depth - 1, allow_div)
            return Binary(op, num, den)
        else:
            return Unary("-", self.expr(names, depth - 1, allow_div))
        left = self.expr(names, depth - 1, allow_div)
        right = self.expr(names, depth - 1, allow_div)
        return Binary(op, left, right)

    def post_arg(self, names: list[str]):
        if self.rng.random() < 0.5:
            return self.atom(names)
        return self.expr(names, 2)

    # ---------------- statements ----------------

    def _take(self) -> bool:
        if self.remaining <= 0:
            return False
        self.remaining -= 1
        return True

    def _post_stmt(self, names, targets, quiet_name):
        choices = list(targets)
        if quiet_name in targets and self.rng.random() < 0.4:
            target = quiet_name
        else:
            target = self.rng.choice(choices)
        if self.rng.random() < 0.82:
            return Synch(target, self.post_arg(names), self.rng.choice(_PRIORITIES))
        return Run(target, self.expr(names, 2))

    def _if_stmt(self, names, targets, quiet_name, posts, in_loop):
        cond = self.expr(names, 2)
        then = self.stmts(names, targets, quiet_name, posts,
                          max_n=2, in_loop=in_loop, allow_if=False)
        if self.rng.random() < 0.4:
            orelse = Seq([])
        else:
            orelse = self.stmts(names, targets, quiet_name, posts,
                                max_n=2, in_loop=in_loop, allow_if=False)
        return If(cond, then, orelse)

    def _while_stmt(self, names, targets, quiet_name, posts, local):
        # Counted loop: local := k; while local > 0 { ... local := local - 1; }
        bound = AssignLocal(local, IntLit(self.rng.randint(0, 3)))
        body = self.stmts(names, targets, quiet_name, posts,
                          max_n=2, in_loop=True, allow_if=True)
        step = AssignLocal(local, Binary("-", Var(local), IntLit(1)))
        loop = While(Binary(">", Var(local), IntLit(0)),
                     Seq(list(body.stmts) + [step]))
        return [bound, loop]

    def stmts(self, names, targets, quiet_name, posts,
              max_n, in_loop, allow_if, allow_while=False, local=None) -> Seq:
        out = []
        n = self.rng.randint(0 if in_loop else 1, max_n)
        for _ in range(n):
            if not self._take():
                break
            r = self.rng.random()
            if r < 0.30:
                out.append(AssignGlobal("g", self.expr(names, 3)))
            elif r < 0.50 and not in_loop:
                out.append(AssignLocal(local or names[-1], self.expr(names, 3)))
            elif r < 0.65 and allow_if:
                out.append(self._if_stmt(names, targets, quiet_name, posts, in_loop))
            elif r < 0.73 and allow_while and self.remaining > 2:
                out.extend(self._while_stmt(names, targets, quiet_name, posts, local))
            elif r < 0.90 and targets and posts[0] < (1 if in_loop else 3):
                posts[0] += 1
                out.append(self._post_stmt(names, targets, quiet_name))
            elif r < 0.93:
                out.append(Return())
            elif r < 0.96:
                if self.rng.random() < 0.7:
                    cond = Binary("==", IntLit(1), IntLit(1))
                else:
                    cond = self.expr(names, 2)
                out.append(Provided(cond))
            else:
                out.append(AssignGlobal("g", self.expr(names, 3)))
        return Seq(out)

    def quiet_body(self, local: str) -> Seq:
        # Additive local-only arithmetic: always effect-free and fault-free.
        out = []
        for _ in range(self.rng.randint(1, 4)):
            if not self._take():
                break
            r = self.rng.random()
            c = IntLit(self.rng.randint(0, 9))
            if r < 0.35:
                out.append(AssignLocal(local, Binary("+", Var(local), c)))
            elif r < 0.6:
                out.append(AssignLocal(local, Binary("-", Var(local), c)))
            elif r < 0.8:
                out.append(AssignLocal(local, c))
            else:
                cond = Binary(self.rng.choice(_COMPARE_OPS), Var(local), c)
                inner = Seq([AssignLocal(local, Binary("+", Var(local), IntLit(1)))])
                out.append(If(cond, inner, Seq([])))
        if self.rng.random() < 0.2:
            out.append(Return())
        return Seq(out)


def gen_program(rng: random.Random) -> Program:
    """Build one random, scope-valid, terminating program."""
    gen = _Gen(rng)
    n = rng.randint(1, MAX_METHODS)
    method_names = [f"m{i}" for i in range(n)]
    locals_ = [f"v{i}" for i in range(n)]
    quiet_idx = n - 1 if n >= 2 and rng.random() < 0.6 else None

    methods = []
    for i in range(n):
        name, local = method_names[i], locals_[i]
        targets = method_names[i + 1:]
        quiet_name = method_names[quiet_idx] if quiet_idx is not None else None
        if i == quiet_idx:
            body = gen.quiet_body(local)
        else:
            posts = [0]
            body = gen.stmts(["g", local], targets, quiet_name, posts,
                             max_n=5, in_loop=False, allow_if=True,
                             allow_while=True, local=local)
        methods.append(Method(name, local, body))
    return Program("g", methods)


def gen_programs(seed: int, count: int) -> list[Program]:
    """Deterministic corpus of `count` programs."""
    rng = random.Random(seed)
    return [gen_program(rng) for _ in range(count)]


# ---------------------------------------------------------------- graphs

_GRAPH_ARGS = ("x", "x + 1", "0", "x / 2", "x % 3")


def gen_graph_source(rng: random.Random, duplicates: bool = False) -> str:
    """Source of 1-9 methods joined by random run/synch edges.

    Unlike ``gen_program``, the run/post graph may have cycles and
    self-loops.  Bodies mix quiet local arithmetic with the statements
    that disqualify a method from being effect-free (``g :=``,
    ``provided``, ``while``, ``/``, ``%``), some of them under an ``if``.
    With ``duplicates``, some methods reuse an earlier name and some
    calls target the undeclared method ``ghost``, so the program is
    not scope-valid; otherwise it is.
    """
    n = rng.randint(1, 9)
    names = [f"m{i}" for i in range(n)]
    targets = names + ["ghost"] if duplicates else names
    out = ["global g;"]
    for i in range(n):
        name = rng.choice(names[:i + 1]) if duplicates and rng.random() < 0.2 else names[i]
        stmts = []
        for _ in range(rng.randint(0, 4)):
            r = rng.random()
            if r < 0.5:
                target = rng.choice(targets)
                arg = rng.choice(_GRAPH_ARGS)
                if rng.random() < 0.7:
                    prio = rng.choice(_PRIORITIES).keyword
                    stmts.append(f"synch({target}({arg}), {prio});")
                else:
                    stmts.append(f"run {target}({arg});")
            elif r < 0.65:
                stmts.append("x := x + 1;")
            elif r < 0.72:
                stmts.append("g := x;")
            elif r < 0.77:
                stmts.append("while x { x := x - 1; }")
            elif r < 0.82:
                stmts.append(rng.choice(("x := 10 / x;", "x := x % 2;")))
            elif r < 0.86:
                stmts.append("provided x;")
            elif stmts:
                stmts = [f"if x {{ {' '.join(stmts)} }} else {{ }}"]
        out.append(f"meth {name}(x) {{ {' '.join(stmts)} }}")
    return "\n".join(out) + "\n"


# -------------------------------------------------------------- large sources

_LARGE_OPS = ("+", "-", "*", "/", "%", "<", "<=", "==", "!=", ">=", "and", "or")


def gen_large_source(rng: random.Random, methods: int = 90) -> str:
    """Source text of ``methods`` methods, shaped like the benchmark's
    front-end inputs: every body guarded by ``if`` on its local, nested
    ``if``s, posts and runs of later methods, ``while``, ``provided``
    and parenthesised operator chains with unary operators.  The program
    is scope-valid; it is meant to be parsed and printed, not run.
    """
    names = [f"n{i:03d}" for i in range(methods)]

    def expr(local: str, depth: int) -> str:
        r = rng.random()
        if depth <= 0 or r < 0.3:
            return rng.choice((local, "g", str(rng.randint(0, 999))))
        if r < 0.38:
            return rng.choice(("-", "!")) + expr(local, depth - 1)
        op = rng.choice(_LARGE_OPS)
        return f"({expr(local, depth - 1)} {op} {expr(local, depth - 1)})"

    def block(i: int, local: str, pad: str, count: int, depth: int) -> list[str]:
        lines = []
        for _ in range(count):
            r = rng.random()
            if r < 0.25 and depth < 2:
                lines.append(f"{pad}if {expr(local, 2)} {{")
                lines += block(i, local, pad + "    ", rng.randint(1, 2), depth + 1)
                lines.append(f"{pad}}} else {{")
                lines += block(i, local, pad + "    ", rng.randint(0, 1), depth + 1)
                lines.append(f"{pad}}}")
            elif r < 0.5 and i + 1 < methods:
                target, arg = rng.choice(names[i + 1:]), expr(local, 2)
                prio = rng.choice(_PRIORITIES).keyword
                lines.append(rng.choice((f"{pad}synch({target}({arg}), {prio});",
                                         f"{pad}run {target}({arg});")))
            elif r < 0.6:
                lines.append(f"{pad}g := {expr(local, 3)};")
            elif r < 0.65:
                lines += [f"{pad}while {local} > 100 {{",
                          f"{pad}    {local} := {local} - {rng.randint(1, 9)};", f"{pad}}}"]
            elif r < 0.7:
                lines.append(f"{pad}provided {expr(local, 2)};")
            elif r < 0.72:
                lines.append(f"{pad}return();")
            else:
                lines.append(f"{pad}{local} := {expr(local, 3)};")
        return lines

    out = ["// A large generated source: guarded bodies, acyclic posts.", "global g;"]
    for i, name in enumerate(names):
        local = rng.choice(("x", "v", "arg", "k"))
        body = block(i, local, "        ", rng.randint(2, 4), 0)
        out += ["", f"meth {name}({local}) {{", f"    if {local} {{", *body,
                "    } else {", "    }", "}"]
    return "\n".join(out) + "\n"
