"""Seeded inputs for the benchmark, with the outputs each one must produce.

Every generator writes ``.ap`` source text directly and never imports
``priopost``, so the inputs stay the same whatever the package does
to its AST, and a change to the test suite's own generator cannot
change a workload.  ``random.Random`` seeded with a string is stable
across Python 3 releases, so a seed names the same files everywhere.

Each workload is a list of ``Request`` objects.  A request carries the
CLI command, the source to write, and one of three expectations:

* ``ExpectGlobal``: ``run`` exits 0 and prints this final global.  The
  value comes from a plain-Python model of the generated program
  (``loop_model``, ``fanout_model``).
* ``ExpectAnalysis``: ``analyze`` reports exactly this effect-free set,
  dead-post count and edge count, which the generator knows from how it
  built each method.
* ``ExpectDigest``: sha256 of exit code, stdout and trace equals the
  digest recorded by ``record_digests.py`` at the seed commit.
"""

from __future__ import annotations

import hashlib
import random
from collections import deque
from dataclasses import dataclass

P64 = 1_000_000_007

LOOP_REQUESTS = 100
FANOUT_REQUESTS = 100
FRONTEND_REQUESTS = 100
FRONTEND_SOURCES = 50
FRONTEND_POOL = 100
FRONTEND_METHODS = 90
CORPUS_REQUESTS = 1000
CORPUS_POOL = 2000
CORPUS_FAULT_SHARE = 0.11

FRONTEND_MODES = (("parse",), ("parse", "--emit-ast"), ("analyze",))
PRIORITIES = ("high", "medium", "low")


@dataclass(frozen=True)
class ExpectGlobal:
    value: int


@dataclass(frozen=True)
class ExpectAnalysis:
    effect_free: frozenset
    dead_posts: int
    edges: int


@dataclass(frozen=True)
class ExpectDigest:
    key: str  # entry in digests.json


@dataclass(frozen=True)
class Request:
    """One CLI call: ``priopost <command> <file> <options>``.

    ``trace`` asks for ``--trace <file>`` next to the source file.
    """

    file: str
    source: str
    command: tuple[str, ...]
    expect: ExpectGlobal | ExpectAnalysis | ExpectDigest
    trace: bool = False


def output_digest(code: int | None, stdout: str, trace: str) -> str:
    """The recorded form of one request's observable output."""
    blob = f"{code}\n{stdout}\0{trace}".encode()
    return hashlib.sha256(blob).hexdigest()


def spread(count: int, low: int, high: int, rng: random.Random) -> list[int]:
    """``count`` sizes evenly spaced over [low, high], in seeded order.

    Every seed gets the same multiset of sizes, so the total work of a
    workload does not depend on the seed; only which request gets which
    size, and the constants inside each program, do.  The smallest size
    always comes first, so the warm-up request costs the same for every
    seed.
    """
    sizes = [low + (high - low) * i // max(count - 1, 1) for i in range(count)]
    rest = sizes[1:]
    rng.shuffle(rest)
    return sizes[:1] + rest


# ---------------------------------------------------------------- loop

@dataclass(frozen=True)
class LoopParams:
    iterations: int
    mul: int
    add: int
    mod: int


LOOP_TEMPLATE = """\
// Counted loop: the interpreter does nearly all the work.
global g;

meth mix(v) {{
    g := (g * {mul} + v + {add}) % {mod};
}}

meth main(n) {{
    n := {iterations};
    while n > 0 {{
        run mix(n);
        n := n - 1;
    }}
}}
"""


def loop_source(p: LoopParams) -> str:
    return LOOP_TEMPLATE.format(**p.__dict__)


def loop_model(p: LoopParams) -> int:
    """Final global: ``mix`` runs once at startup with v = 0, then per n."""
    g = (0 * p.mul + 0 + p.add) % p.mod
    for n in range(p.iterations, 0, -1):
        g = (g * p.mul + n + p.add) % p.mod
    return g


def loop_params(seed: int, count: int = LOOP_REQUESTS) -> list[LoopParams]:
    rng = random.Random(f"loop:{seed}")
    return [LoopParams(n, rng.randint(2, 97), rng.randint(0, 999), rng.randint(10_007, 1_000_003))
            for n in spread(count, 900, 1100, rng)]


def loop_requests(seed: int, count: int = LOOP_REQUESTS) -> list[Request]:
    return [Request(f"loop{i:03d}.ap", loop_source(p), ("run",), ExpectGlobal(loop_model(p)))
            for i, p in enumerate(loop_params(seed, count))]


# -------------------------------------------------------------- fanout

@dataclass(frozen=True)
class FanoutParams:
    posts: int
    high_mod: int   # iteration n posts at high when n % high_mod == high_rem
    high_rem: int
    work_mul: int
    tail_mul: int


FANOUT_TEMPLATE = """\
// Startup posts {posts} calls at high and medium; each dispatched call
// folds its argument into g and posts one low follow-up.
global g;

meth work(x) {{
    if x {{
        g := (g * {work_mul} + x) % {mod};
        synch(tail(x + 1), low);
    }} else {{
    }}
}}

meth tail(y) {{
    if y {{
        g := (g * {tail_mul} + y) % {mod};
    }} else {{
    }}
}}

meth main(n) {{
    n := {posts};
    while n > 0 {{
        if n % {high_mod} == {high_rem} {{
            synch(work(n * 2 + 1), high);
        }} else {{
            synch(work(n * 2 + 2), medium);
        }}
        n := n - 1;
    }}
}}
"""


def fanout_source(p: FanoutParams) -> str:
    return FANOUT_TEMPLATE.format(mod=P64, **p.__dict__)


def fanout_model(p: FanoutParams) -> int:
    """Final global, replayed over three FIFO queues, highest rank first.

    Startup runs ``work`` and ``tail`` with a zero local (no effect),
    then ``main``, which makes every high and medium post.
    """
    queues = {"high": deque(), "medium": deque(), "low": deque()}
    for n in range(p.posts, 0, -1):
        if n % p.high_mod == p.high_rem:
            queues["high"].append(("work", n * 2 + 1))
        else:
            queues["medium"].append(("work", n * 2 + 2))
    g = 0
    while True:
        queue = next((q for q in queues.values() if q), None)
        if queue is None:
            return g
        method, arg = queue.popleft()
        if method == "work":
            g = (g * p.work_mul + arg) % P64
            queues["low"].append(("tail", arg + 1))
        else:
            g = (g * p.tail_mul + arg) % P64


def fanout_params(seed: int, count: int = FANOUT_REQUESTS,
                  low: int = 400, high: int = 1600) -> list[FanoutParams]:
    rng = random.Random(f"fanout:{seed}")
    out = []
    for posts in spread(count, low, high, rng):
        high_mod = rng.randint(2, 5)
        out.append(FanoutParams(posts, high_mod, rng.randrange(high_mod),
                                rng.randint(2, 97), rng.randint(2, 97)))
    return out


def fanout_requests(seed: int, count: int = FANOUT_REQUESTS,
                    low: int = 400, high: int = 1600) -> list[Request]:
    return [Request(f"fanout{i:03d}.ap", fanout_source(p), ("run",), ExpectGlobal(fanout_model(p)))
            for i, p in enumerate(fanout_params(seed, count, low, high))]


# ------------------------------------------------------------ frontend

@dataclass(frozen=True)
class FrontendSource:
    text: str
    effect_free: frozenset
    dead_posts: int
    edges: int


class _FrontendGen:
    """One large source whose analysis result is known by construction.

    A method is labelled effect-free or not before its body is written.
    Effect-free bodies hold only local assignments, ifs, and runs/posts
    of later effect-free methods, with no division or modulo anywhere.
    Every other body holds at least one global assignment, which
    disqualifies it on its own.  Calls only go to later methods, so the
    post graph is acyclic and the analysis fixpoint returns exactly the
    labelled set.  Every body is guarded on its local, so startup runs
    none of it.
    """

    LOCALS = ("x", "v", "arg", "k", "val", "item")

    def __init__(self, rng: random.Random, methods: int):
        self.rng = rng
        self.names = [f"n{i:03d}" for i in range(methods)]
        self.free = [rng.random() < 0.4 for _ in range(methods)]
        self.dead_posts = 0
        self.edges = 0

    def expr(self, local: str, depth: int, allow_div: bool) -> str:
        rng = self.rng
        if depth <= 0 or rng.random() < 0.35:
            r = rng.random()
            return local if r < 0.45 else "g" if r < 0.65 else str(rng.randint(0, 99))
        r = rng.random()
        if allow_div and r < 0.12:
            op = rng.choice(("/", "%"))
            return f"({self.expr(local, depth - 1, allow_div)}) {op} {rng.randint(2, 9)}"
        op = rng.choice(("+", "-", "*", "+", "-", "<", "==", "!=", ">="))
        return f"({self.expr(local, depth - 1, allow_div)} {op} {self.expr(local, depth - 1, allow_div)})"

    def block(self, i: int, local: str, indent: int, count: int, depth: int) -> list[str]:
        rng = self.rng
        pad = "    " * indent
        free = self.free[i]
        targets = [j for j in range(i + 1, len(self.names)) if self.free[j] or not free]
        lines = []
        for _ in range(count):
            r = rng.random()
            if r < 0.25 and depth < 2:
                lines.append(f"{pad}if {self.expr(local, 2, not free)} {{")
                lines += self.block(i, local, indent + 1, rng.randint(1, 2), depth + 1)
                lines.append(f"{pad}}} else {{")
                lines += self.block(i, local, indent + 1, rng.randint(0, 1), depth + 1)
                lines.append(f"{pad}}}")
            elif r < 0.55 and targets:
                j = rng.choice(targets)
                self.edges += 1
                arg = self.expr(local, 2, not free)
                if rng.random() < 0.7:
                    if self.free[j] and "/" not in arg and "%" not in arg:
                        self.dead_posts += 1
                    lines.append(f"{pad}synch({self.names[j]}({arg}), {rng.choice(PRIORITIES)});")
                else:
                    lines.append(f"{pad}run {self.names[j]}({arg});")
            elif not free and r < 0.65:
                lines.append(f"{pad}g := {self.expr(local, 2, True)};")
            elif not free and r < 0.70:
                lines.append(f"{pad}while {local} > 100 {{")
                lines.append(f"{pad}    {local} := {local} - {rng.randint(1, 9)};")
                lines.append(f"{pad}}}")
            elif not free and r < 0.73:
                lines.append(f"{pad}provided {self.expr(local, 2, True)};")
            else:
                lines.append(f"{pad}{local} := {self.expr(local, 2, not free)};")
        return lines

    def source(self) -> str:
        out = ["// Generated front-end input: guarded bodies, acyclic posts.", "global g;"]
        for i, name in enumerate(self.names):
            local = self.rng.choice(self.LOCALS)
            body = self.block(i, local, 2, self.rng.randint(2, 4), 0)
            if not self.free[i]:
                body.append(f"        g := {self.expr(local, 2, True)};")
            out += ["", f"meth {name}({local}) {{", f"    if {local} {{", *body,
                    "    } else {", "    }", "}"]
        return "\n".join(out) + "\n"


def frontend_source(k: int, methods: int = FRONTEND_METHODS) -> FrontendSource:
    gen = _FrontendGen(random.Random(f"frontend:{k}"), methods)
    text = gen.source()
    effect_free = frozenset(n for n, f in zip(gen.names, gen.free) if f)
    return FrontendSource(text, effect_free, gen.dead_posts, gen.edges)


def frontend_requests(seed: int, count: int = FRONTEND_REQUESTS,
                      sources: int = FRONTEND_SOURCES) -> list[Request]:
    """``count`` requests cycling parse, parse --emit-ast and analyze.

    The seed picks ``sources`` of the ``FRONTEND_POOL`` pool sources, so
    the parse outputs can be checked against digests recorded for the
    whole pool.
    """
    picked = random.Random(f"frontend-pick:{seed}").sample(range(FRONTEND_POOL), sources)
    built = {k: frontend_source(k) for k in picked}
    return [frontend_request(k, built[k], FRONTEND_MODES[i % len(FRONTEND_MODES)])
            for i, k in enumerate(picked[i % sources] for i in range(count))]


def frontend_request(k: int, src: FrontendSource, mode: tuple[str, ...]) -> Request:
    if mode[0] == "analyze":
        expect = ExpectAnalysis(src.effect_free, src.dead_posts, src.edges)
    else:
        expect = ExpectDigest(f"frontend/{k}/{' '.join(mode)}")
    return Request(f"front{k:03d}.ap", src.text, mode, expect)


# -------------------------------------------------------------- corpus

class _CorpusGen:
    """A small program that always stops well inside the step budget.

    Calls only go to later methods, each loop is preceded by
    ``x := x % 4`` and only decrements its counter, and every assignment
    and call argument reduces modulo a literal, so no value can
    overflow.  The only faults are the ones ``source`` plants.
    """

    LOCALS = ("x", "y", "z", "w", "p")
    FAULTS = (
        "provided g - g;",
        "g := g / (g - g);",
        "g := 9223372036854775807 + (g * 0 + 1);",
    )

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.remaining = 30

    def take(self) -> bool:
        if self.remaining <= 0:
            return False
        self.remaining -= 1
        return True

    def expr(self, local: str, depth: int) -> str:
        rng = self.rng
        if depth <= 0 or rng.random() < 0.4:
            r = rng.random()
            return local if r < 0.4 else "g" if r < 0.7 else str(rng.randint(0, 9))
        op = rng.choice(("+", "-", "+", "<", "==", "!=", "and", "or"))
        if rng.random() < 0.15:
            return f"({rng.randint(0, 9)} * {self.expr(local, depth - 1)})"
        return f"({self.expr(local, depth - 1)} {op} {self.expr(local, depth - 1)})"

    def reduced(self, local: str) -> str:
        return f"{self.expr(local, 1)} % {self.rng.choice((97, 1009, 65521))}"

    def block(self, names, i, local, indent, count, in_loop, calls) -> list[str]:
        rng = self.rng
        pad = "    " * indent
        lines = []
        targets = names[i + 1:]
        for _ in range(count):
            if not self.take():
                break
            r = rng.random()
            if r < 0.25:
                lines.append(f"{pad}g := {self.reduced(local)};")
            elif r < 0.38 and not in_loop:
                lines.append(f"{pad}{local} := {self.reduced(local)};")
            elif r < 0.55 and indent < 3:
                lines.append(f"{pad}if {self.expr(local, 1)} {{")
                lines += self.block(names, i, local, indent + 1, rng.randint(1, 2), in_loop, calls)
                if not in_loop and rng.random() < 0.15:
                    lines.append(f"{pad}    return();")
                lines.append(f"{pad}}} else {{")
                lines += self.block(names, i, local, indent + 1, rng.randint(0, 2), in_loop, calls)
                lines.append(f"{pad}}}")
            elif r < 0.65 and not in_loop and self.remaining > 2:
                self.remaining -= 2
                lines.append(f"{pad}{local} := {local} % 4;")
                lines.append(f"{pad}while {local} > 0 {{")
                lines += self.block(names, i, local, indent + 1, rng.randint(1, 2), True, calls)
                lines.append(f"{pad}    {local} := {local} - 1;")
                lines.append(f"{pad}}}")
            elif r < 0.90 and targets and calls[0] < (1 if in_loop else 3):
                calls[0] += 1
                target = rng.choice(targets)
                if rng.random() < 0.75:
                    lines.append(f"{pad}synch({target}({self.reduced(local)}), {rng.choice(PRIORITIES)});")
                else:
                    lines.append(f"{pad}run {target}({self.reduced(local)});")
            else:
                lines.append(f"{pad}provided {local} * {local} + 1;")
        return lines

    def source(self) -> str:
        rng = self.rng
        count = rng.randint(1, 5)
        names = [f"m{i}" for i in range(count)]
        bodies = []
        for i in range(count):
            local = rng.choice(self.LOCALS)
            lines = []
            if rng.random() < 0.6:
                lines.append(f"    if {local} {{")
                lines += self.block(names, i, local, 2, rng.randint(1, 2), False, [0])
                lines.append("    } else {")
                lines += self.block(names, i, local, 2, rng.randint(0, 1), False, [0])
                lines.append("    }")
            lines += self.block(names, i, local, 1, rng.randint(0, 2), False, [0])
            bodies.append((names[i], local, lines))
        if rng.random() < CORPUS_FAULT_SHARE:
            _, _, lines = rng.choice(bodies)
            lines.append("    " + rng.choice(self.FAULTS))
        out = ["global g;"]
        for name, local, lines in bodies:
            out += ["", f"meth {name}({local}) {{", *lines, "}"]
        return "\n".join(out) + "\n"


def corpus_source(k: int) -> str:
    return _CorpusGen(random.Random(f"corpus:{k}")).source()


def corpus_requests(seed: int, count: int = CORPUS_REQUESTS) -> list[Request]:
    """``count`` programs drawn by the seed from a pool of ``CORPUS_POOL``."""
    picked = random.Random(f"corpus-pick:{seed}").sample(range(CORPUS_POOL), count)
    return [corpus_request(k) for k in picked]


def corpus_request(k: int) -> Request:
    return Request(f"corpus{k:04d}.ap", corpus_source(k), ("run",),
                   ExpectDigest(f"corpus/{k}"), trace=True)


WORKLOADS = {
    "loop": loop_requests,
    "fanout": fanout_requests,
    "frontend": frontend_requests,
    "corpus": corpus_requests,
}
