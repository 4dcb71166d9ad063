"""Dead-post detection: flag posts whose target can never matter.

A method is *effect-free* when running it, and everything it
transitively runs or posts, can neither change the global value nor
change whether and how the run terminates.  Posting such a method is
dead: deleting the post leaves the final global value and the sequence
of global assignments untouched (only post/dispatch trace events
differ).

The criterion is syntactic and conservative.  A method is disqualified
outright if its body contains:

* a global assignment (visible effect),
* ``provided`` (can abort the run),
* ``while`` (could diverge, turning a finishing run into a
  budget-exhausted one),
* division or modulo (could fault with division-by-zero).

A method is effect-free when it is not disqualified and every method
it runs or posts is effect-free, with no run/post cycle on the way (an
effect-free posting cycle would repost forever and exhaust the step
budget, so deleting it would change the outcome), and its longest chain
of ``run``s opens at most ``MAX_CALL_DEPTH`` activations (a dispatch, on
an empty stack, of a deeper one faults ``call-depth-exceeded``).

A flagged post must also have a fault-free argument expression, since
deleting the post deletes the argument evaluation too; arguments
containing division or modulo are left alone.
"""

from __future__ import annotations

from collections import defaultdict, namedtuple

from .interp import MAX_CALL_DEPTH
from .syntax import (
    AssignGlobal,
    Binary,
    Expr,
    Program,
    Provided,
    Run,
    Synch,
    While,
    walk,
)


# ``kind`` is "run" or "post", and ``priority`` is ``None`` for a run.
class PostEdge(namedtuple("PostEdge", "src dst kind priority line col")):
    """One syntactic run or synch statement, poster to target."""
    __slots__ = ()

    def to_json_obj(self) -> dict:
        obj: dict = {"from": self.src, "to": self.dst, "kind": self.kind}
        if self.priority is not None:
            obj["priority"] = self.priority.keyword
        obj["line"] = self.line
        obj["col"] = self.col
        return obj


PostGraph = namedtuple("PostGraph", "vertices edges")


class DeadPost(namedtuple("DeadPost", "method line col")):
    """Location of a flagged synch statement; ``method`` is the target."""
    __slots__ = ()

    def to_json_obj(self) -> dict:
        return {"method": self.method, "line": self.line, "col": self.col}


class AnalysisReport(namedtuple("AnalysisReport", "effect_free dead_posts graph")):
    __slots__ = ()

    def to_json_obj(self) -> dict:
        return {
            "effect_free": sorted(self.effect_free),
            "dead_posts": [d.to_json_obj() for d in self.dead_posts],
            "edges": [e.to_json_obj() for e in self.graph.edges],
        }


def _divides(node) -> bool:
    return type(node) is Binary and node.op in ("/", "%")


def expr_can_fault(expr: Expr) -> bool:
    """True when evaluating the expression could raise (division/modulo)."""
    return any(_divides(e) for e in walk(expr))


def dead_posts(program: Program) -> AnalysisReport:
    """Flag every synch of an effect-free method with a fault-free argument.

    The report's ``graph`` holds every syntactic run/synch edge, reachable
    or not, and its ``effect_free`` the largest set of methods whose
    execution is unobservable.  That set is a worklist least fixpoint over
    the graph: a quiet method joins once every method it runs or posts has joined,
    if its depth (1 plus the deepest method it runs) is at most ``MAX_CALL_DEPTH``,
    so one that reaches a cycle, a disqualified or undeclared method, or too deep a
    run chain never does.  Each edge is counted down once, with no recursion, and the
    result does not depend on the order sets iterate in.  A name declared twice (a scope
    error) is quiet when any declaration is, and its last declaration gives its calls.
    """
    edges, targets, runs, quiet, synchs = [], {}, {}, set(), []
    for m in program.methods:
        first = len(edges)
        loud = False
        for node in walk(m.body):
            kind = type(node)
            if kind is Run:
                edges.append(PostEdge(m.name, node.method, "run", None, node.line, node.col))
            elif kind is Synch:
                edges.append(PostEdge(m.name, node.method, "post", node.priority,
                                      node.line, node.col))
                synchs.append(node)
            elif kind is AssignGlobal or kind is Provided or kind is While or _divides(node):
                loud = True
        targets[m.name] = [e.dst for e in edges[first:]]
        runs[m.name] = [e.dst for e in edges[first:] if e.kind == "run"]
        if not loud:
            quiet.add(m.name)
    waiting = {name: len(targets[name]) for name in quiet}
    callers = defaultdict(list)
    for name in quiet:
        for t in targets[name]:
            callers[t].append(name)
    ready = [name for name, count in waiting.items() if count == 0]
    free, depth = set(), {}
    while ready:
        name = ready.pop()
        depth[name] = 1 + max((depth[t] for t in runs[name]), default=0)
        if depth[name] > MAX_CALL_DEPTH:  # its dispatch would fault call-depth-exceeded
            continue
        free.add(name)
        for caller in callers[name]:
            waiting[caller] -= 1
            if waiting[caller] == 0:
                ready.append(caller)
    flagged = [DeadPost(s.method, s.line, s.col) for s in synchs
               if s.method in free and not expr_can_fault(s.arg)]
    return AnalysisReport(free, flagged, PostGraph([m.name for m in program.methods], edges))
