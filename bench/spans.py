"""Per-layer tracing of the priopost CLI, from outside the package.

``Tracer.installed()`` swaps timing wrappers in for the functions that
``priopost.cli`` imports, for ``priopost.syntax.tokenize`` (called by
``parse_program``) and for ``Interpreter.run``, and a counting subclass
of ``AsynchList`` in for ``AsynchList`` in ``priopost.interp`` and
``priopost.postlist``.  Leaving the block puts the originals back, so
untraced passes run the package untouched.

Each wrapped call becomes one ``Span`` kept in memory; spans of one
request share its index, and a span's parent is the span that was open
when it started.  Queue calls are too many for a span each, so they are
counted and timed in ``QueueStats`` and folded into the enclosing
``interp.run`` span.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import fields, is_dataclass
from time import perf_counter


class Span:
    __slots__ = ("request", "id", "parent", "name", "start", "end", "attrs")

    def __init__(self, request, id, parent, name):
        self.request = request
        self.id = id
        self.parent = parent
        self.name = name
        self.start = self.end = 0.0
        self.attrs = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json_obj(self) -> dict:
        obj = {"request": self.request, "id": self.id, "parent": self.parent,
               "name": self.name, "start": self.start, "end": self.end}
        if self.attrs:
            obj.update(self.attrs)
        return obj


class QueueStats:
    """Counts and time of post-queue calls since the last ``reset``."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.adds = 0
        self.removes = 0
        self.op_s = 0.0
        self.depth_sum = 0
        self.max_depth = 0

    def record(self, seconds: float, depth: int):
        self.op_s += seconds
        self.depth_sum += depth
        if depth > self.max_depth:
            self.max_depth = depth


def timed_list_class(base, stats: QueueStats):
    """A subclass of ``base`` (``AsynchList``) that reports to ``stats``.

    ``add`` and ``remove_first`` of the base build their result by the
    module-global name ``AsynchList``, which ``Tracer.installed`` points
    at this class, so results stay on it without being rebuilt.  Depth
    is the queue length the call sees: after an add, before a remove.
    """

    class TimedAsynchList(base):
        def add(self, node):
            start = perf_counter()
            out = base.add(self, node)
            stats.record(perf_counter() - start, len(out.nodes))
            stats.adds += 1
            return out

        def remove_first(self):
            start = perf_counter()
            out = base.remove_first(self)
            stats.record(perf_counter() - start, len(self.nodes))
            stats.removes += 1
            return out

    return TimedAsynchList


def count_nodes(node) -> int:
    """Number of AST nodes (every dataclass instance) under ``node``."""
    count = 0
    todo = [node]
    while todo:
        item = todo.pop()
        if isinstance(item, list):
            todo.extend(item)
        elif is_dataclass(item):
            count += 1
            todo.extend(getattr(item, f.name) for f in fields(item))
    return count


class Tracer:
    """Spans of every traced request, kept in memory until written out."""

    def __init__(self, cli, syntax, interp, postlist):
        self.cli = cli
        self.syntax = syntax
        self.interp = interp
        self.postlist = postlist
        self.spans: list[Span] = []
        self.queue = QueueStats()
        self._open: list[Span] = []
        self._request = -1
        self._nodes: dict[str, int] = {}

    def _start(self, name: str) -> Span:
        parent = self._open[-1].id if self._open else None
        span = Span(self._request, len(self.spans), parent, name)
        self.spans.append(span)
        self._open.append(span)
        span.start = perf_counter()
        return span

    def _finish(self, span: Span):
        span.end = perf_counter()
        self._open.pop()

    def call_main(self, request: int, argv):
        """``cli.main(argv)`` as the root span of request ``request``."""
        self._request = request
        span = self._start("cli.main")
        try:
            code = self.cli.main(argv)
        finally:
            self._finish(span)
        span.attrs = {"exit": code}
        return code

    def _wrap(self, name, fn, attrs=None):
        def wrapper(*args, **kwargs):
            span = self._start(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._finish(span)
            if attrs is not None:
                span.attrs = attrs(args, result)
            return result
        return wrapper

    def count_nodes_of(self, sources):
        """Count AST nodes of ``sources`` now, so no traced pass pays for it."""
        for source in sources:
            if source not in self._nodes:
                self._nodes[source] = count_nodes(self.syntax.parse_program(source))

    def _parse_attrs(self, args, program):
        source = args[0]
        if source not in self._nodes:
            self._nodes[source] = count_nodes(program)
        return {"nodes": self._nodes[source]}

    @staticmethod
    def _analysis_attrs(args, report):
        return {"methods": len(args[0].methods), "effect_free": len(report.effect_free),
                "dead_posts": len(report.dead_posts),
                "synchs": sum(1 for e in report.graph.edges if e.kind == "post")}

    def _run_attrs(self, args, outcome):
        # Only Interpreter.run makes queue calls, so the counts since the
        # last reset belong to this run.
        queue = self.queue
        attrs = {
            "steps": args[0].step_count, "trace_events": len(outcome.trace),
            "faults": int(isinstance(outcome, self.interp.Failed)),
            "queue_adds": queue.adds, "queue_removes": queue.removes,
            "queue_s": queue.op_s, "queue_depth_sum": queue.depth_sum,
            "queue_max_depth": queue.max_depth,
        }
        queue.reset()
        return attrs

    @contextmanager
    def installed(self):
        cli, syntax, interp, postlist = self.cli, self.syntax, self.interp, self.postlist
        timed_list = timed_list_class(postlist.AsynchList, self.queue)
        swaps = [
            (cli, "parse_program", self._wrap("syntax.parse", cli.parse_program, self._parse_attrs)),
            (syntax, "tokenize", self._wrap(
                "syntax.tokenize", syntax.tokenize,
                lambda args, tokens: {"bytes": len(args[0]), "tokens": len(tokens)})),
            (cli, "validate_scopes", self._wrap("syntax.scope", cli.validate_scopes)),
            (cli, "pretty_print", self._wrap("syntax.print", cli.pretty_print)),
            (cli, "ast_to_dict", self._wrap("syntax.print", cli.ast_to_dict)),
            (cli, "dead_posts", self._wrap("analysis.dead_posts", cli.dead_posts,
                                           self._analysis_attrs)),
            (cli, "trace_to_jsonl", self._wrap("interp.serialize", cli.trace_to_jsonl,
                                               lambda args, text: {"bytes": len(text)})),
            (interp.Interpreter, "run", self._wrap("interp.run", interp.Interpreter.run,
                                                   self._run_attrs)),
            (interp, "AsynchList", timed_list),
            (postlist, "AsynchList", timed_list),
        ]
        saved = [(owner, name, owner.__dict__[name]) for owner, name, _ in swaps]
        for owner, name, value in swaps:
            setattr(owner, name, value)
        try:
            yield self
        finally:
            for owner, name, value in saved:
                setattr(owner, name, value)

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.to_json_obj()) + "\n")


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer totals over the spans of one pass of a workload.

    A span's self time is its duration minus the durations of its
    direct children; ``interp.self_s`` also leaves out queue time.
    """
    child_s: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_s[s.parent] += s.duration
    total: dict[str, float] = defaultdict(float)
    max_depth = 0
    for s in spans:
        a = s.attrs or {}
        name = s.name
        total[name + "_s"] += s.duration
        if name == "cli.main":
            total["cli.self_s"] += s.duration - child_s[s.id]
            total["cli.exit1"] += a["exit"] == 1
            total["cli.exit2"] += a["exit"] == 2
        elif name == "syntax.tokenize":
            total["syntax.source_bytes"] += a["bytes"]
            total["syntax.tokens"] += a["tokens"]
        elif name == "syntax.parse":
            total["syntax.parse_self_s"] += s.duration - child_s[s.id]
            total["syntax.nodes"] += a["nodes"]
        elif name == "analysis.dead_posts":
            for key in ("methods", "effect_free", "dead_posts", "synchs"):
                total["analysis." + key] += a[key]
        elif name == "interp.run":
            for key in ("steps", "trace_events", "faults"):
                total["interp." + key] += a[key]
            total["interp.self_s"] += s.duration - child_s[s.id] - a["queue_s"]
            total["postlist.adds"] += a["queue_adds"]
            total["postlist.removes"] += a["queue_removes"]
            total["postlist.op_s"] += a["queue_s"]
            total["postlist.depth_sum"] += a["queue_depth_sum"]
            max_depth = max(max_depth, a["queue_max_depth"])
        elif name == "interp.serialize":
            total["interp.trace_bytes"] += a["bytes"]
    ops = total["postlist.adds"] + total["postlist.removes"]
    t = total
    return {
        "cli.main_s": t["cli.main_s"],
        "cli.self_s": t["cli.self_s"],
        "cli.exit1": t["cli.exit1"],
        "cli.exit2": t["cli.exit2"],
        "syntax.source_bytes": t["syntax.source_bytes"],
        "syntax.tokens": t["syntax.tokens"],
        "syntax.tokenize_s": t["syntax.tokenize_s"],
        "syntax.tokens_per_s": _ratio(t["syntax.tokens"], t["syntax.tokenize_s"]),
        "syntax.nodes": t["syntax.nodes"],
        "syntax.parse_self_s": t["syntax.parse_self_s"],
        "syntax.scope_s": t["syntax.scope_s"],
        "syntax.print_s": t["syntax.print_s"],
        "analysis.dead_posts_s": t["analysis.dead_posts_s"],
        "analysis.methods": t["analysis.methods"],
        "analysis.effect_free": t["analysis.effect_free"],
        "analysis.dead_posts": t["analysis.dead_posts"],
        "analysis.dead_ratio": _ratio(t["analysis.dead_posts"], t["analysis.synchs"]),
        "interp.run_s": t["interp.run_s"],
        "interp.self_s": t["interp.self_s"],
        "interp.steps": t["interp.steps"],
        "interp.steps_per_s": _ratio(t["interp.steps"], t["interp.run_s"]),
        "interp.trace_events": t["interp.trace_events"],
        "interp.faults": t["interp.faults"],
        "interp.serialize_s": t["interp.serialize_s"],
        "interp.trace_bytes": t["interp.trace_bytes"],
        "postlist.adds": t["postlist.adds"],
        "postlist.removes": t["postlist.removes"],
        "postlist.op_s": t["postlist.op_s"],
        "postlist.ns_per_op": _ratio(t["postlist.op_s"] * 1e9, ops),
        "postlist.max_depth": max_depth,
        "postlist.mean_depth": _ratio(t["postlist.depth_sum"], ops),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    """Median of each metric over several passes."""
    return {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
