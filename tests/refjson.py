"""Test helper: the reference JSON forms of an AST and of a trace event,
as Python data, and the one reader of a run's trace.

``ref_to_dict`` is the dict renderer ``priopost.syntax`` used before
``ast_to_json`` wrote the JSON text directly, kept unchanged so that
``json.dumps(ref_to_dict(tree))`` pins ``ast_to_json(tree)`` byte for
byte from outside the package.  ``ref_event_to_dict`` states README's
trace table over a plain ``(seq, kind, method, value, priority)``
tuple, so that ``json.dumps`` of it pins each line the interpreter
writes the same way.  ``events`` reads a trace back as data: every
trace assertion in the suite goes through it.
"""

from __future__ import annotations

import json

from priopost import (
    AssignGlobal,
    AssignLocal,
    Binary,
    If,
    IntLit,
    Method,
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


def ref_to_dict(node) -> dict:
    """Position-free dict rendering of an AST, stable for serialization;
    anything but an exact node type, a subclass included, is a ``TypeError``."""
    to_dict = _TO_DICT.get(type(node))
    if to_dict is None:
        raise TypeError(f"not an AST node: {node!r}")
    return to_dict(node)


_TO_DICT = {
    Program: lambda n: {"kind": "program", "global": n.global_name,
                        "methods": [ref_to_dict(m) for m in n.methods]},
    Method: lambda n: {"kind": "method", "name": n.name, "local": n.local,
                       "body": ref_to_dict(n.body)},
    Seq: lambda n: {"kind": "seq", "stmts": [ref_to_dict(s) for s in n.stmts]},
    AssignGlobal: lambda n: {"kind": "assign-global", "name": n.name, "expr": ref_to_dict(n.expr)},
    AssignLocal: lambda n: {"kind": "assign-local", "name": n.name, "expr": ref_to_dict(n.expr)},
    Provided: lambda n: {"kind": "provided", "expr": ref_to_dict(n.expr)},
    If: lambda n: {"kind": "if", "cond": ref_to_dict(n.cond),
                   "then": ref_to_dict(n.then), "else": ref_to_dict(n.orelse)},
    While: lambda n: {"kind": "while", "cond": ref_to_dict(n.cond), "body": ref_to_dict(n.body)},
    Run: lambda n: {"kind": "run", "method": n.method, "arg": ref_to_dict(n.arg)},
    Return: lambda n: {"kind": "return"},
    Synch: lambda n: {"kind": "synch", "method": n.method, "arg": ref_to_dict(n.arg),
                      "priority": n.priority.keyword},
    IntLit: lambda n: {"kind": "int", "value": n.value},
    Var: lambda n: {"kind": "var", "name": n.name},
    Unary: lambda n: {"kind": "unary", "op": n.op, "operand": ref_to_dict(n.operand)},
    Binary: lambda n: {"kind": "binary", "op": n.op,
                       "left": ref_to_dict(n.left), "right": ref_to_dict(n.right)},
}


def ref_event_to_dict(event: tuple) -> dict:
    """A ``(seq, kind, method, value, priority)`` event, with ``None`` for an
    absent field and the priority's keyword, as README's trace table lays it
    out: ``seq`` and ``kind``, then ``method``, ``value`` and ``priority``
    where present."""
    seq, kind, method, value, priority = event
    obj: dict = {"seq": seq, "kind": kind}
    if method is not None:
        obj["method"] = method
    if value is not None:
        obj["value"] = value
    if priority is not None:
        obj["priority"] = priority
    return obj


def events(outcome) -> list[dict]:
    """The outcome's trace as data: ``json.loads`` of each event line."""
    return [json.loads(line) for line in outcome.trace]
