"""Test helper: the reference JSON form of an AST, as Python data.

This is the dict renderer ``priopost.syntax`` used before
``ast_to_json`` wrote the JSON text directly, kept unchanged so that
``json.dumps(ref_to_dict(tree))`` pins ``ast_to_json(tree)`` byte for
byte from outside the package.
"""

from __future__ import annotations

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
