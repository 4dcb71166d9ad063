"""Differential test of expression evaluation against a reference.

A seeded generator writes expression trees over every binary operator,
unary ``-`` and ``!``, literals at the signed 64-bit edges, and the
global and the method's local on either side of an operator, with extra
weight on the operand shapes that the interpreter compiles apart.  Each
tree runs as ``g := <expr>;`` through ``run_program``.  A plain-Python
evaluator of README's semantics (checked 64-bit arithmetic, division
truncating toward zero, both operands of every operator evaluated left
first) predicts the outcome kind, the fault's ``line:col`` and the final
global from the parsed tree.
"""

import random
from fractions import Fraction

from priopost import Binary, Failed, Finished, IntLit, Unary, Var, parse_program, run_program
from priopost.interp import ARITH_OVERFLOW, DIVISION_BY_ZERO
from priopost.syntax import I64_MAX, I64_MIN, walk

BINARY_OPS = ("+", "-", "*", "/", "%", "==", "!=", "<", "<=", ">", ">=", "and", "or")
EDGES = (0, 1, -1, 2, -2, I64_MIN, I64_MAX)
SMALL = (3, -3, 7, -7, 10, 1_000_000_007)


class Fault(Exception):
    def __init__(self, kind, node):
        super().__init__(kind)
        self.where = (kind, node.line, node.col)


def literal(value: int) -> str:
    """Source text for ``value``; I64_MIN has no literal, so it is a difference."""
    if value == I64_MIN:
        return f"(-{I64_MAX} - 1)"
    return str(value)


def gen_expr(rng: random.Random, depth: int) -> str:
    r = rng.random()
    if depth == 0 or r < 0.25:
        leaf = rng.random()
        if leaf < 0.25:
            return "g"
        if leaf < 0.5:
            return "x"
        return literal(rng.choice(EDGES if leaf < 0.8 else SMALL))
    if r < 0.35:
        return f"{rng.choice('-!')}({gen_expr(rng, depth - 1)})"
    if r < 0.45:
        # The interpreter's own shapes for ``+ - *``: the global left of a
        # literal, and the method's local as the right operand.
        op = rng.choice("+-*")
        if rng.random() < 0.5:
            return f"(g {op} {rng.choice([v for v in EDGES + SMALL if v >= 0])})"
        return f"({gen_expr(rng, depth - 1)} {op} x)"
    op = rng.choice(BINARY_OPS)
    return f"({gen_expr(rng, depth - 1)} {op} {gen_expr(rng, depth - 1)})"


def checked(value: int, node) -> int:
    if not I64_MIN <= value <= I64_MAX:
        raise Fault(ARITH_OVERFLOW, node)
    return value


def reference(node, env: dict[str, int]) -> int:
    """README's expression semantics, written independently of the interpreter."""
    if type(node) is IntLit:
        return node.value
    if type(node) is Var:
        return env[node.name]
    if type(node) is Unary:
        v = reference(node.operand, env)
        return checked(-v, node) if node.op == "-" else int(v == 0)
    a = reference(node.left, env)
    b = reference(node.right, env)
    op = node.op
    if op in ("/", "%"):
        if b == 0:
            raise Fault(DIVISION_BY_ZERO, node)
        q = int(Fraction(a, b))  # int() truncates toward zero
        return checked(q if op == "/" else a - b * q, node)
    if op in ("+", "-", "*"):
        return checked(a + b if op == "+" else a - b if op == "-" else a * b, node)
    return int({
        "==": a == b, "!=": a != b, "<": a < b, "<=": a <= b, ">": a > b, ">=": a >= b,
        "and": a != 0 and b != 0, "or": a != 0 or b != 0,
    }[op])


def test_expressions_match_the_reference():
    rng = random.Random(20_815)
    kinds = {"finished": 0, ARITH_OVERFLOW: 0, DIVISION_BY_ZERO: 0}
    shapes = {"global-left": 0, "local-right": 0}
    for _ in range(3000):
        x, g = rng.choice(EDGES + SMALL), rng.choice(EDGES + SMALL)
        expr = gen_expr(rng, rng.randint(1, 4))
        source = (f"global g;\nmeth m(x) {{\n    x := {literal(x)};\n    g := {literal(g)};\n"
                  f"    g := {expr};\n}}\n")
        program = parse_program(source)
        tree = program.methods[0].body.stmts[2].expr
        for node in walk(tree):
            if type(node) is Binary and node.op in ("+", "-", "*"):
                if type(node.left) is Var and node.left.name == "g" and type(node.right) is IntLit:
                    shapes["global-left"] += 1
                elif type(node.right) is Var and node.right.name == "x":
                    shapes["local-right"] += 1
        out = run_program(program)
        try:
            expected = reference(tree, {"x": x, "g": g})
        except Fault as fault:
            assert isinstance(out, Failed), source
            assert (out.kind, out.line, out.col) == fault.where, source
            kinds[out.kind] += 1
        else:
            assert isinstance(out, Finished), source
            assert type(out.global_value) is int and out.global_value == expected, source
            kinds["finished"] += 1
    # Every outcome is well represented, so no path goes untested.
    assert min(kinds.values()) > 100, kinds
    # So does each operand shape that ``+ - *`` compile apart.
    assert min(shapes.values()) >= 100, shapes
