"""Abstract syntax, parser, pretty-printer, and scope checker.

A program declares one global variable and one or more methods; each
method has exactly one local variable.  Source files use the ``.ap``
extension and look like::

    global g;

    meth main(x) {
        g := g + 1;
        synch(worker(g * 2), high);
    }

    meth worker(n) {
        if n { g := n; } else { }
    }

Grammar (LL(1); ``//`` starts a line comment)::

    program  := "global" IDENT ";" method+
    method   := "meth" IDENT "(" IDENT ")" block
    block    := "{" stmt* "}"
    stmt     := IDENT ":=" expr ";"
              | "provided" expr ";"
              | "if" expr block "else" block
              | "while" expr block
              | "run" IDENT "(" expr ")" ";"
              | "return" "(" ")" ";"
              | "synch" "(" IDENT "(" expr ")" "," prio ")" ";"
    prio     := "high" | "medium" | "low"

Expressions use the usual precedence ladder, loosest first: ``or``,
``and``, ``== !=``, ``< <= > >=``, ``+ -``, ``* / %``, unary ``- !``,
then atoms (integer literals, the two in-scope variables, and
parenthesised expressions).  All values are signed 64-bit integers;
comparisons and logical operators yield 1 or 0.  Nesting deeper than
``MAX_DEPTH`` levels is a parse error.

The lexer turns the whole text into token texts and start offsets in a
few C-level passes: one ``re.split`` and a running sum of the lengths.
Each node records its start token's ``line:col`` (a binary node's
operator), bisected from the line starts as the node is built.
"""

from __future__ import annotations

import enum
import functools
import gc
import json
import re
import threading
from bisect import bisect_right
from collections import namedtuple
from dataclasses import dataclass, field
from itertools import accumulate, chain, compress, repeat
from operator import add

I64_MIN = -(2**63)
I64_MAX = 2**63 - 1

KEYWORDS = frozenset({
    "global", "meth", "provided", "if", "else", "while",
    "run", "return", "synch", "high", "medium", "low", "and", "or",
})

class Priority(enum.Enum):
    """Dispatch priority of a posted call; lower rank runs first."""

    HIGH = 1
    MEDIUM = 2
    LOW = 3

    def __init__(self, rank: int):
        self.rank = rank  # plain attributes: enum properties cost a call per read
        self.keyword = self.name.lower()


class ParseError(Exception):
    """Syntax error with source position and the tokens that were expected."""

    def __init__(self, message: str, line: int, col: int, expected=()):
        super().__init__(f"{line}:{col} {message}")
        self.message = message
        self.line = line
        self.col = col
        self.expected = tuple(expected)


# --- AST ---------------------------------------------------------------
#
# Every node carries its source position; positions are excluded from
# equality so that parse(pretty_print(ast)) == ast holds structurally.

@dataclass(slots=True)
class Node:
    line: int = field(default=0, compare=False, repr=False, kw_only=True)
    col: int = field(default=0, compare=False, repr=False, kw_only=True)


@dataclass(slots=True)
class Expr(Node):
    pass


@dataclass(slots=True)
class IntLit(Expr):
    value: int


@dataclass(slots=True)
class Var(Expr):
    name: str


@dataclass(slots=True)
class Unary(Expr):
    op: str  # "-" or "!"
    operand: Expr


@dataclass(slots=True)
class Binary(Expr):
    op: str  # one of + - * / % == != < <= > >= and or
    left: Expr
    right: Expr


@dataclass(slots=True)
class Stmt(Node):
    pass


@dataclass(slots=True)
class Seq(Stmt):
    """A brace-delimited statement list; empty means no-op."""

    stmts: list[Stmt]


@dataclass(slots=True)
class AssignGlobal(Stmt):
    name: str
    expr: Expr


@dataclass(slots=True)
class AssignLocal(Stmt):
    name: str
    expr: Expr


@dataclass(slots=True)
class Provided(Stmt):
    """Continues only when the expression is non-zero; aborts otherwise."""

    expr: Expr


@dataclass(slots=True)
class If(Stmt):
    cond: Expr
    then: Stmt
    orelse: Stmt


@dataclass(slots=True)
class While(Stmt):
    cond: Expr
    body: Stmt


@dataclass(slots=True)
class Run(Stmt):
    """Immediate (synchronous) call of another method."""

    method: str
    arg: Expr


@dataclass(slots=True)
class Return(Stmt):
    pass


@dataclass(slots=True)
class Synch(Stmt):
    """Posts a call for later dispatch at the given priority."""

    method: str
    arg: Expr
    priority: Priority


@dataclass(slots=True)
class Method(Node):
    name: str
    local: str
    body: Seq


@dataclass(slots=True)
class Program(Node):
    global_name: str
    methods: list[Method]


# --- Lexer -------------------------------------------------------------

# ``kind`` is "ident", "int", "keyword", "punct" or "eof".
Token = namedtuple("Token", "kind text line col")


# Blanks, newlines and ``//`` comments; possessive, so a comment is never
# given back in part and read as tokens.  A comment runs to a newline or
# the end, so one never directly follows another.
_SKIP = r"[ \t\r\n]*+(?://[^\n]*+[ \t\r\n]*+)*+"
# Each match is the text skipped before a token, then the token, or an
# empty token at the end of the file.  ``split`` returns gap, skipped,
# token, gap, ..., gap; a gap is empty unless it holds a bad character.
_SPLIT = re.compile(
    f"({_SKIP})([A-Za-z_][A-Za-z0-9_]*+|[0-9]++|[:=!<>]=|[-+*/%<>!(){{}};,]|\\Z)")


def _line_col(line_starts: list[int], offset: int) -> tuple[int, int]:
    line = bisect_right(line_starts, offset)
    return line, offset - line_starts[line - 1] + 1


def _lex(source: str) -> tuple[list[str], list[int], list[int]]:
    """Token texts ending in ``""`` (the end), their offsets, and the line starts.

    The whole text is lexed before any token is parsed, so the first bad
    character or out-of-range literal is reported before any parse error.
    """
    pieces = _SPLIT.split(source)
    texts = pieces[2::3]
    lengths = list(map(len, texts))
    # A token starts after every skip up to its own and every token before it.
    starts = list(accumulate(map(add, map(len, pieces[1::3]), chain((0,), lengths))))
    line_starts = list(accumulate(map((1).__add__, map(len, source.split("\n"))), initial=0))
    bad = None
    if starts[-1] != len(source):  # the gaps are not all empty
        first = next(i for i, gap in enumerate(pieces[::3]) if gap)
        # Matches after a bad character may start inside a comment.
        del texts[first:], starts[first:]
        bad = re.compile(_SKIP).match(source, starts[-1] + len(texts[-1]) if texts else 0).end()
    if max(lengths) >= 19:  # only a literal this long can be out of range
        for text, start in compress(zip(texts, starts), map((19).__le__, lengths)):
            # int() refuses more than 4,300 digits, so count them first.
            if text[0].isdigit() and (len(d := text.lstrip("0")) > 19 or int(d or 0) > I64_MAX):
                raise ParseError("integer literal out of range", *_line_col(line_starts, start))
    if bad is not None:
        raise ParseError(f"unexpected character {source[bad]!r}", *_line_col(line_starts, bad))
    if len(texts) > 1 and not texts[-2]:  # the end of the file matched twice
        del texts[-1], starts[-1]
    if (comment := source.find("//", line_starts[-2])) >= 0:  # a comment ends the file
        starts[-1] = comment
    return texts, starts, line_starts


def tokenize(source: str) -> list[Token]:
    """Split source into tokens; raises ParseError on a bad character.

    Identifiers and digits are ASCII only, per the grammar.  Blanks,
    tabs and carriage returns each take one column.  The final ``eof``
    token sits where a ``//`` comment that ends the file starts.  The
    parser reads the same lexer's arrays and builds no ``Token``.
    """
    texts, starts, line_starts = _lex(source)
    return [Token("eof" if not text else "int" if text[0].isdigit() else "keyword"
                  if text in KEYWORDS else "ident" if text.isidentifier() else "punct",
                  text, *_line_col(line_starts, start)) for text, start in zip(texts, starts)]


# --- Parser ------------------------------------------------------------

# Binding strength of each binary operator, loosest first; every level is
# left-associative.  The parser and the printer both read this table.
_PREC = {
    "or": 1, "and": 2,
    "==": 3, "!=": 3,
    "<": 4, "<=": 4, ">": 4, ">=": 4,
    "+": 5, "-": 5,
    "*": 6, "/": 6, "%": 6,
}
_UNARY_PREC = 7

MAX_DEPTH = 100
"""Deepest nesting ``parse_program`` and ``validate_scopes`` accept, so that
no recursive consumer of a tree they accept runs out of Python stack.  A
method body is level 1, and every block, statement, operator, literal,
variable and parenthesised group is one level below the construct it is
written in; a chain ``a + b + c`` counts one level per operator.  Deeper
input is a ``ParseError`` ``nesting too deep`` at the token that crosses the
bound, and a deeper tree a ``TypeError``."""


class _Parser:
    """Recursive descent over ``_lex``'s arrays, by token index.  It asks
    whether a text is an identifier or a literal only where the grammar
    does.  A node is built from its fields alone (keywords would cost a
    dict per call) and then placed: given the ``line:col`` of its token,
    inline on hot paths, which also test a token inline and call
    ``_expect`` only to raise.

    Each parse method takes ``depth``, the levels open above the node it
    parses, and raises ``nesting too deep`` at the node's token when that
    node would sit below ``MAX_DEPTH``.  An expression also returns its
    height, since a left-associative chain deepens at its root."""

    def __init__(self, source: str):
        self.texts, self.offsets, self.line_starts = _lex(source)
        self.pos = 0  # index of the next token; never moves past the end
        self.global_name = ""

    def _placed(self, node, index: int):
        """``node``, at the position of token ``index``."""
        node.line, node.col = _line_col(self.line_starts, self.offsets[index])
        return node

    def _error(self, message, expected=(), index=None):
        offset = self.offsets[self.pos if index is None else index]
        raise ParseError(message, *_line_col(self.line_starts, offset), expected)

    def _expect(self, *texts: str):
        for text in texts:
            if (found := self.texts[self.pos]) != text:
                self._error(f"expected '{text}', found '{found or 'end of file'}'", expected=(text,))
            self.pos += 1

    def _expect_ident(self, what: str) -> str:
        text = self.texts[self.pos]
        if not text.isidentifier() or text in KEYWORDS:
            self._error(f"expected {what}", expected=("identifier",))
        self.pos += 1
        return text

    def parse_program(self) -> Program:
        self._expect("global")
        self.global_name = self._expect_ident("global variable name")
        self._expect(";")
        methods = []
        while True:
            start = self.pos
            if self.texts[start] != "meth":
                self._error("expected 'meth'", expected=("meth",))
            self.pos += 1
            name = self._expect_ident("method name")
            self._expect("(")
            local = self._expect_ident("local variable name")
            self._expect(")")
            methods.append(self._placed(Method(name, local, self._block(0)), start))
            if not self.texts[self.pos]:
                return self._placed(Program(self.global_name, methods), 0)

    def _block(self, depth: int) -> Seq:
        """A block at ``depth``, with its statements parsed in place (the
        commonest forms tested first), one level below it, and their
        expressions and blocks two levels below."""
        texts, offsets, line_starts = self.texts, self.offsets, self.line_starts
        start = self.pos
        if texts[start] != "{":
            self._expect("{")
        self.pos = start + 1
        inner = depth + 2
        stmts = []
        while (text := texts[pos := self.pos]) != "}":
            if not text:
                self._error("expected '}'", expected=("}",))
            if inner > MAX_DEPTH:
                self._error("nesting too deep")
            self.pos = pos + 1
            if text.isidentifier() and text not in KEYWORDS:
                self._expect(":=")
                e, _ = self._expr(inner)
                if texts[self.pos] != ";":
                    self._expect(";")
                self.pos += 1
                stmt = (AssignGlobal if text == self.global_name else AssignLocal)(text, e)
            elif text == "if":
                cond, _ = self._expr(inner)
                then = self._block(inner)
                self._expect("else")
                stmt = If(cond, then, self._block(inner))
            elif text == "synch":
                self._expect("(")
                method = self._expect_ident("method name")
                self._expect("(")
                arg, _ = self._expr(inner)
                self._expect(")", ",")
                prio = texts[self.pos]
                if prio not in ("high", "medium", "low"):
                    self._error("expected priority", expected=("high", "medium", "low"))
                self.pos += 1
                self._expect(")", ";")
                stmt = Synch(method, arg, Priority[prio.upper()])
            elif text == "run":
                method = self._expect_ident("method name")
                self._expect("(")
                arg, _ = self._expr(inner)
                self._expect(")", ";")
                stmt = Run(method, arg)
            elif text == "provided":
                e, _ = self._expr(inner)
                self._expect(";")
                stmt = Provided(e)
            elif text == "while":
                cond, _ = self._expr(inner)
                stmt = While(cond, self._block(inner))
            elif text == "return":
                self._expect("(", ")", ";")
                stmt = Return()
            else:
                self._error("expected statement", expected=(
                    "identifier", "provided", "if", "while", "run", "return", "synch", "}"), index=pos)
            offset = offsets[pos]
            line = bisect_right(line_starts, offset)
            stmt.line, stmt.col = line, offset - line_starts[line - 1] + 1
            stmts.append(stmt)
        self.pos += 1
        return self._placed(Seq(stmts), start)

    def _expr(self, depth: int, min_prec: int = 1) -> tuple[Expr, int]:
        """Precedence climbing over ``_PREC``: an expression whose binary
        operators bind at least as tightly as ``min_prec``, and its height.
        The loop builds each left-associative chain without recursing; a
        right operand recurses one precedence up, and a unary operand at
        ``_UNARY_PREC``, which no binary operator reaches."""
        texts, offsets, line_starts = self.texts, self.offsets, self.line_starts
        start = self.pos
        text = texts[start]
        self.pos = start + 1
        if text.isdigit() or text.isidentifier() and text not in KEYWORDS:
            if depth >= MAX_DEPTH:
                self._error("nesting too deep", index=start)
            left = IntLit(int(text.lstrip("0") or "0")) if text.isdigit() else Var(text)
            offset = offsets[start]
            line = bisect_right(line_starts, offset)
            left.line, left.col = line, offset - line_starts[line - 1] + 1
            height = 1
        elif text == "-" or text == "!" or text == "(":
            if depth >= MAX_DEPTH:
                self._error("nesting too deep", index=start)
            if text == "(":
                left, height = self._expr(depth + 1)
                if texts[self.pos] != ")":
                    self._expect(")")
                self.pos += 1
            else:
                operand, height = self._expr(depth + 1, _UNARY_PREC)
                left = self._placed(Unary(text, operand), start)
            height += 1
        else:
            self._error("expected expression", expected=("integer", "identifier", "("), index=start)
        # The left operand fit, so depth < MAX_DEPTH and each operator does too.
        while (prec := _PREC.get(texts[self.pos], 0)) >= min_prec:
            op = self.pos
            self.pos = op + 1
            right, right_height = self._expr(depth + 1, prec + 1)
            # The new node lifts the whole chain so far one level deeper.
            height = max(height, right_height) + 1
            if depth + height > MAX_DEPTH:
                self._error("nesting too deep", index=op)
            left = Binary(texts[op], left, right)
            offset = offsets[op]
            line = bisect_right(line_starts, offset)
            left.line, left.col = line, offset - line_starts[line - 1] + 1
        return left, height


# A request (parse_program, Interpreter.run, cli.main) leaves no cyclic garbage, so
# it pauses the collector meanwhile.  The lock makes each read-and-disable one step
# against every re-enable, so that no interleaving of threads leaves the collector off.
_COLLECTOR_LOCK = threading.Lock()


def _collector_paused(function):
    """``function`` with the collector disabled while it runs, and enabled again
    as it returns or raises if it was on when the call began."""
    @functools.wraps(function)
    def paused(*args, **kwargs):
        enabled = False
        try:  # turned off inside the ``try``, so that no exit leaves it off
            with _COLLECTOR_LOCK:
                enabled = gc.isenabled()
                gc.disable()
            return function(*args, **kwargs)
        finally:
            if enabled:
                with _COLLECTOR_LOCK:
                    gc.enable()
    return paused


@_collector_paused
def parse_program(source: str) -> Program:
    """Parse program text; raises ParseError (and nothing else) on bad input.
    The cyclic collector is paused while it runs."""
    return _Parser(source).parse_program()


# --- Scope validation ----------------------------------------------------

# ``kind`` is unknown-variable, unknown-method, global-local-clash or duplicate-method.
class ScopeError(namedtuple("ScopeError", "kind name line col")):
    __slots__ = ()

    def __str__(self) -> str:
        return f"{self.line}:{self.col} {self.kind}: {self.name}"


def walk(node: Node) -> list[Node]:
    """The statement or expression ``node`` and every node below it, in
    pre-order and source order.

    A statement comes before its expression, and that expression's nodes
    before the statement's nested blocks.  The walk keeps its own stack,
    so it does not recurse.  It returns a list: under a tracer, Python 3.13
    reports a ``StopIteration`` wherever a ``for`` loop ends a generator.
    """
    nodes, todo = [], [node]
    while todo:
        node = todo.pop()
        nodes.append(node)
        kind = type(node)
        if kind is Binary:
            todo += (node.right, node.left)
        elif kind is Unary:
            todo.append(node.operand)
        elif kind is Seq:
            todo += reversed(node.stmts)
        elif kind is If:
            todo += (node.orelse, node.then, node.cond)
        elif kind is While:
            todo += (node.body, node.cond)
        elif kind is Run or kind is Synch:
            todo.append(node.arg)
        elif kind is AssignGlobal or kind is AssignLocal or kind is Provided:
            todo.append(node.expr)
    return nodes


def validate_scopes(program: Program) -> list[ScopeError]:
    """Check that the program is a tree the grammar can express, and every
    name in it; returns all name violations, not just the first.

    The first tree fault raises ``TypeError``: no method, a node of no exact
    node type, a block that is not a ``Seq`` or a ``Seq`` that is not a block,
    a priority that is not a ``Priority``, an operator outside the grammar, a
    literal that is not an ``int`` in ``0..I64_MAX``, or a node (in a cycle,
    say) deeper than ``MAX_DEPTH``.  A variable must be the global or the
    method's local, run/synch targets declared methods, method names unique,
    and no local the global.  One pass, in ``walk``'s order, on its own stacks.
    """
    if type(program) is not Program or not program.methods:
        raise TypeError("not a program with a method")
    glob, errors, names = program.global_name, [], set()
    for m in program.methods:
        if type(m) is not Method or type(m.body) is not Seq:
            raise TypeError(f"not a method with a block: {type(m).__name__}")
        if m.name in names:
            errors.append(ScopeError("duplicate-method", m.name, m.line, m.col))
        names.add(m.name)
        if m.local == glob:
            errors.append(ScopeError("global-local-clash", m.local, m.line, m.col))
    for m in program.methods:
        local, todo = m.local, [*zip(reversed(m.body.stmts), repeat(2))]
        while todo:  # statements and their levels; a statement's expression is walked at once
            stmt, level = todo.pop()
            kind = type(stmt)
            if kind is AssignGlobal or kind is AssignLocal or kind is Provided:
                if kind is not Provided and stmt.name != (glob if kind is AssignGlobal else local):
                    errors.append(ScopeError("unknown-variable", stmt.name, stmt.line, stmt.col))
                expr = stmt.expr
            elif kind is If or kind is While:
                for block in (stmt.orelse, stmt.then) if kind is If else (stmt.body,):
                    if type(block) is not Seq:
                        raise TypeError(f"not a block: {type(block).__name__}")
                    todo += zip(reversed(block.stmts), repeat(level + 2))  # at the cond's level
                expr = stmt.cond
            elif kind is Run or kind is Synch:
                if kind is Synch and type(stmt.priority) is not Priority:
                    raise TypeError(f"not a priority: {type(stmt.priority).__name__}")
                if stmt.method not in names:
                    errors.append(ScopeError("unknown-method", stmt.method, stmt.line, stmt.col))
                expr = stmt.arg
            elif kind is Return and level <= MAX_DEPTH:
                continue
            else:
                raise TypeError(f"not a statement, or deeper than MAX_DEPTH: {kind.__name__}")
            exprs = [(expr, level + 1)]
            while exprs:
                expr, level = exprs.pop()
                kind = type(expr)
                if level > MAX_DEPTH:
                    raise TypeError(f"nesting deeper than MAX_DEPTH: {kind.__name__}")
                if kind is Var:
                    if expr.name != glob and expr.name != local:
                        errors.append(ScopeError("unknown-variable", expr.name, expr.line, expr.col))
                elif kind is Binary and expr.op in _PREC:
                    exprs += ((expr.right, level + 1), (expr.left, level + 1))
                elif kind is Unary and (expr.op == "-" or expr.op == "!"):
                    exprs.append((expr.operand, level + 1))
                elif kind is not IntLit or type(expr.value) is not int or not 0 <= expr.value <= I64_MAX:
                    raise TypeError(f"not an expression the grammar can express: {kind.__name__}")
    return errors


# --- Printers: exact node types only, a subclass is a TypeError ----------

def format_expr(e: Expr, parent_prec: int = 0) -> str:
    """Render an expression with the minimum parentheses that reparse equal."""
    kind = type(e)
    if kind is Binary and (prec := _PREC.get(e.op)):
        text = f"{format_expr(e.left, prec)} {e.op} {format_expr(e.right, prec + 1)}"
        return f"({text})" if prec < parent_prec else text
    if kind is Var:
        return e.name
    if kind is IntLit and type(e.value) is int and 0 <= e.value <= I64_MAX:
        return str(e.value)
    if kind is Unary and (e.op == "-" or e.op == "!"):
        text = e.op + format_expr(e.operand, _UNARY_PREC)
        return f"({text})" if _UNARY_PREC < parent_prec else text
    raise TypeError(f"not an expression the grammar can express: {e!r}")


def _format_block(block: Seq, pad: str, out: list[str]):
    """Append ``block``, whose closing brace is indented by ``pad``."""
    if type(block) is not Seq:
        raise TypeError(f"not a block: {block!r}")
    inner = pad + "    "
    out.append("{")
    for s in block.stmts:
        kind = type(s)
        if kind is AssignGlobal or kind is AssignLocal:
            out.append(f"\n{inner}{s.name} := {format_expr(s.expr)};")
        elif kind is If:
            out.append(f"\n{inner}if {format_expr(s.cond)} ")
            _format_block(s.then, inner, out)
            out.append(" else ")
            _format_block(s.orelse, inner, out)
        elif kind is Synch and type(s.priority) is Priority:
            out.append(f"\n{inner}synch({s.method}({format_expr(s.arg)}), {s.priority.keyword});")
        elif kind is Run:
            out.append(f"\n{inner}run {s.method}({format_expr(s.arg)});")
        elif kind is Provided:
            out.append(f"\n{inner}provided {format_expr(s.expr)};")
        elif kind is While:
            out.append(f"\n{inner}while {format_expr(s.cond)} ")
            _format_block(s.body, inner, out)
        elif kind is Return:
            out.append(f"\n{inner}return();")
        else:
            raise TypeError(f"not a statement: {s!r}")
    out.append(f"\n{pad}}}" if block.stmts else "}")


def pretty_print(program: Program) -> str:
    """Emit canonical source text; reparsing it yields an equal AST.

    A tree ``validate_scopes`` rejects raises ``TypeError`` here too, unless
    it is only too deep: this printer recurses and checks no depth.
    """
    if type(program) is not Program or not program.methods:
        raise TypeError(f"not a program with a method: {program!r}")
    out = [f"global {program.global_name};\n"]
    for m in program.methods:
        if type(m) is not Method:
            raise TypeError(f"not a method: {m!r}")
        out.append(f"\nmeth {m.name}({m.local}) ")
        _format_block(m.body, "", out)
        out.append("\n")
    return "".join(out)


# --- JSON form (the CLI's --emit-ast) ------------------------------------

def _json_scalar(value) -> str:
    """``json.dumps(value)``, without the call for an int, or for a string
    it would not escape: printable ASCII without ``"`` or ``\\``, as every
    parsed name and operator is.  AST and trace text go through it."""
    if type(value) is int:
        return str(value)
    if type(value) is str and value.isascii() and value.isprintable() and '"' not in value \
            and "\\" not in value:
        return f'"{value}"'
    return json.dumps(value)


def ast_to_json(node) -> str:
    """The AST as one line of JSON without positions, exactly the text of
    ``json.dumps(ast_to_dict(node))``; anything but an exact node type is a ``TypeError``."""
    kind = type(node)
    if kind is Binary:
        return (f'{{"kind": "binary", "op": {_json_scalar(node.op)}, '
                f'"left": {ast_to_json(node.left)}, "right": {ast_to_json(node.right)}}}')
    if kind is Var:
        return f'{{"kind": "var", "name": {_json_scalar(node.name)}}}'
    if kind is IntLit and type(node.value) is int:
        return f'{{"kind": "int", "value": {node.value}}}'
    if kind is Unary:
        return (f'{{"kind": "unary", "op": {_json_scalar(node.op)}, '
                f'"operand": {ast_to_json(node.operand)}}}')
    if kind is AssignGlobal or kind is AssignLocal:
        return (f'{{"kind": "assign-{"global" if kind is AssignGlobal else "local"}", '
                f'"name": {_json_scalar(node.name)}, "expr": {ast_to_json(node.expr)}}}')
    if kind is Seq:
        return f'{{"kind": "seq", "stmts": [{", ".join(map(ast_to_json, node.stmts))}]}}'
    if kind is If:
        return (f'{{"kind": "if", "cond": {ast_to_json(node.cond)}, '
                f'"then": {ast_to_json(node.then)}, "else": {ast_to_json(node.orelse)}}}')
    if kind is Synch:
        return (f'{{"kind": "synch", "method": {_json_scalar(node.method)}, "arg": '
                f'{ast_to_json(node.arg)}, "priority": {_json_scalar(node.priority.keyword)}}}')
    if kind is Run:
        return (f'{{"kind": "run", "method": {_json_scalar(node.method)}, '
                f'"arg": {ast_to_json(node.arg)}}}')
    if kind is Provided:
        return f'{{"kind": "provided", "expr": {ast_to_json(node.expr)}}}'
    if kind is While:
        return (f'{{"kind": "while", "cond": {ast_to_json(node.cond)}, '
                f'"body": {ast_to_json(node.body)}}}')
    if kind is Return:
        return '{"kind": "return"}'
    if kind is Method:
        return (f'{{"kind": "method", "name": {_json_scalar(node.name)}, '
                f'"local": {_json_scalar(node.local)}, "body": {ast_to_json(node.body)}}}')
    if kind is Program:
        return (f'{{"kind": "program", "global": {_json_scalar(node.global_name)}, '
                f'"methods": [{", ".join(map(ast_to_json, node.methods))}]}}')
    raise TypeError(f"not an AST node: {node!r}")


def ast_to_dict(node) -> dict:
    """``ast_to_json``'s JSON form as Python data."""
    return json.loads(ast_to_json(node))
