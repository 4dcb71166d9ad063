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
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field
from typing import NamedTuple

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

    @property
    def rank(self) -> int:
        return self.value

    @property
    def keyword(self) -> str:
        return self.name.lower()

    @classmethod
    def from_keyword(cls, word: str) -> "Priority":
        return cls[word.upper()]


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

@dataclass
class Node:
    line: int = field(default=0, compare=False, repr=False, kw_only=True)
    col: int = field(default=0, compare=False, repr=False, kw_only=True)


@dataclass
class Expr(Node):
    pass


@dataclass
class IntLit(Expr):
    value: int


@dataclass
class Var(Expr):
    name: str


@dataclass
class Unary(Expr):
    op: str  # "-" or "!"
    operand: Expr


@dataclass
class Binary(Expr):
    op: str  # one of + - * / % == != < <= > >= and or
    left: Expr
    right: Expr


@dataclass
class Stmt(Node):
    pass


@dataclass
class Seq(Stmt):
    """A brace-delimited statement list; empty means no-op."""

    stmts: list[Stmt]


@dataclass
class AssignGlobal(Stmt):
    name: str
    expr: Expr


@dataclass
class AssignLocal(Stmt):
    name: str
    expr: Expr


@dataclass
class Provided(Stmt):
    """Continues only when the expression is non-zero; aborts otherwise."""

    expr: Expr


@dataclass
class If(Stmt):
    cond: Expr
    then: Stmt
    orelse: Stmt


@dataclass
class While(Stmt):
    cond: Expr
    body: Stmt


@dataclass
class Run(Stmt):
    """Immediate (synchronous) call of another method."""

    method: str
    arg: Expr


@dataclass
class Return(Stmt):
    pass


@dataclass
class Synch(Stmt):
    """Posts a call for later dispatch at the given priority."""

    method: str
    arg: Expr
    priority: Priority


@dataclass
class Method(Node):
    name: str
    local: str
    body: Seq


@dataclass
class Program(Node):
    global_name: str
    methods: list[Method]


# --- Lexer -------------------------------------------------------------

class Token(NamedTuple):
    kind: str  # "ident", "int", "keyword", "punct", "eof"
    text: str
    line: int
    col: int


# One match per token, newline, end of file or bad character, with the
# blanks before it folded in.  A comment runs to a newline or to the end
# of the file, so it is folded in front of those two.  The number of the
# group that matched gives the kind.
_LEXEME = re.compile(r"""
    [ \t\r]*
    (?: ([A-Za-z_][A-Za-z0-9_]*)            # 1 identifier or keyword
      | ([0-9]+)                            # 2 integer
      | (:=|==|!=|<=|>=|[-+*%<>!(){};,])    # 3 operator other than /
      | (?://[^\n]*)?(\n)                   # 4 newline
      | ()(?://[^\n]*)?\Z                   # 5 end of file
      | (/)                                 # 6 / that starts no comment
      | (.)                                 # 7 bad character
    )""", re.S | re.X)
_WORD, _INT, _OP, _NEWLINE, _EOF, _SLASH = range(1, 7)


def tokenize(source: str) -> list[Token]:
    """Split source into tokens; raises ParseError on a bad character.

    Identifiers and digits are ASCII only, per the grammar.  Blanks,
    tabs and carriage returns each take one column.  The final ``eof``
    token sits where a ``//`` comment that ends the file starts.
    """
    tokens = []
    line = 1
    line_start = 0  # offset of the current line's first character
    for m in _LEXEME.finditer(source):
        group = m.lastindex
        start = m.start(group)
        col = start - line_start + 1
        if group == _WORD:
            text = m[group]
            tokens.append(Token("keyword" if text in KEYWORDS else "ident", text, line, col))
        elif group == _OP or group == _SLASH:
            tokens.append(Token("punct", m[group], line, col))
        elif group == _NEWLINE:
            line += 1
            line_start = start + 1
        elif group == _INT:
            text = m[group]
            digits = text.lstrip("0")
            # int() refuses more than 4,300 digits, so count them first.
            if len(digits) > 19 or int(digits or "0") > I64_MAX:
                raise ParseError("integer literal out of range", line, col)
            tokens.append(Token("int", text, line, col))
        elif group == _EOF:
            tokens.append(Token("eof", "", line, col))
            return tokens
        else:
            raise ParseError(f"unexpected character {m[group]!r}", line, col)


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
"""Deepest nesting ``parse_program`` accepts, so that no recursive
consumer of the tree (printer, AST JSON, interpreter) runs out of Python
stack.  A method body is level 1, and every block, statement, operator,
literal, variable and parenthesised group is one level below the
construct it is written in; a left-associative chain ``a + b + c``
counts one level per operator.  Deeper input is a ``ParseError``
``nesting too deep`` at the token that crosses the bound."""


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.global_name = ""
        self.depth = 0  # levels open above the node being parsed

    def _peek(self) -> Token:
        return self.tokens[self.pos]

    def _advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def _error(self, message, expected=()):
        tok = self._peek()
        raise ParseError(message, tok.line, tok.col, expected)

    def _fit(self, tok: Token, height: int = 1):
        """Raise at ``tok`` unless ``height`` more levels stay within MAX_DEPTH."""
        if self.depth + height > MAX_DEPTH:
            raise ParseError("nesting too deep", tok.line, tok.col)

    def _enter(self, tok: Token):
        """Open one level at ``tok``; the caller closes it with ``depth -= 1``."""
        self._fit(tok)
        self.depth += 1

    def _expect(self, text: str) -> Token:
        tok = self._peek()
        if tok.text != text or tok.kind == "eof":
            found = tok.text if tok.kind != "eof" else "end of file"
            self._error(f"expected '{text}', found '{found}'", expected=(text,))
        return self._advance()

    def _expect_ident(self, what="identifier") -> Token:
        tok = self._peek()
        if tok.kind != "ident":
            self._error(f"expected {what}", expected=("identifier",))
        return self._advance()

    def parse_program(self) -> Program:
        start = self._expect("global")
        self.global_name = self._expect_ident("global variable name").text
        self._expect(";")
        methods = [self._method()]
        while self._peek().text == "meth":
            methods.append(self._method())
        if self._peek().kind != "eof":
            self._error("expected 'meth'", expected=("meth",))
        return Program(self.global_name, methods, line=start.line, col=start.col)

    def _method(self) -> Method:
        start = self._peek()
        if start.text != "meth":
            self._error("expected 'meth'", expected=("meth",))
        self._advance()
        name = self._expect_ident("method name").text
        self._expect("(")
        local = self._expect_ident("local variable name").text
        self._expect(")")
        body = self._block()
        return Method(name, local, body, line=start.line, col=start.col)

    def _block(self) -> Seq:
        start = self._expect("{")
        self._enter(start)
        stmts = []
        while self._peek().text != "}":
            if self._peek().kind == "eof":
                self._error("expected '}'", expected=("}",))
            self._enter(self._peek())
            stmts.append(self._stmt())
            self.depth -= 1
        self.depth -= 1
        self._expect("}")
        return Seq(stmts, line=start.line, col=start.col)

    def _stmt(self) -> Stmt:
        tok = self._peek()
        if tok.kind == "ident":
            name = self._advance()
            self._expect(":=")
            e, _ = self._expr()
            self._expect(";")
            cls = AssignGlobal if name.text == self.global_name else AssignLocal
            return cls(name.text, e, line=name.line, col=name.col)
        if tok.text == "provided":
            self._advance()
            e, _ = self._expr()
            self._expect(";")
            return Provided(e, line=tok.line, col=tok.col)
        if tok.text == "if":
            self._advance()
            cond, _ = self._expr()
            then = self._block()
            self._expect("else")
            orelse = self._block()
            return If(cond, then, orelse, line=tok.line, col=tok.col)
        if tok.text == "while":
            self._advance()
            cond, _ = self._expr()
            body = self._block()
            return While(cond, body, line=tok.line, col=tok.col)
        if tok.text == "run":
            self._advance()
            method = self._expect_ident("method name").text
            self._expect("(")
            arg, _ = self._expr()
            self._expect(")")
            self._expect(";")
            return Run(method, arg, line=tok.line, col=tok.col)
        if tok.text == "return":
            self._advance()
            self._expect("(")
            self._expect(")")
            self._expect(";")
            return Return(line=tok.line, col=tok.col)
        if tok.text == "synch":
            self._advance()
            self._expect("(")
            method = self._expect_ident("method name").text
            self._expect("(")
            arg, _ = self._expr()
            self._expect(")")
            self._expect(",")
            prio_tok = self._peek()
            if prio_tok.text not in ("high", "medium", "low"):
                self._error("expected priority", expected=("high", "medium", "low"))
            self._advance()
            self._expect(")")
            self._expect(";")
            return Synch(method, arg, Priority.from_keyword(prio_tok.text),
                         line=tok.line, col=tok.col)
        self._error(
            "expected statement",
            expected=("identifier", "provided", "if", "while", "run", "return", "synch", "}"),
        )

    def _expr(self, min_prec: int = 1) -> tuple[Expr, int]:
        """Precedence climbing over ``_PREC``: an expression whose binary
        operators bind at least as tightly as ``min_prec``, and its height
        in levels.  The loop builds each left-associative chain without
        recursing; only a right operand recurses, one precedence up.
        """
        left, height = self._operand()
        while (prec := _PREC.get(self._peek().text, 0)) >= min_prec:
            op = self._advance()
            self._enter(op)
            right, right_height = self._expr(prec + 1)
            self.depth -= 1
            # The new node lifts the whole chain so far one level deeper.
            height = max(height, right_height) + 1
            self._fit(op, height)
            left = Binary(op.text, left, right, line=op.line, col=op.col)
        return left, height

    def _operand(self) -> tuple[Expr, int]:
        """A literal, variable, unary operation or parenthesised group."""
        tok = self._peek()
        if tok.kind == "int" or tok.kind == "ident":
            self._fit(tok)
            self._advance()
            if tok.kind == "int":
                value = int(tok.text.lstrip("0") or "0")
                return IntLit(value, line=tok.line, col=tok.col), 1
            return Var(tok.text, line=tok.line, col=tok.col), 1
        if tok.text not in ("-", "!", "("):
            self._error("expected expression", expected=("integer", "identifier", "("))
        self._advance()
        self._enter(tok)
        if tok.text == "(":
            e, height = self._expr()
            self._expect(")")
        else:
            operand, height = self._operand()
            e = Unary(tok.text, operand, line=tok.line, col=tok.col)
        self.depth -= 1
        return e, height + 1


def parse_program(source: str) -> Program:
    """Parse program text; raises ParseError (and nothing else) on bad input."""
    return _Parser(tokenize(source)).parse_program()


# --- Scope validation ----------------------------------------------------

@dataclass
class ScopeError:
    kind: str  # unknown-variable | unknown-method | global-local-clash | duplicate-method
    name: str
    line: int
    col: int

    def __str__(self) -> str:
        return f"{self.line}:{self.col} {self.kind}: {self.name}"


def walk(node: Node):
    """Yield the statement or expression ``node`` and every node below it,
    in pre-order and source order.

    A statement comes before its expression, and that expression's nodes
    before the statement's nested blocks.  The walk keeps its own stack,
    so it does not recurse.
    """
    todo = [node]
    while todo:
        node = todo.pop()
        yield node
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


def validate_scopes(program: Program) -> list[ScopeError]:
    """Check every name in the program; returns all violations, not just the first.

    A variable must be the program global or the enclosing method's
    local; run/synch targets must be declared methods; a local may not
    shadow the global; method names must be unique.
    """
    errors: list[ScopeError] = []
    method_names = set()
    for m in program.methods:
        if m.name in method_names:
            errors.append(ScopeError("duplicate-method", m.name, m.line, m.col))
        method_names.add(m.name)
        if m.local == program.global_name:
            errors.append(ScopeError("global-local-clash", m.local, m.line, m.col))

    for m in program.methods:
        for node in walk(m.body):
            kind = type(node)
            if ((kind is Var and node.name not in (program.global_name, m.local))
                    or (kind is AssignGlobal and node.name != program.global_name)
                    or (kind is AssignLocal and node.name != m.local)):
                errors.append(ScopeError("unknown-variable", node.name, node.line, node.col))
            elif (kind is Run or kind is Synch) and node.method not in method_names:
                errors.append(ScopeError("unknown-method", node.method, node.line, node.col))
    return errors


# --- Pretty printer ------------------------------------------------------

def format_expr(e: Expr, parent_prec: int = 0) -> str:
    """Render an expression with the minimum parentheses that reparse equal."""
    match e:
        case IntLit(value):
            return str(value)
        case Var(name):
            return name
        case Unary(op, operand):
            text = op + format_expr(operand, _UNARY_PREC)
            return f"({text})" if _UNARY_PREC < parent_prec else text
        case Binary(op, left, right):
            prec = _PREC[op]
            sep = f" {op} "
            text = format_expr(left, prec) + sep + format_expr(right, prec + 1)
            return f"({text})" if prec < parent_prec else text
    raise TypeError(f"not an expression: {e!r}")


def _format_block(s: Stmt, indent: int, out: list[str]):
    if not isinstance(s, Seq):
        raise TypeError(f"not a block: {s!r}")
    pad = "    " * indent
    out.append("{")
    for sub in s.stmts:
        out.append("\n" + pad + "    ")
        _format_stmt(sub, indent + 1, out)
    if s.stmts:
        out.append("\n" + pad)
    out.append("}")


def _format_stmt(s: Stmt, indent: int, out: list[str]):
    match s:
        case AssignGlobal(name, expr) | AssignLocal(name, expr):
            out.append(f"{name} := {format_expr(expr)};")
        case Provided(expr):
            out.append(f"provided {format_expr(expr)};")
        case If(cond, then, orelse):
            out.append(f"if {format_expr(cond)} ")
            _format_block(then, indent, out)
            out.append(" else ")
            _format_block(orelse, indent, out)
        case While(cond, body):
            out.append(f"while {format_expr(cond)} ")
            _format_block(body, indent, out)
        case Run(method, arg):
            out.append(f"run {method}({format_expr(arg)});")
        case Return():
            out.append("return();")
        case Synch(method, arg, priority):
            out.append(f"synch({method}({format_expr(arg)}), {priority.keyword});")
        case _:
            raise TypeError(f"not a statement: {s!r}")


def pretty_print(program: Program) -> str:
    """Emit canonical source text; reparsing it yields an equal AST.

    A tree the grammar cannot express (a ``Seq`` used as a statement, an
    ``if`` or ``while`` branch that is not a ``Seq``, a foreign node)
    raises ``TypeError``.
    """
    out = [f"global {program.global_name};\n"]
    for m in program.methods:
        out.append(f"\nmeth {m.name}({m.local}) ")
        _format_block(m.body, 0, out)
        out.append("\n")
    return "".join(out)


# --- JSON form (used by the CLI's --emit-ast) ----------------------------

def ast_to_dict(node) -> dict:
    """Position-free dict rendering of an AST, stable for serialization."""
    match node:
        case Program(global_name, methods):
            return {"kind": "program", "global": global_name,
                    "methods": [ast_to_dict(m) for m in methods]}
        case Method(name, local, body):
            return {"kind": "method", "name": name, "local": local,
                    "body": ast_to_dict(body)}
        case Seq(stmts):
            return {"kind": "seq", "stmts": [ast_to_dict(s) for s in stmts]}
        case AssignGlobal(name, expr):
            return {"kind": "assign-global", "name": name, "expr": ast_to_dict(expr)}
        case AssignLocal(name, expr):
            return {"kind": "assign-local", "name": name, "expr": ast_to_dict(expr)}
        case Provided(expr):
            return {"kind": "provided", "expr": ast_to_dict(expr)}
        case If(cond, then, orelse):
            return {"kind": "if", "cond": ast_to_dict(cond),
                    "then": ast_to_dict(then), "else": ast_to_dict(orelse)}
        case While(cond, body):
            return {"kind": "while", "cond": ast_to_dict(cond), "body": ast_to_dict(body)}
        case Run(method, arg):
            return {"kind": "run", "method": method, "arg": ast_to_dict(arg)}
        case Return():
            return {"kind": "return"}
        case Synch(method, arg, priority):
            return {"kind": "synch", "method": method, "arg": ast_to_dict(arg),
                    "priority": priority.keyword}
        case IntLit(value):
            return {"kind": "int", "value": value}
        case Var(name):
            return {"kind": "var", "name": name}
        case Unary(op, operand):
            return {"kind": "unary", "op": op, "operand": ast_to_dict(operand)}
        case Binary(op, left, right):
            return {"kind": "binary", "op": op,
                    "left": ast_to_dict(left), "right": ast_to_dict(right)}
    raise TypeError(f"not an AST node: {node!r}")
