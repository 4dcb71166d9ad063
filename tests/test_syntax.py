"""Parser, pretty-printer, and scope-validator tests.

Covers tokenizer behavior, grammar productions, operator precedence and
associativity, the parse/pretty-print round trip (hand-written cases plus a
randomized corpus), parser totality on junk input, every scope error
kind, and the contracts of the tree nodes and of the record types.
"""

import json
import random
from dataclasses import dataclass, fields, is_dataclass, replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from priopost import (
    AnalysisReport,
    AssignGlobal,
    AssignLocal,
    Binary,
    DeadPost,
    Expr,
    Failed,
    Finished,
    If,
    IntLit,
    Method,
    ParseError,
    PostEdge,
    PostGraph,
    Priority,
    Program,
    Provided,
    Return,
    Run,
    ScopeError,
    Seq,
    Synch,
    Unary,
    Var,
    While,
    ast_to_dict,
    ast_to_json,
    dead_posts,
    format_expr,
    parse_program,
    pretty_print,
    run_program,
    validate_scopes,
)
from priopost import syntax
from priopost.postlist import AsynchNode
from priopost.syntax import I64_MAX, MAX_DEPTH, Node, Stmt, Token, tokenize

from progen import gen_large_source, gen_programs
from refjson import ref_to_dict


MINIMAL = "global g; meth main(x) { g := 1; }"
PROGRAMS = Path(__file__).resolve().parent.parent / "programs"


# ---------------------------------------------------------------- tokenizer

def test_tokenize_kinds_and_positions():
    toks = tokenize("global g;\nmeth m(x) { x := 12; }")
    assert [(t.kind, t.text) for t in toks[:3]] == [
        ("keyword", "global"), ("ident", "g"), ("punct", ";"),
    ]
    assert toks[0].line == 1 and toks[0].col == 1
    meth = toks[3]
    assert (meth.text, meth.line, meth.col) == ("meth", 2, 1)
    assert toks[-1].kind == "eof"


def test_tokenize_multichar_operators():
    texts = [t.text for t in tokenize("x := 1 == 2 <= 3 != >= <")]
    assert texts[:8] == ["x", ":=", "1", "==", "2", "<=", "3", "!="]


def test_tokenize_skips_line_comments():
    toks = tokenize("// intro\nx // trailing\n// bye\n")
    assert [t.text for t in toks if t.kind != "eof"] == ["x"]


def test_tokenize_rejects_stray_character():
    with pytest.raises(ParseError) as info:
        tokenize("x @ y")
    assert str(info.value) == "1:3 unexpected character '@'"


def lexed(source):
    return [(t.kind, t.text, t.line, t.col) for t in tokenize(source)]


@pytest.mark.parametrize("source, tokens", [
    ("x // c", [("ident", "x", 1, 1), ("eof", "", 1, 3)]),
    ("x // c\n", [("ident", "x", 1, 1), ("eof", "", 2, 1)]),
    ("a//b", [("ident", "a", 1, 1), ("eof", "", 1, 2)]),
    ("\tx\r y", [("ident", "x", 1, 2), ("ident", "y", 1, 5), ("eof", "", 1, 6)]),
    (str(I64_MAX), [("int", str(I64_MAX), 1, 1), ("eof", "", 1, 20)]),
    ("0" * 5000 + "7", [("int", "0" * 5000 + "7", 1, 1), ("eof", "", 1, 5002)]),
], ids=["comment-at-eof", "comment-then-newline", "comment-glued", "tab-and-cr",
        "i64-max", "5000-leading-zeros"])
def test_tokenize_edge_cases(source, tokens):
    assert lexed(source) == tokens


@pytest.mark.parametrize("source, error", [
    (f"x := {I64_MAX + 1}", "1:6 integer literal out of range"),
    ("x := " + "1" * 25, "1:6 integer literal out of range"),
    ("x :=\n  " + "9" * 5000, "2:3 integer literal out of range"),
    ("x \u00e9", "1:3 unexpected character '\u00e9'"),
    ("x\f", "1:2 unexpected character '\\x0c'"),
    ("x : 1", "1:3 unexpected character ':'"),
    ("x = 1", "1:3 unexpected character '='"),
], ids=["i64-max-plus-1", "25-digits", "5000-digits", "e-acute", "form-feed",
        "lone-colon", "lone-equals"])
def test_tokenize_error_positions(source, error):
    with pytest.raises(ParseError) as info:
        tokenize(source)
    assert str(info.value) == error


def test_int_literal_at_limit_parses():
    prog = parse_program(f"global g; meth m(x) {{ g := {I64_MAX}; }}")
    assign = prog.methods[0].body.stmts[0]
    assert assign.expr == IntLit(I64_MAX)


def test_int_literal_with_5000_leading_zeros_parses():
    prog = parse_program(f"global g; meth m(x) {{ g := {'0' * 5000}7; }}")
    assert prog.methods[0].body.stmts[0].expr == IntLit(7)


def test_int_literal_out_of_range_rejected():
    with pytest.raises(ParseError) as info:
        parse_program(f"global g; meth m(x) {{ g := {I64_MAX + 1}; }}")
    assert "range" in str(info.value)


# A lexical error anywhere in the text beats any parse error, even one
# earlier in the text, so these fail on a parser that lexes lazily.
@pytest.mark.parametrize("source, error", [
    ("global g; meth m(x) { x := ; } @", "1:32 unexpected character '@'"),
    ("global g; meth m(x) { x := ; } x := 99999999999999999999;",
     "1:37 integer literal out of range"),
    ("global g; meth m(x) { x := 1 = 2", "1:30 unexpected character '='"),
    ("global g; meth m(x) { x := 1;\n// tail", "2:1 expected '}'"),
], ids=["bad-character-after-parse-error", "literal-after-parse-error",
        "lone-equals-mid-statement", "unterminated-block-before-comment"])
def test_lexical_errors_come_before_parse_errors(source, error):
    with pytest.raises(ParseError) as info:
        parse_program(source)
    assert str(info.value) == error


# ------------------------------------------------------------------ parser

def test_parse_minimal_program_shape():
    prog = parse_program(MINIMAL)
    assert prog == Program("g", [
        Method("main", "x", Seq([AssignGlobal("g", IntLit(1))])),
    ])


def test_parse_synch_statement():
    prog = parse_program("global g; meth m(l) { synch(m(l + 1), high); }")
    stmt = prog.methods[0].body.stmts[0]
    assert stmt == Synch("m", Binary("+", Var("l"), IntLit(1)), Priority.HIGH)


def test_parse_all_statement_forms():
    src = """
    global g;
    meth m(x) {
        x := 2;
        g := x;
        provided x;
        if x { return(); } else { run m(0); }
        while x > 0 { x := x - 1; }
        synch(m(g), low);
    }
    """
    body = parse_program(src).methods[0].body
    kinds = [type(s).__name__ for s in body.stmts]
    assert kinds == ["AssignLocal", "AssignGlobal", "Provided", "If",
                     "While", "Synch"]


def test_parse_requires_at_least_one_method():
    with pytest.raises(ParseError) as info:
        parse_program("global g;")
    assert "meth" in info.value.message


# A program has one or more methods, each opened by `meth` and a method
# name; anything else where a method may start is `expected 'meth'`.
@pytest.mark.parametrize("source, error, expected", [
    ("global g;", "1:10 expected 'meth'", ("meth",)),
    ("global g; x", "1:11 expected 'meth'", ("meth",)),
    ("global g; meth m(x) { } x", "1:25 expected 'meth'", ("meth",)),
    ("global g; meth m(x) { } }", "1:25 expected 'meth'", ("meth",)),
    ("global g;\n// c", "2:1 expected 'meth'", ("meth",)),
    ("global g; meth m(x) { } meth", "1:29 expected method name", ("identifier",)),
], ids=["no-method", "junk-first", "junk-after", "brace-after", "comment-only",
        "meth-at-end"])
def test_method_rule_errors(source, error, expected):
    with pytest.raises(ParseError) as info:
        parse_program(source)
    assert str(info.value) == error
    assert info.value.expected == expected


def test_parse_error_reports_position():
    with pytest.raises(ParseError) as info:
        parse_program("global g;\nmeth m(x) {\n  g := ;\n}")
    assert info.value.line == 3
    assert str(info.value).startswith("3:")


def test_parse_error_on_missing_else():
    with pytest.raises(ParseError):
        parse_program("global g; meth m(x) { if x { } }")


def test_parse_empty_body_and_empty_blocks():
    prog = parse_program("global g; meth m(x) { if x { } else { } } meth n(y) { }")
    assert prog.methods[0].body.stmts[0] == If(Var("x"), Seq([]), Seq([]))
    assert prog.methods[1].body == Seq([])


def test_keywords_cannot_name_variables():
    with pytest.raises(ParseError):
        parse_program("global while; meth m(x) { }")


def test_positions_recorded_but_ignored_by_equality():
    a = parse_program(MINIMAL)
    b = parse_program("global g;\n\nmeth main(x)\n{\n    g := 1;\n}\n")
    assert a == b
    stmt = a.methods[0].body.stmts[0]
    assert stmt.line == 1 and stmt.col > 1


# Every node class and its own fields, after the ``line`` and ``col`` that
# all nodes have.  ``bench/spans.count_nodes`` counts nodes through
# ``is_dataclass`` and ``fields``.
NODE_FIELDS = {
    IntLit: ("value",), Var: ("name",), Unary: ("op", "operand"),
    Binary: ("op", "left", "right"), Seq: ("stmts",), AssignGlobal: ("name", "expr"),
    AssignLocal: ("name", "expr"), Provided: ("expr",), If: ("cond", "then", "orelse"),
    While: ("cond", "body"), Run: ("method", "arg"), Return: (),
    Synch: ("method", "arg", "priority"), Method: ("name", "local", "body"),
    Program: ("global_name", "methods"),
}


def test_node_fields_list_every_node_class():
    classes = {c for c in vars(syntax).values()
               if isinstance(c, type) and issubclass(c, Node)}
    assert classes == {Node, Expr, Stmt, *NODE_FIELDS}


@pytest.mark.parametrize("cls", NODE_FIELDS, ids=lambda cls: cls.__name__)
def test_node_class_contract(cls):
    names = NODE_FIELDS[cls]
    assert is_dataclass(cls)
    assert [f.name for f in fields(cls)] == ["line", "col", *names]
    values = list(range(len(names)))
    bare, placed = cls(*values), cls(*values, line=7, col=3)
    assert [getattr(placed, name) for name in names] == values
    assert (bare.line, bare.col, placed.line, placed.col) == (0, 0, 7, 3)
    # Positions take no part in equality or repr.
    assert bare == placed and repr(bare) == repr(placed)
    assert "line" not in repr(placed)
    # dataclasses.replace keeps them.
    moved = replace(placed, **{name: -1 for name in names})
    assert (moved.line, moved.col) == (7, 3)
    assert not hasattr(placed, "__dict__")


# Every record type, which is built once and never written, with its repr.
RECORDS = [
    (Token("ident", "g", 1, 8), "Token(kind='ident', text='g', line=1, col=8)"),
    (ScopeError("unknown-variable", "y", 1, 28),
     "ScopeError(kind='unknown-variable', name='y', line=1, col=28)"),
    (Finished(706, []), "Finished(global_value=706, trace=[])"),
    (Failed("provided-failed", 3, 5, []),
     "Failed(kind='provided-failed', line=3, col=5, trace=[])"),
    (AsynchNode("b", IntLit(2), 2, Priority.HIGH),
     "AsynchNode(method='b', arg_expr=IntLit(value=2), arg_value=2, priority=<Priority.HIGH: 1>)"),
    (PostEdge("a", "b", "post", Priority.LOW, 1, 23),
     "PostEdge(src='a', dst='b', kind='post', priority=<Priority.LOW: 3>, line=1, col=23)"),
    (DeadPost("log", 4, 5), "DeadPost(method='log', line=4, col=5)"),
    (PostGraph(["a"], []), "PostGraph(vertices=['a'], edges=[])"),
    (AnalysisReport({"a"}, [], PostGraph(["a"], [])),
     "AnalysisReport(effect_free={'a'}, dead_posts=[], graph=PostGraph(vertices=['a'], edges=[]))"),
]


@pytest.mark.parametrize("record, text", RECORDS, ids=[type(r).__name__ for r, _ in RECORDS])
def test_record_types_are_named_tuples(record, text):
    assert repr(record) == text
    assert record == tuple(record) and record._fields
    with pytest.raises(AttributeError):
        record.x = 1
    # A subclass that forgets ``__slots__ = ()`` gives its instances a ``__dict__``.
    assert not hasattr(record, "__dict__")
    if type(record) in (PostEdge, DeadPost):
        hash(record)


# ------------------------------------------- precedence and associativity

def shape(src: str):
    prog = parse_program(f"global g; meth m(x) {{ g := {src}; }}")
    return prog.methods[0].body.stmts[0].expr


def test_multiplication_binds_tighter_than_addition():
    assert shape("1 + 2 * 3") == Binary("+", IntLit(1),
                                        Binary("*", IntLit(2), IntLit(3)))


def test_subtraction_is_left_associative():
    assert shape("1 - 2 - 3") == Binary("-", Binary("-", IntLit(1), IntLit(2)),
                                        IntLit(3))


def test_comparison_binds_looser_than_arithmetic():
    assert shape("1 + 2 < 3 * 4") == Binary(
        "<",
        Binary("+", IntLit(1), IntLit(2)),
        Binary("*", IntLit(3), IntLit(4)),
    )


def test_and_binds_tighter_than_or():
    assert shape("1 or 2 and 3") == Binary(
        "or", IntLit(1), Binary("and", IntLit(2), IntLit(3)))


def test_unary_binds_tightest():
    assert shape("-1 + 2") == Binary("+", Unary("-", IntLit(1)), IntLit(2))
    assert shape("!1 and 2") == Binary("and", Unary("!", IntLit(1)), IntLit(2))


def test_parentheses_override_precedence():
    assert shape("(1 + 2) * 3") == Binary("*", Binary("+", IntLit(1), IntLit(2)),
                                          IntLit(3))


def test_nested_unary():
    assert shape("- - 1") == Unary("-", Unary("-", IntLit(1)))


# ------------------------------------------------------------- round trip

ROUND_TRIP_SOURCES = [
    MINIMAL,
    "global g; meth m(l) { synch(m(l + 1), high); }",
    "global g; meth m(x) { if x > 0 { g := x; } else { g := -x; } }",
    "global g; meth m(x) { while x { x := x - 1; run m(x); } }",
    "global g; meth m(x) { provided x != 0; return(); }",
    "global g; meth a(x) { } meth b(y) { synch(a(y % 3), medium); }",
    "global g; meth m(x) { g := (x + 1) * (x - 1) / 2 and x or !x; }",
]


@pytest.mark.parametrize("src", ROUND_TRIP_SOURCES)
def test_round_trip_hand_written(src):
    ast = parse_program(src)
    assert parse_program(pretty_print(ast)) == ast


def test_round_trip_random_corpus():
    for prog in gen_programs(seed=2024, count=200):
        assert parse_program(pretty_print(prog)) == prog


def test_pretty_print_canonical_layout():
    text = pretty_print(parse_program(MINIMAL))
    assert text == "global g;\n\nmeth main(x) {\n    g := 1;\n}\n"


def test_pretty_print_omits_redundant_parens():
    expr = Binary("+", Var("a"), Binary("*", Var("b"), Var("c")))
    assert format_expr(expr) == "a + b * c"


def test_pretty_print_keeps_needed_parens():
    expr = Binary("*", Binary("+", Var("a"), Var("b")), Var("c"))
    assert format_expr(expr) == "(a + b) * c"


def test_pretty_print_right_operand_parens_under_associativity():
    # 1 - (2 - 3) must not print as 1 - 2 - 3.
    expr = Binary("-", IntLit(1), Binary("-", IntLit(2), IntLit(3)))
    assert format_expr(expr) == "1 - (2 - 3)"
    assert shape(format_expr(expr)) == expr


def _one_method(stmt: Stmt) -> Program:
    return Program("g", [Method("m", "x", Seq([stmt]))])


@pytest.mark.parametrize("program", [
    _one_method(Seq([AssignGlobal("g", IntLit(1))])),
    _one_method(If(Var("x"), AssignGlobal("g", IntLit(1)), Seq([]))),
    _one_method(If(Var("x"), Seq([]), AssignGlobal("g", IntLit(1)))),
    _one_method(While(Var("x"), AssignLocal("x", IntLit(0)))),
    Program("g", []),
], ids=["block-as-statement", "then", "else", "while", "no-method"])
def test_pretty_print_rejects_trees_the_grammar_cannot_express(program):
    # A bare block is no statement ("expected statement" on reparse), a
    # branch that is not a Seq would print as a block and reparse as one,
    # and a program needs a method ("expected 'meth'" on reparse).
    with pytest.raises(TypeError):
        pretty_print(program)
    # The JSON form states such trees as they are.
    assert ast_to_json(program) == json.dumps(ref_to_dict(program))


# --------------------------------------------------------------- positions

# The text of the token each node's position names.
START_TEXT = {
    Program: lambda n: "global", Method: lambda n: "meth", Seq: lambda n: "{",
    AssignGlobal: lambda n: n.name, AssignLocal: lambda n: n.name,
    Provided: lambda n: "provided", If: lambda n: "if", While: lambda n: "while",
    Run: lambda n: "run", Return: lambda n: "return", Synch: lambda n: "synch",
    IntLit: lambda n: str(n.value), Var: lambda n: n.name,
    Unary: lambda n: n.op, Binary: lambda n: n.op,
}


def in_source_order(node):
    """``node`` and every node below it, in the order of their start tokens."""
    if isinstance(node, Binary):
        yield from in_source_order(node.left)
        yield node
        yield from in_source_order(node.right)
        return
    yield node
    children = {
        Program: lambda n: n.methods, Method: lambda n: [n.body], Seq: lambda n: n.stmts,
        If: lambda n: [n.cond, n.then, n.orelse], While: lambda n: [n.cond, n.body],
        Run: lambda n: [n.arg], Synch: lambda n: [n.arg], Unary: lambda n: [n.operand],
        AssignGlobal: lambda n: [n.expr], AssignLocal: lambda n: [n.expr],
        Provided: lambda n: [n.expr],
    }.get(type(node), lambda n: [])(node)
    for child in children:
        yield from in_source_order(child)


def assert_positions_name_start_tokens(source):
    tokens = tokenize(source)
    index = {(t.line, t.col): i for i, t in enumerate(tokens)}
    seen = []
    for node in in_source_order(parse_program(source)):
        i = index[(node.line, node.col)]
        text = tokens[i].text
        assert (text.lstrip("0") or "0" if tokens[i].kind == "int" else text) \
            == START_TEXT[type(node)](node), (node, tokens[i])
        seen.append(i)
    # One token per node, in source order: each node names its own token.
    assert seen == sorted(set(seen))


def position_sources():
    yield from (p.read_text() for p in sorted(PROGRAMS.glob("*.ap")))
    rng = random.Random(8)
    for prog in gen_programs(seed=31, count=200):
        text = pretty_print(prog)
        variant = rng.randrange(4)
        if variant == 0:
            text = text.replace("\n", "\r\n")
        elif variant == 1:
            text = text.replace("    ", "\t").replace(";", "; // note")
        elif variant == 2:
            text = "// head\n" + text + "// tail, no newline"
        yield text


def test_node_positions_are_their_start_tokens():
    for source in position_sources():
        assert_positions_name_start_tokens(source)


@pytest.mark.parametrize("source", [
    "global g;\r\nmeth m(x) {\r\n\tg := -(x + 007) * 2;\r\n}\r\n// end",
    "global g; meth m(x) { if x < 1 { return(); } else { synch(m(x % 2), low); } }//",
    "global\tg;meth m(x){while !x{run m(1 - 2 - 3);}provided x or g and 1;}",
], ids=["crlf-tabs-comment-at-eof", "glued-comment-at-eof", "no-blanks"])
def test_node_positions_in_awkward_layouts(source):
    assert_positions_name_start_tokens(source)


# ---------------------------------------------------------------- totality

@settings(max_examples=300, deadline=None)
@given(st.text(max_size=60))
def test_parser_total_on_arbitrary_text(source):
    try:
        parse_program(source)
    except ParseError:
        pass


def test_parser_total_on_mangled_programs():
    rng = random.Random(99)
    base = pretty_print(parse_program(ROUND_TRIP_SOURCES[2]))
    for _ in range(200):
        chars = list(base)
        for _ in range(rng.randint(1, 4)):
            pos = rng.randrange(len(chars))
            chars[pos] = rng.choice("abc(){};:=<>!0123456789 \n")
        try:
            parse_program("".join(chars))
        except ParseError:
            pass


def front_end_fragments():
    """Text pieces that have broken, or could break, a lexer or parser."""
    edge_literals = [str(I64_MAX - 1), str(I64_MAX), str(I64_MAX + 1), "9" * 19, "9" * 20,
                     "1" + "0" * 19, "0" * 4301 + "7", "0" * 4301 + str(I64_MAX + 1)]
    nested = []
    for depth in range(MAX_DEPTH - 4, MAX_DEPTH + 2):
        nested += ["(" * depth + "1" + ")" * depth, "-" * depth + "x",
                   "if 1 { " * (depth // 2) + "g := 1;" + " } else { }" * (depth // 2)]
    return edge_literals, nested, [
        "\u00e9", "\u65e5\u672c", "\x0b", "\f", ":", "=", ":=", "==", "//", "/", "\n", "\r\n",
        "\t", " ", "{", "}", "(", ")", ";", ",", "x", "g", "if", "else", "run", "synch",
        "low", "meth", "global", "+", "-", "!", "and", "\x00", "\ufeff",
    ]


def test_front_end_is_total_on_hostile_text():
    # Every text ends in a Program or a ParseError; tokenize agrees on
    # which texts are lexically bad.
    rng = random.Random(20260)
    literals, nested, others = front_end_fragments()
    crossed = set()
    for _ in range(2000):
        pool = rng.choice((literals, nested, others, others))
        middle = "".join(rng.choice(pool) for _ in range(rng.randint(1, 6)))
        if rng.random() < 0.5:
            source = "global g; meth m(x) { g := " + middle + "; }"
        else:
            source = middle
        try:
            parse_program(source)
            crossed.add("accepted")
        except ParseError as err:
            assert err.line >= 1 and err.col >= 1
            crossed.add(err.message)
        try:
            tokenize(source)
        except ParseError as err:
            assert err.message in ("integer literal out of range",) \
                or err.message.startswith("unexpected character")
    for source in nested:
        try:
            parse_program(in_method("g := " + source + ";") if "if" not in source
                          else in_method(source))
            crossed.add("accepted")
        except ParseError as err:
            crossed.add(err.message)
    assert {"accepted", "nesting too deep", "integer literal out of range"} <= crossed


# ----------------------------------------------------------- nesting bound

def in_method(stmt: str) -> str:
    return f"global g; meth m(x) {{ {stmt} }}"


# Inputs that once overflowed the Python stack in the parser or later.
DEEP_PROBES = {
    "5000 nested parentheses": in_method("g := " + "(" * 5000 + "1" + ")" * 5000 + ";"),
    "500 nested ifs": in_method("if 1 { " * 500 + "} else { } " * 500),
    "1000 unary minuses": in_method("g := " + "-" * 1000 + "1;"),
    "3000-term sum": in_method("g := " + " + ".join(["1"] * 3000) + ";"),
}


@pytest.mark.parametrize("name", DEEP_PROBES)
def test_too_deep_nesting_is_a_parse_error(name):
    with pytest.raises(ParseError, match="nesting too deep"):
        parse_program(DEEP_PROBES[name])


def test_too_deep_error_is_at_the_crossing_operator():
    # The body is level 1, the statement 2, and a chain of n operators
    # reaches level 3 + n, so operator number MAX_DEPTH - 2 crosses.
    source = DEEP_PROBES["3000-term sum"]
    crossing = [t for t in tokenize(source) if t.text == "+"][MAX_DEPTH - 3]
    with pytest.raises(ParseError) as info:
        parse_program(source)
    assert (info.value.line, info.value.col) == (crossing.line, crossing.col)


def test_seventy_nested_parentheses_parse():
    assert shape("(" * 70 + "1 + 2" + ")" * 70) == Binary("+", IntLit(1), IntLit(2))


BOUND_SHAPES = {
    "sum": lambda n: in_method("g := x" + " + 1" * n + ";"),
    "right-nested": lambda n: in_method("g := " + "1 - (" * n + "x" + ")" * n + ";"),
    "unary": lambda n: in_method("g := " + "-" * n + "x;"),
    "ifs": lambda n: in_method("if 1 { " * n + "g := x;" + " } else { }" * n),
    "whiles": lambda n: in_method("while 0 { " * n + "x := 1 / x;" + " }" * n),
    "parenthesised head": lambda n: in_method(
        "g := " + "(" * n + "x * 2" + ")" * n + " - 1" * n + ";"),
    "synch argument": lambda n: in_method(
        "if x { " * n + "synch(m(" + "x + " * n + "1), low);" + " } else { }" * n),
}


@pytest.mark.parametrize("name", BOUND_SHAPES)
def test_program_at_the_depth_bound_is_usable(name):
    make = BOUND_SHAPES[name]
    for n in range(1, MAX_DEPTH):
        try:
            parse_program(make(n + 1))
        except ParseError as err:
            assert err.message == "nesting too deep"
            break
    else:
        pytest.fail("no nesting bound")
    # The deepest program the parser accepts works everywhere downstream.
    program = parse_program(make(n))
    assert validate_scopes(program) == []
    assert parse_program(pretty_print(program)) == program
    json.dumps(ast_to_dict(program))
    assert ast_to_json(program) == json.dumps(ref_to_dict(program))
    dead_posts(program)
    run_program(program)


# ------------------------------------------------------------------ scopes

def errors_of(src: str):
    return [(e.kind, e.name) for e in validate_scopes(parse_program(src))]


def test_scope_ok_two_method_program():
    src = "global g; meth a(x) { g := x; } meth b(y) { run a(y); }"
    assert validate_scopes(parse_program(src)) == []


def test_scope_unknown_variable():
    assert errors_of("global g; meth a(x) { g := y; }") == [
        ("unknown-variable", "y")]


def test_scope_locals_are_per_method():
    # b cannot read a's local.
    assert errors_of("global g; meth a(x) { } meth b(y) { g := x; }") == [
        ("unknown-variable", "x")]


def test_scope_unknown_method():
    assert errors_of("global g; meth a(x) { run q(0); }") == [
        ("unknown-method", "q")]


def test_scope_unknown_synch_target():
    assert errors_of("global g; meth a(x) { synch(q(0), low); }") == [
        ("unknown-method", "q")]


def test_scope_global_local_clash():
    assert errors_of("global g; meth a(g) { }") == [
        ("global-local-clash", "g")]


def test_scope_duplicate_method():
    assert errors_of("global g; meth a(x) { } meth a(y) { }") == [
        ("duplicate-method", "a")]


def test_scope_reports_all_violations():
    src = "global g; meth a(x) { g := y; run q(0); }"
    kinds = [e.kind for e in validate_scopes(parse_program(src))]
    assert sorted(kinds) == ["unknown-method", "unknown-variable"]


def test_scope_error_carries_position():
    err = validate_scopes(parse_program("global g; meth a(x) { g := y; }"))[0]
    assert err.line == 1 and err.col > 1
    assert str(err).startswith("1:")


# ----------------------------------------------------------------- ast dict

def test_ast_to_dict_is_json_ready():
    import json

    prog = parse_program(ROUND_TRIP_SOURCES[1])
    blob = json.dumps(ast_to_dict(prog))
    data = json.loads(blob)
    assert data["kind"] == "program"
    assert data["methods"][0]["name"] == "m"


@dataclass
class Foreign(Expr):
    pass


@dataclass
class Subclassed(Binary):
    pass


@pytest.mark.parametrize("node", [
    object(),
    Foreign(),
    Program("g", [Method("m", "x", Seq([AssignGlobal("g", Foreign())]))]),
    Subclassed("+", IntLit(1), IntLit(2)),
], ids=["object", "foreign-node", "foreign-node-inside", "subclass"])
def test_ast_to_dict_rejects_foreign_nodes(node):
    with pytest.raises(TypeError):
        ast_to_dict(node)
    with pytest.raises(TypeError):
        ast_to_json(node)


@pytest.mark.parametrize("node", [
    Foreign(),
    Subclassed("+", IntLit(1), IntLit(2)),
    Binary("*", Subclassed("+", IntLit(1), IntLit(2)), IntLit(3)),
], ids=["foreign-node", "subclass", "subclass-inside"])
def test_printers_take_exact_node_types_only(node):
    with pytest.raises(TypeError):
        format_expr(node)
    with pytest.raises(TypeError):
        pretty_print(Program("g", [Method("m", "x", Seq([AssignGlobal("g", node)]))]))


@pytest.mark.parametrize("literal", [
    IntLit(True), IntLit(-5), IntLit(I64_MAX + 1), IntLit(7.0), IntLit("7"),
], ids=["bool", "negative", "past-i64", "float", "str"])
def test_printers_reject_literals_the_grammar_cannot_express(literal):
    # ``True`` would reparse as a variable and ``-5`` as a negation of 5.
    with pytest.raises(TypeError):
        format_expr(literal)
    with pytest.raises(TypeError):
        pretty_print(Program("g", [Method("m", "x", Seq([AssignGlobal("g", literal)]))]))


@pytest.mark.parametrize("value", [True, False, 7.0, "7", None])
def test_ast_to_json_rejects_literals_that_are_not_ints(value):
    with pytest.raises(TypeError):
        ast_to_json(Seq([AssignGlobal("g", IntLit(value))]))
    with pytest.raises(TypeError):
        ast_to_dict(IntLit(value))


@dataclass
class SubclassedProgram(Program):
    pass


@dataclass
class SubclassedMethod(Method):
    pass


def test_pretty_print_takes_exact_program_and_method_types():
    with pytest.raises(TypeError):
        pretty_print(SubclassedProgram("g", [Method("m", "x", Seq([]))]))
    with pytest.raises(TypeError):
        pretty_print(Program("g", [SubclassedMethod("m", "x", Seq([]))]))


# ------------------------------------------------------------- ast json
#
# ast_to_json writes its text directly; tests/refjson.py keeps the dict
# renderer it replaced, and json.dumps of that is the reference.

def assert_json_matches_reference(tree):
    assert ast_to_json(tree) == json.dumps(ref_to_dict(tree))


def test_ast_json_matches_reference_on_sample_programs():
    paths = sorted(PROGRAMS.glob("*.ap"))
    assert paths
    for path in paths:
        assert_json_matches_reference(parse_program(path.read_text(encoding="utf-8")))


def test_ast_json_matches_reference_on_progen_corpus():
    for prog in gen_programs(seed=77, count=300):
        assert_json_matches_reference(prog)


def test_ast_json_matches_reference_on_large_sources():
    rng = random.Random(14)
    for _ in range(20):
        program = parse_program(gen_large_source(rng))
        assert validate_scopes(program) == []
        assert_json_matches_reference(program)


EVERY_NODE_KIND = {
    "int": IntLit(7),
    "var": Var("x"),
    "unary": Unary("-", Var("x")),
    "binary": Binary("and", IntLit(1), Var("g")),
    "seq": Seq([]),
    "assign-global": AssignGlobal("g", IntLit(1)),
    "assign-local": AssignLocal("x", IntLit(2)),
    "provided": Provided(Var("x")),
    "if": If(Var("x"), Seq([Return()]), Seq([])),
    "while": While(Var("x"), Seq([AssignLocal("x", IntLit(0))])),
    "run": Run("m", IntLit(3)),
    "return": Return(),
    "synch": Synch("m", Var("x"), Priority.MEDIUM),
    "method": Method("m", "x", Seq([Return()])),
    "program": Program("g", [Method("m", "x", Seq([])), Method("n", "y", Seq([]))]),
}


def test_every_node_kind_is_covered():
    assert {type(node) for node in EVERY_NODE_KIND.values()} == set(NODE_FIELDS)


@pytest.mark.parametrize("kind", EVERY_NODE_KIND)
def test_ast_json_of_each_node_kind(kind):
    node = EVERY_NODE_KIND[kind]
    assert json.loads(ast_to_json(node))["kind"] == kind
    assert_json_matches_reference(node)


AWKWARD_NAMES = ["é", 'a"b', "a\\b", "\n", "", None]


@pytest.mark.parametrize("name", AWKWARD_NAMES, ids=repr)
def test_ast_json_escapes_what_json_must(name):
    trees = [
        Var(name),
        AssignLocal(name, IntLit(1)),
        Synch(name, Var(name), Priority.LOW),
        Run(name, Var(name)),
        Program(name, [Method(name, name, Seq([AssignGlobal(name, Var(name))]))]),
    ]
    for tree in trees:
        assert_json_matches_reference(tree)


@pytest.mark.parametrize("tree", [
    IntLit(2**70),
    IntLit(-5),
    Binary("<>", IntLit(1), IntLit(2)),
    Unary('"', IntLit(1)),
    Binary(None, Var("x"), Var("y")),
], ids=["big-int", "negative", "unknown-op", "quote-op", "none-op"])
def test_ast_json_of_values_the_grammar_never_builds(tree):
    # Still valid JSON; a literal that is not an int is a TypeError (above).
    assert_json_matches_reference(tree)

