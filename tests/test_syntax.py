"""Parser, pretty-printer, and scope-validator tests.

Covers tokenizer behavior, grammar productions, operator precedence and
associativity, the parse/pretty-print round trip (hand-written cases plus a
randomized corpus), parser totality on junk input, and every scope error
kind.
"""

import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from priopost import (
    AssignGlobal,
    AssignLocal,
    Binary,
    If,
    IntLit,
    Method,
    ParseError,
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
    ast_to_dict,
    dead_posts,
    format_expr,
    parse_program,
    pretty_print,
    run_program,
    validate_scopes,
)
from priopost.syntax import I64_MAX, MAX_DEPTH, tokenize

from progen import gen_programs


MINIMAL = "global g; meth main(x) { g := 1; }"


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


@pytest.mark.parametrize("stmt", [
    Seq([AssignGlobal("g", IntLit(1))]),
    If(Var("x"), AssignGlobal("g", IntLit(1)), Seq([])),
    If(Var("x"), Seq([]), AssignGlobal("g", IntLit(1))),
    While(Var("x"), AssignLocal("x", IntLit(0))),
], ids=["block-as-statement", "then", "else", "while"])
def test_pretty_print_rejects_trees_the_grammar_cannot_express(stmt):
    # A bare block is no statement ("expected statement" on reparse), and
    # a branch that is not a Seq would print as a block and reparse as one.
    program = Program("g", [Method("m", "x", Seq([stmt]))])
    with pytest.raises(TypeError):
        pretty_print(program)


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
