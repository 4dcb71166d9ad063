"""Hostile runtime programs: ``run`` recursion, post cycles, nesting near
``MAX_DEPTH``, 64-bit edge arithmetic and budgets of 1-50, from
``progen.gen_hostile_cases``.

Every run must end in ``Finished`` or ``Failed``, alike with or without
a trace down to the posts it leaves, with a trace that passes
``check_trace`` (``tests/reftrace.py``), and leave a well-formed queue;
every CLI call, on these programs and on mangled copies of them and of
other sources, must exit 0, 1 or 2 without a traceback, and write a
``--trace`` file that passes ``check_trace``; stripping the dead posts of a program that
finishes must not change what it does; and no run may leave cyclic
garbage.
"""

import random
import re
from pathlib import Path

import pytest

from priopost import (
    DEFAULT_BUDGET,
    Failed,
    Finished,
    Interpreter,
    ParseError,
    dead_posts,
    parse_program,
    pretty_print,
    run_program,
    trace_to_jsonl,
    validate_scopes,
)
from priopost.cli import main
from priopost.interp import (
    ARITH_OVERFLOW,
    CALL_DEPTH_EXCEEDED,
    DIVISION_BY_ZERO,
    PROVIDED_FAILED,
    STEP_BUDGET_EXHAUSTED,
)
from priopost.syntax import KEYWORDS
from deadstrip import strip_dead_posts
from progen import gen_hostile_cases, gen_programs
from refjson import events
from refqueues import audit
from reftrace import check_trace
from test_interp import cyclic_garbage, observe, reference_jsonl

CASES = gen_hostile_cases(seed=2323, count=1000)
PROGRAMS = Path(__file__).resolve().parent.parent / "programs"


@pytest.fixture(scope="module")
def programs():
    """Each case's source, parsed program and budget."""
    out = []
    for source, budget in CASES:
        program = parse_program(source)
        assert validate_scopes(program) == [], source
        out.append((source, program, budget))
    return out


def test_runs_end_alike_on_every_queue_with_or_without_a_trace(programs):
    kinds = set()
    for source, program, budget in programs:
        out = run_program(program, budget)
        assert type(out) in (Finished, Failed), source
        kinds.add(out.kind if type(out) is Failed else "finished")
        assert trace_to_jsonl(out) == reference_jsonl(out), source
        check_trace(trace_to_jsonl(out).splitlines())
        runs = []
        for trace in (False, True):
            interp = Interpreter(program, budget, trace=trace)
            runs.append((*observe(interp), tuple(interp.postlist)))
            assert audit(interp.postlist) == [], source
        (untraced, trace, left), (traced, traced_trace, traced_left) = runs
        assert trace == [] and traced_trace == out.trace, source
        assert (untraced, left) == (traced, traced_left), source
    # The corpus reaches every outcome the interpreter has.
    assert kinds == {"finished", PROVIDED_FAILED, DIVISION_BY_ZERO, ARITH_OVERFLOW,
                     STEP_BUDGET_EXHAUSTED, CALL_DEPTH_EXCEEDED}


def mangled(source: str, rng: random.Random) -> bytes:
    """``source`` with a few bytes overwritten by any byte value, so it may
    be malformed, or not UTF-8 at all."""
    data = bytearray(source.encode())
    for _ in range(rng.randint(1, 4)):
        data[rng.randrange(len(data))] = rng.randrange(256)
    return bytes(data)


def test_cli_exits_0_1_or_2_on_hostile_files(programs, tmp_path, capsys):
    rng = random.Random(2324)
    path, trace = tmp_path / "p.ap", tmp_path / "t.jsonl"
    for source, program, budget in programs[::25]:
        out = run_program(program, budget)
        run = ["run", path, "--budget", budget]
        for text in (source.encode(), mangled(source, rng)):
            path.write_bytes(text)
            for argv in (run, run + ["--trace", trace], ["parse", path],
                         ["parse", "--emit-ast", path], ["analyze", path]):
                code = main([str(a) for a in argv])
                err = capsys.readouterr().err
                assert code in (0, 1, 2) and "Traceback" not in err, (argv, text)
                if "--trace" in argv and code != 2:  # exit 0 or 1 wrote the file
                    check_trace(trace.read_text(encoding="utf-8").splitlines())
                if text == source.encode():
                    assert err == ""
                    assert code == (1 if argv[0] == "run" and type(out) is Failed else 0)


# The lexer's tokens, and comments: a mutation moves whole tokens.
_TOKEN = re.compile(r"//[^\n]*|[A-Za-z_][A-Za-z0-9_]*|[0-9]+|[:=!<>]=|\S")
_INSERTS = sorted(KEYWORDS) + [
    ":=", "==", "!=", "<=", ">=", "<", ">", "+", "-", "*", "/", "%", "!",
    "(", ")", "{", "}", ";", ",", "0", "1", "3037000500", "4294967296",
    "9223372036854775807", "9223372036854775808", "99999999999999999999",
]


def token_mutant(source: str, rng: random.Random) -> str:
    """``source`` with 1-3 token edits: delete one, insert a grammar token or
    a 64-bit edge literal, swap two, or duplicate a span."""
    toks = _TOKEN.findall(source)
    for _ in range(rng.randint(1, 3)):
        i, j = sorted(rng.randrange(len(toks) + 1) for _ in range(2))
        edit = rng.randrange(4)
        if edit == 0 and i < len(toks):
            del toks[i]
        elif edit == 1:
            toks.insert(i, rng.choice(_INSERTS))
        elif edit == 2 and j < len(toks):
            toks[i], toks[j] = toks[j], toks[i]
        else:
            toks[j:j] = toks[i:j]
    # A comment ends at a newline, so it cannot swallow the tokens after it.
    return rng.choice((" ", "\n")).join(t + "\n" if t[:2] == "//" else t for t in toks)


def mutant_sources() -> list[str]:
    sources = [path.read_text(encoding="utf-8") for path in sorted(PROGRAMS.glob("*.ap"))]
    sources += [pretty_print(p) for p in gen_programs(seed=2325, count=40)]
    return sources + [source for source, _ in CASES[::50]]


def assert_cli_survives(path, trace, capsys) -> int:
    """Every CLI command on ``path`` exits 0, 1 or 2 without a traceback;
    returns ``run``'s exit code."""
    run = ["run", str(path), "--budget", "300"]
    codes = []
    for argv in (run, run + ["--trace", str(trace)], ["parse", str(path)],
                 ["parse", "--emit-ast", str(path)], ["analyze", str(path)]):
        codes.append(main(argv))
        err = capsys.readouterr().err
        assert codes[-1] in (0, 1, 2) and "Traceback" not in err, (argv, path.read_text())
    return codes[0]


def test_cli_exits_0_1_or_2_on_token_mutants(tmp_path, capsys):
    sources = mutant_sources()
    rng = random.Random(2326)
    path, trace = tmp_path / "p.ap", tmp_path / "t.jsonl"
    for _ in range(1000):
        path.write_text(token_mutant(rng.choice(sources), rng), encoding="utf-8")
        assert_cli_survives(path, trace, capsys)


# Tokens that another of their class replaces, keeping most mutants parseable.
_OPERATORS = ("+", "-", "*", "/", "%", "==", "!=", "<", "<=", ">", ">=", "and", "or")
_PRIORITIES = ("high", "medium", "low")
_EDGE_LITERALS = ("0", "1", "2", "3037000499", "3037000500", "4294967296",
                  "9223372036854775807", "9223372036854775808")
_DECLARED = re.compile(r"\b(global|meth)\s+(\w+)(?:\s*\(\s*(\w+))?")


def class_mutant(source: str, rng: random.Random) -> str:
    """``source`` with 1-3 tokens each replaced by another of the same class:
    an operator, a priority, a declared method or variable name, or an
    integer literal replaced by a 64-bit edge literal."""
    declared = _DECLARED.findall(source)
    methods = tuple(sorted({name for kind, name, _ in declared if kind == "meth"}))
    variables = tuple(sorted({name for kind, name, _ in declared if kind == "global"}
                             | {local for _, _, local in declared if local}))
    toks = _TOKEN.findall(source)
    spots = [(i, cls) for i, t in enumerate(toks)
             for cls in (_OPERATORS, _PRIORITIES, methods, variables) if t in cls]
    spots += [(i, _EDGE_LITERALS) for i, t in enumerate(toks) if t.isdigit()]
    for _ in range(rng.randint(1, 3)):
        i, choices = rng.choice(spots)
        toks[i] = rng.choice([c for c in choices if c != toks[i]] or [toks[i]])
    return " ".join(t + "\n" if t[:2] == "//" else t for t in toks)


def test_cli_exits_0_1_or_2_on_same_class_mutants(tmp_path, capsys):
    sources = mutant_sources()
    rng = random.Random(2327)
    path, trace = tmp_path / "p.ap", tmp_path / "t.jsonl"
    parsed = ran = 0
    for _ in range(300):
        text = class_mutant(rng.choice(sources), rng)
        try:
            parse_program(text)
            parsed += 1
        except ParseError:
            pass
        path.write_text(text, encoding="utf-8")
        ran += assert_cli_survives(path, trace, capsys) != 2
    # Unlike token mutants, which almost never parse, at least 30% of these
    # parse and at least 30% pass the scope check and run.
    assert parsed >= 90 and ran >= 90, (parsed, ran)


def test_stripping_dead_posts_keeps_what_a_finished_run_does(programs):
    # Only runs that finish: the strip saves steps and may drop a post whose
    # body would overflow, so a run that faults may not fault once stripped.
    assigns = lambda out: [(e["method"], e["value"]) for e in events(out)
                           if e["kind"] == "assign-global"]
    stripped_posts = 0
    for source, program, budget in programs:
        out = run_program(program, budget)
        report = dead_posts(program)
        if type(out) is not Finished or not report.dead_posts:
            continue
        stripped = run_program(strip_dead_posts(program, report), budget)
        assert type(stripped) is Finished, source
        assert stripped.global_value == out.global_value, source
        assert assigns(stripped) == assigns(out), source
        stripped_posts += len(report.dead_posts)
    assert stripped_posts >= 30


def test_hostile_runs_leave_no_cyclic_garbage(programs):
    for source, program, budget in programs[::20]:
        calls = [lambda trace=trace: Interpreter(program, budget=budget, trace=trace).run()
                 for trace in (True, False)]
        assert cyclic_garbage(*calls) == 0, source


def test_untraced_runs_make_no_trace_text(programs, monkeypatch):
    # The trace's layout helper raises: an untraced run that makes any of
    # its text at compile time, at run time or on a fault fails here.
    def no_layout(*args):
        raise AssertionError("trace text made by an untraced run")
    monkeypatch.setattr("priopost.interp._layout", no_layout)
    # Hostile programs run at their own budgets, 1-3,000 steps, which reach
    # every outcome; at the default budget 10% of them spin for a million.
    runs = [(p, b) for p in gen_programs(seed=2468, count=200) for b in (DEFAULT_BUDGET, 25)]
    runs += [(p, b) for _, p, own in programs[:200] for b in (own, 25)]
    for program, budget in runs:
        out = Interpreter(program, budget=budget, trace=False).run()
        assert type(out) in (Finished, Failed) and out.trace == [], pretty_print(program)
