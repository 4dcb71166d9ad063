"""Hostile runtime programs: ``run`` recursion, post cycles, nesting near
``MAX_DEPTH``, 64-bit edge arithmetic and budgets of 1-50, from
``progen.gen_hostile_cases``.

Every run must end in ``Finished`` or ``Failed``, alike on every queue
and with or without a trace, and leave a well-formed queue; every CLI
call, on these programs and on mangled copies of them and of other
sources, must exit 0, 1 or 2 without a traceback; stripping the dead
posts of a program that finishes must not change what it does; and no
run may leave cyclic garbage.
"""

import random
import re
from pathlib import Path

import pytest

from priopost import (
    AsynchList,
    Failed,
    Finished,
    Interpreter,
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
from refqueues import InPlace, MarkerList, OracleQueue, audit
from test_interp import cyclic_garbage, reference_jsonl, run_observed

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
        queue = AsynchList()
        untraced, trace = run_observed(program, budget, trace=False, postlist=queue)
        assert trace == [] and audit(queue) == []
        for queue in (InPlace(MarkerList()), InPlace(OracleQueue())):
            state, trace = run_observed(program, budget, postlist=queue)
            assert (state, trace) == (untraced, out.trace), source
            assert audit(queue) == []
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


def test_cli_exits_0_1_or_2_on_token_mutants(tmp_path, capsys):
    sources = [path.read_text(encoding="utf-8") for path in sorted(PROGRAMS.glob("*.ap"))]
    sources += [pretty_print(p) for p in gen_programs(seed=2325, count=40)]
    sources += [source for source, _ in CASES[::50]]
    rng = random.Random(2326)
    path, trace = tmp_path / "p.ap", tmp_path / "t.jsonl"
    run = ["run", str(path), "--budget", "300"]
    for _ in range(1000):
        path.write_text(token_mutant(rng.choice(sources), rng), encoding="utf-8")
        for argv in (run, run + ["--trace", str(trace)], ["parse", str(path)],
                     ["parse", "--emit-ast", str(path)], ["analyze", str(path)]):
            code = main(argv)
            err = capsys.readouterr().err
            assert code in (0, 1, 2) and "Traceback" not in err, (argv, path.read_text())


def test_stripping_dead_posts_keeps_what_a_finished_run_does(programs):
    # Only runs that finish: the strip saves steps and may drop a post whose
    # body would overflow, so a run that faults may not fault once stripped.
    assigns = lambda out: [(e.method, e.value) for e in out.trace if e.kind == "assign-global"]
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
