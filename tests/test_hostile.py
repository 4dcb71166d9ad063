"""Hostile runtime programs: ``run`` recursion, post cycles, nesting near
``MAX_DEPTH``, 64-bit edge arithmetic and budgets of 1-50, from
``progen.gen_hostile_cases``.

Every run must end in ``Finished`` or ``Failed``, alike on every queue
and with or without a trace, and leave a well-formed queue; every CLI
call must exit 0, 1 or 2 without raising; and no run may leave cyclic
garbage.
"""

import random

import pytest

from priopost import (
    Failed,
    Finished,
    Interpreter,
    parse_program,
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
from progen import gen_hostile_cases
from refqueues import InPlace, MarkerList, OracleQueue, audit
from test_interp import cyclic_garbage, reference_jsonl

CASES = gen_hostile_cases(seed=2323, count=1000)


@pytest.fixture(scope="module")
def programs():
    """Each case's source, parsed program and budget."""
    out = []
    for source, budget in CASES:
        program = parse_program(source)
        assert validate_scopes(program) == [], source
        out.append((source, program, budget))
    return out


def observed(program, budget: int, **options):
    """Outcome type and payload, step count and store of one run, with its
    trace; the queue the run leaves must pass its audit."""
    interp = Interpreter(program, budget=budget, **options)
    out = interp.run()
    assert audit(interp.postlist) == []
    end = out.global_value if isinstance(out, Finished) else (out.kind, out.line, out.col)
    return (type(out), end, interp.step_count, interp.store), out.trace


def test_runs_end_alike_on_every_queue_with_or_without_a_trace(programs):
    kinds = set()
    for source, program, budget in programs:
        out = run_program(program, budget)
        assert type(out) in (Finished, Failed), source
        kinds.add(out.kind if type(out) is Failed else "finished")
        assert trace_to_jsonl(out) == reference_jsonl(out), source
        untraced, trace = observed(program, budget, trace=False)
        assert trace == []
        for queue in (MarkerList(), OracleQueue()):
            state, trace = observed(program, budget, postlist=InPlace(queue))
            assert (state, trace) == (untraced, out.trace), source
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


def test_hostile_runs_leave_no_cyclic_garbage(programs):
    for source, program, budget in programs[::20]:
        calls = [lambda trace=trace: Interpreter(program, budget=budget, trace=trace).run()
                 for trace in (True, False)]
        assert cyclic_garbage(*calls) == 0, source
