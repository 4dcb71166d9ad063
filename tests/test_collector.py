"""The cyclic collector during a request.

``parse_program``, ``Interpreter.run`` and ``cli.main`` pause the collector
while they run, since none of them leaves cyclic garbage, and leave it as
they found it: on when it was on, off when the caller had turned it off,
whichever way they end.  The thread test is beside its recursion-limit
sibling in ``test_interp.py``.
"""

import gc
import random
import sys

import pytest

from priopost import (
    AssignLocal, Failed, Finished, IntLit, Interpreter, Method, ParseError, Program, Seq, Var,
    While, parse_program,
)
from priopost import cli, interp, syntax
from priopost.cli import main
from progen import gen_large_source
from test_interp import ForeignStmt

OK = "global g; meth m(x) { g := g + 1; }"
BAD_SYNTAX = "global g; meth m(x) { g := ; }"
SCOPE_ERROR = "global g; meth m(x) { g := y; }"
FAULT = "global g; meth m(x) { g := 1 / x; }"
FOREIGN_STMT = Program("g", [Method("m", "x", Seq([ForeignStmt()]))])  # KeyError
BARE_BODY = Program("g", [Method("m", "x", Seq([While(Var("x"), AssignLocal("x", IntLit(0)))]))])

ENTRY_STATES = pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])


def ending(call, enabled: bool):
    """What ``call()`` returns, or the type of what it raises, when it starts
    with the collector ``enabled`` or not; it must leave the collector so."""
    (gc.enable if enabled else gc.disable)()
    try:
        try:
            ended = call()
        except (Exception, KeyboardInterrupt, SystemExit) as err:
            ended = type(err)
        assert gc.isenabled() is enabled
        return ended
    finally:
        gc.enable()


def interrupt(monkeypatch, target, name) -> list[bool]:
    """Make ``target.name`` raise KeyboardInterrupt, as Ctrl-C would there;
    the returned list gets whether the collector was on at each call."""
    seen = []

    def interrupted(*args, **kwargs):
        seen.append(gc.isenabled())
        raise KeyboardInterrupt
    monkeypatch.setattr(target, name, interrupted)
    return seen


@ENTRY_STATES
def test_parse_program_leaves_the_collector_as_it_found_it(monkeypatch, enabled):
    assert type(ending(lambda: parse_program(OK), enabled)) is Program
    assert ending(lambda: parse_program(BAD_SYNTAX), enabled) is ParseError
    seen = interrupt(monkeypatch, syntax._Parser, "parse_program")
    assert ending(lambda: parse_program(OK), enabled) is KeyboardInterrupt
    assert seen == [False]


@ENTRY_STATES
def test_run_leaves_the_collector_as_it_found_it(monkeypatch, enabled):
    def run(program):
        if isinstance(program, str):
            program = parse_program(program)
        return Interpreter(program).run
    assert type(ending(run(OK), enabled)) is Finished
    assert ending(run(SCOPE_ERROR), enabled) is ValueError
    assert type(ending(run(FAULT), enabled)) is Failed
    assert ending(run(FOREIGN_STMT), enabled) is KeyError
    assert ending(run(BARE_BODY), enabled) is TypeError
    with monkeypatch.context() as patch:  # the scope check runs paused too
        seen = interrupt(patch, interp, "validate_scopes")
        assert ending(run(OK), enabled) is KeyboardInterrupt
        assert seen == [False]
    seen = interrupt(monkeypatch, Interpreter, "_compile_block")
    assert ending(run(OK), enabled) is KeyboardInterrupt
    assert seen == [False]


@ENTRY_STATES
def test_cli_main_leaves_the_collector_as_it_found_it(tmp_path, capsys, monkeypatch, enabled):
    files = {}
    for name, text in [("ok", OK), ("bad", BAD_SYNTAX), ("scope", SCOPE_ERROR), ("fault", FAULT)]:
        files[name] = tmp_path / f"{name}.ap"
        files[name].write_text(text)

    def cli_call(*argv):
        return lambda: main([str(a) for a in argv])
    assert ending(cli_call("parse", files["ok"]), enabled) == 0
    assert ending(cli_call("parse", files["bad"]), enabled) == 2  # ParseError
    assert ending(cli_call("analyze", files["scope"]), enabled) == 2  # validate_scopes
    assert ending(cli_call("run", files["scope"]), enabled) == 2  # run()'s ValueError
    assert ending(cli_call("run", files["fault"]), enabled) == 1  # Failed
    assert ending(cli_call("run"), enabled) is SystemExit  # argparse
    with monkeypatch.context() as patch:
        patch.setattr(cli, "parse_program", lambda source: FOREIGN_STMT)
        assert ending(cli_call("run", files["ok"]), enabled) is KeyError
    seen = interrupt(monkeypatch, cli, "dead_posts")
    assert ending(cli_call("analyze", files["ok"]), enabled) is KeyboardInterrupt
    assert seen == [False]
    capsys.readouterr()


def collections_inside(function, call) -> int:
    """Collections that start, during ``call()``, while ``function`` is on the stack."""
    code, starts = function.__code__, 0

    def count(phase, info):
        nonlocal starts
        if phase == "start":
            frame = sys._getframe(1)  # the frame whose allocation set the collection off
            while frame is not None and frame.f_code is not code:
                frame = frame.f_back
            starts += frame is not None
    gc.callbacks.append(count)
    try:
        call()
    finally:
        gc.callbacks.remove(count)
    return starts


def test_no_collection_starts_inside_a_request(tmp_path, capsys):
    # Counts, not timings: at the default thresholds a tree or a compiled body
    # of this size sets off several collections unless the collector is paused.
    assert gc.isenabled()
    text = "global g; meth m(x) {" + " x := x + 1;" * 3000 + " g := x; }"
    assert collections_inside(syntax.parse_program, lambda: parse_program(text)) == 0
    interp = Interpreter(parse_program(text))
    assert collections_inside(Interpreter.run, interp.run) == 0
    assert interp.store.global_value == 3000
    src = tmp_path / "large.ap"
    src.write_text(gen_large_source(random.Random(31), methods=90))
    assert collections_inside(main, lambda: main(["analyze", str(src)])) == 0
    assert capsys.readouterr().out.startswith('{"effect_free": ')
