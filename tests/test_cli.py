"""Command-line interface tests, and README's list of library names.

Exit-code contract: 0 success, 1 runtime fault, 2 parse/scope error, 130
interrupted.
Most tests drive ``main(argv)`` in-process; determinism is additionally
checked through real subprocesses.
"""

import json
import os
import re
import resource
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import priopost
from priopost import (
    ast_to_dict, ast_to_json, parse_program, pretty_print, run_program, trace_to_jsonl,
)
from priopost.cli import main

from test_interp import cyclic_garbage
from test_syntax import DEEP_PROBES

ROOT = Path(__file__).resolve().parent.parent
PROGRAMS = ROOT / "programs"


def run_cli(*argv):
    return main([str(a) for a in argv])


# --------------------------------------------------------------------- run

def test_run_prints_final_global(capsys):
    assert run_cli("run", PROGRAMS / "priority_order.ap") == 0
    assert capsys.readouterr().out == "231\n"


@pytest.mark.parametrize("name,expected", [
    ("fifo_within_priority.ap", "123456789"),
    ("snapshot.ap", "706"),
    ("startup_then_dispatch.ap", "0"),
    ("dead_logger.ap", "12"),
])
def test_run_sample_programs(capsys, name, expected):
    assert run_cli("run", PROGRAMS / name) == 0
    assert capsys.readouterr().out == expected + "\n"


def test_run_provided_failure(capsys):
    assert run_cli("run", PROGRAMS / "provided_zero.ap") == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["kind"] == "provided-failed"
    assert payload["location"]["line"] == 9


def test_run_budget_exhaustion(capsys):
    assert run_cli("run", PROGRAMS / "count_forever.ap", "--budget", 1000) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["kind"] == "step-budget-exhausted"


def test_run_division_failure(tmp_path, capsys):
    bad = tmp_path / "div.ap"
    bad.write_text("global g;\nmeth m(x) {\n    g := 1 / 0;\n}\n")
    assert run_cli("run", bad) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["kind"] == "division-by-zero"
    assert payload["location"] == {"line": 3, "col": 12}


def test_run_writes_trace_file(tmp_path, capsys):
    trace = tmp_path / "out.jsonl"
    assert run_cli("run", PROGRAMS / "snapshot.ap", "--trace", trace) == 0
    capsys.readouterr()
    lines = trace.read_text().splitlines()
    objs = [json.loads(line) for line in lines]
    assert objs[-1] == {"kind": "finished", "global": 706}
    kinds = {o["kind"] for o in objs}
    assert {"method-start", "post", "dispatch", "assign-global"} <= kinds


@pytest.mark.parametrize("path", sorted(PROGRAMS.glob("*.ap")), ids=lambda p: p.name)
def test_run_trace_file_matches_library_trace(tmp_path, capsys, path):
    # Library traces are pinned by the behaviour lock; the CLI must write
    # the same bytes, and print the same with or without --trace.  A
    # budget of 10,000 keeps count_forever's trace small.
    trace = tmp_path / "out.jsonl"
    code = run_cli("run", path, "--budget", 10_000, "--trace", trace)
    traced_out = capsys.readouterr().out
    assert run_cli("run", path, "--budget", 10_000) == code
    assert capsys.readouterr().out == traced_out
    program = parse_program(path.read_text(encoding="utf-8"))
    expected = trace_to_jsonl(run_program(program, budget=10_000))
    assert trace.read_bytes() == expected.encode("utf-8")


def test_run_trace_written_even_on_failure(tmp_path, capsys):
    trace = tmp_path / "out.jsonl"
    assert run_cli("run", PROGRAMS / "provided_zero.ap", "--trace", trace) == 1
    capsys.readouterr()
    objs = [json.loads(line) for line in trace.read_text().splitlines()]
    assert objs[-1]["kind"] == "provided-fail"


def test_run_dump_final_store(capsys):
    assert run_cli("run", PROGRAMS / "snapshot.ap", "--dump-final-store") == 0
    value, store = capsys.readouterr().out.splitlines()
    assert value == "706"
    data = json.loads(store)
    assert data["global"] == 706
    # Locals in declaration order: w was dispatched with snapshot 6.
    assert list(data["locals"]) == ["w", "main"]
    assert data["locals"]["w"] == 6


def test_run_dump_final_store_adds_nothing_on_a_fault(capsys):
    assert run_cli("run", PROGRAMS / "provided_zero.ap", "--dump-final-store") == 1
    assert capsys.readouterr().out.splitlines() == [
        '{"kind": "provided-failed", "location": {"line": 9, "col": 5}}']


def test_run_rejects_budget_below_one(capsys):
    with pytest.raises(SystemExit):
        run_cli("run", PROGRAMS / "snapshot.ap", "--budget", 0)


def test_run_rejects_non_integer_budget(capsys):
    with pytest.raises(SystemExit):
        run_cli("run", PROGRAMS / "snapshot.ap", "--budget", "banana")
    assert "budget must be an integer" in capsys.readouterr().err


def test_run_missing_file(capsys):
    assert run_cli("run", PROGRAMS / "nope.ap") == 2
    err = capsys.readouterr().err
    assert "cannot read" in err


@pytest.mark.parametrize("command", ["run", "parse", "analyze"])
def test_non_utf8_file_is_a_read_error(tmp_path, capsys, command):
    bad = tmp_path / "latin1.ap"
    bad.write_bytes("global g; // caf\u00e9\nmeth m(x) { g := 1; }\n".encode("latin-1"))
    assert run_cli(command, bad) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot read {bad}: ")
    assert captured.err.count("\n") == 1


def test_run_unwritable_trace_path(tmp_path, capsys):
    target = tmp_path / "missing" / "t.jsonl"
    assert run_cli("run", PROGRAMS / "snapshot.ap", "--trace", target) == 2
    assert "cannot write" in capsys.readouterr().err


def test_run_syntax_error_diagnostic(tmp_path, capsys):
    bad = tmp_path / "bad.ap"
    bad.write_text("global g;\nmeth m(x) {\n  g := ;\n}\n")
    assert run_cli("run", bad) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("3:")


def test_run_scope_error_diagnostic(tmp_path, capsys):
    bad = tmp_path / "bad.ap"
    bad.write_text("global g; meth m(x) { g := y; run nope(1); }\n")
    assert run_cli("run", bad) == 2
    err = capsys.readouterr().err
    assert "unknown-variable" in err and "unknown-method" in err


# ------------------------------------------------------------------- parse

def test_parse_prints_canonical_form(tmp_path, capsys):
    src = "global g;meth m( x ){g:=1;}"
    file = tmp_path / "p.ap"
    file.write_text(src)
    assert run_cli("parse", file) == 0
    out = capsys.readouterr().out
    assert out == "global g;\n\nmeth m(x) {\n    g := 1;\n}\n"
    assert parse_program(out) == parse_program(src)


def test_parse_emit_ast_round_trips(capsys):
    path = PROGRAMS / "priority_order.ap"
    assert run_cli("parse", path, "--emit-ast") == 0
    data = json.loads(capsys.readouterr().out)
    assert data == ast_to_dict(parse_program(path.read_text()))


@pytest.mark.parametrize("path", sorted(PROGRAMS.glob("*.ap")), ids=lambda p: p.name)
def test_parse_emit_ast_prints_ast_to_json(path, capsys):
    assert run_cli("parse", path, "--emit-ast") == 0
    assert capsys.readouterr().out == ast_to_json(parse_program(path.read_text())) + "\n"


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.ap"
    bad.write_text("global g; meth m(x) { if x { } }")
    assert run_cli("parse", bad) == 2
    assert "expected" in capsys.readouterr().err


# ----------------------------------------------------------------- analyze

def test_analyze_reports_dead_posts(capsys):
    assert run_cli("analyze", PROGRAMS / "dead_logger.ap") == 0
    data = json.loads(capsys.readouterr().out)
    assert data["effect_free"] == ["log"]
    assert [d["method"] for d in data["dead_posts"]] == ["log", "log"]
    assert all(e["from"] in ("work", "main") for e in data["edges"])


def test_analyze_clean_program(tmp_path, capsys):
    file = tmp_path / "clean.ap"
    file.write_text("global g; meth m(x) { g := x; }\n")
    assert run_cli("analyze", file) == 0
    data = json.loads(capsys.readouterr().out)
    assert data == {"effect_free": [], "dead_posts": [], "edges": []}


def test_analyze_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.ap"
    bad.write_text("meth m(x) { }")
    assert run_cli("analyze", bad) == 2


@pytest.mark.parametrize("command", ["parse", "run", "analyze"])
@pytest.mark.parametrize("name", DEEP_PROBES)
def test_too_deep_nesting_is_a_diagnostic(tmp_path, capsys, command, name):
    deep = tmp_path / "deep.ap"
    deep.write_text(DEEP_PROBES[name])
    assert run_cli(command, deep) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert re.fullmatch(r"1:\d+ nesting too deep\n", out.err)


# ------------------------------------------------------------- determinism

def cli_subprocess(*argv):
    return subprocess.run(
        [sys.executable, "-m", "priopost.cli", *map(str, argv)],
        capture_output=True, text=True)


def test_repeated_runs_are_byte_identical(tmp_path):
    t1, t2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    r1 = cli_subprocess("run", PROGRAMS / "dead_logger.ap", "--trace", t1)
    r2 = cli_subprocess("run", PROGRAMS / "dead_logger.ap", "--trace", t2)
    assert r1.returncode == r2.returncode == 0
    assert r1.stdout == r2.stdout
    assert t1.read_bytes() == t2.read_bytes()


def test_run_chain_240_deep_finishes(tmp_path):
    # Each run level nests four statements (body, if, branch, run); the
    # default recursion limit must still leave room for 240 levels.
    src = tmp_path / "deep.ap"
    src.write_text("global g;\n"
                   "meth f(x) { if x > 0 { run f(x - 1); } else { } g := g + 1; }\n"
                   "meth main(x) { run f(240); }\n")
    result = cli_subprocess("run", src)
    assert result.stderr == ""
    assert (result.returncode, result.stdout) == (0, "242\n")


def test_endless_run_is_a_fault_not_a_traceback(tmp_path):
    src = tmp_path / "endless.ap"
    src.write_text("global g;\nmeth f(x) { g := g + 1; run f(x); }\n")
    result = cli_subprocess("run", src)
    assert (result.returncode, result.stderr) == (1, "")
    assert json.loads(result.stdout) == {"kind": "call-depth-exceeded",
                                         "location": {"line": 2, "col": 25}}


def test_closed_stdout_exits_2_without_a_traceback(tmp_path):
    # The AST JSON of 3,000 methods is far larger than a pipe's buffer, so
    # the writer is still writing when the reader closes its end.
    src = tmp_path / "big.ap"
    src.write_text("global g;\n" + "".join(
        f"meth m{i}(x) {{ g := x * {i} + g; }}\n" for i in range(3000)))
    proc = subprocess.Popen(
        [sys.executable, "-m", "priopost.cli", "parse", "--emit-ast", str(src)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.read(10) == b'{"kind": "'
    proc.stdout.close()
    with proc.stderr:
        stderr = proc.stderr.read().decode()
    assert (proc.wait(timeout=60), stderr) == (2, "")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [("run", PROGRAMS / "priority_order.ap"),
                                  ("parse", "--emit-ast", PROGRAMS / "priority_order.ap")],
                         ids=["run", "parse-emit-ast"])
def test_full_stdout_exits_2_without_a_traceback(argv):
    with open("/dev/full", "w") as full:
        result = subprocess.run(
            [sys.executable, "-m", "priopost.cli", *map(str, argv)],
            stdout=full, stderr=subprocess.PIPE, text=True)
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    assert result.stderr.startswith("error: cannot write stdout: ")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv, stdout_full", [
    (("run", "{bad}"), False),
    (("run", "{missing}"), False),
    (("run", PROGRAMS / "priority_order.ap", "--trace", "{missing}/t.jsonl"), False),
    (("run", PROGRAMS / "priority_order.ap"), True),
], ids=["parse-error", "missing-file", "trace-dir-missing", "stdout-full-too"])
def test_full_stderr_exits_2(tmp_path, argv, stdout_full):
    bad = tmp_path / "bad.ap"
    bad.write_text("global g; meth m(x) { g := ; }")
    argv = [str(a).format(bad=bad, missing=tmp_path / "missing") for a in argv]
    with open("/dev/full", "w") as full:
        result = subprocess.run(
            [sys.executable, "-m", "priopost.cli", *argv],
            stdout=full if stdout_full else subprocess.PIPE, stderr=full, text=True)
    assert result.returncode == 2


def cpu_seconds(pid: int) -> float:
    """User plus system CPU time of a running process, from ``/proc``."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def interruptible_child():
    """In the child, before it execs: cap its address space at 1 GiB, so
    that a run the signal does not stop cannot grow without bound; then
    give SIGINT its default action.  A child of a parent that ignores
    SIGINT (a shell's background job, say) inherits the ignore, and
    Python then installs no ``KeyboardInterrupt`` handler."""
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
    signal.signal(signal.SIGINT, signal.SIG_DFL)


@pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="needs /proc")
def test_ctrl_c_exits_130_with_one_line(tmp_path):
    # Starting the process and importing the package take well under 0.3 s
    # of CPU, so past that the run is under way.  A traced run keeps every
    # event in memory, so the signal goes as soon as it is.
    trace = tmp_path / "t.jsonl"
    proc = subprocess.Popen(
        [sys.executable, "-m", "priopost.cli", "run", str(PROGRAMS / "count_forever.ap"),
         "--budget", "100000000", "--trace", str(trace)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, preexec_fn=interruptible_child)
    try:
        while cpu_seconds(proc.pid) < 0.3:
            assert proc.poll() is None
            time.sleep(0.02)
        proc.send_signal(signal.SIGINT)
        stdout, stderr = proc.communicate(timeout=60)
    finally:
        proc.kill()
        proc.wait()
    assert (proc.returncode, stdout, stderr) == (130, "", "error: interrupted\n")
    assert not trace.exists()


def test_out_of_memory_exits_2_with_one_line(tmp_path):
    # A traced run keeps every event line in memory, so under a 256 MiB cap
    # on the child's address space it runs out long before its budget.
    trace = tmp_path / "t.jsonl"
    result = subprocess.run(
        [sys.executable, "-m", "priopost.cli", "run", str(PROGRAMS / "count_forever.ap"),
         "--budget", "100000000", "--trace", str(trace)],
        capture_output=True, text=True, timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20)))
    assert (result.returncode, result.stdout, result.stderr) == (2, "", "error: out of memory\n")
    assert not trace.exists()


def test_analyze_is_deterministic_across_hash_seeds(tmp_path):
    # A 1,500-method synch chain: an analysis that recurses along the
    # chain from a start picked in set order fails for some hash seeds.
    chain = tmp_path / "chain.ap"
    chain.write_text("global g;\n" + "".join(
        f"meth m{i}(x) {{ synch(m{i + 1}(x), low); }}\n" for i in range(1499))
        + "meth m1499(x) { }\n")
    outputs = set()
    for seed in ("0", "1", "5"):
        result = subprocess.run(
            [sys.executable, "-m", "priopost.cli", "analyze", str(chain)],
            capture_output=True, text=True, env={**os.environ, "PYTHONHASHSEED": seed})
        assert (result.returncode, result.stderr) == (0, "")
        outputs.add(result.stdout)
    assert len(outputs) == 1
    assert len(json.loads(outputs.pop())["effect_free"]) == 1500


def test_module_entry_point_matches_in_process_output(capsys):
    result = cli_subprocess("run", PROGRAMS / "priority_order.ap")
    assert result.returncode == 0
    assert result.stdout == "231\n"


def cli_result(capsys, *argv):
    """Exit code, stdout and stderr of one in-process ``main`` call."""
    try:
        code = run_cli(*argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize("command, flags", [
    ("run", ("--budget", "0")),
    ("run", ("--budget", "5")),
    ("run", ("--trace", "{trace}")),
    ("run", ("--dump-final-store",)),
    ("parse", ("--emit-ast",)),
], ids=["budget-0", "budget-5", "trace", "dump-final-store", "emit-ast"])
def test_calls_in_one_process_share_no_state(tmp_path, capsys, command, flags):
    # main reuses one argument parser: a flag given to one call must not
    # reach the next call, which omits it.
    trace = tmp_path / "t.jsonl"
    first = (command, PROGRAMS / "snapshot.ap", *(f.format(trace=trace) for f in flags))
    second = (command, PROGRAMS / "snapshot.ap")
    second_alone = cli_result(capsys, *second)
    first_alone = cli_result(capsys, *first)
    for _ in range(2):
        assert cli_result(capsys, *first) == first_alone
        assert trace.exists() == ("--trace" in flags)
        trace.unlink(missing_ok=True)
        assert cli_result(capsys, *second) == second_alone
        assert not trace.exists()
    assert second_alone[0] == 0 and second_alone[2] == ""
    assert "--trace" in flags or first_alone != second_alone
    if flags == ("--budget", "0"):
        assert first_alone[0] == 2
        assert first_alone[2].startswith("usage: priopost run")
        assert "budget must be at least 1" in first_alone[2]


@pytest.mark.parametrize("code, argv", [
    (0, ("run", PROGRAMS / "snapshot.ap")),
    (0, ("run", PROGRAMS / "snapshot.ap", "--trace", "{trace}")),
    (1, ("run", PROGRAMS / "provided_zero.ap")),
    (1, ("run", PROGRAMS / "provided_zero.ap", "--trace", "{trace}")),
    (0, ("parse", PROGRAMS / "dead_logger.ap")),
    (0, ("parse", PROGRAMS / "dead_logger.ap", "--emit-ast")),
    (0, ("analyze", PROGRAMS / "dead_logger.ap")),
    (2, ("run", "{parse_error}")),
    (2, ("run", "{scope_error}")),
], ids=["run", "run-trace", "fault", "fault-trace", "parse", "emit-ast", "analyze",
        "parse-error", "scope-error"])
def test_calls_leave_no_cyclic_garbage(tmp_path, capsys, code, argv):
    files = {"trace": tmp_path / "t.jsonl", "parse_error": tmp_path / "parse.ap",
             "scope_error": tmp_path / "scope.ap"}
    files["parse_error"].write_text("global g;\nmeth m(x) {\n  g := ;\n}\n")
    files["scope_error"].write_text("global g; meth m(x) { g := y; run nope(1); }\n")
    argv = [str(a).format(**files) for a in argv]
    assert run_cli(*argv) == code  # also builds the cached argument parser
    assert cyclic_garbage(lambda: run_cli(*argv)) == 0


# ----------------------------------------------------------------- library

def test_readme_lists_every_exported_name():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    library = readme.split("\n## Library\n")[1].split("\n## ")[0]
    bullets = re.findall(r"^\* ([\w -]+): (.*?)[;.]$", library, re.M | re.S)
    assert [label for label, _ in bullets] == [
        "syntax", "interpreter", "dead-post analysis"]
    listed = [name for _, text in bullets for name in re.findall(r"`(\w+)`", text)]
    assert [name for name in priopost.__all__ if name not in listed] == []
    assert [name for name in listed if name not in priopost.__all__] == []
