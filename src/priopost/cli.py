"""Command line front end: parse, run, and analyze ``.ap`` files.

Exit codes: 0 success, 1 runtime fault, 2 parse or scope error (or out
of memory), 130 interrupted.
Output is deterministic: the same file and flags produce byte-identical
stdout and trace files.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from contextlib import suppress

from .analysis import dead_posts
from .interp import DEFAULT_BUDGET, Failed, Interpreter, trace_to_jsonl
from .syntax import ParseError, Program, ast_to_json, parse_program, pretty_print, validate_scopes
from .syntax import _collector_paused
from .syntax import ast_to_dict  # noqa: F401  (bench/spans.py's Tracer wraps it by this name)


def _load_program(path: str) -> Program | None:
    """Read and parse a file, unchecked for scope; on failure print a diagnostic
    and return None."""
    try:
        with open(path, encoding="utf-8") as handle:
            source = handle.read()
    except OSError as err:
        print(f"error: cannot read {path}: {err.strerror}", file=sys.stderr)
        return None
    except UnicodeDecodeError as err:
        print(f"error: cannot read {path}: {err}", file=sys.stderr)
        return None
    try:
        return parse_program(source)
    except ParseError as err:
        print(str(err), file=sys.stderr)
        return None


def cmd_parse(program: Program, emit_ast: bool = False) -> int:
    if emit_ast:
        print(ast_to_json(program))
    else:
        sys.stdout.write(pretty_print(program))
    return 0


def cmd_run(program: Program, budget: int = DEFAULT_BUDGET, trace_path: str | None = None,
            dump_final_store: bool = False) -> int:
    interp = Interpreter(program, budget=budget, trace=trace_path is not None)
    try:
        outcome = interp.run()
    except ValueError as err:  # the scope check, before the run's first step
        print(str(err), file=sys.stderr)
        return 2
    if trace_path is not None:
        text = trace_to_jsonl(outcome)  # first, so Ctrl-C while it is made leaves no file
        try:
            with open(trace_path, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as err:
            print(f"error: cannot write {trace_path}: {err.strerror}", file=sys.stderr)
            return 2
    if isinstance(outcome, Failed):
        print(json.dumps({
            "kind": outcome.kind,
            "location": {"line": outcome.line, "col": outcome.col},
        }))
        return 1
    print(outcome.global_value)
    if dump_final_store:
        print(json.dumps({
            "global": interp.store.global_value,
            "locals": interp.store.locals,
        }))
    return 0


def cmd_analyze(program: Program) -> int:
    print(json.dumps(dead_posts(program).to_json_obj()))
    return 0


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("budget must be an integer") from None
    if value < 1:
        raise argparse.ArgumentTypeError("budget must be at least 1")
    return value


# argparse keeps no state between parse_args calls and looks up sys.stdout
# and sys.stderr only when it prints, so one parser serves every main call.
@functools.cache
def _arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="priopost",
        description="Parse, run, or analyze a prioritized-posting program.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a program and print the final global value")
    p_run.add_argument("file")
    p_run.add_argument("--budget", type=_positive_int, default=DEFAULT_BUDGET,
                       help="maximum number of execution steps (default %(default)s)")
    p_run.add_argument("--trace", metavar="FILE",
                       help="write the execution trace to FILE as JSON lines")
    p_run.add_argument("--dump-final-store", action="store_true",
                       help="also print the final store as JSON")

    p_parse = sub.add_parser("parse", help="check a program and print its canonical form")
    p_parse.add_argument("file")
    p_parse.add_argument("--emit-ast", action="store_true",
                         help="print the AST as JSON instead of source text")

    p_analyze = sub.add_parser("analyze", help="report effect-free methods and dead posts")
    p_analyze.add_argument("file")
    return parser


@_collector_paused
def main(argv=None) -> int:
    """Run one command and return its exit code; the cyclic collector is paused meanwhile."""
    args = _arg_parser().parse_args(argv)
    program = _load_program(args.file)
    if program is None:
        return 2
    if args.command == "run":  # run() checks scopes itself
        return cmd_run(program, budget=args.budget, trace_path=args.trace,
                       dump_final_store=args.dump_final_store)
    errors = validate_scopes(program)
    if errors:
        print("\n".join(map(str, errors)), file=sys.stderr)
        return 2
    if args.command == "parse":
        return cmd_parse(program, emit_ast=args.emit_ast)
    return cmd_analyze(program)


def entry():
    message = None
    try:
        code = main()
        sys.stdout.flush()  # so that a closed pipe shows here, not at exit
    except KeyboardInterrupt:
        code, message = 130, "error: interrupted"
    except MemoryError:  # the traceback holds the run's trace until this block ends
        code, message = 2, "error: out of memory"
    except OSError as err:
        # stdout or stderr cannot be written: exit with the code of an
        # unwritable trace file, quietly if the reader went away, and point
        # stdout at devnull so the exit flush succeeds.
        if not isinstance(err, BrokenPipeError):
            message = f"error: cannot write stdout: {err.strerror}"
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 2
    if message:
        with suppress(OSError):  # stderr may be unwritable too
            print(message, file=sys.stderr)
    raise SystemExit(code)


if __name__ == "__main__":
    entry()
