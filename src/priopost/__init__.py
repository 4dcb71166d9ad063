"""priopost: a tiny prioritized asynchronous-posting language.

Programs declare one global, one local per method, and post calls with
``synch(m(e), priority)``; a deterministic interpreter runs every
method once at startup and then drains the post queue highest priority
first, first-come-first-served within a priority.
"""

from .analysis import (
    AnalysisReport,
    DeadPost,
    PostEdge,
    PostGraph,
    dead_posts,
)
from .interp import (
    DEFAULT_BUDGET,
    Failed,
    Finished,
    Interpreter,
    Outcome,
    TraceEvent,
    run_program,
    trace_to_jsonl,
)
from .postlist import AsynchList, AsynchNode, EmptyListError
from .syntax import (
    AssignGlobal,
    AssignLocal,
    Binary,
    Expr,
    If,
    IntLit,
    Method,
    ParseError,
    Priority,
    Program,
    Provided,
    Return,
    Run,
    ScopeError,
    Seq,
    Stmt,
    Synch,
    Unary,
    Var,
    While,
    ast_to_dict,
    ast_to_json,
    format_expr,
    parse_program,
    pretty_print,
    validate_scopes,
)

__all__ = [
    "AnalysisReport", "DeadPost", "PostEdge", "PostGraph", "dead_posts",
    "DEFAULT_BUDGET", "Failed", "Finished", "Interpreter", "Outcome",
    "TraceEvent", "run_program", "trace_to_jsonl",
    "AsynchList", "AsynchNode", "EmptyListError",
    "AssignGlobal", "AssignLocal", "Binary", "Expr", "If", "IntLit",
    "Method", "ParseError", "Priority", "Program", "Provided", "Return",
    "Run", "ScopeError", "Seq", "Stmt", "Synch", "Unary", "Var", "While",
    "ast_to_dict", "ast_to_json", "format_expr", "parse_program", "pretty_print",
    "validate_scopes",
]

__version__ = "0.1.0"
