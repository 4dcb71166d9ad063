"""Test helper: apply a dead-post report to a program in memory.

The dead-post differential tests run a program and its stripped copy
and compare the outcomes; this module builds the stripped copy.
"""

from dataclasses import replace

from priopost import AnalysisReport, If, Program, Seq, Stmt, Synch, While
from priopost.analysis import expr_can_fault


def strip_dead_posts(program: Program, report: AnalysisReport) -> Program:
    """Rebuild the program without the flagged posts.

    Statements are matched by the flagging criterion itself (target in
    ``report.effect_free``, fault-free argument), not by source
    position, so the strip also works on synthesized trees that carry
    no positions.
    """
    def dead(stmt: Stmt) -> bool:
        return (isinstance(stmt, Synch) and stmt.method in report.effect_free
                and not expr_can_fault(stmt.arg))

    def rebuild(stmt: Stmt) -> Stmt:
        match stmt:
            case Seq(stmts):
                kept = [rebuild(s) for s in stmts if not dead(s)]
                return replace(stmt, stmts=kept)
            case If(_, then, orelse):
                return replace(stmt, then=rebuild(then), orelse=rebuild(orelse))
            case While(_, body):
                return replace(stmt, body=rebuild(body))
            case _:
                return stmt

    methods = [replace(m, body=rebuild(m.body)) for m in program.methods]
    return replace(program, methods=methods)
