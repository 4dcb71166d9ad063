"""Test helper: the one checker of a run's trace, from its lines alone.

``check_trace(lines)`` is a monitor over README's trace format: one pass
over the lines of ``trace_to_jsonl``, of a ``--trace`` file or of an
outcome's ``trace``, with no access to the run.  It raises
``AssertionError`` at the first line that breaks a rule.

* **Scheduling.** Each ``post`` adds a node built from its line to the
  paper's ``MarkerList`` and to ``OracleQueue`` (``tests/refqueues.py``),
  and each ``dispatch`` must be the node both remove.
* **Brackets.** ``method-start``, ``method-end`` and ``dispatch`` occur
  only at depth 0, each ``method-end`` closes its ``method-start``, and
  no ``method-start`` follows a dispatch.  ``post``, ``run-call`` and
  ``assign-global`` occur only inside an activation, and
  ``assign-global`` names it.  Each ``return`` closes the top frame and
  names it.
* **Ends.** A ``provided-fail`` or ``error`` line is the last line, and
  names the top frame, or no method when no frame is open.  A
  ``finished`` line is the last line, with no frame open and the queues
  empty.  A trace with neither is checked as a prefix: a trace cut off
  anywhere passes.

Limit: two posts with the same method, value and priority make identical
lines, so the trace cannot show which one a dispatch removed.  Only the
position a step-budget fault at dispatch reports tells them apart;
``tests/test_interp.py::test_equal_posts_dispatch_in_post_order`` checks it.
"""

from __future__ import annotations

import json

from priopost import Priority
from priopost.postlist import AsynchNode

from refqueues import MarkerList, OracleQueue

def _node(event: dict) -> AsynchNode:
    """The call a ``post`` or ``dispatch`` line names; the trace holds no argument."""
    return AsynchNode(event["method"], None, event["value"], Priority[event["priority"].upper()])


def check_trace(lines) -> None:
    """Check a trace's lines against the rules above."""
    queues = (MarkerList(), OracleQueue())
    frames: list[str] = []
    starting = None  # the startup activation awaiting its ``method-end``
    dispatched = ended = False
    for n, event in enumerate(json.loads("[" + ",".join(lines) + "]"), 1):
        assert not ended, f"line {n} follows the last line"
        kind, method = event["kind"], event.get("method")
        where = f"line {n}, {kind} {method}"
        if kind in ("method-start", "method-end", "dispatch"):
            assert not frames, f"{where}: at depth {len(frames)}"
        if kind == "method-start":
            assert starting is None and not dispatched, f"{where}: out of the startup phase"
            starting = method
            frames.append(method)
        elif kind == "method-end":
            assert starting == method, f"{where}: closes no startup activation"
            starting = None
        elif kind == "dispatch":
            assert starting is None, f"{where}: before method-end {starting}"
            assert all(map(len, queues)), f"{where}: the queue is empty"
            heads = [queue.remove_first() for queue in queues]
            assert all(head == _node(event) for head, _ in heads), f"{where}: heads are {heads}"
            queues = tuple(rest for _, rest in heads)
            dispatched = True
            frames.append(method)
        elif kind in ("post", "run-call", "assign-global"):
            assert frames, f"{where}: outside an activation"
            if kind == "post":
                queues = tuple(queue.add(_node(event)) for queue in queues)
            elif kind == "run-call":
                frames.append(method)
            else:
                assert method == frames[-1], f"{where}: in frame {frames[-1]}"
        elif kind == "return":
            assert frames and frames.pop() == method, f"{where}: closes another frame"
        elif kind in ("provided-fail", "error"):
            assert method == (frames[-1] if frames else None), f"{where}: frames {frames}"
            ended = True
        elif kind == "finished":
            assert not frames and starting is None, f"{where}: frames {frames} open"
            assert not any(map(len, queues)), f"{where}: posts left {queues[1].to_sequence()}"
            ended = True
        else:
            raise AssertionError(f"{where}: unknown kind")
    assert queues[0].check_invariants() == [], queues[0].check_invariants()
