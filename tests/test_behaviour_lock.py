"""Behaviour lock: committed digests of what the interpreter observably does.

Every input is run twice, once at the default budget and once at half
of the step count that run took, so that ``step-budget-exhausted``
locations are locked too.  The first ``CHUNK`` corpus programs are also
run at every budget below their step count, which locks the location
of every step tick they take.  A run is summarised by its JSONL trace,
its fault kind and location, its step count and its final store; the
sha256 of those summaries is compared with ``behaviour_lock.json``,
which was recorded with an earlier build.  The other suites check
determinism within one build; this one checks that behaviour stays the
same from one build to the next.  Inputs: ``gen_programs(CORPUS_SEED,
CORPUS_COUNT)`` hashed in chunks of ``CHUNK`` programs, and each file
in ``programs/``.

Re-record only when observable behaviour is meant to change:

    PYTHONPATH=src python tests/test_behaviour_lock.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from progen import gen_programs

from priopost import DEFAULT_BUDGET, Failed, Interpreter, parse_program, trace_to_jsonl

HERE = Path(__file__).resolve().parent
LOCK_FILE = HERE / "behaviour_lock.json"
PROGRAMS = HERE.parent / "programs"
CORPUS_SEED = 20150100
CORPUS_COUNT = 1000
CHUNK = 100


def run_summary(program, budget: int = DEFAULT_BUDGET) -> tuple[str, int]:
    """One run as text (trace, outcome, steps, store), and its step count."""
    interp = Interpreter(program, budget=budget)
    outcome = interp.run()
    store = {"global": interp.store.global_value, "locals": interp.store.locals}
    end = (f"failed {outcome.kind} {outcome.line}:{outcome.col}"
           if isinstance(outcome, Failed) else "finished")
    text = (trace_to_jsonl(outcome) + f"{end}\nsteps {interp.step_count}\n"
            + json.dumps(store) + "\n")
    return text, interp.step_count


def summaries(program) -> tuple[str, str, int]:
    """Summaries at the default budget and at half its step count."""
    full, steps = run_summary(program)
    half, _ = run_summary(program, budget=steps // 2)
    return full, half, steps


def digest(texts) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode("utf-8"))
    return h.hexdigest()


def program_digests() -> dict[str, str]:
    out = {}
    for path in sorted(PROGRAMS.glob("*.ap")):
        full, half, _ = summaries(parse_program(path.read_text(encoding="utf-8")))
        out[f"programs/{path.name}"] = digest([full])
        out[f"programs/{path.name}@half"] = digest([half])
    return out


def corpus_digests() -> dict[str, str]:
    programs = gen_programs(CORPUS_SEED, CORPUS_COUNT)
    runs = [summaries(p) for p in programs]
    out = {}
    for start in range(0, CORPUS_COUNT, CHUNK):
        chunk = runs[start:start + CHUNK]
        key = f"corpus[{start}:{start + CHUNK}]"
        out[key] = digest(full for full, _, _ in chunk)
        out[key + "@half"] = digest(half for _, half, _ in chunk)
    out[f"corpus[0:{CHUNK}]@every-budget"] = digest(
        run_summary(program, budget)[0]
        for program, (_, _, steps) in zip(programs[:CHUNK], runs)
        for budget in range(steps))
    return out


def mismatches(got: dict[str, str]) -> list[str]:
    with open(LOCK_FILE, encoding="utf-8") as handle:
        want = json.load(handle)
    return [key for key in got if want.get(key) != got[key]]


def test_sample_programs_locked():
    got = program_digests()
    assert len(got) == 2 * len(list(PROGRAMS.glob("*.ap"))) >= 14
    assert mismatches(got) == []


def test_progen_corpus_locked():
    got = corpus_digests()
    assert len(got) == 2 * CORPUS_COUNT // CHUNK + 1
    assert mismatches(got) == []


def main():
    digests = {**program_digests(), **corpus_digests()}
    with open(LOCK_FILE, "w", encoding="utf-8") as handle:
        json.dump(digests, handle, indent=0, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(digests)} digests to {LOCK_FILE}")


if __name__ == "__main__":
    main()
