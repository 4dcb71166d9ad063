"""Behaviour lock: committed digests of what the program observably does.

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

The front end is locked the same way: the AST JSON or the ParseError
(message, position, expected tokens) of pretty-printed corpus programs
and of seeded mangled and random texts, the scope errors of corpus
programs with identifiers renamed at random, and the dead-post report
of seeded random run/post graphs (``progen.gen_graph_source``), with
cycles, self-loops, duplicate method names and undeclared targets.
The tokens (kind, text, line:col) or the tokenizer's ParseError
(message, line:col) of the same texts, of the files in ``programs/`` and
of seeded noise over every character class the tokenizer tells apart
are locked too, since parse digests are position-free.  So is the class
and ``line:col`` of every node, in ``walk`` order, of the corpus
programs in five layouts (plain, CRLF, tabs with trailing comments, no
indents, a comment that ends the file), of the files in ``programs/``,
and of a file of 1,000+ lines joined from corpus programs.

Re-record only when observable behaviour is meant to change:

    PYTHONPATH=src python tests/test_behaviour_lock.py
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from pathlib import Path

from progen import gen_graph_source, gen_programs

from priopost import (
    DEFAULT_BUDGET,
    Failed,
    Interpreter,
    ParseError,
    ast_to_json,
    dead_posts,
    parse_program,
    pretty_print,
    trace_to_jsonl,
    validate_scopes,
)
from priopost.syntax import KEYWORDS, tokenize, walk

HERE = Path(__file__).resolve().parent
LOCK_FILE = HERE / "behaviour_lock.json"
PROGRAMS = HERE.parent / "programs"
CORPUS_SEED = 20150100
CORPUS_COUNT = 1000
CHUNK = 100
FRONT_SEED = 20150101
FRONT_COUNT = 2000
JOINED_PROGRAMS = 60


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


def parse_summary(text: str) -> str:
    try:
        return ast_to_json(parse_program(text)) + "\n"
    except ParseError as err:
        return f"error {err.line}:{err.col} {err.message} {list(err.expected)}\n"


def lex_summary(text: str) -> str:
    try:
        return "".join(f"{t.kind} {t.text} {t.line}:{t.col}\n" for t in tokenize(text))
    except ParseError as err:
        return f"error {err.line}:{err.col} {err.message}\n"


def positions_summary(text: str) -> str:
    program = parse_program(text)
    nodes = [program]
    for method in program.methods:
        nodes += (method, *walk(method.body))
    return "".join(f"{type(n).__name__} {n.line}:{n.col}\n" for n in nodes)


def layouts(text: str) -> list[str]:
    """``text`` as written, with CRLF line ends, with tab indents and a
    comment after each ``;``, with no indents, so that statements start
    lines, and between comments, the last one ending the file."""
    return [text, text.replace("\n", "\r\n"),
            text.replace("    ", "\t").replace(";", "; // note"), text.replace("    ", ""),
            "// head\n" + text + "// tail, no newline"]


def position_texts(corpus: list[str], samples: list[str]) -> list[str]:
    joined = "global g;\n" + "".join(text.split("\n", 1)[1]
                                     for text in corpus[:JOINED_PROGRAMS])
    assert joined.count("\n") >= 1000
    return [*samples, *(v for text in [*corpus, joined] for v in layouts(text))]


def noise(rng: random.Random) -> str:
    """Up to 40 lexemes, blanks and comments, glued or apart, and in 30%
    of texts one piece the tokenizer rejects, at a random place."""
    pieces = ("x", "_a9", "global", "or", "0", "007", "9223372036854775807", ":=",
              "==", "!=", "!", "<=", "<", ">=", ">", "+", "-", "*", "/", "%", "(", ")",
              "{", "}", ";", ",", "//", "// c", " ", "\t", "\r", "\n")
    text = "".join(rng.choice(pieces) for _ in range(rng.randint(0, 40)))
    if rng.random() < 0.3:
        pos = rng.randint(0, len(text))
        bad = rng.choice((":", "=", "\f", "\xe9", "@", "9223372036854775808", "1" * 25))
        text = text[:pos] + bad + text[pos:]
    return text


def mangled(rng: random.Random, text: str) -> str:
    """``text`` with one to four characters replaced, inserted or deleted."""
    chars = list(text)
    for _ in range(rng.randint(1, 4)):
        pos = rng.randrange(len(chars))
        new = rng.choice("gx(){};:=<>!+-*/%07 \n")
        chars[pos:pos + 1] = rng.choice(([new], [new, chars[pos]], []))
    return "".join(chars)


def random_expr(rng: random.Random, depth: int) -> str:
    """An expression over every operator, with random redundant parentheses."""
    r = rng.random()
    if depth <= 0 or r < 0.25:
        text = rng.choice(("x", "g", "0", "7"))
    elif r < 0.35:
        text = rng.choice("-!") + random_expr(rng, depth - 1)
    else:
        op = rng.choice(("or", "and", "==", "!=", "<", "<=", ">", ">=",
                         "+", "-", "*", "/", "%"))
        text = f"{random_expr(rng, depth - 1)} {op} {random_expr(rng, depth - 1)}"
    return f"({text})" if rng.random() < 0.2 else text


def random_text(rng: random.Random) -> str:
    """A one-method program around random expressions, sometimes mangled."""
    text = (f"global g; meth m(x) {{ g := {random_expr(rng, 4)}; "
            f"if {random_expr(rng, 3)} {{ x := {random_expr(rng, 3)}; }} else {{ }} }}")
    return mangled(rng, text) if rng.random() < 0.3 else text


def renamed(rng: random.Random, text: str) -> str:
    """``text`` with some identifiers swapped for declared or unknown names."""
    pool = ("g", "h", "m0", "m1", "m4", "v0", "v1", "v3", "zz")

    def swap(match):
        word = match.group(0)
        if word in KEYWORDS or rng.random() >= 0.15:
            return word
        return rng.choice(pool)

    return re.sub(r"[A-Za-z_][A-Za-z0-9_]*", swap, text)


def front_end_digests() -> dict[str, str]:
    corpus = [pretty_print(p) for p in gen_programs(CORPUS_SEED, CORPUS_COUNT)]
    rng = random.Random(FRONT_SEED)
    mangled_texts = [mangled(rng, rng.choice(corpus)) for _ in range(FRONT_COUNT)]
    random_texts = [random_text(rng) for _ in range(FRONT_COUNT)]
    renamed_programs = [parse_program(renamed(rng, rng.choice(corpus)))
                        for _ in range(FRONT_COUNT)]
    graphs = [parse_program(gen_graph_source(rng, duplicates=i % 2 == 0))
              for i in range(FRONT_COUNT)]
    noise_texts = [noise(rng) for _ in range(FRONT_COUNT)]
    sample_texts = [path.read_text(encoding="utf-8") for path in sorted(PROGRAMS.glob("*.ap"))]
    return {
        "parse:corpus": digest(map(parse_summary, corpus)),
        "parse:mangled": digest(map(parse_summary, mangled_texts)),
        "parse:random": digest(map(parse_summary, random_texts)),
        "scope:renamed": digest(
            json.dumps([str(e) for e in validate_scopes(p)]) + "\n" for p in renamed_programs),
        "analysis:graphs": digest(
            json.dumps(dead_posts(p).to_json_obj()) + "\n" for p in graphs),
        "lex:corpus": digest(map(lex_summary, corpus)),
        "lex:mangled": digest(map(lex_summary, mangled_texts)),
        "lex:random": digest(map(lex_summary, random_texts)),
        "lex:noise": digest(map(lex_summary, noise_texts)),
        "lex:programs": digest(map(lex_summary, sample_texts)),
        "parse:positions": digest(map(positions_summary, position_texts(corpus, sample_texts))),
    }


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


def test_front_end_locked():
    got = front_end_digests()
    assert len(got) == 11
    assert mismatches(got) == []


def main():
    digests = {**program_digests(), **corpus_digests(), **front_end_digests()}
    with open(LOCK_FILE, "w", encoding="utf-8") as handle:
        json.dump(digests, handle, indent=0, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(digests)} digests to {LOCK_FILE}")


if __name__ == "__main__":
    main()
