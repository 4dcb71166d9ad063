"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "loop": lambda seed: workloads.loop_requests(seed, count=4),
    "fanout": lambda seed: workloads.fanout_requests(seed, count=4, low=10, high=60),
    "frontend": lambda seed: workloads.frontend_requests(seed, count=6, sources=2),
    "corpus": lambda seed: workloads.corpus_requests(seed, count=40),
}


@pytest.fixture(scope="module")
def modules():
    return run.import_priopost()


@pytest.fixture
def workdir():
    path = run.WORK / "test"
    shutil.rmtree(path, ignore_errors=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def send(modules, requests, directory, tracer=None):
    cli = modules[0]
    run.write_inputs(requests, directory)
    if tracer is None:
        return run.run_pass(lambda i, argv: cli.main(argv), requests, directory)[1]
    with tracer.installed():
        return run.run_pass(tracer.call_main, requests, directory)[1]


@pytest.mark.parametrize("workload", sorted(TINY))
def test_every_workload_is_correct(modules, workdir, workload):
    requests = TINY[workload](7)
    outputs = send(modules, requests, workdir)
    assert run.count_failures(requests, outputs, run.load_digests()) == 0


def test_corpus_plants_expected_faults(modules, workdir):
    requests = workloads.corpus_requests(3, count=200)
    outputs = send(modules, requests, workdir)
    assert run.count_failures(requests, outputs, run.load_digests()) == 0
    faults = [stdout for code, stdout, _ in outputs if code == 1]
    assert 5 <= len(faults) <= 45
    assert all("kind" in json.loads(stdout) for stdout in faults)


def test_wrong_outputs_are_counted():
    req = workloads.loop_requests(1, count=1)[0]
    assert run.count_failures([req], [(0, f"{req.expect.value}\n", "")], {}) == 0
    assert run.count_failures([req], [(0, f"{req.expect.value + 1}\n", "")], {}) == 1
    assert run.count_failures([req], [(None, "", "")], {}) == 1
    corpus = workloads.corpus_requests(1, count=1)[0]
    digests = run.load_digests()
    assert run.count_failures([corpus], [(0, "0\n", "")], digests) == 1
    analyze = workloads.frontend_requests(1, count=3, sources=1)[2]
    assert analyze.command == ("analyze",)
    for garbage in ("not json\n", "{}\n", "[1]\n", '{"effect_free": 3}\n'):
        assert run.count_failures([analyze], [(0, garbage, "")], digests) == 1


def test_python_models_agree_with_priopost(modules):
    from priopost import dead_posts, parse_program, run_program, validate_scopes

    for p in workloads.loop_params(5, count=3):
        outcome = run_program(parse_program(workloads.loop_source(p)))
        assert outcome.global_value == workloads.loop_model(p)
    for p in workloads.fanout_params(5, count=6, low=1, high=300):
        outcome = run_program(parse_program(workloads.fanout_source(p)))
        assert outcome.global_value == workloads.fanout_model(p)
    for k in (0, 1):
        src = workloads.frontend_source(k)
        program = parse_program(src.text)
        assert validate_scopes(program) == []
        report = dead_posts(program)
        assert report.effect_free == src.effect_free
        assert len(report.dead_posts) == src.dead_posts
        assert len(report.graph.edges) == src.edges


def test_fanout_model_depends_on_dispatch_order():
    p = workloads.fanout_params(2, count=1, low=50, high=50)[0]
    swapped = workloads.FanoutParams(p.posts, p.high_mod, (p.high_rem + 1) % p.high_mod,
                                     p.work_mul, p.tail_mul)
    assert workloads.fanout_model(p) != workloads.fanout_model(swapped)


def test_traced_outputs_are_byte_identical(modules, workdir):
    requests = TINY["corpus"](4) + TINY["fanout"](4) + TINY["frontend"](4)
    plain = send(modules, requests, workdir / "plain")
    tracer = spans.Tracer(*modules)
    traced = send(modules, requests, workdir / "traced", tracer)
    assert traced == plain
    roots = [s for s in tracer.spans if s.name == "cli.main"]
    assert [s.request for s in roots] == list(range(len(requests)))
    # The swaps are undone on exit.
    assert modules[0].parse_program is modules[1].parse_program
    assert modules[2].AsynchList is modules[3].AsynchList


def test_layer_metrics_show_each_workloads_isolation(modules, workdir):
    def layers(workload):
        tracer = spans.Tracer(*modules)
        send(modules, TINY[workload](1), workdir / workload, tracer)
        return spans.layer_metrics(tracer.spans)

    loop = layers("loop")
    assert loop["postlist.adds"] == 0 and loop["postlist.removes"] == 0
    assert loop["interp.run_s"] > 0.5 * loop["cli.main_s"]
    assert loop["interp.steps"] > 4 * 900
    fanout = layers("fanout")
    # Each work call posts one tail call; every add is counted, not just the first.
    posts = sum(p.posts for p in workloads.fanout_params(1, count=4, low=10, high=60))
    assert fanout["postlist.adds"] == fanout["postlist.removes"] == 2 * posts
    assert fanout["postlist.max_depth"] >= 60
    front = layers("frontend")
    assert front["postlist.adds"] == 0 and front["interp.steps"] == 0
    assert front["analysis.methods"] == 2 * workloads.FRONTEND_METHODS
    syntax_s = sum(front[k] for k in ("syntax.tokenize_s", "syntax.parse_self_s",
                                      "syntax.scope_s", "syntax.print_s"))
    assert syntax_s + front["analysis.dead_posts_s"] > 0.5 * front["cli.main_s"]
    corpus = layers("corpus")
    assert corpus["interp.trace_bytes"] > 0 and corpus["interp.serialize_s"] > 0


@pytest.mark.parametrize("trace,key", [(False, "end_to_end"), (True, "per_layer")])
def test_metric_names_match_benchmark_json(monkeypatch, trace, key):
    monkeypatch.setitem(workloads.WORKLOADS, "loop", TINY["loop"])
    # A set-up sample after every request, so sampling runs in both modes.
    monkeypatch.setattr(run, "SETUP_EVERY_S", 0.0)
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    result = run.measure("loop", 11, 0.01, trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 4
    assert set(result["metrics"]) == {m["name"] for m in declared[key]}
    for m in declared[key]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert {w["name"] for w in declared["workloads"]} == set(workloads.WORKLOADS)
    if trace:
        (run.WORK / "spans-loop-11.jsonl").unlink()
