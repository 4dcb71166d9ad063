"""Closed-loop benchmark of the priopost command line.

One caller sends one request at a time: ``priopost.cli.main(argv)`` is
called in-process on a generated ``.ap`` file, with stdout captured, and
the next request starts when the previous one returns.  A *pass* sends
every request of the workload once, back to back; the run repeats
passes until ``--seconds`` seconds have passed and checks every output.

    python3 bench/run.py --workload loop --seed 1 --seconds 20 --trace 0

Set-up is timed once before the first request and again, as a sample,
whenever ``SETUP_EVERY_S`` seconds of requests have passed, so its
median covers the whole run.  ``--trace 0`` reports the end-to-end
metrics.  ``--trace 1`` alternates untraced passes with passes under
``spans.Tracer`` and reports the per-layer metrics, with every span
written to ``.bench_work/spans-<workload>-<seed>.jsonl``.  The last line of stdout
is one JSON object; the lines before it are the same numbers for people.
Inputs are written under ``.bench_work/`` in the checkout and removed at
the end.  The package is imported from ``src/`` of the checkout, never
from an installed copy.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
DIGESTS = HERE / "digests.json"
# Seconds of requests between two set-up samples.  On a shared machine
# CPU speed changes for seconds at a time; samples spread over the run
# give set-up the same conditions as the requests.
SETUP_EVERY_S = 1.0

sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import ExpectAnalysis, ExpectDigest, ExpectGlobal, output_digest  # noqa: E402

E2E_UNITS = {"setup_s": "s", "req_p90_ms": "ms", "peak_rss_mb": "MB", "success_rate": "ratio"}
# Printed but left out of the JSON result: on a shared machine their
# run-to-run spread is wider than any bound (see README.md).
PRINTED_UNITS = {"wall_s": "s", "req_p50_ms": "ms", "error_rate": "ratio"}
LAYER_UNITS = {
    "cli.main_s": "s", "cli.self_s": "s", "cli.exit1": "count", "cli.exit2": "count",
    "syntax.source_bytes": "B", "syntax.tokens": "count", "syntax.tokenize_s": "s",
    "syntax.tokens_per_s": "1/s", "syntax.nodes": "count", "syntax.parse_self_s": "s",
    "syntax.scope_s": "s", "syntax.print_s": "s",
    "analysis.dead_posts_s": "s", "analysis.methods": "count",
    "analysis.effect_free": "count", "analysis.dead_posts": "count",
    "analysis.dead_ratio": "ratio",
    "interp.run_s": "s", "interp.self_s": "s", "interp.steps": "count",
    "interp.steps_per_s": "1/s", "interp.trace_events": "count", "interp.faults": "count",
    "interp.serialize_s": "s", "interp.trace_bytes": "B",
    "postlist.adds": "count", "postlist.removes": "count", "postlist.op_s": "s",
    "postlist.ns_per_op": "ns", "postlist.max_depth": "count", "postlist.mean_depth": "count",
    "trace_overhead": "ratio",
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def import_priopost():
    """Import ``priopost`` afresh from the checkout's ``src/``.

    Earlier imports are dropped first, so each call pays what a new
    process pays (bytecode already cached).  Returns the cli, syntax,
    interp and postlist modules.  They keep working after a later call
    imports the package again.
    """
    if not (SRC / "priopost" / "__init__.py").is_file():
        raise BenchError(f"no priopost package under {SRC}")
    for name in [n for n in sys.modules if n == "priopost" or n.startswith("priopost.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    importlib.invalidate_caches()
    cli = importlib.import_module("priopost.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"priopost was imported from {cli.__file__}, not {SRC}")
    return cli, *(sys.modules[f"priopost.{name}"] for name in ("syntax", "interp", "postlist"))


def write_inputs(requests, directory: Path):
    """Write each distinct input file, replacing what an earlier set-up wrote.

    Each file is overwritten in place and then cut to its length.  On
    ext4, truncating a file to 0 and rewriting it forces it to disk on
    close, which made set-up time the disk rather than the benchmark.
    """
    directory.mkdir(parents=True, exist_ok=True)
    for req in {r.file: r for r in requests}.values():
        data = req.source.encode("utf-8")
        fd = os.open(directory / req.file, os.O_WRONLY | os.O_CREAT, 0o644)
        try:
            os.write(fd, data)
            os.ftruncate(fd, len(data))
        finally:
            os.close(fd)


def run_pass(call, requests, directory: Path, between=None):
    """Send every request once; return per-request latencies and outputs.

    ``call(index, argv)`` makes the request.  An exception out of it is
    a failed request (exit code None) and its traceback goes to stderr.
    An output is ``(exit code, stdout, trace)``.  A ``--trace`` file is
    read back and deleted after the request's latency is taken.  On ext4,
    truncating and rewriting a file forces it to disk on close, so
    reusing one trace file would time disk writes instead of the CLI.
    ``between()``, if given, is called after each request.
    """
    trace_path = directory / "trace.jsonl"
    latencies = []
    outputs = []
    for i, req in enumerate(requests):
        argv = [req.command[0], str(directory / req.file), *req.command[1:]]
        if req.trace:
            argv += ["--trace", str(trace_path)]
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            start = perf_counter()
            try:
                code = call(i, argv)
            except (Exception, SystemExit):
                code = None
                tb = traceback.format_exc()
            end = perf_counter()
        if code is None:
            print(tb, file=sys.stderr)
        latencies.append(end - start)
        trace = ""
        if req.trace and trace_path.exists():
            trace = trace_path.read_text(encoding="utf-8")
            trace_path.unlink()
        outputs.append((code, out.getvalue(), trace))
        if between is not None:
            between()
    return latencies, outputs


def is_correct(req, code, stdout: str, trace: str, digests: dict) -> bool:
    expect = req.expect
    if isinstance(expect, ExpectGlobal):
        return code == 0 and stdout == f"{expect.value}\n"
    if isinstance(expect, ExpectAnalysis):
        if code != 0:
            return False
        try:
            report = json.loads(stdout)
            return (set(report["effect_free"]) == expect.effect_free
                    and len(report["dead_posts"]) == expect.dead_posts
                    and len(report["edges"]) == expect.edges)
        except (ValueError, KeyError, TypeError):
            return False
    assert isinstance(expect, ExpectDigest)
    return output_digest(code, stdout, trace).startswith(digests[expect.key])


def count_failures(requests, outputs, digests: dict) -> int:
    failed = 0
    for req, (code, stdout, trace) in zip(requests, outputs):
        if not is_correct(req, code, stdout, trace, digests):
            failed += 1
            if failed <= 3:
                print(f"wrong output: {req.file} {' '.join(req.command)} -> exit {code}",
                      file=sys.stderr)
    return failed


def load_digests() -> dict:
    with open(DIGESTS, encoding="utf-8") as handle:
        return json.load(handle)


def setup(workload: str, seed: int, directory: Path):
    """Generate and write the inputs, import priopost, send one warm-up request.

    Returns the requests, the modules and the seconds it took.
    """
    start = perf_counter()
    requests = workloads.WORKLOADS[workload](seed)
    write_inputs(requests, directory)
    modules = import_priopost()
    run_pass(lambda i, argv: modules[0].main(argv), requests[:1], directory)
    return requests, modules, perf_counter() - start


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run: set up, then time passes for ``seconds``; returns the result."""
    digests = load_digests()
    run_dir = WORK / f"{workload}-{seed}-{os.getpid()}"
    if run_dir.exists():
        shutil.rmtree(run_dir)
    try:
        requests, modules, setup_s = setup(workload, seed, run_dir)
        return timed_phase(workload, seed, seconds, trace, requests, modules,
                           run_dir, digests, setup_s)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def timed_phase(workload, seed, seconds, trace, requests, modules, directory, digests, setup_s):
    """Repeat passes for ``seconds``, taking a set-up sample every ``SETUP_EVERY_S``.

    The passes keep using ``modules``; a sample's fresh import is only
    timed.  Sample time is left out of every pass wall and latency.
    """
    cli = modules[0]
    tracer = spans.Tracer(*modules)
    setup_times = [setup_s]
    last_sample = perf_counter()

    def sample_setup():
        nonlocal paused, last_sample
        start = perf_counter()
        if start - last_sample >= SETUP_EVERY_S:
            setup_times.append(setup(workload, seed, directory)[2])
            last_sample = perf_counter()
            paused += last_sample - start

    if trace:
        tracer.count_nodes_of({r.source for r in requests})

    def untraced(i, argv):
        return cli.main(argv)

    walls = {False: [], True: []}
    latencies = []
    layer_passes = []
    attempted = failed = 0
    started = perf_counter()
    while True:
        traced = trace and len(walls[False]) > len(walls[True])
        gc.collect()
        first_span = len(tracer.spans)
        paused = 0.0
        start = perf_counter()
        if traced:
            with tracer.installed():
                lat, outputs = run_pass(tracer.call_main, requests, directory, sample_setup)
        else:
            lat, outputs = run_pass(untraced, requests, directory, sample_setup)
        walls[traced].append(perf_counter() - start - paused)
        if traced:
            layer_passes.append(spans.layer_metrics(tracer.spans[first_span:]))
        else:
            latencies += lat
        attempted += len(requests)
        failed += count_failures(requests, outputs, digests)
        done = len(walls[False]) >= 1 and (not trace or len(walls[True]) >= 1)
        if done and perf_counter() - started >= seconds:
            break

    if trace:
        metrics = spans.median_metrics(layer_passes)
        metrics["trace_overhead"] = statistics.median(walls[True]) / statistics.median(walls[False])
        WORK.mkdir(exist_ok=True)
        tracer.write_jsonl(WORK / f"spans-{workload}-{seed}.jsonl")
        units = LAYER_UNITS
    else:
        p90 = statistics.quantiles(latencies, n=10)[-1]
        metrics = {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(walls[False]),
            "req_p50_ms": statistics.median(latencies) * 1e3,
            "req_p90_ms": p90 * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "success_rate": 1 - failed / attempted,
            "error_rate": failed / attempted,
        }
        units = E2E_UNITS
        print(f"{len(latencies)} latency samples, {sum(x > p90 for x in latencies)} above p90; "
              f"{len(setup_times)} set-up samples")
    print(f"{workload} seed {seed}: {len(walls[False])} untraced and {len(walls[True])} traced "
          f"passes of {len(requests)} requests; error_rate {failed / attempted:.6g} "
          f"({failed} of {attempted})")
    for traced, times in walls.items():
        if times:
            print(f"  {'traced' if traced else 'untraced'} pass walls (s): "
                  + " ".join(f"{t:.3f}" for t in times))
    print("  set-up samples (s): " + " ".join(f"{t:.3f}" for t in setup_times))
    for name, value in metrics.items():
        print(f"  {name:24} {value:.6g} {units.get(name) or PRINTED_UNITS[name]}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError) as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
