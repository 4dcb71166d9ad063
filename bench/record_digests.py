"""Record the expected outputs of the digest-checked requests.

Runs every pool entry that ``workloads`` checks by digest (each
front-end source under ``parse`` and ``parse --emit-ast``, and every
corpus program under ``run --trace``) through the current ``priopost``
and writes the first 128 bits of each output digest to
``bench/digests.json``.  Run it only when the package's observable
behaviour is meant to change:

    python3 bench/record_digests.py
"""

from __future__ import annotations

import json
import shutil

import run
import workloads


def pool_requests() -> list[workloads.Request]:
    requests = []
    for k in range(workloads.FRONTEND_POOL):
        src = workloads.frontend_source(k)
        for mode in workloads.FRONTEND_MODES:
            if mode[0] != "analyze":
                requests.append(workloads.frontend_request(k, src, mode))
    requests += [workloads.corpus_request(k) for k in range(workloads.CORPUS_POOL)]
    return requests


def main():
    requests = pool_requests()
    directory = run.WORK / "record-digests"
    shutil.rmtree(directory, ignore_errors=True)
    try:
        run.write_inputs(requests, directory)
        cli = run.import_priopost()[0]
        _, outputs = run.run_pass(lambda i, argv: cli.main(argv), requests, directory)
        digests = {}
        for req, (code, stdout, trace) in zip(requests, outputs):
            digests[req.expect.key] = workloads.output_digest(code, stdout, trace)[:32]
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    with open(run.DIGESTS, "w", encoding="utf-8") as handle:
        json.dump(digests, handle, indent=0, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(digests)} digests to {run.DIGESTS}")


if __name__ == "__main__":
    main()
