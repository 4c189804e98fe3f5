"""Record ``reference.json``: the compared fields of every op any seed draws.

    python3 bench/record_reference.py

Run it once, at the commit the benchmark's correctness check is anchored
to; later commits are checked against what it records.  Ops run in the
same pinned worker environment as the benchmark.  An op that raises is
recorded with its exception and then re-run with Python's limit on
integer-to-string conversion lifted, so the counts it could not print are
recorded as well.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

sys.dont_write_bytecode = True

import run  # noqa: E402
import workloads  # noqa: E402


def record(env: dict, ops: list, work: str) -> dict:
    worker = run.Worker(env, trace=False, spans=None)
    out = {
        workloads.op_id(op): worker.run(argv)
        for op, argv in zip(ops, run.cli_argvs(ops, work))
    }
    worker.close()
    return out


def main() -> int:
    work = os.path.join(run.ROOT, ".bench_work", f"reference-{os.getpid()}")
    os.makedirs(work)
    try:
        ops = {}
        for name in workloads.WORKLOADS:
            for op in workloads.pool(name):
                ops.setdefault(workloads.op_id(op), op)
        env = run.worker_env()
        replies = record(env, list(ops.values()), work)
        raised = [ops[k] for k, r in replies.items() if r["error"] is not None]
        retried = record({**env, "PYTHONINTMAXSTRDIGITS": "0"}, raised, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    entries = {}
    for key, reply in sorted(replies.items()):
        outcome = run.outcome(reply)
        if reply["error"] is not None:
            reply = retried[key]
        entries[key] = {"outcome": outcome, "fields": reply.get("fields")}
    machine = run.machine()
    doc = {"commit": machine["commit"], "python": machine["python"], "ops": entries}
    with open(os.path.join(run.BENCH, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    counts: dict = {}
    for entry in entries.values():
        counts[entry["outcome"]] = counts.get(entry["outcome"], 0) + 1
    print(f"{len(entries)} ops: {counts}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
