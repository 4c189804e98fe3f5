"""Run the benchmark over many seeds and record medians and spreads.

    python3 bench/baseline.py --seeds 1-10 --sets 2 --traced 2 \
        --out bench/results/baseline.json

Each set runs ``bench/run.py`` once per workload and seed, in a fresh
process.  For every end-to-end metric the file records the values, their
median and their spread: the distance between the first and third
quartiles over the median.  ``--traced`` adds that many traced runs per
workload, to show the per-layer counters repeat exactly.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

sys.dont_write_bytecode = True

import run  # noqa: E402
import workloads  # noqa: E402


def seeds_arg(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(run.BENCH, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    print(proc.stdout, end="", flush=True)
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    path = os.path.join(run.OUT, f"{workload}-seed{seed}-trace{trace}.json")
    with open(path, encoding="utf-8") as fh:
        detail = json.load(fh)
    return {"seed": seed, "line": line, "passes": detail["passes"],
            "measured_wall_s": detail["measured_wall_s"], "probe_ms": detail["probe_ms"],
            "failures": detail["failures"]}


def spread(values: list) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": q2, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / q2 if q2 else None}


def summarize(runs: list) -> dict:
    names = list(runs[0]["line"]["metrics"])
    return {
        "metrics": {
            name: spread([r["line"]["metrics"][name]["value"] for r in runs])
            for name in names
        },
        # the unscaled sum of op times, to show what the scaling takes out
        "measured_wall_s": spread([r["measured_wall_s"] for r in runs]),
        "failed": [r["line"]["failed"] for r in runs],
        "correct": all(r["line"]["correct"] for r in runs),
        "runs": runs,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--seconds", type=int, default=None,
                        help="run length (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--traced", type=int, default=2)
    parser.add_argument("--workloads", nargs="*", default=list(workloads.WORKLOADS))
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    if args.seconds is None:
        with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            args.seconds = json.load(fh)["run_seconds"]

    doc = {"machine": run.machine(), "seconds": args.seconds, "seeds": args.seeds,
           "sets": [], "traced": {}}
    for _ in range(args.sets):
        doc["sets"].append({
            w: summarize([one_run(w, s, args.seconds, 0) for s in args.seeds])
            for w in args.workloads
        })
    for w in args.workloads:
        runs = [one_run(w, args.seeds[0], args.seconds, 1) for _ in range(args.traced)]
        if runs:
            first = runs[0]["line"]["metrics"]
            doc["traced"][w] = {
                "runs": runs,
                "counters_repeat": all(
                    r["line"]["metrics"][name]["value"] == first[name]["value"]
                    for r in runs
                    for name, unit in run.metrics("per_layer")
                    if unit not in ("ms", "%")
                ),
            }
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")

    for i, result in enumerate(doc["sets"]):
        for w, summary in result.items():
            for name, s in summary["metrics"].items():
                print(f"set {i + 1} {w:<11} {name:<12} median {s['median']:.4f} "
                      f"spread {s['spread']:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
