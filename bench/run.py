"""shiftlab benchmark: one workload, one seed, one closed-loop client.

    python3 bench/run.py --workload grid-sweep --seed 3 --seconds 55 --trace 0

Run from the root of a source checkout; shiftlab is imported from ``src``.
One client drives the public CLI entry point ``shiftlab.cli.main`` one op
at a time, in one worker interpreter at a time.  A pass runs the whole op
list in fresh interpreters (one per sweep, one per key for ``reproduce``),
so module-level caches start cold as they do for a CLI user.  Passes repeat
until ``--seconds`` have gone by, and an op's time is its mean over them.

The machines this runs on swing in speed by a third, from second to second
and for whole minutes, which no number of passes averages away.  So every
untraced worker times a fixed piece of interpreter work, the probe, after
each 20 ms of its CPU time, in the middle of the op it is running.  The
probe's time is taken out of the op's, and the op's time is scaled to the
speed at which the probe takes ``REF_PROBE_MS``: a slow minute slows op
and probe alike and cancels, while a slower program slows the op only.
Set-up time, the median over many spawns, is scaled by probes each worker
runs once it is ready.  Times reported are these scaled times; the
measured ones go to the result file.
Every op's report is checked against ``reference.json``.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``, end-to-end metrics with ``--trace 0`` and
per-layer metrics from a traced run with ``--trace 1``.  A result file
with the machine, the Python version and the commit goes to
``.bench_out/``.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

sys.dont_write_bytecode = True

import workloads  # noqa: E402
import check  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(ROOT, ".bench_out")

# shiftlab's default cap when reference.json was recorded, pinned so that a
# changed default cannot change the work
CAP = 1 << 24
# set-up is measured on at least this many worker spawns per run
MIN_SETUP_SAMPLES = 15
# a run that is still going after this long is stopped and reported failed
HARD_LIMIT_S = 170.0
TAIL_BEYOND = 10
# times are reported at the machine speed at which the probe takes this
# long, near its time inside ops on the machine the baseline was run on.
# Probes run in a row, as those beside set-up are, read faster than probes
# inside ops, so scaled set-up time reads above the measured one.
REF_PROBE_MS = 0.4
# an op's speed is read from at least this many probes (a worker's closing
# probes alone are this many)
MIN_PROBES = 8


@functools.cache
def metrics(kind: str) -> tuple:
    """(name, unit) of every ``end_to_end`` or ``per_layer`` metric that
    ``BENCHMARK.json`` names."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return tuple((m["name"], m["unit"]) for m in json.load(fh)[kind])


def layer_pass() -> tuple:
    """The per-layer metrics one traced pass gives; the overhead needs both kinds."""
    return tuple(m for m in metrics("per_layer") if m[0] != "trace_overhead_pct")


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


# ---------------------------------------------------------------------------
# statistics


def tail(values: list) -> tuple:
    """(value, percentile, ops beyond) at the highest percentile that has at
    least ``TAIL_BEYOND`` ops beyond it; the maximum when there are fewer ops."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def probe_means(probes: list, closing: list) -> list:
    """Mean probe time beside each op that one worker ran.

    ``probes[i]`` holds the probe times taken during op i, ``closing``
    those the worker took after its last op.  An op with fewer than
    ``MIN_PROBES`` of its own borrows those of the ops after it and before
    it, one op at a time on each side, until it has enough."""
    groups = probes + [closing]
    means = []
    for i in range(len(probes)):
        got, lo, hi = list(groups[i]), i, i
        while len(got) < MIN_PROBES and (lo > 0 or hi < len(groups) - 1):
            if hi < len(groups) - 1:
                hi += 1
                got += groups[hi]
            if len(got) < MIN_PROBES and lo > 0:
                lo -= 1
                got += groups[lo]
        means.append(statistics.fmean(got))
    return means


def merge_counters(parts: list) -> dict:
    """Add counters across workers; ``*_min`` and ``*_max`` keep the extreme."""
    out: dict = {}
    for part in parts:
        for name, value in part.items():
            if name not in out:
                out[name] = value
            elif name.endswith("_min"):
                out[name] = min(out[name], value)
            elif name.endswith("_max"):
                out[name] = max(out[name], value)
            else:
                out[name] += value
    return out


def layer_metrics(layers: dict, counters: dict) -> dict:
    """The per-layer metrics of one traced pass (without the overhead)."""
    out = {name: 0 for name, _ in layer_pass()}
    out.update(layers)
    out.update(counters)
    checks = counters.get("treeshifts.indep_checks", 0)
    out["treeshifts.indep_true_ratio"] = (
        counters.get("treeshifts.indep_true", 0) / checks if checks else 0.0
    )
    requests = counters.get("grids.blocks_2d.requests", 0)
    out["grids.shape_reuse"] = (
        counters.get("grids.blocks_2d.repeats", 0) / requests if requests else 0.0
    )
    # no block set requested leaves the whole cap free
    out["grids.cap_headroom_min"] = counters.get("grids.cap_headroom_min", 1.0)
    return out


# ---------------------------------------------------------------------------
# environment


def machine() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "commit": git_commit(ROOT),
    }


def git_commit(root: str) -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def worker_env() -> dict:
    """The pinned environment every worker runs in."""
    env = {
        k: v for k, v in os.environ.items()
        if not k.startswith("PYTHON") and k != "SHIFTLAB_CAP"
    }
    env.update(
        PYTHONPATH=os.path.join(ROOT, "src"),
        PYTHONHASHSEED="0",
        PYTHONDONTWRITEBYTECODE="1",
        SHIFTLAB_CAP=str(CAP),
    )
    return env


# ---------------------------------------------------------------------------
# workers


class Worker:
    """One worker interpreter; ``setup_s`` runs from spawn to ready, scaled
to the reference speed like an op's time."""

    def __init__(self, env: dict, trace: bool, spans: str | None) -> None:
        cmd = [sys.executable, os.path.join(BENCH, "worker.py"), "--trace", str(int(trace))]
        if spans:
            cmd += ["--spans", spans]
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, env=env, text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )
        ready = self._read()
        self.measured_setup_s = time.perf_counter() - start
        self.setup_s = self.measured_setup_s
        if "probes" in ready:
            # the probes ran before ready: leave them out, and scale the rest
            probes = ready["probes"]
            self.setup_s -= sum(probes) / 1000.0
            self.setup_s *= REF_PROBE_MS / statistics.fmean(probes)

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            self.proc.kill()
            self.proc.wait()
            raise BenchError(f"worker exited with code {self.proc.poll()}")
        return json.loads(line)

    def run(self, argv: list) -> dict:
        self.proc.stdin.write(json.dumps({"argv": argv}) + "\n")
        self.proc.stdin.flush()
        return self._read()

    def close(self) -> dict:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        final = self._read()
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait()
        return final


class Session:
    """Runs passes over one op list and keeps every sample."""

    def __init__(self, workload: str, ops: list, argvs: list, spans_dir: str) -> None:
        self.workload = workload
        self.ops = ops
        self.argvs = argvs
        self.spans_dir = spans_dir
        self.env = worker_env()
        self.current: Worker | None = None
        self.stopped = False
        self.setup: list = []
        self.measured_setup: list = []

    def _spawn(self, trace: bool, spans: str | None = None) -> Worker:
        if self.stopped:
            raise BenchError(f"stopped after {HARD_LIMIT_S:.0f} s")
        worker = Worker(self.env, trace, spans)
        self.current = worker
        if not trace:
            self.setup.append(worker.setup_s)
            self.measured_setup.append(worker.measured_setup_s)
        return worker

    def run_pass(self, trace: bool, keep_spans: bool) -> dict:
        """Every op once: replies, and the pass's RSS and trace totals."""
        # reproduce runs each key in its own interpreter, a sweep shares one
        groups = (
            [[i] for i in range(len(self.ops))]
            if self.workload == "reproduce"
            else [list(range(len(self.ops)))]
        )
        replies: list = [None] * len(self.ops)
        scaled: list = [None] * len(self.ops)
        finals = []
        for g, group in enumerate(groups):
            spans = None
            if trace and keep_spans:
                spans = os.path.join(self.spans_dir, f"worker{g}.jsonl")
            worker = self._spawn(trace, spans)
            for i in group:
                replies[i] = worker.run(self.argvs[i])
            finals.append(worker.close())
            if not trace:
                means = probe_means([replies[i]["probes"] for i in group], finals[-1]["probes"])
                for i, mean in zip(group, means):
                    scaled[i] = replies[i]["ms"] * REF_PROBE_MS / mean
        out = {
            "replies": replies,
            "scaled_ms": scaled,
            "wall_s": sum(r["ms"] for r in replies) / 1000.0,
            "peak_rss_mb": max(f["peak_rss_kb"] for f in finals) / 1024.0,
        }
        if trace:
            layers = merge_counters([f["layers"] for f in finals])
            counters = merge_counters([f["counters"] for f in finals])
            out["layers"] = layer_metrics(layers, counters)
        return out

    def probe_setup(self) -> None:
        while len(self.setup) < MIN_SETUP_SAMPLES:
            self._spawn(trace=False).close()

    def kill(self) -> None:
        self.stopped = True
        if self.current is not None and self.current.proc.poll() is None:
            self.current.proc.kill()


# ---------------------------------------------------------------------------
# verdicts


def outcome(reply: dict) -> str:
    """``ok``, ``raised <error>`` or ``exit <code>``, as ``reference.json`` records it."""
    if reply["error"] is not None:
        return f"raised {reply['error']}"
    return "ok" if reply["exit"] == 0 else f"exit {reply['exit']}"


def verdict(expected: dict | None, reply: dict) -> tuple:
    """(failure or None, whether the op disagreed with the reference).

    An op fails if it raises, exits nonzero or changes a compared field.  It
    disagrees with the reference if a field changed or if it failed in a way
    the reference commit did not: a failure recorded there, such as the
    4,300-digit ``str(int)`` crash, stays a failure but is not incorrect,
    and neither is an op that the reference commit saw fail and that now
    succeeds with the recorded fields.
    """
    if expected is None:
        return "no reference", True
    if "fields" in reply:
        problems = check.mismatches(expected["fields"], reply["fields"])
        if problems:
            return "changed " + ",".join(problems), True
    got = outcome(reply)
    if got == "ok":
        return None, False
    return got, got != expected["outcome"]


def load_reference() -> dict:
    with open(os.path.join(BENCH, "reference.json"), encoding="utf-8") as fh:
        return json.load(fh)["ops"]


# ---------------------------------------------------------------------------
# main


def cli_argvs(ops: list, work: str) -> list:
    """The CLI argv of each op; configs are written to files under ``work``."""
    argvs = []
    for i, op in enumerate(ops):
        if "config" in op:
            path = os.path.join(work, f"op{i:04d}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(op["config"], fh, sort_keys=True)
            argvs.append(["run", path])
        else:
            argvs.append(op["argv"])
    return argvs


def measure(args) -> dict:
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = os.path.join(ROOT, ".bench_work", f"{tag}-{os.getpid()}")
    spans_dir = os.path.join(OUT, "spans", tag)
    shutil.rmtree(spans_dir, ignore_errors=True)
    os.makedirs(work)
    if args.trace:
        os.makedirs(spans_dir)
    try:
        ops = workloads.generate(args.workload, args.seed)
        argvs = cli_argvs(ops, work)
        session = Session(args.workload, ops, argvs, spans_dir)
        timer = threading.Timer(HARD_LIMIT_S, session.kill)
        timer.start()
        try:
            passes, traced = [], []
            start = time.perf_counter()
            # a traced run alternates untraced and traced passes
            while (
                not passes
                or (args.trace and not traced)
                or time.perf_counter() - start < args.seconds
            ):
                trace = bool(args.trace) and len(traced) < len(passes)
                result = session.run_pass(trace, keep_spans=not traced)
                (traced if trace else passes).append(result)
            if not args.trace:
                session.probe_setup()
        finally:
            timer.cancel()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return summarize(args, ops, session, passes, traced)


def summarize(args, ops: list, session: Session, passes: list, traced: list) -> dict:
    reference = load_reference()
    ids = [workloads.op_id(op) for op in ops]
    per_op_ms = [
        statistics.fmean(p["scaled_ms"][i] for p in passes) for i in range(len(ops))
    ]
    measured_ms = [
        statistics.fmean(p["replies"][i]["ms"] for p in passes) for i in range(len(ops))
    ]
    probes = [x for p in passes for r in p["replies"] for x in r["probes"]]
    failures, incorrect = {}, 0
    for i, op_key in enumerate(ids):
        expected = reference.get(op_key)
        outcomes = {verdict(expected, p["replies"][i]) for p in passes + traced}
        problem = next((o for o in outcomes if o[0] is not None), (None, False))
        if problem[0] is not None:
            seed_outcome = expected["outcome"] if expected else "none"
            failures[op_key] = {"failure": problem[0], "seed_outcome": seed_outcome}
        incorrect += any(bad for _, bad in outcomes)

    value, pct, beyond = tail(per_op_ms)
    end_to_end = {
        "setup_s": statistics.median(session.setup) if session.setup else None,
        "wall_s": sum(per_op_ms) / 1000.0,
        "op_p50_ms": statistics.median(per_op_ms),
        "op_tail_ms": value,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(),
        "passes": len(passes),
        "setup_samples": len(session.setup),
        "attempted": len(ops),
        "failed": len(failures),
        "incorrect": incorrect,
        "tail": {"percentile": pct, "beyond": beyond, "ops": len(ops)},
        "end_to_end": end_to_end,
        "op_ms": dict(zip(ids, per_op_ms)),
        "measured_op_ms": dict(zip(ids, measured_ms)),
        "measured_wall_s": sum(measured_ms) / 1000.0,
        "measured_setup_s": (
            statistics.median(session.measured_setup) if session.measured_setup else None
        ),
        "probe_ms": statistics.fmean(probes) if probes else None,
        "pass_op_ms": [[r["ms"] for r in p["replies"]] for p in passes],
        "pass_scaled_ms": [p["scaled_ms"] for p in passes],
        "failures": failures,
    }
    if traced:
        layers = {}
        for name, unit in layer_pass():
            values = [t["layers"][name] for t in traced]
            layers[name] = statistics.fmean(values) if unit == "ms" else values[0]
        result["counters_repeat"] = all(
            t["layers"][name] == traced[0]["layers"][name]
            for t in traced
            for name, unit in layer_pass()
            if unit != "ms"
        )
        traced_wall = statistics.fmean(t["wall_s"] for t in traced)
        untraced_wall = statistics.fmean(p["wall_s"] for p in passes)
        layers["trace_overhead_pct"] = 100.0 * (traced_wall / untraced_wall - 1.0)
        result["per_layer"] = layers
        result["traced_passes"] = len(traced)
    return result


def report(result: dict) -> None:
    """Human-readable lines, then the one-line JSON result."""
    m = result["machine"]
    print(f"machine: nproc={m['nproc']} cpu={m['cpu']!r} python={m['python']} "
          f"commit={m['commit']}")
    print(f"workload={result['workload']} seed={result['seed']} trace={result['trace']} "
          f"ops={result['attempted']} passes={result['passes']} "
          f"setup_samples={result['setup_samples']}")
    e2e = result["end_to_end"]
    probe = f"{result['probe_ms']:.4f}" if result["probe_ms"] else "n/a"
    print(f"  op times scaled to a {REF_PROBE_MS} ms probe (measured: mean probe "
          f"{probe} ms, wall {result['measured_wall_s']:.4f} s, "
          f"set-up {result['measured_setup_s']:.4f} s)")
    for name, unit in metrics("end_to_end"):
        note = ""
        if name == "op_tail_ms":
            t = result["tail"]
            note = f"  (p{t['percentile']:.1f}: {t['beyond']} of {t['ops']} ops beyond)"
        print(f"  {name:<16} {e2e[name]:>12.4f} {unit}{note}")
    if result["workload"] == "reproduce":
        for key in ("thm1", "thm3", "thm4"):
            print(f"  {key + '_ms':<16} {result['op_ms']['reproduce ' + key]:>12.4f} ms")
    attempted, failed = result["attempted"], result["failed"]
    print(f"  {'fail_frac':<16} {failed / attempted:>12.4f} ratio  "
          f"({failed} failed of {attempted} attempted)")
    kinds: dict = {}
    for f in result["failures"].values():
        label = f"{f['failure']} (reference commit: {f['seed_outcome']})"
        kinds[label] = kinds.get(label, 0) + 1
    for label, count in sorted(kinds.items()):
        print(f"    {count} x {label}")
    if result["trace"]:
        print(f"  per layer, mean of {result['traced_passes']} traced passes "
              f"(counters repeat: {result['counters_repeat']}):")
        for name, unit in metrics("per_layer"):
            print(f"  {name:<38} {result['per_layer'][name]:>14.4f} {unit}")
    kind, values = ("per_layer", result["per_layer"]) if result["trace"] else ("end_to_end", e2e)
    print(json.dumps({
        "correct": result["incorrect"] == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in metrics(kind)},
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.exists(os.path.join(ROOT, "src", "shiftlab", "__init__.py")):
        print(f"bench: no shiftlab sources under {ROOT}/src", file=sys.stderr)
        return 2
    try:
        result = measure(args)
    except (BenchError, OSError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 3
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    report(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
