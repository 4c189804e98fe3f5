"""Benchmark worker: one fresh interpreter that runs shiftlab CLI ops.

Started by ``bench/run.py``, never by hand.  Protocol, one JSON object per
line: the worker prints ``{"ready": true}`` once shiftlab is imported (an
untraced worker adds the times of probes it ran just before), then
answers each ``{"argv": [...]}`` read from stdin with the op's time, exit
code or exception, and its compared report fields.  An untraced worker
also sends the probe times taken during the op, and leaves them out of
the op's time.  An empty line ends the session: the worker answers with
its peak resident set, the times of probes run after the last op and,
when traced, its
per-layer totals and counters, writes its spans out, and exits.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import re
import resource
import signal
import sys
import time

import check

import shiftlab.cli  # noqa: E402  (the import is what set-up time measures)


# a probe fires after every PROBE_EVERY_S of the worker's own CPU time
PROBE_EVERY_S = 0.02
# probes a worker runs in a row once it is ready and again at its end, so
# that set-up and even a 3 ms op have samples beside them
BURST_PROBES = 8


def probe_work() -> int:
    """A fixed piece of interpreter work, 0.3 to 0.5 ms here.

    Its one allocation is a small list, so it hardly moves the garbage
    collector towards a pass over the objects the op left alive."""
    slots = [0] * 64
    x = 1
    for i in range(1500):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        slots[i & 63] += x & 7
    return x


class SpeedProbe:
    """Times ``probe_work`` at a fixed interval of CPU time, in the middle
    of whatever the worker is doing, so that its samples see the machine
    as fast or slow as the op around them saw it."""

    def __init__(self) -> None:
        self.samples: list = []
        self.ms = 0.0

    def fire(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        probe_work()
        ms = (time.perf_counter() - start) * 1000.0
        self.samples.append(ms)
        self.ms += ms

    def start(self) -> None:
        signal.signal(signal.SIGVTALRM, self.fire)
        signal.setitimer(signal.ITIMER_VIRTUAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)

    def burst(self) -> list:
        first = len(self.samples)
        for _ in range(BURST_PROBES):
            self.fire()
        return self.samples[first:]


def run_op(argv: list, probe: SpeedProbe | None) -> dict:
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    first, probe_ms = (len(probe.samples), probe.ms) if probe else (0, 0.0)
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = shiftlab.cli.main(argv)
    except SystemExit as exc:  # argparse rejects the command line
        code = exc.code
    except Exception as exc:  # the op failed; the benchmark goes on
        error = f"{type(exc).__name__}: {re.split('[:;]', str(exc))[0][:80]}"
    ms = (time.perf_counter() - start) * 1000.0
    reply = {"ms": ms, "exit": code, "error": error}
    if probe:
        reply["ms"] -= probe.ms - probe_ms
        reply["probes"] = probe.samples[first:]
    if error is None and code in (0, 1):
        reply["fields"] = check.fields(out.getvalue())
    elif error is None:
        reply["stderr"] = err.getvalue()[-300:]
    return reply


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--spans", default=None, help="write spans here at exit")
    args = parser.parse_args()

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer(int(os.environ["SHIFTLAB_CAP"]))
        tracer.install()

    probe = None if tracer else SpeedProbe()
    ready = {"ready": True}
    if probe:
        ready["probes"] = probe.burst()
    proto = sys.stdout
    proto.write(json.dumps(ready) + "\n")
    proto.flush()
    if probe:
        probe.start()
    op_index = 0
    while line := sys.stdin.readline().strip():
        if tracer is not None:
            tracer.op = op_index
        reply = run_op(json.loads(line)["argv"], probe)
        proto.write(json.dumps(reply) + "\n")
        proto.flush()
        op_index += 1

    final = {"peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if probe:
        probe.stop()
        final["probes"] = probe.burst()
    if tracer is not None:
        final["layers"] = tracing.layer_totals(tracer.spans)
        final["counters"] = tracer.counters
        if args.spans:
            tracer.dump(args.spans)
    proto.write(json.dumps(final) + "\n")
    proto.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
