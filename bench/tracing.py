"""Spans and counters around every public function of shiftlab's layers.

``install`` wraps each public module-level function of the layer modules
(names without a leading underscore) and rebinds the wrapper wherever the
function is bound, so a call through ``treeshifts.entering_counts`` is
traced as well as one through ``trees.entering_counts``.  Methods are left
alone.  Counters read only arguments and return values.

Spans are kept in memory as tuples (layer, name, start_ns, end_ns, parent,
op) and written out when the worker ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

LAYERS = ("cli", "harness", "words", "shatter", "grids", "trees", "treeshifts")


class Tracer:
    def __init__(self, cap: int) -> None:
        self.cap = cap
        self.spans: list = []
        self.current = None
        self.op = None
        self.counters: dict = {}
        self._shapes: set = set()

    def add(self, name: str, amount) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def low(self, name: str, value) -> None:
        self.counters[name] = min(self.counters.get(name, value), value)

    def high(self, name: str, value) -> None:
        self.counters[name] = max(self.counters.get(name, value), value)

    # per-function counters: (tracer, args, result, duration_ns)

    def _is_indep_tree(self, args, result, ns) -> None:
        self.add("treeshifts.indep_checks", 1)
        self.add("treeshifts.indep_true", int(bool(result)))

    def _count_patterns(self, args, result, ns) -> None:
        self.add("treeshifts.count_patterns.calls", 1)
        self.add("treeshifts.count_patterns.depth_sum", args[1])
        self.high("treeshifts.count_bits_max", result.bit_length())

    def _surface_entropy_est(self, args, result, ns) -> None:
        self.high("treeshifts.count_bits_max", result.count.bit_length())

    def _emit_report(self, args, result, ns) -> None:
        self.add("harness.emit_ms", ns / 1e6)
        self.add("harness.report_bytes", len(result.encode("utf-8")))

    def _block_counts(self, args, result, ns) -> None:
        self.add("words.block_counts.len_sum", args[1])

    def _blocks_1d(self, args, result, ns) -> None:
        self.add("words.blocks_1d.words", len(result))

    def _blocks_2d(self, args, result, ns) -> None:
        key = tuple(args[:3])
        self.add("grids.blocks_2d.requests", 1)
        self.add("grids.blocks_2d.repeats", int(key in self._shapes))
        self._shapes.add(key)
        self.add("grids.blocks", len(result))
        cap = args[3] if len(args) > 3 and args[3] is not None else self.cap
        self.low("grids.cap_headroom_min", 1 - len(result) / cap)

    def _shatter(self, args, result, ns) -> None:
        self.add("shatter.family_words", len(args[0]))

    HOOKS = {
        "treeshifts.is_indep_tree": _is_indep_tree,
        "treeshifts.count_patterns": _count_patterns,
        "treeshifts.surface_entropy_est": _surface_entropy_est,
        "harness.emit_report": _emit_report,
        "words.block_counts": _block_counts,
        "words.blocks_1d": _blocks_1d,
        "grids.blocks_2d": _blocks_2d,
        "shatter.is_shattered": _shatter,
        "shatter.count_shattered": _shatter,
        "shatter.extract_shattered": _shatter,
    }

    def wrap(self, layer: str, fn):
        name = fn.__name__
        hook = self.HOOKS.get(f"{layer}.{name}")
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer.current
            index = len(tracer.spans)
            tracer.spans.append(None)
            tracer.current = index
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                tracer.current = parent
                tracer.spans[index] = (layer, name, start, end, parent, tracer.op)
            if hook is not None:
                hook(tracer, args, result, end - start)
            return result

        return traced

    def install(self) -> int:
        """Wrap every public function of every layer; returns how many."""
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"shiftlab.{layer}")
            for name, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and not name.startswith("_")
                    and obj.__module__ == module.__name__
                ):
                    wrappers[obj] = self.wrap(layer, obj)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "shiftlab" and not mod_name.startswith("shiftlab."):
                continue
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, name, wrappers[obj])
        return len(wrappers)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans: list) -> list:
    """Each span's duration minus the part of it its child spans cover (ns)."""
    children: dict = {}
    for _, _, start, end, parent, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = []
    for index, (_, _, start, end, _, _) in enumerate(spans):
        covered = 0
        reach = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(end - start - covered)
    return out


def layer_totals(spans: list) -> dict:
    """``<layer>.calls`` and ``<layer>.self_ms`` for every layer."""
    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = 0
        out[f"{layer}.self_ms"] = 0.0
    for span, own in zip(spans, self_times(spans)):
        out[f"{span[0]}.calls"] += 1
        out[f"{span[0]}.self_ms"] += own / 1e6
    return out
