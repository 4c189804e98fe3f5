"""Self time from spans, and the wrapping of shiftlab's public functions."""

from __future__ import annotations

import inspect
import sys

import tracing


def span(layer, start, end, parent):
    return (layer, "f", start, end, parent, 0)


def test_self_time_nested_children():
    # 0 [0, 100) holds 1 [10, 60), which holds 2 [20, 30)
    spans = [span("cli", 0, 100, None), span("harness", 10, 60, 0), span("words", 20, 30, 1)]
    assert tracing.self_times(spans) == [50, 40, 10]


def test_self_time_back_to_back_children():
    # two children that touch end to start, and a gap before the third
    spans = [
        span("harness", 0, 100, None),
        span("words", 10, 40, 0),
        span("words", 40, 70, 0),
        span("grids", 80, 90, 0),
    ]
    assert tracing.self_times(spans) == [30, 30, 30, 10]


def test_layer_totals_add_self_time_per_layer():
    spans = [span("cli", 0, 2_000_000, None), span("words", 0, 1_000_000, 0),
             span("words", 1_000_000, 1_500_000, 0)]
    totals = tracing.layer_totals(spans)
    assert totals["words.calls"] == 2
    assert totals["words.self_ms"] == 1.5
    assert totals["cli.self_ms"] == 0.5
    assert totals["grids.calls"] == 0


def test_install_wraps_every_binding():
    import shiftlab
    from shiftlab import trees, treeshifts, words

    plain_step = words.WordAutomaton.step
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "shiftlab"]
    originals = {
        (mod, name): obj
        for mod in modules
        for name, obj in vars(mod).items()
        if inspect.isfunction(obj)
    }
    tracer = tracing.Tracer(cap=1 << 24)
    try:
        assert tracer.install() > 40
        # treeshifts binds trees.entering_counts by name; that binding is traced too
        tracer.op = 0
        treeshifts.entering_counts(trees.AdjacencyMatrix.comb(), 3)
        ts = treeshifts.make_tree_shift(trees.AdjacencyMatrix.comb(),
                                        words.ShiftSpec1D.golden_mean())
        shiftlab.count_patterns(ts, 4)
        names = [(s[0], s[1]) for s in tracer.spans]
        assert ("trees", "entering_counts") in names
        assert ("treeshifts", "count_patterns") in names
        assert tracer.counters["treeshifts.count_patterns.depth_sum"] == 4
        assert words.WordAutomaton.step is plain_step
    finally:
        for (mod, name), fn in originals.items():
            setattr(mod, name, fn)
