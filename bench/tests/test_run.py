"""Metric rules of the benchmark runner."""

from __future__ import annotations

import pytest

import run


@pytest.mark.parametrize(
    "n, index, percentile",
    [(150, 139, 100 * 140 / 150), (11, 0, 100 / 11), (100, 89, 90.0)],
)
def test_tail_has_ten_ops_beyond(n, index, percentile):
    values = [float(i) for i in range(n)]
    value, pct, beyond = run.tail(list(reversed(values)))
    assert value == values[index]
    assert pct == pytest.approx(percentile)
    assert beyond == 10
    assert sum(v > value for v in values) == 10


def test_tail_of_few_ops_is_the_maximum():
    assert run.tail([5.0, 1.0, 3.0]) == (5.0, 100.0, 0)


def test_merge_counters_keeps_extremes():
    merged = run.merge_counters([
        {"a.calls": 2, "grids.cap_headroom_min": 0.9, "treeshifts.count_bits_max": 10},
        {"a.calls": 3, "grids.cap_headroom_min": 0.5, "treeshifts.count_bits_max": 4},
    ])
    assert merged == {"a.calls": 5, "grids.cap_headroom_min": 0.5,
                      "treeshifts.count_bits_max": 10}


def test_verdicts():
    fields = {"pass": True, "nrows": 1, "rows": {"count": "x"}, "summary": {},
              "assertions": {}}
    expected = {"outcome": "ok", "fields": fields}
    assert run.verdict(expected, {"error": None, "exit": 0, "fields": fields}) == (None, False)
    changed = dict(fields, rows={"count": "y"})
    assert run.verdict(expected, {"error": None, "exit": 0, "fields": changed}) == (
        "changed rows.count", True)
    # a failure the reference commit did not have is incorrect
    assert run.verdict(expected, {"error": "ValueError: x", "exit": None}) == (
        "raised ValueError: x", True)
    assert run.verdict(expected, {"error": None, "exit": 2}) == ("exit 2", True)
    assert run.verdict(None, {"error": None, "exit": 0}) == ("no reference", True)
    # a failure the reference commit recorded is not incorrect, nor is its fix
    crash = "ValueError: Exceeds the limit (4300 digits) for integer string conversion"
    expected = {"outcome": f"raised {crash}", "fields": fields}
    assert run.verdict(expected, {"error": crash, "exit": None}) == (f"raised {crash}", False)
    assert run.verdict(expected, {"error": None, "exit": 0, "fields": fields}) == (None, False)
    assert run.verdict(expected, {"error": "KeyError: n", "exit": None}) == (
        "raised KeyError: n", True)


def test_probe_means_borrow_from_neighbours():
    # run.MIN_PROBES is 8: op 0 has enough of its own, op 1 borrows op 2's
    # and then op 0's, and op 2 borrows the closing probes
    probes = [[1.0] * 8, [2.0] * 2, [4.0] * 3]
    closing = [8.0] * 8
    assert run.probe_means(probes, closing) == pytest.approx(
        [1.0, (2 * 2 + 3 * 4 + 8 * 1) / 13, (3 * 4 + 8 * 8) / 11])


def test_probe_means_of_a_single_op_use_the_closing_probes():
    assert run.probe_means([[]], [0.5] * 8) == [0.5]
