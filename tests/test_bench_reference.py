"""The benchmark's correctness check as a test: reports still match ``bench/reference.json``.

The benchmark compares each op's report with the fields recorded in its
reference through ``bench/check.py``.  Here the same comparison runs in
process on the six default reproduce reports, on the ray-sweep line
entropies, boundary searches, tree entropies, surface counts and
densities, and on every grid-sweep op, so a changed count or decision
fails the suite before a benchmark run would.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
sys.dont_write_bytecode = True  # leave no cache files beside the benchmark
sys.path.insert(0, BENCH)

import check  # noqa: E402
import workloads  # noqa: E402

from shiftlab import cli, harness  # noqa: E402


@pytest.fixture(scope="module")
def reference() -> dict:
    with open(os.path.join(BENCH, "reference.json"), encoding="utf-8") as fh:
        return json.load(fh)["ops"]


def _mismatches(entry: dict, report: harness.Report) -> list:
    assert entry["outcome"] == "ok"
    return check.mismatches(entry["fields"], check.fields(harness.emit_report(report)))


@pytest.mark.parametrize("key", workloads.REPRODUCE_KEYS)
def test_reproduce_matches_reference(key, reference):
    assert _mismatches(reference[f"reproduce {key}"], harness.reproduce(key)) == []


def test_ray_sweep_boundary_searches_match_reference(reference):
    ops = [op for op in workloads.pool("ray-sweep") if op["config"]["target"] == "bip"]
    assert len(ops) == 61
    for op in ops:
        report = harness.run_config(harness.ExperimentConfig.from_json(op["config"]))
        assert _mismatches(reference[workloads.op_id(op)], report) == [], op["config"]


def test_reproduce_keys_match_the_workload():
    assert harness.REPRODUCE_KEYS == workloads.REPRODUCE_KEYS


def test_ray_sweep_line_entropies_match_reference(reference):
    ops = [op for op in workloads.pool("ray-sweep") if op["config"]["target"] == "entropy1d"]
    assert len(ops) == 129
    for op in ops:
        report = harness.run_config(harness.ExperimentConfig.from_json(op["config"]))
        assert _mismatches(reference[workloads.op_id(op)], report) == [], op["config"]


def test_ray_sweep_tree_walks_match_reference(reference):
    ops = [
        op for op in workloads.pool("ray-sweep")
        if op["config"]["target"] in ("tree-entropy", "surface", "density")
        and reference[workloads.op_id(op)]["outcome"] == "ok"
    ]
    assert len(ops) == 245
    for op in ops:
        report = harness.run_config(harness.ExperimentConfig.from_json(op["config"]))
        assert _mismatches(reference[workloads.op_id(op)], report) == [], op["config"]


def test_ray_sweep_counts_past_the_digit_limit_end_in_a_report(reference):
    # recorded when a count past 4,300 decimal digits could not be written out
    ops = [
        op for op in workloads.pool("ray-sweep")
        if "4300 digits" in reference[workloads.op_id(op)]["outcome"]
    ]
    assert len(ops) == 9
    for op in ops:
        report = harness.run_config(harness.ExperimentConfig.from_json(op["config"]))
        assert json.loads(harness.emit_report(report))["pass"], op["config"]


def test_grid_sweep_pool_matches_reference_through_one_cli(reference, tmp_path, capsys):
    # one process runs every op through the command line, as a benchmark worker does
    ops = workloads.pool("grid-sweep")
    assert len(ops) == 154
    for i, op in enumerate(ops):
        entry = reference[workloads.op_id(op)]
        assert entry["outcome"] == "ok"
        path = tmp_path / f"op{i}.json"
        path.write_text(json.dumps(op["config"]), encoding="utf-8")
        assert cli.main(["run", str(path)]) == 0, op["config"]
        got = check.fields(capsys.readouterr().out)
        assert check.mismatches(entry["fields"], got) == [], op["config"]
