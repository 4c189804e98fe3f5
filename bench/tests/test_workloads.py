"""The seeded config generator and the reference it is checked against."""

from __future__ import annotations

import json
import os

import pytest

import workloads
from shiftlab import grids, trees, treeshifts, words
from shiftlab.caps import DEFAULT_CAP

SEEDS = range(12)
CRASH = "raised ValueError: Exceeds the limit (4300 digits) for integer string conversion"


def as_bytes(ops: list) -> bytes:
    return json.dumps(ops, sort_keys=True).encode("utf-8")


@pytest.fixture(scope="module")
def reference() -> dict:
    path = os.path.join(os.path.dirname(workloads.__file__), "reference.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["ops"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_bytes(workload):
    assert as_bytes(workloads.generate(workload, 7)) == as_bytes(workloads.generate(workload, 7))


@pytest.mark.parametrize("workload", ["grid-sweep", "ray-sweep"])
def test_seeds_change_inputs_not_size(workload):
    lists = [workloads.generate(workload, s) for s in SEEDS]
    assert len({as_bytes(ops) for ops in lists}) == len(lists)
    assert len({len(ops) for ops in lists}) == 1


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_drawn_op_has_a_reference(workload, reference):
    pool = {workloads.op_id(op) for op in workloads.pool(workload)}
    for seed in SEEDS:
        ids = {workloads.op_id(op) for op in workloads.generate(workload, seed)}
        assert ids <= pool
    assert pool <= set(reference)


def test_reference_outcomes(reference):
    for workload in workloads.WORKLOADS:
        outcomes = {reference[workloads.op_id(op)]["outcome"] for op in workloads.pool(workload)}
        # the only failure at the reference commit is the 4,300-digit emission crash
        assert outcomes == ({"ok", CRASH} if workload == "ray-sweep" else {"ok"})
    assert all(entry["fields"]["pass"] for entry in reference.values())


def test_ray_sweep_reaches_the_emission_crash(reference):
    for seed in SEEDS:
        ops = workloads.generate("ray-sweep", seed)
        golden = [
            op for op in ops
            if op["config"].get("base") == workloads.GOLDEN
            and op["config"]["tree"]["rows"] == ["11", "11"]
            and op["config"]["target"] == "tree-entropy"
        ]
        assert golden and all(op["config"]["n"] >= 14 for op in golden)
        assert reference[workloads.op_id(golden[0])]["outcome"] == CRASH


def test_tree_classification_matches_the_program():
    for rows, expanding in workloads.TREES.values():
        matrix = trees.AdjacencyMatrix.from_rows(rows)
        assert trees.expanding_number(matrix, 2).expandable == expanding


def test_ray_configs_meet_preconditions():
    for op in workloads.pool("ray-sweep"):
        cfg = op["config"]
        if "tree" not in cfg:
            continue
        matrix = trees.AdjacencyMatrix.from_rows(cfg["tree"]["rows"])
        expanding = trees.expanding_number(matrix, 2).expandable
        if cfg["target"] == "bip":
            assert expanding
        if cfg["target"] == "density" and cfg["set"]["generator"] == "sink_lift":
            assert not expanding
            trees.sink_decomposition(matrix)
            assert words.is_hereditary_upto(words.ShiftSpec1D.from_json(cfg["base"]), 6)
        if "base" in cfg:
            treeshifts.make_tree_shift(matrix, words.ShiftSpec1D.from_json(cfg["base"]))


def test_grid_windows_within_cap():
    for op in workloads.pool("grid-sweep"):
        cfg = op["config"]
        r = cfg["spec"]["alphabet"]
        side = cfg.get("kmax")
        k1, k2 = (side, side) if side else (cfg["k1"], cfg["k2"])
        spec = grids.ShiftSpec2D.from_json(cfg["spec"])
        # the full shift on the window bounds the count; count where it does not
        if r ** (k1 * k2) > DEFAULT_CAP:
            assert grids.count_blocks_2d(spec, k1, k2) <= DEFAULT_CAP
        if cfg["target"] == "indep2d":
            assert r == 2 and grids.count_blocks_2d(spec, k1, k2) > 1


def test_relabeling_renames_symbols_consistently():
    cfg = {"target": "fr", "symbol": 0, "kmax": 2,
           "spec": {"alphabet": 3, "forbidden": [{"dims": [1, 2], "cells": "01"}]}}
    out = workloads._relabel(cfg, (2, 0, 1))
    assert out["symbol"] == 2 and out["spec"]["forbidden"][0]["cells"] == "20"
    base = {"alphabet": 2, "kind": "forbidden", "forbidden": ["011", "10"]}
    assert workloads._relabel({"base": base}, (1, 0))["base"]["forbidden"] == ["01", "100"]
    moved = workloads._relabel({"matrix": ["110", "011", "001"]}, (1, 2, 0))
    assert moved["matrix"] == ["100", "011", "101"]
