"""Seeded op lists for the benchmark workloads.

Every op a run can draw comes from a fixed pool.  ``CATALOG_SEED`` builds
the same catalog of specs on every machine.  A run uses every catalog
group, in catalog order; its seed picks each group's symbol relabeling.
The order stays fixed because it decides which ops pay for the garbage
collector's full passes over the blocks earlier ops left alive, and a
seeded order moved those pauses of tens of milliseconds from op to op.
``reference.json`` records the seed-commit outcome of every op in the
pool, so every run seed is checkable.

Why the workloads look the way they do:

* ``reproduce`` replays the six canned checks, each in a fresh interpreter,
  which is what a user of ``shiftlab reproduce`` pays.  thm4 is the
  many-small-calls use of treeshifts (one spec checked 32,768 times).
* ``grid-sweep`` is block enumeration and shattering only.  Configs of one
  spec reuse window shapes, so a block cache, a transfer-matrix engine and
  the memory held by materialized blocks all show.
* ``ray-sweep`` is words, trees and treeshifts only: many distinct specs,
  each used a few times (the opposite of thm4), plus deep series that
  expose the prefix recounts.  Depths reach the 4,300-digit ``str(int)``
  crash on purpose; those ops count as failures until it is fixed.

Random specs are filtered into a band of block counts or automaton sizes,
deep series are sized from a per-spec work estimate, and relabeling
symbols leaves the work of an op unchanged.  So the seed moves the inputs
without moving the cost of a run.  The filters read only the specs and
never call the program.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random

CATALOG_SEED = 20241201

WORKLOADS = ("reproduce", "grid-sweep", "ray-sweep")

REPRODUCE_KEYS = ("thm1", "thm3", "thm4", "thm5", "thm6", "cor1")

HARD_SQUARE = {
    "alphabet": 2,
    "forbidden": [{"dims": [1, 2], "cells": "11"}, {"dims": [2, 1], "cells": "11"}],
}
FULL2 = {"alphabet": 2, "forbidden": []}
FULL3 = {"alphabet": 3, "forbidden": []}
ZEROS2 = {"alphabet": 2, "forbidden": [{"dims": [1, 1], "cells": "1"}]}
GOLDEN = {"alphabet": 2, "kind": "forbidden", "forbidden": ["11"]}

# (rows, expanding); the classification is checked against the program in
# the benchmark's tests
TREES = {
    "binary": (["11", "11"], True),
    "golden": (["11", "10"], True),
    "ternary": (["111", "111", "111"], True),
    "two-of-three": (["110", "011", "101"], True),
    "comb": (["11", "01"], False),
    "fan": (["111", "010", "001"], False),
    "chain": (["110", "011", "001"], False),
}

# Per-op work budgets for the sized deep series, in units of the work
# estimates below (roughly one automaton step each).
DEEP_1D_WORK = 120_000
DEEP_TREE_WORK = 60_000

# Largest automaton step (states x symbols x forbidden-word scan) of a
# random 1D base; heavier bases would dominate a run by themselves.
MAX_BASE_WORK = 400

GRID_BINARY_GROUPS, GRID_TERNARY_GROUPS = 12, 6
RAY_GROUPS = 28


def op_id(op: dict) -> str:
    """Stable name of an op: its argv, or a digest of its config."""
    if "config" not in op:
        return " ".join(op["argv"])
    blob = json.dumps(op["config"], sort_keys=True, separators=(",", ":"))
    return "run:" + hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


# ---------------------------------------------------------------------------
# 2D specs


def _admissible_2d(r: int, patterns: list, k1: int, k2: int) -> int:
    """Brute-force count of k1 x k2 blocks avoiding every pattern."""
    checks = []
    for pat in patterns:
        p1, p2 = pat["dims"]
        cells = [int(c) for c in pat["cells"]]
        for i in range(k1 - p1 + 1):
            for j in range(k2 - p2 + 1):
                idx = [(i + a) * k2 + (j + b) for a in range(p1) for b in range(p2)]
                checks.append((idx, cells))
    return sum(
        1
        for block in itertools.product(range(r), repeat=k1 * k2)
        if all(any(block[x] != c for x, c in zip(idx, cells)) for idx, cells in checks)
    )


def _random_2d(rng: random.Random, r: int, lo: int, hi: int, window) -> dict:
    """A random spec of 1x2, 2x1 and 2x2 patterns, its window count in [lo, hi]."""
    while True:
        patterns = []
        for _ in range(rng.randint(1, 3)):
            p1, p2 = rng.choice(((1, 2), (2, 1), (2, 2)))
            cells = "".join(str(rng.randrange(r)) for _ in range(p1 * p2))
            patterns.append({"dims": [p1, p2], "cells": cells})
        if lo <= _admissible_2d(r, patterns, *window) <= hi:
            return {"alphabet": r, "forbidden": patterns}


def _grid_group(spec: dict, e2d, kmax: int, symbol: int, indep) -> list:
    ops = [
        {"target": "entropy2d", "spec": spec, "k1": e2d[0], "k2": e2d[1]},
        {"target": "fr", "spec": spec, "symbol": symbol, "kmax": kmax},
    ]
    if indep is not None:
        ops.append({"target": "indep2d", "spec": spec, "k1": indep[0], "k2": indep[1]})
    return ops


def _grid_catalog() -> list:
    # the named specs stay as they are; random ones may be relabeled
    catalog = [
        (_grid_group(HARD_SQUARE, (5, 5), 4, 1, (4, 4)), False),
        (_grid_group(FULL2, (4, 4), 3, 1, (3, 3)), False),
        (_grid_group(FULL3, (3, 3), 2, 2, None), False),
        # zeros-only has one block per window, so no independence witness
        (_grid_group(ZEROS2, (5, 5), 4, 0, None), False),
    ]
    rng = random.Random(CATALOG_SEED)
    for _ in range(GRID_BINARY_GROUPS):
        spec = _random_2d(rng, 2, 48, 160, (3, 3))
        e2d = rng.choice(((3, 4), (4, 3), (4, 4)))
        indep = rng.choice(((3, 3), (2, 4), (4, 2)))
        catalog.append((_grid_group(spec, e2d, rng.choice((2, 3)), rng.randrange(2), indep), True))
    for _ in range(GRID_TERNARY_GROUPS):
        spec = _random_2d(rng, 3, 150, 450, (2, 3))
        e2d = rng.choice(((2, 3), (3, 2), (3, 3)))
        catalog.append((_grid_group(spec, e2d, 2, rng.randrange(3), None), True))
    return catalog


# ---------------------------------------------------------------------------
# ray specs


def _has_factor(word: tuple, forbidden: list) -> bool:
    return any(
        word[i:i + len(f)] == f for f in forbidden for i in range(len(word) - len(f) + 1)
    )


def _base_states(base: dict) -> int:
    """Automaton states of a 1D base: admissible words of the memory length."""
    r = base["alphabet"]
    if base["kind"] == "at_most_k":
        return base["count"] + 1
    forbidden = [tuple(int(c) for c in w) for w in base["forbidden"]]
    memory = max(len(w) for w in forbidden) - 1
    return sum(
        1
        for m in range(memory + 1)
        for w in itertools.product(range(r), repeat=m)
        if not _has_factor(w, forbidden)
    )


def _base_work(base: dict) -> int:
    """Work of one automaton step over all states and symbols."""
    scan = len(base.get("forbidden", ())) + 1
    return _base_states(base) * base["alphabet"] * scan


def _random_forbidden(rng: random.Random, hereditary: bool) -> dict:
    """Forbidden words of length 2..5 whose language keeps a constant word.

    A hereditary base is made by closing each word upward coordinatewise:
    lowering a symbol can then never create a forbidden factor.
    """
    while True:
        r = rng.choice((2, 3))
        words = set()
        for _ in range(rng.randint(1, 3)):
            length = rng.randint(2, 5)
            w = tuple(rng.randrange(r) for _ in range(length))
            if hereditary:
                words.update(
                    up for up in itertools.product(range(r), repeat=length)
                    if all(u >= x for u, x in zip(up, w))
                )
            else:
                words.add(w)
        # a constant word c c c ... survives unless some forbidden word is c^j
        if any(all(set(w) != {c} for w in words) for c in range(r)):
            texts = sorted("".join(map(str, w)) for w in words)
            return {"alphabet": r, "kind": "forbidden", "forbidden": texts}


def _random_base(rng: random.Random, hereditary: bool) -> dict:
    """A random 1D base whose automaton step costs at most ``MAX_BASE_WORK``."""
    while True:
        if rng.random() < 0.3:
            r = rng.choice((2, 3))
            symbol = r - 1 if hereditary else rng.randrange(r)
            base = {"alphabet": r, "kind": "at_most_k", "symbol": symbol,
                    "count": rng.randint(1, 3)}
        else:
            base = _random_forbidden(rng, hereditary)
        if _base_work(base) <= MAX_BASE_WORK:
            return base


def _random_step_matrix(rng: random.Random) -> list:
    r = rng.choice((2, 3))
    rows = []
    for _ in range(r):
        row = [rng.randrange(2) for _ in range(r)]
        row[rng.randrange(r)] = 1  # no dead symbol
        rows.append("".join(map(str, row)))
    return rows


def _sized_depth(work_per_step: int, budget: int, lo: int, hi: int) -> int:
    """Depth n whose n^2 prefix recounts cost about ``budget`` units."""
    return max(lo, min(hi, int((budget / work_per_step) ** 0.5)))


def _ray_group(rng: random.Random, tree_name: str) -> tuple[list, bool]:
    rows, expanding = TREES[tree_name]
    tree = {"d": len(rows), "rows": rows}
    # sink lifts need a hereditary base, so unexpandable trees may get one
    hereditary = not expanding and rng.random() < 0.5
    if rng.random() < 0.25:
        matrix = _random_step_matrix(rng)
        constraint = {"matrix": matrix}
        step_work = (len(matrix) + 1) * len(matrix)
        hereditary = False  # sink lifts take word bases only
    else:
        base = _random_base(rng, hereditary)
        constraint = {"base": base}
        step_work = _base_work(base)
    ops = []
    if "base" in constraint:
        deep = _sized_depth(step_work, DEEP_1D_WORK, 24, 400)
        ops.append({"target": "entropy1d", "spec": base, "n": rng.randint(4, 16)})
        ops.append({"target": "entropy1d", "spec": base, "n": deep})
    if expanding:
        # the exact counts pass 4,300 digits within these depths
        top = {2: 14, 3: 9}[len(rows)]
        ops.append({"target": "tree-entropy", "tree": tree, **constraint,
                    "n": rng.randint(top - 5, top)})
        ops.append({"target": "surface", "tree": tree, **constraint,
                    "n": rng.randint(2, top - 4)})
        ops.append({"target": "bip", "tree": tree, **constraint,
                    "l": rng.choice((1, 1, 2)), "n": rng.randint(2, 4)})
    else:
        n = _sized_depth(step_work * len(rows), DEEP_TREE_WORK, 12, 160)
        ops.append({"target": "tree-entropy", "tree": tree, **constraint, "n": n})
        ops.append({"target": "surface", "tree": tree, **constraint,
                    "n": rng.randint(4, 12)})
    start = rng.randint(2, 6)
    vset = {"generator": "level_parity", "parity": rng.randrange(2)}
    if hereditary:
        vset = {"generator": "sink_lift",
                "positions": sorted(rng.sample(range(1, 40), rng.randint(3, 12)))}
    ops.append({"target": "density", "tree": tree, **constraint, "set": vset,
                "n_range": [start, start + rng.randint(10, 40), rng.randint(1, 3)]})
    # relabeling symbols would break the order a sink lift relies on
    return ops, not hereditary


def _ray_catalog() -> list:
    binary = {"d": 2, "rows": TREES["binary"][0]}
    # the known emission crash: at n = 14 the count passes 4,300 digits
    named = [
        {"target": "entropy1d", "spec": GOLDEN, "n": 300},
        {"target": "tree-entropy", "tree": binary, "base": GOLDEN, "n": 14},
        {"target": "surface", "tree": binary, "base": GOLDEN, "n": 10},
        {"target": "bip", "tree": binary, "base": GOLDEN, "l": 1, "n": 4},
    ]
    rng = random.Random(CATALOG_SEED + 1)
    names = sorted(TREES)
    return [(named, False)] + [
        _ray_group(rng, names[i % len(names)]) for i in range(RAY_GROUPS)
    ]


# ---------------------------------------------------------------------------
# symbol relabeling


def _map_symbols(text: str, perm: tuple) -> str:
    return "".join(str(perm[int(c)]) for c in text)


def _relabel(config: dict, perm: tuple) -> dict:
    """The same config with symbol s renamed perm[s] everywhere."""
    out = dict(config)
    for key in ("spec", "base"):
        spec = out.get(key)
        if spec is None:
            continue
        if "kind" not in spec:
            out[key] = {**spec, "forbidden": [
                {**p, "cells": _map_symbols(p["cells"], perm)} for p in spec["forbidden"]
            ]}
        elif spec["kind"] == "at_most_k":
            out[key] = {**spec, "symbol": perm[spec["symbol"]]}
        else:
            out[key] = {**spec, "forbidden": sorted(
                _map_symbols(w, perm) for w in spec["forbidden"]
            )}
    if "matrix" in out:
        inv = {p: s for s, p in enumerate(perm)}
        rows = out["matrix"]
        out["matrix"] = [
            "".join(rows[inv[a]][inv[b]] for b in range(len(perm))) for a in range(len(perm))
        ]
    if "symbol" in out:
        out["symbol"] = perm[out["symbol"]]
    return out


def _alphabet(config: dict) -> int:
    spec = config.get("spec") or config.get("base")
    return spec["alphabet"] if spec is not None else len(config["matrix"])


def _variants(group: list, relabel: bool) -> list:
    """The group under every symbol permutation (identity first), or as is."""
    if not relabel:
        return [group]
    perms = itertools.permutations(range(_alphabet(group[0])))
    return [[_relabel(c, perm) for c in group] for perm in perms]


# ---------------------------------------------------------------------------
# selection


def _catalog(workload: str) -> list:
    """(group, relabel) pairs; a group is the configs of one spec."""
    if workload == "grid-sweep":
        return _grid_catalog()
    if workload == "ray-sweep":
        return _ray_catalog()
    raise ValueError(f"unknown workload {workload!r}")


def generate(workload: str, seed: int) -> list:
    """The op list of one run: the same (workload, seed) gives the same list.

    Every run uses every catalog group in catalog order, each under a
    seeded symbol relabeling.  Relabeling leaves the work of an op
    unchanged, so the seed moves the inputs without moving the run's cost.
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload == "reproduce":
        keys = list(REPRODUCE_KEYS)
        rng.shuffle(keys)
        return [{"argv": ["reproduce", k]} for k in keys]
    groups = [rng.choice(_variants(g, relabel)) for g, relabel in _catalog(workload)]
    return [{"config": c} for group in groups for c in group]


def pool(workload: str) -> list:
    """Every op any seed of the workload can draw."""
    if workload == "reproduce":
        return [{"argv": ["reproduce", k]} for k in REPRODUCE_KEYS]
    return [
        {"config": c}
        for g, relabel in _catalog(workload)
        for variant in _variants(g, relabel)
        for c in variant
    ]
