"""Experiment configs, canned reproduction runs, and deterministic reports.

Every run produces a Report whose JSON serialization is byte-identical
across repeated invocations with the same config: counts are emitted as
decimal strings (no float rounding of big integers), floating estimates
are rounded to 12 significant digits (an infinite one is the string "-inf",
so a report is strict JSON), keys are sorted, and wall-clock data is
attached only when explicitly requested.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
from fractions import Fraction

from .errors import ConfigError, DomainError
from .records import record
from . import words
from . import grids
from . import trees
from . import treeshifts

def _fmt_float(x: float) -> float:
    """Round to 12 significant digits so reports are reproducible bytes."""
    return float(f"{x:.12g}")


def _int_text(v: int) -> str:
    """Exact decimal digits of an int >= 0; str() refuses past 4,300 by default."""
    if v.bit_length() <= 2000:  # about 600 digits, under the lowest limit allowed
        return str(v)
    half = v.bit_length() * 3 // 20  # about half the decimal digits
    high, low = divmod(v, 10 ** half)
    return _int_text(high) + _int_text(low).zfill(half)


def _fmt_value(v: object) -> object:
    if isinstance(v, bool):
        return v
    if isinstance(v, int):
        return _int_text(v)
    if isinstance(v, float):
        return _fmt_float(v) if math.isfinite(v) else str(v)
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    if isinstance(v, (list, tuple)):
        return [_fmt_value(x) for x in v]
    return v


@record(frozen=False)
class Assertion:
    name: str
    invariant: str
    passed: bool

    def to_json(self) -> dict:
        return {"name": self.name, "invariant": self.invariant, "pass": self.passed}


@record(frozen=False)
class Report:
    kind: str
    name: str
    config_hash: str
    seed: int
    columns: tuple
    rows: list
    summary: dict
    assertions: list
    wall_clock_ms: float | None = None

    @property
    def passed(self) -> bool:
        return all(a.passed for a in self.assertions)

    def to_json_obj(self) -> dict:
        obj = {
            "kind": self.kind,
            "name": self.name,
            "config_hash": self.config_hash,
            "seed": self.seed,
            "columns": list(self.columns),
            "rows": [
                {k: _fmt_value(v) for k, v in row.items()} for row in self.rows
            ],
            "summary": {k: _fmt_value(v) for k, v in self.summary.items()},
            "assertions": [a.to_json() for a in self.assertions],
            "pass": self.passed,
        }
        if self.wall_clock_ms is not None:
            obj["wall_clock_ms"] = _fmt_float(self.wall_clock_ms)
        return obj

    def json_bytes(self) -> bytes:
        return (
            json.dumps(self.to_json_obj(), sort_keys=True, indent=2, allow_nan=False) + "\n"
        ).encode("utf-8")

    def csv_text(self) -> str:
        """Lossy tabular view: header plus the row fields, nothing else.  A list
        cell joins its items with spaces; a comma or a quote gets RFC 4180 quotes."""
        import csv  # here, so a JSON report does not pay for the import
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(self.columns)
        for row in self.rows:
            cells = (_fmt_value(row.get(col, "")) for col in self.columns)
            writer.writerow(" ".join(map(str, v)) if isinstance(v, list) else str(v) for v in cells)
        return out.getvalue()


def _config_hash(obj: object) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


@record
class ExperimentConfig:
    target: str
    params: dict
    seed: int = 0

    @classmethod
    def from_json(cls, obj: object) -> "ExperimentConfig":
        if not isinstance(obj, dict):
            raise ConfigError("config: expected a JSON object")
        target = obj.get("target")
        if target not in TARGETS:
            raise ConfigError(
                f"target: expected one of {', '.join(TARGETS)}, got {target!r}"
            )
        seed = obj.get("seed", 0)
        if not words.is_int(seed):
            raise ConfigError("seed: expected an integer")
        params = {k: v for k, v in obj.items() if k not in ("target", "seed")}
        return cls(target=target, params=params, seed=seed)


def _require(params: dict, name: str) -> object:
    if name not in params:
        raise ConfigError(f"{name}: missing required field")
    return params[name]


def _int_field(params: dict, name: str, lo: int = 1) -> int:
    v = _require(params, name)
    if not words.is_int(v) or v < lo:
        raise ConfigError(f"{name}: expected an integer >= {lo}")
    return v


def _spec_field(params: dict, kind: type) -> object:
    """The config's spec of class ``kind``; a spec of malformed shape raises ConfigError.

    Any other exception from a parser is left to the caller, so a fault in
    shiftlab itself is not reported as a bad config.

    A line or grid spec is the "spec" field; a tree shift spreads over
    the "tree", "base" and "matrix" fields.
    """
    if kind is treeshifts.TreeShiftSpec:
        label, obj = "tree shift", {k: params[k] for k in ("tree", "base", "matrix") if k in params}
        objects = {k: obj[k] for k in ("tree", "base") if k in obj}
    else:
        label, obj = "spec", _require(params, "spec")
        objects = {"spec": obj}
    for name, value in objects.items():
        if not isinstance(value, dict):
            raise ConfigError(f"{name}: expected a JSON object, got {value!r}")
    try:
        return kind.from_json(obj)
    except KeyError as exc:
        raise ConfigError(f"{label}: missing field {exc.args[0]!r}") from exc
    except (TypeError, ValueError, AttributeError) as exc:  # a malformed JSON shape
        raise ConfigError(f"{label}: {exc}") from exc


# ---------------------------------------------------------------------------
# target runners


def _run_entropy1d(params: dict) -> tuple:
    spec = _spec_field(params, words.ShiftSpec1D)
    n = _int_field(params, "n")
    counts = words.block_counts(spec, n)
    rows = []
    fekete = float("inf")
    for m in range(1, n + 1):
        # the same floats as entropy_est_1d(spec, m), from the one count list
        raw = words.log_per_size(counts[m], m)
        fekete = min(fekete, raw)
        rows.append({"n": m, "count": counts[m], "estimate": raw, "fekete_upper": fekete})
    uppers = [row["fekete_upper"] for row in rows]
    monotone = all(b <= a + 1e-12 for a, b in zip(uppers, uppers[1:]))
    summary = {"estimate": raw, "fekete_upper": fekete}
    assertions = [
        Assertion(
            "fekete-nonincreasing",
            "words.entropy_est_1d: the running subadditive upper bound never increases with n",
            monotone,
        )
    ]
    return ("n", "count", "estimate", "fekete_upper"), rows, summary, assertions


def _run_entropy2d(params: dict) -> tuple:
    spec = _spec_field(params, grids.ShiftSpec2D)
    k1 = _int_field(params, "k1")
    k2 = _int_field(params, "k2")
    cnt = {(a, b): count for a, b, count in grids.block_count_windows(spec, k1, k2)}
    rows = [{"k1": a, "k2": b, "count": count, "estimate": words.log_per_size(count, a * b)}
            for (a, b), count in cnt.items()]
    # the same floats as entropy_est_2d(spec, k1, k2), read off the rows
    estimates = [row["estimate"] for row in rows]
    # a window restricted to its two parts, stacked or side by side, is injective
    subadd = all(cnt[a + a2, b] <= cnt[a, b] * cnt[a2, b]
                 for a, b in cnt for a2 in range(1, k1 - a + 1)) and all(
        cnt[a, b + b2] <= cnt[a, b] * cnt[a, b2] for a, b in cnt for b2 in range(1, k2 - b + 1))
    summary = {"estimate": estimates[-1], "fekete_upper": min(estimates)}
    assertions = [
        Assertion(
            "block-subadditivity",
            "grids.count_blocks_2d: stacking windows multiplies the block count at most",
            subadd,
        )
    ]
    return ("k1", "k2", "count", "estimate"), rows, summary, assertions


def _run_fr(params: dict) -> tuple:
    spec = _spec_field(params, grids.ShiftSpec2D)
    symbol = _int_field(params, "symbol", lo=0)
    kmax = _int_field(params, "kmax")
    rows = []
    ratio_at = {}
    windows = grids.max_symbol_windows(spec, symbol, kmax)
    for a, b, top in windows:
        ratio = Fraction(top, a * b)
        ratio_at[(a, b)] = ratio
        rows.append({"k1": a, "k2": b, "max_count": top, "ratio": ratio})
    best_by_k = [
        min(ratio_at[(a, b)] for a in range(1, k + 1) for b in range(1, k + 1))
        for k in range(1, kmax + 1)
    ]
    value = grids.min_fill_ratio(windows)
    noninc = all(
        best_by_k[i + 1] <= best_by_k[i] for i in range(len(best_by_k) - 1)
    )
    summary = {"fr_estimate": value}
    assertions = [
        Assertion(
            "fr-nonincreasing",
            "grids.fr_estimate: widening the window range never raises the minimum fill ratio",
            noninc,
        ),
        Assertion(
            "fr-matches-minimum",
            "grids.fr_estimate equals the minimum ratio over all window shapes up to kmax",
            value == best_by_k[-1],
        ),
    ]
    return ("k1", "k2", "max_count", "ratio"), rows, summary, assertions


def _run_indep2d(params: dict) -> tuple:
    spec = _spec_field(params, grids.ShiftSpec2D)
    k1 = _int_field(params, "k1")
    k2 = _int_field(params, "k2")
    wit = grids.indep_witness_2d(spec, k1, k2)
    cells = [f"{i},{j}" for (i, j) in sorted(wit.J.cells)]
    rows = [{"k1": k1, "k2": k2, "k": wit.k, "witness": cells}]
    ok_indep = grids.is_indep_2d(spec, wit.J, k1, k2)
    summary = {"k": wit.k, "witness": cells}
    assertions = [
        Assertion(
            "witness-independent",
            "grids.indep_witness_2d: the returned cell set is independent in the window",
            ok_indep,
        ),
        Assertion(
            "count-lower-bound",
            "grids: an independent set of size k forces at least 2^k blocks",
            wit.count >= (1 << wit.k),
        ),
    ]
    return ("k1", "k2", "k", "witness"), rows, summary, assertions


def _run_tree_entropy(params: dict) -> tuple:
    ts = _spec_field(params, treeshifts.TreeShiftSpec)
    n = _int_field(params, "n")
    geo = ts.geometry()
    est = treeshifts.tree_entropy_est(ts, n)
    rows = [{"n": m, "count": c, "estimate": words.log_per_size(c, geo.delta_size(m))}
            for m, c in enumerate(est.counts[1:], start=1)]
    summary = {"estimate": est.raw, "running_max_tail": est.running_max_tail}
    assertions = [
        Assertion(
            "tail-dominates-raw",
            "treeshifts.tree_entropy_est: the tail maximum is at least the final raw estimate",
            est.running_max_tail >= est.raw - 1e-12,
        )
    ]
    return ("n", "count", "estimate"), rows, summary, assertions


def _run_surface(params: dict) -> tuple:
    ts = _spec_field(params, treeshifts.TreeShiftSpec)
    n = _int_field(params, "n")
    rows = []
    geo = ts.geometry()
    counts = treeshifts.count_series(ts, n)
    surface = treeshifts.surface_series(ts, n)
    for m in range(1, n + 1):
        # the same floats as surface_entropy_est(ts, m)
        raw = words.log_per_size(surface[m], geo.level_size(m))
        rows.append({"n": m, "count": surface[m], "estimate": raw})
    ok = all(surface[m] <= counts[m] for m in range(1, n + 1))
    summary = {"count": surface[n], "estimate": raw}
    assertions = [
        Assertion(
            "surface-at-most-volume",
            "treeshifts.surface_entropy_est: distinct leaf labelings never exceed full pattern count",
            ok,
        )
    ]
    return ("n", "count", "estimate"), rows, summary, assertions


def _vertex_set_field(params: dict, ts: treeshifts.TreeShiftSpec) -> object:
    obj = _require(params, "set")
    if isinstance(obj, list):
        try:  # ids are read here; ``tree_density`` checks them once, before any depth
            return treeshifts.VertexSet.from_json(obj)
        except DomainError as exc:
            raise ConfigError(f"set: {exc}") from exc
    if isinstance(obj, dict) and obj.get("generator") == "level_parity":
        parity = obj.get("parity")
        if not words.is_int(parity) or parity not in (0, 1):
            raise ConfigError("set.parity: expected 0 or 1")
        return treeshifts.LevelParity(parity)
    if isinstance(obj, dict) and obj.get("generator") == "sink_lift":
        try:
            return treeshifts.sink_lift(ts, obj.get("positions"))
        except DomainError as exc:  # sink_lift reads and checks the positions
            raise ConfigError(f"set.positions: {exc}") from exc
    raise ConfigError(
        "set: expected a list of vertex ids, a level_parity generator, "
        "or a sink_lift generator"
    )


def _run_density(params: dict) -> tuple:
    ts = _spec_field(params, treeshifts.TreeShiftSpec)
    geo = ts.geometry()
    vset = _vertex_set_field(params, ts)
    rng = _require(params, "n_range")
    if (
        not isinstance(rng, list)
        or len(rng) != 3
        or not all(words.is_int(x) for x in rng)
        or rng[0] < 1
        or rng[1] < rng[0]
        or rng[2] < 1
    ):
        raise ConfigError("n_range: expected [start, stop, step] positive integers")
    ns = list(range(rng[0], rng[1] + 1, rng[2]))
    try:  # on checked depths, its one DomainError is a listed id that is no vertex
        dens = treeshifts.tree_density(vset, geo, ns)
    except DomainError as exc:
        raise ConfigError(f"set: {exc}") from exc
    rows = [{"n": n, "count": count, "ratio": ratio}
            for n, count, ratio in zip(ns, dens.counts, dens.ratios)]
    summary = {"upper": dens.upper, "lower": dens.lower}
    assertions = [
        Assertion(
            "bounds-ordered",
            "treeshifts.tree_density: the tail upper estimate dominates the tail lower estimate",
            dens.upper >= dens.lower - 1e-12,
        )
    ]
    return ("n", "count", "ratio"), rows, summary, assertions


def _run_bip(params: dict) -> tuple:
    ts = _spec_field(params, treeshifts.TreeShiftSpec)
    l = _int_field(params, "l")
    n = _int_field(params, "n")
    res = treeshifts.bip_search(ts, l, n)
    rows = []
    assertions = []
    if res is None:
        summary = {"found": False}
        assertions.append(
            Assertion(
                "no-witness-no-blocks",
                "treeshifts.bip_search: absence of a witness coincides with at most one boundary pattern",
                treeshifts.surface_entropy_est(ts, n).count <= 1,
            )
        )
    else:
        size = len(res.S_n)
        count = treeshifts.count_patterns(ts, n)
        rows.append(
            {
                "n": n,
                "size": size,
                "ratio": res.ratio,
                "certified": res.certified,
            }
        )
        summary = {"found": True, "size": size, "ratio": res.ratio,
                   "certified": res.certified}
        assertions.append(
            Assertion(
                "witness-independent",
                "treeshifts.bip_search: the returned boundary set is independent",
                treeshifts.is_indep_tree(ts, res.S_n, n),
            )
        )
        assertions.append(
            Assertion(
                "count-lower-bound",
                "treeshifts: an independent boundary set of size s forces at least 2^s patterns",
                count >= ts.alphabet_size ** size,
            )
        )
    return ("n", "size", "ratio", "certified"), rows, summary, assertions


# ---------------------------------------------------------------------------
# canned reproduction runs


def _catalog() -> list:
    """Four-spec catalog over the binary tree used by the equivalence checks."""
    bt = trees.AdjacencyMatrix.binary_tree()
    full = treeshifts.make_tree_shift(bt, words.ShiftSpec1D.full(2))
    upper = treeshifts.make_tree_shift(bt, [[1, 1], [0, 1]])
    golden = treeshifts.make_tree_shift(bt, words.ShiftSpec1D.golden_mean())
    zeros = treeshifts.make_tree_shift(bt, words.ShiftSpec1D.zeros_only())
    return [("full", full), ("upper-triangular", upper), ("golden", golden),
            ("zeros", zeros)]


def _reproduce_thm1(depth: int) -> tuple:
    comb = trees.AdjacencyMatrix.comb()
    golden = words.ShiftSpec1D.golden_mean()
    ts = treeshifts.make_tree_shift(comb, golden)
    geo = ts.geometry()

    step = max(1, depth // 6)
    ns = sorted(set(list(range(max(2, step), depth + 1, step)) + [depth]))
    chains = treeshifts.entropy_chain_series(ts, depth)
    raws = [chains[m].lhs for m in ns]
    rows = [{"n": m, "count": chains[m].count, "estimate": raw} for m, raw in zip(ns, raws)]

    monotone = all(raws[i + 1] <= raws[i] + 1e-12 for i in range(len(raws) - 1))
    chain_ok = all(chains[m].holds for m in ns)

    sink_identity = True
    for m in range(1, depth + 1):
        a = trees.entering_counts(comb, m)
        if sum((l + 1) * a[l] for l in range(len(a))) != geo.delta_size(m):
            sink_identity = False

    big = max(4 * depth, 60)
    lift = treeshifts.sink_lift(ts, range(1, big + 2, 2))
    dens = treeshifts.tree_density(lift, geo, list(range(big // 2, big + 1, 2)))
    density_ok = abs(dens.upper - 0.5) <= 0.02 and abs(dens.lower - 0.5) <= 0.02

    # one check covers every truncation: an assignment on the Delta_m part
    # extends to a Delta_top labeling, which restricts to a Delta_m one
    top = min(10, depth)
    indep_ok = treeshifts.is_indep_tree(ts, lift.members_in(geo, top), top)

    base = words.ShiftSpec1D.at_most_k(2, symbol=1, count=1)
    ts_k = treeshifts.make_tree_shift(comb, base)
    # the walk's sizes are exact maxima, so every ratio is certified
    sizes = treeshifts.max_indep_sizes(ts_k, max(12, min(depth, 40)))
    ratios = [Fraction(size, geo.delta_size(m)) for m, size in enumerate(sizes)]
    near = ratios[1:min(10, depth) + 1]
    decreasing = all(near[i + 1] < near[i] for i in range(len(near) - 1))
    vanishing = decreasing and ratios[-1] < 0.15
    j_small = all(res.J == 1 for res in words.max_indep_J_series(base, 12))

    z = treeshifts.make_tree_shift(comb, words.ShiftSpec1D.zeros_only())
    zd = min(depth, 12)
    zero_tree = treeshifts.tree_entropy_est(z, zd).raw
    zero_line = words.entropy_est_1d(words.ShiftSpec1D.zeros_only(), zd).raw
    zeros_ok = abs(zero_tree) < 1e-12 and abs(zero_line) < 1e-12

    summary = {
        "estimate": raws[-1],
        "density_upper": dens.upper,
        "density_lower": dens.lower,
        "max_indep_far_ratio": ratios[-1],
    }
    assertions = [
        Assertion(
            "entropy-monotone",
            "treeshifts.tree_entropy_est: sampled estimates never increase with depth",
            monotone,
        ),
        Assertion(
            "entropy-chain",
            "treeshifts.entropy_chain: the sink-weighted line bound stays below the tree estimate",
            chain_ok,
        ),
        Assertion(
            "sink-level-identity",
            "trees.entering_counts: weighted entering counts add up to the full vertex count",
            sink_identity,
        ),
        Assertion(
            "sink-lift-density",
            "treeshifts.sink_lift: the lifted odd-position set has density within 0.02 of one half",
            density_ok,
        ),
        Assertion(
            "sink-lift-independent",
            "treeshifts.is_indep_tree: every truncation of the lifted set is independent",
            indep_ok,
        ),
        Assertion(
            "max-indep-vanishing",
            "treeshifts.max_indep_est: certified ratios decrease and drop below 0.15",
            vanishing,
        ),
        Assertion(
            "line-witness-stalls",
            "words.max_indep_J: the single-symbol-budget base never admits two independent sites",
            j_small,
        ),
        Assertion(
            "zero-base-zero-entropy",
            "degenerate base: both the line and tree estimates are exactly zero",
            zeros_ok,
        ),
    ]
    return ("n", "count", "estimate"), rows, summary, assertions


def _reproduce_thm3(depth: int) -> tuple:
    spec = grids.ShiftSpec2D.hard_square()
    rows = []
    ok_wit = True
    ok_lower = True
    for k in range(1, depth + 1):
        if k >= 2:
            wit = grids.indep_witness_2d(spec, k, k)
            count = wit.count
            if wit.k < 2:
                ok_wit = False
            if not grids.is_indep_2d(spec, wit.J, k, k):
                ok_wit = False
            if count < (1 << wit.k):
                ok_lower = False
        else:
            count = grids.count_blocks_2d(spec, k, k)
        rows.append({"k": k, "count": count, "estimate": words.log_per_size(count, k * k)})
    final = rows[-1]["estimate"]
    summary = {"estimate": final}
    assertions = [
        Assertion(
            "entropy-positive",
            "grids.entropy_est_2d: the adjacency-free shift keeps entropy density above 0.35",
            final >= 0.35,
        ),
        Assertion(
            "witness-grows",
            "grids.indep_witness_2d: every window of side at least 2 yields an independent pair or better",
            ok_wit,
        ),
        Assertion(
            "count-lower-bound",
            "grids: an independent set of size k forces at least 2^k blocks",
            ok_lower,
        ),
    ]
    return ("k", "count", "estimate"), rows, summary, assertions


def _reproduce_thm4(depth: int) -> tuple:
    bt = trees.AdjacencyMatrix.binary_tree()
    ts = treeshifts.make_tree_shift(bt, [[1, 1], [0, 1]])
    geo = ts.geometry()

    nmax = min(depth, 8)
    est = treeshifts.tree_entropy_est(ts, nmax)
    counts = est.counts
    raw = est.raw
    rows = [
        {"n": m, "count": c, "estimate": words.log_per_size(c, geo.delta_size(m))}
        for m, c in enumerate(counts)
    ]
    recurrence = all(
        counts[m] == 1 + counts[m - 1] ** 2 for m in range(1, nmax + 1)
    )

    target = 0.5 * math.log(2.0)

    law_ok = set(treeshifts.subset_census(ts, 3)) <= {(True, True), (False, False)}

    summary = {"estimate": raw, "entropy_floor": 0.34}
    assertions = [
        Assertion(
            "count-recurrence",
            "treeshifts.count_patterns: counts obey c_n = 1 + c_{n-1}^2 on the binary tree",
            recurrence,
        ),
        Assertion(
            "entropy-floor",
            "treeshifts.tree_entropy_est: the estimate stays at or above 0.34, near (1/2)log 2",
            raw >= 0.34 and abs(raw - target) < 0.1,
        ),
        Assertion(
            "antichain-law",
            "treeshifts.is_indep_tree: a set is independent exactly when no member is an ancestor of another",
            law_ok,
        ),
    ]
    return ("n", "count", "estimate"), rows, summary, assertions


def _reproduce_thm5(depth: int) -> tuple:
    rows = []
    ok_lower = True
    ok_ratio = True
    found_any = False
    for name, ts in _catalog():
        res = treeshifts.bip_search(ts, 1, depth)
        if res is None:
            rows.append({"spec": name, "size": 0, "ratio": 0.0, "found": False})
            continue
        found_any = True
        size = len(res.S_n)
        count = treeshifts.count_patterns(ts, depth)
        if count < (1 << size):
            ok_lower = False
        if res.ratio < 0.25:
            ok_ratio = False
        rows.append({"spec": name, "size": size, "ratio": res.ratio, "found": True})
    summary = {"specs": len(rows)}
    assertions = [
        Assertion(
            "count-lower-bound",
            "treeshifts.bip_search: a boundary witness of size s forces at least 2^s patterns",
            found_any and ok_lower,
        ),
        Assertion(
            "ratio-floor",
            "treeshifts.bip_search: every found witness covers at least a quarter of the boundary",
            ok_ratio,
        ),
    ]
    return ("spec", "size", "ratio", "found"), rows, summary, assertions


def _reproduce_thm6(depth: int) -> tuple:
    rows = []
    ok = True
    for name, ts in _catalog():
        res = treeshifts.bip_search(ts, 1, depth)
        surf = treeshifts.surface_entropy_est(ts, depth)
        has_bip = res is not None
        has_surface = surf.raw > 1e-2
        if has_bip != has_surface:
            ok = False
        rows.append(
            {
                "spec": name,
                "bip": has_bip,
                "surface_estimate": surf.raw,
                "ratio": res.ratio if res else 0.0,
            }
        )
    summary = {"specs": len(rows)}
    assertions = [
        Assertion(
            "bip-iff-surface",
            "treeshifts: a positive-fraction boundary witness exists exactly when surface entropy is positive",
            ok,
        )
    ]
    return ("spec", "bip", "surface_estimate", "ratio"), rows, summary, assertions


def _reproduce_cor1(depth: int) -> tuple:
    rows = []
    ok = True
    for name, ts in _catalog():
        ent = treeshifts.tree_entropy_est(ts, depth)
        surf = treeshifts.surface_entropy_est(ts, depth)
        pos_ent = ent.raw > 1e-2
        pos_surf = surf.raw > 1e-2
        if pos_ent != pos_surf:
            ok = False
        rows.append(
            {
                "spec": name,
                "entropy_estimate": ent.raw,
                "surface_estimate": surf.raw,
            }
        )
    summary = {"specs": len(rows)}
    assertions = [
        Assertion(
            "entropy-iff-surface",
            "treeshifts: positive pattern entropy coincides with positive surface entropy",
            ok,
        )
    ]
    return ("spec", "entropy_estimate", "surface_estimate"), rows, summary, assertions


# key -> (reproducer, default depth)
_REPRODUCERS = {
    "thm1": (_reproduce_thm1, 24),
    "thm3": (_reproduce_thm3, 4),
    "thm4": (_reproduce_thm4, 6),
    "thm5": (_reproduce_thm5, 6),
    "thm6": (_reproduce_thm6, 6),
    "cor1": (_reproduce_cor1, 6),
}

REPRODUCE_KEYS = tuple(_REPRODUCERS)


def reproduce(key: str, depth: int | None = None, seed: int = 0) -> Report:
    """Run one canned check suite and return its deterministic report."""
    if key not in REPRODUCE_KEYS:
        raise ConfigError(
            f"reproduce key: expected one of {', '.join(REPRODUCE_KEYS)}, got {key!r}"
        )
    reproducer, default_depth = _REPRODUCERS[key]
    if depth is None:
        depth = default_depth
    if not words.is_int(depth) or depth < 2:
        raise ConfigError("depth: expected an integer >= 2")
    columns, rows, summary, assertions = reproducer(depth)
    cfg_obj = {"target": "reproduce", "theorem": key, "depth": depth, "seed": seed}
    summary = dict(summary)
    summary["depth"] = depth
    return Report(
        kind="reproduce",
        name=key,
        config_hash=_config_hash(cfg_obj),
        seed=seed,
        columns=columns,
        rows=rows,
        summary=summary,
        assertions=assertions,
    )


_RUNNERS = {
    "entropy1d": _run_entropy1d,
    "entropy2d": _run_entropy2d,
    "fr": _run_fr,
    "indep2d": _run_indep2d,
    "tree-entropy": _run_tree_entropy,
    "surface": _run_surface,
    "density": _run_density,
    "bip": _run_bip,
}

TARGETS = (*_RUNNERS, "reproduce")


def run_config(cfg: ExperimentConfig) -> Report:
    """Dispatch one experiment config and return its report."""
    if cfg.target == "reproduce":
        key = cfg.params.get("theorem")
        depth = cfg.params.get("depth")
        if depth is not None and not words.is_int(depth):
            raise ConfigError("depth: expected an integer")
        return reproduce(key, depth=depth, seed=cfg.seed)
    runner = _RUNNERS.get(cfg.target)
    if runner is None:
        raise ConfigError(f"target: unknown target {cfg.target!r}")
    columns, rows, summary, assertions = runner(cfg.params)
    cfg_obj = {"target": cfg.target, "seed": cfg.seed, **cfg.params}
    return Report(
        kind="run",
        name=cfg.target,
        config_hash=_config_hash(cfg_obj),
        seed=cfg.seed,
        columns=columns,
        rows=rows,
        summary=summary,
        assertions=assertions,
    )


def emit_report(report: Report, fmt: str = "json", path: str | None = None) -> str:
    """Serialize a report as canonical JSON or a lossy CSV table."""
    if fmt == "json":
        text = report.json_bytes().decode("utf-8")
    elif fmt == "csv":
        text = report.csv_text()
    else:
        raise ConfigError(f"format: expected json or csv, got {fmt!r}")
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text
