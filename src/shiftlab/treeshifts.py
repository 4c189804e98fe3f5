"""Labelings of Markov-Cayley trees constrained along rays.

A tree-shift spec pairs a tree geometry with a base constraint: either a
1D shift spec (every root-to-vertex word must be admissible for it) or a
one-step symbol matrix A (label t may follow label s when A[s][t] = 1).
Patterns live on the truncated tree Delta_n.

Both kinds of base compile once per spec into one ``WordAutomaton``
(a matrix base is the 1D shift forbidding each 2-word st with
A[s][t] = 0), with integer states and the initial state 0.  Counting is
bottom-up dynamic programming keyed by (vertex type, automaton state,
remaining depth); subtree shapes depend only on the last generator, so
the DP is polynomial in depth even when the pattern counts have
thousands of digits.  Surface counting and independence checking refine
the same idea: instead of a single count per state they carry a map
from "set of incoming states this partial labeling tolerates", an int
bitmask over the states, to the number of distinct restrictions
achieving it.  That stays exact while collapsing unpinned subtrees to
one class.

Independence of a vertex set S: every assignment S -> alphabet extends
to a full admissible labeling of Delta_n.  The check compares the exact
number of distinct restrictions to S against r^|S| as big integers.

Each spec owns one memo, a dict the class DP reuses across calls.  It
maps a tolerated-state mask to its per-symbol preimages, (vertex type,
height) to the class map of a subtree without pins, and (pinned, the
children's class maps) to the class map of a node step;
class maps are frozensets of (mask, multiplicity) pairs.  A step does
not depend on where its vertex sits, so the 2^15 subsets of Delta_3 on
the binary tree share about 800 entries.  The memo is cleared whenever
it reaches MEMO_CAP entries, which bounds it and never changes a result.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from . import words as words_mod
from .errors import (
    CapExceeded,
    DeadSymbol,
    DomainError,
    EmptyBase,
    NotHereditary,
    PreconditionViolated,
)
from .trees import AdjacencyMatrix, TreeGeometry, entering_counts, is_expandable, sink_decomposition, sink_level_counts
from .words import ShiftSpec1D, WordAutomaton

CLASS_CAP = 4096
MEMO_CAP = CLASS_CAP
HEREDITARY_HORIZON = 6
ROOT = 0


@dataclass(frozen=True)
class TreeShiftSpec:
    """Tree geometry plus the ray constraint (1D spec or one-step matrix)."""

    matrix: AdjacencyMatrix
    base: ShiftSpec1D | None
    step_matrix: tuple[tuple[int, ...], ...] | None

    @property
    def alphabet_size(self) -> int:
        if self.base is not None:
            return self.base.alphabet.size
        return len(self.step_matrix)

    def geometry(self) -> TreeGeometry:
        return self._geometry

    @cached_property
    def _geometry(self) -> TreeGeometry:
        return TreeGeometry(self.matrix)

    @cached_property
    def _memo(self) -> dict:
        """The class DP's per-spec memo (see the module docstring)."""
        return {}

    @cached_property
    def automaton(self) -> WordAutomaton:
        """The base compiled once; a matrix base forbids each 2-word st with A[s][t] = 0."""
        if self.base is not None:
            return self.base.automaton
        r = len(self.step_matrix)
        return ShiftSpec1D.with_forbidden(
            r, [(s, t) for s in range(r) for t in range(r) if not self.step_matrix[s][t]]
        ).automaton

    def to_json(self) -> dict:
        obj: dict = {"tree": self.matrix.to_json()}
        if self.base is not None:
            obj["base"] = self.base.to_json()
        else:
            obj["matrix"] = ["".join(str(x) for x in row) for row in self.step_matrix]
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "TreeShiftSpec":
        tree = AdjacencyMatrix.from_json(obj["tree"])
        if "base" in obj:
            return make_tree_shift(tree, ShiftSpec1D.from_json(obj["base"]))
        return make_tree_shift(tree, [tuple(int(ch) for ch in row) for row in obj["matrix"]])


def make_tree_shift(geometry, base) -> TreeShiftSpec:
    """Validated spec; raises EmptyBase / DeadSymbol on unusable bases."""
    matrix = geometry.matrix if isinstance(geometry, TreeGeometry) else geometry
    if isinstance(base, ShiftSpec1D):
        ts = TreeShiftSpec(matrix=matrix, base=base, step_matrix=None)
        if not ts.automaton.is_viable():
            raise EmptyBase("base language has no arbitrarily long words")
        return ts
    step = tuple(tuple(int(x) for x in row) for row in base)
    r = len(step)
    if r < 2 or any(len(row) != r for row in step):
        raise DomainError("step matrix must be square with size >= 2")
    for s, row in enumerate(step):
        if not any(row):
            raise DeadSymbol(f"symbol {s} has no successor; rays cannot continue")
    return TreeShiftSpec(matrix=matrix, base=None, step_matrix=step)


def count_patterns(ts: TreeShiftSpec, n: int) -> int:
    """Exact number of admissible labelings of Delta_n."""
    return count_series(ts, n)[n]


def count_series(ts: TreeShiftSpec, n: int) -> list[int]:
    """Exact numbers of admissible labelings of Delta_0 .. Delta_n, from one memo."""
    if n < 0:
        raise DomainError("depth must be >= 0")
    geo = ts.geometry()
    auto = ts.automaton
    memo: dict = {}

    def grow(vertex_type: int, state: int, depth: int) -> int:
        key = (vertex_type, state, depth)
        hit = memo.get(key)
        if hit is not None:
            return hit
        total = 0
        for nxt in auto.table[state]:
            if nxt is None:
                continue
            if depth == 0:
                total += 1
                continue
            prod = 1
            for child in geo.children_digits(vertex_type):
                prod *= grow(child, nxt, depth - 1)
                if prod == 0:
                    break
            total += prod
        memo[key] = total
        return total

    return [grow(ROOT, auto.initial, m) for m in range(n + 1)]


def _log_per_vertex(count: int, size: int) -> float:
    return (math.log(count) if count else float("-inf")) / size


@dataclass(frozen=True)
class TreeEntropy:
    raw: float
    running_max_tail: float


def tree_entropy_est(ts: TreeShiftSpec, n: int) -> TreeEntropy:
    """raw = log count / |Delta_n|; tail max of raw over depths n/2..n."""
    if n < 1:
        raise DomainError("entropy estimate needs n >= 1")
    geo = ts.geometry()
    counts = count_series(ts, n)
    raws = [_log_per_vertex(counts[m], geo.delta_size(m)) for m in range(1, n + 1)]
    tail = raws[(n - 1) // 2:]
    return TreeEntropy(raw=raws[-1], running_max_tail=max(tail))


def _remember(memo: dict, key, value):
    if len(memo) >= MEMO_CAP:
        memo.clear()
    memo[key] = value
    return value


def _preimages(ts: TreeShiftSpec, mask: int) -> tuple[int, ...]:
    """Per symbol s, the states whose s-successor lies in ``mask``."""
    hit = ts._memo.get(mask)
    if hit is None:
        table = ts.automaton.table
        per_symbol = tuple(sum(1 << q for q, row in enumerate(table) if row[s] is not None
                               and mask >> row[s] & 1) for s in range(ts.automaton.size))
        hit = _remember(ts._memo, mask, per_symbol)
    return hit


def _combine_children(children, auto: WordAutomaton) -> dict:
    """Product over children keyed by the intersection of tolerated states.

    Each child is an iterable of (mask, multiplicity) pairs.  Starts from
    the one class of all states, so a leaf, which has no children,
    tolerates everything below it.
    """
    acc = {auto.all_states: 1}
    for child in children:
        nxt: dict = {}
        for c1, m1 in acc.items():
            for c2, m2 in child:
                inter = c1 & c2
                if inter:
                    nxt[inter] = nxt.get(inter, 0) + m1 * m2
        acc = nxt
        if len(acc) > CLASS_CAP:
            raise CapExceeded(f"class dictionary exceeded {CLASS_CAP} entries")
    return acc


def _lift(classes: dict, ts: TreeShiftSpec, pinned) -> dict:
    """Label this vertex and map each class to the incoming states it tolerates.

    A pinned vertex (True) keeps one class per symbol, since its label is
    part of the restriction; a free vertex (False) only needs some symbol
    to work.  A tuple pins part of a symbol: symbols s with one label
    ``pinned[s]`` share a class.
    """
    labels = range(ts.automaton.size) if pinned is True else pinned or (0,) * ts.automaton.size
    out: dict = {}
    for inter, mult in classes.items():
        merged: dict = {}
        for label, compat in zip(labels, _preimages(ts, inter)):
            merged[label] = merged.get(label, 0) | compat
        for compat in merged.values():
            if compat:
                out[compat] = out.get(compat, 0) + mult
    if len(out) > CLASS_CAP:
        raise CapExceeded(f"class dictionary exceeded {CLASS_CAP} entries")
    return out


def _root_count(classes) -> int:
    """Restrictions, among (mask, multiplicity) pairs, that tolerate the initial state 0."""
    return sum(m for compat, m in classes if compat & 1)


@dataclass(frozen=True)
class SurfaceEntropy:
    count: int
    raw: float


def surface_entropy_est(ts: TreeShiftSpec, n: int) -> SurfaceEntropy:
    """Distinct restrictions of Delta_n labelings to the level-n vertices."""
    if n < 1:
        raise DomainError("surface estimate needs n >= 1")
    count = surface_series(ts, n)[n]
    return SurfaceEntropy(count=count, raw=_log_per_vertex(count, ts.geometry().level_size(n)))


def surface_series(ts: TreeShiftSpec, n: int) -> list[int]:
    """Surface counts of Delta_0 .. Delta_n, from one local memo (its big counts die with it).

    The DP carries, per (vertex type, height), a map from tolerated
    incoming-state sets to the number of distinct leaf labelings below.
    Raises CapExceeded when a class map outgrows CLASS_CAP.
    """
    if n < 0:
        raise DomainError("depth must be >= 0")
    geo = ts.geometry()
    memo: dict = {}

    def classes(vertex_type: int, height: int) -> dict:
        key = (vertex_type, height)
        hit = memo.get(key)
        if hit is not None:
            return hit
        kids = (
            (classes(c, height - 1).items() for c in geo.children_digits(vertex_type))
            if height else ()
        )
        out = _lift(_combine_children(kids, ts.automaton), ts, height == 0)
        memo[key] = out
        return out

    return [_root_count(classes(ROOT, m).items()) for m in range(n + 1)]


@dataclass(frozen=True)
class VertexSet:
    """Explicit set of vertex ids (digit strings; "" is the root)."""

    ids: frozenset[str]

    @classmethod
    def of(cls, ids) -> "VertexSet":
        return cls(frozenset(str(v) for v in ids))

    def __len__(self) -> int:
        return len(self.ids)

    def count_in(self, geo: TreeGeometry, n: int) -> int:
        return sum(1 for v in self.ids if len(v) <= n)

    def members_in(self, geo: TreeGeometry, n: int) -> frozenset[str]:
        return frozenset(v for v in self.ids if len(v) <= n)

    def to_json(self) -> list[str]:
        return sorted(self.ids)

    @classmethod
    def from_json(cls, obj) -> "VertexSet":
        return cls.of(obj)


@dataclass(frozen=True)
class LevelParity:
    """All vertices whose level is congruent to `parity` mod 2."""

    parity: int

    def count_in(self, geo: TreeGeometry, n: int) -> int:
        return sum(
            geo.level_size(k) for k in range(n + 1) if k % 2 == self.parity
        )

    def members_in(self, geo: TreeGeometry, n: int) -> frozenset[str]:
        out: set[str] = set()
        for k in range(n + 1):
            if k % 2 == self.parity:
                out.update(geo.level_vertices(k))
        return frozenset(out)


def ray_vertices(digit: int, n: int) -> VertexSet:
    """The ray {digit, digit digit, ...} down to level n (self-loop rays)."""
    return VertexSet.of(str(digit) * k for k in range(1, n + 1))


@dataclass(frozen=True)
class TreeDensity:
    ratios: tuple[Fraction, ...]
    upper: Fraction
    lower: Fraction


def tree_density(vertex_set, geometry: TreeGeometry, n_range) -> TreeDensity:
    """|S inside Delta_n| / |Delta_n| per depth, extremes over the tail half."""
    depths = list(n_range)
    if not depths:
        raise DomainError("depth range must be nonempty")
    ratios = tuple(
        Fraction(vertex_set.count_in(geometry, n), geometry.delta_size(n))
        for n in depths
    )
    tail = ratios[len(ratios) // 2:]
    return TreeDensity(ratios=ratios, upper=max(tail), lower=min(tail))


def _validate_vertices(geo: TreeGeometry, ids, n: int) -> None:
    for vid in ids:
        if not geo.is_vertex(vid):
            raise DomainError(f"{vid!r} is not a vertex of this tree")
        if len(vid) > n:
            raise DomainError(f"vertex {vid!r} lies below depth {n}")


def _node_step(ts: TreeShiftSpec, pinned, kids: tuple) -> frozenset:
    """Class map of a vertex from its children's, the same wherever the vertex sits."""
    key = (pinned, kids)
    hit = ts._memo.get(key)
    if hit is None:
        classes = _lift(_combine_children(kids, ts.automaton), ts, pinned)
        hit = _remember(ts._memo, key, frozenset(classes.items()))
    return hit


def _walk(ts, pins) -> int:
    """Restrictions to a path read from its far end, one pin per position.

    A pin is True, False or a label tuple, as in ``_lift``; the path is a
    window of a line (``words``) or a stack of rows (``grids``).
    """
    classes = frozenset({(ts.automaton.all_states, 1)})  # past the far end
    for pinned in pins:
        classes = _node_step(ts, pinned, (classes,))
    return _root_count(classes)


def distinct_restrictions(ts: TreeShiftSpec, S, n: int) -> int:
    """Exact number of distinct labelings of S induced by Delta_n patterns.

    Vertices outside S contribute existence only; whole subtrees without
    pinned vertices collapse to a single viability class, so sparse pins
    stay cheap even on deep trees.
    """
    if n < 0:
        raise DomainError("depth must be >= 0")
    geo = ts.geometry()
    ids = S.ids if isinstance(S, VertexSet) else tuple(S)
    pins = frozenset(ids)
    prefixes = {vid[:i] for vid in pins if len(vid) <= n for i in range(len(vid) + 1)}
    reached = 0

    def node(vid: str, vertex_type: int, height: int) -> frozenset:
        # a subtree without pins depends only on its type and height, and
        # has at most one class: the states it can follow
        nonlocal reached
        free = vid not in prefixes
        if free and (vertex_type, height) in ts._memo:
            return ts._memo[vertex_type, height]
        pinned = vid in pins
        reached += pinned
        kids = tuple([
            node(vid + str(c), c, height - 1) for c in geo.children_digits(vertex_type)
        ]) if height else ()
        out = _node_step(ts, pinned, kids)
        return _remember(ts._memo, (vertex_type, height), out) if free else out

    # the walk reaches every valid pin, so the ids are checked only when
    # it misses one or gives up, and they raise as they would up front
    try:
        root = node("", ROOT, n)
    except (CapExceeded, RecursionError):
        _validate_vertices(geo, ids, n)
        raise
    if reached != len(pins):
        _validate_vertices(geo, ids, n)
    return _root_count(root)


def is_indep_tree(ts: TreeShiftSpec, S, n: int) -> bool:
    """True iff every assignment on S extends to a Delta_n labeling.

    S = empty is independent exactly when some labeling exists.
    """
    if not isinstance(S, VertexSet):
        S = VertexSet(frozenset(map(str, S)))
    return distinct_restrictions(ts, S, n) == ts.alphabet_size ** len(S.ids)


@dataclass(frozen=True)
class SinkLiftSet:
    """1D positions copied onto every sink ray of an unexpandable tree.

    A ray enters a sink the first time its generator lies in a sink
    class; from there the in-class successor is unique, so each entering
    vertex carries one ray.  Position p of the 1D set lands p - 1 steps
    below the entry vertex.
    """

    matrix: AdjacencyMatrix
    positions: tuple[int, ...]
    sink_gens: frozenset[int]
    succ: tuple[int, ...]  # succ[g-1] = unique in-class successor of sink generator g

    def count_in(self, geo: TreeGeometry, n: int) -> int:
        counts = sink_level_counts(self.matrix, max(n - 1, 0))
        total = 0
        for k in range(1, n + 1):
            entries = counts[k - 1] - (counts[k - 2] if k >= 2 else 0)
            if entries:
                total += entries * bisect_right(self.positions, n - k + 1)
        return total

    def members_in(self, geo: TreeGeometry, n: int) -> frozenset[str]:
        pset = frozenset(self.positions)
        out: set[str] = set()
        level = [""]
        for _ in range(n):
            nxt = []
            for vid in level:
                parent_digit = int(vid[-1]) if vid else 0
                parent_in_sink = parent_digit in self.sink_gens
                for c in geo.children_digits(parent_digit):
                    cid = vid + str(c)
                    nxt.append(cid)
                    if c in self.sink_gens and not parent_in_sink:
                        # entering vertex: walk its ray within Delta_n
                        ray = cid
                        pos = 1
                        while len(ray) <= n:
                            if pos in pset:
                                out.add(ray)
                            ray += str(self.succ[int(ray[-1]) - 1])
                            pos += 1
            level = nxt
        return frozenset(out)


def sink_lift(ts: TreeShiftSpec, s1d) -> SinkLiftSet:
    """Copy a 1D position set along every sink ray of the tree.

    Requires an unexpandable geometry (sinks exist) and a hereditary
    shift base so the all-low filler used by the independence argument
    stays admissible.
    """
    decomp = sink_decomposition(ts.matrix)  # raises NotUnexpandable
    if ts.base is None:
        raise NotHereditary("one-step matrix bases carry no hereditary order")
    if not words_mod.is_hereditary_upto(ts.base, HEREDITARY_HORIZON):
        raise NotHereditary(
            f"base fails the hereditary check up to length {HEREDITARY_HORIZON}"
        )
    positions = tuple(sorted({int(p) for p in s1d}))
    if positions and positions[0] < 1:
        raise DomainError("ray positions are 1-based")
    sink_gens = decomp.sink_generators()
    succ = [0] * ts.matrix.d
    for g in sink_gens:
        inside = [j + 1 for j in range(ts.matrix.d) if ts.matrix.rows[g - 1][j]]
        succ[g - 1] = inside[0]
    return SinkLiftSet(
        matrix=ts.matrix,
        positions=positions,
        sink_gens=sink_gens,
        succ=tuple(succ),
    )


@dataclass(frozen=True)
class BipResult:
    S_n: VertexSet
    ratio: Fraction
    certified: bool


def _greedy_extend(ts: TreeShiftSpec, base: list[str], candidates, n: int) -> list[str]:
    current = list(base)
    for vid in candidates:
        if vid in current:
            continue
        if is_indep_tree(ts, current + [vid], n):
            current.append(vid)
    return current


def _surface_family(ts: TreeShiftSpec, n: int):
    """Distinct leaf labelings of Delta_n patterns, or None past 4,096 of them or 200,000 steps."""
    if ts.alphabet_size != 2:
        return None
    geo = ts.geometry()
    auto = ts.automaton
    leaves = geo.level_vertices(n)
    seen: set[str] = set()
    steps = 0

    order = geo.vertices(n)
    child_map = {
        v: [v + str(c) for c in geo.children_digits(int(v[-1]) if v else 0)]
        for v in order
        if len(v) < n
    }
    labels: dict[str, int] = {}
    states: dict[str, int] = {}

    def assign(idx: int) -> bool:
        nonlocal steps
        steps += 1
        if steps > 200000 or len(seen) > 4096:
            return False
        if idx == len(order):
            seen.add("".join(str(labels[v]) for v in leaves))
            return True
        vid = order[idx]
        parent_state = auto.initial if vid == "" else states[vid[:-1]]
        ok = True
        for s in range(ts.alphabet_size):
            nxt = auto.step(parent_state, s)
            if nxt is None:
                continue
            labels[vid] = s
            states[vid] = nxt
            if not assign(idx + 1):
                ok = False
                break
        return ok

    complete = assign(0)
    if not complete:
        return None
    return leaves, sorted(seen)


def bip_search(ts: TreeShiftSpec, boundary_levels: int, n: int) -> BipResult | None:
    """Look for a large independence set confined to the top levels.

    Searches S inside levels n-boundary_levels+1 .. n of Delta_n.  With
    at most 20 boundary vertices the search is exhaustive branch and
    bound and the outcome (including None) is certified; otherwise it is
    a heuristic: try the whole level n, fall back to shattering the
    realized leaf labelings, then grow greedily.  Returns None when no
    nonempty candidate passes.
    """
    if boundary_levels < 1:
        raise DomainError("boundary depth must be >= 1")
    if not is_expandable(ts.matrix):
        raise PreconditionViolated(
            "boundary search expects an expanding tree (growth ratio > 1)"
        )
    geo = ts.geometry()
    lo = max(n - boundary_levels + 1, 0)
    boundary: list[str] = []
    for level in range(n, lo - 1, -1):
        boundary.extend(geo.level_vertices(level))
    delta = geo.delta_size(n)

    if len(boundary) <= 20:
        best: list[str] = []

        def grow(current: list[str], start: int) -> None:
            nonlocal best
            for i in range(start, len(boundary)):
                if len(current) + (len(boundary) - i) <= len(best):
                    break
                cand = current + [boundary[i]]
                if is_indep_tree(ts, cand, n):
                    if len(cand) > len(best):
                        best = list(cand)
                    grow(cand, i + 1)

        grow([], 0)
        if not best:
            return None
        return BipResult(
            S_n=VertexSet.of(best), ratio=Fraction(len(best), delta), certified=True
        )

    leaves = geo.level_vertices(n)
    if is_indep_tree(ts, leaves, n):
        chosen = _greedy_extend(ts, leaves, [v for v in boundary if v not in set(leaves)], n)
        return BipResult(
            S_n=VertexSet.of(chosen), ratio=Fraction(len(chosen), delta), certified=False
        )

    fam = _surface_family(ts, n)
    seed: list[str] = []
    if fam is not None:
        leaf_order, patterns = fam
        if len(patterns) >= 2:
            from . import shatter

            family = shatter.BinaryFamily.from_words(patterns)
            k = shatter.forced_shatter_size(family)
            if k >= 1:
                picked = shatter.extract_shattered(family, k)
                seed = [leaf_order[i - 1] for i in picked]
                if not is_indep_tree(ts, seed, n):
                    seed = []
    chosen = _greedy_extend(ts, seed, boundary, n)
    if not chosen:
        return None
    return BipResult(
        S_n=VertexSet.of(chosen), ratio=Fraction(len(chosen), delta), certified=False
    )


@dataclass(frozen=True)
class MaxIndepEstimate:
    size: int
    witness: VertexSet
    ratio: Fraction
    certified: bool
    upper_bound: int


def max_indep_est(ts: TreeShiftSpec, n: int) -> MaxIndepEstimate:
    """Largest independence set in Delta_n, certified via a ray cover.

    Delta_n is covered by its |T_n| root-to-leaf rays, and a restriction
    of an independent tree set to one ray is independent for the base in
    the window [1, n+1]; so max size <= |T_n| * J_{n+1}(base).  When the
    base has J_{n+1} = 1 and the full leaf level checks out, the leaf
    level is exactly optimal.  Otherwise the reported set (leaf level or
    greedy fallback) is a lower bound and certified is False.
    """
    if n < 1:
        raise DomainError("scan needs n >= 1")
    if ts.base is None:
        raise DomainError("the ray-cover bound needs a 1D base spec")
    geo = ts.geometry()
    leaf_count = geo.level_size(n)
    j_record = words_mod.max_indep_J(ts.base, n + 1)
    upper = leaf_count * j_record.J
    leaves = geo.level_vertices(n)
    if is_indep_tree(ts, leaves, n):
        witness = leaves
    else:
        witness = _greedy_extend(ts, [], geo.vertices(n), n)
    size = len(witness)
    return MaxIndepEstimate(
        size=size,
        witness=VertexSet.of(witness),
        ratio=Fraction(size, geo.delta_size(n)),
        certified=size == upper,
        upper_bound=upper,
    )


@dataclass(frozen=True)
class EntropyChain:
    lhs: float
    rhs: float
    sink_weight: int
    holds: bool


def entropy_chain(ts: TreeShiftSpec, n: int) -> EntropyChain:
    """Lower bound on tree entropy from sink rays carrying base words.

    Each ray entering a sink at level k carries any admissible base word
    of length n - k + 1 (the rest of the pattern filled low), giving

        log count(n) / |Delta_n| >= min_{m <= n} (log|B_m|/m) * W / |Delta_n|

    where W = sum over l of l * a_l at horizon n - 1 = the number of
    sink-resident vertices of Delta_n.
    """
    if n < 1:
        raise DomainError("chain check needs n >= 1")
    if ts.base is None:
        raise DomainError("chain check needs a 1D base spec")
    geo = ts.geometry()
    lhs = _log_per_vertex(count_patterns(ts, n), geo.delta_size(n))
    fekete = words_mod.entropy_est_1d(ts.base, n).fekete_upper
    weights = entering_counts(ts.matrix, n - 1)
    sink_weight = sum(ell * a for ell, a in enumerate(weights, start=1))
    rhs = fekete * sink_weight / geo.delta_size(n)
    return EntropyChain(lhs=lhs, rhs=rhs, sink_weight=sink_weight, holds=lhs >= rhs - 1e-12)
