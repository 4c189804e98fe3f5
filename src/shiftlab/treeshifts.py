"""Labelings of Markov-Cayley trees constrained along rays.

A tree-shift spec pairs a tree geometry with a 1D shift spec, its base:
every root-to-vertex word must be admissible for it.  ``make_tree_shift``
also takes a one-step symbol matrix A (label t may follow label s when
A[s][t] = 1) and reads it once into the base forbidding each 2-word st
with A[s][t] = 0, so a matrix and its word base give equal specs, and
whether the base is hereditary is a property of that shift alone.
Patterns live on the truncated tree Delta_n.

The base compiles once into one ``WordAutomaton``, with integer states
and the initial state 0.  Counting is bottom-up dynamic programming
along the geometry's ``walk_up``: a subtree's shape depends only on its
vertex type (the last generator) and height, so each height keeps one
table per vertex type, here a count per automaton state, and the DP is
polynomial in depth even when the pattern counts have thousands of
digits.  Surface counting and independence checking refine the same
idea: instead of a single count per state they carry a map from "set of
incoming states this partial labeling tolerates", an int bitmask over
the states, to the number of distinct restrictions achieving it.  That
stays exact while collapsing unpinned subtrees to one class.

Independence of a vertex set S: every assignment S -> alphabet extends
to a full admissible labeling of Delta_n.  The check compares the exact
number of distinct restrictions to S against r^|S| as big integers.
Two walks take every S of Delta_n at once.  They need only the support
of S's class map, its set of masks: whether S has lost a restriction,
and whether the root tolerates all it has, depend on nothing else.
``subset_census`` counts the sets per (independent, antichain); on the
binary tree it checks all 2^63 subsets of Delta_5 with tables of at
most 3 entries.  The pin-set walk keeps, per support, the lex-first
largest independent S; it gives the exact maxima of
``max_indep_series`` (every depth at once), of ``words.max_indep_J`` on
the one-generator ray, and of ``bip_search`` on small boundaries.
``entropy_chain_series`` reads the sink-ray entropy bound of every depth
from one pattern-count series, one block-count series and one series of
sink level counts.

The class DP's memo is a dict on the ``WordAutomaton``.  It has three
kinds of keys.  A pin labels the symbols: True gives each its own label,
False gives all one label, and a tuple gives symbol s the label pin[s].
(a tolerated-state mask, a pin) maps to the mask's compiled lift: per
label, the incoming states it tolerates, 0 where none.  (pin, the
children's class maps, a tuple) maps to the class map of a node step;
class maps are frozensets of (mask, multiplicity) pairs.  (step, a
support) maps to the support after a step of the two walks; supports
are frozensets of masks, and no other key has a frozenset second.  No
key depends on the tree or on where a vertex sits, so every spec
compiled to one automaton (lines, grid rows, and trees of any shape over
one base) shares the memo and its steps.  The memo is cleared whenever
it reaches MEMO_CAP entries, which bounds it and never changes a result.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate, islice

from . import words as words_mod
from .errors import (
    CapExceeded,
    DeadSymbol,
    DomainError,
    EmptyBase,
    NotHereditary,
    PreconditionViolated,
)
from .records import record
from .trees import AdjacencyMatrix, TreeGeometry, is_expandable, read_bit_rows
from .trees import sink_decomposition, sink_level_counts
from .trees import entering_counts  # noqa: F401  the a_l of the chain's W, re-exported
from .words import ShiftSpec1D, WordAutomaton, log_per_size

CLASS_CAP = 4096
MEMO_CAP = CLASS_CAP


@record
class TreeShiftSpec:
    """Tree geometry plus the 1D spec every root-to-vertex word must obey."""

    matrix: AdjacencyMatrix
    base: ShiftSpec1D

    @property
    def alphabet_size(self) -> int:
        return self.base.alphabet_size

    def geometry(self) -> TreeGeometry:
        return self.matrix.geometry

    @property
    def automaton(self) -> WordAutomaton:
        return self.base.automaton

    def to_json(self) -> dict:
        return {"tree": self.matrix.to_json(), "base": self.base.to_json()}

    @classmethod
    def from_json(cls, obj: dict) -> "TreeShiftSpec":
        if "base" in obj and "matrix" in obj:
            raise DomainError("base and matrix: give one of the two, not both")
        if "base" not in obj and "matrix" not in obj:
            raise DomainError("base or matrix: give one of the two")
        tree = AdjacencyMatrix.from_json(obj["tree"])
        return make_tree_shift(tree, ShiftSpec1D.from_json(obj["base"]) if "base" in obj else obj["matrix"])


def make_tree_shift(matrix: AdjacencyMatrix, base) -> TreeShiftSpec:
    """Validated spec over a 1D spec or a one-step matrix A (label t may follow s
    when A[s][t] = 1), which is read into the 1D spec forbidding each 2-word st
    with A[s][t] = 0; raises DomainError / DeadSymbol / EmptyBase on unusable bases."""
    if not isinstance(matrix, AdjacencyMatrix):
        raise DomainError(f"tree matrix must be an AdjacencyMatrix, got {type(matrix).__name__}")
    if not isinstance(base, ShiftSpec1D):
        step = read_bit_rows(base, "matrix")
        r = len(step)
        if r < 2 or any(len(row) != r for row in step):
            raise DomainError("step matrix must be square with size >= 2")
        for s, row in enumerate(step):
            if not any(row):
                raise DeadSymbol(f"symbol {s} has no successor; rays cannot continue")
        base = ShiftSpec1D.with_forbidden(r, [(s, t) for s in range(r) for t in range(r) if not step[s][t]])
    if not base.automaton.is_viable():
        raise EmptyBase("base language has no arbitrarily long words")
    return TreeShiftSpec(matrix=matrix, base=base)


def count_patterns(ts: TreeShiftSpec, n: int) -> int:
    """Exact number of admissible labelings of Delta_n."""
    return count_series(ts, n)[n]


def count_series(ts: TreeShiftSpec, n: int) -> list[int]:
    """Exact numbers of admissible labelings of Delta_0 .. Delta_n, from one walk.

    A vertex's table is a vector over automaton states: entry q counts
    the labelings of its subtree below a parent in state q.
    """
    auto = ts.automaton

    def step(kids, height) -> tuple[int, ...]:
        below = [math.prod(table[q] for table in kids) for q in range(auto.n_states)]
        return tuple(sum(below[q] for q in row if q is not None) for row in auto.table)

    return [table[auto.initial] for table in ts.geometry().walk_up(n, step)]


@record
class TreeEntropy:
    raw: float
    running_max_tail: float
    counts: tuple[int, ...]


def tree_entropy_est(ts: TreeShiftSpec, n: int) -> TreeEntropy:
    """raw = log count / |Delta_n|; tail max of raw over n/2..n; counts of Delta_0..Delta_n."""
    if n < 1:
        raise DomainError("entropy estimate needs n >= 1")
    geo = ts.geometry()
    counts = tuple(count_series(ts, n))
    raws = [log_per_size(counts[m], geo.delta_size(m)) for m in range(1, n + 1)]
    tail = raws[(n - 1) // 2:]
    return TreeEntropy(raw=raws[-1], running_max_tail=max(tail), counts=counts)


def _remember(memo: dict, key, value):
    if len(memo) >= MEMO_CAP:
        memo.clear()
    memo[key] = value
    return value


def _preimages(auto: WordAutomaton, mask: int, pinned) -> tuple:
    """The lift of ``mask`` under a pin, compiled once: per label, the states
    whose successor on a symbol of that label lies in ``mask``, 0 where none.
    True's is read off the table; every other pin merges True's by label."""
    key = (mask, pinned)
    hit = auto.memo.get(key)
    if hit is None:
        if pinned is True:
            hit = tuple(sum(1 << q for q, row in enumerate(auto.table) if row[s] is not None
                            and mask >> row[s] & 1) for s in range(auto.size))
        else:
            labels = (0,) * auto.size if pinned is False else pinned
            merged = dict.fromkeys(labels, 0)
            for label, compat in zip(labels, _preimages(auto, mask, True)):
                merged[label] |= compat
            hit = tuple(merged.values())
        hit = _remember(auto.memo, key, hit)
    return hit


def _capped(classes: dict) -> dict:
    if len(classes) > CLASS_CAP:
        raise CapExceeded(f"class dictionary exceeded CLASS_CAP = {CLASS_CAP} entries")
    return classes


def _combine_children(children, auto: WordAutomaton) -> dict:
    """Product over children keyed by the intersection of tolerated states.

    Each child is an iterable of (mask, multiplicity) pairs.  A leaf,
    which has no children, gets the one class of all states: it
    tolerates everything below it.
    """
    children = iter(children)
    acc = _capped(dict(next(children, ((auto.all_states, 1),))))
    for child in children:
        nxt: dict = {}
        for c1, m1 in acc.items():
            for c2, m2 in child:
                inter = c1 & c2
                if inter:
                    nxt[inter] = nxt.get(inter, 0) + m1 * m2
        acc = _capped(nxt)
    return acc


def _lift(classes: dict, auto: WordAutomaton, pinned) -> dict:
    """Label this vertex and map each class to the incoming states it tolerates.

    Symbols that share a label of the pin (see ``_preimages``) share a
    class, since only the label is part of the restriction: a pinned
    vertex (True) keeps one class per symbol, and a free vertex (False)
    one class in all.  A label without preimages keeps no class.
    """
    out: dict = {}
    for inter, mult in classes.items():
        for compat in _preimages(auto, inter, pinned):
            if compat:
                out[compat] = out.get(compat, 0) + mult
    return _capped(out)


def _root_count(classes) -> int:
    """Restrictions, among (mask, multiplicity) pairs, that tolerate the initial state 0."""
    return sum(m for compat, m in classes if compat & 1)


@record
class SurfaceEntropy:
    count: int
    raw: float


def surface_entropy_est(ts: TreeShiftSpec, n: int) -> SurfaceEntropy:
    """Distinct restrictions of Delta_n labelings to the level-n vertices."""
    if n < 1:
        raise DomainError("surface estimate needs n >= 1")
    count = surface_series(ts, n)[n]
    return SurfaceEntropy(count=count, raw=log_per_size(count, ts.geometry().level_size(n)))


def surface_series(ts: TreeShiftSpec, n: int) -> list[int]:
    """Surface counts of Delta_0 .. Delta_n, from one walk (its big counts die with it).

    A vertex's table maps tolerated incoming-state sets to the number of
    distinct leaf labelings below.  Raises CapExceeded when a class map
    outgrows CLASS_CAP.
    """
    auto = ts.automaton

    def step(kids, height) -> dict:
        children = (table.items() for table in kids)
        return _lift(_combine_children(children, auto), auto, height == 0)

    return [_root_count(table.items()) for table in ts.geometry().walk_up(n, step)]


@record
class VertexSet:
    """Explicit set of vertex ids (digit strings; "" is the root)."""

    ids: frozenset[str]

    @classmethod
    def of(cls, ids) -> "VertexSet":
        return cls(frozenset(str(v) for v in ids))

    def __len__(self) -> int:
        return len(self.ids)

    def count_in(self, geo: TreeGeometry, n: int) -> int:
        return len(self.members_in(geo, n))

    def members_in(self, geo: TreeGeometry, n: int) -> frozenset[str]:
        """The ids within Delta_n; an id that is no vertex of the tree raises DomainError."""
        geo.check_ids(sorted(self.ids), math.inf)  # ids below Delta_n are left out
        return frozenset(v for v in self.ids if len(v) <= n)

    def to_json(self) -> list[str]:
        return sorted(self.ids)

    @classmethod
    def from_json(cls, obj) -> "VertexSet":
        return cls.of(obj)


@record
class LevelParity:
    """All vertices whose level is congruent to `parity` mod 2."""

    parity: int

    def count_in(self, geo: TreeGeometry, n: int) -> int:
        return sum(
            geo.level_size(k) for k in range(n + 1) if k % 2 == self.parity
        )

    def members_in(self, geo: TreeGeometry, n: int) -> frozenset[str]:
        last = n - (n - self.parity) % 2  # the deepest level of this parity
        if last < 0:
            return frozenset()
        return frozenset(vid for k, level in enumerate(geo.levels(last)) if k % 2 == self.parity
                         for vid in level)


def ray_vertices(digit: int, n: int) -> VertexSet:
    """The ray {digit, digit digit, ...} down to level n (self-loop rays)."""
    return VertexSet.of(str(digit) * k for k in range(1, n + 1))


@record
class TreeDensity:
    ratios: tuple[Fraction, ...]
    upper: Fraction
    lower: Fraction
    counts: tuple[int, ...]


def tree_density(vertex_set, geometry: TreeGeometry, n_range) -> TreeDensity:
    """counts |S inside Delta_n| and ratios to |Delta_n| per depth, extremes over the tail half."""
    depths = list(n_range)
    if not depths:
        raise DomainError("depth range must be nonempty")
    counts = tuple(vertex_set.count_in(geometry, n) for n in depths)
    ratios = tuple(Fraction(c, geometry.delta_size(n)) for c, n in zip(counts, depths))
    tail = ratios[len(ratios) // 2:]
    return TreeDensity(ratios=ratios, upper=max(tail), lower=min(tail), counts=counts)


def _node_step(auto: WordAutomaton, pinned, kids: tuple) -> frozenset:
    """Class map of a vertex from its children's, the same wherever the vertex sits."""
    key = (pinned, kids)
    hit = auto.memo.get(key)
    if hit is None:
        hit = _remember(auto.memo, key, frozenset(_lift(_combine_children(kids, auto), auto, pinned).items()))
    return hit


# A pin set loses a restriction exactly where a mask 0 enters the support
# of its class map (its set of masks): an empty product, or a label of a
# pin without preimages.  DEAD, the support {0}, stands for every such pin set.
DEAD = frozenset({0})


def _support_step(auto: WordAutomaton, step, support: frozenset) -> frozenset:
    """The support after one step: ``step`` is the support of a pin set
    to take the product with, or the vertex's pin (see ``_preimages``)."""
    key = (step, support)  # a frozenset second: no lift or ``_node_step`` key has one
    hit = auto.memo.get(key)
    if hit is None:
        if isinstance(step, frozenset):
            hit = frozenset(x & y for x in step for y in support)
        else:
            hit = frozenset(compat for mask in support for compat in _preimages(auto, mask, step))
        hit = _remember(auto.memo, key, DEAD if 0 in hit else hit)
    return hit


def _tolerates_root(support: frozenset) -> bool:
    """True iff every restriction with this support extends from the initial state 0."""
    return all(mask & 1 for mask in support)


def _walk(auto: WordAutomaton, pins) -> int:
    """Restrictions to a path read from its far end, one pin per position.

    A pin labels the symbols, as in ``_preimages``; the path is a window of
    a line (``words``) or a stack of rows (``grids``).
    """
    classes = frozenset({(auto.all_states, 1)})  # past the far end
    for pinned in pins:
        classes = _node_step(auto, pinned, (classes,))
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
    auto = ts.automaton
    ids = S.ids if isinstance(S, VertexSet) else tuple(S)
    geo.check_ids(ids, n)
    pins = frozenset(ids)
    # free[h] is the class map of a subtree of height h without pins.  It
    # does not depend on the subtree's vertex type: every vertex has a
    # child, and a class map of at most one entry (multiplicity 1), as a
    # free subtree's is, combined with itself is itself.
    free = [_node_step(auto, False, ())]
    for _ in range(n):
        free.append(_node_step(auto, False, (free[-1],)))
    # step the pins' prefixes deepest first, so each one's children are done
    done: dict = {}
    for vid in sorted({""} | {vid[:i] for vid in pins for i in range(len(vid) + 1)},
                      key=len, reverse=True):
        height = n - len(vid)
        kids = tuple([done.pop(kid, free[height - 1]) for kid in geo.child_ids(vid)]) if height else ()
        done[vid] = _node_step(auto, vid in pins, kids)
    return _root_count(done[""])


def is_indep_tree(ts: TreeShiftSpec, S, n: int) -> bool:
    """True iff every assignment on S extends to a Delta_n labeling.

    S = empty is independent exactly when some labeling exists.
    """
    if not isinstance(S, VertexSet):
        S = VertexSet(frozenset(map(str, S)))
    return distinct_restrictions(ts, S, n) == ts.alphabet_size ** len(S.ids)


def subset_census(ts: TreeShiftSpec, n: int) -> dict:
    """Vertex sets S of Delta_n counted by (S is independent, S is an antichain).

    One bottom-up walk takes every S at once.  Each vertex keeps a table
    from (support of S's class map, S has a pin, S is an antichain) to
    the number of pin sets S of its subtree with the key: the children's
    tables folded one at a time into a partial support, then stepped
    free and pinned, all by ``_support_step``.  Every S that has lost a
    restriction shares the support DEAD.  S is independent when its root
    support is not DEAD and every mask in it holds the initial state, as
    ``is_indep_tree`` asks of the root class map.  A table past
    CLASS_CAP entries raises CapExceeded.
    """
    auto = ts.automaton

    def step(children, height) -> dict:
        acc = {(frozenset({auto.all_states}), False, True): 1}
        for table in children:
            nxt: dict = {}
            for (part, below, anti), m1 in acc.items():
                for (support, below2, anti2), m2 in table.items():
                    k = (_support_step(auto, part, support), below or below2, anti and anti2)
                    nxt[k] = nxt.get(k, 0) + m1 * m2
            acc = _capped(nxt)
        out: dict = {}
        for (part, below, anti), m in acc.items():
            for pinned in (False, True):
                k = (_support_step(auto, pinned, part), below or pinned, anti and not (pinned and below))
                out[k] = out.get(k, 0) + m
        return _capped(out)

    *_, root = ts.geometry().walk_up(n, step)
    census: dict = {}
    for (support, _, anti), m in root.items():
        k = (_tolerates_root(support), anti)
        census[k] = census.get(k, 0) + m
    return census


def _pin_table(auto: WordAutomaton, tables, pinnable: bool) -> list:
    """One vertex's table from its children's tables, in digit order; see ``_max_pin_sets``."""
    # partial support -> (-size, the children's ranks) of the best pin set folded so far
    acc = {frozenset({auto.all_states}): (0, ())}
    for table in tables:
        nxt: dict = {}
        for part, (neg, ranks) in acc.items():
            for rank, (support, size, _, _) in enumerate(table):
                key = _support_step(auto, part, support)
                best = (neg - size, ranks + (rank,))
                if key is not DEAD and (key not in nxt or best < nxt[key]):
                    nxt[key] = best
        acc = _capped(nxt)
    out: dict = {}
    for part, (neg, ranks) in acc.items():
        for pinned in (True, False) if pinnable else (False,):
            key = _support_step(auto, pinned, part)
            best = (neg - pinned, not pinned, ranks)
            if key is not DEAD and (key not in out or best < out[key]):
                out[key] = best
    return [(support, -neg, not free, tuple(table[i] for table, i in zip(tables, ranks)))
            for support, (neg, free, ranks) in sorted(_capped(out).items(), key=lambda item: item[1][1:])]


def _pin_ids(geo: TreeGeometry, entry) -> tuple[str, ...]:
    """The sorted ids of a table entry's pin set, read down the paths to its pins."""
    ids = []
    stack = [("", entry)] if entry else []
    while stack:  # preorder, children by ascending digit: sorted ids
        vid, (_, _, pinned, kids) = stack.pop()
        if pinned:
            ids.append(vid)
        stack.extend((kid_id, kid) for kid_id, kid
                     in zip(reversed(geo.child_ids(vid)), reversed(kids)) if kid[1])
    return tuple(ids)


def _max_pin_sets(auto: WordAutomaton, geo: TreeGeometry, n: int, pin_levels: int) -> list:
    """Largest independent pin sets of Delta_0 .. Delta_n, lex-first, from one walk.

    Pins may sit at heights below ``pin_levels``.  A pin set that has
    lost a restriction is dropped, since no step brings one back, and
    the future of any other depends only on its support.  So a vertex
    keeps one entry per support: the largest pin set of its subtree
    reaching it and, among equal sizes, the lex-first one (ids relative
    to the subtree root, sorted).  Its children's tables, which
    ``walk_up`` hands over in digit order, the order of their ids, fold
    into a partial support one at a time, which is then stepped free
    and, where allowed, pinned.

    An entry is (support, size, pinned, the children's entries), so no
    ids are built while the tables are.  A table lists its entries in
    the order of their pin sets with a sentinel above every id appended
    (a proper prefix sorts after, as its next id comes from a later
    child): the order of (not pinned, rank of child 1, rank of child 2,
    ...).  Returns, per depth m, the root entry for Delta_m: the first
    of the largest whose masks all hold the initial state.  ``_pin_ids``
    reads its ids.  A table past CLASS_CAP entries raises CapExceeded.
    """
    geo.check_digits()  # ids are digit strings
    return [max((entry for entry in root if _tolerates_root(entry[0])), key=lambda e: e[1], default=None)
            for root in geo.walk_up(n, lambda kids, height: _pin_table(auto, kids, height < pin_levels))]


@record
class SinkLiftSet:
    """1D positions copied onto every sink ray of an unexpandable tree.

    A ray enters a sink the first time its generator lies in a sink
    class; from there the in-class successor is unique, so each entering
    vertex carries one ray.  Position p of the 1D set lands p - 1 steps
    below the entry vertex.
    """

    positions: tuple[int, ...]
    sink_gens: frozenset[int]

    def count_in(self, geo: TreeGeometry, n: int) -> int:
        # s[k] - s[k - 1] rays enter a sink at level k; each holds the positions <= n - k + 1
        s = [0] + geo.type_counts(self.sink_gens, n)
        return sum((s[k] - s[k - 1]) * bisect_right(self.positions, n - k + 1) for k in range(1, n + 1))

    def members_in(self, geo: TreeGeometry, n: int) -> frozenset[str]:
        pset = frozenset(self.positions)

        def position(vid: str) -> int:
            # the offset below the entry vertex (the first sink digit) plus 1;
            # 0 off the sink rays
            entry = next((i for i, ch in enumerate(vid) if int(ch) in self.sink_gens), len(vid))
            return len(vid) - entry

        return frozenset(vid for vid in geo.vertices(n) if position(vid) in pset)


def sink_lift(ts: TreeShiftSpec, s1d) -> SinkLiftSet:
    """Copy a 1D position set along every sink ray of the tree.

    Requires an unexpandable geometry (sinks exist) and a hereditary
    shift base so the all-low filler used by the independence argument
    stays admissible.
    """
    decomp = sink_decomposition(ts.matrix)  # raises NotUnexpandable
    if not words_mod.is_hereditary_upto(ts.base, math.inf):
        raise NotHereditary("base is not hereditary: lowering a symbol breaks an admissible word")
    positions = tuple(sorted({int(p) for p in s1d}))
    if positions and positions[0] < 1:
        raise DomainError("ray positions are 1-based")
    return SinkLiftSet(positions=positions, sink_gens=decomp.sink_generators())


@record
class BipResult:
    S_n: VertexSet
    ratio: Fraction
    certified: bool


def bip_search(ts: TreeShiftSpec, boundary_levels: int, n: int) -> BipResult | None:
    """Look for a large independence set confined to the top levels.

    Searches S inside levels n-boundary_levels+1 .. n of Delta_n.  With
    at most 20 boundary vertices the pin-set walk of ``max_indep_est``,
    pinning only those levels, gives the lex-first largest set and the
    outcome (including None) is certified.  Past that it is one greedy
    pass over the boundary, leaves first, starting from the whole level
    n when it is independent and from nothing otherwise; not certified.
    Returns None when no nonempty candidate passes.  The walk, keyed by
    support, would finish past 20 vertices too; the pass stays only
    because the recorded ray-sweep reports read ``certified`` false on
    the 12 searches past the threshold, and the walk would certify them.
    """
    if boundary_levels < 1:
        raise DomainError("boundary depth must be >= 1")
    if not is_expandable(ts.matrix):
        raise PreconditionViolated(
            "boundary search expects an expanding tree (growth ratio > 1)"
        )
    geo = ts.geometry()
    delta = geo.delta_size(n)
    top = max(n - boundary_levels + 1, 0)  # the boundary is levels top .. n
    if delta - (geo.delta_size(top - 1) if top else 0) <= 20:
        best = _pin_ids(geo, _max_pin_sets(ts.automaton, geo, n, boundary_levels)[n])
        if not best:
            return None
        return BipResult(
            S_n=VertexSet.of(best), ratio=Fraction(len(best), delta), certified=True
        )

    kept = list(islice(geo.levels(n), top, None))
    leaves = kept[-1]
    boundary = [vid for level in reversed(kept) for vid in level]
    chosen = list(leaves) if is_indep_tree(ts, leaves, n) else []
    for vid in boundary[len(chosen):]:
        if is_indep_tree(ts, chosen + [vid], n):
            chosen.append(vid)
    if not chosen:
        return None
    return BipResult(
        S_n=VertexSet.of(chosen), ratio=Fraction(len(chosen), delta), certified=False
    )


@record
class MaxIndepEstimate:
    size: int
    witness: VertexSet
    ratio: Fraction
    certified: bool


def max_indep_series(ts: TreeShiftSpec, n: int) -> list[MaxIndepEstimate]:
    """Largest independence sets of Delta_0 .. Delta_n, exact, from one walk.

    Each witness is the lex-first maximum set over sorted vertex ids, so
    every answer is certified.
    """
    geo = ts.geometry()
    return [
        MaxIndepEstimate(size=len(pins), witness=VertexSet.of(pins),
                         ratio=Fraction(len(pins), geo.delta_size(m)), certified=True)
        for m, pins in enumerate(_pin_ids(geo, top) for top in _max_pin_sets(ts.automaton, geo, n, n + 1))
    ]


def max_indep_sizes(ts: TreeShiftSpec, n: int) -> list[int]:
    """The sizes of ``max_indep_series``, exact, from the same walk without building a witness."""
    return [top[1] if top else 0 for top in _max_pin_sets(ts.automaton, ts.geometry(), n, n + 1)]


def max_indep_est(ts: TreeShiftSpec, n: int) -> MaxIndepEstimate:
    """Largest independence set in Delta_n (see ``max_indep_series``)."""
    if n < 1:
        raise DomainError("scan needs n >= 1")
    return max_indep_series(ts, n)[n]


@record
class EntropyChain:
    lhs: float
    rhs: float
    sink_weight: int
    holds: bool
    count: int


def entropy_chain_series(ts: TreeShiftSpec, n: int) -> list[EntropyChain]:
    """The chains of Delta_0 .. Delta_n, from one walk of each series.

    Each ray entering a sink at level k carries any admissible base word
    of length n - k + 1 (the rest of the pattern filled low), giving

        log count(n) / |Delta_n| >= min_{m <= n} (log|B_m|/m) * W / |Delta_n|

    where W = sum over l of l * a_l at horizon n - 1 = the number of
    sink-resident vertices of Delta_n, the sink level counts S(0) ..
    S(n - 1) summed.  Delta_0 holds no sink vertex, so its bound is 0.
    One ``count_series``, one ``block_counts`` and one
    ``sink_level_counts`` serve every depth; each entry keeps its
    pattern count, the lhs's numerator.
    """
    if n < 0:
        raise DomainError("depth must be >= 0")
    geo = ts.geometry()
    blocks = words_mod.block_counts(ts.base, n)
    # at depth m: the Fekete bound over lengths 1 .. m and W = S(0) + ... + S(m - 1)
    fekete = accumulate((log_per_size(blocks[m], m) for m in range(1, n + 1)), min,
                        initial=math.inf)
    weights = accumulate(sink_level_counts(ts.matrix, n)[:n], initial=0)
    chains = []
    for m, (count, bound, weight) in enumerate(zip(count_series(ts, n), fekete, weights)):
        size = geo.delta_size(m)
        lhs = log_per_size(count, size)
        rhs = bound * weight / size if m else 0.0
        chains.append(EntropyChain(lhs=lhs, rhs=rhs, sink_weight=weight, holds=lhs >= rhs - 1e-12,
                                   count=count))
    return chains


def entropy_chain(ts: TreeShiftSpec, n: int) -> EntropyChain:
    """Lower bound on tree entropy from sink rays: the last entry of ``entropy_chain_series``."""
    if n < 1:
        raise DomainError("chain check needs n >= 1")
    return entropy_chain_series(ts, n)[n]
