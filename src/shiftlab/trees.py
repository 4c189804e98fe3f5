"""Markov-Cayley tree geometry driven by a 0/1 successor matrix.

The tree on d generators keeps every length-1 word (the level-1 seed is
all d generators) and lets generator i be followed by generator j when
M[i][j] = 1.  Each matrix owns one ``TreeGeometry``, the shape of
Delta_n: its level vectors (the all-ones row vector iterated against
M) with |Delta_n| kept beside them, and ``walk_up``, the bottom-up walk
over (vertex type, height) that every tree DP of ``treeshifts`` takes.
Vertex ids are digit strings ("" is the root, "12" is the child 2 of
generator 1), which keeps lexicographic order aligned with depth-first
traversal.  The geometry alone writes them (``child_ids``), lists them
(``levels``) and checks them (``is_vertex``, ``check_ids``).  Digit ids
need d <= 9; the matrix operations themselves have no such bound.
``read_digits``, the one reader of symbols, reads the matrices here and
the words and patterns of 1D and 2D specs.

Beyond level counting this module classifies the matrix:

* expanding number: the growth ratio |T_{n+1}|/|T_n| plus the spectral
  radius (exactly 1 when every strongly connected class is a simple
  cycle or a loopless singleton, the same test the sink decomposition
  makes; otherwise the largest Perron root over the classes, each from
  vector-converged power iteration on the class's block plus I);
* sink decomposition: permutation to block upper-triangular form with
  every multi-vertex diagonal class verified to be a simple cycle, and
  the classes without exits marked as sinks, made once per matrix;
* entering counts a_1..a_{n+1}: how many depth-(n+1) rays enter a sink
  exactly l steps before the horizon, via the telescoped sink-resident
  level counts S(m) with the boundary convention S(-1) = 0.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import cached_property

from .caps import enumeration_cap
from .errors import CapExceeded, DeadEnd, DomainError, NotUnexpandable
from .records import record

MAX_DIGIT_GENERATORS = 9


def read_digits(value) -> tuple[int, ...] | None:
    """The symbols a digit string or a list or tuple of ints spells; None for
    anything else.  Only ASCII digits count, and a bool is no int here."""
    if isinstance(value, str):
        symbols = tuple(map("0123456789".find, value))
        return None if -1 in symbols else symbols
    if isinstance(value, list | tuple) and all(type(s) is int for s in value):
        return tuple(value)
    return None


def read_bit_rows(rows, field: str) -> tuple[tuple[int, ...], ...]:
    """A list of 0/1 rows (``read_digits``); anything else, bools too, names ``field``."""
    if not isinstance(rows, list | tuple):
        raise DomainError(f"{field} rows must be a list, got {rows!r}")
    out = tuple(map(read_digits, rows))
    for row, bits in zip(rows, out):
        if bits is None or not set(bits) <= {0, 1}:
            raise DomainError(f"{field} row {row!r}: entries must be 0 or 1")
    return out


@record
class AdjacencyMatrix:
    """d x d successor matrix; entry (i, j) = 1 lets j follow i."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        d = len(self.rows)
        if d < 1:
            raise DomainError("matrix must have at least one generator")
        for row in self.rows:
            if len(row) != d:
                raise DomainError("matrix must be square")
            if any(type(x) is not int or x not in (0, 1) for x in row):  # no floats, no bools
                raise DomainError("matrix entries must be 0 or 1")
            if not any(row):
                raise DeadEnd("every generator needs a successor (no all-zero rows)")

    @property
    def d(self) -> int:
        return len(self.rows)

    @cached_property
    def geometry(self) -> "TreeGeometry":
        """The one geometry of this matrix; its level series grow as callers ask."""
        return TreeGeometry(self)

    @cached_property
    def _classes(self) -> list[frozenset[int]]:
        """The strongly connected classes of this matrix, found once."""
        return _strongly_connected_classes(self)

    @cached_property
    def _sinks(self) -> "SinkDecomposition | str":
        """The one sink decomposition of this matrix, or why none exists."""
        try:
            return _decompose(self)
        except NotUnexpandable as exc:
            return str(exc)

    @classmethod
    def from_rows(cls, rows) -> "AdjacencyMatrix":
        return cls(read_bit_rows(rows, "tree"))

    @classmethod
    def comb(cls) -> "AdjacencyMatrix":
        """Spine of 1s with a tooth of 2s at every spine vertex."""
        return cls.from_rows(("11", "01"))

    @classmethod
    def binary_tree(cls) -> "AdjacencyMatrix":
        return cls.from_rows(("11", "11"))

    @classmethod
    def identity(cls) -> "AdjacencyMatrix":
        return cls.from_rows(("10", "01"))

    @classmethod
    def swap(cls) -> "AdjacencyMatrix":
        return cls.from_rows(("01", "10"))

    def to_json(self) -> dict:
        return {"d": self.d, "rows": ["".join(str(x) for x in row) for row in self.rows]}

    @classmethod
    def from_json(cls, obj: dict) -> "AdjacencyMatrix":
        mat = cls.from_rows(obj["rows"])
        d = obj.get("d", mat.d)
        if type(d) is not int:
            raise DomainError(f"tree d must be an integer, got {d!r}")
        if mat.d != d:
            raise DomainError("row count does not match d")
        return mat


class TreeGeometry:
    """The shape of Delta_n for one adjacency matrix: level series and walks.

    Level vectors are cached: v_1 is all-ones (every generator appears at
    level 1) and v_{k+1} = v_k M, so |T_k| = sum(v_k); a running
    |Delta_k| = 1 + sum_{j<=k} |T_j| is kept beside them.  ``walk_up``
    is the one bottom-up walk every tree DP takes.
    """

    def __init__(self, matrix: AdjacencyMatrix) -> None:
        self.matrix = matrix
        self._vectors: list[tuple[int, ...]] = [(1,) * matrix.d]
        self._deltas: list[int] = [1, 1 + matrix.d]
        self._type_sums: dict[frozenset[int], list[int]] = {}
        self._children: tuple[tuple[int, ...], ...] = tuple(
            tuple(j + 1 for j in range(matrix.d) if row[j])
            for row in matrix.rows
        )
        self._parents: tuple[tuple[int, ...], ...] = tuple(
            tuple(i for i in range(matrix.d) if matrix.rows[i][j])
            for j in range(matrix.d)
        )
        # per last id character ("" for the root), its children's characters ascending
        self._child_chars: dict[str, tuple[str, ...]] = {
            str(digit or ""): tuple(map(str, self.children_digits(digit)))
            for digit in range(matrix.d + 1)
        }

    def _extend(self) -> None:
        """Append the next level vector v_{k+1} = v_k M and |Delta_{k+1}|."""
        prev = self._vectors[-1]
        nxt = tuple(sum(prev[i] for i in parents) for parents in self._parents)
        self._vectors.append(nxt)
        self._deltas.append(self._deltas[-1] + sum(nxt))

    def type_counts(self, types, n: int) -> list[int]:
        """Per level 1..n, the vertices whose last generator lies in ``types``.

        Each set of types keeps its per-level sums, grown as deeper levels
        are asked for, the way the level vectors are.
        """
        if n < 0:
            raise DomainError("depth must be >= 0")
        while len(self._vectors) < n:
            self._extend()
        types = frozenset(types)
        sums = self._type_sums.setdefault(types, [])
        sums.extend(sum(v[g - 1] for g in types) for v in self._vectors[len(sums):n])
        return sums[:n]

    def delta_size(self, n: int) -> int:
        if n < 0:
            raise DomainError("depth must be >= 0")
        while len(self._deltas) <= n:
            self._extend()
        return self._deltas[n]

    def level_size(self, level: int) -> int:
        if level < 0:
            raise DomainError("level must be >= 0")
        return self.delta_size(level) - (self.delta_size(level - 1) if level else 0)

    def walk_up(self, n: int, node) -> Iterator:
        """The root's tables for Delta_0 .. Delta_n, built from the leaves up.

        ``node(kids, height)`` gives the table of a vertex at ``height``
        above the leaves from its children's tables, in digit order.  A
        subtree's shape depends only on its root's type (its last
        generator, digit 0 for the root) and height, and vertex types
        with the same children share one table, so each height calls
        ``node`` once per distinct children tuple.
        """
        if n < 0:
            raise DomainError("depth must be >= 0")
        by_digit: list = []
        for height in range(n + 1):
            kids_of = [self.children_digits(digit) if height else ()
                       for digit in range(self.matrix.d + 1)]
            shared: dict = {}
            for kids in kids_of:
                if kids not in shared:
                    shared[kids] = node(tuple(by_digit[c] for c in kids), height)
            by_digit = [shared[kids] for kids in kids_of]
            yield by_digit[0]

    def children_digits(self, digit: int) -> tuple[int, ...]:
        """Digits allowed after `digit`; digit 0 stands for the root."""
        if digit == 0:
            return tuple(range(1, self.matrix.d + 1))
        return self._children[digit - 1]

    def child_ids(self, vid: str) -> list[str]:
        """The ids of a vertex's children, ascending: the one place a child id is written."""
        return [vid + ch for ch in self._child_chars[vid[-1:]]]

    def check_digits(self) -> None:
        """Raise DomainError when the generators outnumber the digits of an id."""
        if self.matrix.d > MAX_DIGIT_GENERATORS:
            raise DomainError(
                f"digit vertex ids support at most {MAX_DIGIT_GENERATORS} generators"
            )

    def levels(self, n: int) -> Iterator[list[str]]:
        """Vertex ids of levels 0 .. n, each grown from the one above, once |Delta_n| fits the cap."""
        self.check_digits()
        limit = enumeration_cap()
        if self.delta_size(n) > limit:
            raise CapExceeded(f"more than SHIFTLAB_CAP = {limit} vertices in Delta_{n}")
        current = [""]
        yield current
        for _ in range(n):
            current = [kid for vid in current for kid in self.child_ids(vid)]
            yield current

    def level_vertices(self, level: int) -> list[str]:
        """Vertex ids at one level, in lexicographic (= generator) order."""
        for ids in self.levels(max(level, 0)):
            pass
        return ids

    def vertices(self, n: int) -> list[str]:
        """All ids of Delta_n, level by level."""
        return [vid for level in self.levels(n) for vid in level]

    def is_vertex(self, vid: str) -> bool:
        prev = ""
        for ch in vid:
            if ch not in self._child_chars[prev]:
                return False
            prev = ch
        return True

    def check_ids(self, ids, n: float) -> None:
        """Raise DomainError at the first id that is no vertex or lies below depth n."""
        for vid in ids:
            if not self.is_vertex(vid):
                raise DomainError(f"{vid!r} is not a vertex of this tree")
            if len(vid) > n:
                raise DomainError(f"vertex {vid!r} lies below depth {n}")


def level_sizes(matrix: AdjacencyMatrix, n: int) -> list[int]:
    """Exact [|T_0|, ..., |T_n|] as big integers."""
    if n < 0:
        raise DomainError("depth must be >= 0")
    return [matrix.geometry.level_size(k) for k in range(n + 1)]


@record
class ExpandingNumber:
    ratio_est: float
    spectral: float
    expandable: bool


def _perron_root(matrix: AdjacencyMatrix, members: frozenset[int]) -> float:
    """Perron root of one strongly connected class: power iteration on its block plus I.

    The loops I adds make the block primitive, so root + 1 is simple and strictly
    dominant and the normalized vector converges whatever the class's period; it is
    judged on that vector, never on the scalar ratio, which can repeat early.
    """
    idx = sorted(g - 1 for g in members)
    preds = [[p for p, i in enumerate(idx) if matrix.rows[i][j]] for j in idx]
    vec = [1.0 / len(idx)] * len(idx)
    for _ in range(30000):
        nxt = [vec[q] + sum(vec[p] for p in ps) for q, ps in enumerate(preds)]
        norm = sum(nxt)
        nxt = [x / norm for x in nxt]
        if max(abs(a - b) for a, b in zip(nxt, vec)) < 1e-13:
            break
        vec = nxt
    return norm - 1.0


def is_expandable(matrix: AdjacencyMatrix) -> bool:
    """True iff the level counts grow exponentially (spectral radius > 1).

    The radius is 1 exactly when every strongly connected class is a
    simple cycle or a loopless singleton, which is what
    ``sink_decomposition`` verifies.
    """
    return isinstance(matrix._sinks, str)


def spectral_radius(matrix: AdjacencyMatrix) -> float:
    """The largest Perron root over the strongly connected classes, the
    irreducible diagonal blocks of the Frobenius normal form."""
    if not is_expandable(matrix):
        return 1.0
    return max(_perron_root(matrix, members) for members in matrix._classes)


def expanding_number(matrix: AdjacencyMatrix, n: int) -> ExpandingNumber:
    """Growth ratio |T_{n+1}|/|T_n| alongside the spectral radius."""
    if n < 2:
        raise DomainError("expanding-number estimate needs n >= 2")
    geo = matrix.geometry
    ratio = geo.level_size(n + 1) / geo.level_size(n)
    return ExpandingNumber(ratio_est=ratio, spectral=spectral_radius(matrix),
                           expandable=is_expandable(matrix))


@record
class SinkDecomposition:
    """Block upper-triangular certificate for an unexpandable matrix.

    order lists the 1-based generators class by class (sources first); under
    that permutation all edges point weakly forward.  blocks holds the
    classes in the same order, each multi-vertex class listed in cycle
    order from its smallest member.  sinks indexes the classes with no
    outgoing edges to later classes.
    """

    order: tuple[int, ...]
    blocks: tuple[tuple[int, ...], ...]
    sinks: tuple[int, ...]

    def sink_generators(self) -> frozenset[int]:
        out: set[int] = set()
        for idx in self.sinks:
            out.update(self.blocks[idx])
        return frozenset(out)


def _strongly_connected_classes(matrix: AdjacencyMatrix) -> list[frozenset[int]]:
    d = matrix.d
    reach = [[bool(matrix.rows[i][j]) for j in range(d)] for i in range(d)]
    for k in range(d):
        for i in range(d):
            if reach[i][k]:
                for j in range(d):
                    if reach[k][j]:
                        reach[i][j] = True
    classes = []
    assigned = [False] * d
    for i in range(d):
        if assigned[i]:
            continue
        members = {i} | {j for j in range(d) if reach[i][j] and reach[j][i]}
        for j in members:
            assigned[j] = True
        classes.append(frozenset(m + 1 for m in members))
    return classes


def sink_decomposition(matrix: AdjacencyMatrix) -> SinkDecomposition:
    """Irreducible classes in topological order, cycle-verified.

    A multi-vertex class (or a looped singleton) must be a simple cycle:
    exactly one in-class successor per member, one orbit covering the
    class.  Anything denser forces exponential growth and raises
    NotUnexpandable.  Loopless singleton classes are transient stopovers
    and are allowed; they can never be sinks because their one edge
    leaves the class.  The order takes, from the classes sorted by smallest
    member, each time the first class that no remaining class has an edge
    into: Kahn's order with the smallest ready member first.  A sink is a
    class with no edge to another class.  Made once per matrix and kept on it.
    """
    found = matrix._sinks
    if isinstance(found, str):
        raise NotUnexpandable(found)
    return found


def _decompose(matrix: AdjacencyMatrix) -> SinkDecomposition:
    """The decomposition ``sink_decomposition`` describes; raises NotUnexpandable."""
    rows = matrix.rows
    ordered_members = []
    for cls_set in matrix._classes:
        members = tuple(sorted(cls_set))
        if len(members) == 1 and not rows[members[0] - 1][members[0] - 1]:
            ordered_members.append(members)
            continue
        succ = {}
        for g in members:
            inside = [j for j in members if rows[g - 1][j - 1]]
            if len(inside) != 1:
                raise NotUnexpandable(
                    f"class {set(members)} is not a simple cycle; growth is exponential"
                )
            succ[g] = inside[0]
        # a strongly connected class with one successor per member is one cycle
        orbit = [members[0]]
        for _ in members[1:]:
            orbit.append(succ[orbit[-1]])
        ordered_members.append(tuple(orbit))

    def enters(a, b):
        return a != b and any(rows[i - 1][j - 1] for i in a for j in b)

    remaining = sorted(ordered_members)  # each block starts at its smallest member
    blocks = []
    while remaining:
        c = next(c for c in remaining if not any(enters(o, c) for o in remaining))
        remaining.remove(c)
        blocks.append(c)
    order = tuple(g for members in blocks for g in members)
    sinks = tuple(
        pos for pos, c in enumerate(blocks) if not any(enters(c, o) for o in blocks)
    )
    return SinkDecomposition(order=order, blocks=tuple(blocks), sinks=sinks)


def sink_level_counts(matrix: AdjacencyMatrix, n: int) -> list[int]:
    """[S(0), ..., S(n)]: sink-resident vertex counts per level offset.

    S(m) sums the level vector v_{m+1} over the sink columns, so S(m)
    counts the sink vertices at tree level m+1.
    """
    if n < 0:
        raise DomainError("depth must be >= 0")
    return matrix.geometry.type_counts(sink_decomposition(matrix).sink_generators(), n + 1)


def entering_counts(matrix: AdjacencyMatrix, n: int) -> list[int]:
    """[a_1, ..., a_{n+1}]: rays entering a sink l levels above horizon n.

    a_l = S(n-l+1) - S(n-l) with S(-1) = 0, where S(m) counts sink
    vertices at level m+1.  Nonnegative because each sink vertex has
    exactly one sink successor.
    """
    if n < 0:
        raise DomainError("depth must be >= 0")
    s = [0] + sink_level_counts(matrix, n)  # s[m + 1] = S(m)
    return [s[n - ell + 2] - s[n - ell + 1] for ell in range(1, n + 2)]
