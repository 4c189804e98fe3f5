"""Two-dimensional block languages on k1 x k2 rectangles.

A 2D spec forbids a finite set of rectangular patterns; a block is
locally admissible when no forbidden pattern occurs at any placement.

A k1 x k2 window is a word of k1 rows over the admissible width-k2
rows (Calkin and Wilf's row transfer): a spec caches per width a
``RowShift``, whose automaton reads rows.  A window wider than it is
tall is read as the columns of the transposed spec instead, so the
rows always run along the shorter side.  Counts come from
``words.block_counts``, symbol maxima from a (max, +) pass, and
independence from the class DP of ``treeshifts`` walked up the rows.
Only ``blocks_2d`` and the shattering witness enumerate blocks.

The symbol-frequency extreme M(k1, k2) = max occurrences of a symbol
over admissible blocks is subadditive in each index, so

    fr_estimate = min over k1, k2 <= kmax of M(k1, k2) / (k1 k2)

is an exact rational upper bound on the limiting frequency.  Density
and independence mirror the 1D notions: a position set is independent
when every assignment extends to an admissible block, and the witness
extractor runs the shattering route (find the largest k the family
size forces, pull a shattered set, check it).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from operator import and_

from . import shatter, treeshifts, words
from .errors import DomainError, EmptyLanguage, NoWitness

Cell = tuple[int, int]
Pattern = tuple[tuple[int, ...], ...]


def pattern_from_rows(rows) -> Pattern:
    out = []
    width = None
    for row in rows:
        cells = tuple(int(ch) for ch in row) if isinstance(row, str) else tuple(row)
        if width is None:
            width = len(cells)
        elif len(cells) != width:
            raise DomainError("pattern rows must share one width")
        out.append(cells)
    if not out or width == 0:
        raise DomainError("patterns must be nonempty")
    return tuple(out)


@dataclass(frozen=True)
class GridBlock:
    """An a1 x a2 array of symbols, row 1 on top, 1-based coordinates."""

    rows: Pattern

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.rows), len(self.rows[0])

    def at(self, i: int, j: int) -> int:
        return self.rows[i - 1][j - 1]

    def to_strings(self) -> list[str]:
        return ["".join(str(s) for s in row) for row in self.rows]


@dataclass(frozen=True)
class ShiftSpec2D:
    """A 2D shift given by alphabet size and forbidden rectangular patterns."""

    alphabet_size: int
    forbidden: tuple[Pattern, ...]

    def __post_init__(self) -> None:
        if self.alphabet_size < 2:
            raise DomainError(f"alphabet needs at least 2 symbols, got {self.alphabet_size}")
        for pat in self.forbidden:
            for row in pat:
                for s in row:
                    if not (0 <= s < self.alphabet_size):
                        raise DomainError(f"pattern symbol {s} outside the alphabet")

    @cached_property
    def _row_shifts(self) -> dict:
        """Row shifts by width, built on first use (see ``_window``)."""
        return {}

    @cached_property
    def _transposed(self) -> "ShiftSpec2D":
        """The spec with every pattern mirrored in its main diagonal."""
        flipped = tuple(sorted(tuple(zip(*pat)) for pat in self.forbidden))
        return ShiftSpec2D(self.alphabet_size, flipped)

    @classmethod
    def from_patterns(cls, r: int, patterns) -> "ShiftSpec2D":
        return cls(r, tuple(sorted(pattern_from_rows(p) for p in patterns)))

    @classmethod
    def hard_square(cls) -> "ShiftSpec2D":
        """Binary blocks with no two horizontally or vertically adjacent ones."""
        return cls.from_patterns(2, (("11",), ("1", "1")))

    @classmethod
    def full(cls, r: int = 2) -> "ShiftSpec2D":
        return cls(r, ())

    @classmethod
    def zeros_only(cls) -> "ShiftSpec2D":
        return cls.from_patterns(2, (("1",),))

    def to_json(self) -> dict:
        return {
            "alphabet": self.alphabet_size,
            "forbidden": [
                {
                    "dims": [len(pat), len(pat[0])],
                    "cells": "".join(str(s) for row in pat for s in row),
                }
                for pat in self.forbidden
            ],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "ShiftSpec2D":
        pats = []
        for entry in obj.get("forbidden", ()):
            p1, p2 = entry["dims"]
            cells = entry["cells"]
            if len(cells) != p1 * p2:
                raise DomainError(f"cells length {len(cells)} does not match dims {p1}x{p2}")
            pats.append([cells[i * p2:(i + 1) * p2] for i in range(p1)])
        return cls.from_patterns(obj["alphabet"], pats)


class RowShift:
    """The windows of one width as words of rows, with ``automaton`` and ``_memo``.

    The symbols are the admissible rows, sorted, so row order is block
    order.  A history is the last h - 1 rows, h the tallest pattern; a
    step is refused when a pattern ends on the new row.
    """

    def __init__(self, spec: ShiftSpec2D, width: int) -> None:
        flat = words.ShiftSpec1D.with_forbidden(
            spec.alphabet_size, [pat[0] for pat in spec.forbidden if len(pat) == 1]
        )
        self.rows = tuple(sorted(words.blocks_1d(flat, width)))
        tall = [pat for pat in spec.forbidden if len(pat) > 1 and len(pat[0]) <= width]
        memory = max((len(pat) for pat in tall), default=1) - 1
        # marks[t][x][a]: the offsets where line a of tall pattern t lies in row x, as bits
        marks = [[tuple(sum(1 << j for j in range(width - len(line) + 1)
                            if row[j:j + len(line)] == line) for line in pat)
                  for row in self.rows] for pat in tall]

        def next_history(history: tuple, x: int):
            grown = history + (x,)
            for hits in marks:
                p = len(hits[0])
                if p <= len(grown) and reduce(and_, (hits[y][a] for a, y in enumerate(grown[-p:]))):
                    return None
            return grown[-memory:] if memory > 0 else ()

        self.automaton = words.WordAutomaton(len(self.rows), (), next_history)
        self._memo: dict = {}


def _window(spec: ShiftSpec2D, k1: int, k2: int) -> tuple[RowShift, int, bool]:
    """A k1 x k2 window as (row shift, word length, transposed), the shift built once per width.

    The rows run along the shorter side: a window wider than it is tall
    is a word of its k2 columns, the rows of the transposed spec.
    """
    if k1 < 1 or k2 < 1:
        raise DomainError("block sides must be >= 1")
    transposed = k2 > k1
    base, width, length = (spec._transposed, k1, k2) if transposed else (spec, k2, k1)
    if width not in base._row_shifts:
        base._row_shifts[width] = RowShift(base, width)
    return base._row_shifts[width], length, transposed


def blocks_2d(spec: ShiftSpec2D, k1: int, k2: int) -> tuple[GridBlock, ...]:
    """All admissible k1 x k2 blocks, ordered by their row-major symbol string."""
    shift, length, transposed = _window(spec, k1, k2)
    lines = (tuple(shift.rows[x] for x in word) for word in words.blocks_1d(shift, length))
    return tuple(GridBlock(rows) for rows in sorted(
        tuple(zip(*rows)) if transposed else rows for rows in lines
    ))


def count_blocks_2d(spec: ShiftSpec2D, k1: int, k2: int) -> int:
    shift, length, _ = _window(spec, k1, k2)
    return words.block_counts(shift, length)[length]


def count_symbol(block: GridBlock, symbol: int) -> int:
    return sum(row.count(symbol) for row in block.rows)


@dataclass(frozen=True)
class MaxSymbolBlock:
    M: int
    witness: GridBlock


def max_symbol_block(spec: ShiftSpec2D, k1: int, k2: int, symbol: int = 1) -> MaxSymbolBlock:
    """Max symbol count over admissible blocks; lex-first witness among ties.

    A (max, +) pass up the word keeps per state the top count of the rows
    (or columns) to come and, among those reaching it, the first block in
    row-major order.  Putting one row above, or one column left of, two
    blocks keeps their order, so the first block of each state suffices.
    """
    if not (0 <= symbol < spec.alphabet_size):
        raise DomainError(f"symbol {symbol} outside the alphabet")
    shift, length, transposed = _window(spec, k1, k2)
    weight = [row.count(symbol) for row in shift.rows]

    def grow(x: int, block: Pattern) -> Pattern:
        line = shift.rows[x]
        return tuple((s,) + row for s, row in zip(line, block)) if transposed else (line,) + block

    # per state, (minus the top count, its first block), or None where no word can follow
    best = [(0, ((),) * k1 if transposed else ())] * shift.automaton.n_states
    for _ in range(length):
        below = best
        best = [min(((below[t][0] - weight[x], grow(x, below[t][1]))
                     for x, t in enumerate(successors) if t is not None and below[t]), default=None)
                for successors in shift.automaton.table]
    if best[0] is None:
        raise EmptyLanguage(f"no admissible {k1}x{k2} blocks")
    count, block = best[0]
    return MaxSymbolBlock(M=-count, witness=GridBlock(block))


def fr_estimate(spec: ShiftSpec2D, symbol: int, kmax: int) -> Fraction:
    """min over 1 <= k1, k2 <= kmax of M(k1, k2) / (k1 k2), exact."""
    if kmax < 1:
        raise DomainError("kmax must be >= 1")
    return min(
        Fraction(max_symbol_block(spec, k1, k2, symbol).M, k1 * k2)
        for k1 in range(1, kmax + 1)
        for k2 in range(1, kmax + 1)
    )


@dataclass(frozen=True)
class Entropy2D:
    raw: float
    fekete_upper: float


def entropy_est_2d(spec: ShiftSpec2D, k1: int, k2: int) -> Entropy2D:
    """raw = log M(k1,k2)/(k1 k2); upper = min over 1 <= m_i <= k_i (nats)."""
    if k1 < 1 or k2 < 1:
        raise DomainError("entropy estimate needs sides >= 1")
    logs = []
    raw = None
    for m1 in range(1, k1 + 1):
        for m2 in range(1, k2 + 1):
            c = count_blocks_2d(spec, m1, m2)
            val = (math.log(c) if c else float("-inf")) / (m1 * m2)
            logs.append(val)
            if (m1, m2) == (k1, k2):
                raw = val
    return Entropy2D(raw=raw, fekete_upper=min(logs))


def prefix_regular_block(
    spec: ShiftSpec2D, k1: int, k2: int, symbol: int, target
) -> GridBlock | None:
    """An admissible block whose every top slab meets the target frequency.

    Regularity asks count(rows 1..j) >= j * k2 * target for every j <= k1;
    the comparison is exact on rationals.  Returns None when no block
    qualifies at this window; raises EmptyLanguage when there are no
    blocks at all.
    """
    goal = Fraction(target)
    if not (0 <= goal <= 1):
        raise DomainError(f"target {goal} outside [0, 1]")
    blocks = blocks_2d(spec, k1, k2)
    if not blocks:
        raise EmptyLanguage(f"no admissible {k1}x{k2} blocks")
    for block in blocks:
        running = 0
        ok = True
        for j, row in enumerate(block.rows, start=1):
            running += row.count(symbol)
            if Fraction(running) < j * k2 * goal:
                ok = False
                break
        if ok:
            return block
    return None


@dataclass(frozen=True)
class GridPositionSet:
    """1-based grid positions: an explicit cell set or a named generator."""

    kind: str
    cells: frozenset[Cell] = frozenset()
    param: int = 0

    @classmethod
    def of(cls, cells) -> "GridPositionSet":
        return cls(kind="explicit", cells=frozenset((int(a), int(b)) for a, b in cells))

    @classmethod
    def checkerboard(cls) -> "GridPositionSet":
        """Positions (i, j) with i + j even."""
        return cls(kind="checkerboard")

    @classmethod
    def rows_leq(cls, m: int) -> "GridPositionSet":
        """Positions in the top m rows."""
        return cls(kind="rows_leq", param=m)

    @classmethod
    def everything(cls) -> "GridPositionSet":
        return cls(kind="all")

    def contains(self, i: int, j: int) -> bool:
        if self.kind == "explicit":
            return (i, j) in self.cells
        if self.kind == "checkerboard":
            return (i + j) % 2 == 0
        if self.kind == "rows_leq":
            return i <= self.param
        return True

    def count_window(self, n1: int, n2: int) -> int:
        if self.kind == "explicit":
            return sum(1 for i, j in self.cells if i <= n1 and j <= n2)
        if self.kind == "checkerboard":
            # same-parity pairs: odd rows pair with odd columns and so on
            odd = (n1 + 1) // 2 * ((n2 + 1) // 2)
            even = (n1 // 2) * (n2 // 2)
            return odd + even
        if self.kind == "rows_leq":
            return min(self.param, n1) * n2
        return n1 * n2

    def window(self, n1: int, n2: int) -> frozenset[Cell]:
        if self.kind == "explicit":
            return frozenset((i, j) for i, j in self.cells if i <= n1 and j <= n2)
        return frozenset(
            (i, j)
            for i in range(1, n1 + 1)
            for j in range(1, n2 + 1)
            if self.contains(i, j)
        )

    def to_json(self):
        if self.kind == "explicit":
            return {"cells": sorted([i, j] for i, j in self.cells)}
        if self.kind == "rows_leq":
            return {"generator": "rows_leq", "m": self.param}
        return {"generator": self.kind}

    @classmethod
    def from_json(cls, obj) -> "GridPositionSet":
        if "cells" in obj:
            return cls.of(obj["cells"])
        gen = obj["generator"]
        if gen == "checkerboard":
            return cls.checkerboard()
        if gen == "rows_leq":
            return cls.rows_leq(obj["m"])
        if gen == "all":
            return cls.everything()
        raise DomainError(f"unknown position generator {gen!r}")


@dataclass(frozen=True)
class UpperDensity2D:
    ratios: tuple[Fraction, ...]
    upper_est: Fraction


def upper_density_grid(positions: GridPositionSet, windows) -> UpperDensity2D:
    """|S inside each window| / area, with max taken over the tail half."""
    wins = [tuple(w) for w in windows]
    if not wins:
        raise DomainError("window list must be nonempty")
    for n1, n2 in wins:
        if n1 < 1 or n2 < 1:
            raise DomainError("window sides must be >= 1")
    ratios = tuple(
        Fraction(positions.count_window(n1, n2), n1 * n2) for n1, n2 in wins
    )
    tail = ratios[len(ratios) // 2:]
    return UpperDensity2D(ratios=ratios, upper_est=max(tail))


def is_indep_2d(spec: ShiftSpec2D, positions: GridPositionSet, k1: int, k2: int) -> bool:
    """Every assignment on the positions extends to an admissible block.

    Explicit position sets must lie inside the window; generator sets are
    clipped to it.  A row (or column) meeting the set is pinned by its
    values there.
    """
    if positions.kind == "explicit":
        for i, j in positions.cells:
            if not (1 <= i <= k1 and 1 <= j <= k2):
                raise DomainError(f"position {(i, j)} outside the {k1}x{k2} window")
    shift, length, transposed = _window(spec, k1, k2)
    cells = positions.window(k1, k2)
    if transposed:
        cells = frozenset((j, i) for i, j in cells)
    pins = []
    for i in range(length, 0, -1):
        cols = [j for j in range(k1 if transposed else k2) if (i, j + 1) in cells]
        pins.append(tuple(tuple(row[j] for j in cols) for row in shift.rows) if cols else False)
    return treeshifts._walk(shift, pins) == spec.alphabet_size ** len(cells)


@dataclass(frozen=True)
class Indep2DWitness:
    J: GridPositionSet
    k: int


def indep_witness_2d(spec: ShiftSpec2D, k1: int, k2: int) -> Indep2DWitness:
    """Shattering-based independence witness for binary 2D shifts.

    Treats B_{k1,k2} as a binary family over N = k1*k2 indices, finds the
    largest k whose counting hypothesis |F| > sum_{j<k} C(N,j) holds,
    extracts the lexicographically first shattered size-k index set, and
    returns it as grid positions (row-major index order).  The result is
    checked against is_indep_2d before returning.
    """
    if spec.alphabet_size != 2:
        raise DomainError("witness extraction works on binary alphabets")
    shift, length, transposed = _window(spec, k1, k2)
    # a row's bits in the block mask: adjacent, or k2 apart for a column
    step, stride = (1, k2) if transposed else (k2, 1)
    code = [sum(s << (len(row) - 1 - c) * stride for c, s in enumerate(row)) for row in shift.rows]
    masks = frozenset(reduce(lambda mask, x: mask << step | code[x], word, 0)
                      for word in words.blocks_1d(shift, length))
    if len(masks) <= 1:
        raise NoWitness(f"language has {len(masks)} block(s); no free position")
    family = shatter.BinaryFamily(length=k1 * k2, masks=masks)
    k = shatter.forced_shatter_size(family)
    index_set = shatter.extract_shattered(family, k)
    cells = tuple(( (idx - 1) // k2 + 1, (idx - 1) % k2 + 1) for idx in index_set)
    witness = GridPositionSet.of(cells)
    if not is_indep_2d(spec, witness, k1, k2):
        raise AssertionError("shattered set failed the independence re-check")
    return Indep2DWitness(J=witness, k=k)
