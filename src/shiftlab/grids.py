"""Two-dimensional block languages on k1 x k2 rectangles.

A 2D spec forbids a finite set of rectangular patterns; a block is
locally admissible when no forbidden pattern occurs at any placement.
Its alphabet is checked as a 1D spec's is, and its cells are read by
``trees.read_digits`` and written by ``words.words_to_json``.

A k1 x k2 window is a word of k1 rows over the admissible width-k2
rows (Calkin and Wilf's row transfer), read by the automaton of a
``RowShift``.  A process keeps one row shift per (spec value, width),
so equal specs parsed from different configs share it and its class-DP
memo.  A window wider than it is tall is read as the columns of the
transposed spec instead, so the rows always run along the shorter side.
The row automaton comes from ``words.pattern_automaton``, counts from
``words.block_counts``, and independence from the class DP of
``treeshifts`` walked up the rows.  Symbol maxima come from one (max, +)
pass of counts per width, which gives M(k, w) for every height k;
``max_symbol_block`` keeps a pass per window that also builds its
lex-first witness.  Only ``blocks_2d`` enumerates blocks.

The symbol-frequency extreme M(k1, k2) = max occurrences of a symbol
over admissible blocks is subadditive in each index, so

    fr_estimate = min over k1, k2 <= kmax of M(k1, k2) / (k1 k2)

is an exact rational upper bound on the limiting frequency.  Density
and independence mirror the 1D notions: a position set is independent
when every assignment extends to an admissible block.  The witness
extractor runs the shattering route: the block count forces a shattered
k-set, and on a binary alphabet a shattered set is an independent one,
so a lex-order walk asking ``is_indep_2d`` finds the lex-first k-set.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property, lru_cache

from . import shatter, treeshifts, words
from .caps import enumeration_cap
from .errors import CapExceeded, DomainError, EmptyLanguage, NoWitness
from .records import record
from .trees import read_digits

Cell = tuple[int, int]
Pattern = tuple[tuple[int, ...], ...]


def pattern_from_rows(rows) -> Pattern:
    """A pattern from its rows, each a digit string or a list of ints (``trees.read_digits``)."""
    out = []
    for row in rows:
        cells = read_digits(row)
        if cells is None:
            raise DomainError(f"pattern row {row!r}: expected digits")
        if out and len(cells) != len(out[0]):
            raise DomainError("pattern rows must share one width")
        out.append(cells)
    if not out or not out[0]:
        raise DomainError("patterns must be nonempty")
    return tuple(out)


@record
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


@record
class ShiftSpec2D:
    """A 2D shift given by alphabet size and forbidden rectangular patterns."""

    alphabet_size: int
    forbidden: tuple[Pattern, ...]

    def __post_init__(self) -> None:
        words.check_alphabet(self.alphabet_size)
        for pat in self.forbidden:
            for row in pat:
                for s in row:
                    if not (0 <= s < self.alphabet_size):
                        raise DomainError(f"pattern symbol {s} outside the alphabet")

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
        cells = words.words_to_json([sum(pat, ()) for pat in self.forbidden])
        return {
            "alphabet": self.alphabet_size,
            "forbidden": [{"dims": [len(pat), len(pat[0])], "cells": flat}
                          for pat, flat in zip(self.forbidden, cells)],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "ShiftSpec2D":
        pats = []
        forbidden = obj.get("forbidden", [])
        if not isinstance(forbidden, list):
            raise DomainError(f"forbidden must be a list of patterns, got {forbidden!r}")
        for entry in forbidden:
            if not isinstance(entry, dict):
                raise DomainError(f"forbidden entry {entry!r} is not an object with dims and cells")
            dims = entry["dims"]
            if not (isinstance(dims, list) and len(dims) == 2
                    and all(words.is_int(p) and p >= 1 for p in dims)):
                raise DomainError(f"pattern dims {dims!r}: expected two integers >= 1")
            p1, p2 = dims
            cells = read_digits(entry["cells"])
            if cells is None:
                raise DomainError(f"pattern {p1}x{p2} cells {entry['cells']!r}: expected digits")
            if len(cells) != p1 * p2:
                raise DomainError(f"cells length {len(cells)} does not match dims {p1}x{p2}")
            pats.append([cells[i * p2:(i + 1) * p2] for i in range(p1)])
        return cls.from_patterns(obj["alphabet"], pats)


class RowShift:
    """The windows of one width as words of rows, read by ``automaton``.

    The symbols are the admissible rows, sorted, so row order is block
    order: the one-row patterns refuse rows.  Each taller pattern no wider
    than the rows is a pattern of lines for ``words.pattern_automaton``.
    """

    def __init__(self, spec: ShiftSpec2D, width: int) -> None:
        flat = words.ShiftSpec1D.with_forbidden(
            spec.alphabet_size, [pat[0] for pat in spec.forbidden if len(pat) == 1]
        )
        self.rows = tuple(sorted(words.blocks_1d(flat, width)))
        # marks[t][a][x]: the offsets where line a of tall pattern t lies in row x, as bits
        marks = [[tuple(sum(1 << j for j in range(width - len(line) + 1)
                            if row[j:j + len(line)] == line) for row in self.rows) for line in pat]
                 for pat in spec.forbidden if len(pat) > 1 and len(pat[0]) <= width]
        self.automaton = words.pattern_automaton(len(self.rows), marks)


@lru_cache(maxsize=32)
def _row_shift(spec: ShiftSpec2D, width: int, cap: int) -> RowShift:
    """The row shift of one (spec value, width), built once under each cap.

    The cap is part of the key, so a window refused under a small
    ``SHIFTLAB_CAP`` is refused whether or not a larger cap built it.
    """
    return RowShift(spec, width)


def _orient(spec: ShiftSpec2D, k1: int, k2: int) -> tuple[ShiftSpec2D, int, int, bool]:
    """A k1 x k2 window as (spec of its rows, row width, word length, transposed).

    The rows run along the shorter side: a window wider than it is tall
    is a word of its k2 columns, the rows of the transposed spec.
    """
    if k1 < 1 or k2 < 1:
        raise DomainError("block sides must be >= 1")
    if k2 > k1:
        return spec._transposed, k1, k2, True
    return spec, k2, k1, False


def _window(spec: ShiftSpec2D, k1: int, k2: int) -> tuple[RowShift, int, bool]:
    """A k1 x k2 window as (row shift, word length, transposed)."""
    base, width, length, transposed = _orient(spec, k1, k2)
    return _row_shift(base, width, enumeration_cap()), length, transposed


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


@record
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
    _check_symbol(spec, symbol)
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


def _check_symbol(spec: ShiftSpec2D, symbol: int) -> None:
    if not (0 <= symbol < spec.alphabet_size):
        raise DomainError(f"symbol {symbol} outside the alphabet")


def max_symbol_series(spec: ShiftSpec2D, width: int, length: int, symbol: int = 1) -> list[int | None]:
    """[M(0, width), ..., M(length, width)]: the top symbol count of each k x width block.

    One (max, +) pass of counts up the words of width-``width`` rows, no
    witness: per state, the top count of the rows to come.  An entry is
    None where no block of that height is admissible.
    """
    _check_symbol(spec, symbol)
    if width < 1:
        raise DomainError("block sides must be >= 1")
    if length < 0:
        raise DomainError("length must be >= 0")
    shift = _row_shift(spec, width, enumeration_cap())
    weight = [row.count(symbol) for row in shift.rows]
    moves = [[(t, weight[x]) for x, t in enumerate(successors) if t is not None]
             for successors in shift.automaton.table]
    # -inf marks a state that no word of this length can leave
    best = [0] * shift.automaton.n_states
    out: list[int | None] = [0]
    for _ in range(length):
        below = best
        best = [max((below[t] + w for t, w in row), default=-math.inf) for row in moves]
        out.append(None if best[0] == -math.inf else best[0])
    return out


def _window_series(spec: ShiftSpec2D, k1: int, k2: int, series):
    """(a, b, the a x b window's entry) for 1 <= a <= k1, 1 <= b <= k2 in row-major order.

    ``series(row spec, width, length)`` lists the entries of heights 0 ..
    length of one width.  Each is fetched once, as long as its tallest
    window needs, when its first window comes up, so the first error is
    the one a pass window by window raises.  A spec equal to its
    transpose reads one series for both orientations.
    """
    flip = spec != spec._transposed
    shapes = []  # (a, b, row spec, series key, length); keys hash cheaper than specs
    for a in range(1, k1 + 1):
        for b in range(1, k2 + 1):
            base, width, length, transposed = _orient(spec, a, b)
            shapes.append((a, b, base, (width, transposed and flip), length))
    tallest: dict = {}
    for *_, key, length in shapes:
        tallest[key] = max(tallest.get(key, 0), length)
    fetched: dict = {}
    for a, b, base, key, length in shapes:
        if key not in fetched:
            fetched[key] = series(base, key[0], tallest[key])
        yield a, b, fetched[key][length]


def max_symbol_windows(spec: ShiftSpec2D, symbol: int, kmax: int) -> list[tuple[int, int, int]]:
    """(k1, k2, M(k1, k2)) for 1 <= k1, k2 <= kmax in row-major order, one
    ``max_symbol_series`` per row spec and width."""
    if kmax < 1:
        raise DomainError("kmax must be >= 1")
    out = []
    for k1, k2, top in _window_series(spec, kmax, kmax, lambda base, width, length:
                                      max_symbol_series(base, width, length, symbol)):
        if top is None:
            raise EmptyLanguage(f"no admissible {k1}x{k2} blocks")
        out.append((k1, k2, top))
    return out


def block_count_windows(spec: ShiftSpec2D, k1: int, k2: int) -> list[tuple[int, int, int]]:
    """(a, b, count of a x b blocks) for 1 <= a <= k1, 1 <= b <= k2 in row-major
    order, one ``words.block_counts`` series per row spec and width."""
    if k1 < 1 or k2 < 1:
        raise DomainError("block sides must be >= 1")
    return list(_window_series(spec, k1, k2, lambda base, width, length:
                               words.block_counts(_row_shift(base, width, enumeration_cap()), length)))


def min_fill_ratio(windows) -> Fraction:
    """min of M(k1, k2) / (k1 k2) over (k1, k2, M(k1, k2)) triples, exact."""
    return min(Fraction(top, k1 * k2) for k1, k2, top in windows)


def fr_estimate(spec: ShiftSpec2D, symbol: int, kmax: int) -> Fraction:
    """min over 1 <= k1, k2 <= kmax of M(k1, k2) / (k1 k2), exact."""
    return min_fill_ratio(max_symbol_windows(spec, symbol, kmax))


@record
class Entropy2D:
    raw: float
    fekete_upper: float


def entropy_est_2d(spec: ShiftSpec2D, k1: int, k2: int) -> Entropy2D:
    """raw = log M(k1,k2)/(k1 k2); upper = min over 1 <= m_i <= k_i (nats)."""
    if k1 < 1 or k2 < 1:
        raise DomainError("entropy estimate needs sides >= 1")
    logs = [words.log_per_size(count, m1 * m2) for m1, m2, count in block_count_windows(spec, k1, k2)]
    return Entropy2D(raw=logs[-1], fekete_upper=min(logs))


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


@record
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


@record
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
    return treeshifts._walk(shift.automaton, pins) == spec.alphabet_size ** len(cells)


@record
class Indep2DWitness:
    J: GridPositionSet
    k: int
    count: int  # |B_{k1,k2}|, the count the witness read


def indep_witness_2d(spec: ShiftSpec2D, k1: int, k2: int) -> Indep2DWitness:
    """Shattering-based independence witness for binary 2D shifts.

    Treats B_{k1,k2} as a binary family over N = k1*k2 indices, finds the
    largest k whose counting hypothesis |F| > sum_{j<k} C(N,j) holds, and
    returns the lexicographically first shattered size-k index set as
    grid positions (row-major index order).  On a binary alphabet the
    blocks shatter a cell set exactly when it is independent, so the
    lex-order walk asks ``is_indep_2d`` and lists no block.
    """
    if spec.alphabet_size != 2:
        raise DomainError("witness extraction works on binary alphabets")
    count = count_blocks_2d(spec, k1, k2)
    limit = enumeration_cap()
    # the walk meets fewer sets below size k than there are blocks, so the cap bounds it
    if count > limit:
        raise CapExceeded(f"more than SHIFTLAB_CAP = {limit} admissible {k1}x{k2} blocks")
    if count <= 1:
        raise NoWitness(f"language has {count} block(s); no free position")

    def cells(index_set) -> GridPositionSet:
        return GridPositionSet.of(((idx - 1) // k2 + 1, (idx - 1) % k2 + 1) for idx in index_set)

    k = shatter.forced_size(k1 * k2, count)
    index_set = shatter.first_shattered(k1 * k2, k, lambda idx: is_indep_2d(spec, cells(idx), k1, k2))
    return Indep2DWitness(J=cells(index_set), k=k, count=count)
