"""One-dimensional shift languages over a finite ordered alphabet.

A spec takes one of two forms: forbidden words (none for the full shift),
or AtMostK (at most ``count`` occurrences of one tracked symbol in every
window).  The operations here work on the locally admissible window
language: the length-n words containing no forbidden factor.  For the
built-in catalog (golden mean, full shift, AtMostK, single-letter
erasures) this coincides with the true block language of the shift.
A spec's alphabet is the int ``alphabet_size``; its words are read by
``trees.read_digits`` and written by ``words_to_json``, as 2D cells are.

Every spec compiles once into a ``WordAutomaton``: integer states and a
``table[state][symbol]`` successor lookup; forbidden words compile through
``pattern_automaton``, as 2D row shifts do, whose states are the live
partial matches of the patterns (Aho and Corasick).  Provided quantities:

* exact block counts by a state DP over that table, never materializing
  beyond the cap;
* entropy estimates in nats, with the subadditivity (Fekete) upper bound
  ``min_{m <= n} log |B_m| / m``;
* an exact hereditary check (coordinatewise lowering keeps words
  admissible), by a search over pairs of automaton states;
* window-scale independence: S inside [1, l] is independent when every
  assignment S -> alphabet extends to an admissible length-l word, and
  J_l is the maximum size of such an S.  J is subadditive, so J_l / l
  converges; ``max_indep_J_series`` reports J_1 .. J_l with the running
  Fekete estimate, and ``max_indep_J`` its last entry.

The window [1, l] is Delta_{l-1} of the one-generator ray ``RAY`` (position
p is the vertex at depth p - 1), so ``treeshifts`` decides window
independence on the ray's pin walk, by support, and gives J_1 .. J_l from
one pin-set walk up it; no word is materialized.
A spec caches its automaton, and that DP's caches are keyed by it.

Positions are 1-based throughout, matching the window notation [1, l].
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from itertools import accumulate

from .caps import enumeration_cap
from .errors import CapExceeded, DomainError
from .records import record
from .trees import AdjacencyMatrix, read_digits, read_ints

FORBIDDEN = "forbidden"
AT_MOST_K = "at_most_k"
RAY = AdjacencyMatrix(((1,),)).geometry  # the one-generator ray: its Delta_{l - 1} is the window [1, l]

Word = tuple[int, ...]


def word_to_str(word: Word) -> str:
    return "".join(str(s) for s in word)


def words_to_json(ws) -> list:
    """Words as digit strings, or as int lists once a symbol passes 9, which no digit spells."""
    big = any(s > 9 for w in ws for s in w)
    return [list(w) if big else word_to_str(w) for w in ws]


def is_int(value: object) -> bool:
    """JSON integers only: bool is an int subclass, but true is not 1 here."""
    return isinstance(value, int) and not isinstance(value, bool)


def _require_int(value, field: str) -> None:
    if not is_int(value):
        raise DomainError(f"{field} must be an integer, got {value!r}")


def check_alphabet(size) -> None:
    """Refuse an alphabet size that is not an integer of at least 2: symbols run 0 .. size - 1."""
    _require_int(size, "alphabet size")
    if size < 2:
        raise DomainError(f"alphabet needs at least 2 symbols, got {size}")


@record
class ShiftSpec1D:
    """A 1D shift presentation.

    kind "forbidden" lists the forbidden words (none for the full shift),
    kind "at_most_k" allows at most ``count`` occurrences of
    ``symbol`` in any window.
    """

    alphabet_size: int
    kind: str
    forbidden: tuple[Word, ...] = ()
    symbol: int = 0
    count: int = 0

    def __post_init__(self) -> None:
        check_alphabet(self.alphabet_size)
        if self.kind not in (FORBIDDEN, AT_MOST_K):
            raise DomainError(f"unknown spec kind {self.kind!r}")
        if self.kind == FORBIDDEN:
            for w in self.forbidden:
                if len(w) == 0:
                    raise DomainError("forbidden words must be nonempty")
                if any(not (0 <= s < self.alphabet_size) for s in w):
                    raise DomainError(f"forbidden word {w} uses symbols outside the alphabet")
        if self.kind == AT_MOST_K:
            _require_int(self.symbol, "at_most_k symbol")
            _require_int(self.count, "at_most_k count")
            if not (0 <= self.symbol < self.alphabet_size):
                raise DomainError(f"tracked symbol {self.symbol} outside the alphabet")
            if self.count < 0:
                raise DomainError("occurrence bound must be >= 0")

    @classmethod
    def full(cls, r: int = 2) -> "ShiftSpec1D":
        return cls.with_forbidden(r, ())

    @classmethod
    def with_forbidden(cls, r: int, words) -> "ShiftSpec1D":
        packed = []
        for w in words:
            packed.append(read_digits(w))
            if packed[-1] is None:
                raise DomainError(f"forbidden entry {w!r} is neither a digit string nor a list of ints")
        return cls(r, FORBIDDEN, forbidden=tuple(sorted(packed)))

    @classmethod
    def at_most_k(cls, r: int, symbol: int, count: int) -> "ShiftSpec1D":
        return cls(r, AT_MOST_K, symbol=symbol, count=count)

    @classmethod
    def golden_mean(cls) -> "ShiftSpec1D":
        """Binary shift forbidding adjacent ones."""
        return cls.with_forbidden(2, ("11",))

    @classmethod
    def zeros_only(cls) -> "ShiftSpec1D":
        """The one-point shift whose only admissible symbol is 0."""
        return cls.with_forbidden(2, ("1",))

    @cached_property
    def automaton(self) -> "WordAutomaton":
        r = self.alphabet_size
        if self.kind == AT_MOST_K:  # the state is how often the tracked symbol occurred
            return WordAutomaton(r, 0, lambda seen, s: seen if s != self.symbol
                                 else seen + 1 if seen < self.count else None)
        return pattern_automaton(r, [[tuple(int(x == s) for x in range(r)) for s in w]
                                     for w in self.forbidden])

    def to_json(self) -> dict:
        obj = {"alphabet": self.alphabet_size, "kind": self.kind}
        if self.kind == FORBIDDEN:
            return {**obj, "forbidden": words_to_json(self.forbidden)}
        return {**obj, "symbol": self.symbol, "count": self.count}

    @classmethod
    def from_json(cls, obj: dict) -> "ShiftSpec1D":
        kind = obj.get("kind", FORBIDDEN)
        r = obj["alphabet"]
        if kind in ("full", AT_MOST_K) and "forbidden" in obj:
            raise DomainError(f"forbidden: kind {kind!r} reads no forbidden words")
        if kind in ("full", FORBIDDEN):
            forbidden = obj.get("forbidden", [])
            if not isinstance(forbidden, list):
                raise DomainError(f"forbidden must be a list of words, got {forbidden!r}")
            return cls.with_forbidden(r, forbidden)
        if kind == AT_MOST_K:
            return cls.at_most_k(r, obj["symbol"], obj["count"])
        raise DomainError(f"unknown spec kind {kind!r}")


class WordAutomaton:
    """Compiled recognizer of words over the symbols ``0 .. size - 1``.

    A breadth-first search from the state ``start`` (the live partial
    matches for ``pattern_automaton``), where ``next_state(state, s)`` is
    the state after s or None when s is inadmissible there, numbers each
    reachable state (0 initial); ``table[q][s]`` is the successor of q
    under s, or None.  A table over ``SHIFTLAB_CAP`` entries (states times
    symbols) raises CapExceeded.  The ``treeshifts`` DP caches its steps
    under the automaton itself (equal by identity), so every spec compiled
    to it shares them.
    """

    initial = 0

    def __init__(self, size: int, start, next_state) -> None:
        self.size = size
        limit = enumeration_cap()
        states: list = [start]
        index = {start: 0}
        table = []
        for state in states:  # grows while the search runs
            row = []
            for s in range(size):
                nxt = next_state(state, s)
                if nxt is not None and nxt not in index:
                    index[nxt] = len(states)
                    states.append(nxt)
                row.append(None if nxt is None else index[nxt])
            table.append(tuple(row))
            if len(table) * size > limit:
                raise CapExceeded(f"automaton table over SHIFTLAB_CAP = {limit} entries")
        self.table: tuple[tuple[int | None, ...], ...] = tuple(table)
        self.n_states = len(table)
        self.all_states = (1 << self.n_states) - 1

    def step(self, state: int, symbol: int) -> int | None:
        return self.table[state][symbol]

    def is_viable(self) -> bool:
        """True when the language contains words of every length.

        Prunes states without a live successor until none is left; the
        survivors are the states with arbitrarily long extensions.
        """
        live = set(range(self.n_states))
        while True:
            dead = {q for q in live if not any(t in live for t in self.table[q])}
            if not dead:
                return self.initial in live
            live -= dead


def pattern_automaton(size: int, patterns) -> WordAutomaton:
    """The words over ``0 .. size - 1`` in which no pattern occurs.

    ``patterns[t][a][x]`` marks as bits the offsets where line a of pattern
    t lies in symbol x.  A state is the live partial matches (Aho and
    Corasick's automaton): the offsets where each proper prefix of each
    pattern's lines ends at the last symbol, all for the empty prefix, in
    one int with a field of ``bits`` bits per line.  On x, prefix a + 1 ends
    where prefix a ended and line a lies in x (one ``&``); x is refused where
    a whole pattern would end, and a shift moves each prefix on one line."""
    lines = [line for pattern in patterns for line in pattern]
    bits = max((m.bit_length() for line in lines for m in line), default=0) or 1
    bounds = list(accumulate(map(len, patterns), initial=0))  # each pattern's first line, then the end
    starts = sum((1 << bits) - 1 << bits * a for a in bounds[:-1])
    ends = sum((1 << bits) - 1 << bits * a for a in bounds[1:]) >> bits
    marks = [sum(line[x] << bits * a for a, line in enumerate(lines)) for x in range(size)]

    def next_state(state: int, x: int) -> int | None:
        grown = state & marks[x]
        return None if grown & ends else grown << bits | starts

    return WordAutomaton(size, starts, next_state)


def block_counts(spec: ShiftSpec1D, n: int) -> list[int]:
    """Exact [|B_0|, ..., |B_n|] via the state DP, no materialization."""
    if n < 0:
        raise DomainError("length must be >= 0")
    auto = spec.automaton
    dist = [0] * auto.n_states
    dist[auto.initial] = 1
    out = [1]
    for _ in range(n):
        nxt = [0] * auto.n_states
        for mult, row in zip(dist, auto.table):
            if mult:
                for t in row:
                    if t is not None:
                        nxt[t] += mult
        dist = nxt
        out.append(sum(dist))
    return out


def blocks_1d(spec: ShiftSpec1D, n: int) -> frozenset[Word]:
    """The admissible words of length n (n = 0 gives the empty word).

    The exact count comes first, so more than ``SHIFTLAB_CAP`` words are
    refused before any is listed.
    """
    if n < 0:
        raise DomainError("length must be >= 0")
    limit = enumeration_cap()
    if block_counts(spec, n)[n] > limit:
        raise CapExceeded(f"more than SHIFTLAB_CAP = {limit} words of length {n}")
    auto = spec.automaton
    out: list[Word] = []
    # (prefix, state) pairs on an explicit stack: n may pass the recursion limit
    stack = [((), auto.initial)]
    while stack:
        prefix, state = stack.pop()
        if len(prefix) == n:
            out.append(prefix)
            continue
        for s in range(auto.size):
            t = auto.step(state, s)
            if t is not None:
                stack.append((prefix + (s,), t))
    return frozenset(out)


def log_per_size(count: int, size: int) -> float:
    """log count / size in nats, -inf for count 0: the estimate of a window of ``size`` sites."""
    return (math.log(count) if count else -math.inf) / size


@record
class Entropy1D:
    raw: float
    fekete_upper: float


def entropy_est_1d(spec: ShiftSpec1D, n: int) -> Entropy1D:
    """raw = log|B_n|/n; fekete_upper = min_{m<=n} log|B_m|/m (nats)."""
    if n < 1:
        raise DomainError("entropy estimate needs n >= 1")
    counts = block_counts(spec, n)
    per_len = [log_per_size(counts[m], m) for m in range(1, n + 1)]
    return Entropy1D(raw=per_len[-1], fekete_upper=min(per_len))


def is_hereditary_upto(spec: ShiftSpec1D, n: float) -> bool:
    """True when lowering one symbol of any admissible word of length <= n keeps it admissible.

    A breadth-first search over pairs (state of w, state of w'), w' being w
    with at most one symbol lowered by one, to depth n; equal states may
    still lower.  A w' that dies while w lives is a counterexample.  With
    n = math.inf the search ends when no new pair appears: an exact answer.
    """
    if n < 1:
        raise DomainError("hereditary check needs n >= 1")
    table = spec.automaton.table
    frontier = seen = {(spec.automaton.initial,) * 2}
    depth = 0
    while frontier and depth < n:
        depth += 1
        grown = set()
        for q, low in frontier:
            for s, t in enumerate(table[q]):
                if t is not None:
                    grown.add((t, table[low][s]))
                    if q == low and s:
                        grown.add((t, table[q][s - 1]))
        if any(low is None for _, low in grown):
            return False
        frontier = grown - seen
        seen |= frontier
    return True


def is_indep_1d(spec: ShiftSpec1D, positions, length: int) -> bool:
    """Every assignment on the positions extends to an admissible word.

    Position p is the vertex at depth p - 1 of ``RAY``, pinned when in the
    set, and the ray's pin walk decides.  The empty set is independent
    exactly when the length-``length`` language is nonempty.
    """
    from .treeshifts import _independent

    pos = frozenset(read_ints(positions, "position"))
    for p in sorted(pos):
        if not (1 <= p <= length):
            raise DomainError(f"position {p} outside the window [1, {length}]")
    if length < 0:
        raise DomainError("length must be >= 0")
    return length == 0 or _independent(spec.automaton, RAY, {"1" * (p - 1): True for p in pos}, length - 1)


@record
class MaxIndep1D:
    J: int
    witness: tuple[int, ...]
    fekete_limit_est: Fraction


def max_indep_J_series(spec: ShiftSpec1D, length: int) -> list[MaxIndep1D]:
    """J_m with a lex-first witness and the running min of J_m / m, for m = 1 .. length.

    Entry m - 1 is the window [1, m].  One pin-set walk up the
    one-generator ray gives every window; its vertex at depth k is
    position k + 1, so the lex-first set over sorted ids is the
    lex-first set of positions.
    """
    from .treeshifts import _max_pin_sets, _pin_ids

    if length < 1:
        raise DomainError("window length must be >= 1")
    limit = enumeration_cap()
    windows = [_pin_ids(RAY, top, limit) for top in _max_pin_sets(spec.automaton, RAY, length - 1, length)]
    fekete = accumulate((Fraction(len(pins), m) for m, pins in enumerate(windows, start=1)), min)
    return [
        MaxIndep1D(J=len(pins), witness=tuple(len(v) + 1 for v in pins), fekete_limit_est=est)
        for pins, est in zip(windows, fekete)
    ]


def max_indep_J(spec: ShiftSpec1D, length: int) -> MaxIndep1D:
    """J_length with a lex-first witness (the last entry of ``max_indep_J_series``)."""
    return max_indep_J_series(spec, length)[-1]
