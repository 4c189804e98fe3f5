"""One-dimensional shift languages over a finite ordered alphabet.

A spec presents a shift in one of three ways: a finite list of forbidden
words, the full shift, or the AtMostK family (at most ``count`` occurrences
of one tracked symbol in every window).  The operations here work on the
locally admissible window language: the length-n words containing no
forbidden factor.  For the built-in catalog (golden mean, full shift,
AtMostK, single-letter erasures) this coincides with the true block
language of the shift.

Every spec compiles once into a ``WordAutomaton``: integer states and a
``table[state][symbol]`` successor lookup.  Provided quantities:

* exact block counts by a state DP over that table, never materializing
  beyond the cap;
* entropy estimates in nats, with the subadditivity (Fekete) upper bound
  ``min_{m <= n} log |B_m| / m``;
* hereditary closures (coordinatewise lowering) and a hereditary check;
* window-scale independence: S inside [1, l] is independent when every
  assignment S -> alphabet extends to an admissible length-l word, and
  J_l is the maximum size of such an S.  J is subadditive, so J_l / l
  converges; ``max_indep_J`` reports the running Fekete estimate.

The window [1, l] is Delta_{l-1} of the one-generator ray (position p is
the vertex at depth p - 1), so window independence and J come from the
class DP of ``treeshifts`` walked up the ray; no word is materialized.
A spec caches its automaton and that DP's memo, as a tree-shift spec does.

Positions are 1-based throughout, matching the window notation [1, l].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial

from .caps import enumeration_cap
from .errors import CapExceeded, DomainError

FULL = "full"
FORBIDDEN = "forbidden"
AT_MOST_K = "at_most_k"

Word = tuple[int, ...]


def word_from_str(text: str) -> Word:
    return tuple(int(ch) for ch in text)


def word_to_str(word: Word) -> str:
    return "".join(str(s) for s in word)


@dataclass(frozen=True)
class Alphabet:
    """Symbols 0..size-1 in their natural order."""

    size: int

    def __post_init__(self) -> None:
        if self.size < 2:
            raise DomainError(f"alphabet needs at least 2 symbols, got {self.size}")

    @property
    def symbols(self) -> range:
        return range(self.size)


@dataclass(frozen=True)
class ShiftSpec1D:
    """A 1D shift presentation.

    kind "forbidden" lists the forbidden words, kind "full" forbids
    nothing, kind "at_most_k" allows at most ``count`` occurrences of
    ``symbol`` in any window.
    """

    alphabet: Alphabet
    kind: str
    forbidden: tuple[Word, ...] = ()
    symbol: int = 0
    count: int = 0

    def __post_init__(self) -> None:
        if self.kind not in (FULL, FORBIDDEN, AT_MOST_K):
            raise DomainError(f"unknown spec kind {self.kind!r}")
        if self.kind == FORBIDDEN:
            for w in self.forbidden:
                if len(w) == 0:
                    raise DomainError("forbidden words must be nonempty")
                if any(not (0 <= s < self.alphabet.size) for s in w):
                    raise DomainError(f"forbidden word {w} uses symbols outside the alphabet")
        if self.kind == AT_MOST_K:
            if not (0 <= self.symbol < self.alphabet.size):
                raise DomainError(f"tracked symbol {self.symbol} outside the alphabet")
            if self.count < 0:
                raise DomainError("occurrence bound must be >= 0")

    @classmethod
    def full(cls, r: int = 2) -> "ShiftSpec1D":
        return cls(Alphabet(r), FULL)

    @classmethod
    def with_forbidden(cls, r: int, words) -> "ShiftSpec1D":
        packed = tuple(
            sorted(word_from_str(w) if isinstance(w, str) else tuple(w) for w in words)
        )
        return cls(Alphabet(r), FORBIDDEN, forbidden=packed)

    @classmethod
    def at_most_k(cls, r: int, symbol: int, count: int) -> "ShiftSpec1D":
        return cls(Alphabet(r), AT_MOST_K, symbol=symbol, count=count)

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
        start = 0 if self.kind == AT_MOST_K else ()
        return WordAutomaton(self.alphabet.size, start, partial(_next_history, self))

    @cached_property
    def _memo(self) -> dict:
        """The class DP's memo, as on a tree-shift spec (see ``treeshifts``)."""
        return {}

    @property
    def max_forbidden_len(self) -> int:
        return max((len(w) for w in self.forbidden), default=0)

    def to_json(self) -> dict:
        obj: dict = {"alphabet": self.alphabet.size, "kind": self.kind}
        if self.kind == FORBIDDEN:
            # digit strings cannot spell symbols above 9
            if any(s > 9 for w in self.forbidden for s in w):
                obj["forbidden"] = [list(w) for w in self.forbidden]
            else:
                obj["forbidden"] = [word_to_str(w) for w in self.forbidden]
        elif self.kind == AT_MOST_K:
            obj["symbol"] = self.symbol
            obj["count"] = self.count
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "ShiftSpec1D":
        kind = obj.get("kind", FORBIDDEN)
        r = obj["alphabet"]
        if kind == FULL:
            return cls.full(r)
        if kind == FORBIDDEN:
            return cls.with_forbidden(r, obj.get("forbidden", ()))
        if kind == AT_MOST_K:
            return cls.at_most_k(r, obj["symbol"], obj["count"])
        raise DomainError(f"unknown spec kind {kind!r}")


class WordAutomaton:
    """Compiled recognizer of words over the symbols ``0 .. size - 1``.

    A breadth-first search from the history ``start``, where
    ``next_history(history, s)`` appends s or returns None when that is
    inadmissible, numbers each reachable history as a state (0 initial);
    ``table[q][s]`` is the successor of q under s, or None.  A table over
    ``SHIFTLAB_CAP`` entries (states times symbols) raises CapExceeded.
    """

    initial = 0

    def __init__(self, size: int, start, next_history) -> None:
        self.size = size
        limit = enumeration_cap()
        histories: list = [start]
        index = {start: 0}
        table = []
        for history in histories:  # grows while the search runs
            row = []
            for s in range(size):
                nxt = next_history(history, s)
                if nxt is not None and nxt not in index:
                    index[nxt] = len(histories)
                    histories.append(nxt)
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


def _next_history(spec: ShiftSpec1D, history, symbol: int):
    """The history after appending ``symbol``, or None if a window breaks.

    A history is the last ``max_forbidden_len - 1`` symbols, the running
    occurrence count for AtMostK, or nothing for the full shift.
    """
    if spec.kind == FULL:
        return ()
    if spec.kind == AT_MOST_K:
        seen = history + (1 if symbol == spec.symbol else 0)
        return seen if seen <= spec.count else None
    grown = history + (symbol,)
    for f in spec.forbidden:
        if len(f) <= len(grown) and grown[-len(f):] == f:
            return None
    memory = spec.max_forbidden_len - 1
    return grown[-memory:] if memory > 0 else ()


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


def count_blocks_1d(spec: ShiftSpec1D, n: int) -> int:
    return block_counts(spec, n)[n]


def blocks_1d(spec: ShiftSpec1D, n: int) -> frozenset[Word]:
    """The admissible words of length n (n = 0 gives the empty word)."""
    if n < 0:
        raise DomainError("length must be >= 0")
    limit = enumeration_cap()
    auto = spec.automaton
    out: list[Word] = []

    def extend(prefix: Word, state) -> None:
        if len(prefix) == n:
            out.append(prefix)
            if len(out) > limit:
                raise CapExceeded(f"more than {limit} words of length {n}")
            return
        for s in range(auto.size):
            t = auto.step(state, s)
            if t is not None:
                extend(prefix + (s,), t)

    extend((), auto.initial)
    return frozenset(out)


@dataclass(frozen=True)
class Entropy1D:
    raw: float
    fekete_upper: float


def _safe_log(count: int) -> float:
    return math.log(count) if count > 0 else float("-inf")


def entropy_est_1d(spec: ShiftSpec1D, n: int) -> Entropy1D:
    """raw = log|B_n|/n; fekete_upper = min_{m<=n} log|B_m|/m (nats)."""
    if n < 1:
        raise DomainError("entropy estimate needs n >= 1")
    counts = block_counts(spec, n)
    per_len = [_safe_log(counts[m]) / m for m in range(1, n + 1)]
    return Entropy1D(raw=per_len[-1], fekete_upper=min(per_len))


def hereditary_closure(spec: ShiftSpec1D, n: int) -> frozenset[Word]:
    """Downward completion of B_n under coordinatewise symbol lowering."""
    seen = set(blocks_1d(spec, n))
    stack = list(seen)
    while stack:
        w = stack.pop()
        for i, s in enumerate(w):
            if s > 0:
                lowered = w[:i] + (s - 1,) + w[i + 1:]
                if lowered not in seen:
                    seen.add(lowered)
                    stack.append(lowered)
    return frozenset(seen)


def is_hereditary_upto(spec: ShiftSpec1D, n: int) -> bool:
    """True when lowering one symbol of any admissible word of length <= n keeps it admissible."""
    if n < 1:
        raise DomainError("hereditary check needs n >= 1")
    for m in range(1, n + 1):
        block = blocks_1d(spec, m)
        if any(w[:i] + (s - 1,) + w[i + 1:] not in block
               for w in block for i, s in enumerate(w) if s):
            return False
    return True


def is_indep_1d(spec: ShiftSpec1D, positions, length: int) -> bool:
    """Every assignment on the positions extends to an admissible word.

    Walks the window from its last position up to its first, one class
    step per position, pinned when it lies in the set.  The empty set is
    independent exactly when the length-``length`` language is nonempty.
    """
    from .treeshifts import _walk

    pos = frozenset(positions)
    for p in sorted(pos):
        if not (1 <= p <= length):
            raise DomainError(f"position {p} outside the window [1, {length}]")
    if length < 0:
        raise DomainError("length must be >= 0")
    return _walk(spec, (p in pos for p in range(length, 0, -1))) == spec.alphabet.size ** len(pos)


def _max_indep_window(spec: ShiftSpec1D, length: int) -> tuple[int, tuple[int, ...]]:
    """Maximum independent set inside [1, length]; lex-first witness.

    The walk of ``is_indep_1d`` for every pin set at once, keeping per
    class map the lex-first pin set that reaches it.  A pin set with fewer
    than r^|pins| restrictions is dropped (no step brings one back), so a
    class map's pin sets share one size and, having equal futures, one
    witness.
    """
    from .treeshifts import _node_step, _root_count

    r = spec.alphabet.size
    limit = enumeration_cap()
    layer = {frozenset({(spec.automaton.all_states, 1)}): ()}
    for p in range(length, 0, -1):
        nxt: dict = {}
        for classes, pins in layer.items():
            for pinned, grown in ((False, pins), (True, (p,) + pins)):
                out = _node_step(spec, pinned, (classes,))
                if sum(m for _, m in out) < r ** len(grown):
                    continue
                if out not in nxt or grown < nxt[out]:
                    nxt[out] = grown
        if len(nxt) > limit:
            raise CapExceeded(f"more than SHIFTLAB_CAP = {limit} class maps at position {p}")
        layer = nxt
    size, witness = min(((-len(pins), pins) for classes, pins in layer.items()
                         if _root_count(classes) == r ** len(pins)), default=(0, ()))
    return -size, witness


@dataclass(frozen=True)
class MaxIndep1D:
    J: int
    witness: tuple[int, ...]
    fekete_limit_est: Fraction


def max_indep_J(spec: ShiftSpec1D, length: int) -> MaxIndep1D:
    """J_length with a lex-first witness and the running min of J_m / m."""
    if length < 1:
        raise DomainError("window length must be >= 1")
    windows = [_max_indep_window(spec, m) for m in range(1, length + 1)]
    fekete = min(Fraction(j, m) for m, (j, _) in enumerate(windows, start=1))
    return MaxIndep1D(J=windows[-1][0], witness=windows[-1][1], fekete_limit_est=fekete)
