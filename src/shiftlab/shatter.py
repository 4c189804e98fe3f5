"""Shattering counts and the binary-entropy tail bound for 0/1 families.

A family F of binary words of a common length N shatters an index set
S when every 0/1 assignment on S appears as the restriction of some
member.  Two classical facts drive the bounds here:

* the number of index sets shattered by F is at least |F| (so a family
  larger than sum_{j<=k} C(N, j) must shatter some set of size > k);
* sum_{j<=floor(eps*N)} C(N, j) <= 2^(N * H2(eps)) for eps <= 1/2,
  with H2 the base-2 binary entropy.

Indices are 1-based, matching window positions elsewhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .errors import CapExceeded, DomainError, PreconditionViolated

APRIORI_LIMIT = 20


@dataclass(frozen=True)
class BinaryFamily:
    """A set of distinct binary words of one fixed length.

    Words are stored bit-packed (index 1 is the most significant bit) so
    restriction tests are mask arithmetic.
    """

    length: int
    masks: frozenset[int]

    @classmethod
    def from_words(cls, words) -> "BinaryFamily":
        packed = set()
        length = None
        for w in words:
            text = w if isinstance(w, str) else "".join(str(b) for b in w)
            if length is None:
                length = len(text)
            elif len(text) != length:
                raise DomainError("family members must share one length")
            if any(ch not in "01" for ch in text):
                raise DomainError(f"word {text!r} is not binary")
            packed.add(int(text, 2) if text else 0)
        if length is None or length == 0:
            raise DomainError("family needs words of positive length")
        return cls(length=length, masks=frozenset(packed))

    def __len__(self) -> int:
        return len(self.masks)

    def words(self) -> list[str]:
        return sorted(format(m, f"0{self.length}b") for m in self.masks)

    def to_json(self) -> dict:
        return {"n": self.length, "members": self.words()}

    @classmethod
    def from_json(cls, obj: dict) -> "BinaryFamily":
        fam = cls.from_words(obj["members"])
        if fam.length != obj["n"]:
            raise DomainError(f"member length {fam.length} does not match n={obj['n']}")
        return fam

    def _bit(self, mask: int, position: int) -> int:
        return (mask >> (self.length - position)) & 1

    def restriction(self, mask: int, positions: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(self._bit(mask, p) for p in positions)


def binary_entropy(eps: Fraction) -> float:
    """H2(eps) = -eps*log2(eps) - (1-eps)*log2(1-eps), with H2(0)=H2(1)=0."""
    x = float(eps)
    if not (0.0 <= x <= 1.0):
        raise DomainError(f"entropy argument {x} outside [0, 1]")
    if x in (0.0, 1.0):
        return 0.0
    return -(x * math.log2(x) + (1.0 - x) * math.log2(1.0 - x))


@dataclass(frozen=True)
class TailBound:
    lhs: int
    rhs: float
    holds: bool


def entropy_tail_bound(n: int, eps) -> TailBound:
    """sum_{j<=floor(eps*n)} C(n, j) against 2^(n*H2(eps)).

    eps must lie in [0, 1/2]; the cutoff floor(eps*n) is taken in exact
    rational arithmetic so eps = 1/3, n = 9 cuts at 3, not 2.
    """
    if n < 1:
        raise DomainError("tail bound needs n >= 1")
    frac = Fraction(eps).limit_denominator(10**12) if isinstance(eps, float) else Fraction(eps)
    if not (0 <= frac <= Fraction(1, 2)):
        raise DomainError(f"eps = {frac} outside [0, 1/2]")
    cutoff = (frac * n).__floor__()
    lhs = sum(math.comb(n, j) for j in range(cutoff + 1))
    rhs = 2.0 ** (n * binary_entropy(frac))
    return TailBound(lhs=lhs, rhs=rhs, holds=lhs <= rhs * (1 + 1e-12))


def _check_index_set(positions, length: int) -> tuple[int, ...]:
    pos = tuple(sorted(set(positions)))
    for p in pos:
        if not (1 <= p <= length):
            raise DomainError(f"index {p} outside [1, {length}]")
    return pos


def is_shattered(family: BinaryFamily, positions) -> bool:
    """Every 0/1 assignment on the positions is some member's restriction.

    The empty set is shattered exactly when the family is nonempty.
    """
    pos = _check_index_set(positions, family.length)
    if not family.masks:
        return False
    if not pos:
        return True
    target = 1 << len(pos)
    if target > len(family.masks):
        return False
    select = sum(1 << (family.length - p) for p in pos)
    seen = set()
    for mask in family.masks:
        seen.add(mask & select)
        if len(seen) == target:
            return True
    return False


def count_shattered(family: BinaryFamily) -> int:
    """How many index sets (the empty set included) the family shatters.

    Shattered sets are downward closed, so the scan walks level by level
    and only extends sets already shattered.  Lengths above
    ``APRIORI_LIMIT`` are rejected; the level frontier can reach C(N, N/2)
    otherwise.
    """
    if family.length > APRIORI_LIMIT:
        raise CapExceeded(
            f"shattered-set census limited to length <= {APRIORI_LIMIT}"
        )
    if not family.masks:
        return 0
    total = 1
    frontier = [()]
    size = 1
    while frontier:
        nxt = []
        for base in frontier:
            start = base[-1] + 1 if base else 1
            for p in range(start, family.length + 1):
                cand = base + (p,)
                if is_shattered(family, cand):
                    nxt.append(cand)
        total += len(nxt)
        frontier = nxt
        size += 1
        # no shattered set can outgrow log2 |F|
        if size > len(family.masks).bit_length():
            break
    return total


def forced_shatter_size(family: BinaryFamily) -> int:
    """The largest k with |F| > sum_{j<k} C(N, j): F must shatter a k-set."""
    k, below = 0, 1
    while k <= family.length and len(family.masks) > below:
        k += 1
        below += math.comb(family.length, k)
    return k


def extract_shattered(family: BinaryFamily, k: int) -> tuple[int, ...]:
    """The lexicographically smallest shattered index set of size k.

    Requires the counting hypothesis |F| > sum_{j<k} C(N, j); under it a
    shattered size-k set must exist (the count of shattered sets is at
    least |F|), so exhausting the scan is an internal invariant failure,
    not a caller error.
    """
    if k < 0:
        raise DomainError("witness size must be >= 0")
    threshold = sum(math.comb(family.length, j) for j in range(k))
    if len(family.masks) <= threshold:
        raise PreconditionViolated(
            f"family size {len(family.masks)} does not exceed "
            f"sum_(j<{k}) C({family.length},j) = {threshold}"
        )
    if k == 0:
        return ()
    for cand in combinations(range(1, family.length + 1), k):
        if is_shattered(family, cand):
            return cand
    raise AssertionError(
        f"counting hypothesis held but no shattered set of size {k} was found"
    )
