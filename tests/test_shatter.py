"""Tests for binary families, the tail bound, and shattered-set extraction."""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftlab import shatter
from shiftlab.errors import CapExceeded, DomainError, PreconditionViolated


def family_of(*ws) -> shatter.BinaryFamily:
    return shatter.BinaryFamily.from_words(ws)


def shattered_subsets_oracle(fam: shatter.BinaryFamily) -> set[tuple[int, ...]]:
    """Every index set S with |proj_S(F)| = 2^|S|, by direct projection."""
    out = {()}
    members = fam.words()
    for k in range(1, fam.length + 1):
        if 2 ** k > len(members):
            break
        for S in itertools.combinations(range(1, fam.length + 1), k):
            proj = {tuple(w[p - 1] for p in S) for w in members}
            if len(proj) == 2 ** k:
                out.add(S)
    return out


def random_family(rng: random.Random, n_max: int = 10) -> shatter.BinaryFamily:
    n = rng.randint(1, n_max)
    size = rng.randint(1, min(2 ** n, 48))
    members = rng.sample(range(2 ** n), size)
    return shatter.BinaryFamily.from_words(
        format(m, f"0{n}b") for m in members
    )


families = st.builds(
    random_family, st.randoms(use_true_random=False), st.just(8)
)


class TestBinaryEntropy:
    def test_half_is_one_bit(self):
        assert shatter.binary_entropy(Fraction(1, 2)) == pytest.approx(1.0)

    def test_endpoints_are_zero(self):
        assert shatter.binary_entropy(Fraction(0)) == 0.0
        assert shatter.binary_entropy(Fraction(1)) == 0.0

    @given(st.fractions(min_value=0, max_value=1))
    @settings(max_examples=60, deadline=None)
    def test_symmetric(self, x):
        a = shatter.binary_entropy(x)
        b = shatter.binary_entropy(1 - x)
        assert a == pytest.approx(b, abs=1e-12)

    def test_rejects_outside_unit_interval(self):
        with pytest.raises(DomainError):
            shatter.binary_entropy(Fraction(3, 2))


class TestTailBound:
    def test_four_and_one_half(self):
        tb = shatter.entropy_tail_bound(4, Fraction(1, 2))
        assert tb.lhs == 11
        assert tb.rhs == pytest.approx(16.0)
        assert tb.holds

    def test_nine_and_one_third(self):
        # rhs = 2^(9 H2(1/3)) = 3^9 / 2^6
        tb = shatter.entropy_tail_bound(9, Fraction(1, 3))
        assert tb.lhs == 130
        assert tb.rhs == pytest.approx(19683 / 64, abs=1e-9)
        assert tb.holds

    def test_exact_rational_cutoff(self):
        # 9 * 1/3 cuts at 3 exactly, not at 2 via float noise
        tb = shatter.entropy_tail_bound(9, 1 / 3)
        assert tb.lhs == 130

    def test_zero_eps(self):
        tb = shatter.entropy_tail_bound(7, 0)
        assert tb.lhs == 1
        assert tb.rhs == pytest.approx(1.0)
        assert tb.holds

    def test_rejects_large_eps(self):
        with pytest.raises(DomainError):
            shatter.entropy_tail_bound(5, Fraction(2, 3))

    @given(
        n=st.integers(min_value=1, max_value=40),
        num=st.integers(min_value=0, max_value=20),
    )
    @settings(max_examples=120, deadline=None)
    def test_always_holds_on_grid(self, n, num):
        tb = shatter.entropy_tail_bound(n, Fraction(num, 40))
        assert tb.holds


class TestIsShattered:
    def test_pinned_family(self):
        fam = family_of("000", "001", "010", "011", "100")
        assert shatter.is_shattered(fam, (2, 3))
        assert not shatter.is_shattered(fam, (1, 2))

    def test_positions_apart(self):
        fam = family_of("0000", "1010", "0010", "1000")
        assert shatter.is_shattered(fam, (1, 3))
        assert shatter.is_shattered(fam, (3, 1))
        assert not shatter.is_shattered(fam, (1, 4))
        assert not shatter.is_shattered(fam, (2, 4))

    def test_empty_set_always_shattered(self):
        assert shatter.is_shattered(family_of("01"), ())

    @given(families, st.data())
    @settings(max_examples=80, deadline=None)
    def test_matches_projection_oracle(self, fam, data):
        k = data.draw(st.integers(min_value=1, max_value=min(4, fam.length)))
        S = tuple(
            sorted(
                data.draw(
                    st.sets(
                        st.integers(min_value=1, max_value=fam.length),
                        min_size=k,
                        max_size=k,
                    )
                )
            )
        )
        proj = {tuple(w[p - 1] for p in S) for w in fam.words()}
        assert shatter.is_shattered(fam, S) == (len(proj) == 2 ** len(S))

    @given(families)
    @settings(max_examples=60, deadline=None)
    def test_monotone_under_subsets(self, fam):
        oracle = shattered_subsets_oracle(fam)
        for S in oracle:
            for drop in range(len(S)):
                assert S[:drop] + S[drop + 1 :] in oracle


class TestCountShattered:
    def test_pinned_count(self):
        fam = family_of("000", "001", "010", "100")
        assert shatter.count_shattered(fam) == 4

    def test_full_cube(self):
        fam = shatter.BinaryFamily.from_words(
            format(m, "03b") for m in range(8)
        )
        assert shatter.count_shattered(fam) == 8

    @given(families)
    @settings(max_examples=80, deadline=None)
    def test_matches_subset_scan_oracle(self, fam):
        assert shatter.count_shattered(fam) == len(shattered_subsets_oracle(fam))

    @given(families)
    @settings(max_examples=80, deadline=None)
    def test_pajor_lower_bound(self, fam):
        assert shatter.count_shattered(fam) >= len(fam)

    def test_long_families_hit_the_cap(self):
        fam = shatter.BinaryFamily.from_words(["0" * 21, "0" * 20 + "1"])
        with pytest.raises(CapExceeded):
            shatter.count_shattered(fam)

    def test_permutation_invariance(self):
        fam = family_of("0011", "0101", "1001", "0110", "1010")
        flipped = shatter.BinaryFamily.from_words(w[::-1] for w in fam.words())
        assert shatter.count_shattered(fam) == shatter.count_shattered(flipped)


class TestExtractShattered:
    def test_pinned_extraction(self):
        fam = family_of("000", "001", "010", "011", "100")
        assert shatter.extract_shattered(fam, 2) == (2, 3)

    def test_extraction_is_lex_smallest(self):
        fam = shatter.BinaryFamily.from_words(
            format(m, "04b") for m in range(16)
        )
        assert shatter.extract_shattered(fam, 2) == (1, 2)

    def test_zero_k_is_trivial(self):
        assert shatter.extract_shattered(family_of("01", "10"), 0) == ()

    def test_precondition_checked(self):
        fam = family_of("000", "001", "010", "100")
        # |F| = 4 <= C(3,0) + C(3,1) = 4, so k = 2 has no counting support
        with pytest.raises(PreconditionViolated):
            shatter.extract_shattered(fam, 2)

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=200, deadline=None)
    def test_extraction_verified_on_random_families(self, seed):
        rng = random.Random(seed)
        fam = random_family(rng, n_max=12)
        n = fam.length
        k = 0
        cum = 0
        for j in range(n + 1):
            cum += math.comb(n, j)
            if len(fam) > cum:
                k = j + 1
        assert shatter.forced_shatter_size(fam) == k
        got = shatter.extract_shattered(fam, k)
        assert len(got) == k
        assert shatter.is_shattered(fam, got)

    def test_forced_shatter_size_pinned(self):
        # |F| must exceed sum_{j<k} C(N, j): 1, then 1 + N, then 1 + N + C(N, 2)
        assert shatter.forced_shatter_size(family_of("0101")) == 0
        assert shatter.forced_shatter_size(family_of("0000", "0101")) == 1
        assert shatter.forced_shatter_size(family_of("0000", "0001", "0010", "0100", "1000")) == 1
        assert shatter.forced_shatter_size(family_of("000", "001", "010", "100", "111")) == 2
        assert shatter.forced_shatter_size(family_of("00", "01", "10", "11")) == 2


class TestPlumbing:
    def test_json_round_trip(self):
        fam = family_of("0011", "1100", "0000")
        assert shatter.BinaryFamily.from_json(fam.to_json()) == fam

    def test_json_length_mismatch(self):
        with pytest.raises(DomainError):
            shatter.BinaryFamily.from_json({"n": 5, "members": ["001"]})

    def test_mixed_lengths_rejected(self):
        with pytest.raises(DomainError):
            family_of("01", "011")

    def test_restriction_reads_msb_first(self):
        fam = family_of("100")
        (mask,) = fam.masks
        assert fam.restriction(mask, (1, 2, 3)) == (1, 0, 0)
