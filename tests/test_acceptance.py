"""Acceptance suite: one test per criterion, independent oracles throughout.

Each test prints one summary line through the conftest terminal hook.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from shiftlab import grids, harness, shatter, trees, treeshifts, words

GOLDEN = words.ShiftSpec1D.golden_mean()
COMB = trees.AdjacencyMatrix.comb()
BINARY = trees.AdjacencyMatrix.binary_tree()
TS_COMB_GOLDEN = treeshifts.make_tree_shift(COMB, GOLDEN)
TS_COMB_ATMOST = treeshifts.make_tree_shift(
    COMB, words.ShiftSpec1D.at_most_k(2, symbol=1, count=1)
)
TS_BIN_A = treeshifts.make_tree_shift(BINARY, [[1, 1], [0, 1]])
LOG_PHI = math.log((1 + 5 ** 0.5) / 2)


def test_criterion_01_golden_mean_counts_and_entropy():
    # oracle: exhaustive bitmask enumeration, no adjacent ones
    fib = [2, 3]
    while len(fib) < 20:
        fib.append(fib[-1] + fib[-2])
    for n in range(1, 21):
        exhaustive = sum(1 for m in range(1 << n) if m & (m << 1) == 0)
        assert words.block_counts(GOLDEN, n)[n] == exhaustive == fib[n - 1]
    raw = words.entropy_est_1d(GOLDEN, 24).raw
    assert abs(raw - LOG_PHI) <= 0.02


def test_criterion_02_counting_tail_bound_grid():
    for n in range(1, 31):
        for num in range(1, 11):
            tb = shatter.entropy_tail_bound(n, Fraction(num, 20))
            assert tb.holds, (n, num)


def _random_family(rng: random.Random, n_max: int) -> shatter.BinaryFamily:
    n = rng.randint(1, n_max)
    size = rng.randint(2, min(2 ** n, 48))
    return shatter.BinaryFamily.from_words(
        format(m, f"0{n}b") for m in rng.sample(range(2 ** n), size)
    )


def _shattered_subsets_oracle(fam: shatter.BinaryFamily) -> int:
    members = fam.words()
    total = 1  # the empty set
    for k in range(1, fam.length + 1):
        if 2 ** k > len(members):
            break
        for S in itertools.combinations(range(1, fam.length + 1), k):
            proj = {tuple(w[p - 1] for p in S) for w in members}
            if len(proj) == 2 ** k:
                total += 1
    return total


def test_criterion_03_shattered_count_dominates_family_size():
    rng = random.Random(20260815)
    for trial in range(1000):
        fam = _random_family(rng, n_max=10)
        count = shatter.count_shattered(fam)
        assert count >= len(fam), trial
        if trial % 10 == 0:
            assert count == _shattered_subsets_oracle(fam), trial


def test_criterion_04_extraction_always_verifies():
    rng = random.Random(715)
    for trial in range(500):
        fam = _random_family(rng, n_max=12)
        n = fam.length
        k, cum = 0, 0
        for j in range(n + 1):
            cum += math.comb(n, j)
            if len(fam) > cum:
                k = j + 1
        got = shatter.extract_shattered(fam, k)
        assert len(got) == k, trial
        assert shatter.is_shattered(fam, got), trial


def test_criterion_05_hard_square_entropy_and_witnesses():
    hs = grids.ShiftSpec2D.hard_square()
    assert grids.count_blocks_2d(hs, 5, 5) == 55447
    assert grids.entropy_est_2d(hs, 5, 5).raw >= 0.35
    for k1 in range(2, 5):
        for k2 in range(2, 5):
            wit = grids.indep_witness_2d(hs, k1, k2)
            assert wit.k >= 2, (k1, k2)
            assert grids.is_indep_2d(hs, wit.J, k1, k2)
            assert grids.count_blocks_2d(hs, k1, k2) >= 2 ** wit.k


def test_criterion_06_comb_golden_entropy_trend_and_chain():
    geo = TS_COMB_GOLDEN.geometry()
    raws = {}
    for n in range(1, 61):
        count = treeshifts.count_patterns(TS_COMB_GOLDEN, n)
        raws[n] = math.log(count) / geo.delta_size(n)
    assert abs(raws[60] - LOG_PHI) <= 0.05
    trend = [raws[n] for n in range(10, 61)]
    assert all(b <= a + 1e-12 for a, b in zip(trend, trend[1:]))
    for n in range(2, 61):
        assert treeshifts.entropy_chain(TS_COMB_GOLDEN, n).holds, n
    for n in range(0, 61):
        a = trees.entering_counts(COMB, n)
        assert sum((l + 1) * a[l] for l in range(len(a))) == geo.delta_size(n), n


def test_criterion_07_sink_lift_density_and_independence():
    geo = TS_COMB_GOLDEN.geometry()
    lift = treeshifts.sink_lift(TS_COMB_GOLDEN, range(1, 202, 2))
    ratio = Fraction(lift.count_in(geo, 200), geo.delta_size(200))
    assert abs(ratio - Fraction(1, 2)) <= Fraction(1, 50)
    for n in range(1, 13):
        members = lift.members_in(geo, n)
        assert treeshifts.is_indep_tree(TS_COMB_GOLDEN, members, n), n


def test_criterion_08_budget_base_density_vanishes():
    ratios = []
    for n in range(1, 11):
        est = treeshifts.max_indep_est(TS_COMB_ATMOST, n)
        assert est.certified, n
        ratios.append(est.ratio)
    assert all(b < a for a, b in zip(ratios, ratios[1:]))
    mid = treeshifts.max_indep_est(TS_COMB_ATMOST, 12)
    assert mid.certified and mid.ratio < Fraction(15, 100)
    far = treeshifts.max_indep_est(TS_COMB_ATMOST, 40)
    assert far.certified and far.ratio < Fraction(5, 100)
    base = words.ShiftSpec1D.at_most_k(2, symbol=1, count=1)
    js = [Fraction(words.max_indep_J(base, l).J, l) for l in range(1, 16)]
    assert all(b <= a for a, b in zip(js, js[1:]))
    assert js[-1] <= Fraction(1, 15)


def test_criterion_09_upper_triangular_tree_shift():
    counts = [treeshifts.count_patterns(TS_BIN_A, n) for n in range(6)]
    assert counts[3] == 677
    for n in range(1, 6):
        assert counts[n] == 1 + counts[n - 1] ** 2
    raw = treeshifts.tree_entropy_est(TS_BIN_A, 6).raw
    assert raw >= 0.34
    assert raw >= 0.5 * math.log(2) - 1e-2
    geo = TS_BIN_A.geometry()
    verts = geo.vertices(3)
    for bits in range(1 << len(verts)):
        S = [verts[i] for i in range(len(verts)) if bits >> i & 1]
        antichain = not any(
            u != v and v.startswith(u)
            for u, v in itertools.permutations(S, 2)
        )
        assert treeshifts.is_indep_tree(TS_BIN_A, S, 3) == antichain, S


def test_criterion_10_three_predicates_agree_on_catalog():
    catalog = [
        (treeshifts.make_tree_shift(BINARY, words.ShiftSpec1D.full(2)), True),
        (TS_BIN_A, True),
        (treeshifts.make_tree_shift(BINARY, words.ShiftSpec1D.zeros_only()), False),
        (treeshifts.make_tree_shift(BINARY, GOLDEN), True),
    ]
    for ts, expect in catalog:
        has_entropy = treeshifts.tree_entropy_est(ts, 6).raw > 0.01
        has_surface = treeshifts.surface_entropy_est(ts, 6).raw > 0.01
        res = treeshifts.bip_search(ts, 1, 6)
        has_bip = res is not None and res.ratio >= Fraction(1, 4)
        assert has_entropy == has_surface == has_bip == expect


def test_criterion_11_reproduce_is_byte_identical():
    for key in harness.REPRODUCE_KEYS:
        first = harness.reproduce(key)
        second = harness.reproduce(key)
        assert first.passed and second.passed, key
        assert first.json_bytes() == second.json_bytes(), key
