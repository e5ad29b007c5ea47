"""Closed-form moments and pair combinatorics against exact rational oracles."""

import hashlib
import math
import operator
import tracemalloc
from fractions import Fraction
from functools import lru_cache, reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathscape import mc, moments
from pathscape.moments import (
    a_bound_check,
    a_coeff,
    cond_var_tree,
    expected_paths,
    indecomposable_count,
    log_a_coeff,
    pair_open_prob_hypercube,
    pair_open_prob_tree,
    pstar_upper_bound,
    q0,
    scaled_limits,
    second_moment_hypercube,
    second_moment_tree,
    tree_pair_count,
    var_hypercube,
    var_star_tree,
    var_tree,
)


def _a_exact(L: int, q: int) -> Fraction:
    """a(L,q) = L!(2L-2q-2)! / ((L-q-2)!(2L-q-2)!) in exact arithmetic."""
    return Fraction(
        math.factorial(L) * math.factorial(2 * L - 2 * q - 2),
        math.factorial(L - q - 2) * math.factorial(2 * L - q - 2),
    )


def test_expected_paths_trivial():
    assert expected_paths(4, 0.0) == 4.0
    assert expected_paths(5, 1.0) == 0.0
    assert expected_paths(1, 0.3) == 1.0


@pytest.mark.parametrize("L", [1, 2, 5])
def test_expected_paths_at_x_one_is_zero_like_both_samplers(L):
    # every path ends on the value 1 and a tie blocks it, so Theta = 0
    assert expected_paths(L, 1.0) == 0.0
    assert mc.tree_theta_batch(L, 1.0, 11, 20).tolist() == [0] * 20
    assert mc.hypercube_theta_batch(L, 1.0, 11, 20).tolist() == [0] * 20


@pytest.mark.parametrize("L", [2, 5, 9])
def test_second_moments_and_pair_probabilities_at_x_one_are_zero(L):
    # no path is open at x = 1, so no pair is either
    assert second_moment_tree(L, 1.0) == 0.0
    assert second_moment_hypercube(L, 1.0) == 0.0
    assert pair_open_prob_hypercube(L, 0, 0, 1.0) == 0.0
    if L >= 3:
        assert cond_var_tree(L, 1.0, 1) == 0.0


@given(L=st.integers(2, 30), data=st.data())
@settings(max_examples=60, deadline=None)
def test_a_coeff_matches_exact_rational(L, data):
    q = data.draw(st.integers(0, L - 2))
    exact = _a_exact(L, q)
    assert a_coeff(L, q) == pytest.approx(float(exact), rel=1e-10)
    assert log_a_coeff(L, q) == pytest.approx(
        math.log(exact.numerator) - math.log(exact.denominator), abs=1e-10
    )


@pytest.mark.parametrize("L", [12, 100, 10**4])
def test_a_boundary_values(L):
    # frozen from exact rational arithmetic on the defining factorial ratio
    assert _a_exact(L, L - 2) == 2
    assert _a_exact(L, L - 3) == Fraction(24, L + 1)
    assert _a_exact(L, L - 4) == Fraction(360, (L + 1) * (L + 2))
    assert a_coeff(L, L - 2) == pytest.approx(2.0, rel=1e-10)
    assert a_coeff(L, L - 3) == pytest.approx(24.0 / (L + 1), rel=1e-10)
    assert a_coeff(L, L - 4) == pytest.approx(
        360.0 / ((L + 1) * (L + 2)), rel=1e-10
    )


def test_a_small_q_asymptotics():
    # a(L,q) * 2^q / L^2 -> 1 for fixed q as L grows
    for q in (0, 1, 3):
        gaps = [abs(a_coeff(L, q) * 2**q / L**2 - 1.0) for L in (100, 1000, 10**4)]
        assert gaps == sorted(gaps, reverse=True)
        assert gaps[-1] < 1e-2


def test_split_bound_report():
    rep = a_bound_check(100)
    assert not rep.holds
    assert rep.first_violation_q == 6
    assert rep.max_log_excess > 0
    assert a_bound_check(10**4).holds
    # exact-arithmetic scan put the threshold at L = 900
    assert a_bound_check(899).holds is False
    assert a_bound_check(900).holds
    assert a_bound_check(2000).holds


def test_split_bound_rejects_L_below_12():
    with pytest.raises(ValueError, match="L must be >= 12"):
        a_bound_check(11)


def test_q0_value():
    assert q0(100) == math.ceil(math.log(10**4) / math.log(2) + 1)
    with pytest.raises(ValueError):
        q0(5)


@given(L=st.integers(2, 40), x=st.floats(0.0, 0.999))
@settings(max_examples=60, deadline=None)
def test_variance_nonnegative(L, x):
    assert second_moment_tree(L, x) >= expected_paths(L, x) ** 2 - 1e-9
    assert var_tree(L, x) >= -1e-9


def test_second_moment_exact_small_L():
    # direct exact sum over shared-bond classes at L=5, x=1/4
    L, x = 5, Fraction(1, 4)
    exact = sum(
        _a_exact(L, q) * (1 - x) ** (2 * L - q - 2) for q in range(L - 1)
    ) + L * (1 - x) ** (L - 1)
    assert second_moment_tree(L, 0.25) == pytest.approx(float(exact), rel=1e-12)


def test_var_star_exact_small_L():
    L = 5
    exact = sum(_a_exact(L, q) / (2 * L - q - 1) for q in range(L - 1))
    assert var_star_tree(L) == pytest.approx(float(exact), rel=1e-12)


def test_cond_var_exact_small_L():
    # tail sum + isolated term + first moment, all in exact arithmetic
    L, x, k = 6, Fraction(1, 5), 2
    log_terms = [
        _a_exact(L, q) * (1 - x) ** (2 * L - q - 2) for q in range(L - 1)
    ]
    exact = (
        sum(log_terms[k + 1 :])
        - log_terms[k] / (L - k - 1)
        + L * (1 - x) ** (L - 1)
    )
    assert cond_var_tree(L, 0.2, k) == pytest.approx(float(exact), rel=1e-12)


def test_limits_at_large_L():
    L = 10**6
    assert var_star_tree(L) / L == pytest.approx(1.0, abs=1e-3)
    sm = scaled_limits(L, 1.0, moments.REGIME_X_OVER_L)
    assert sm.var_scaled == pytest.approx(math.exp(-2.0), abs=1e-3)
    assert sm.mean_scaled == pytest.approx(math.exp(-1.0), abs=1e-3)
    sm = scaled_limits(L, 0.0, moments.REGIME_LOG_OVER_L)
    assert sm.var_scaled == pytest.approx(2.0, abs=0.05)
    for k in range(1, 11):
        assert cond_var_tree(L, 0.0, k) / L**2 == pytest.approx(2.0**-k, abs=1e-3)


def test_large_L_moments_are_pinned_bit_for_bit():
    L = 10**6
    table = hashlib.sha256(moments._log_a_all(L).tobytes()).hexdigest()
    assert table == "f46d751d686f27cc8fb0ea6f7af01c47531fe24a06aa959a43a4b820442688d7"
    assert second_moment_tree(L, 1e-6).hex() == "0x1.f82a169509842p+37"
    assert var_star_tree(L).hex() == "0x1.e84800000862ap+19"
    assert cond_var_tree(L, 0.0, 3).hex() == "0x1.d1aa5cc8c07f6p+36"
    # each tail starts numpy's pairwise split at its own offset
    assert cond_var_tree(L, 0.0, 1).hex() == "0x1.d1a959624f802p+38"
    assert cond_var_tree(L, 0.0, 10).hex() == "0x1.d226666708900p+29"
    assert a_bound_check(L).max_log_excess.hex() == "-0x1.c5590bc000000p-27"
    # L - 1 just above one block, and a split landing next to a block edge
    assert second_moment_tree(2**16 + 2, 1e-6).hex() == "0x1.c1207cb127614p+32"
    assert var_star_tree(2**16 + 2).hex() == "0x1.000200040023cp+16"
    assert second_moment_tree(2**17 + 3, 1e-6).hex() == "0x1.89f2cbb804e7dp+34"
    assert var_star_tree(2**17 + 3).hex() == "0x1.0001800100048p+17"


def test_pairwise_sum_is_numpy_sum_of_one_array_bit_for_bit():
    # The premise of the large-L moments: numpy sums a contiguous run of
    # doubles pairwise, and _pairwise_sum repeats its split over blocks.
    # Values of both signs over 120 binades make nearly every change of
    # order change the rounded sum.
    rng = np.random.default_rng(1304)
    n_max = 10**6 - 1
    x = np.ldexp(rng.random(n_max + 3) + 1.0, rng.integers(-60, 60, n_max + 3))
    x[rng.random(x.size) < 0.5] *= -1.0
    block = moments._BLOCK
    for n in (1, 7, 8, 9, 127, 128, 129, block - 1, block, block + 1, 2 * block + 8, 3 * block + 5, n_max):
        for lo in (0, 3):
            got = moments._pairwise_sum(lambda a, b: x[a:b], lo, lo + n)
            assert got.hex() == float(np.add.reduce(x[lo : lo + n])).hex(), (n, lo)
    # the data tell orders apart: block sums added left to right differ
    sums = (float(np.add.reduce(x[a : a + block])) for a in range(0, n_max, block))
    assert reduce(operator.add, sums) != float(np.add.reduce(x[:n_max]))


@pytest.mark.parametrize("L", [13, 2**16 + 1, 2**16 + 2, 2**17 + 3])
def test_log_a_table_blocks_match_one_vector_pass(L):
    # the table's increments are written in blocks of 2^16; the reference
    # builds them in one pass with the same operation order
    j = np.arange(1, L - 1, dtype=float)
    inc = (
        np.log(L - j - 1)
        + np.log(2 * L - j - 1)
        - np.log(2 * L - 2 * j)
        - np.log(2 * L - 2 * j - 1)
    )
    ref = np.empty(L - 1)
    ref[0] = math.log(L) + math.log(L - 1)
    ref[1:] = ref[0] + np.cumsum(inc)
    assert moments._log_a_all(L).tobytes() == ref.tobytes()


def _traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_large_L_moments_hold_one_block():
    # beyond the cached ln a(L, q) table, a call holds one block of floats
    # at a time, and the table's build about two
    L = 10**6
    blocks = 4 * 8 * moments._BLOCK
    moments._log_a_all.cache_clear()
    try:
        assert _traced_peak(lambda: var_star_tree(L)) <= 8 * (L - 1) + blocks  # table included
        for call in (
            lambda: var_star_tree(L),
            lambda: cond_var_tree(L, 0.0, 3),
            lambda: second_moment_tree(L, 1e-6),
            lambda: a_bound_check(L),
        ):
            assert _traced_peak(call) <= blocks
    finally:
        moments._log_a_all.cache_clear()  # 8 MB at L = 10**6


def test_scaled_limits_validation():
    with pytest.raises(ValueError):
        scaled_limits(10**6, 0.0, "bogus")
    with pytest.raises(ValueError):
        scaled_limits(10, -20.0, moments.REGIME_X_OVER_L)
    # x is checked before exp(-X), which would overflow here
    for regime in (moments.REGIME_X_OVER_L, moments.REGIME_LOG_OVER_L):
        with pytest.raises(ValueError, match="x must be"):
            scaled_limits(1000, -800.0, regime)


def test_indecomposable_counts():
    assert [indecomposable_count(n) for n in range(1, 6)] == [1, 1, 3, 13, 71]


@lru_cache(maxsize=None)
def _indecomposable_recursive(n: int) -> int:
    """The recursive definition B(n) = n! - sum_{k<n} B(k) (n-k)!, with
    factorials recomputed inside the sum."""
    return math.factorial(n) - sum(
        _indecomposable_recursive(k) * math.factorial(n - k) for k in range(1, n)
    )


def test_indecomposable_matches_recursive_definition():
    assert [indecomposable_count(n) for n in range(300, 0, -1)] == [
        _indecomposable_recursive(n) for n in range(300, 0, -1)
    ]


@given(n=st.integers(1, 9))
@settings(max_examples=20, deadline=None)
def test_indecomposable_inversion_identity(n):
    # n! = sum over first-return points of B(k) (n-k)!
    total = sum(
        indecomposable_count(k) * math.factorial(n - k) for k in range(1, n + 1)
    )
    assert total == math.factorial(n)


def test_tree_pair_count_exact():
    for L in (3, 5, 8):
        for q in range(L - 1):
            assert tree_pair_count(L, q) == math.factorial(L) * (
                L - q - 1
            ) * math.factorial(L - q - 1)


def test_pair_open_prob_exact_small():
    # (1-x)^(2L-q-2) * C(2L-2q-2, L-q-1) / (2L-q-2)! in exact arithmetic
    L, q, x = 6, 2, Fraction(1, 4)
    exact = (
        (1 - x) ** (2 * L - q - 2)
        * math.comb(2 * L - 2 * q - 2, L - q - 1)
        / Fraction(math.factorial(2 * L - q - 2))
    )
    assert pair_open_prob_tree(L, q, 0.25) == pytest.approx(float(exact), rel=1e-12)


def _pair_profile_full(L: int) -> list:
    """f[L][r] for r = 0..L by the full triple loop over block sizes:
    f[rem][r] sums w(m) f[rem-m][r-1] over every m, zero terms included."""
    w = {
        m: indecomposable_count(m) * math.comb(2 * m - 2, m - 1)
        for m in range(1, L + 1)
    }
    f = [[0] * (L + 1) for _ in range(L + 1)]
    f[0][0] = 1
    for rem in range(1, L + 1):
        for r in range(1, rem + 1):
            f[rem][r] = sum(w[m] * f[rem - m][r - 1] for m in range(1, rem + 1))
    return f[L]


def _pair_profile_dp(L: int) -> tuple:
    """Big-integer DP over block counts: column r holds the counts for
    rem = r..L steps in r blocks, built from the nonzero rows of column r-1."""
    w = [
        indecomposable_count(m) * math.comb(2 * m - 2, m - 1) for m in range(L, 0, -1)
    ]  # w[i] is the weight of a block of L - i steps
    col = [1] + [0] * L
    out = []
    for r in range(1, L + 1):
        col = [0] * r + [
            sum(map(operator.mul, col[r - 1 : rem], w[L - rem + r - 1 :]))
            for rem in range(r, L + 1)
        ]
        out.append(col[L])
    return tuple(out)


def _second_moment_hypercube_exact(L: int, x: Fraction) -> Fraction:
    """Independent rational evaluation of the shared-node-chain sum:
    pairs meeting along r blocks of sizes (m_1..m_r) contribute
    prod B(m_i) C(2m_i-2, m_i-1) * L! (1-x)^(2L-r-1) / (2L-r-1)!."""
    counts = _pair_profile_full(L)
    total = Fraction(0)
    for r in range(1, L + 1):
        nf = 2 * L - r - 1
        total += counts[r] * (1 - x) ** nf / math.factorial(nf)
    return math.factorial(L) * total


def test_pair_profile_matches_triple_loop():
    for L in range(2, 41):
        assert moments._hypercube_pair_profile(L) == tuple(_pair_profile_full(L)[1:])


@pytest.mark.parametrize("L", [41, 64, 97, 128])
def test_pair_profile_matches_big_integer_dp(L):
    assert moments._hypercube_pair_profile(L) == _pair_profile_dp(L)


def _is_prime(p: int) -> bool:
    return p > 1 and bool(np.all(p % np.arange(2, math.isqrt(p) + 1) != 0))


@pytest.mark.parametrize("L", [2, 256, 1024])
def test_crt_primes_cover_the_count_bound(L):
    primes = moments._crt_primes(L)
    assert len(set(primes)) == len(primes)
    assert all(_is_prime(p) for p in primes)
    assert all((L + 1) * (p - 1) ** 2 < 2**53 for p in primes)
    assert math.prod(primes) > 8**L * math.factorial(L)


@pytest.mark.parametrize("L", [2, 256, 1024])
def test_float_residue_arithmetic_is_exact(L):
    # The premise of moments._top_coefficients_mod and of the B recurrence
    # in moments._indecomposable_residues, checked on this platform for the
    # largest and smallest prime of _crt_primes(L): float % of an
    # integer-valued float64 below 2^53 is the exact remainder, and
    # np.convolve of two rows of p - 1, the largest residues the bound
    # (L+1)(p-1)^2 < 2^53 admits, is the exact integer convolution, as is
    # the einsum over L such rows, one of them reversed as in the recurrence.
    rng = np.random.default_rng(53)
    # 0, then both ends and 2048 draws of every binade [2^e, 2^(e+1)) up to 2^53
    ends = [0] + [v for e in range(53) for v in (2**e, 2 ** (e + 1) - 1)]
    draws = [rng.integers(2**e, 2 ** (e + 1), 2048, dtype=np.int64) for e in range(53)]
    y = np.concatenate([np.array(ends, dtype=np.int64)] + draws).tolist()
    primes = moments._crt_primes(L)
    for p in (primes[0], primes[-1]):
        assert (np.array(y, dtype=float) % p).tolist() == [float(v % p) for v in y]
        row = np.full(L + 1, p - 1.0)
        exact = [(min(k, 2 * L - k) + 1) * (p - 1) ** 2 for k in range(2 * L + 1)]
        assert np.convolve(row, row).tolist() == exact
        rows = np.full((L, 2), p - 1.0)
        assert np.einsum("kp,kp->p", rows, rows[::-1]).tolist() == [L * (p - 1) ** 2] * 2


def test_pair_profile_rejects_one_step():
    with pytest.raises(ValueError):
        moments._hypercube_pair_profile(1)


def test_golden_pair_profile():
    # sha256 of the profile the triple loop gave before zero terms were skipped
    digest = hashlib.sha256(repr(moments._hypercube_pair_profile(256)).encode())
    assert digest.hexdigest() == "e3f293fe67370150b62b530e0a84ce01cd6067efc58dcbaca7ac485fa8d175a1"


def _linear_extensions(n: int, below: list) -> int:
    """Orders of n elements in which every element follows all of below[v]
    (bitmasks), by a DP over the sets of elements placed first."""
    ways = [0] * (1 << n)
    ways[0] = 1
    for placed in range(1 << n):
        for v in range(n):
            if not placed >> v & 1 and below[v] & ~placed == 0:
                ways[placed | 1 << v] += ways[placed]
    return ways[-1]


def _pair_open_prob_poset(L: int, p: int, q: int, x: Fraction) -> Fraction:
    """Both paths open, from the poset of an explicit pair on the L-cube:
    coordinate orders that agree on the first p and last q steps and run
    the middle block in opposite orders, so the middle nodes are disjoint.
    Every node other than the corners is above x and increases along each
    path: (1-x)^n e(P)/n! over the n free nodes."""
    mid = list(range(p, L - q))
    orders = (list(range(L)), list(range(p)) + mid[::-1] + list(range(L - q, L)))
    walks = []
    for order in orders:
        mask, walk = 0, []
        for bit in order[:-1]:  # the corners are fixed: drop 0 and the top
            mask |= 1 << bit
            walk.append(mask)
        walks.append(walk)
    nodes = sorted(set(walks[0]) | set(walks[1]))
    assert len(nodes) == 2 * L - p - q - 2
    index = {node: i for i, node in enumerate(nodes)}
    below = [0] * len(nodes)
    for walk in walks:
        for lo, hi in zip(walk, walk[1:]):
            below[index[hi]] |= 1 << index[lo]
    n = len(nodes)
    return (1 - x) ** n * Fraction(_linear_extensions(n, below), math.factorial(n))


@pytest.mark.parametrize("L", [2, 3, 4, 5, 6])
def test_pair_open_prob_hypercube_against_poset(L):
    for x in (Fraction(0), Fraction(1, 7), Fraction(2, 3)):
        for p in range(L - 1):
            for q in range(L - 1 - p):
                exact = _pair_open_prob_poset(L, p, q, x)
                got = pair_open_prob_hypercube(L, p, q, float(x))
                assert got == pytest.approx(float(exact), rel=1e-12)


def test_second_moment_hypercube_two_cube_closed_form():
    # Theta = 1(a > x) + 1(b > x) on the 2-cube, so
    # E[Theta^2] = 2(1-x) + 2(1-x)^2
    x = 0.3
    assert second_moment_hypercube(2, x) == pytest.approx(
        2 * (1 - x) + 2 * (1 - x) ** 2, rel=1e-14
    )


def test_second_moment_hypercube_rejects_L_below_2():
    with pytest.raises(ValueError, match="L must be >= 2"):
        second_moment_hypercube(1, 0.1)


@pytest.mark.parametrize("L", [3, 5, 8])
def test_second_moment_hypercube_vs_exact_rational(L):
    x = Fraction(1, 7)
    exact = _second_moment_hypercube_exact(L, x)
    assert second_moment_hypercube(L, float(x)) == pytest.approx(
        float(exact), rel=1e-12
    )


def test_second_moment_hypercube_mc_cross_check():
    # all-path enumeration on sampled 5-cubes, matched against the exact sum
    from pathscape import hypercube, stats

    L, x, n = 5, 0.2, 4000
    sq = np.array(
        [
            float(
                hypercube.count_open_paths(
                    hypercube.generate_hypercube(L, x, 31337, replica=r)
                )
            )
            ** 2
            for r in range(n)
        ]
    )
    summ = stats.moment_summary(stats.Sample.from_values(sq))
    assert abs(summ.mean - second_moment_hypercube(L, x)) <= 4 * summ.mean_stderr


def test_var_hypercube_frozen_scaled_value():
    # Var(Theta/L) at L=16, x=1/16; value frozen from the exact rational sum
    assert var_hypercube(16, 1 / 16) / 16**2 == pytest.approx(
        0.8101132102097044, rel=1e-10
    )


def test_var_hypercube_scaled_convergence():
    # Var(Theta/L) at x = 1/L approaches 3e^-2 from above, slowly
    limit = 3 * math.exp(-2)
    gaps = [var_hypercube(L, 1 / L) / L**2 / limit - 1.0 for L in (16, 32, 64, 128)]
    assert all(g > 0 for g in gaps)
    assert gaps == sorted(gaps, reverse=True)


def test_pstar_upper_bound_values():
    assert pstar_upper_bound(2) == pytest.approx(0.75, abs=1e-14)
    # value * L / ln L -> 1 along a sweep
    gaps = [
        abs(pstar_upper_bound(L) * L / math.log(L) - 1.0)
        for L in (10**3, 10**5, 10**7)
    ]
    assert gaps == sorted(gaps, reverse=True)


def test_log_convexity_at_L100():
    log_a = [log_a_coeff(100, q) for q in range(99)]
    second = [
        log_a[i + 1] - 2 * log_a[i] + log_a[i - 1] for i in range(1, 97)
    ]
    assert min(second) >= -1e-12


def test_lgamma_int_is_scipy_gammaln_bit_for_bit():
    from scipy.special import gammaln

    rng = np.random.default_rng(20130)
    edges = [12, 13, 999, 1000, 10**8, 10**8 + 1]
    for n in (np.arange(1, 2**17 + 1), edges, rng.integers(1, 10**9, 20_000, endpoint=True)):
        n = np.asarray(n, dtype=np.int64)
        port = np.array([moments._lgamma_int(int(v)) for v in n])
        assert (port.view(np.int64) == gammaln(n.astype(float)).view(np.int64)).all()
