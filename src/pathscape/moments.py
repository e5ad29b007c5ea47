"""Closed-form moments, pair-of-paths combinatorics, and limit values.

All factorial ratios go through log space so the formulas stay usable up
to L = 10^6.  (1-x)^n is always computed as exp(n * log1p(-x)) so the
x = X/L scaling regimes keep full precision near x = 0.  Log-gamma of an
integer is `_lgamma_int`, a port of the cephes `lgam` behind
`scipy.special.gammaln` that returns its bits, so this module needs
numpy only.  A large-L tree moment holds the cached ln a(L,q) table plus
one 2^16 block (8 MB + 0.5 MB at L = 10^6): `_pairwise_sum` adds the
blocks in numpy's own pairwise order, so each sum keeps the bits of one
numpy sum over the whole array.

Counts that outgrow a machine word are exact Python integers.  The
hypercube pair profile, the count c_r of ordered path pairs whose shared
nodes cut both paths into r blocks, is c_r = [z^L] W(z)^r with
W(z) = sum_m B(m) C(2m-2, m-1) z^m.  It, and B(n) at L = n, are computed
modulo word-size primes and rebuilt by the Chinese remainder theorem:

- B(m) = m! - sum_{k<m} B(k) (m-k)! runs on residues mod p, and the
  binomials are reduced mod p as Python integers.  Every prime is below
  2^26, so each residue is an exact float64.
- Every prime p has (L+1)(p-1)^2 < 2^53.  Each step of that recurrence,
  each convolution and the final matrix product sum at most L+1
  non-negative products of residues, so every partial sum is an exact
  float64 integer, whatever the summation order or FMA use.  Float `%`
  of such a value, or of a residue minus it, is exact.
- The primes' product M exceeds 8^L L!, which bounds B(L) and every c_r:
  B(m) <= m! (B(m) counts a subset of the permutations), C(2m-2, m-1)
  <= 4^(m-1), m_1! ... m_r! <= L! for any composition (the multinomial
  coefficient is at least 1), and L has 2^(L-1) compositions, so each
  product of block weights is at most 4^L L! and c_r < 8^L L!.
- The residue c_r mod M therefore is c_r: it is rebuilt as
  sum_p (c_r mod p) (M/p) ((M/p)^-1 mod p), reduced mod M.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

REGIME_X_OVER_L = "x=X/L"
REGIME_LOG_OVER_L = "x=(lnL+X)/L"


# cephes lgam: log sqrt(2 pi) and the Stirling-series coefficients A
_LS2PI = 0.91893853320467274178
_LGAM_A = (
    8.11614167470508450300e-4,
    -5.95061904284301438324e-4,
    7.93650340457716943945e-4,
    -2.77777777730099687205e-3,
    8.33333333333331927722e-2,
)


def _lgamma_int(n: int) -> float:
    """log Gamma(n) for an integer n >= 1, bit for bit scipy.special.gammaln.

    The branches and constants are those of cephes `lgam` (math.lgamma
    rounds differently): below 13 the log of the exact product
    (n-1)...2, above it the Stirling series, with a shorter tail from
    1000 on and none above 1e8.
    """
    x = float(n)
    if x < 13.0:
        return math.log(math.factorial(n - 1))
    q = (x - 0.5) * math.log(x) - x + _LS2PI
    if x > 1.0e8:
        return q
    p = 1.0 / (x * x)
    if x >= 1000.0:
        q += (
            (7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
            + 0.0833333333333333333333
        ) / x
    else:
        a0, a1, a2, a3, a4 = _LGAM_A
        q += ((((a0 * p + a1) * p + a2) * p + a3) * p + a4) / x
    return q


def _check_x(x: float) -> None:
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must be in [0, 1], got {x}")


def expected_paths(L: int, x: float) -> float:
    """E[Theta] = L (1-x)^(L-1), tree and hypercube alike."""
    _check_x(x)
    if L < 1:
        raise ValueError(f"L must be >= 1, got {L}")
    if x == 1.0:
        return 0.0  # every path ends on the value 1, and a tie blocks it, also at L = 1
    return float(L * np.exp((L - 1) * math.log1p(-x)))


def _check_q(L: int, q: int) -> None:
    if L < 2:
        raise ValueError(f"L must be >= 2, got {L}")
    if not 0 <= q <= L - 2:
        raise ValueError(f"q must be in [0, {L - 2}], got {q}")


def log_a_coeff(L: int, q: int) -> float:
    """ln a(L,q) via the exact increment recurrence, compensated with fsum.

    a(L,0) = L(L-1) and
    a(L,q)/a(L,q-1) = (L-q-1)(2L-q-1) / ((2L-2q)(2L-2q-1)).
    """
    _check_q(L, q)
    terms = [math.log(L) + math.log(L - 1)]
    for j in range(1, q + 1):
        num = (L - j - 1) * (2 * L - j - 1)
        den = (2 * L - 2 * j) * (2 * L - 2 * j - 1)
        terms.append(math.log(num) - math.log(den))
    return math.fsum(terms)


def a_coeff(L: int, q: int) -> float:
    """Pair-of-paths coefficient a(L,q) = L!(2L-2q-2)! / ((L-q-2)!(2L-q-2)!)."""
    return math.exp(log_a_coeff(L, q))


_BLOCK = 2**16  # entries per block of a large-L table build or sum


def _pairwise_sum(values, lo: int, hi: int) -> float:
    """The sum of the entries q = lo..hi-1 that values(a, b) returns for
    q in [a, b), bit for bit np.add.reduce of them as one contiguous array.

    numpy adds a contiguous run of n doubles pairwise: above 128 entries
    it splits at n // 2, rounded down to a multiple of 8, and adds the two
    halves' sums.  This follows that split down to pieces of at most
    _BLOCK entries and lets numpy sum each piece, so only one piece lives
    at a time.
    """
    n = hi - lo
    if n <= _BLOCK:
        return float(np.add.reduce(values(lo, hi)))
    half = n // 2 - n // 2 % 8
    return _pairwise_sum(values, lo, lo + half) + _pairwise_sum(values, lo + half, hi)


@lru_cache(maxsize=32)
def _log_a_all(L: int) -> np.ndarray:
    """ln a(L,q) for q = 0..L-2 (callers check L >= 2): the exact increments,
    written into the output in blocks of _BLOCK entries, then summed in place.
    Every log argument is an integer below 2^53, so each is exact however
    it is formed."""
    out = np.empty(L - 1)
    out[0] = math.log(L) + math.log(L - 1)
    j = np.arange(1, min(1 + _BLOCK, L - 1), dtype=float)
    tmp = np.empty(j.size)
    for lo in range(1, L - 1, _BLOCK):
        size = min(_BLOCK, L - 1 - lo)
        inc, jb, t = out[lo : lo + size], j[:size], tmp[:size]
        np.log(np.subtract(L - 1, jb, out=inc), out=inc)
        inc += np.log(np.subtract(2 * L - 1, jb, out=t), out=t)
        inc -= np.log(np.multiply(np.subtract(L, jb, out=t), 2, out=t), out=t)
        inc -= np.log(np.subtract(2 * L - 1, np.multiply(jb, 2, out=t), out=t), out=t)
        j += _BLOCK
    np.cumsum(out[1:], out=out[1:])
    out[1:] += out[0]
    out.setflags(write=False)
    return out


def _tree_pair_log_block(L: int, x: float, a: int, b: int) -> np.ndarray:
    """ln of a(L,q) (1-x)^(2L-q-2), the q-bond pairs' share of E[Theta^2],
    for q in [a, b) and x < 1, in one fresh array the caller may overwrite."""
    log_a = _log_a_all(L)  # before the block: the build's scratch never meets it
    t = np.arange(2 * L - 2 - a, 2 * L - 2 - b, -1, dtype=float)  # 2L - q - 2
    return np.add(log_a[a:b], np.multiply(t, math.log1p(-x), out=t), out=t)


def _tree_pair_sum(L: int, x: float, lo: int) -> float:
    """sum_{q=lo}^{L-2} a(L,q) (1-x)^(2L-q-2), one block at a time."""

    def terms(a: int, b: int) -> np.ndarray:
        t = _tree_pair_log_block(L, x, a, b)
        return np.exp(t, out=t)

    return _pairwise_sum(terms, lo, L - 1)


def second_moment_tree(L: int, x: float) -> float:
    """E[Theta^2] on the tree, exact finite-L sum over shared-bond classes."""
    _check_x(x)
    if L < 2:
        raise ValueError(f"L must be >= 2, got {L}")
    if x == 1.0:
        return 0.0
    return _tree_pair_sum(L, x, 0) + expected_paths(L, x)


def var_tree(L: int, x: float) -> float:
    """Var(Theta) on the tree for a fixed root value."""
    return second_moment_tree(L, x) - expected_paths(L, x) ** 2


def var_star_tree(L: int) -> float:
    """Var(Theta) on the tree under a uniform root value:
    sum_q a(L,q)/(2L-q-1)."""
    if L < 2:
        raise ValueError(f"L must be >= 2, got {L}")
    log_a = _log_a_all(L)  # before the first block, as in _tree_pair_log_block

    def terms(a: int, b: int) -> np.ndarray:
        t = np.arange(2 * L - 1 - a, 2 * L - 1 - b, -1, dtype=float)  # 2L - q - 1
        np.subtract(log_a[a:b], np.log(t, out=t), out=t)
        return np.exp(t, out=t)

    return _pairwise_sum(terms, 0, L - 1)


def cond_var_tree(L: int, x: float, k: int) -> float:
    """E^x[var(Theta | first k tree levels)], exact finite-L form."""
    _check_x(x)
    if not 1 <= k <= L - 2:
        raise ValueError(f"k must be in [1, {L - 2}], got {k}")
    if x == 1.0:
        return 0.0
    isolated = -math.exp(_tree_pair_log_block(L, x, k, k + 1).item() - math.log(L - k - 1))
    return _tree_pair_sum(L, x, k + 1) + isolated + expected_paths(L, x)


@dataclass(frozen=True)
class ScaledMoments:
    """Exact finite-L mean/variance at a scaled root value, with the
    asymptotic limit alongside for comparison.

    For the x = X/L regime the scaled fields (and limits) describe
    Theta/L; for x = (ln L + X)/L they describe Theta itself.
    """

    regime: str
    L: int
    X: float
    x: float
    mean: float
    var: float
    mean_scaled: float
    var_scaled: float
    limit_mean: float
    limit_var: float


def scaled_limits(L: int, X: float, regime: str) -> ScaledMoments:
    if L < 3:
        raise ValueError(f"L must be >= 3, got {L}")
    if regime == REGIME_X_OVER_L:
        x, scale_mean, scale_var = X / L, L, L * L
    elif regime == REGIME_LOG_OVER_L:
        x, scale_mean, scale_var = (math.log(L) + X) / L, 1.0, 1.0
    else:
        raise ValueError(f"unknown regime {regime!r}")
    _check_x(x)  # then -X <= ln L in both regimes, so the limits are finite
    limit_mean, limit_var = math.exp(-X), math.exp(-2 * X)
    if regime == REGIME_LOG_OVER_L:
        limit_var += limit_mean
    mean = expected_paths(L, x)
    var = var_tree(L, x)
    return ScaledMoments(
        regime=regime,
        L=L,
        X=X,
        x=x,
        mean=mean,
        var=var,
        mean_scaled=mean / scale_mean,
        var_scaled=var / scale_var,
        limit_mean=limit_mean,
        limit_var=limit_var,
    )


def q0(L: int) -> int:
    """Split point ceil(ln(L^2)/ln 2 + 1) between the dominant small-q
    terms and the tail of the second-moment sum."""
    if L < 12:
        raise ValueError(f"L must be >= 12, got {L}")
    return math.ceil(math.log(L * L) / math.log(2) + 1)


@dataclass(frozen=True)
class BoundReport:
    """Outcome of checking a(L,q) <= L^2 * 1.99^-q for q <= q0(L) and
    a(L,q) <= 2 above.  The bound only holds from some L onward, so a
    violation is a finding to report, not an error."""

    holds: bool
    first_violation_q: int | None
    max_log_excess: float


def a_bound_check(L: int) -> BoundReport:
    """Evaluate the split upper bound on a(L,q) and report any violation."""
    if L < 12:
        raise ValueError(f"L must be >= 12, got {L}")
    log_a = _log_a_all(L)
    split = min(q0(L), L - 2)
    first, peak = None, -math.inf
    for lo in range(0, L - 1, _BLOCK):
        hi = min(lo + _BLOCK, L - 1)
        # the bound, 2 ln L - q ln 1.99 up to the split and ln 2 above
        excess = np.arange(lo, hi, dtype=float)
        np.subtract(2 * math.log(L), np.multiply(excess, math.log(1.99), out=excess), out=excess)
        excess[max(split + 1 - lo, 0) :] = math.log(2.0)
        np.subtract(log_a[lo:hi], excess, out=excess)
        peak = max(peak, float(excess.max()))
        # slack for accumulated log-space rounding: at q = L-2 the coefficient
        # equals the tail bound exactly, so exact equality must not register
        bad = np.flatnonzero(excess > 1e-9)
        if first is None and bad.size:
            first = lo + int(bad[0])
    return BoundReport(holds=first is None, first_violation_q=first, max_log_excess=peak)


def pair_open_prob_tree(L: int, q: int, x: float) -> float:
    """Probability that both paths of a q-bond-sharing tree pair are open:
    (1-x)^(2L-q-2)/(2L-q-2)! * C(2L-2q-2, L-q-1), the hypercube pair
    probability with no shared first steps."""
    return pair_open_prob_hypercube(L, 0, q, x)


def tree_pair_count(L: int, q: int) -> int:
    """Number of tree path pairs sharing exactly q bonds then branching:
    L!(L-q-1)(L-q-1)!  (exact integer)."""
    _check_q(L, q)
    return math.factorial(L) * (L - q - 1) * math.factorial(L - q - 1)


def pair_open_prob_hypercube(L: int, p: int, q: int, x: float) -> float:
    """Open-pair probability for a hypercube pair agreeing on the first p
    and last q steps and disjoint in between."""
    _check_x(x)
    _check_q(L, q)
    if not 0 <= p <= L - 2 - q:
        raise ValueError(f"p must be in [0, {L - 2 - q}] (p + q <= dim - 2), got {p}")
    if x == 1.0:
        return 0.0
    s = p + q
    log_p = (
        (2 * L - s - 2) * math.log1p(-x)
        + _lgamma_int(2 * L - 2 * s - 1)
        - 2 * _lgamma_int(L - s)
        - _lgamma_int(2 * L - s - 1)
    )
    return float(math.exp(log_p))


def _indecomposable_residues(n: int, primes) -> np.ndarray:
    """B(0..n) modulo each prime, one row per m and one column per prime,
    with B(0) = 0 as padding: B(m) = m! - sum_{k<m} B(k) (m-k)! mod p."""
    p = np.array(primes, dtype=float)
    fact, b = np.ones((n + 1, p.size)), np.zeros((n + 1, p.size))
    for m in range(1, n + 1):
        fact[m] = fact[m - 1] * m % p
        b[m] = (fact[m] - np.einsum("kp,kp->p", b[1:m], fact[m - 1 : 0 : -1])) % p
    return b


def indecomposable_count(n: int) -> int:
    """B(n): permutations of n elements with no proper invariant prefix,
    via the inversion of n! = sum_k B(k) (n-k)!, rebuilt from its residues."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    primes = _crt_primes(n)
    return _from_residues(_indecomposable_residues(n, primes)[n:].astype(np.int64), primes)[0]


def _small_primes(n: int) -> list:
    """Primes <= n (sieve of Eratosthenes)."""
    sieve = np.ones(n + 1, dtype=bool)
    sieve[:2] = False
    for q in range(2, math.isqrt(n) + 1):
        if sieve[q]:
            sieve[q * q :: q] = False
    return np.flatnonzero(sieve).tolist()


def _crt_primes(n: int) -> tuple:
    """Distinct primes, largest first, each with (n+1)(p-1)^2 < 2^53, whose
    product exceeds 8^n n!, above B(n) and every pair count at L = n.

    They are taken downward from the largest admissible p by sieving
    windows of doubling width with the primes up to the square root of
    that p.  Every such p is below 2^26.
    """
    bound = 8**n * math.factorial(n)
    hi = math.isqrt((2**53 - 1) // (n + 1)) + 2  # window end, exclusive: p - 1 <= isqrt
    small = _small_primes(math.isqrt(hi))
    primes, product, width = [], 1, 1024
    while product <= bound:
        lo = max(2, hi - width)
        if lo >= hi:
            raise ValueError(f"n = {n} needs more word-size primes than exist")
        is_prime = np.ones(hi - lo, dtype=bool)
        for q in small:
            is_prime[max(q * q, -(-lo // q) * q) - lo :: q] = False
        for p in (np.flatnonzero(is_prime)[::-1] + lo).tolist():
            primes.append(p)
            product *= p
            if product > bound:
                break
        hi, width = lo, 2 * width
    return tuple(primes)


def _from_residues(residues: np.ndarray, primes) -> list:
    """The integers in [0, M), M = prod(primes), with the given rows of
    residues, by the Chinese remainder theorem."""
    M = math.prod(primes)
    coeffs = [M // p * pow(M // p % p, -1, p) for p in primes]
    return [sum(map(operator.mul, row, coeffs)) % M for row in residues.tolist()]


def _top_coefficients_mod(w: np.ndarray, p: int, L: int) -> np.ndarray:
    """[z^L] W^r mod p for r = 1..L, from the residues w of W mod p.

    Baby steps W^0..W^s and giant steps W^(js) are series products by
    direct convolution; [z^L] W^(js+i) = sum_k [z^k] W^i [z^(L-k)] W^(js)
    is then one matrix product.  W^(js) vanishes below degree js, so giant
    step j only convolves the L+1-js coefficients that can be nonzero: the
    giant steps cost about a third of full products, and s = sqrt((L+1)/3)
    balances the two kinds.
    """
    n = L + 1
    s = round(math.sqrt(n / 3))  # at least 1, as n >= 3
    t = L // s + 1  # js + i then runs over 0..ts-1, which covers 0..L
    baby = np.zeros((s + 1, n))
    baby[0, 0] = 1.0
    for i in range(1, s + 1):
        baby[i] = np.convolve(baby[i - 1], w)[:n] % p
    giant = np.zeros((t, n))
    giant[0, 0] = 1.0
    for j in range(1, t):
        lo, hi = (j - 1) * s, j * s  # W^(lo) vanishes below lo, W^s below s
        block = np.convolve(giant[j - 1, lo : n - s], baby[s, s : n - lo])
        giant[j, hi:] = block[: n - hi] % p
    return (baby[:s] @ giant[:, ::-1].T % p).T.ravel()[1:n]


@lru_cache(maxsize=8)
def _hypercube_pair_profile(L: int) -> tuple:
    """For each block count r, the number of ordered path pairs on the
    L-cube whose shared nodes split both paths into r blocks.

    A pair of paths meets along a chain of shared nodes; between
    consecutive shared nodes the two subpaths are disjoint.  A block of m
    steps contributes B(m) choices for the second path (no proper shared
    prefix inside the block) times C(2m-2, m-1) orderings of the two
    disjoint interior chains, so the count for r blocks is the sum over
    compositions (m_1..m_r) of L of the product of those weights:
    [z^L] W(z)^r with W(z) = sum_m B(m) C(2m-2, m-1) z^m.  The exact
    integers come from residues modulo word-size primes (module docstring).
    """
    if L < 2:
        raise ValueError(f"L must be >= 2, got {L}")
    primes = _crt_primes(L)
    combs = [0] + [math.comb(2 * m - 2, m - 1) for m in range(1, L + 1)]
    top = [
        _top_coefficients_mod(np.array([c % p for c in combs], dtype=float) * b % p, p, L)
        for p, b in zip(primes, _indecomposable_residues(L, primes).T)
    ]
    return tuple(_from_residues(np.array(top).T.astype(np.int64), primes))


def second_moment_hypercube(L: int, x: float) -> float:
    """E[Theta^2] on the hypercube, exact finite-L sum over shared-node
    chain profiles.

    A pair with r blocks leaves 2L - r - 1 free node values, all above x
    and ordered block by block, giving (1-x)^(2L-r-1)/(2L-r-1)! per pair.
    Block counts are exact integers; only the final sum is floating point
    (evaluated in log space).
    """
    _check_x(x)
    if L < 2:
        raise ValueError(f"L must be >= 2, got {L}")
    if x == 1.0:
        return 0.0
    counts = _hypercube_pair_profile(L)
    log_L_fact = _lgamma_int(L + 1)
    log_terms = np.array(
        [
            math.log(counts[r - 1])
            + log_L_fact
            - _lgamma_int(2 * L - r)
            + (2 * L - r - 1) * math.log1p(-x)
            for r in range(1, L + 1)
        ]
    )
    peak = log_terms.max()
    return float(math.exp(peak) * np.exp(log_terms - peak).sum())


def var_hypercube(L: int, x: float) -> float:
    """Var(Theta) on the hypercube for a fixed origin value."""
    return second_moment_hypercube(L, x) - expected_paths(L, x) ** 2


def pstar_upper_bound(L: int) -> float:
    """Upper bound on P*(Theta >= 1):
    1 - exp(-ln L/(L-1)) + exp(-L ln L/(L-1))."""
    if L < 2:
        raise ValueError(f"L must be >= 2, got {L}")
    lnL = math.log(L)
    return -math.expm1(-lnL / (L - 1)) + math.exp(-L * lnL / (L - 1))
