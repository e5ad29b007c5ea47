"""Closed-form moments, pair-of-paths combinatorics, and limit values.

All factorial ratios go through log space so the formulas stay usable up
to L = 10^6; exact integer arithmetic is used only where values fit
comfortably (pair counts, indecomposable-permutation counts).

(1-x)^n is always computed as exp(n * log1p(-x)) so the x = X/L scaling
regimes keep full precision near x = 0.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import gammaln

REGIME_X_OVER_L = "x=X/L"
REGIME_LOG_OVER_L = "x=(lnL+X)/L"


def _pow1m(x: float, n) -> float:
    """(1-x)^n for x in [0, 1], stable near x = 0."""
    if x >= 1.0:
        return 0.0 if np.any(np.asarray(n) > 0) else 1.0
    return np.exp(np.asarray(n, dtype=float) * math.log1p(-x))


def expected_paths(L: int, x: float) -> float:
    """E[Theta] = L (1-x)^(L-1), tree and hypercube alike."""
    if L < 1:
        raise ValueError(f"L must be >= 1, got {L}")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must be in [0, 1], got {x}")
    return float(L * _pow1m(x, L - 1))


def _check_q(L: int, q: int) -> None:
    if not 0 <= q <= L - 2:
        raise ValueError(f"need 0 <= q <= L-2, got q={q}, L={L}")


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


@lru_cache(maxsize=32)
def _log_a_all(L: int) -> np.ndarray:
    """ln a(L,q) for q = 0..L-2, vectorized (cumulative increments)."""
    if L < 2:
        raise ValueError(f"L must be >= 2, got {L}")
    j = np.arange(1, L - 1, dtype=float)
    inc = (
        np.log(L - j - 1)
        + np.log(2 * L - j - 1)
        - np.log(2 * L - 2 * j)
        - np.log(2 * L - 2 * j - 1)
    )
    out = np.empty(L - 1)
    out[0] = math.log(L) + math.log(L - 1)
    out[1:] = out[0] + np.cumsum(inc)
    out.setflags(write=False)
    return out


def second_moment_tree(L: int, x: float) -> float:
    """E[Theta^2] on the tree, exact finite-L sum over shared-bond classes."""
    if L < 2:
        raise ValueError(f"L must be >= 2, got {L}")
    if x >= 1.0:
        return 0.0
    q = np.arange(L - 1, dtype=float)
    log_terms = _log_a_all(L) + (2 * L - q - 2) * math.log1p(-x)
    return float(np.exp(log_terms).sum() + expected_paths(L, x))


def var_tree(L: int, x: float) -> float:
    """Var(Theta) on the tree for a fixed root value."""
    return second_moment_tree(L, x) - expected_paths(L, x) ** 2


def var_star_tree(L: int) -> float:
    """Var(Theta) on the tree under a uniform root value:
    sum_q a(L,q)/(2L-q-1)."""
    if L < 2:
        raise ValueError(f"L must be >= 2, got {L}")
    q = np.arange(L - 1, dtype=float)
    return float(np.exp(_log_a_all(L) - np.log(2 * L - q - 1)).sum())


def cond_var_tree(L: int, x: float, k: int) -> float:
    """E^x[var(Theta | first k tree levels)], exact finite-L form."""
    if not 1 <= k <= L - 2:
        raise ValueError(f"need 1 <= k <= L-2, got k={k}, L={L}")
    if x >= 1.0:
        return 0.0
    log_a = _log_a_all(L)
    q = np.arange(L - 1, dtype=float)
    log_terms = log_a + (2 * L - q - 2) * math.log1p(-x)
    tail = float(np.exp(log_terms[k + 1 :]).sum())
    isolated = -math.exp(log_terms[k] - math.log(L - k - 1))
    return tail + isolated + expected_paths(L, x)


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
        x = X / L
        scale_mean, scale_var = L, L * L
        limit_mean, limit_var = math.exp(-X), math.exp(-2 * X)
    elif regime == REGIME_LOG_OVER_L:
        x = (math.log(L) + X) / L
        scale_mean, scale_var = 1.0, 1.0
        limit_mean, limit_var = math.exp(-X), math.exp(-2 * X) + math.exp(-X)
    else:
        raise ValueError(f"unknown regime {regime!r}")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"scaled root value {x} outside [0, 1]")
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

    L: int
    q0: int
    holds: bool
    first_violation_q: int | None
    max_log_excess: float


def a_bound_check(L: int) -> BoundReport:
    """Evaluate the split upper bound on a(L,q) and report any violation."""
    if L < 12:
        raise ValueError(f"L must be >= 12, got {L}")
    log_a = _log_a_all(L)
    split = min(q0(L), L - 2)
    q = np.arange(L - 1)
    bound = np.where(
        q <= split,
        2 * math.log(L) - q * math.log(1.99),
        math.log(2.0),
    )
    # slack for accumulated log-space rounding: at q = L-2 the coefficient
    # equals the tail bound exactly, so exact equality must not register
    excess = log_a - bound
    bad = np.flatnonzero(excess > 1e-9)
    return BoundReport(
        L=L,
        q0=split,
        holds=bad.size == 0,
        first_violation_q=int(bad[0]) if bad.size else None,
        max_log_excess=float(excess.max()),
    )


def a_bound_smallest_violating_L(L_values) -> int | None:
    """Smallest L among L_values where the split bound fails, if any."""
    bad = [L for L in sorted(L_values) if not a_bound_check(L).holds]
    return bad[0] if bad else None


def pair_open_prob_tree(L: int, q: int, x: float) -> float:
    """Probability that both paths of a q-bond-sharing tree pair are open:
    (1-x)^(2L-q-2)/(2L-q-2)! * C(2L-2q-2, L-q-1)."""
    _check_q(L, q)
    if x >= 1.0:
        return 0.0
    log_p = (
        (2 * L - q - 2) * math.log1p(-x)
        + gammaln(2 * L - 2 * q - 1)
        - 2 * gammaln(L - q)
        - gammaln(2 * L - q - 1)
    )
    return float(math.exp(log_p))


def tree_pair_count(L: int, q: int) -> int:
    """Number of tree path pairs sharing exactly q bonds then branching:
    L!(L-q-1)(L-q-1)!  (exact integer)."""
    _check_q(L, q)
    return math.factorial(L) * (L - q - 1) * math.factorial(L - q - 1)


def pair_open_prob_hypercube(L: int, p: int, q: int, x: float) -> float:
    """Open-pair probability for a hypercube pair agreeing on the first p
    and last q steps and disjoint in between."""
    if p < 0 or q < 0 or p + q > L - 2:
        raise ValueError(f"need p,q >= 0 and p+q <= L-2, got p={p}, q={q}, L={L}")
    if x >= 1.0:
        return 0.0
    s = p + q
    log_p = (
        (2 * L - s - 2) * math.log1p(-x)
        + gammaln(2 * L - 2 * s - 1)
        - 2 * gammaln(L - s)
        - gammaln(2 * L - s - 1)
    )
    return float(math.exp(log_p))


@lru_cache(maxsize=None)
def indecomposable_count(n: int) -> int:
    """B(n): permutations of n elements with no proper invariant prefix,
    via the inversion of n! = sum_k B(k) (n-k)!."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return math.factorial(n) - sum(
        indecomposable_count(k) * math.factorial(n - k) for k in range(1, n)
    )


@lru_cache(maxsize=8)
def _hypercube_pair_profile(L: int) -> tuple:
    """For each block count r, the number of ordered path pairs on the
    L-cube whose shared nodes split both paths into r blocks.

    A pair of paths meets along a chain of shared nodes; between
    consecutive shared nodes the two subpaths are disjoint.  A block of m
    steps contributes B(m) choices for the second path (no proper shared
    prefix inside the block) times C(2m-2, m-1) orderings of the two
    disjoint interior chains, so the count for r blocks is the sum over
    compositions (m_1..m_r) of L of the product of those weights (exact
    integers).
    """
    if L < 2:
        raise ValueError(f"L must be >= 2, got {L}")
    w = [
        indecomposable_count(m) * math.comb(2 * m - 2, m - 1)
        for m in range(L, 0, -1)
    ]  # w[i] is the weight of a block of L - i steps
    # f(rem, r), the count for rem steps in r blocks, is 0 for rem < r, so
    # column r is built from the nonzero rows r-1..rem-1 of column r-1:
    # f(rem, r) = sum_j f(j, r-1) * weight(rem - j).
    col = [1] + [0] * L  # column r = 0
    out = []
    for r in range(1, L + 1):
        col = [0] * r + [
            sum(map(operator.mul, col[r - 1 : rem], w[L - rem + r - 1 :]))
            for rem in range(r, L + 1)
        ]
        out.append(col[L])
    return tuple(out)


def second_moment_hypercube(L: int, x: float) -> float:
    """E[Theta^2] on the hypercube, exact finite-L sum over shared-node
    chain profiles.

    A pair with r blocks leaves 2L - r - 1 free node values, all above x
    and ordered block by block, giving (1-x)^(2L-r-1)/(2L-r-1)! per pair.
    Block counts are exact integers; only the final sum is floating point
    (evaluated in log space).
    """
    if L < 2:
        raise ValueError(f"L must be >= 2, got {L}")
    if x >= 1.0:
        return 0.0
    counts = _hypercube_pair_profile(L)
    log_L_fact = float(gammaln(L + 1))
    log_terms = np.array(
        [
            math.log(counts[r - 1])
            + log_L_fact
            - float(gammaln(2 * L - r))
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
