"""Empirical-distribution tooling and the reference limit laws.

The two reference laws are the exponential (tree limit) and the product
of two independent standard exponentials (hypercube limit).  The product
law's survival function P(E1*E2 > z) = int_0^inf exp(-t - z/t) dt has
the closed form 2*sqrt(z)*K1(2*sqrt(z)), with K1 the modified Bessel
function of the second kind, so `prodexp_cdf` is one minus it for z > 0
and 0 below; the quadrature stays in the tests as the oracle.  K1 is
`_k1e`, a port of the cephes `k1e` behind `scipy.special.k1e` that
returns its bits, so this module needs numpy only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Sample:
    """A sorted batch of real observations."""

    values: np.ndarray

    def __post_init__(self):
        if len(self.values) < 1:
            raise ValueError("sample must be non-empty")
        if not np.isfinite(self.values).all():
            raise ValueError("sample values must be finite")

    @classmethod
    def from_values(cls, values) -> "Sample":
        return cls(np.sort(np.asarray(values, dtype=float)))

    @property
    def n(self) -> int:
        return len(self.values)


def exponential_law():
    """CDF of the standard exponential (the tree limit law)."""

    def cdf(z):
        z = np.asarray(z, dtype=float)
        return np.where(z < 0, 0.0, -np.expm1(-z))

    return cdf


# cephes k1.c and i1.c (Moshier): Chebyshev series, highest order first, of
# x(K1(x) - log(x/2) I1(x)) on (0, 2], exp(x) sqrt(x) K1(x) on (2, inf)
# and exp(-x) I1(x) / x on [0, 8]
_K1_A = (
    -7.023863479386288e-18, -2.427449850519366e-15, -6.666901694199329e-13,
    -1.4114883926335278e-10, -2.213387630734726e-08, -2.4334061415659684e-06,
    -0.0001730288957513052, -0.006975723859639864, -0.12261118082265715,
    -0.3531559607765449, 1.5253002273389478,
)
_K1_B = (
    -5.756744483665017e-18, 1.7940508731475592e-17, -5.689462558442859e-17,
    1.838093544366639e-16, -6.057047248373319e-16, 2.038703165624334e-15,
    -7.019837090418314e-15, 2.4771544244813043e-14, -8.976705182324994e-14,
    3.3484196660784293e-13, -1.2891739609510289e-12, 5.13963967348173e-12,
    -2.1299678384275683e-11, 9.218315187605006e-11, -4.1903547593418965e-10,
    2.015049755197033e-09, -1.0345762465678097e-08, 5.7410841254500495e-08,
    -3.5019606030878126e-07, 2.406484947837217e-06, -1.936197974166083e-05,
    0.00019521551847135162, -0.002857816859622779, 0.10392373657681724,
    2.7206261904844427,
)
_I1_A = (
    2.7779141127610464e-18, -2.111421214358166e-17, 1.5536319577362005e-16,
    -1.1055969477353862e-15, 7.600684294735408e-15, -5.042185504727912e-14,
    3.223793365945575e-13, -1.9839743977649436e-12, 1.1736186298890901e-11,
    -6.663489723502027e-11, 3.625590281552117e-10, -1.8872497517228294e-09,
    9.381537386495773e-09, -4.445059128796328e-08, 2.0032947535521353e-07,
    -8.568720264695455e-07, 3.4702513081376785e-06, -1.3273163656039436e-05,
    4.781565107550054e-05, -0.00016176081582589674, 0.0005122859561685758,
    -0.0015135724506312532, 0.004156422944312888, -0.010564084894626197,
    0.024726449030626516, -0.05294598120809499, 0.1026436586898471,
    -0.17641651835783406, 0.25258718644363365,
)


def _chbevl(x, coeffs):
    """cephes `chbevl`: the Chebyshev series at x, in C's order of operations."""
    b0, b1 = coeffs[0], 0.0
    for c in coeffs[1:]:
        b2, b1 = b1, b0
        b0 = x * b1 - b2 + c
    return 0.5 * (b0 - b2)


def _k1e(u: np.ndarray) -> np.ndarray:
    """exp(u) K1(u) for a float array of u > 0, bit for bit scipy.special.k1e.

    u/2 must not round to 0 (the CDF's u = 2 sqrt(z) is at least 4e-162).
    Above 2 the cephes branch is IEEE arithmetic and a square root, so it
    runs on the whole array.  At and below 2 it needs exp and log, which
    come from libm one element at a time: numpy's vectorised exp and log
    round differently on some inputs.
    """
    out = np.empty_like(u)
    big = u > 2.0
    v = u[big]
    out[big] = _chbevl(8.0 / v - 2.0, _K1_B) / np.sqrt(v)
    v = u[~big]
    exp_v = np.array([math.exp(t) for t in v.tolist()])
    log_half_v = np.array([math.log(0.5 * t) for t in v.tolist()])
    i1 = _chbevl(v / 2.0 - 2.0, _I1_A) * v * exp_v
    out[~big] = (log_half_v * i1 + _chbevl(v * v - 2.0, _K1_A) / v) * exp_v
    return out


def prodexp_cdf(z):
    """CDF of E1*E2 on all reals: 1 - u*K1(u) with u = 2*sqrt(z) for finite
    z > 0, 0 at and below 0, 1 at +inf, NaN for NaN.

    k1e(u) = K1(u)*e^u keeps the product finite for large u.  Returns a
    float for a scalar z.
    """
    z = np.asarray(z, dtype=float)
    f = np.where(z > 0.0, 1.0, np.where(np.isnan(z), np.nan, 0.0))
    inside = (z > 0.0) & (z < np.inf)
    u = 2.0 * np.sqrt(z[inside])
    f[inside] = 1.0 - u * _k1e(u) * np.exp(-u)
    return f if f.ndim else float(f)


def product_exponential_law():
    """CDF of E1*E2 (the hypercube limit law): `prodexp_cdf`, looked up
    when this is called."""
    return prodexp_cdf


def ks_statistic(s: Sample, cdf: Callable) -> float:
    """Two-sided sup distance between the ECDF and a CDF."""
    n = s.n
    f = np.asarray(cdf(s.values), dtype=float)
    i = np.arange(1, n + 1)
    d_plus = (i / n - f).max()
    d_minus = (f - (i - 1) / n).max()
    return float(max(d_plus, d_minus))


@dataclass(frozen=True)
class MomentSummary:
    n: int
    mean: float
    variance: float
    mean_stderr: float
    variance_stderr: float


def moment_summary(s: Sample) -> MomentSummary:
    """Mean and unbiased variance with CLT standard errors; the variance
    standard error uses the fourth central moment."""
    n = s.n
    if n < 2:
        raise ValueError("need at least 2 observations")
    v = s.values
    mean = float(v.mean())
    var = float(v.var(ddof=1))
    centered = v - mean
    m4 = float((centered**4).mean())
    var_of_var = max(m4 - (n - 3) / (n - 1) * var * var, 0.0) / n
    return MomentSummary(
        n=n,
        mean=mean,
        variance=var,
        mean_stderr=math.sqrt(var / n),
        variance_stderr=math.sqrt(var_of_var),
    )
