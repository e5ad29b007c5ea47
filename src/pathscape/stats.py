"""Empirical-distribution tooling and the reference limit laws.

The two reference laws are the exponential (tree limit) and the product
of two independent standard exponentials (hypercube limit).  The product
law's survival function P(E1*E2 > z) = int_0^inf exp(-t - z/t) dt has
the closed form 2*sqrt(z)*K1(2*sqrt(z)), with K1 the modified Bessel
function of the second kind, so `prodexp_cdf` is one minus it for z > 0
and 0 below; the quadrature stays in the tests as the oracle.  K1 is
scipy's, imported inside `prodexp_cdf`, so scipy is loaded only by a
process that evaluates the product law.
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


def prodexp_cdf(z):
    """CDF of E1*E2 on all reals: 1 - u*K1(u) with u = 2*sqrt(z) for z > 0,
    0 at and below 0, NaN for NaN.

    k1e(u) = K1(u)*e^u keeps the product finite for large u.  Returns a
    float for a scalar z.
    """
    from scipy.special import k1e  # the one scipy use: loaded on first call

    z = np.asarray(z, dtype=float)
    u = 2.0 * np.sqrt(np.maximum(z, 0.0))  # maximum keeps NaN
    with np.errstate(invalid="ignore"):  # 0 * k1e(0) = 0 * inf, replaced below
        f = np.where(z <= 0.0, 0.0, 1.0 - u * k1e(u) * np.exp(-u))
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
