"""Empirical-distribution helpers and the reference limit laws."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import k1e, kv

from pathscape import stats
from pathscape.rng import philox_stream
from pathscape.stats import (
    Sample,
    exponential_law,
    ks_statistic,
    moment_summary,
    prodexp_cdf,
    product_exponential_law,
)


def test_sample_validation():
    with pytest.raises(ValueError):
        Sample.from_values([])
    with pytest.raises(ValueError):
        Sample.from_values([1.0, math.inf])
    s = Sample.from_values([3.0, 1.0, 2.0])
    assert s.values.tolist() == [1.0, 2.0, 3.0]
    assert s.n == 3


def test_prodexp_against_bessel_closed_form():
    # cdf(z) = 1 - 2 sqrt(z) K1(2 sqrt(z)); pins the closed form to 1e-8
    for z in (0.1, 1.0, 5.0):
        expect = 1.0 - 2.0 * math.sqrt(z) * float(kv(1, 2.0 * math.sqrt(z)))
        assert prodexp_cdf(z) == pytest.approx(expect, abs=1e-8)
    assert prodexp_cdf(0.0) == 0.0
    assert prodexp_cdf(-1.0) == 0.0


def test_prodexp_cdf_on_all_reals():
    # 0 at and below 0, NaN stays NaN, and above 0 exactly the bits of
    # 1 - u k1e(u) e^-u with u = 2 sqrt(z), which the pinned records hold
    zs = np.array([-math.inf, -1.0, -1e-300, -0.0, 0.0, math.nan, 5e-324, 0.3, 7.0, 800.0])
    got = prodexp_cdf(zs)
    assert got[:5].tolist() == [0.0] * 5
    assert math.isnan(got[5])
    u = 2.0 * np.sqrt(zs[6:])
    assert np.array_equal(got[6:], 1.0 - u * k1e(u) * np.exp(-u))
    assert math.isnan(prodexp_cdf(math.nan))
    assert isinstance(prodexp_cdf(0.3), float)


def _survival_by_quadrature(z: float) -> float:
    """Oracle: int_0^inf exp(-t - z/t) dt, split at the integrand peak sqrt(z)."""
    peak = math.sqrt(z)

    def f(t):
        return math.exp(-t - z / t)

    left, _ = quad(f, 0.0, peak, epsabs=1e-10, epsrel=1e-10)
    right, _ = quad(f, peak, math.inf, epsabs=1e-10, epsrel=1e-10)
    return left + right


def test_prodexp_matches_quadrature_oracle():
    zs = np.concatenate([[0.0], np.logspace(-12, 2.5, 200)])  # up to 316
    got = prodexp_cdf(zs)
    assert got.shape == zs.shape
    assert got[0] == 0.0
    expect = np.array([_survival_by_quadrature(z) for z in zs[1:]])
    assert np.abs((1.0 - got[1:]) - expect).max() <= 1e-8
    # the array call agrees with scalar calls
    assert [prodexp_cdf(z) for z in zs[::20]] == got[::20].tolist()


def test_product_law_cdf_is_zero_below_zero():
    cdf = product_exponential_law()
    z = np.array([-1.0, 0.0, 1.0])
    assert cdf(z).tolist() == [0.0, 0.0, prodexp_cdf(1.0)]


def test_product_law_is_the_cdf_looked_up_at_call_time(monkeypatch):
    # a wrapper set on stats.prodexp_cdf (the benchmark tracer's) is the law
    assert product_exponential_law() is prodexp_cdf
    monkeypatch.setattr(stats, "prodexp_cdf", abs)
    assert product_exponential_law() is abs


def test_prodexp_cdf_monotone():
    zs = np.linspace(0.0, 8.0, 50)
    vals = [prodexp_cdf(z) for z in zs]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    assert 0.0 <= vals[0] <= vals[-1] <= 1.0


def test_prodexp_matches_sampled_products():
    # ECDF of E1*E2 within a DKW band of the quadrature CDF
    n = 200_000
    rng = philox_stream(4242)
    prods = rng.exponential(size=n) * rng.exponential(size=n)
    ks = ks_statistic(Sample.from_values(prods), product_exponential_law())
    dkw = math.sqrt(math.log(2.0 / 1e-6) / (2.0 * n))
    assert ks <= dkw


def test_ks_invariant_under_increasing_transform():
    rng = philox_stream(11)
    x = rng.exponential(size=5000)
    cdf = exponential_law()
    ks1 = ks_statistic(Sample.from_values(x), cdf)
    ks2 = ks_statistic(Sample.from_values(3.0 * x), lambda z: cdf(z / 3.0))
    assert ks1 == pytest.approx(ks2, abs=1e-12)


def test_moment_summary_trivial_cases():
    s = moment_summary(Sample.from_values([2.0] * 10))
    assert s.mean == 2.0
    assert s.variance == 0.0
    m = 50
    s = moment_summary(Sample.from_values([0.0] * m + [1.0] * m))
    assert s.mean == 0.5
    assert s.variance == pytest.approx(m / (2 * m - 1) * 0.5, rel=1e-12)


def test_moment_summary_clt_gate():
    n = 100_000
    rng = philox_stream(5)
    s = moment_summary(Sample.from_values(rng.exponential(size=n)))
    assert abs(s.mean - 1.0) <= 4.0 / math.sqrt(n)
    assert abs(s.variance - 1.0) <= 4 * s.variance_stderr


def test_moment_summary_needs_two():
    with pytest.raises(ValueError):
        moment_summary(Sample.from_values([1.0]))
