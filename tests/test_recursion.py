"""Grid iteration of the generating-function, existence, and cascade
fixed-point recursions."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from pathscape import recursion
from pathscape.recursion import (
    GridFunction,
    delta_bound_check,
    existence_prob,
    fk_iterate,
    p_star,
    tree_gf,
)


def test_grid_function_validation():
    with pytest.raises(ValueError):
        GridFunction(0.0, 1.0, np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        GridFunction(0.0, 1.0, np.array([1.0, np.inf, 2.0]))


def test_parameter_validation():
    with pytest.raises(ValueError):
        tree_gf(-1.0, 5, 256)
    with pytest.raises(ValueError):
        tree_gf(1.0, 0, 256)
    with pytest.raises(ValueError):
        tree_gf(1.0, 5, 32)
    with pytest.raises(ValueError):
        existence_prob(5, 16)
    with pytest.raises(ValueError):
        fk_iterate(-1, 2.0, 256)
    with pytest.raises(ValueError):
        fk_iterate(2, -1.0, 256)


def test_gf_base_cases():
    lam = 0.7
    gf = tree_gf(lam, 1, 256)
    assert np.allclose(gf.values, math.exp(-lam))
    assert np.allclose(tree_gf(0.0, 50, 256).values, 1.0)


def test_gf_range_and_monotonicity():
    gf = tree_gf(0.5, 20, 2**10)
    v = gf.values
    assert ((v >= 0.0) & (v <= 1.0 + 1e-12)).all()
    # non-decreasing in x: a higher root value can only remove paths
    assert (np.diff(v) >= -1e-12).all()
    # non-increasing in lam at every grid point
    v2 = tree_gf(1.5, 20, 2**10).values
    assert (v2 <= v + 1e-12).all()


def test_gf_dim_two_closed_form():
    # G(lam, x, 2) = [x + (1-x) e^-lam]^2 directly from the first step
    lam = 0.8
    gf = tree_gf(lam, 2, 2**9)
    xs = gf.xs
    expect = (xs + (1.0 - xs) * math.exp(-lam)) ** 2
    assert np.abs(gf.values - expect).max() < 1e-10


def test_existence_dim_two_closed_form():
    # p(x, 2) = 1 - x^2: a path exists iff some child value exceeds x
    gf = existence_prob(2, 2**9)
    assert np.abs(gf.values - (1.0 - gf.xs**2)).max() < 1e-10
    assert gf.values[-1] == pytest.approx(0.0, abs=1e-12)


def test_large_lambda_matches_existence():
    # 1 - G(lam=50, x, L) approaches P^x(at least one open path)
    L = 50
    gf = tree_gf(50.0, L, 2**12)
    pe = existence_prob(L, 2**12)
    gap = np.abs((1.0 - gf.values) - pe.values).max()
    assert gap < 2e-2


def test_grid_doubling_stability():
    a = p_star(200, 2**12)
    b = p_star(200, 2**13)
    assert abs(a - b) < 1e-4
    g1 = float(tree_gf(1.0 / 400, 400, 2**12)(0.0))
    g2 = float(tree_gf(1.0 / 400, 400, 2**13)(0.0))
    assert abs(g1 - g2) < 2e-3


def test_gf_limit_moderate_L():
    # G(mu/L, X/L, L) approaches 1/(1+mu e^-X) already at L = 400
    L, mu = 400, 1.0
    gf = tree_gf(mu / L, L, 2**13)
    for X in (0.0, 1.0):
        assert float(gf(X / L)) == pytest.approx(
            1.0 / (1.0 + mu * math.exp(-X)), abs=5e-3
        )


def test_pstar_log_asymptotics_sweep():
    ratios = [
        p_star(L, g) * L / math.log(L)
        for L, g in ((100, 2**13), (1000, 2**14))
    ]
    assert ratios[0] == pytest.approx(1.0, abs=0.05)
    assert ratios[1] == pytest.approx(1.0, abs=0.02)
    assert abs(ratios[1] - 1.0) < abs(ratios[0] - 1.0)


def test_f0_and_f1_against_quadrature():
    gf0 = fk_iterate(0, 4.0, 2**10)
    assert np.abs(gf0.values - np.exp(-gf0.xs)).max() < 1e-14

    def integrand(t):
        return -math.expm1(-t) / t if t > 0 else 1.0

    expect, _ = quad(integrand, 0.0, 1.0, epsabs=1e-12)
    got = float(fk_iterate(1, 2.0, 2**12)(1.0))
    assert got == pytest.approx(math.exp(-expect), abs=1e-9)


def test_fk_converges_to_fixed_point():
    gf = fk_iterate(20, 10.0, 2**14)
    sup = float(np.abs(gf.values - 1.0 / (1.0 + gf.xs)).max())
    assert sup < 1e-5
    # monotone improvement in k
    sup5 = float(
        np.abs(fk_iterate(5, 10.0, 2**14).values - 1.0 / (1.0 + gf.xs)).max()
    )
    assert sup < sup5


def test_delta_envelope():
    report = delta_bound_check(12, 10.0, 2**14)
    assert report.ok
    assert report.M == pytest.approx(1.42883, abs=1e-4)
    assert report.max_upper_excess <= report.tolerance
    assert report.max_lower_excess <= report.tolerance


def test_delta_bound_check_rejects_negative_k():
    with pytest.raises(ValueError, match="k_max"):
        delta_bound_check(-1, 10.0, 2**8)
