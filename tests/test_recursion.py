"""Grid iteration of the generating-function, existence, and cascade
fixed-point recursions."""

import hashlib
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


# --- full-grid oracle for the windowed deficit sweeps ---------------------
#
# These are the sweep loops as they stood before the window: every sweep
# integrates and updates the whole grid, then overwrites the points whose
# closed-form tail log is below _TAIL_GRAFT_LOG.  The kernel must match
# them bit for bit.


def _segment_integrals_full(values, h):
    # the cell integrals as they stood before the sweeps ran in place
    f = values
    seg = np.empty(len(f) - 1)
    c = h / 24.0
    seg[1:-1] = c * (-f[:-3] + 13.0 * f[1:-2] + 13.0 * f[2:-1] - f[3:])
    seg[0] = c * (9.0 * f[0] + 19.0 * f[1] - 5.0 * f[2] + f[3])
    seg[-1] = c * (f[-4] - 5.0 * f[-3] + 19.0 * f[-2] + 9.0 * f[-1])
    return seg


def _suffix_integral_full(values, h):
    seg = _segment_integrals_full(values, h)
    out = np.empty_like(values)
    out[-1] = 0.0
    out[:-1] = np.cumsum(seg[::-1])[::-1]
    return out


def _tree_gf_full(lam, L, grid_n):
    h = 1.0 / grid_n
    xs = np.linspace(0.0, 1.0, grid_n + 1)
    c = -math.expm1(-lam) / lam
    with np.errstate(divide="ignore"):
        log1mx = np.log1p(-xs)
    d = np.full(grid_n + 1, lam * c)
    for size in range(2, L + 1):
        D = _suffix_integral_full(d, h)
        np.clip(D, 0.0, 1.0, out=D)
        with np.errstate(divide="ignore"):
            d = -np.expm1(size * np.log1p(-D))
        with np.errstate(invalid="ignore"):
            log_tail = math.log(c * lam * size) + (size - 1) * log1mx
        graft = log_tail < recursion._TAIL_GRAFT_LOG
        d[graft] = np.exp(log_tail[graft])
    return 1.0 - d


def _existence_prob_full(L, grid_n):
    h = 1.0 / grid_n
    xs = np.linspace(0.0, 1.0, grid_n + 1)
    with np.errstate(divide="ignore"):
        log1mx = np.log1p(-xs)
    p = np.ones(grid_n + 1)
    for size in range(2, L + 1):
        s = _suffix_integral_full(p, h)
        np.clip(s, 0.0, 1.0, out=s)
        with np.errstate(divide="ignore"):
            p = -np.expm1(size * np.log1p(-s))
        with np.errstate(invalid="ignore"):
            log_tail = math.log(size) + (size - 1) * log1mx
        graft = log_tail < recursion._TAIL_GRAFT_LOG
        p[graft] = np.exp(log_tail[graft])
    return p


# (2, 64) and (50, 2^10) only take the full-grid branch of the kernel.
# In the others the window first ends inside the grid at size 66-71, and
# the integrated slice from size 97-106 on.
#
# The window update takes log1p/expm1 only on its head up to the last
# point b where size*D >= 2^-54, and the plain product past it.  Counted
# once per sweep: lam = 1e-20 has b = 0 (all linear) on every sweep of
# every case; lam = 1/L, 1 and 50 and existence_prob have b = w (no
# linear part) on their one sweep at (2, 64) and on 3-6 sweeps elsewhere,
# and 0 < b < w on all the others.
#
# The suffix sums leave out the tail's subnormal band (the cut at Q) in
# the last three cases only: from size 94-100 on at 2^12 and 86-91 on at
# 2^13, on every later sweep but two to four, 472-604 sweeps at 2^12 and
# 1908-1913 at 2^13 per recursion.  Before that, and always in the first
# two cases, the tail's underflow lies too close to the grid's end.
# test_cut_fallback_matches_full_grid_oracle forces every cut to fall back.
_ORACLE_CASES = [(2, 64), (50, 2**10), (575, 2**12), (700, 2**12), (2000, 2**13)]


@pytest.mark.parametrize("L, grid_n", _ORACLE_CASES)
def test_existence_prob_matches_full_grid_oracle(L, grid_n):
    assert np.array_equal(existence_prob(L, grid_n).values, _existence_prob_full(L, grid_n))


@pytest.mark.parametrize("L, grid_n", _ORACLE_CASES)
@pytest.mark.parametrize("lam_kind", ["1/L", "1", "50", "1e-20"])
def test_tree_gf_matches_full_grid_oracle(L, grid_n, lam_kind):
    lam = {"1/L": 1.0 / L, "1": 1.0, "50": 50.0, "1e-20": 1e-20}[lam_kind]
    assert np.array_equal(tree_gf(lam, L, grid_n).values, _tree_gf_full(lam, L, grid_n))


@pytest.mark.parametrize("L, grid_n", _ORACLE_CASES)
def test_cut_fallback_matches_full_grid_oracle(L, grid_n, monkeypatch):
    # an infinite sigma keeps the two chains apart, so every sweep that
    # tries the cut at Q is redone on the full tail
    tried = []

    def never_meet(count, c, f_first):
        tried.append(count)
        return math.inf

    monkeypatch.setattr(recursion, "_dropped_cells_bound", never_meet)
    assert np.array_equal(existence_prob(L, grid_n).values, _existence_prob_full(L, grid_n))
    assert np.array_equal(tree_gf(1.0 / L, L, grid_n).values, _tree_gf_full(1.0 / L, L, grid_n))
    assert (len(tried) > 0) == (L >= 575)


def test_tree_gf_empty_window_matches_full_grid_oracle():
    # lam so small that log(c*lam*size) < _TAIL_GRAFT_LOG: no sweep has a
    # window, the whole grid is the closed-form tail
    for lam, L in ((1e-300, 30), (1e-260, 300)):
        assert np.array_equal(tree_gf(lam, L, 2**10).values, _tree_gf_full(lam, L, 2**10))


def test_golden_sweeps():
    # repr of the values the full-grid loops gave before the window
    assert repr(p_star(2000, 2**14)) == "0.003792486076961011"
    assert repr(float(tree_gf(1 / 2000, 2000, 2**14)(0.0))) == "0.5005859264552406"


def test_golden_in_place_sweeps():
    # recorded before the sweeps ran in place on preallocated buffers
    assert repr(p_star(10**4, 2**12)) == "0.0007971565845564971"
    values = tree_gf(1 / 500, 500, 2**15).values
    assert (
        hashlib.sha256(values.tobytes()).hexdigest()
        == "118a55500045494c890536f80dc89e659a6f9852cef229baa2556f1b73385725"
    )


def test_golden_benchmark_size_sweeps():
    # the benchmark's and criterion 9's p_star size, recorded before the
    # window update skipped log1p/expm1 on its linear part
    values = existence_prob(10**4, 2**15).values
    assert (
        hashlib.sha256(values.tobytes()).hexdigest()
        == "31a6d527f1710b33fc0b2ea215e30552e796298f8a257599cf68d25346d50d78"
    )


@pytest.mark.parametrize(
    "lam, L, grid_n, digest",
    [
        (0.5 / 2000, 2000, 2**14, "d10130ae11311f9addca99edc6ae2b0c23799ac7308d40a67b713b4b78434904"),
        (1.0 / 2000, 2000, 2**14, "f6b8d178aa22d0e0e8bbcbe749d3f73ad561eab4578dbf9a9433d79224f2a8f6"),
        (2.0 / 2000, 2000, 2**14, "25deac05fe3c20abcb1072a70de593b8ac2c5928875e4f90ea71b7ef01f17699"),
        (1.0 / 500, 500, 2**17, "f7789be90b45180516bc4d4c3a3f74ab7e041074fec3b60554031e367d327fd5"),
    ],
)
def test_golden_benchmark_gf_sweeps(lam, L, grid_n, digest):
    # the benchmark's windowed (mu = 0.5, 1, 2) and full-grid tree_gf
    # sizes, recorded before the sweeps stopped summing the subnormal band
    values = tree_gf(lam, L, grid_n).values
    assert hashlib.sha256(values.tobytes()).hexdigest() == digest


def test_log1p_expm1_are_identity_below_linear_bound():
    # The premise of recursion._LINEAR_BOUND, checked on this platform's
    # libm: a few thousand mantissas in every binade below 2^-54, the
    # subnormal ones included, both zeros and both signs, bit for bit.
    rng = np.random.default_rng(54)

    def spread(lo, span):
        # the bit patterns lo, lo + span - 1 and up to 2048 in between
        r = rng.integers(0, span, min(2048, span), dtype=np.uint64)
        return np.concatenate((np.array([0, span - 1], dtype=np.uint64), r)) + np.uint64(lo)

    # biased exponents 1..968 are the normal binades below 2^-54; the
    # subnormal binade [2^(j-1074), 2^(j-1073)) is the patterns 2^j + r, r < 2^j
    bits = [spread(e << 52, 2**52) for e in range(1, 969)]
    bits += [spread(2**j, 2**j) for j in range(52)]
    t = np.concatenate(bits + [np.zeros(1, dtype=np.uint64)]).view(np.float64)
    t = np.concatenate((t, -t))
    assert np.abs(t).max() == np.nextafter(recursion._LINEAR_BOUND, 0.0)
    assert recursion._LINEAR_BOUND == 2.0**-54
    assert np.abs(t[t != 0]).min() == 5e-324
    assert np.signbit(t[t == 0]).tolist() == [False, True]
    for fn in (np.log1p, np.expm1):
        assert np.array_equal(fn(t).view(np.uint64), t.view(np.uint64)), fn.__name__


def test_reversed_accumulate_is_a_left_to_right_float_loop():
    # The premise of the suffix sums and of the chains from -sigma and
    # +sigma: np.add.accumulate over a reversed view, written into a
    # reversed view, adds one element at a time from the right, each sum
    # rounded once, as a Python float loop does.  Read from the right, the
    # data are both signed zeros, a run of subnormals of both signs (sums
    # that stay subnormal), a run of zeros, then normal values over the
    # whole exponent range mixed with subnormals and with the negatives
    # of some of them.
    rng = np.random.default_rng(1068)

    def signed(v):
        return np.where(rng.random(len(v)) < 0.5, -v, v)

    normal = signed(np.ldexp(rng.random(2000) + 1.0, rng.integers(-1022, 1000, 2000)))
    subnormal = signed(rng.integers(1, 2**52, 2000, dtype=np.uint64).view(np.float64))
    # below 2^-1034 each, so that 500 of them sum below 2^-1022
    small = signed(rng.integers(1, 2**40, 500, dtype=np.uint64).view(np.float64))
    mixed = np.concatenate((normal, subnormal, -normal[:300], -subnormal[:300]))
    rng.shuffle(mixed)
    zeros = np.array([0.0, -0.0])[rng.integers(0, 2, 400)]
    x = np.concatenate((mixed, zeros, small, [0.0, -0.0, -0.0]))
    out = np.full(len(x) + 4, np.nan)
    np.add.accumulate(x[::-1], out=out[len(x) - 1 :: -1])
    want, acc = [], None
    for v in x[::-1].tolist():
        acc = v if acc is None else acc + v
        want.append(acc)
    assert np.array_equal(out[: len(x)].view(np.uint64), np.array(want[::-1]).view(np.uint64))
    assert np.isnan(out[len(x) :]).all()
    assert np.signbit(out[len(x) - 3 : len(x)]).tolist() == [False, True, True]
    tail = np.abs(out[len(x) - 503 : len(x) - 3])
    assert 0 < tail.max() < 2.0**-1022 and (tail == 0).sum() < 5


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
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="lam"):
            tree_gf(bad, 5, 256)
        with pytest.raises(ValueError, match="z_max"):
            fk_iterate(2, bad, 256)
        with pytest.raises(ValueError, match="z_max"):
            delta_bound_check(2, bad, 256)


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


def test_delta_bound_check_rejects_z_max_below_z_min():
    with pytest.raises(ValueError, match="z_max.*z_min"):
        delta_bound_check(3, 0.1, 2**8)


def test_golden_delta_bound_check():
    # values from the loop that restarted fk_iterate for every k
    report = delta_bound_check(12, 10.0, 2**14)
    assert repr(report.M) == "1.4288256911821728"
    assert repr(report.max_upper_excess) == "0.0"
    assert repr(report.max_lower_excess) == "-0.5010197510766436"
    assert report.violations == []


def test_delta_bound_check_sees_each_fk_iterate(monkeypatch):
    # the single-pass loop evaluates the same F_k as fk_iterate(k, ...);
    # a negative tolerance reports every k, so the last violation is k_max
    monkeypatch.setattr(recursion, "_DELTA_TOLERANCE", -1.0)
    zs = np.linspace(0.0, 4.0, 2**8 + 1)
    z = zs[zs >= 0.25]
    amp = (1.0 + z) ** 3 / z**2
    for k_max in (0, 1, 4):
        last = fk_iterate(k_max, 4.0, 2**8).values[zs >= 0.25]
        delta = 2.0**k_max * amp * (1.0 / (1.0 + z) - last)
        report = delta_bound_check(k_max, 4.0, 2**8)
        assert report.violations[-1]["k"] == k_max
        idx = int(np.argmax(np.maximum(delta - report.M, -delta)))
        assert report.violations[-1]["delta"] == float(delta[idx])
