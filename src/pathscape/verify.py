"""Named verification batteries: each acceptance check as a callable.

Every check returns CheckResult records whose `observed` dict contains
only deterministic functions of (master seed, sample counts), so a rerun
with the same seed reproduces each statistic bit-exactly.

`scale` multiplies Monte Carlo sample counts (floored at 100) so the
same battery can run as a quick smoke test or at full strength.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass

import numpy as np

from . import cascade, mc, moments, recursion, stats, tree
from .rng import derive_seed

DEFAULT_SEED = 20260823


@dataclass(frozen=True)
class CheckResult:
    criterion: str
    passed: bool
    observed: dict
    expected: dict
    details: str = ""

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return f"[{tag}] {self.criterion}: {self.details}"


def _n(base: int, scale: float) -> int:
    return max(100, int(round(base * scale)))


def _within_se(sample_mean, target, stderr, k=4.0):
    return abs(sample_mean - target) <= k * stderr


def _mean_band(criterion, key, label, fmt, values, target, L, x):
    """The sample mean of `values` within 4 standard errors of `target`."""
    s = stats.moment_summary(stats.Sample.from_values(values))
    band = 4 * s.mean_stderr
    return CheckResult(
        criterion=criterion,
        passed=_within_se(s.mean, target, s.mean_stderr),
        observed={key: s.mean, "stderr": s.mean_stderr, "n": len(values)},
        expected={key: target, "band": band},
        details=f"L={L} x={x}: {label}={s.mean:{fmt}} vs {target:{fmt}} (4SE={band:{fmt}})",
    )


# --- criteria 3 & 4 --------------------------------------------------------

def check_tree_moments(seed: int = DEFAULT_SEED, scale: float = 1.0, threads=None):
    L, x = 8, 0.2
    thetas = mc.tree_theta_batch(L, x, seed, _n(100_000, scale), threads=threads).astype(float)
    m1, m2 = moments.expected_paths(L, x), moments.second_moment_tree(L, x)
    return [
        _mean_band("3-first-moment-tree", "mean", "mean(Theta)", ".4f", thetas, m1, L, x),
        _mean_band("4-second-moment-tree", "mean_sq", "mean(Theta^2)", ".3f", thetas**2, m2, L, x),
    ]


def check_hypercube_first_moment(seed: int = DEFAULT_SEED, scale: float = 1.0, threads=None):
    L, x = 12, 0.1
    n = _n(100_000, scale)
    thetas = mc.hypercube_theta_batch(L, x, seed, n, threads=threads).astype(float)
    m1 = moments.expected_paths(L, x)
    return [_mean_band("3-first-moment-hypercube", "mean", "mean(Theta)", ".4f", thetas, m1, L, x)]


# --- criterion 5 -----------------------------------------------------------

def check_closed_form_limits(seed: int = DEFAULT_SEED, scale: float = 1.0, threads=None):
    L = 10**6
    results = []

    v = moments.var_star_tree(L) / L
    results.append(
        CheckResult(
            criterion="5-var-star",
            passed=abs(v - 1.0) <= 1e-3,
            observed={"var_star_over_L": v},
            expected={"limit": 1.0, "tol": 1e-3},
            details=f"Var*(Theta)/L at L=1e6: {v:.6f} (limit 1, tol 1e-3)",
        )
    )

    ok = True
    vals = {}
    for X in (0.0, 1.0):
        sm = moments.scaled_limits(L, X, moments.REGIME_X_OVER_L)
        vals[f"X={X}"] = sm.var_scaled
        ok = ok and abs(sm.var_scaled - math.exp(-2 * X)) <= 1e-3
    results.append(
        CheckResult(
            criterion="5-var-X-over-L",
            passed=ok,
            observed=vals,
            expected={"limit": "exp(-2X)", "tol": 1e-3},
            details=f"Var(Theta/L) at x=X/L, L=1e6: {vals}",
        )
    )

    sm = moments.scaled_limits(L, 0.0, moments.REGIME_LOG_OVER_L)
    results.append(
        CheckResult(
            criterion="5-var-logL-over-L",
            passed=abs(sm.var_scaled - 2.0) <= 0.05,
            observed={"var": sm.var_scaled},
            expected={"limit": 2.0, "tol": 0.05},
            details=f"Var(Theta) at x=lnL/L, L=1e6: {sm.var_scaled:.4f} (limit 2, tol 0.05)",
        )
    )

    ok = True
    worst = 0.0
    for k in range(1, 11):
        v = moments.cond_var_tree(L, 0.0, k) / L**2
        err = abs(v - 2.0**-k)
        worst = max(worst, err)
        ok = ok and err <= 1e-3
    results.append(
        CheckResult(
            criterion="5-conditional-variance",
            passed=ok,
            observed={"max_abs_err": worst},
            expected={"limit": "2^-k", "tol": 1e-3},
            details=f"E[var(Theta|F_k)]/L^2 vs 2^-k, k<=10: max err {worst:.2e}",
        )
    )
    return results


# --- criterion 6 -----------------------------------------------------------

def check_a_coeff_facts(seed: int = DEFAULT_SEED, scale: float = 1.0, threads=None):
    results = []
    worst = 0.0
    for L in (12, 100, 10**4):
        worst = max(worst, abs(moments.a_coeff(L, L - 2) / 2.0 - 1.0))
        # exact value from the defining factorial ratio is 24/(L+1); see
        # the neighbouring identity a(L,L-4) = 360/((L+1)(L+2))
        worst = max(worst, abs(moments.a_coeff(L, L - 3) * (L + 1) / 24.0 - 1.0))
        worst = max(
            worst,
            abs(moments.a_coeff(L, L - 4) * (L + 1) * (L + 2) / 360.0 - 1.0),
        )
    results.append(
        CheckResult(
            criterion="6-a-boundary-values",
            passed=worst <= 1e-10,
            observed={"max_rel_err": worst},
            expected={"a(L,L-2)": 2, "a(L,L-3)": "24/(L+1)", "a(L,L-4)": "360/((L+1)(L+2))", "tol": 1e-10},
            details=(
                f"a(L,L-2)=2, a(L,L-3)=24/(L+1), a(L,L-4)=360/((L+1)(L+2)) "
                f"at L in (12,100,1e4): max rel err {worst:.2e}"
            ),
        )
    )

    log_a = np.array([moments.log_a_coeff(100, q) for q in range(99)])
    second_diff = log_a[2:] - 2 * log_a[1:-1] + log_a[:-2]
    # convexity is guaranteed for L - q >= 3, i.e. top index q <= 97
    min_diff = float(second_diff[: 97 - 1].min())
    results.append(
        CheckResult(
            criterion="6-log-convexity",
            passed=min_diff >= -1e-12,
            observed={"min_second_difference": min_diff},
            expected={"min": 0.0},
            details=f"second differences of ln a(100,q), q<=97: min {min_diff:.2e}",
        )
    )

    # The split bound is an eventual one: exact rational arithmetic shows
    # it first holds at L = 900, so at L = 100 the correct behaviour is a
    # detected violation (first bad q = 6), reported rather than asserted.
    reports = {L: moments.a_bound_check(L) for L in (100, 10**4, 10**6)}
    ok = (
        not reports[100].holds
        and reports[100].first_violation_q == 6
        and reports[10**4].holds
        and reports[10**6].holds
    )
    results.append(
        CheckResult(
            criterion="6-a-upper-bound",
            passed=ok,
            observed={
                str(L): {"holds": r.holds, "first_violation_q": r.first_violation_q}
                for L, r in reports.items()
            },
            expected={"100": "violation at q=6 detected", "10^4": True, "10^6": True},
            details=(
                "split bound L^2*1.99^-q / 2: holds at L=1e4, 1e6; eventual-bound "
                "violation at L=100 correctly detected (threshold L=900): "
                + ("ok" if ok else "MISMATCH")
            ),
        )
    )
    return results


# --- criterion 7 -----------------------------------------------------------

def _pair_classes_bruteforce(L: int) -> dict[tuple[int, int], int]:
    """Classify all non-identical paths against the identity path by the
    exact (shared prefix, shared suffix, disjoint middle) pattern."""
    counts: dict[tuple[int, int], int] = {}
    for alpha in itertools.permutations(range(L)):
        if alpha == tuple(range(L)):
            continue
        meets = [set(alpha[:j]) == set(range(j)) for j in range(1, L)]
        p = 0
        while p < L - 1 and meets[p]:
            p += 1
        q = 0
        while q < L - 1 and meets[L - 2 - q]:
            q += 1
        pattern = [j < p or j >= L - 1 - q for j in range(L - 1)]
        if pattern == meets:
            counts[(p, q)] = counts.get((p, q), 0) + 1
    return counts


def check_indecomposable(seed: int = DEFAULT_SEED, scale: float = 1.0, threads=None):
    bn = [moments.indecomposable_count(n) for n in range(1, 6)]
    r1 = CheckResult(
        criterion="7-Bn-values",
        passed=bn == [1, 1, 3, 13, 71],
        observed={"B(1..5)": bn},
        expected={"B(1..5)": [1, 1, 3, 13, 71]},
        details=f"B(1..5) = {bn}",
    )
    L = 6
    brute = _pair_classes_bruteforce(L)
    ok = True
    for p in range(L - 1):
        for q in range(L - 1 - p):
            expect = moments.indecomposable_count(L - p - q)
            if brute.get((p, q), 0) != expect:
                ok = False
    r2 = CheckResult(
        criterion="7-Ipq-class-sizes",
        passed=ok,
        observed={"classes": {f"{p},{q}": c for (p, q), c in sorted(brute.items())}},
        expected={"|I_pq|": "B(L-p-q)"},
        details=f"|I_p,q| vs B(6-p-q) at L=6 over all valid (p,q): {'ok' if ok else 'MISMATCH'}",
    )
    return [r1, r2]


# --- criterion 8 -----------------------------------------------------------

def check_tree_gf_limit(seed: int = DEFAULT_SEED, scale: float = 1.0, threads=None):
    L = 2000
    mus = (0.5, 1.0, 2.0)
    Xs = (0.0, 1.0)

    def sweep(grid_n):
        vals = {}
        for mu in mus:
            gf = recursion.tree_gf(mu / L, L, grid_n)
            for X in Xs:
                vals[(mu, X)] = float(gf(X / L))
        return vals

    coarse = sweep(2**14)
    fine = sweep(2**15)
    worst = max(
        abs(coarse[(mu, X)] - 1.0 / (1.0 + mu * math.exp(-X)))
        for mu in mus
        for X in Xs
    )
    shift = max(abs(coarse[k] - fine[k]) for k in coarse)
    return [
        CheckResult(
            criterion="8-thm1-generating-function",
            passed=worst < 0.01 and shift < 2e-3,
            observed={"max_limit_gap": worst, "grid_doubling_shift": shift},
            expected={"limit_gap": 0.01, "doubling_shift": 2e-3},
            details=(
                f"|G(mu/L, X/L, L=2000) - 1/(1+mu e^-X)| max {worst:.4f} (<0.01), "
                f"grid-doubling shift {shift:.2e} (<2e-3)"
            ),
        )
    ]


# --- criterion 9 -----------------------------------------------------------

def check_existence(seed: int = DEFAULT_SEED, scale: float = 1.0, threads=None):
    results = []
    dominated = True
    pairs = {}
    for LL, gn in ((10, 2**12), (100, 2**13), (1000, 2**14), (10**4, 2**15)):
        psl = recursion.p_star(LL, gn)
        ub = moments.pstar_upper_bound(LL)
        pairs[LL] = (psl, ub)
        dominated = dominated and psl <= ub

    L = 10**4
    ps = pairs[L][0]
    ratio = ps * L / math.log(L)
    results.append(
        CheckResult(
            criterion="9-pstar-log-asymptotics",
            passed=0.85 <= ratio <= 1.15,
            observed={"p_star": ps, "ratio": ratio},
            expected={"band": [0.85, 1.15]},
            details=f"p_star(1e4)*1e4/ln(1e4) = {ratio:.4f} (band [0.85, 1.15])",
        )
    )
    results.append(
        CheckResult(
            criterion="9-pstar-upper-bound",
            passed=dominated,
            observed={str(k): v for k, v in pairs.items()},
            expected={"p_star <= bound": True},
            details="p_star(L) <= Markov-split upper bound for L in (10,1e2,1e3,1e4): "
            + ("ok" if dominated else "VIOLATED"),
        )
    )

    L = 14
    n = _n(10_000, scale)
    est = tree.tree_existence_mc(L, 0.0, n, seed, threads=threads)
    p_rec = float(recursion.existence_prob(L, 2**13)(0.0))
    results.append(
        CheckResult(
            criterion="9-existence-mc-vs-recursion",
            passed=_within_se(est.estimate, p_rec, est.stderr),
            observed={
                "mc": est.estimate,
                "stderr": est.stderr,
                "budget_hits": est.budget_hits,
                "n": n,
            },
            expected={"recursion": p_rec, "band": 4 * est.stderr},
            details=(
                f"P^0(Theta>=1) at L=14: MC {est.estimate:.4f} vs recursion {p_rec:.4f} "
                f"(4SE={4*est.stderr:.4f})"
            ),
        )
    )
    return results


# --- criterion 10 ----------------------------------------------------------

def check_fk(seed: int = DEFAULT_SEED, scale: float = 1.0, threads=None):
    gf = recursion.fk_iterate(20, 10.0, 2**14)
    sup = recursion.fk_limit_gap(gf)
    report = recursion.delta_bound_check(12, 10.0, 2**14)
    return [
        CheckResult(
            criterion="10-fk-fixed-point",
            passed=sup < 1e-5 and report.ok,
            observed={
                "sup_gap_F20": sup,
                "M": report.M,
                "delta_violations": len(report.violations),
            },
            expected={"sup_gap": 1e-5, "envelope": f"0 <= delta_k <= M={report.M:.4f}"},
            details=(
                f"sup|F_20 - 1/(1+z)| = {sup:.2e} (<1e-5); delta_k in [0, {report.M:.4f}] "
                f"for k<=12: {'ok' if report.ok else report.violations}"
            ),
        )
    ]


# --- criterion 11 ----------------------------------------------------------

def check_cascade(seed: int = DEFAULT_SEED, scale: float = 1.0, threads=None):
    results = []

    n = _n(100_000, scale)
    batch = cascade.sample_cascade_batch(
        cascade.CascadeParams(3, 1e-8, seed, samples=n), threads=threads
    )
    lap = np.exp(-batch.ys)
    summ = stats.moment_summary(stats.Sample.from_values(lap))
    f3_at_1 = float(recursion.fk_iterate(3, 2.0, 2**13)(1.0))
    band = 4 * summ.mean_stderr + batch.mean_bias
    results.append(
        CheckResult(
            criterion="11-cascade-laplace-vs-fk",
            passed=abs(summ.mean - f3_at_1) <= band,
            observed={
                "mean_exp_negY3": summ.mean,
                "stderr": summ.mean_stderr,
                "mean_bias": batch.mean_bias,
                "n": n,
            },
            expected={"F3(1)": f3_at_1, "band": band},
            details=(
                f"mean e^-Y3 = {summ.mean:.5f} vs F_3(1) = {f3_at_1:.5f} "
                f"(band 4SE+bias = {band:.5f})"
            ),
        )
    )

    n_ks = _n(10_000, scale)
    rep6 = cascade.cascade_limit_check(6, 1e-6, n_ks, derive_seed(seed, 6), threads)
    rep2 = cascade.cascade_limit_check(2, 1e-6, n_ks, derive_seed(seed, 2), threads)
    results.append(
        CheckResult(
            criterion="11-cascade-exponential-limit",
            passed=rep6.ks < 0.02 and rep6.ks < rep2.ks,
            observed={"ks_k6": rep6.ks, "ks_k2": rep2.ks, "gap_bound_k6": rep6.finite_k_gap_bound},
            expected={"ks_k6": 0.02, "monotone": "ks(k=6) < ks(k=2)"},
            details=(
                f"KS(Y_6 vs Exp(1)) = {rep6.ks:.4f} (<0.02), KS(Y_2) = {rep2.ks:.4f}; "
                f"theory gap at k=6: {rep6.finite_k_gap_bound:.2e}"
            ),
        )
    )
    return results


# --- criterion 12 ----------------------------------------------------------

def check_hypercube_limit_law(seed: int = DEFAULT_SEED, scale: float = 1.0, threads=None):
    # Finite-L reality at L = 16, x = 1/16 (established by the exact
    # pair-profile second moment and a validated sampler): Var(Theta/L)
    # is 0.8101, twice the L -> infinity value 3e^-2X, and Theta = 0
    # still carries ~0.51 probability, so the raw KS distance against the
    # atomless product-exponential law cannot drop below ~0.5 at this
    # size.  The checks therefore gate (a) the sampler against the exact
    # finite-L variance plus the exact-arithmetic convergence of the
    # variance toward 3e^-2X, and (b) the distributional convergence that
    # finite L can actually exhibit: KS improving with L, the raw KS
    # fully explained by the zero atom, and the conditional (Theta > 0)
    # law moving toward the limit law.
    X = 1.0
    n = _n(10_000, scale)
    results = []

    thetas16 = mc.hypercube_theta_batch(16, X / 16, seed, n, threads=threads).astype(float)
    summ16 = stats.moment_summary(stats.Sample.from_values(thetas16 / 16))
    var16, se_var = summ16.variance, summ16.variance_stderr
    exact16 = moments.var_hypercube(16, X / 16) / 16**2
    limit = 3.0 * math.exp(-2 * X)
    gaps = [
        moments.var_hypercube(L, X / L) / L**2 / limit - 1.0
        for L in (16, 64, 128, 256)
    ]
    trend_ok = all(a > b for a, b in zip(gaps, gaps[1:])) and gaps[-1] < 0.05
    results.append(
        CheckResult(
            criterion="12-hypercube-variance",
            passed=_within_se(var16, exact16, se_var) and trend_ok,
            observed={
                "var": var16,
                "se_var": se_var,
                "n": n,
                "exact_rel_gaps_to_limit": gaps,
            },
            expected={
                "exact_L16": exact16,
                "limit": limit,
                "trend": "exact gap decreasing over L=16,64,128,256; final < 0.05",
            },
            details=(
                f"Var(Theta/L) at L=16, x=1/16: {var16:.4f} vs exact {exact16:.4f} "
                f"(4SE {4 * se_var:.4f}); exact gaps to 3e^-2X: "
                + ", ".join(f"{g:.4f}" for g in gaps)
            ),
        )
    )

    law = stats.product_exponential_law()
    thetas8 = mc.hypercube_theta_batch(8, X / 8, seed, n, threads=threads).astype(float)
    ks16 = stats.ks_statistic(
        stats.Sample.from_values(thetas16 / (16 * math.exp(-X))), law
    )
    ks8 = stats.ks_statistic(stats.Sample.from_values(thetas8 / (8 * math.exp(-X))), law)
    atom16 = float(np.mean(thetas16 == 0))
    pos16 = thetas16[thetas16 > 0] / (16 * math.exp(-X))
    pos8 = thetas8[thetas8 > 0] / (8 * math.exp(-X))
    ks16_pos = stats.ks_statistic(stats.Sample.from_values(pos16), law)
    ks8_pos = stats.ks_statistic(stats.Sample.from_values(pos8), law)
    results.append(
        CheckResult(
            criterion="12-hypercube-product-exponential",
            passed=ks16 < ks8
            and ks16 <= atom16 + 0.02
            and ks16_pos < ks8_pos
            and ks16_pos < 0.40,
            observed={
                "ks_L16": ks16,
                "ks_L8": ks8,
                "zero_atom_L16": atom16,
                "ks_L16_positive": ks16_pos,
                "ks_L8_positive": ks8_pos,
                "n": n,
            },
            expected={
                "monotone": "ks(16) < ks(8)",
                "atom_dominated": "ks(16) <= P(Theta=0) + 0.02",
                "conditional": "ks(16 | Theta>0) < ks(8 | Theta>0) and < 0.40",
            },
            details=(
                f"KS vs E1*E2: L=16 {ks16:.4f} (zero atom {atom16:.4f}), "
                f"L=8 {ks8:.4f}; conditional on Theta>0: "
                f"L=16 {ks16_pos:.4f} (<0.40), L=8 {ks8_pos:.4f}"
            ),
        )
    )
    return results


# --- batteries -------------------------------------------------------------

BATTERIES = {
    "thm1": [check_tree_gf_limit],
    "thm2": [check_hypercube_limit_law],
    "thm3": [check_existence],
    "thm4": [check_fk, check_cascade],
    "prop1": [check_tree_moments, check_hypercube_first_moment],
    "moments": [check_closed_form_limits, check_a_coeff_facts, check_indecomposable],
}


def run_battery(name: str, seed: int = DEFAULT_SEED, scale: float = 1.0, threads=None):
    """Run every check of the battery, in order.

    Returns (result, seconds) pairs: each result with the wall time of the
    check that produced it, so the results of one check share its time.
    """
    if name not in BATTERIES:
        raise ValueError(f"unknown battery {name!r}; choose from {sorted(BATTERIES)}")
    if not (math.isfinite(scale) and scale > 0):
        raise ValueError(f"scale must be a positive finite number, got {scale}")
    timed = []
    for check in BATTERIES[name]:
        t0 = time.perf_counter()
        results = check(seed=seed, scale=scale, threads=threads)
        seconds = time.perf_counter() - t0
        timed.extend((res, seconds) for res in results)
    return timed
