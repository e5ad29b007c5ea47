"""The benchmark's workloads: the timed jobs and the checks on their outputs.

A job is one user-level call sequence into pathscape's public API.  Its
``run`` is the timed part; its ``check`` runs after the timed region and
returns a list of problems (empty when the output is correct).  Jobs call
every function through its module attribute (``mc.tree_theta_batch``, not
an imported name), so the traced run can wrap them from outside.

Every Monte Carlo job is checked at any seed in two ways.  Exact
identities on a few replicas: the tree count against full enumeration,
the hypercube count against the count on the reflected landscape,
``path_exists`` against ``count_open_paths > 0``, the KS distance against
an independent Bessel-form CDF.  And a band around the closed-form mean,
as in ``pathscape.verify`` but 6 standard errors wide instead of 4: the
benchmark runs at dozens of seeds for every change, and at 4 SE a correct
program would fail somewhere with a probability of several percent (the
samples are small and right-skewed).  Where a closed form for the
variance exists, the standard error comes from it rather than from the
sample: a sample of a few dozen replicas can have a zero sample variance
(every replica has a path), and a band of width zero would fail a
correct program.  Means of fewer than MIN_BAND_N replicas get no band.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from pathscape import cascade, hypercube, mc, moments, recursion, stats, tree
from pathscape.rng import derive_seed

#: Half-width of every statistical band, in standard errors.
K_SE = 6.0
#: Below this many replicas a heavy-tailed mean is too far from normal for
#: a band (one replica in the tail moves it past any useful width).
MIN_BAND_N = 30
#: Kolmogorov-Smirnov critical value times sqrt(n) at level 1e-8:
#: sqrt(ln(2 / 1e-8) / 2).
KS_CRIT = math.sqrt(math.log(2.0 / 1e-8) / 2.0)
#: Replicas per job that get an exact (oracle or identity) check.
N_EXACT = 2


@dataclass(frozen=True)
class Job:
    name: str
    #: End-to-end metric (``<group>_s``) that the job's time counts toward.
    group: str
    #: (seed, outputs of the earlier jobs of the round) -> outputs
    run: Callable[[int, dict], dict]
    #: (seed, outputs, outputs of all jobs of the round) -> problems
    check: Callable[[int, dict, dict], list]
    #: Outputs depend on the seed (Monte Carlo); otherwise deterministic.
    seeded: bool = True


def _band(name, observed, target, se, extra=0.0):
    """Problem text when |observed - target| exceeds K_SE * se + extra."""
    width = K_SE * se + extra
    if not abs(observed - target) <= width:
        return [f"{name}: {observed!r} vs {target!r} outside band {width!r}"]
    return []


def _summary(values) -> dict:
    s = stats.moment_summary(stats.Sample.from_values(values))
    return {"mean": s.mean, "var": s.variance, "mean_se": s.mean_stderr, "var_se": s.variance_stderr}


# --- tree-mc ---------------------------------------------------------------


def _tree_theta(L, x, n):
    def run(seed, outs):
        thetas = mc.tree_theta_batch(L, x, seed, n, threads=1)
        out = {"thetas": thetas, **_summary(thetas)}
        if L == 8:
            sq = _summary(thetas.astype(float) ** 2)
            out["mean_sq"], out["mean_sq_se"] = sq["mean"], sq["mean_se"]
        return out

    def check(seed, out, outs):
        se = math.sqrt(moments.var_tree(L, x) / n)
        problems = _band("mean", out["mean"], moments.expected_paths(L, x), se)
        if L <= 8:  # the enumeration oracle's limit
            for r in range(min(n, N_EXACT)):
                params = tree.TreeParams(L, x, derive_seed(seed, r))
                exact = tree.enumerate_tree_paths_oracle(params)
                if exact != out["thetas"][r]:
                    problems.append(f"replica {r}: Theta {out['thetas'][r]} != enumeration {exact}")
        if "mean_sq" in out and n >= MIN_BAND_N:  # sample SE: needs a large n
            problems += _band(
                "mean_sq", out["mean_sq"], moments.second_moment_tree(L, x), out["mean_sq_se"]
            )
        return problems

    return run, check


def _tree_theta_k(L, x, k, n):
    def run(seed, outs):
        vals = mc.tree_theta_k_batch(L, x, k, seed, n, threads=1)
        return {"theta_k": vals, **_summary(vals)}

    def check(seed, out, outs):
        # Var(Theta_k) = Var(Theta) - E[var(Theta | F_k)]
        var = moments.var_tree(L, x) - moments.cond_var_tree(L, x, k)
        return _band("mean", out["mean"], moments.expected_paths(L, x), math.sqrt(var / n))

    return run, check


def _tree_exists(L, x, n):
    def run(seed, outs):
        est = tree.tree_existence_mc(L, x, n, seed)
        hits = round(est.estimate * (est.samples - est.budget_hits))
        return {"hits": np.array([hits, est.budget_hits]), "estimate": est.estimate}

    def check(seed, out, outs):
        problems = []
        if out["hits"][1]:
            problems.append(f"{out['hits'][1]} budget hits")
        p = float(recursion.existence_prob(L, 2**13)(x))
        return problems + _band("estimate", out["estimate"], p, math.sqrt(p * (1 - p) / n))

    return run, check


# --- cube-cascade-mc -------------------------------------------------------


def _cube_theta(L, x, n):
    def run(seed, outs):
        thetas = mc.hypercube_theta_batch(L, x, seed, n, threads=1)
        return {"thetas": thetas, **_summary(thetas)}

    def check(seed, out, outs):
        problems = []
        if n >= MIN_BAND_N:
            se = math.sqrt(moments.var_hypercube(L, x) / n)
            problems += _band("mean", out["mean"], moments.expected_paths(L, x), se)
        for r in range(min(n, N_EXACT)):
            land = hypercube.generate_hypercube(L, x, seed, replica=r)
            # index-reflected landscape: paths reversed, values 1 - f
            mirror = hypercube.HypercubeLandscape(L, 0.0, 1.0 - land.fitness[::-1])
            exact = hypercube.count_open_paths(mirror)
            if exact != out["thetas"][r]:
                problems.append(f"replica {r}: Theta {out['thetas'][r]} != reflected count {exact}")
        return problems

    return run, check


def _cube_theta_k(L, x, k, n):
    def run(seed, outs):
        vals = mc.hypercube_theta_k_batch(L, x, k, seed, n, threads=1)
        return {"theta_k": vals, **_summary(vals)}

    def check(seed, out, outs):
        # Var(Theta_k) <= Var(Theta): the conditional expectation has the
        # same mean and a variance no larger, so this band is conservative.
        se = math.sqrt(moments.var_hypercube(L, x) / n)
        return _band("mean", out["mean"], moments.expected_paths(L, x), se)

    return run, check


def _cube_exists(L, x, n, counts_job):
    def run(seed, outs):
        hits = [
            hypercube.path_exists(hypercube.generate_hypercube(L, x, seed, replica=r))
            for r in range(n)
        ]
        return {"exists": np.array(hits, dtype=bool)}

    def check(seed, out, outs):
        # same (L, x, seed, replica) landscapes as the counting job
        expect = outs[counts_job]["thetas"][:n] > 0
        bad = int(np.count_nonzero(out["exists"] != expect))
        return [f"path_exists disagrees with count_open_paths > 0 on {bad} replicas"] if bad else []

    return run, check


def _cascade(k, delta, n):
    def run(seed, outs):
        batch = cascade.sample_cascade_batch(cascade.CascadeParams(k, delta, seed, samples=n))
        return {
            "ys": batch.ys,
            "budget_hits": batch.budget_hits,
            "mean_bias": batch.mean_bias,
            **_summary(np.exp(-batch.ys)),
        }

    def check(seed, out, outs):
        problems = [f"{out['budget_hits']} budget hits"] if out["budget_hits"] else []
        f_k = float(recursion.fk_iterate(k, 2.0, 2**13)(1.0))
        return problems + _band("mean exp(-Y)", out["mean"], f_k, out["mean_se"], out["mean_bias"])

    return run, check


def _cascade_limit(k, delta, n):
    def run(seed, outs):
        rep = cascade.cascade_limit_check(k, delta, n, derive_seed(seed, k))
        return {
            "ks": rep.ks,
            "budget_hits": rep.budget_hits,
            "gap": rep.finite_k_gap_bound,
            "mean_bias": rep.mean_bias,
        }

    def check(seed, out, outs):
        problems = [f"{out['budget_hits']} budget hits"] if out["budget_hits"] else []
        limit = KS_CRIT / math.sqrt(n) + out["gap"] + out["mean_bias"]
        if not out["ks"] <= limit:
            problems.append(f"KS(Y_{k} vs Exp(1)) = {out['ks']} above {limit}")
        return problems

    return run, check


def prodexp_cdf_bessel(z: np.ndarray) -> np.ndarray:
    """Independent oracle for the product-law CDF: 1 - 2 sqrt(z) K1(2 sqrt(z))."""
    from scipy.special import k1e

    z = np.asarray(z, dtype=float)
    out = np.zeros_like(z)
    pos = z > 0
    u = 2.0 * np.sqrt(z[pos])
    out[pos] = 1.0 - u * k1e(u) * np.exp(-u)
    return out


def ks_oracle(values: np.ndarray, cdf) -> float:
    v = np.sort(values)
    n = len(v)
    f = cdf(v)
    i = np.arange(1, n + 1)
    return float(max((i / n - f).max(), (f - (i - 1) / n).max()))


def _prodexp_ks(L, X, counts_job):
    scale = L * math.exp(-X)

    def run(seed, outs):
        sample = stats.Sample.from_values(outs[counts_job]["thetas"] / scale)
        return {"ks": stats.ks_statistic(sample, stats.product_exponential_law())}

    def check(seed, out, outs):
        thetas = outs[counts_job]["thetas"]
        oracle = ks_oracle(thetas / scale, prodexp_cdf_bessel)
        problems = []
        if not abs(out["ks"] - oracle) <= 1e-7:
            problems.append(f"KS {out['ks']!r} vs Bessel-form oracle {oracle!r}")
        # The zero atom alone puts the KS distance at P(Theta = 0); verify
        # allows 0.02 on top at n = 10^4, plus sampling noise here.
        atom = float(np.mean(thetas == 0))
        limit = atom + 0.02 + KS_CRIT / math.sqrt(len(thetas))
        if not out["ks"] <= limit:
            problems.append(f"KS {out['ks']} above zero atom {atom} + noise ({limit})")
        return problems

    return run, check


# --- recursion-moments -----------------------------------------------------


def _gf(mu, L, grid_n, full):
    def run(seed, outs):
        gf = recursion.tree_gf(mu / L, L, grid_n)
        return {f"G_X{X}": float(gf(X / L)) for X in (0, 1)}

    def check(seed, out, outs):
        problems = []
        for X in (0, 1):
            g = out[f"G_X{X}"]
            if not 0.0 <= g <= 1.0:
                problems.append(f"G(X={X}) = {g} outside [0, 1]")
            elif full:
                # Theorem 1 limit, verify's tolerance
                problems += _band(f"G(X={X})", g, 1.0 / (1.0 + mu * math.exp(-X)), 0.0, 0.01)
        return problems

    return run, check


def _p_star(L, grid_n, full):
    def run(seed, outs):
        return {"p_star": recursion.p_star(L, grid_n)}

    def check(seed, out, outs):
        ps = out["p_star"]
        problems = []
        upper = moments.pstar_upper_bound(L) if full else 1.0
        if not 0.0 < ps <= upper:
            problems.append(f"p_star {ps} outside (0, {upper}]")
        ratio = ps * L / math.log(L)
        if full and not 0.85 <= ratio <= 1.15:
            problems.append(f"p_star*L/ln L = {ratio} outside [0.85, 1.15]")
        return problems

    return run, check


def _fk(k, z_max, grid_n, full):
    def run(seed, outs):
        gf = recursion.fk_iterate(k, z_max, grid_n)
        return {"sup_gap": float(np.abs(gf.values - 1.0 / (1.0 + gf.xs)).max())}

    def check(seed, out, outs):
        tol = 1e-5 if full else 1e-2
        return [] if out["sup_gap"] < tol else [f"sup|F_{k} - 1/(1+z)| = {out['sup_gap']}"]

    return run, check


def _delta_bound(k_max, z_max, grid_n):
    def run(seed, outs):
        rep = recursion.delta_bound_check(k_max, z_max, grid_n)
        return {"M": rep.M, "violations": len(rep.violations)}

    def check(seed, out, outs):
        return [f"{out['violations']} delta_k envelope violations"] if out["violations"] else []

    return run, check


def _var_hypercube(Ls):
    X = 1.0

    def run(seed, outs):
        return {f"var_L{L}": moments.var_hypercube(L, X / L) for L in Ls}

    def check(seed, out, outs):
        limit = 3.0 * math.exp(-2 * X)
        gaps = [out[f"var_L{L}"] / L**2 / limit - 1.0 for L in Ls]
        if all(a > b for a, b in zip(gaps, gaps[1:])) and gaps[-1] < 0.05:
            return []
        return [f"Var(Theta/L) gaps to 3e^-2X not decreasing to < 0.05: {gaps}"]

    return run, check


def _var_star(L):
    def run(seed, outs):
        return {"var_star_over_L": moments.var_star_tree(L) / L}

    def check(seed, out, outs):
        return _band("Var*/L", out["var_star_over_L"], 1.0, 0.0, 1e-3)

    return run, check


def _cond_var(L, ks):
    def run(seed, outs):
        return {f"k{k}": moments.cond_var_tree(L, 0.0, k) / L**2 for k in ks}

    def check(seed, out, outs):
        return [p for k in ks for p in _band(f"k={k}", out[f"k{k}"], 2.0**-k, 0.0, 1e-3)]

    return run, check


def _a_bound(L):
    def run(seed, outs):
        rep = moments.a_bound_check(L)
        return {"holds": rep.holds, "max_log_excess": rep.max_log_excess}

    def check(seed, out, outs):
        return [] if out["holds"] else [f"a(L,q) bound fails at L={L}"]

    return run, check


def _job(name, group, pair, seeded=True):
    run, check = pair
    return Job(name, group, run, check, seeded)


def workload_jobs(workload: str, tiny: bool = False) -> list:
    """The jobs of one round of `workload`, in run order.

    `tiny` keeps every parameter that names a metric (L, x, k) and cuts
    sample counts and recursion grids, for the self-test.  Limit-law
    tolerances are then not applied to the recursions.
    """
    full = not tiny
    if workload == "tree-mc":
        n8, n10, n12, n14 = (900, 450, 60, 45) if full else (20, 10, 3, 3)
        return [
            _job("tree_theta_L8", "count", _tree_theta(8, 0.2, n8)),
            _job("tree_theta_k_L10", "count", _tree_theta_k(10, 0.1, 4, n10)),
            _job("tree_theta_L12", "count_large", _tree_theta(12, 1 / 12, n12)),
            _job("tree_exists_L14", "exists", _tree_exists(14, 0.0, n14)),
        ]
    if workload == "cube-cascade-mc":
        n12, n16, n20, nk, ne, nc, ncl = (
            (800, 80, 3, 300, 40, 2000, 300) if full else (20, 10, 2, 10, 5, 50, 50)
        )
        return [
            _job("cube_theta_L12", "count", _cube_theta(12, 0.1, n12)),
            _job("cube_theta_L16", "count", _cube_theta(16, 1 / 16, n16)),
            _job("cube_theta_k_L12", "count", _cube_theta_k(12, 0.1, 3, nk)),
            _job("cube_theta_L20", "count_large", _cube_theta(20, 1 / 20, n20)),
            _job("cube_exists_L16", "exists", _cube_exists(16, 1 / 16, ne, "cube_theta_L16")),
            _job("cascade_k3", "cascade", _cascade(3, 1e-8, nc)),
            _job("cascade_limit_k6", "cascade", _cascade_limit(6, 1e-6, ncl)),
            _job("prodexp_ks_L16", "ks", _prodexp_ks(16, 1.0, "cube_theta_L16")),
        ]
    if workload == "recursion-moments":
        g_win, g_full, g_pstar, g_fk = (2**14, 2**17, 2**15, 2**14) if full else (2**8,) * 4
        jobs = [
            _job(f"tree_gf_window_mu{mu}", "sweep_window", _gf(mu, 2000, g_win, full), False)
            for mu in (0.5, 1.0, 2.0)
        ]
        return jobs + [
            _job("p_star_L1e4", "sweep_window", _p_star(10**4, g_pstar, full), False),
            _job("tree_gf_full_L500", "sweep_full", _gf(1.0, 500, g_full, full), False),
            _job("fk_k20", "sweep_full", _fk(20, 10.0, g_fk, full), False),
            _job("delta_bound_k12", "sweep_full", _delta_bound(12, 10.0, g_fk), False),
            _job("var_hypercube", "moments", _var_hypercube((16, 64, 128, 256)), False),
            _job("var_star_L1e6", "moments", _var_star(10**6), False),
            _job("cond_var_L1e6", "moments", _cond_var(10**6, range(1, 11)), False),
            _job("a_bound_L1e6", "moments", _a_bound(10**6), False),
        ]
    raise ValueError(f"unknown workload {workload!r}")

