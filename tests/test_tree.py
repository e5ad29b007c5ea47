"""Lazily sampled tree: frontier engine, alive fronts, conditional expectations."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathscape import mc, moments, stats, tree
from pathscape.rng import derive_seed
from pathscape.tree import (
    BudgetExceededError,
    TreeParams,
    enumerate_tree_paths_oracle,
    sample_theta_tree,
    theta_k_from_front,
    theta_k_tree,
    tree_existence_mc,
)

SEED = 424242


@pytest.mark.parametrize("L", range(2, 8))
def test_oracle_equivalence(L):
    for r in range(30):
        params = TreeParams(L, 0.25 * (r % 4) / 3.0, derive_seed(SEED, r))
        assert sample_theta_tree(params) == enumerate_tree_paths_oracle(params)


@pytest.mark.parametrize("L", range(2, 9))
def test_engine_block_matches_oracle(L):
    x = 0.05 * L
    seeds = np.array([derive_seed(SEED, r) for r in range(12)], dtype=np.uint64)
    thetas = tree.theta_block(seeds, L, x, tree.DEFAULT_NODE_BUDGET)
    for r, s in enumerate(seeds.tolist()):
        assert thetas[r] == enumerate_tree_paths_oracle(TreeParams(L, x, s))


@given(seed=st.integers(0, 2**32 - 1), L=st.integers(2, 6))
@settings(max_examples=40, deadline=None)
def test_oracle_equivalence_property(seed, L):
    params = TreeParams(L, 0.0, seed)
    assert sample_theta_tree(params) == enumerate_tree_paths_oracle(params)


def test_determinism():
    params = TreeParams(7, 0.3, 99)
    assert sample_theta_tree(params) == sample_theta_tree(params)
    assert theta_k_tree(params, 2) == theta_k_tree(params, 2)


def test_dim_one_cases():
    assert sample_theta_tree(TreeParams(1, 0.0, 1)) == 1
    assert sample_theta_tree(TreeParams(1, 1.0, 1)) == 0
    assert tree_existence_mc(1, 0.5, 10, SEED).estimate == 1.0
    assert tree_existence_mc(3, 1.0, 10, SEED).estimate == 0.0


@given(
    seed=st.integers(0, 2**32 - 1),
    lo=st.floats(0.0, 1.0),
    hi=st.floats(0.0, 1.0),
)
@settings(max_examples=40, deadline=None)
def test_monotone_pruning_in_root_value(seed, lo, hi):
    lo, hi = min(lo, hi), max(lo, hi)
    # identical value stream (same seed digest scheme), higher root only prunes
    t_lo = sample_theta_tree(TreeParams(6, lo, seed))
    t_hi = sample_theta_tree(TreeParams(6, hi, seed))
    assert t_hi <= t_lo


def test_alive_front_values_exceed_root():
    L, x = 8, 0.35
    seeds = np.array([SEED], dtype=np.uint64)
    for k in (1, 2, 3):
        values, _, owner, _ = tree._walk(seeds, L, x, k, tree.DEFAULT_NODE_BUDGET)
        assert (owner == 0).all()
        assert (values > x).all()


def test_theta_k_from_front_hand_values():
    # explicit fronts, sum of (L-k)(1-v)^(L-k-1) over alive values
    got = theta_k_from_front([0.59, 0.90, 0.01, 0.83], L=5, k=2)
    assert got == pytest.approx(3.5613, abs=1e-4)
    got = theta_k_from_front([0.22, 0.66, 0.95], L=4, k=2)
    assert got == pytest.approx(2.34, abs=1e-10)
    assert theta_k_from_front([], L=5, k=2) == 0.0


def test_theta_k_martingale_mean():
    L, x, k, n = 8, 0.2, 2, 3000
    vals = np.array(
        [theta_k_tree(TreeParams(L, x, derive_seed(SEED, r)), k) for r in range(n)]
    )
    summ = stats.moment_summary(stats.Sample.from_values(vals))
    target = moments.expected_paths(L, x)
    assert abs(summ.mean - target) <= 4 * summ.mean_stderr


def test_theta_mean_matches_closed_form(tree_thetas_8):
    summ = stats.moment_summary(stats.Sample.from_values(tree_thetas_8))
    target = moments.expected_paths(8, 0.2)
    assert abs(summ.mean - target) <= 4 * summ.mean_stderr


def test_budget_is_an_error_not_zero():
    with pytest.raises(BudgetExceededError):
        sample_theta_tree(TreeParams(12, 0.0, SEED, node_budget=50))


def test_existence_mc_reports_budget_hits():
    # every realization over budget leaves nothing to estimate from
    with pytest.raises(BudgetExceededError, match="all tree realizations"):
        tree_existence_mc(12, 0.0, 20, SEED, budget=50)


def test_existence_budget_retires_only_its_replica():
    L, x, n, budget = 10, 0.0, 40, 4000
    hits = over = 0
    for r in range(n):
        try:
            hits += sample_theta_tree(TreeParams(L, x, derive_seed(SEED, r), budget)) > 0
        except BudgetExceededError:
            over += 1
    assert 0 < over < n
    est = tree_existence_mc(L, x, n, SEED, budget=budget)
    assert est.budget_hits == over
    assert est.estimate == hits / (n - over)


def test_existence_mc_independent_of_threads():
    L, x, budget = 9, 0.0, 2000
    (a, b), *_ = tree.replica_blocks(L, x, 0, 10**6)
    n = 3 * (b - a) + 5
    one = tree_existence_mc(L, x, n, SEED, budget=budget, threads=1)
    assert 0 < one.budget_hits < n
    assert tree_existence_mc(L, x, n, SEED, budget=budget, threads=2) == one


def test_theta_batch_thread_and_block_invariance():
    L, x = 8, 0.2
    (a, b), *_ = tree.replica_blocks(L, x, 0, 10**6)
    n = 2 * (b - a) + 37
    assert n % (b - a) != 0
    one = mc.tree_theta_batch(L, x, SEED, n, threads=1)
    assert np.array_equal(one, mc.tree_theta_batch(L, x, SEED, n, threads=2))
    loop = [sample_theta_tree(TreeParams(L, x, derive_seed(SEED, r))) for r in range(n)]
    assert one.tolist() == loop


def test_theta_k_batch_matches_one_replica_calls():
    L, x, k, n = 10, 0.1, 4, 61
    vals = mc.tree_theta_k_batch(L, x, k, SEED, n)
    loop = [theta_k_tree(TreeParams(L, x, derive_seed(SEED, r)), k) for r in range(n)]
    assert vals.tolist() == loop


def test_params_validation():
    with pytest.raises(ValueError):
        TreeParams(0, 0.0, 1)
    with pytest.raises(ValueError):
        TreeParams(3, 1.5, 1)
    with pytest.raises(ValueError):
        TreeParams(3, 0.0, 1, node_budget=0)
    with pytest.raises(ValueError):
        theta_k_tree(TreeParams(3, 0.0, 1), 3)
    with pytest.raises(ValueError):
        enumerate_tree_paths_oracle(TreeParams(9, 0.0, 1))
    with pytest.raises(ValueError):
        mc.tree_theta_batch(4, 2.0, SEED, 3)


def _digest(values) -> str:
    return hashlib.sha256(np.ascontiguousarray(values).tobytes()).hexdigest()


# Digests recorded from the per-node DFS/BFS walkers that preceded the
# frontier engine; seeded tree output must stay bit-exact.
def test_golden_theta_batch(master_seed):
    thetas = mc.tree_theta_batch(8, 0.2, master_seed, 2000)
    assert thetas.dtype == np.int64
    assert _digest(thetas) == "b13982714132028885967d669723e543119a64053e567937982d66875177da1f"


def test_golden_theta_k_batch(master_seed):
    vals = mc.tree_theta_k_batch(10, 0.1, 4, master_seed, 500)
    assert vals.dtype == np.float64
    assert _digest(vals) == "395cac91cde26e88b0e42ce8b33aa742426ef89e7bd31832bcc0ff53ec52be6e"


def test_golden_existence_mc(master_seed):
    est = tree_existence_mc(14, 0.0, 200, master_seed)
    pair = np.array([est.estimate, est.budget_hits], dtype=float)
    assert _digest(pair) == "090bce422623aba019d0f1d201ace9d1e560846077b713e402a33e42c2069829"
