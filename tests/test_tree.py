"""Lazily sampled tree: frontier engine, alive fronts, conditional expectations."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathscape import mc, moments, stats, tree
from pathscape.rng import derive_seed, splitmix64, uniform_from_hash
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
        values, owner, _ = tree._walk(seeds, L, x, k, tree.DEFAULT_NODE_BUDGET)
        assert (owner == 0).all()
        assert (values > x).all()


def test_theta_k_from_front_hand_values():
    # explicit fronts, sum of (L-k)(1-v)^(L-k-1) over alive values
    got = theta_k_from_front([0.59, 0.90, 0.01, 0.83], L=5, k=2)
    assert got == pytest.approx(3.5613, abs=1e-4)
    got = theta_k_from_front([0.22, 0.66, 0.95], L=4, k=2)
    assert got == pytest.approx(2.34, abs=1e-10)
    assert theta_k_from_front([], L=5, k=2) == 0.0


def _theta_k_by_enumeration(L: int, x: float, seed: int, k: int) -> float:
    """Independent reference for theta_k_tree: replay the open level-k
    prefixes one node at a time on Python ints, and sum (L-k)(1-v)^(L-k-1)
    over their end values v, skipping v = 1 (a tie with the leaves)."""
    front = [(x, splitmix64(seed))]
    for level in range(k):
        front = [
            (uniform_from_hash(h), h)
            for v, d in front
            for h in (tree._child_hash(d, c) for c in range(L - level))
            if uniform_from_hash(h) > v
        ]
    return sum((L - k) * (1.0 - v) ** (L - k - 1) for v, _ in front if v != 1.0)


@pytest.mark.parametrize("L", range(1, 8))
def test_theta_k_against_prefix_enumeration(L):
    for x in (0.0, 0.2, 0.5, 1.0):
        for r in range(6):
            seed = derive_seed(SEED, r)
            for k in range(L):
                expect = _theta_k_by_enumeration(L, x, seed, k)
                got = theta_k_tree(TreeParams(L, x, seed), k)
                assert got == pytest.approx(expect, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("L", range(1, 7))
def test_theta_k_is_zero_at_x_one(L):
    # the root value 1 ties the leaves' value: no path is open, and every
    # Theta_k must agree with Theta = 0, also Theta_0 at L = 1
    for r in range(5):
        params = TreeParams(L, 1.0, derive_seed(SEED, r))
        assert sample_theta_tree(params) == 0
        assert [theta_k_tree(params, k) for k in range(L)] == [0.0] * L
    assert mc.tree_theta_k_batch(L, 1.0, L - 1, SEED, 5).tolist() == [0.0] * 5


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
    with pytest.raises(BudgetExceededError, match="node budget 50 exhausted"):
        tree_existence_mc(12, 0.0, 20, SEED, budget=50)


def _over_budget(L, x, n, budget):
    """Replicas in range(n) whose full walk exhausts `budget`."""
    over = set()
    for r in range(n):
        try:
            sample_theta_tree(TreeParams(L, x, derive_seed(SEED, r), budget))
        except BudgetExceededError:
            over.add(r)
    return over


def _beam_undecided(L, x, n):
    """Replicas in range(n) whose beam was cut and found no open path."""
    seeds = np.array([derive_seed(SEED, r) for r in range(n)], dtype=np.uint64)
    _, owner, cut = tree._walk(seeds, L, x, L - 1, tree.DEFAULT_NODE_BUDGET, tree._BEAM_WIDTH)
    return set(np.flatnonzero(cut & (np.bincount(owner, minlength=n) == 0)).tolist())


@pytest.mark.parametrize("threads", [1, 2])
def test_existence_budget_hit_on_one_replica_raises(threads):
    # the estimate never drops a realization: one over budget among 40 raises,
    # also from a worker process.  Replica 3 has no open path and a cut beam,
    # so only its full walk decides it; the other replicas over budget are
    # decided by their beams.
    L, x, n, budget = 10, 0.0, 40, 4000
    over = _over_budget(L, x, n, budget)
    assert len(over) > 1
    assert over & _beam_undecided(L, x, n) == {3}
    with pytest.raises(BudgetExceededError, match="node budget 4000 exhausted"):
        tree_existence_mc(L, x, n, SEED, budget=budget, threads=threads)


def test_existence_budget_charges_the_deciding_walk():
    # replica 26's full walk exceeds budget 10 000, but its beam finds an open
    # path within it, so the estimate is the unbudgeted one
    L, x, n, budget = 10, 0.0, 40, 10_000
    assert _over_budget(L, x, n, budget) == {26}
    assert 26 not in _beam_undecided(L, x, n)
    got = tree_existence_mc(L, x, n, SEED, budget=budget)
    assert got == tree_existence_mc(L, x, n, SEED)
    # replica 0's beam finds a path in exactly 1192 visits; its full walk
    # takes more
    assert _over_budget(L, x, 1, 1192) == {0}
    assert tree_existence_mc(L, x, 1, SEED, budget=1192).estimate == 1.0
    with pytest.raises(BudgetExceededError, match="node budget 1191 exhausted"):
        tree_existence_mc(L, x, 1, SEED, budget=1191)


def test_existence_mc_independent_of_threads():
    L, x = 9, 0.0
    n = 3 * tree._block_step(L, x) + 5
    one = tree_existence_mc(L, x, n, SEED, threads=1)
    assert one.budget_hits == 0 and 0 < one.estimate < 1
    assert tree_existence_mc(L, x, n, SEED, threads=2) == one
    loop = [sample_theta_tree(TreeParams(L, x, derive_seed(SEED, r))) > 0 for r in range(n)]
    assert one.estimate == sum(loop) / n


@given(
    L=st.integers(1, 12),
    x=st.one_of(st.sampled_from([0.0, 1.0, 1.0 - 2.0**-53]), st.floats(0.0, 1.0)),
    seed=st.integers(0, 2**64 - 1),
    blocks=st.integers(0, 2),
    extra=st.integers(1, 10**6),
)
@settings(max_examples=30, deadline=None)
def test_beam_first_existence_matches_full_walk(L, x, seed, blocks, extra):
    # a sample count that is no multiple of the beam's block size
    step = tree._block_step(L, x, tree._BEAM_WIDTH)
    n = blocks * step + 1 + extra % (step - 1)
    budget = tree.DEFAULT_NODE_BUDGET
    got = tree.block_chunk(
        tree.exists_block, bool, L, x, seed, (budget,), 0, n, width=tree._BEAM_WIDTH
    )
    assert got.tolist() == (mc.tree_theta_batch(L, x, seed, n) > 0).tolist()
    one = tree_existence_mc(L, x, n, seed, threads=1)
    assert one.estimate == np.count_nonzero(got) / n
    assert tree_existence_mc(L, x, n, seed, threads=2) == one


@pytest.mark.parametrize("master", [0, 11, 20260823, 2**64 - 1])
def test_derive_seed_on_a_uint64_range_matches_the_scalar_calls(master):
    # block_chunk derives a whole chunk's seeds in one array call
    for lo, hi in ((0, 5000), (2**64 - 10, 2**64)):
        got = derive_seed(master, np.arange(lo, hi, dtype=np.uint64))
        assert got.dtype == np.uint64
        assert got.tolist() == [derive_seed(master, r) for r in range(lo, hi)]


def test_theta_batch_thread_and_block_invariance():
    L, x = 8, 0.2
    step = tree._block_step(L, x)
    n = 2 * step + 37
    assert n % step != 0
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
