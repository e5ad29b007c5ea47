"""Lazily sampled tree: frontier engine, alive fronts, conditional expectations."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pathscape import mc, moments, stats, tree
from pathscape.rng import derive_seed, splitmix64, uniform_from_hash
from pathscape.tree import (
    BudgetExceededError,
    TreeParams,
    enumerate_tree_paths_oracle,
    sample_theta_tree,
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


@given(x=st.floats(0.0, 1.0))
@settings(max_examples=300, deadline=None)
@example(x=0.0)
@example(x=1.0)
@example(x=5e-324)
@example(x=1.0 - 2.0**-53)
@example(x=0.1)
@example(x=1 / 3)
@example(x=(math.log(12) + 1) / 12)
def test_root_threshold_matches_the_float_rule(x):
    # hashes at the rule's edges: top 53 bits 0, floor(x 2^53), one above it
    # and 2^53 - 1, each with its low 11 bits all 0 and all 1
    floor = int(x * 2.0**53)
    tops = [t for t in (0, floor, floor + 1, 2**53 - 1) if t < 2**53]
    hashes = [(t << 11) | low for t in tops for low in (0, 2047)]
    above = np.full(len(hashes), tree._root_threshold(x), dtype=np.uint64)
    got = np.array(hashes, dtype=np.uint64) > above
    assert got.tolist() == [(h >> 11) * 2.0**-53 > x for h in hashes]


@pytest.mark.parametrize("x", [0.0, 5 * 2.0**-53, 7.5 * 2.0**-53, 1.0])
def test_walk_closes_ties_at_every_level(monkeypatch, x):
    # With the identity for a hash, child c of digest d hashes to d + c + 1,
    # so children share their parent's top 53 bits, its value, unless they
    # cross a multiple of 2048: ties at every level, which the float rule
    # closes.  The reference replays that rule on Python ints.
    monkeypatch.setattr(tree, "_splitmix64", lambda z: z)
    L = 4
    seeds = [(top << 11) | low for top in (5, 7) for low in (0, 2045, 2047)]
    for depth in range(L):
        values, owner, _ = tree._walk(np.array(seeds, dtype=np.uint64), L, x, depth, 10**6)
        want = []
        for r, seed in enumerate(seeds):
            front = [(x, seed)]
            for level in range(depth):
                front = [
                    (uniform_from_hash(d + c + 1), d + c + 1)
                    for v, d in front
                    for c in range(L - level)
                    if uniform_from_hash(d + c + 1) > v
                ]
            want += [(v, r) for v, _ in front]
        assert list(zip(values.tolist(), owner.tolist())) == want, depth


def test_float_power_matches_python_pow():
    # theta_k_block's powers: pinned tree records were made with Python's **
    rng = np.random.default_rng(SEED)
    draws = rng.random(2048)
    bases = np.concatenate(
        [
            [0.0, 5e-324, 2.0**-1022, 0.5, 1.0 - 2.0**-53],
            draws,
            1.0 - draws,
            2.0 ** -rng.uniform(0.0, 1074.0, 1024),
        ]
    )
    for n in range(64):
        got = np.float_power(bases, n)
        want = np.array([b**n for b in bases.tolist()])
        assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist(), n


def _theta_k_by_enumeration(L: int, x: float, seed: int, k: int) -> float:
    """Independent reference for theta_k_tree: replay the open level-k
    prefixes one node at a time on Python ints, and add (L-k)(1-v)^(L-k-1)
    over their end values v in BFS order, skipping v = 1 (a tie with the
    leaves).  An explicit loop, not sum(): CPython >= 3.12 compensates
    sum() of floats, and this oracle must give the same bits on any version."""
    front = [(x, splitmix64(seed))]
    for level in range(k):
        front = [
            (uniform_from_hash(h), h)
            for v, d in front
            for h in (tree._child_hash(d, c) for c in range(L - level))
            if uniform_from_hash(h) > v
        ]
    acc = 0.0
    for v, _ in front:
        if v != 1.0:
            acc += (L - k) * (1.0 - v) ** (L - k - 1)
    return acc


@pytest.mark.parametrize("L", range(1, 8))
def test_theta_k_against_prefix_enumeration(L):
    for x in (0.0, 0.2, 0.5, 1.0):
        for r in range(6):
            seed = derive_seed(SEED, r)
            for k in range(L):
                expect = _theta_k_by_enumeration(L, x, seed, k)
                got = theta_k_tree(TreeParams(L, x, seed), k)
                assert got == expect, (L, x, r, k)


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


# Per-replica pins, recorded before the walker compared in integers and
# gathered by index.  Each existence set holds replicas that the beam decides
# (an open path found, or a beam never cut) and replicas that only the full
# walk decides.
@pytest.mark.parametrize(
    "L, x, n, digest",
    [
        (14, 0.0, 200, "92d4ba7f173824bfb2fca575b768be8de28f954267e7b7aa7fce3ffff74dfb04"),
        (
            12,
            (math.log(12) + 1) / 12,
            400,
            "cd22c8188371ed84a26570618c641ff155bebf7e516cf858525ccbddc6ab79b9",
        ),
    ],
)
def test_golden_existence_per_replica(master_seed, L, x, n, digest):
    budget = tree.DEFAULT_NODE_BUDGET
    got = tree.block_chunk(
        tree.exists_block, bool, L, x, master_seed, (budget,), 0, n, width=tree._BEAM_WIDTH
    )
    seeds = derive_seed(master_seed, np.arange(n, dtype=np.uint64))
    _, owner, cut = tree._walk(seeds, L, x, L - 1, budget, tree._BEAM_WIDTH)
    by_beam = np.bincount(owner, minlength=n) > 0
    by_full_walk = cut & ~by_beam
    assert by_beam.any() and by_full_walk.any() and got[by_full_walk].any()
    assert _digest(got) == digest


def test_golden_theta_k_batch_exponent_11(master_seed):
    vals = mc.tree_theta_k_batch(14, 0.1, 2, master_seed, 500)
    assert np.count_nonzero(vals) == 500
    assert _digest(vals) == "c3d2117bced79220e8e7a428c25dc9e637cc3a10ffb5059ffb02a4c2cc873f88"
