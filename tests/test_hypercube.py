"""Hypercube landscape generation and exact open-path counting."""

import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathscape import hypercube, mc, moments, stats
from pathscape.hypercube import (
    HypercubeLandscape,
    PathCountOverflowError,
    _level_dp,
    _level_tables,
    count_open_paths,
    generate_hypercube,
    path_exists,
    theta_k_hypercube,
)

from oracle_criteria import enumerate_paths_oracle

SEED = 919


def _masks_at_level(L: int, k: int) -> np.ndarray:
    """The level-k masks of the L-cube, ascending, by definition."""
    return np.flatnonzero(np.bitwise_count(np.arange(1 << L)) == k)


@pytest.mark.parametrize("L", range(1, 11))
def test_level_tables_against_definition(L):
    order, off, preds = _level_tables(L)
    prev = []
    for k in range(L + 1):
        level = [m for m in range(1 << L) if bin(m).count("1") == k]
        assert order[off[k] : off[k + 1]].tolist() == level
        pos = {m: i for i, m in enumerate(prev)}
        bits = [[b for b in range(L) if (m >> b) & 1] for m in level]
        expect = [[pos[m ^ (1 << mb[j])] for m, mb in zip(level, bits)] for j in range(k)]
        assert preds[k].dtype == np.intp
        assert preds[k].flags.c_contiguous
        assert preds[k].shape == (k, len(level))
        assert preds[k].tolist() == expect
        prev = level


def test_level_tables_hold_one_copy():
    L = 16
    order, _, preds = _level_tables(L)
    assert all(arr.base is None for arr in (order, *preds))
    assert order.nbytes + sum(t.nbytes for t in preds) == L * 2 ** (L - 1) * 8 + 2**L * 8


def test_cached_tables_are_read_only():
    # the caches hand the same arrays to every caller: a write through them
    # would change every later count or Theta_k of this landscape
    land = generate_hypercube(4, 0.0, SEED, replica=44)
    assert count_open_paths(land) == 12
    theta = theta_k_hypercube(land, 1)
    order, _, preds = _level_tables(4)
    for arr in (*hypercube._comparable_pairs(4, 1), order, *preds):
        with pytest.raises(ValueError):
            arr[...] = 0
    assert count_open_paths(land) == 12
    assert theta_k_hypercube(land, 1) == theta


def _landscape(fitness) -> HypercubeLandscape:
    arr = np.asarray(fitness, dtype=float)
    L = int(math.log2(len(arr)))
    return HypercubeLandscape(dim=L, origin_value=float(arr[0]), fitness=arr)


def test_hand_counted_two_cube():
    # interior values 0.3 (node 01) and 0.7 (node 10)
    assert count_open_paths(_landscape([0.0, 0.3, 0.7, 1.0])) == 2
    # raising the origin above 0.3 blocks one of the two orders
    assert count_open_paths(_landscape([0.5, 0.3, 0.7, 1.0])) == 1
    # origin above both interior values blocks everything
    assert count_open_paths(_landscape([0.9, 0.3, 0.7, 1.0])) == 0


def test_generation_contract():
    land = generate_hypercube(3, 0.5, seed=7)
    assert land.fitness[0] == 0.5
    assert land.fitness[-1] == 1.0
    assert ((land.fitness >= 0) & (land.fitness <= 1)).all()
    again = generate_hypercube(3, 0.5, seed=7)
    assert np.array_equal(land.fitness, again.fitness)
    other = generate_hypercube(3, 0.5, seed=8)
    assert not np.array_equal(land.fitness, other.fitness)


def test_generation_validation():
    with pytest.raises(ValueError):
        generate_hypercube(0, 0.0, seed=1)
    with pytest.raises(ValueError):
        generate_hypercube(30, 0.0, seed=1)
    with pytest.raises(ValueError):
        generate_hypercube(3, 1.5, seed=1)
    with pytest.raises(ValueError, match="2\\^dim"):
        HypercubeLandscape(3, 0.0, np.zeros(7))


@pytest.mark.parametrize("L", range(2, 8))
def test_oracle_equivalence(L):
    for r in range(30):
        land = generate_hypercube(L, 0.3 * (r % 3), SEED, replica=r)
        assert count_open_paths(land) == enumerate_paths_oracle(land)


@given(seed=st.integers(0, 2**32 - 1), L=st.integers(2, 6))
@settings(max_examples=40, deadline=None)
def test_oracle_equivalence_property(seed, L):
    land = generate_hypercube(L, 0.0, seed)
    assert count_open_paths(land) == enumerate_paths_oracle(land)


@given(
    seed=st.integers(0, 2**32 - 1),
    lo=st.floats(0.0, 0.98),
    hi=st.floats(0.0, 0.98),
)
@settings(max_examples=40, deadline=None)
def test_monotone_in_origin_value(seed, lo, hi):
    lo, hi = min(lo, hi), max(lo, hi)
    base = generate_hypercube(5, lo, seed)
    raised_fitness = base.fitness.copy()
    raised_fitness[0] = hi
    raised = _landscape(raised_fitness)
    assert count_open_paths(raised) <= count_open_paths(base)


def test_symmetry_under_coordinate_relabeling():
    L = 5
    for r in range(10):
        land = generate_hypercube(L, 0.1, SEED, replica=r)
        perm = np.random.default_rng(r).permutation(L)
        relabeled = np.empty_like(land.fitness)
        for mask in range(1 << L):
            new_mask = 0
            for b in range(L):
                if (mask >> b) & 1:
                    new_mask |= 1 << int(perm[b])
            relabeled[new_mask] = land.fitness[mask]
        assert count_open_paths(_landscape(relabeled)) == count_open_paths(land)


def _tied(land: HypercubeLandscape) -> HypercubeLandscape:
    """The landscape with its values rounded to quarters: many exact ties."""
    f = np.round(land.fitness * 4) / 4
    f[-1] = 1.0
    return _landscape(f)


def test_path_exists_matches_count():
    for r in range(50):
        land = generate_hypercube(6, 0.4, SEED, replica=r)
        assert path_exists(land) == (count_open_paths(land) > 0)
        tied = _tied(generate_hypercube(7, 0.0, SEED, replica=r))
        assert path_exists(tied) == (count_open_paths(tied) > 0)
        # nothing rises above an origin value of 1
        top = generate_hypercube(5, 1.0, SEED, replica=r)
        assert not path_exists(top)
        assert count_open_paths(top) == 0


def _paths_to_top_oracle(land: HypercubeLandscape, tau: int) -> int:
    """Open paths from tau up to 1...1, by trying every order of its 0 bits."""
    f = land.fitness
    zeros = [b for b in range(land.dim) if not (tau >> b) & 1]
    total = 0
    for order in itertools.permutations(zeros):
        mask = tau
        for bit in order:
            if not f[mask | (1 << bit)] > f[mask]:
                break
            mask |= 1 << bit
        else:
            total += 1
    return total


@pytest.mark.parametrize("L", range(2, 7))
def test_counts_from_top_against_enumeration(L):
    for r in range(6):
        raw = generate_hypercube(L, 0.2, SEED, replica=r)
        for land in (raw, _tied(raw)):
            for k in range(L + 1):
                counts = _level_dp(land.fitness, L, k, np.int64, reflect=True)
                for tau, m in zip(_masks_at_level(L, L - k).tolist(), counts.tolist()):
                    assert m == _paths_to_top_oracle(land, tau)


def test_level_counts_invariants():
    land = generate_hypercube(6, 0.2, SEED)
    assert _level_dp(land.fitness, 6, 0, np.int64).tolist() == [1]
    for k in range(1, 4):
        counts = _level_dp(land.fitness, 6, k, np.int64)
        assert (counts <= math.factorial(k)).all()
        assert (counts >= 0).all()
    assert _level_dp(land.fitness, 6, 0, np.int64, reflect=True).tolist() == [1]


def _theta_k_path_oracle(land: HypercubeLandscape, k: int) -> float:
    """Independent reference for theta_k_hypercube: enumerate all L! paths
    and add, for each, the probability that its unseen middle segment is
    increasing and consistent with the seen prefix/suffix endpoints:
    1(prefix open) * 1(suffix open) * gap^(L-2k-1)/(L-2k-1)! with
    gap = value(tau) - value(sigma)."""
    L = land.dim
    f = land.fitness
    n_mid = L - 2 * k - 1
    total = 0.0
    for order in itertools.permutations(range(L)):
        mask = 0
        prefix_vals = [f[0]]
        for bit in order[:k]:
            mask |= 1 << bit
            prefix_vals.append(f[mask])
        sigma_val = prefix_vals[-1]
        if any(b >= a for a, b in zip(prefix_vals[1:], prefix_vals)):
            continue
        full = (1 << L) - 1
        mask_top = full
        suffix_vals = [f[full]]
        for bit in order[::-1][:k]:
            mask_top ^= 1 << bit
            suffix_vals.append(f[mask_top])
        tau_val = suffix_vals[-1]
        if any(b <= a for a, b in zip(suffix_vals[1:], suffix_vals)):
            continue
        gap = tau_val - sigma_val
        if gap <= 0:  # a tie blocks the middle, also when it has no step
            continue
        total += gap**n_mid / math.factorial(n_mid)
    return total


@pytest.mark.parametrize("L,k", [(1, 0), (5, 1), (6, 1), (6, 2), (7, 2)])
def test_theta_k_against_path_enumeration(L, k):
    # x = 1 ties the origin with the top, the one middle of L = 1, k = 0
    for r, x in enumerate([0.15 * i for i in range(5)] + [1.0]):
        land = generate_hypercube(L, x, SEED, replica=r)
        expect = _theta_k_path_oracle(land, k)
        got = theta_k_hypercube(land, k)
        assert got == pytest.approx(expect, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("L", range(1, 7))
def test_theta_k_is_zero_at_x_one(L):
    # every path starts at value 1 and ends on 1: a tie, so none is open,
    # and Theta_k must agree with Theta = 0 for every valid k
    ks = range((L + 1) // 2)
    for r in range(5):
        land = generate_hypercube(L, 1.0, SEED, replica=r)
        assert count_open_paths(land) == 0
        assert [theta_k_hypercube(land, k) for k in ks] == [0.0] * len(ks)


def test_theta_k_tower_property():
    L, k, x, n = 10, 2, 0.0, 2000
    vals = np.array(
        [
            theta_k_hypercube(generate_hypercube(L, x, SEED, replica=r), k)
            for r in range(n)
        ]
    )
    summ = stats.moment_summary(stats.Sample.from_values(vals))
    target = moments.expected_paths(L, x)
    assert abs(summ.mean - target) <= 4 * summ.mean_stderr


def test_theta_mean_matches_closed_form(hypercube_thetas_10):
    summ = stats.moment_summary(stats.Sample.from_values(hypercube_thetas_10))
    target = moments.expected_paths(10, 0.1)
    assert abs(summ.mean - target) <= 4 * summ.mean_stderr


def test_theta_k_domain():
    land = generate_hypercube(6, 0.0, SEED)
    with pytest.raises(ValueError):
        theta_k_hypercube(land, 3)  # needs 2k < L
    with pytest.raises(ValueError):
        theta_k_hypercube(land, -1)


def test_oracle_dim_cap():
    with pytest.raises(ValueError):
        enumerate_paths_oracle(generate_hypercube(9, 0.0, SEED))


def test_sorted_by_level_gives_all_paths_open():
    # all level-1 values below all level-2 values, increasing along levels
    L = 3
    f = np.array([0.0, 0.1, 0.12, 0.5, 0.14, 0.6, 0.7, 1.0])
    assert count_open_paths(_landscape(f)) == 6


def _digest(values) -> str:
    return hashlib.sha256(np.ascontiguousarray(values).tobytes()).hexdigest()


# Digests recorded from the separate top-corner DP (np.add.at scatter) that
# preceded the reflected-cube call; seeded output must stay bit-exact.
def test_golden_theta_k_batch(master_seed):
    vals = mc.hypercube_theta_k_batch(12, 0.1, 3, master_seed, 300)
    assert vals.dtype == np.float64
    assert _digest(vals) == "66074e53ccfb2307502e7dcdb092ea3508c450b483ccd2356c2d148a9e1cd3a9"


def test_golden_counts_from_top(master_seed):
    h = hashlib.sha256()
    for L in range(2, 11):
        land = generate_hypercube(L, 0.1, master_seed, replica=L)
        for k in range(L + 1):
            counts = _level_dp(land.fitness, L, k, np.int64, reflect=True)
            assert counts.dtype == np.int64
            h.update(np.ascontiguousarray(counts).tobytes())
    assert h.hexdigest() == "770cf484ecc4b145b377f8f0943e71d8ebc1067c6eca9b26cb80515a60fa4998"


def test_exists_batch_matches_theta_batch():
    hits = mc.hypercube_exists_batch(8, 0.05, SEED, 60)
    assert hits.dtype == bool
    assert np.array_equal(hits, mc.hypercube_theta_batch(8, 0.05, SEED, 60) > 0)


# Digests recorded from the per-bit predecessor tables (`_preds` built by
# nonzero/scatter over a rank lookup) that preceded the level-ordered tables.
def test_golden_theta_batch_L16(master_seed):
    vals = mc.hypercube_theta_batch(16, 1 / 16, master_seed, 80)
    assert vals.dtype == np.int64
    assert _digest(vals) == "691f2feea8976581d96b3a86caeba4e65953d6aa22ba57cf2aa252e5c754bd3d"


def test_golden_exists_batch_L16(master_seed):
    hits = mc.hypercube_exists_batch(16, 1 / 16, master_seed, 40)
    assert hits.dtype == bool
    assert _digest(hits) == "8400a5b7718355bc47d9c0ad01962a329a18c31f97763f3211040c4ba500a92f"


def test_golden_count_L20(master_seed):
    counts = [
        count_open_paths(generate_hypercube(20, 1 / 20, master_seed, replica=r))
        for r in range(2)
    ]
    assert counts == [24, 0]


def test_golden_counts_from_origin(master_seed):
    h = hashlib.sha256()
    for L in range(2, 11):
        land = generate_hypercube(L, 0.1, master_seed, replica=L)
        for k in range(L + 1):
            masks, counts = _masks_at_level(L, k), _level_dp(land.fitness, L, k, np.int64)
            assert masks.dtype == np.int64
            assert counts.dtype == np.int64
            h.update(np.ascontiguousarray(masks).tobytes())
            h.update(np.ascontiguousarray(counts).tobytes())
    assert h.hexdigest() == "86bc18cf4ee00ca51d534f0497c242c35895be35821a11da87daed673f9faf2a"


def _fully_open(L: int) -> HypercubeLandscape:
    """Every path open: the value of a node is its level / (L + 1)."""
    fitness = np.bitwise_count(np.arange(1 << L)) / (L + 1)
    return HypercubeLandscape(dim=L, origin_value=0.0, fitness=fitness)


def test_overflow_guard_starts_at_level_21():
    # counts reach k! at level k; 20! fits in int64 and 21! does not
    assert count_open_paths(_fully_open(20)) == math.factorial(20)
    with pytest.raises(PathCountOverflowError, match="level 21"):
        count_open_paths(_fully_open(21))
    # above the tile dimension too: rows one bit below feed level 21 first
    with pytest.raises(PathCountOverflowError, match="level 21"):
        count_open_paths(_fully_open(22))


def test_overflow_guard_passes_random_cube_at_dim_21():
    land = generate_hypercube(21, 1 / 21, SEED)
    count = count_open_paths(land)
    assert count >= 0
    assert path_exists(land) == (count > 0)


def _dp_by_levels(f: np.ndarray, L: int, dtype, up: bool = True) -> list:
    """Level-by-level DP on the whole cube, no tiles: per level k, masks
    ascending, the open paths (int64) or reach (bool) from 0...0 into each
    node (`up`), or from each node on level L - k to 1...1.  A predecessor
    is the node with one set bit cleared; ties block."""
    level = np.bitwise_count(np.arange(1 << L))
    masks = [np.flatnonzero(level == k) for k in range(L + 1)]
    n = np.zeros(1 << L, dtype)
    n[0 if up else -1] = 1
    for k in range(1, L + 1) if up else range(L - 1, -1, -1):
        for b in range(L):
            node = masks[k][(masks[k] >> b & 1) == up]
            other = node ^ (1 << b)  # the predecessor (up) or successor
            lo, hi = (other, node) if up else (node, other)
            n[node] += n[other] * (f[lo] < f[hi])
    return [n[m] for m in (masks if up else masks[::-1])]


def test_overflow_guard_names_the_lowest_overflowing_level(monkeypatch):
    # with 4-node tiles and thresholds taken from the level maxima, the
    # guard must name the lowest level k with max(level k - 1) > max // k;
    # at L = 10, seed 51 a row of level 5 overflows before any row of level
    # 4 is finished, so a row-by-row check names the wrong level
    monkeypatch.setattr(hypercube, "_TILE_DIM", 2)
    monkeypatch.setattr(hypercube, "_GUARD_FROM_LEVEL", 2)
    for L, seed in itertools.product(range(5, 11), range(44, 60)):
        rng = np.random.default_rng(seed)
        f = rng.random(1 << L) ** 0.5 * 0.3 + np.bitwise_count(np.arange(1 << L)) / (L + 1)
        lv = [int(n.max()) for n in _dp_by_levels(f, L, np.int64)]
        for top in (lv[k - 1] * k for k in range(2, L + 1)):
            monkeypatch.setattr(hypercube, "_I64_MAX", top)
            lowest = next((k for k in range(2, L + 1) if lv[k - 1] > top // k), None)
            if lowest is None:
                assert count_open_paths(_landscape(f)) == lv[L]
            else:
                with pytest.raises(PathCountOverflowError, match=f"at level {lowest}$"):
                    count_open_paths(_landscape(f))


@pytest.mark.parametrize("L", [17, 18])
def test_multi_row_tiles_against_a_level_by_level_dp(L):
    # two and four rows of 16-cube tiles, checked against the DP without tiles
    raw = generate_hypercube(L, 1 / L, SEED, replica=L)
    for land in (raw, _tied(raw)):
        f = land.fitness
        up, down = _dp_by_levels(f, L, np.int64), _dp_by_levels(f, L, np.int64, up=False)
        reach = _dp_by_levels(f, L, bool)
        for k in range(L + 1):
            assert np.array_equal(_level_dp(f, L, k, np.int64), up[k])
            assert np.array_equal(_level_dp(f, L, k, np.int64, reflect=True), down[k])
            assert np.array_equal(_level_dp(f, L, k, bool), reach[k])


def test_level_masks_above_tile_dim_match_definition(monkeypatch):
    # the corner masks of the pair table, built from the tile split alone:
    # no table of the 17-cube; k = 8 spans every row, and the pair tables of
    # k = 4 to 7 would each hold tens of MB in the cache
    L = 17
    dims, built = [], hypercube._level_tables

    def tables(d):
        dims.append(d)
        return built(d)

    monkeypatch.setattr(hypercube, "_level_tables", tables)
    hypercube._level_layout.cache_clear()
    hypercube._comparable_pairs.cache_clear()
    try:
        for k in (0, 1, 2, 3, 8):
            sig, tau, *_ = hypercube._comparable_pairs(L, k)
            assert sig.dtype == tau.dtype == np.int64
            assert np.array_equal(sig, _masks_at_level(L, k))
            assert np.array_equal(tau, _masks_at_level(L, L - k))
    finally:
        hypercube._comparable_pairs.cache_clear()
    assert set(dims) == {hypercube._TILE_DIM}


@pytest.mark.parametrize("tile_dim", [1, 2, 3, 5, 10])
def test_tile_dims_leave_results_unchanged(monkeypatch, tile_dim):
    # one row per node (1), many rows of small tiles, and tile_dim >= L (10);
    # unpatched, every cube here is one tile
    lands = []
    for L in range(1, 11):
        raw = generate_hypercube(L, 0.1, SEED, replica=L)
        lands += [raw, _tied(raw)]

    def levels(land):
        # and Theta_k's corner masks sigma and tau, where 2k < L
        f, L = land.fitness, land.dim
        return [
            (
                _level_dp(f, L, k, np.int64),
                _level_dp(f, L, k, np.int64, reflect=True),
                _level_dp(f, L, k, bool),
                *(hypercube._comparable_pairs(L, k)[:2] if 2 * k < L else ()),
            )
            for k in range(L + 1)
        ]

    expect = [levels(land) for land in lands]
    monkeypatch.setattr(hypercube, "_TILE_DIM", tile_dim)
    hypercube._comparable_pairs.cache_clear()  # else it hands back the pairs built above
    for land, want in zip(lands, expect):
        for got, ref in zip(levels(land), want, strict=True):
            n, m, reached, *corners = got
            assert all(a.dtype == np.int64 for a in (n, m, *corners))
            assert reached.dtype == bool
            assert np.array_equal(reached, ref[0] > 0)
            for a, b in zip(got, ref, strict=True):
                assert np.array_equal(a, b)
        assert path_exists(land) == (count_open_paths(land) > 0)


def test_level_dp_working_set_is_bounded():
    # cold calls, tables included: the 16-cube tables, the two live levels
    # of values and counts, one tile level's gathers, and the result, a view
    # of the last level's counts that keeps them alive
    d = hypercube._TILE_DIM
    _level_tables.cache_clear()
    order, _, preds = _level_tables(d)
    tables = order.nbytes + sum(t.nbytes for t in preds)
    gathers = max(t.size for t in preds) * (8 + 1 + 8)
    for land in (_fully_open(20), generate_hypercube(22, 1 / 22, SEED)):
        L = land.dim
        bound = 4 * 8 * math.comb(L, L // 2) + gathers + tables
        calls = (
            (lambda: count_open_paths(land), 0),
            (lambda: path_exists(land), 0),
            (
                lambda: _level_dp(land.fitness, L, L // 2, np.int64, reflect=True),
                8 * math.comb(L, L // 2),
            ),
            (lambda: theta_k_hypercube(land, 1), 0),
        )
        for call, result in calls:
            _level_tables.cache_clear()
            hypercube._level_layout.cache_clear()
            hypercube._comparable_pairs.cache_clear()
            tracemalloc.start()
            try:
                call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= bound + result


def _stacked(lands) -> np.ndarray:
    """The (2^L, R) array of R landscapes, one per column."""
    return np.stack([land.fitness for land in lands], axis=1)


@pytest.mark.parametrize("tile_dim", [hypercube._TILE_DIM, 3])
def test_level_dp_on_stacked_landscapes_matches_one_at_a_time(monkeypatch, tile_dim):
    # a tile dimension of 3 sends most of these cubes through the rows below
    monkeypatch.setattr(hypercube, "_TILE_DIM", tile_dim)
    for L in range(1, 9):
        raw = [generate_hypercube(L, 0.1 * (r % 3), SEED, replica=r) for r in range(4)]
        lands = raw + [_tied(land) for land in raw]
        f = _stacked(lands)
        for k in range(L + 1):
            for dtype, reflect in itertools.product((np.int64, bool), (False, True)):
                got = _level_dp(f, L, k, dtype, reflect=reflect)
                assert got.dtype == dtype
                expect = [_level_dp(g.fitness, L, k, dtype, reflect) for g in lands]
                assert np.array_equal(got, np.stack(expect, axis=1))


@pytest.mark.parametrize("x", [0.0, 0.1, 1.0])
def test_batched_driver_matches_one_landscape_at_a_time(monkeypatch, x):
    # R = 3 landscapes per DP call, 7 replicas from replica 5 on: two full
    # batches and a short one, keyed from a chunk start other than 0
    for L in range(1, hypercube._BATCH_MAX_DIM + 1):
        monkeypatch.setattr(hypercube, "_BATCH_VALUES", 3 << L)
        lands = [generate_hypercube(L, x, SEED, replica=r) for r in range(5, 12)]
        counts = hypercube.count_chunk(np.int64, L, x, SEED, 5, 12)
        hits = hypercube.count_chunk(bool, L, x, SEED, 5, 12)
        assert counts.tolist() == [count_open_paths(land) for land in lands]
        assert hits.tolist() == [path_exists(land) for land in lands]


def test_batch_size_and_crossover_leave_batches_unchanged():
    # at the module's own R (32 at L = 12, 4 at L = 15) and one landscape per
    # call above the crossover
    for L, n in ((12, 37), (15, 6), (16, 3)):
        lands = [generate_hypercube(L, 1 / L, SEED, replica=r) for r in range(n)]
        assert mc.hypercube_theta_batch(L, 1 / L, SEED, n).tolist() == [
            count_open_paths(land) for land in lands
        ]
        assert mc.hypercube_exists_batch(L, 1 / L, SEED, n).tolist() == [
            path_exists(land) for land in lands
        ]


@pytest.mark.parametrize("L", [8, 12, 16])
def test_batches_independent_of_threads(L):
    # batched (L <= 15): two chunks of 29 and 30 replicas, neither starting or
    # ending on a batch edge; one landscape per call (L = 16): chunks of 2 and 3
    n = 59 if L <= hypercube._BATCH_MAX_DIM else 5
    for batch in (mc.hypercube_theta_batch, mc.hypercube_exists_batch):
        assert np.array_equal(batch(L, 0.1, SEED, n, threads=1), batch(L, 0.1, SEED, n, threads=2))
    one = mc.hypercube_theta_k_batch(L, 0.1, 3, SEED, n, threads=1)
    assert np.array_equal(one, mc.hypercube_theta_k_batch(L, 0.1, 3, SEED, n, threads=2))


@pytest.mark.parametrize("L", [-1, 0, 25])
def test_batch_drivers_refuse_a_dim_out_of_range(L):
    # the refusal comes before any landscape is sized: at L = 25 one
    # landscape would take 256 MiB, and the refusal stays below 1 MiB
    batches = (
        mc.hypercube_theta_batch,
        mc.hypercube_exists_batch,
        lambda L, x, seed, n: mc.hypercube_theta_k_batch(L, x, 1, seed, n),
    )
    for batch in batches:
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"dim must be in \[1, 24\]"):
                batch(L, 0.1, SEED, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def test_theta_k_takes_its_weight_matrix_first(monkeypatch):
    # a matrix too large to allocate fails before the DPs and the pair tables
    def no_room(*args, **kwargs):
        raise MemoryError("Unable to allocate the weight matrix")

    def never(*args, **kwargs):
        raise AssertionError("called before the weight matrix")

    land = generate_hypercube(9, 0.1, SEED, replica=1)
    monkeypatch.setattr(hypercube, "_level_dp", never)
    monkeypatch.setattr(hypercube, "_comparable_pairs", never)
    monkeypatch.setattr(np, "zeros", no_room)
    with pytest.raises(MemoryError, match="weight matrix"):
        theta_k_hypercube(land, 3)


@pytest.mark.parametrize("L", [8, 12])
def test_batched_driver_working_set_is_bounded(L):
    # cold tables: the draws of 2^17 values and their transpose, two levels
    # of values and counts and the largest tile level's gathers for
    # R = 2^17 >> L landscapes, whatever the sample count, and 128 KB for
    # numpy's casting buffers; a first batch imports numpy.random untraced
    R = 2**17 >> L
    mc.hypercube_theta_batch(L, 0.1, SEED, 1)
    _level_tables.cache_clear()
    order, _, preds = _level_tables(L)
    tables = order.nbytes + sum(t.nbytes for t in preds)
    gathers = max(t.size for t in preds) * R * (8 + 1 + 8)
    bound = 2 * 8 * 2**17 + 4 * 8 * math.comb(L, L // 2) * R + gathers + tables + 2**17
    _level_tables.cache_clear()
    tracemalloc.start()
    try:
        mc.hypercube_theta_batch(L, 0.1, SEED, 3 * R + 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound


def test_batches_reuse_their_arrays():
    # warm, 16 batches of R = 512 landscapes at L = 8: the draws, their
    # transpose and the two levels are sized once per chunk, so fresh pages
    # stay well below one per landscape (about 1 each with fresh levels)
    resource = pytest.importorskip("resource")
    L = 8
    n = 16 * (2**17 >> L)
    hypercube.count_chunk(np.int64, L, 0.1, SEED, 0, n)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    hypercube.count_chunk(np.int64, L, 0.1, SEED, 0, n)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults < 0.4 * n


def test_landscape_chunk_holds_one_landscape_at_a_time():
    # each landscape is freed before the next one is drawn
    L = 16
    tracemalloc.start()
    try:
        hypercube.landscape_chunk(lambda land: 0.0, np.float64, L, 0.1, SEED, (), 0, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 8 * 2**L


def test_counts_to_top_does_not_copy_the_cube():
    # warm tables, k = 1: both corners gather a few values per row, and the
    # top corner reads the reflected cube through a reversed view of f
    L = 20
    f = _fully_open(L).fitness
    for reflect in (False, True):
        _level_dp(f, L, 1, np.int64, reflect)
        tracemalloc.start()
        try:
            _level_dp(f, L, 1, np.int64, reflect)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < f.nbytes // 64, f"reflect={reflect}"
