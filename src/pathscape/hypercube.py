"""House-of-Cards landscapes on {0,1}^L and exact open-path counting.

Nodes are bitmask integers; the level of a node is its popcount.  A path
goes from 0...0 (value x) to 1...1 (value 1) flipping one 0 into a 1 per
step, and is *open* when the node values strictly increase along it.
Counting is a level-by-level dynamic program: the number of open paths
into a node is the sum over its one-bit-lower predecessors with strictly
smaller value.  It runs on 16-cube tiles: the low d = min(L, 16) bits of a
node are its place in a tile, the high L - d bits its row; one cached
level-order table set of the d-cube (4.5 MB at d = 16 whatever L) gives
the predecessors within a tile.  The DP goes one global level at a time,
holding two levels of values and counts, 8 * C(L, L // 2) bytes each at
most.  Counts to the top corner run it on the reflected cube, existence
on booleans.

Two replica chunk loops serve the batches in `mc`, each over one re-keyed
Philox generator: `landscape_chunk`, one fresh landscape at a time, and
`count_chunk`, batched up to L = _BATCH_MAX_DIM over four reused arrays.

Ties in fitness are treated as blocking (strict inequality), a
probability-zero event under the continuous model but deterministic.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

import numpy as np

from .rng import philox_replicas, philox_stream

DEFAULT_DIM_CAP = 24

# int64 head-room guard for the DP: before summing the k predecessor
# counts of a level-k node, the previous level's max must leave room for
# the sum.  A level-k count is at most k! (induction: k predecessors, each
# at most (k-1)!), and 20! < 2^63, so for k <= 20 the previous max is at
# most (k-1)! <= _I64_MAX // k and the guard cannot fire: it runs from
# level 21 on.
_I64_MAX = (1 << 63) - 1
_GUARD_FROM_LEVEL = 21

# Tile dimension of the level DP: only the tables of this cube are built,
# and one tile level gathers at most 8 * C(16, 8) = 102 960 table entries.
_TILE_DIM = 16

# Values per batched DP call of count_chunk: R = _BATCH_VALUES >> L
# landscapes.  Batches stop at L = 15 (R = 4): at L = 16 (R = 2) one costs
# more CPU than one landscape per call.
_BATCH_VALUES = 1 << 17
_BATCH_MAX_DIM = 15


class PathCountOverflowError(OverflowError):
    """Open-path count would exceed the checked 64-bit range."""


@dataclass(frozen=True)
class HypercubeLandscape:
    """Fitness values on {0,1}^L, indexed by bitmask.

    fitness[0] == origin_value, fitness[2^L - 1] == 1.0 exactly; interior
    values are i.i.d. uniform draws assigned in ascending bitmask order.
    """

    dim: int
    origin_value: float
    fitness: np.ndarray

    def __post_init__(self):
        if self.fitness.shape != (1 << self.dim,):
            raise ValueError("fitness array size must be 2^dim")


def _check_params(L: int, x: float) -> None:
    if not 1 <= L <= DEFAULT_DIM_CAP:
        raise ValueError(f"dim must be in [1, {DEFAULT_DIM_CAP}], got {L}")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must be in [0, 1], got {x}")


def generate_hypercube(L: int, x: float, seed: int, replica: int = 0) -> HypercubeLandscape:
    """Draw a seeded landscape; same (L, x, seed, replica) is bit-exact."""
    _check_params(L, x)
    fitness = draw_landscapes(x, (philox_stream(seed, replica),), np.empty((1, 1 << L)))[0]
    fitness.setflags(write=False)
    return HypercubeLandscape(dim=L, origin_value=x, fitness=fitness)


def draw_landscapes(x: float, rngs: Iterable, draws: np.ndarray) -> np.ndarray:
    """Fill row i of the (m, 2^L) `draws` from the next generator of `rngs`:
    2^L uniforms in ascending bitmask order, then the two corners set.
    Returns `draws`; callers check (L, x) before they size it."""
    for row, rng in zip(draws, rngs):
        rng.random(out=row)
    draws[:, 0] = x
    draws[:, -1] = 1.0
    return draws


@lru_cache(maxsize=4)
def _level_tables(L: int):
    """Node ids in level order, level offsets and predecessor tables.

    ``order[off[k]:off[k + 1]]`` are the level-k masks, ascending; row j of
    the C-contiguous (k, C(L, k)) table ``preds[k]`` holds the position in
    level k-1 of each of them with its j-th lowest set bit cleared.  Pascal
    recursion: level k of the (h+1)-cube is level k of the h-cube, then
    level k-1 of the h-cube with bit h set, so the block of nodes with top
    bit h is filled from a prefix of the finished level k-1 and no table is
    built twice.  All arrays are read-only: the cache shares them.
    """
    off = (0, *itertools.accumulate(math.comb(L, k) for k in range(L + 1)))
    order = np.zeros(1 << L, dtype=np.int64)
    preds = [np.empty((0, 1), dtype=np.intp)]
    for k in range(1, L + 1):
        prev, cur = order[off[k - 1] : off[k]], order[off[k] : off[k + 1]]
        t = np.empty((k, len(cur)), dtype=np.intp)
        for h in range(k - 1, L):
            b = math.comb(h, k - 1)  # level k-1 nodes below bit h
            block = slice(math.comb(h, k), math.comb(h + 1, k))
            np.add(prev[:b], 1 << h, out=cur[block])
            np.add(preds[k - 1][:, :b], b, out=t[: k - 1, block])
            t[k - 1, block] = np.arange(b)
        preds.append(t)
    for arr in (order, *preds):
        arr.setflags(write=False)
    return order, off, tuple(preds)


@lru_cache(maxsize=8)
def _level_layout(L: int, d: int) -> tuple:
    """Level by level, where the nodes of the L-cube in d-cube tiles sit.

    Node (r << d) | c is on level popcount(r) + popcount(c), so level k is,
    rows r ascending, tile level t = k - popcount(r) of each row with
    0 <= t <= d.  Entry k lists (r, t, cols, here, below) per row: the
    masks of tile level t ascending, and (read by the reflected tile of
    _level_dp) of tile level d - t descending; the slice of level k they
    fill; the rows one bit below."""
    order, off, _ = _level_tables(d)
    tile = [order[off[t] : off[t + 1]] for t in range(d + 1)]
    cols = [(tile[t], tile[d - t][::-1]) for t in range(d + 1)]
    levels = []
    for k in range(L + 1):
        segs, start = [], 0
        for r in range(1 << (L - d)):
            t = k - r.bit_count()
            if 0 <= t <= d:
                below = tuple(r ^ 1 << b for b in range(L - d) if r >> b & 1)
                here = slice(start, start := start + off[t + 1] - off[t])
                segs.append((r, t, cols[t], here, below))
        levels.append(tuple(segs))
    return tuple(levels)


def _level_dp(
    f: np.ndarray, L: int, k_max: int, dtype, reflect: bool = False, levels: tuple | None = None
) -> np.ndarray:
    """The level DP from 0...0 to the level-k_max nodes, masks ascending.

    In int64 it gives the open-prefix counts n_sigma; in bool, where sum
    is logical or, whether an open prefix reaches each node.  An edge is
    open when the value strictly increases along it; ties block.  Level by
    level, each segment of _level_layout (d = min(L, _TILE_DIM)) gathers
    its values from the landscape into the level-k buffers, sums its tile
    predecessors, then adds the same tile nodes of the rows below element
    by element, both read from the level-(k-1) buffers: sums exact in any
    order.  Before the level-k sums, level k - 1 is checked against
    _I64_MAX // k from level 21 on: a landscape raises exactly when, and
    at the level where, the level-by-level DP would.

    `f` of shape (2^L, R) holds R landscapes, one per column: every array
    of the DP then carries that trailing replica axis, and the result is
    (C(L, k_max), R).

    With `reflect`, the result is the counts m_tau of open paths from each
    level-(L - k_max) node tau up to 1...1, masks ascending.  Reversing a
    path and negating every value maps these onto the DP from 0...0 on the
    reflected cube g[mask] = -f[full ^ mask].  Since full ^ mask =
    full - mask, the reflection reverses the index order, both of f and of
    each level: row i, tile node c of g is row rows - 1 - i, tile node
    2^d - 1 - c of f, gathered and negated in place, with no copy of the
    cube, and the last level is reversed back.  Negation is exact, so g
    has exactly the ties of f (1 - f would round).

    The two levels, values and counts of shape (2, widest level, *tail),
    are fresh unless a batch loop passes them as `levels`.  The gathers are
    fresh arrays, freed segment by segment so the allocator reuses their
    memory: numpy indexing on one value per node, `take` on a batch's rows
    of R values, the faster on each.  The result is a view of the counts.
    """
    d = min(L, _TILE_DIM)
    preds = _level_tables(d)[2]
    tail = f.shape[1:]  # the replica axis of a batch, else ()
    rows = list(f.reshape(-1, 1 << d, *tail)[:: -1 if reflect else 1])
    shape = (2, math.comb(L, min(k_max, L // 2)), *tail)  # the widest level
    V, N = levels or (np.empty(shape), np.empty(shape, dtype))
    cur = {}
    for k, segs in enumerate(_level_layout(L, d)[: k_max + 1]):
        # nk is still the finished level k - 1
        if k >= _GUARD_FROM_LEVEL and nk[: math.comb(L, k - 1)].max() > _I64_MAX // k:
            raise PathCountOverflowError(f"path count overflow at level {k}")
        vk, nk = V[k & 1], N[k & 1]
        prev, cur = cur, {}  # row -> its values and counts on level k - 1, k
        for r, t, cols, here, below in segs:
            fh, nh = cur[r] = vk[here], nk[here]
            rows[r].take(cols[reflect], 0, fh, "clip")  # cols[True]: reflected
            if reflect:
                np.negative(fh, out=fh)
            if t:
                fb, nb = prev[r]
                if tail:  # rows of R values, by take
                    is_open = fb.take(preds[t], 0, mode="clip") < fh
                    c = nb.take(preds[t], 0, mode="clip")
                else:  # one value per node, by numpy indexing
                    is_open = fb[preds[t]] < fh
                    c = nb[preds[t]]
                c *= is_open
                np.add.reduce(c, 0, dtype, nh)
                del is_open, c  # the next gathers reuse their memory, no fresh pages
            else:  # a row's tile origin: only the rows below feed it
                nh[...] = k == 0
            for q in below:
                fb, nb = prev[q]
                nh += nb * (fb < fh)
    return nk[: math.comb(L, k_max)][:: -1 if reflect else 1]


def count_open_paths(land: HypercubeLandscape) -> int:
    """Exact number of open paths from 0...0 to 1...1 (checked 64-bit)."""
    return int(_level_dp(land.fitness, land.dim, land.dim, np.int64)[0])


def path_exists(land: HypercubeLandscape) -> bool:
    """True iff an open path exists: the DP on booleans, which cannot overflow."""
    return bool(_level_dp(land.fitness, land.dim, land.dim, bool)[0])


def landscape_chunk(fn, dtype, L, x, seed, args, start, stop) -> np.ndarray:
    """fn(landscape, *args) for each replica in range(start, stop): one
    Philox generator re-keyed per replica, each landscape a fresh array."""
    _check_params(L, x)
    out = np.empty(stop - start, dtype=dtype)
    rngs = philox_replicas(seed, start, stop)
    for i in range(len(out)):
        fitness = draw_landscapes(x, rngs, np.empty((1, 1 << L)))[0]
        out[i] = fn(HypercubeLandscape(L, x, fitness), *args)
        del fitness  # before the next draw: one landscape in memory at a time
    return out


def count_chunk(dtype, L, x, seed, start, stop) -> np.ndarray:
    """Open-path counts (int64) or existence (bool) for each replica in
    range(start, stop).

    Up to _BATCH_MAX_DIM, one level DP runs R = _BATCH_VALUES >> L
    landscapes, transposed into a (2^L, R) array with a column each; the
    counts are exact integers, so summing R at a time changes nothing.
    The draws, their transpose and the DP's two levels are sized once; a
    batch of m uses the first m / R of each.  Larger cubes go one landscape
    at a time through count_open_paths or path_exists.
    """
    _check_params(L, x)
    if L > _BATCH_MAX_DIM:
        fn = count_open_paths if dtype is np.int64 else path_exists
        return landscape_chunk(fn, dtype, L, x, seed, (), start, stop)
    out = np.empty(stop - start, dtype=dtype)
    rngs = philox_replicas(seed, start, stop)
    R = _BATCH_VALUES >> L
    n, w = min(R, len(out)), math.comb(L, L // 2)  # the largest batch, the widest level
    draws, batch = np.empty(n << L), np.empty(n << L)
    values, counts = np.empty(2 * w * n), np.empty(2 * w * n, dtype)
    for i in range(0, len(out), R):
        m = min(R, len(out) - i)
        f = batch[: m << L].reshape(1 << L, m)
        np.copyto(f, draw_landscapes(x, rngs, draws[: m << L].reshape(m, 1 << L)).T)
        levels = values[: 2 * w * m].reshape(2, w, m), counts[: 2 * w * m].reshape(2, w, m)
        out[i : i + m] = _level_dp(f, L, L, dtype, levels=levels)[0]
    return out


@lru_cache(maxsize=8)
def _comparable_pairs(L: int, k: int) -> tuple[np.ndarray, ...]:
    """Theta_k's corner masks and comparable pairs: (sig, tau, flat, col).

    sig and tau are the level-k and level-(L - k) masks, ascending, in
    int64, read off the rows of _level_layout (d = min(L, _TILE_DIM)), so
    no table of a cube above the tile is built.  Row i of flat and col
    lists, ascending, the supersets tau_j of sigma_i, C(L - k, k) of them:
    their position i * C(L, k) + j in the (C(L, k), C(L, k)) matrix, and
    their column j.  Read-only: the cache shares them.
    """
    d = min(L, _TILE_DIM)
    sig, tau = (
        np.concatenate([(r << d) | cols[0] for r, _, cols, *_ in _level_layout(L, d)[j]])
        for j in (k, L - k)
    )
    not_tau = ~tau
    col = np.stack([np.flatnonzero((s & not_tau) == 0) for s in sig])
    flat = col + np.arange(0, len(sig) ** 2, len(sig))[:, None]
    for arr in (sig, tau, flat, col):
        arr.setflags(write=False)
    return sig, tau, flat, col


def theta_k_hypercube(land: HypercubeLandscape, k: int) -> float:
    """Conditional expectation of the path count given the first k levels
    seen from both corners.

    Sums n_sigma * m_tau * (L-2k) * (1 - y_tau - x_sigma)^(L-2k-1) over
    comparable pairs (sigma subset of tau) with x_sigma + y_tau < 1,
    where y_tau = 1 - value(tau).  The weight matrix is a fresh zero
    matrix, allocated first, so that one too large to allocate fails
    before the DPs and the pair tables run.
    """
    L = land.dim
    if not 0 <= 2 * k < L:
        raise ValueError(f"k must be in [0, {(L - 1) // 2}] (2k < dim), got {k}")
    w = np.zeros((math.comb(L, k),) * 2)
    n = _level_dp(land.fitness, L, k, np.int64).astype(float)
    m = _level_dp(land.fitness, L, k, np.int64, reflect=True).astype(float)
    sig, tau, flat, col = _comparable_pairs(L, k)
    xs = land.fitness[sig]
    ys = 1.0 - land.fitness[tau]
    base = (1.0 - xs)[:, None] - ys[col]
    # a tie blocks: base 0 weighs 0, also at exponent 0
    ok = np.flatnonzero(base > 0.0)
    w.ravel()[flat.ravel()[ok]] = (L - 2 * k) * base.ravel()[ok] ** (L - 2 * k - 1)
    return float(n @ w @ m)

