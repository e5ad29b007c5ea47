"""House-of-Cards landscapes on {0,1}^L and exact open-path counting.

Nodes are bitmask integers; the level of a node is its popcount.  A path
goes from 0...0 (value x) to 1...1 (value 1) flipping one 0 into a 1 per
step, and is *open* when the node values strictly increase along it.
Counting is a level-by-level dynamic program: the number of open paths
into a node is the sum over its one-bit-lower predecessors with strictly
smaller value.  It runs on the values gathered once into level order,
with one cached, read-only (k, C(L, k)) table of predecessor positions
per level k: L * 2^(L-1) * 8 bytes in all, 80 MiB at L = 20.  Counts to
the top corner run the same DP on the reflected cube, and existence runs
it on booleans.

Ties in fitness are treated as blocking (strict inequality), a
probability-zero event under the continuous model but deterministic.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .rng import philox_stream

DEFAULT_DIM_CAP = 24
ORACLE_DIM_CAP = 8

# int64 head-room guard for the DP: before summing the k predecessor
# counts of a level-k node, the previous level's max must leave room for
# the sum.  A level-k count is at most k! (induction: k predecessors, each
# at most (k-1)!), and 20! < 2^63, so for k <= 20 the previous max is at
# most (k-1)! <= _I64_MAX // k and the guard cannot fire: it runs from
# level 21 on.
_I64_MAX = (1 << 63) - 1
_GUARD_FROM_LEVEL = 21


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


def generate_hypercube(L: int, x: float, seed: int, replica: int = 0) -> HypercubeLandscape:
    """Draw a seeded landscape; same (L, x, seed, replica) is bit-exact."""
    if not 1 <= L <= DEFAULT_DIM_CAP:
        raise ValueError(f"dim must be in [1, {DEFAULT_DIM_CAP}], got {L}")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must be in [0, 1], got {x}")
    rng = philox_stream(seed, replica)
    fitness = rng.random(1 << L)
    fitness[0] = x
    fitness[-1] = 1.0
    fitness.setflags(write=False)
    return HypercubeLandscape(dim=L, origin_value=x, fitness=fitness)


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


def _level_masks(L: int, k: int) -> np.ndarray:
    """The level-k masks, ascending: a read-only view of the cached order."""
    order, off, _ = _level_tables(L)
    return order[off[k] : off[k + 1]]


def _open_edges(f: np.ndarray, L: int, k_max: int):
    """For k = 1..k_max, the predecessor table of level k and its open edges.

    The edge from a predecessor into a level-k node is open when the value
    strictly increases along it; ties block.
    """
    order, off, preds = _level_tables(L)
    fl = f[order[: off[k_max + 1]]]
    for k in range(1, k_max + 1):
        pr = preds[k]
        yield pr, fl[off[k - 1] : off[k]][pr] < fl[off[k] : off[k + 1]]


def _counts_from_origin(f: np.ndarray, L: int, k_max: int) -> np.ndarray:
    """Open-prefix counts n_sigma of the level-k_max nodes."""
    n = np.ones(1, dtype=np.int64)
    for k, (pr, open_edge) in enumerate(_open_edges(f, L, k_max), start=1):
        if k >= _GUARD_FROM_LEVEL and n.max() > _I64_MAX // k:
            raise PathCountOverflowError(f"path count overflow at level {k}")
        c = n[pr]
        c *= open_edge
        n = c.sum(axis=0)
    return n


def _counts_to_top(f: np.ndarray, L: int, k: int) -> np.ndarray:
    """Counts m_tau of open paths from each level-(L-k) node to 1...1.

    Reversing a path and negating every value maps these onto origin
    counts of the reflected cube g[mask] = -f[full ^ mask].  Since
    full ^ mask = full - mask, the reflection reverses the index order,
    both of the fitness array and of each level.  Negation is exact, so
    the reflected cube has exactly the ties of f (1 - f would round).
    """
    return _counts_from_origin(-f[::-1], L, k)[::-1]


def count_open_paths(land: HypercubeLandscape) -> int:
    """Exact number of open paths from 0...0 to 1...1 (checked 64-bit)."""
    return int(_counts_from_origin(land.fitness, land.dim, land.dim)[0])


def path_exists(land: HypercubeLandscape) -> bool:
    """True iff an open path exists: the DP on booleans, which cannot overflow."""
    reach = np.ones(1, dtype=bool)
    for pr, open_edge in _open_edges(land.fitness, land.dim, land.dim):
        reach = (open_edge & reach[pr]).any(axis=0)
        if not reach.any():
            return False
    return True


@lru_cache(maxsize=8)
def _comparable_pairs(L: int, k: int) -> np.ndarray:
    """Flat positions in the (C(L, k), C(L, k)) matrix of the comparable
    pairs sigma subset of tau, sigma on level k and tau on level L - k.

    Row i lists, ascending, i * C(L, k) + j for every superset tau_j of
    sigma_i; each sigma has C(L - k, k) of them.  Read-only: the cache
    shares it.
    """
    sig = _level_masks(L, k)
    not_tau = ~_level_masks(L, L - k)
    row_start = np.arange(0, len(sig) ** 2, len(sig))
    flat = np.stack([r + np.flatnonzero((s & not_tau) == 0) for r, s in zip(row_start, sig)])
    flat.setflags(write=False)
    return flat


def theta_k_hypercube(land: HypercubeLandscape, k: int) -> float:
    """Conditional expectation of the path count given the first k levels
    seen from both corners.

    Sums n_sigma * m_tau * (L-2k) * (1 - y_tau - x_sigma)^(L-2k-1) over
    comparable pairs (sigma subset of tau) with x_sigma + y_tau < 1,
    where y_tau = 1 - value(tau).
    """
    L = land.dim
    if not 0 <= 2 * k < L:
        raise ValueError(f"k must be in [0, {(L - 1) // 2}] (2k < dim), got {k}")
    n = _counts_from_origin(land.fitness, L, k).astype(float)
    m = _counts_to_top(land.fitness, L, k).astype(float)
    xs = land.fitness[_level_masks(L, k)]
    ys = 1.0 - land.fitness[_level_masks(L, L - k)]
    flat = _comparable_pairs(L, k)
    ns = len(xs)
    row_start = np.arange(0, ns * ns, ns)[:, None]
    base = (1.0 - xs)[:, None] - ys[flat - row_start]
    ok = base > 0.0  # a tie blocks: base 0 weighs 0, also at exponent 0
    w = np.zeros((ns, ns))
    w.ravel()[flat[ok]] = (L - 2 * k) * base[ok] ** (L - 2 * k - 1)
    return float(n @ w @ m)


def enumerate_paths_oracle(land: HypercubeLandscape) -> int:
    """Reference count: iterate all L! coordinate orders explicitly."""
    L = land.dim
    if L > ORACLE_DIM_CAP:
        raise ValueError(f"oracle limited to L <= {ORACLE_DIM_CAP}, got {L}")
    f = land.fitness
    total = 0
    for order in itertools.permutations(range(L)):
        mask = 0
        prev = f[0]
        for bit in order:
            mask |= 1 << bit
            v = f[mask]
            if not v > prev:
                break
            prev = v
        else:
            total += 1
    return total
