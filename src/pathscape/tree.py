"""Lazily sampled decreasing-arity tree and exact open-path counting.

The tree has root arity L, then L-1, ..., 1; the L! leaves all carry the
value 1 and the root carries x.  A node value is a pure function of
(seed, path digest): the value of child c of a node with digest d is
uniform_from_hash(splitmix64(d + c + 1)), so the level-synchronous frontier
engine (`_walk`, over a block of replicas) and a full enumeration replay
exactly the same realization.  The engine compares hashes, not values (a
child is open iff its hash exceeds its parent's hash | 2047), and gathers
each level's open children by flat index.

The expected number of alive (open-prefix) nodes is about (2-x)^L; every
walk carries a per-replica visit budget, and one replica past it makes the
whole call raise BudgetExceededError: never "zero paths", never dropped.
One driver, `block_chunk`, derives a chunk's replica seeds in one call and
runs a block function on them: `theta_block`, `theta_k_block` or
`exists_block`, which walks a narrow beam first (each replica's lowest-valued
open nodes per level) and in full only the replicas the beam cannot decide;
its budget counts the visits of the walk that decides.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .parallel import map_replicas
from .rng import derive_seed, splitmix64, uniform_from_hash

_M64 = (1 << 64) - 1

DEFAULT_NODE_BUDGET = 10**8

# Replicas per engine call: at most this many expected alive nodes, (2-x)^L
# per replica, in one block, which bounds the frontier's memory.
_BLOCK_NODES = 2**14

# Open nodes per replica and level that the existence beam keeps.
_BEAM_WIDTH = 32


class BudgetExceededError(RuntimeError):
    """Visit budget exhausted before the walk finished."""


@dataclass(frozen=True)
class TreeParams:
    dim: int
    root_value: float
    seed: int
    node_budget: int = DEFAULT_NODE_BUDGET

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        if not 0.0 <= self.root_value <= 1.0:
            raise ValueError(f"x must be in [0, 1], got {self.root_value}")
        if self.node_budget <= 0:
            raise ValueError(f"node_budget must be >= 1, got {self.node_budget}")


def _root_digest(seed: int) -> int:
    return splitmix64(seed & _M64)


def _child_hash(digest: int, child: int) -> int:
    return splitmix64((digest + child + 1) & _M64)


def _splitmix64(z: np.ndarray) -> np.ndarray:
    """`rng.splitmix64` on a uint64 array, in place (arrays wrap; scalars warn)."""
    z += np.uint64(0x9E3779B97F4A7C15)
    z ^= z >> 30
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> 27
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> 31
    return z


def _root_threshold(x: float) -> int:
    """Largest child hash left closed below a root of value x: a child is
    open iff (h >> 11) * 2^-53 > x, iff h > (floor(x 2^53) << 11) | 2047
    (x 2^53 is exact); at x = 1 that is 2^64 - 1, which no hash exceeds."""
    return min((int(x * 2.0**53) << 11) | 2047, _M64)


def _walk(seeds: np.ndarray, L: int, x: float, depth: int, budget: int, width=None):
    """Walk a block of replicas (uint64 `seeds`) level by level to `depth`.

    Returns the open level-`depth` nodes as (values, owner=replica index),
    each replica's nodes contiguous, and a per-replica bool array: cut.
    Openness is decided in integers, hash > parent hash | 2047 (at the root,
    hash > `_root_threshold(x)`), and open children are gathered by flat
    index; floats are formed only for the beam's sort key and the output.
    With `width`, each level keeps only each replica's `width` lowest-valued
    open nodes (a beam: the most children open below a low value); cut
    marks the replicas that ever had more.  A replica never cut had its full
    walk.  Without `width` nodes stay in BFS order and nothing is cut.
    Raises BudgetExceededError as soon as the children of one level take any
    replica's visit count (arity x nodes walked per level) past `budget`.
    """
    if not 0 <= depth < L:
        raise ValueError(f"k must be in [0, {L - 1}], got {depth}")
    n = len(seeds)
    digests, owner = _splitmix64(seeds.copy()), np.arange(n)
    above = np.full(n, _root_threshold(x), dtype=np.uint64)
    visits = np.zeros(n, dtype=np.int64)
    cut = np.zeros(n, dtype=bool)
    for level in range(depth):
        arity = L - level
        visits += arity * np.bincount(owner, minlength=n)
        if visits.max() > budget:
            raise BudgetExceededError(f"node budget {budget} exhausted at level {level + 1}")
        hashes = _splitmix64(digests[:, None] + np.arange(1, arity + 1, dtype=np.uint64))
        idx = np.flatnonzero(hashes > above[:, None])
        digests, owner = hashes.ravel().take(idx), owner.take(idx // arity)
        if width is not None:
            counts = np.bincount(owner, minlength=n)
            over = counts > width
            if over.any():
                cut |= over
                # owner is non-decreasing and values < 1, so this key sorts
                # replica-major: sorted position i still belongs to owner[i].
                # Which of two tied nodes stays changes no replica's status.
                order = np.argsort(2.0 * owner + (digests >> 11) * 2.0**-53)
                rank = np.arange(len(owner)) - (np.cumsum(counts) - counts)[owner]
                keep = order[rank < width]
                digests, owner = digests[keep], owner[keep]
        above = digests | 2047
    values = (digests >> 11) * 2.0**-53 if depth else np.full(n, float(x))
    return values, owner, cut


def _block_step(L: int, x: float, width=None) -> int:
    """Replicas per engine call.  A beam of `width` holds at most width*L
    children per replica and level, and never more than the full walk."""
    step = max(1, int(_BLOCK_NODES * max(1.0, 2.0 - x) ** -L))
    return step if width is None else max(step, _BLOCK_NODES // (width * L))


def block_chunk(block_fn, dtype, L, x, seed, args, start, stop, width=None) -> np.ndarray:
    """block_fn(seeds, L, x, *args) over replicas range(start, stop), one
    engine call per block of _block_step(L, x, width) derived replica seeds.
    Every block function takes the visit budget last, so args[-1] is it."""
    TreeParams(L, x, seed, args[-1])  # validates dim, root value and budget
    seeds = derive_seed(seed, np.arange(start, stop, dtype=np.uint64))
    out = np.empty(stop - start, dtype=dtype)
    step = _block_step(L, x, width)
    for a in range(0, len(seeds), step):
        out[a : a + step] = block_fn(seeds[a : a + step], L, x, *args)
    return out


def theta_block(seeds: np.ndarray, L: int, x: float, budget: int) -> np.ndarray:
    """Exact Theta per replica seed.  A node at level L-1 with value < 1
    contributes exactly one open path (its single leaf child carries 1)."""
    values, owner, _ = _walk(seeds, L, x, L - 1, budget)
    return np.bincount(owner[values < 1.0], minlength=len(seeds))


def exists_block(seeds: np.ndarray, L: int, x: float, budget: int) -> np.ndarray:
    """Theta >= 1 per replica seed, beam first.

    The block first walks a beam of _BEAM_WIDTH nodes per level.  A beam
    node at level L-1 proves an open path of its replica, and a beam never
    cut was the replica's full walk.  Only the other replicas take the full
    walk, in full-walk blocks.  Each replica is charged the visits of the
    walk that decides it.
    """
    values, owner, cut = _walk(seeds, L, x, L - 1, budget, _BEAM_WIDTH)
    found = np.bincount(owner[values < 1.0], minlength=len(seeds)) > 0
    rest = np.flatnonzero(cut & ~found)
    step = _block_step(L, x)
    for a in range(0, len(rest), step):
        found[rest[a : a + step]] = theta_block(seeds[rest[a : a + step]], L, x, budget) > 0
    return found


def theta_k_block(seeds: np.ndarray, L: int, x: float, k: int, budget: int) -> np.ndarray:
    """Theta_k per replica seed: the sum over its open level-k nodes of
    (L-k)(1 - v)^(L-k-1).  np.float_power calls libm `pow`, as Python's `**`
    (np.power may take a SIMD path that differs in the last bit); bincount
    adds them in C in index order, and each replica's nodes are contiguous
    in BFS order, so every sum is the plain left-to-right one on any CPython."""
    values, owner, _ = _walk(seeds, L, x, k, budget)
    below = values < 1.0  # as in theta_block: a value-1 node opens no path
    terms = (L - k) * np.float_power(1.0 - values[below], L - k - 1)
    return np.bincount(owner[below], weights=terms, minlength=len(seeds))


# sample_theta_tree and theta_k_tree run one seed; only the tests and
# perfbench/tracing.py, which wraps both, call them.
def _one_seed(params: TreeParams) -> np.ndarray:
    return np.array([params.seed & _M64], dtype=np.uint64)


def sample_theta_tree(params: TreeParams) -> int:
    """Exact Theta for the seeded realization."""
    seeds = _one_seed(params)
    return int(theta_block(seeds, params.dim, params.root_value, params.node_budget)[0])


def theta_k_tree(params: TreeParams, k: int) -> float:
    """Exact conditional expectation of Theta given the first k levels."""
    seeds = _one_seed(params)
    return float(theta_k_block(seeds, params.dim, params.root_value, k, params.node_budget)[0])


@dataclass(frozen=True)
class ExistenceEstimate:
    estimate: float
    stderr: float
    # always 0 (a budget hit raises); kept as golden records and perfbench read it
    budget_hits: int
    samples: int


def tree_existence_mc(
    L: int,
    x: float,
    samples: int,
    seed: int,
    budget: int = DEFAULT_NODE_BUDGET,
    threads: int | None = None,
) -> ExistenceEstimate:
    """Monte Carlo estimate of P^x(Theta >= 1) over derived replica seeds.

    A realization whose deciding walk (`exists_block`) exhausts the budget
    raises BudgetExceededError; none is left out of the estimate.
    """
    worker = partial(block_chunk, exists_block, bool, L, x, seed, (budget,), width=_BEAM_WIDTH)
    hits = int(np.count_nonzero(map_replicas(worker, samples, threads)))
    p = hits / samples
    se = (p * (1.0 - p) / samples) ** 0.5
    return ExistenceEstimate(p, se, 0, samples)


def enumerate_tree_paths_oracle(params: TreeParams) -> int:
    """Reference count: walk all L! root-leaf paths on the replayed value
    stream and count the strictly increasing ones.  Values are recomputed
    from the same digest scheme the engine uses, so both see one realization.
    """
    L = params.dim
    if L > 8:
        raise ValueError(f"oracle limited to dim <= 8, got {L}")
    root_dig = _root_digest(params.seed)

    # Full enumeration, no pruning shortcut: visit every path explicitly.
    def walk_all(level: int, val: float, dig: int, open_so_far: bool) -> int:
        if level == L - 1:
            return 1 if (open_so_far and val < 1.0) else 0
        count = 0
        for c in range(L - level):
            ch = _child_hash(dig, c)
            cv = uniform_from_hash(ch)
            count += walk_all(level + 1, cv, ch, open_so_far and cv > val)
        return count

    return walk_all(0, params.root_value, root_dig, True)
