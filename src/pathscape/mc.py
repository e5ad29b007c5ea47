"""Monte Carlo batch drivers over derived replica streams.

These wrap the exact routines in `hypercube` (one landscape at a time)
and `tree` (one frontier-engine call per replica block) into replica
loops keyed by (master_seed, replica); aggregation is a plain
concatenation in replica order, so results do not depend on thread
count, block size or completion order.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from . import hypercube, tree
from .parallel import map_replicas
from .rng import derive_seed  # noqa: F401 -- perfbench/tracing.py wraps mc.derive_seed


def _cube_chunk(fn, dtype, L, x, seed, args, start, stop):
    """fn(landscape, *args) for each replica in range(start, stop)."""
    out = np.empty(stop - start, dtype=dtype)
    for i, r in enumerate(range(start, stop)):
        out[i] = fn(hypercube.generate_hypercube(L, x, seed, replica=r), *args)
    return out


def hypercube_theta_batch(
    L: int, x: float, seed: int, samples: int, threads: int | None = None
) -> np.ndarray:
    worker = partial(_cube_chunk, hypercube.count_open_paths, np.int64, L, x, seed, ())
    return map_replicas(worker, samples, threads)


def hypercube_theta_k_batch(
    L: int,
    x: float,
    k: int,
    seed: int,
    samples: int,
    threads: int | None = None,
) -> np.ndarray:
    worker = partial(_cube_chunk, hypercube.theta_k_hypercube, np.float64, L, x, seed, (k,))
    return map_replicas(worker, samples, threads)


def hypercube_exists_batch(
    L: int, x: float, seed: int, samples: int, threads: int | None = None
) -> np.ndarray:
    worker = partial(_cube_chunk, hypercube.path_exists, bool, L, x, seed, ())
    return map_replicas(worker, samples, threads)


def tree_theta_batch(
    L: int,
    x: float,
    seed: int,
    samples: int,
    budget: int = tree.DEFAULT_NODE_BUDGET,
    threads: int | None = None,
) -> np.ndarray:
    worker = partial(tree.block_chunk, tree.theta_block, np.int64, L, x, seed, (budget,))
    return map_replicas(worker, samples, threads)


def tree_theta_k_batch(
    L: int,
    x: float,
    k: int,
    seed: int,
    samples: int,
    budget: int = tree.DEFAULT_NODE_BUDGET,
    threads: int | None = None,
) -> np.ndarray:
    worker = partial(tree.block_chunk, tree.theta_k_block, np.float64, L, x, seed, (k, budget))
    return map_replicas(worker, samples, threads)
