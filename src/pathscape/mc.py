"""Monte Carlo batch drivers over derived replica streams.

Each driver maps one geometry's chunk loop over replicas keyed by
(master_seed, replica): `hypercube.count_chunk`, `hypercube.landscape_chunk`
or `tree.block_chunk`.  Aggregation is a plain concatenation in replica
order, so results do not depend on thread count, block size or
completion order.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from . import hypercube, tree
from .parallel import map_replicas
from .rng import derive_seed  # noqa: F401 -- perfbench/tracing.py wraps mc.derive_seed


def hypercube_theta_batch(
    L: int, x: float, seed: int, samples: int, threads: int | None = None
) -> np.ndarray:
    return map_replicas(partial(hypercube.count_chunk, np.int64, L, x, seed), samples, threads)


def hypercube_theta_k_batch(
    L: int,
    x: float,
    k: int,
    seed: int,
    samples: int,
    threads: int | None = None,
) -> np.ndarray:
    fn = hypercube.theta_k_hypercube
    worker = partial(hypercube.landscape_chunk, fn, np.float64, L, x, seed, (k,))
    return map_replicas(worker, samples, threads)


def hypercube_exists_batch(
    L: int, x: float, seed: int, samples: int, threads: int | None = None
) -> np.ndarray:
    return map_replicas(partial(hypercube.count_chunk, bool, L, x, seed), samples, threads)


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
