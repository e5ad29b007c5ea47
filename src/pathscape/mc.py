"""Monte Carlo batch drivers over derived replica streams.

These wrap the exact routines in `hypercube` and `tree` (one
frontier-engine call per replica block) into replica loops keyed by
(master_seed, replica); aggregation is a plain concatenation in replica
order, so results do not depend on thread count, block size or
completion order.  A hypercube chunk re-keys one Philox generator per
replica and reuses one `hypercube.Scratch`; counts and existence on cubes
of dimension up to _BATCH_MAX_DIM run R = _BATCH_VALUES >> L landscapes
per level DP call, larger cubes one landscape per call.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from . import hypercube, tree
from .parallel import map_replicas
from .rng import derive_seed  # noqa: F401 -- perfbench/tracing.py wraps mc.derive_seed
from .rng import philox_replicas

# Values per batched DP call: R = _BATCH_VALUES >> L landscapes.  Measured
# on one core, batches took 0.5-0.8 of the CPU of one landscape per call up
# to L = 15 (R = 4), and 1.08 at L = 16 (R = 2).
_BATCH_VALUES = 1 << 17
_BATCH_MAX_DIM = 15


def _cube_chunk(fn, dtype, L, x, seed, args, start, stop):
    """fn(landscape, *args) for each replica in range(start, stop)."""
    out = np.empty(stop - start, dtype=dtype)
    scratch = hypercube.Scratch()
    for i, rng in enumerate(philox_replicas(seed, start, stop)):
        out[i] = fn(hypercube.draw_landscape(L, x, rng, scratch), *args, scratch=scratch)
    return out


def _cube_batches(dtype, L, x, seed, start, stop):
    """hypercube.batch_dp over range(start, stop), R replicas per call."""
    out = np.empty(stop - start, dtype=dtype)
    scratch = hypercube.Scratch()
    rngs = philox_replicas(seed, start, stop)
    R = _BATCH_VALUES >> L
    for i in range(0, len(out), R):
        m = min(R, len(out) - i)
        out[i : i + m] = hypercube.batch_dp(L, x, rngs, m, dtype, scratch)
    return out


def _count_worker(fn, dtype, L, x, seed):
    """Chunk worker of a count (int64) or existence (bool) batch: batched
    up to _BATCH_MAX_DIM, else fn per landscape; the values are the same."""
    if 1 <= L <= _BATCH_MAX_DIM:
        return partial(_cube_batches, dtype, L, x, seed)
    return partial(_cube_chunk, fn, dtype, L, x, seed, ())


def hypercube_theta_batch(
    L: int, x: float, seed: int, samples: int, threads: int | None = None
) -> np.ndarray:
    worker = _count_worker(hypercube.count_open_paths, np.int64, L, x, seed)
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
    worker = _count_worker(hypercube.path_exists, bool, L, x, seed)
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
