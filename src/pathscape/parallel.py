"""Replica-parallel map with order-independent, deterministic results.

Each replica owns a private stream derived from (master_seed, replica
index), so splitting the replica range across workers cannot change any
drawn value; chunks are reassembled in index order, making the output
identical for any thread count.  The worker count is the `threads`
argument alone, 1 by default; no environment variable sets it.
"""

from __future__ import annotations

import os
from typing import Callable

import numpy as np


def resolve_threads(threads: int | None) -> int:
    """Worker count: `threads`, or 1 when it is None.

    Raises ValueError on a count below 1.
    """
    if threads is None:
        return 1
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    return threads


def map_replicas(
    worker: Callable[[int, int], np.ndarray],
    n_replicas: int,
    threads: int | None = None,
) -> np.ndarray:
    """Run worker(start, stop) over a partition of range(n_replicas) and
    concatenate the chunk results in index order."""
    threads = resolve_threads(threads)
    if threads <= 1 or n_replicas < 2 * threads:
        return np.asarray(worker(0, n_replicas))
    # imported here so that `import pathscape` does not load multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    bounds = np.linspace(0, n_replicas, threads + 1).astype(int).tolist()
    # fork starts every worker at once: never more processes than cores
    with ProcessPoolExecutor(max_workers=min(threads, os.cpu_count() or 1)) as pool:
        chunks = list(pool.map(worker, bounds[:-1], bounds[1:]))
    return np.concatenate(chunks)
