"""Seeded stream construction shared by the Monte Carlo modules.

Two kinds of streams are used:

* numpy Philox generators keyed by ``(master_seed, replica_index)`` for
  bulk draws (hypercube landscapes, cascade samples).  Philox is
  counter-based, so a replica's stream depends only on its key, never on
  how many other replicas ran before it.  A replica loop therefore builds
  one generator and re-keys it per replica (`philox_replicas`).

* splitmix64 hashes for the lazily sampled tree, where each node's value
  is a pure function of ``(seed, path digest)`` and therefore independent
  of traversal order.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

_M64 = (1 << 64) - 1

# Stream-construction tags recorded in experiment output so a record is
# self-describing.
PHILOX_TAG = "philox(key=[master_seed, replica])"
SPLITMIX_TAG = "splitmix64(seed, path-digest)"


def philox_stream(master_seed: int, replica: int = 0) -> np.random.Generator:
    """Generator for one replica, keyed by (master_seed, replica)."""
    key = np.array([master_seed & _M64, replica & _M64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def philox_replicas(master_seed: int, start: int, stop: int) -> Iterator[np.random.Generator]:
    """Yield, for each replica r in range(start, stop), one Generator
    re-keyed to (master_seed, r).

    Setting the Philox state to counter 0, key (master_seed, r), an empty
    buffer and no cached 32-bit half gives exactly the draws of
    philox_stream(master_seed, r), at a fraction of the cost of building a
    generator.  The same Generator is yielded every time: draw from it
    before advancing the iterator.
    """
    bit_gen = np.random.Philox(key=np.zeros(2, dtype=np.uint64))
    rng = np.random.Generator(bit_gen)
    zeros = np.zeros(4, dtype=np.uint64)
    for r in range(start, stop):
        key = np.array([master_seed & _M64, r & _M64], dtype=np.uint64)
        bit_gen.state = {
            "bit_generator": "Philox",
            "state": {"counter": zeros, "key": key},
            "buffer": zeros,
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        yield rng


def splitmix64(z: int) -> int:
    z = (z + 0x9E3779B97F4A7C15) & _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


def derive_seed(master_seed: int, replica: int) -> int:
    """64-bit per-replica seed for the tree streams; `replica` may be a uint64 array."""
    return splitmix64(splitmix64(master_seed & _M64) ^ (replica & _M64))


def uniform_from_hash(h: int) -> float:
    """Map a 64-bit hash to a uniform in [0, 1) using the top 53 bits."""
    return (h >> 11) * 2.0**-53
