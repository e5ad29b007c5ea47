"""Philox replica streams: a re-keyed generator is a fresh one."""

import numpy as np
import pytest

from pathscape.rng import philox_replicas, philox_stream

M64 = (1 << 64) - 1


@pytest.mark.parametrize("seed, first", [(0, 0), (M64, M64 - 3)])
def test_rekeyed_generator_equals_a_fresh_stream(seed, first):
    # each replica draws odd-sized blocks of doubles, Poisson counts and
    # 32-bit values, leaving a half-used buffer and a cached 32-bit half
    # behind for the next key to clear; the last key is (seed, 2^64 - 1)
    def draws(rng):
        return (
            rng.random(7).tobytes(),
            rng.poisson([0.5, 20.0, 3.0]).tobytes(),
            rng.integers(0, 2**32, 3, dtype=np.uint32).tobytes(),
            rng.random(1).tobytes(),
        )

    replicas = range(first, first + 4)
    got = [draws(rng) for rng in philox_replicas(seed, replicas.start, replicas.stop)]
    assert got == [draws(philox_stream(seed, r)) for r in replicas]
