"""Shared fixtures: one master seed and cached Monte Carlo batches.

Heavy batches are session-scoped so the moment tests and the acceptance
gate never redraw the same replicas.
"""

import numpy as np
import pytest

from pathscape import mc, verify

MASTER_SEED = verify.DEFAULT_SEED


@pytest.fixture(scope="session")
def master_seed() -> int:
    return MASTER_SEED


@pytest.fixture(scope="session")
def tree_thetas_8() -> np.ndarray:
    """Theta samples on the tree at (L=8, x=0.2), shared across tests."""
    return mc.tree_theta_batch(8, 0.2, MASTER_SEED, 20_000).astype(float)


@pytest.fixture(scope="session")
def hypercube_thetas_10() -> np.ndarray:
    """Theta samples on the hypercube at (L=10, x=0.1), shared across tests."""
    return mc.hypercube_theta_batch(10, 0.1, MASTER_SEED, 5_000).astype(float)
