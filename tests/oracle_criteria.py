"""Criteria 1 and 2: the exact Theta counters against full enumeration.

No `pathscape verify` battery runs them; the acceptance scorecard gates
them at full strength and the golden records pin their results.  Each
returns `verify.CheckResult` records, as a battery check does, with the
sample counts of a battery (`verify._n`).
"""

import numpy as np

from pathscape import hypercube, tree, verify
from pathscape.rng import derive_seed


def _oracle_check(criterion, what, cases, fast, oracle):
    """`fast` against `oracle` on every case; `what` formats the case and
    mismatch counts into the details."""
    agree = [fast(case) == oracle(case) for case in cases]
    bad = agree.count(False)
    return verify.CheckResult(
        criterion=criterion,
        passed=bad == 0,
        observed={"mismatches": bad, "cases": len(agree)},
        expected={"mismatches": 0},
        details=what.format(len(agree), bad),
    )


def check_hypercube_oracle(seed: int = verify.DEFAULT_SEED, scale: float = 1.0):
    lands = (
        hypercube.generate_hypercube(L, 0.3 * (r % 3), seed, replica=r)
        for L in range(2, 8)
        for r in range(verify._n(100, scale))
    )
    what = "{} landscapes L=2..7, {} DP/oracle mismatches"
    fast, oracle = hypercube.count_open_paths, hypercube.enumerate_paths_oracle
    return [_oracle_check("1-hypercube-oracle-equivalence", what, lands, fast, oracle)]


def _theta_of_one_seed(params: tree.TreeParams) -> int:
    """Theta of one realization: the frontier engine on a one-seed block."""
    seeds = np.array([params.seed], dtype=np.uint64)
    return int(tree.theta_block(seeds, params.dim, params.root_value, params.node_budget)[0])


def check_tree_oracle(seed: int = verify.DEFAULT_SEED, scale: float = 1.0):
    realizations = (
        tree.TreeParams(L, 0.25 * (r % 4) / 3.0, derive_seed(seed, r))
        for L in range(2, 8)
        for r in range(verify._n(100, scale))
    )
    what = "{} realizations L=2..7, {} DFS/enumeration mismatches"
    fast, oracle = _theta_of_one_seed, tree.enumerate_tree_paths_oracle
    return [_oracle_check("2-tree-oracle-equivalence", what, realizations, fast, oracle)]
