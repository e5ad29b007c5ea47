"""Accessible-path statistics on random fitness landscapes.

Counts and samples strictly-increasing paths through i.i.d. uniform
fitness values on the L-hypercube and the decreasing-arity tree, and
checks the exact moment formulas, functional recursions, and limit laws
against Monte Carlo.
"""

__version__ = "0.1.0"

from .cascade import CascadeParams, sample_cascade, sample_cascade_batch
from .hypercube import (
    HypercubeLandscape,
    count_open_paths,
    generate_hypercube,
    path_exists,
    theta_k_hypercube,
)
from .moments import (
    a_coeff,
    cond_var_tree,
    expected_paths,
    scaled_limits,
    second_moment_tree,
    var_star_tree,
    var_tree,
)
from .recursion import delta_bound_check, existence_prob, fk_iterate, p_star, tree_gf
from .stats import Sample, ks_statistic, moment_summary
from .tree import TreeParams, sample_theta_tree, theta_k_tree, tree_existence_mc

__all__ = [
    "CascadeParams",
    "HypercubeLandscape",
    "Sample",
    "TreeParams",
    "a_coeff",
    "cond_var_tree",
    "count_open_paths",
    "delta_bound_check",
    "existence_prob",
    "expected_paths",
    "fk_iterate",
    "generate_hypercube",
    "ks_statistic",
    "moment_summary",
    "p_star",
    "path_exists",
    "sample_cascade",
    "sample_cascade_batch",
    "sample_theta_tree",
    "scaled_limits",
    "second_moment_tree",
    "theta_k_hypercube",
    "theta_k_tree",
    "tree_existence_mc",
    "tree_gf",
    "var_star_tree",
    "var_tree",
]
