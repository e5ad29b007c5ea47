"""Accessible-path statistics on random fitness landscapes.

Counts and samples strictly-increasing paths through i.i.d. uniform
fitness values on the L-hypercube and the decreasing-arity tree, and
checks the exact moment formulas, functional recursions, and limit laws
against Monte Carlo.
"""

__version__ = "0.1.0"

from . import cascade, hypercube, moments, recursion, stats, tree  # noqa: F401
