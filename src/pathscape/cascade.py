"""Truncated sampling of the multiplicative Poisson cascade.

Generation 0 is a single particle at position 1.  Each particle at
position p is replaced, one generation later, by atoms p*X_j of an
independent Poisson process with intensity dx/x on (0, 1].  Y_k is the
sum of the generation-k positions.

Exact sampling is impossible (every node has infinitely many offspring),
so children below an absolute position threshold delta are never
materialized.  One cascade step preserves the expected position sum, so
the never-materialized children below a node at position p carry an
expected generation-k contribution of p * int_0^(delta/p) dx = delta.
Each node expansion therefore adds exactly delta to `bias_bound`, making
E[Y_k] + E[bias_bound] = 1 exact.  The bias is always reported, never
silently absorbed.

Expected materialized atoms at generation j scale as ln(1/delta)^j / j!.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, partial

import numpy as np

from . import stats
from .parallel import map_replicas
from .rng import philox_replicas
from .rng import philox_stream  # noqa: F401 -- perfbench/tracing.py wraps cascade.philox_stream
from .tree import BudgetExceededError

DEFAULT_ATOM_BUDGET = 10**7


@dataclass(frozen=True)
class CascadeParams:
    generations: int
    delta: float
    seed: int
    samples: int = 1
    atom_budget: int = DEFAULT_ATOM_BUDGET

    def __post_init__(self):
        if self.generations < 0:
            raise ValueError(f"generations must be >= 0, got {self.generations}")
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must be in (0, 1), got {self.delta}")
        if self.samples < 1:
            raise ValueError(f"samples must be >= 1, got {self.samples}")


@dataclass(frozen=True)
class CascadeSample:
    y: float
    atoms_visited: int
    bias_bound: float


def sample_cascade(params: CascadeParams, rng: np.random.Generator) -> CascadeSample:
    """One truncated realization of Y_k, expanded generation by generation."""
    delta = params.delta
    positions = np.ones(1)
    atoms = 0
    bias = 0.0
    for _ in range(params.generations):
        # every stored position exceeds delta, so the relative threshold
        # delta/p is in (0, 1) and children below delta never materialize
        lam = np.log(positions / delta)
        # one parent (always in generation 0) is drawn through the scalar
        # path: the same draw, without the array path's checks of lam
        counts = rng.poisson(lam[0], size=1) if len(lam) == 1 else rng.poisson(lam)
        total = int(counts.sum())
        atoms += total
        if atoms > params.atom_budget:
            raise BudgetExceededError(
                f"atom budget {params.atom_budget} exhausted in cascade expansion"
            )
        bias += delta * len(positions)
        parents = positions.repeat(counts)
        scales = lam.repeat(counts)
        positions = parents * np.exp(-scales * rng.random(total))
    return CascadeSample(y=float(positions.sum()), atoms_visited=atoms, bias_bound=bias)


@dataclass(frozen=True)
class CascadeBatch:
    ys: np.ndarray
    mean_bias: float
    mean_atoms: float
    # always 0 (a budget hit raises); kept as golden records and perfbench read it
    budget_hits: int


def _cascade_chunk(params: CascadeParams, start: int, stop: int) -> np.ndarray:
    """Rows (y, bias_bound, atoms_visited) for replicas range(start, stop)."""
    out = np.empty((stop - start, 3))
    for i, rng in enumerate(philox_replicas(params.seed, start, stop)):
        s = sample_cascade(params, rng)
        out[i] = s.y, s.bias_bound, s.atoms_visited
    return out


def sample_cascade_batch(params: CascadeParams, threads: int | None = None) -> CascadeBatch:
    """params.samples independent realizations on derived replica streams.

    A realization that exhausts the atom budget raises BudgetExceededError;
    none is left out of the batch.
    """
    rows = map_replicas(partial(_cascade_chunk, params), params.samples, threads)
    n = params.samples
    bias = 0.0
    for b in rows[:, 1].tolist():  # one by one in replica order: records pin the bits
        bias += b
    return CascadeBatch(
        ys=rows[:, 0].copy(),
        mean_bias=bias / n,
        mean_atoms=int(rows[:, 2].sum()) / n,
        budget_hits=0,
    )


@dataclass(frozen=True)
class CascadeKSReport:
    generations: int
    delta: float
    samples: int
    ks: float
    finite_k_gap_bound: float
    mean_bias: float
    # always 0 (a budget hit raises); kept as golden records and perfbench read it
    budget_hits: int


def cascade_limit_check(
    k: int, delta: float, n: int, seed: int, threads: int | None = None
) -> CascadeKSReport:
    """KS distance of n sampled Y_k against Exp(1), with the theoretical
    finite-k gap M * sup_z z^2/(1+z)^3 / 2^k quoted alongside."""
    batch = sample_cascade_batch(CascadeParams(k, delta, seed, samples=n), threads)
    ks = stats.ks_statistic(stats.Sample.from_values(batch.ys), stats.exponential_law())
    gap = _delta0_sup() * (4.0 / 27.0) / 2.0**k
    return CascadeKSReport(
        generations=k,
        delta=delta,
        samples=n,
        ks=ks,
        finite_k_gap_bound=gap,
        mean_bias=batch.mean_bias,
        budget_hits=batch.budget_hits,
    )


@cache
def _delta0_sup() -> float:
    """sup over z >= 0 of (1+z)^3/z^2 * (1/(1+z) - exp(-z)).

    The max over 400001 grid points, taken block by block so that the
    temporaries stay small (whole-grid ones would grow the heap by 7 MB)."""
    grid = np.linspace(1e-6, 200.0, 400001)
    sup = -np.inf
    for i in range(0, len(grid), 1 << 13):
        z = grid[i : i + (1 << 13)]
        d0 = (1.0 + z) ** 3 / z**2 * (1.0 / (1.0 + z) - np.exp(-z))
        sup = max(sup, float(d0.max()))
    return sup
