"""Grid iteration of the deterministic functional recursions.

Three recursions share the same machinery (uniform grid, cumulative
cubic-corrected trapezoid integration, suffix accumulation):

* the tree generating function
    G(lam, x, 1) = exp(-lam),
    G(lam, x, L) = [x + int_x^1 G(lam, y, L-1) dy]^L;
* the open-path existence probability, which is the lam -> infinity
  limit of the same first-step decomposition:
    p(x, 1) = 1,   p(x, L) = 1 - (1 - int_x^1 p(y, L-1) dy)^L;
* the cascade fixed point
    F_0(z) = exp(-z),
    F_k(z) = exp(-int_0^z (1 - F_{k-1}(z'))/z' dz'),
  whose integrand has a removable singularity at 0 evaluated as its
  analytic limit 1.

Accuracy is auditable by grid doubling rather than adaptive meshing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class GridFunction:
    """A function tabulated on a uniform grid over [a, b]."""

    a: float
    b: float
    values: np.ndarray
    label: str = ""

    def __post_init__(self):
        if len(self.values) < 3:
            raise ValueError("grid needs at least 3 samples")
        if not np.isfinite(self.values).all():
            raise ValueError("grid values must be finite")

    @property
    def xs(self) -> np.ndarray:
        return np.linspace(self.a, self.b, len(self.values))

    @property
    def step(self) -> float:
        return (self.b - self.a) / (len(self.values) - 1)

    def __call__(self, x):
        return np.interp(x, self.xs, self.values)


def _segment_integrals(values: np.ndarray, h: float) -> np.ndarray:
    """Per-cell integrals on a uniform grid: trapezoid plus a
    third-difference correction (cubic-exact, 4th order).

    Plain trapezoid is not an option for the generating-function sweeps:
    its O(h^2) bias is amplified by the size-th power at every one of the
    L iterations and accumulates like h^2 L^3, which diverges for any
    affordable grid once L is in the thousands.  The corrected rule
    reduces the accumulated bias to O(h^4 L^5), which grid doubling can
    certify.
    """
    f = values
    seg = np.empty(len(f) - 1)
    c = h / 24.0
    seg[1:-1] = c * (-f[:-3] + 13.0 * f[1:-2] + 13.0 * f[2:-1] - f[3:])
    seg[0] = c * (9.0 * f[0] + 19.0 * f[1] - 5.0 * f[2] + f[3])
    seg[-1] = c * (f[-4] - 5.0 * f[-3] + 19.0 * f[-2] + 9.0 * f[-1])
    return seg


def _suffix_integral(values: np.ndarray, h: float) -> np.ndarray:
    """S[i] = integral from x_i to the right endpoint."""
    seg = _segment_integrals(values, h)
    out = np.empty_like(values)
    out[-1] = 0.0
    out[:-1] = np.cumsum(seg[::-1])[::-1]
    return out


def _prefix_integral(values: np.ndarray, h: float) -> np.ndarray:
    """S[i] = integral from the left endpoint to x_i."""
    seg = _segment_integrals(values, h)
    out = np.empty_like(values)
    out[0] = 0.0
    out[1:] = np.cumsum(seg)
    return out


#: Deficits with log below this are handed to the closed-form tail.
_TAIL_GRAFT_LOG = -575.0


def tree_gf(lam: float, L: int, grid_n: int) -> GridFunction:
    """Tabulate G(lam, x, L) = E^x[exp(-lam * Theta)] on x in [0, 1]."""
    if lam < 0:
        raise ValueError(f"lam must be >= 0, got {lam}")
    if L < 1:
        raise ValueError(f"L must be >= 1, got {L}")
    if grid_n < 64:
        raise ValueError(f"grid_n must be >= 64, got {grid_n}")
    if lam == 0.0:
        return GridFunction(
            0.0, 1.0, np.ones(grid_n + 1), label=f"G(lam=0, ., L={L})"
        )
    h = 1.0 / grid_n
    xs = np.linspace(0.0, 1.0, grid_n + 1)
    # Iterate on the deficit d = 1 - G.  Storing G itself rounds tail
    # deficits below 1e-16 to zero, and the size-th power amplifies that
    # truncation inward until the whole solution collapses to 1.
    # x + int_x^1 G dy = 1 - int_x^1 d dy, so the update is
    # d <- 1 - (1 - D)^size with D the suffix integral of d.
    #
    # The far tail of d still underflows double precision near x = 1, and
    # the resulting hard zeros starve the suffix integral just left of
    # them; that deficit compounds sweep over sweep and the dead zone
    # propagates leftward until it reaches the x ~ 1/L layer (visible as
    # a sharp breakdown once L is in the thousands).  Where the deficit
    # is that small the update linearizes exactly (d ~ size * D, relative
    # corrections of order D), and the linearized sweep maps
    # c*lam*n*(1-x)^(n-1) to c*lam*(n+1)*(1-x)^n, so the tail is known in
    # closed form.  Re-grafting that closed form each sweep (in log
    # space, so it degrades to a true zero only below exp(-745)) stops
    # the error wave at its source.
    c = -math.expm1(-lam) / lam
    with np.errstate(divide="ignore"):
        log1mx = np.log1p(-xs)
    d = np.full(grid_n + 1, lam * c)
    for size in range(2, L + 1):
        D = _suffix_integral(d, h)
        np.clip(D, 0.0, 1.0, out=D)
        with np.errstate(divide="ignore"):
            d = -np.expm1(size * np.log1p(-D))
        with np.errstate(invalid="ignore"):
            log_tail = math.log(c * lam * size) + (size - 1) * log1mx
        graft = log_tail < _TAIL_GRAFT_LOG
        d[graft] = np.exp(log_tail[graft])
    return GridFunction(0.0, 1.0, 1.0 - d, label=f"G(lam={lam}, ., L={L})")


def existence_prob(L: int, grid_n: int) -> GridFunction:
    """Tabulate p(x, L) = P^x(Theta >= 1) on x in [0, 1]."""
    if L < 1:
        raise ValueError(f"L must be >= 1, got {L}")
    if grid_n < 64:
        raise ValueError(f"grid_n must be >= 64, got {grid_n}")
    h = 1.0 / grid_n
    xs = np.linspace(0.0, 1.0, grid_n + 1)
    with np.errstate(divide="ignore"):
        log1mx = np.log1p(-xs)
    p = np.ones(grid_n + 1)
    for size in range(2, L + 1):
        s = _suffix_integral(p, h)
        np.clip(s, 0.0, 1.0, out=s)
        # expm1/log1p form keeps the exponentially small tail of p
        # representable instead of truncating it to zero
        with np.errstate(divide="ignore"):
            p = -np.expm1(size * np.log1p(-s))
        # Same tail treatment as tree_gf: where p is tiny the sweep is
        # exactly linear with closed-form solution n*(1-x)^(n-1), and
        # re-grafting it prevents underflow zeros near x = 1 from eating
        # the solution from the right.
        with np.errstate(invalid="ignore"):
            log_tail = math.log(size) + (size - 1) * log1mx
        graft = log_tail < _TAIL_GRAFT_LOG
        p[graft] = np.exp(log_tail[graft])
    return GridFunction(0.0, 1.0, p, label=f"p(., L={L})")


def p_star(L: int, grid_n: int) -> float:
    """P*(Theta >= 1) = int_0^1 p(x, L) dx, by trapezoid on the grid."""
    gf = existence_prob(L, grid_n)
    return float(np.trapezoid(gf.values, dx=gf.step))


def fk_iterate(k: int, z_max: float, grid_n: int) -> GridFunction:
    """Tabulate the cascade fixed-point iterate F_k on z in [0, z_max]."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if z_max <= 0:
        raise ValueError(f"z_max must be positive, got {z_max}")
    if grid_n < 64:
        raise ValueError(f"grid_n must be >= 64, got {grid_n}")
    zs = np.linspace(0.0, z_max, grid_n + 1)
    h = z_max / grid_n
    f = np.exp(-zs)
    for _ in range(k):
        integrand = np.empty_like(f)
        integrand[0] = 1.0  # removable singularity: (1 - F(z))/z -> 1
        integrand[1:] = (1.0 - f[1:]) / zs[1:]
        f = np.exp(-_prefix_integral(integrand, h))
    return GridFunction(0.0, z_max, f, label=f"F_{k}")


@dataclass(frozen=True)
class DeltaBoundReport:
    """Result of checking 0 <= delta_k <= M for all k <= k_max, where
    delta_k(z) = 2^k (1+z)^3/z^2 * (1/(1+z) - F_k(z)) and M = sup delta_0.

    The check runs on z >= z_min: below that the 2^k/z^2 amplification
    turns quadrature round-off into noise, which is what `tolerance`
    budgets for on the checked range.
    """

    k_max: int
    z_max: float
    grid_n: int
    M: float
    z_min: float
    tolerance: float
    max_upper_excess: float
    max_lower_excess: float
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def delta_bound_check(
    k_max: int, z_max: float, grid_n: int, z_min: float = 0.25, tolerance: float = 1e-2
) -> DeltaBoundReport:
    """Evaluate the delta_k envelope numerically and report violations."""
    if k_max < 0:
        raise ValueError(f"k_max must be >= 0, got {k_max}")
    zs = np.linspace(0.0, z_max, grid_n + 1)
    sel = zs >= z_min
    z = zs[sel]
    limit = 1.0 / (1.0 + z)
    amp = (1.0 + z) ** 3 / z**2
    violations = []
    max_upper = -math.inf
    max_lower = -math.inf
    M = math.nan
    for k in range(k_max + 1):
        f = fk_iterate(k, z_max, grid_n).values[sel]
        delta = 2.0**k * amp * (limit - f)
        if k == 0:
            M = float(delta.max())
        upper = float((delta - M).max())
        lower = float((-delta).max())
        max_upper = max(max_upper, upper)
        max_lower = max(max_lower, lower)
        if upper > tolerance or lower > tolerance:
            idx = int(np.argmax(np.maximum(delta - M, -delta)))
            violations.append({"k": k, "z": float(z[idx]), "delta": float(delta[idx])})
    return DeltaBoundReport(
        k_max=k_max,
        z_max=z_max,
        grid_n=grid_n,
        M=M,
        z_min=z_min,
        tolerance=tolerance,
        max_upper_excess=max_upper,
        max_lower_excess=max_lower,
        violations=violations,
    )
