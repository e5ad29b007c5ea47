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

The first two share one kernel, `_deficit_sweeps`, which iterates on the
deficit d = 1 - G (or p itself).  It sweeps numerically only the window
of the grid where d is not an exact closed form, and its output is
bit-identical to sweeping the whole grid.

Accuracy is auditable by grid doubling rather than adaptive meshing.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class GridFunction:
    """A function tabulated on a uniform grid over [0, b]."""

    b: float
    values: np.ndarray

    def __post_init__(self):
        if len(self.values) < 3:
            raise ValueError("grid needs at least 3 samples")
        if not np.isfinite(self.values).all():
            raise ValueError("grid values must be finite")

    @property
    def xs(self) -> np.ndarray:
        return np.linspace(0.0, self.b, len(self.values))

    @property
    def step(self) -> float:
        return self.b / (len(self.values) - 1)

    def __call__(self, x):
        return np.interp(x, self.xs, self.values)

    def integral(self) -> float:
        """Integral over [0, b], by trapezoid on the grid."""
        return float(np.trapezoid(self.values, dx=self.step))


def _segment_integrals(f: np.ndarray, h: float, seg: np.ndarray, f13: np.ndarray) -> np.ndarray:
    """Per-cell integrals on a uniform grid: trapezoid plus a
    third-difference correction (cubic-exact, 4th order).

    Writes the len(f) - 1 cells into the head of `seg` and returns that
    view; `f13` is scratch for 13 f, at least len(f) long.  The interior
    stencil is evaluated as ((13 f1 - f0) + 13 f2) - f3, which equals
    (-f0 + 13 f1 + 13 f2) - f3 bit for bit (IEEE addition commutes, and
    x - y is x + (-y)).

    Plain trapezoid is not an option for the generating-function sweeps:
    its O(h^2) bias is amplified by the size-th power at every one of the
    L iterations and accumulates like h^2 L^3, which diverges for any
    affordable grid once L is in the thousands.  The corrected rule
    reduces the accumulated bias to O(h^4 L^5), which grid doubling can
    certify.
    """
    n = len(f)
    c = h / 24.0
    t = np.multiply(f, 13.0, out=f13[:n])
    mid = seg[1 : n - 2]
    np.subtract(t[1:-2], f[:-3], out=mid)
    np.add(mid, t[2:-1], out=mid)
    np.subtract(mid, f[3:], out=mid)
    np.multiply(mid, c, out=mid)
    # the one-sided end cells in Python floats, the same IEEE operations
    # as on numpy scalars without their per-operation overhead
    f0, f1, f2, f3 = f[:4].tolist()
    seg[0] = c * (9.0 * f0 + 19.0 * f1 - 5.0 * f2 + f3)
    f0, f1, f2, f3 = f[-4:].tolist()
    seg[n - 2] = c * (f0 - 5.0 * f1 + 19.0 * f2 + 9.0 * f3)
    return seg[: n - 1]


def _prefix_integral(values: np.ndarray, h: float) -> np.ndarray:
    """S[i] = integral from the left endpoint to x_i."""
    out = np.empty_like(values)
    seg = _segment_integrals(values, h, out[1:], np.empty_like(values))
    out[0] = 0.0
    np.add.accumulate(seg, out=seg)
    return out


#: Deficits with log below this are handed to the closed-form tail.
_TAIL_GRAFT_LOG = -575.0

#: exp() of anything below this is exactly 0.0 in IEEE double precision
#: (ln of the smallest subnormal is about -744.4, and exp rounds to zero
#: below about -745.13).  A fact of the number format, not a tolerance.
_UNDERFLOW_LOG = -746.0

#: Where y = fl(size*D) is below this, -expm1(size*log1p(-D)) is exactly y.
#: D <= y, and a correctly rounded log1p(t) or expm1(t) equals t for
#: |t| < 2**-54: the true value lies within a relative |t|/2 < 2**-55 of t,
#: and half an ulp of t is more than 2**-54 of t.  A fact of IEEE doubles,
#: not a tolerance (tests check the libm premise on every such binade).
_LINEAR_BOUND = 2.0**-54


def _dropped_cells_bound(count: int, c: float, f_first: float) -> float:
    """sigma: how far from zero the rounded suffix sum of `count` cells
    c*(stencil) can be when every stencil reads only closed-form tail
    points of d_{size-1}, size > 2, from the one that holds f_first on.

    The tail decreases there: its log falls by at least (size-2)*h per
    point, far more than log1p and exp err, so each point is at most
    f_first up to exp's own few ulps.  So each cell is at most
    34*c*f_first exactly: 34 is the largest sum of |stencil weights|,
    the one-sided last cell's (the interior stencil's is 28).  Each of
    the at most eight roundings that make a cell and add it to the sum
    costs a relative 2^-53 while its result is normal, or at most
    2^-1075 (half the smallest subnormal) below that.  For any grid that
    fits in memory (count < 2^40) the sum is thus within
    count*(34*c*f_first*(1 + 2^-12) + 8*2^-1075) of zero, and 64 and
    2^-1068 leave room for exp's error and for rounding sigma itself.
    """
    return count * (64.0 * c * f_first + 2.0**-1068)


def _cut_log(grid_n: int) -> float:
    """The log floor of the cut at Q in _deficit_sweeps."""
    return _TAIL_GRAFT_LOG - math.log(3 * grid_n) - 64 * math.log(2.0)


def _deficit_sweeps(a0: float, L: int, grid_n: int) -> np.ndarray:
    """Tabulate d_L on x in [0, 1], where d_1 = a0 and
    d_size = 1 - (1 - int_x^1 d_{size-1} dy)^size for size = 2..L,
    bit for bit as sweeps over the whole grid would.

    Graft.  Where the closed form a0*size*(1-x)^(size-1) has log below
    _TAIL_GRAFT_LOG, the update is exactly linear and d_size is that
    closed form, which each sweep writes in log space; past the exact
    underflow of exp (log < _UNDERFLOW_LOG, a fact of IEEE doubles) every
    value and every cell is an exact zero.  The graft holds on a suffix
    of the grid, so only the window 0..m before it is swept.  Its suffix
    sums D still need the tail of d_{size-1}, cell by cell out to the last
    nonzero point k.

    Cut.  Each sweep first tries to leave out the far part of that tail
    (held in f), from Q, its first point with log below _cut_log(grid_n)
    = _TAIL_GRAFT_LOG - ln(3*grid_n) - 64*ln 2.  The tail is written up
    to Q + 1 and only cells 0..Q-1 are computed; the rounded sum of the
    cells Q..cells-1 left out is within sigma (_dropped_cells_bound) of
    zero, about 2^-64 of a cell at the graft.  Below about 10^18 points
    the floor lies above ln(2^-1022*grid_n) + 1: no cell left of Q is
    subnormal.  fl(a + s) is nondecreasing in a, so the full tail's sums
    lie between two chains over cells Q-1..0: one from +sigma down to
    index m + 1 into the scratch for 13 f, then one from -sigma in place
    over the cells.  Where they meet at m + 1 with a nonzero value, the
    true sum has those bits there, and every sum below repeats the same
    roundings from it, so the sums at 0..m are exactly what the full
    tail gives; where they do not (rarely), the sweep is redone on the
    full tail out to k.  Size 2 (d_1 is the constant a0, no tail to cut:
    k = grid_n, Q = 0) and every sweep where Q is within one point of
    either window, or not below k, take the full tail at once.  The
    output's own tail, subnormals included, is written once at the end.

    Linear head.  On the window, each point where y = size*clip(D, 0, 1)
    < _LINEAR_BOUND keeps y, which is what log1p and expm1 round to
    there.  The transcendentals run on the head up to the last point
    with y >= _LINEAR_BOUND, found by a mask, since D need not decrease.

    Bounds.  m, k and Q - 1 are each the last index i with
    log(a0*s) + (s-1)*log1p(-x_i) >= floor: s = size for m, s = size - 1
    for k and Q, and floor _TAIL_GRAFT_LOG, _UNDERFLOW_LOG and
    _cut_log(grid_n).  In exact arithmetic that index is
    floor(grid_n * -expm1((floor - log(a0*s))/(s-1))), and none (-1)
    when floor > log(a0*s).  Two loops step that guess to the float
    predicate, which is monotone in i, so the result does not depend on
    the guess.
    """
    h = 1.0 / grid_n
    c = h / 24.0
    log1mx = np.linspace(0.0, 1.0, grid_n + 1)
    with np.errstate(divide="ignore"):
        np.log1p(np.negative(log1mx, out=log1mx), out=log1mx)  # in place: no second grid
    q_floor = _cut_log(grid_n)

    def last_at_least(la, s, floor):
        # the last index i with la + (s-1)*log1mx[i] >= floor, la = log(a0*s)
        if floor > la:
            return -1
        i = int(grid_n * -math.expm1((floor - la) / (s - 1)))
        while i < grid_n and la + (s - 1) * log1mx.item(i + 1) >= floor:
            i += 1
        while i >= 0 and not la + (s - 1) * log1mx.item(i) >= floor:
            i -= 1
        return i

    # f holds d_{size-1}: swept values on 0..w-1, then the closed-form
    # tail.  The two other buffers are scratch for one sweep.
    f = np.full(grid_n + 4, a0)
    f13, seg = np.empty(grid_n + 4), np.empty(grid_n + 4)
    w = grid_n + 1

    def write_tail(la, s, lo, hi):
        # f[lo:hi] = exp(la + (s-1)*log1mx[lo:hi]), la = log(a0*s), in place
        t = np.multiply(log1mx[lo:hi], s - 1, out=f[lo:hi])
        np.add(t, la, out=t)
        np.exp(t, out=t)

    la = math.log(a0)
    with np.errstate(divide="ignore"):
        for size in range(2, L + 1):
            la_prev, la = la, math.log(a0 * size)
            m = last_at_least(la, size, _TAIL_GRAFT_LOG)
            if m < 0:
                w = 0
                continue
            if size == 2:
                k, q = grid_n, 0
            else:
                k = last_at_least(la_prev, size - 1, _UNDERFLOW_LOG)
                q = last_at_least(la_prev, size - 1, q_floor) + 1
            if k >= grid_n - 3:
                n, cells = grid_n + 1, grid_n
            else:
                # three zero points past k complete the interior stencils;
                # the slice's own one-sided last cell is not a cell of the grid
                n, cells = k + 4, k + 2
            # the cut at q, then (if its chains did not meet) the full tail
            for top in (q, k) if max(w, m + 1) + 1 < q < k else (k,):
                if top == k:
                    write_tail(la_prev, size - 1, w, k + 1)
                    f[k + 1 : n] = 0.0
                    _segment_integrals(f[:n], h, seg, f13)
                    # suffix sums seg[cells-1] + ... + seg[i] into seg[i], in that order
                    np.add.accumulate(seg[cells - 1 :: -1], out=seg[cells - 1 :: -1])
                    break
                write_tail(la_prev, size - 1, w, q + 2)
                # cells 0..q-1; the slice's one-sided last cell q is
                # overwritten by each chain's starting value
                _segment_integrals(f[: q + 2], h, seg, f13)
                sigma = _dropped_cells_bound(cells - q, c, f.item(q - 1))
                seg[q] = sigma
                np.add.accumulate(seg[q:m:-1], out=f13[q:m:-1])
                seg[q] = -sigma
                np.add.accumulate(seg[q::-1], out=seg[q::-1])
                if seg.item(m + 1) == f13.item(m + 1) != 0.0:
                    break
            # d_size = -expm1(size * log1p(-clip(D, 0, 1))) on the window, D the sums
            # in seg, written over the head of f, which they no longer need; past the
            # last point b - 1 with size*D >= _LINEAR_BOUND it is the product size*D
            w = m + 1
            t = seg[:w].clip(0.0, 1.0, out=seg[:w])
            y = np.multiply(t, size, out=f[:w])
            big = (y >= _LINEAR_BOUND).nonzero()[0]
            b = int(big[-1]) + 1 if big.size else 0
            t = np.negative(t[:b], out=t[:b])
            np.log1p(t, out=t)
            np.multiply(t, size, out=t)
            np.expm1(t, out=t)
            np.negative(t, out=f[:b])
    write_tail(la, L, w, grid_n + 1)
    return f[: grid_n + 1]


def tree_gf(lam: float, L: int, grid_n: int) -> GridFunction:
    """Tabulate G(lam, x, L) = E^x[exp(-lam * Theta)] on x in [0, 1]."""
    if not (math.isfinite(lam) and lam >= 0):
        raise ValueError(f"lam must be finite and >= 0, got {lam}")
    if L < 1:
        raise ValueError(f"L must be >= 1, got {L}")
    if grid_n < 64:
        raise ValueError(f"grid_n must be >= 64, got {grid_n}")
    if lam == 0.0:
        return GridFunction(1.0, np.ones(grid_n + 1))
    # Iterate on the deficit d = 1 - G.  Storing G itself rounds tail
    # deficits below 1e-16 to zero, and the size-th power amplifies that
    # truncation inward until the whole solution collapses to 1.
    # x + int_x^1 G dy = 1 - int_x^1 d dy, so the update is
    # d <- 1 - (1 - D)^size with D the suffix integral of d, from
    # d_1 = 1 - exp(-lam) = c*lam.
    #
    # The far tail of d still underflows double precision near x = 1, and
    # the resulting hard zeros starve the suffix integral just left of
    # them; that deficit compounds sweep over sweep and the dead zone
    # propagates leftward until it reaches the x ~ 1/L layer (visible as
    # a sharp breakdown once L is in the thousands).  Where the deficit
    # is that small the update linearizes exactly, and the linearized
    # sweep maps c*lam*n*(1-x)^(n-1) to c*lam*(n+1)*(1-x)^n, so
    # _deficit_sweeps grafts that closed form there, which stops the
    # error wave at its source.
    c = -math.expm1(-lam) / lam
    d = _deficit_sweeps(c * lam, L, grid_n)
    return GridFunction(1.0, 1.0 - d)


def existence_prob(L: int, grid_n: int) -> GridFunction:
    """Tabulate p(x, L) = P^x(Theta >= 1) on x in [0, 1]."""
    if L < 1:
        raise ValueError(f"L must be >= 1, got {L}")
    if grid_n < 64:
        raise ValueError(f"grid_n must be >= 64, got {grid_n}")
    # p(x, L) = 1 - (1 - int_x^1 p(y, L-1) dy)^L from p(x, 1) = 1: the
    # deficit recursion of tree_gf with d_1 = 1, closed-form tail
    # size*(1-x)^(size-1) included.
    p = _deficit_sweeps(1.0, L, grid_n)
    return GridFunction(1.0, p)


def p_star(L: int, grid_n: int) -> float:
    """P*(Theta >= 1) = int_0^1 p(x, L) dx, by trapezoid on the grid."""
    return existence_prob(L, grid_n).integral()


def _fk_grid(z_max: float, grid_n: int) -> np.ndarray:
    if not (math.isfinite(z_max) and z_max > 0):
        raise ValueError(f"z_max must be positive and finite, got {z_max}")
    if grid_n < 64:
        raise ValueError(f"grid_n must be >= 64, got {grid_n}")
    return np.linspace(0.0, z_max, grid_n + 1)


def _fk_iterates(zs: np.ndarray):
    """F_0, F_1, ... on the uniform grid zs (from 0), computed as consumed."""
    h = zs[-1] / (len(zs) - 1)
    f = np.exp(-zs)
    integrand = np.empty_like(f)
    integrand[0] = 1.0  # removable singularity: (1 - F(z))/z -> 1
    while True:
        yield f
        integrand[1:] = (1.0 - f[1:]) / zs[1:]
        f = np.exp(-_prefix_integral(integrand, h))


def fk_iterate(k: int, z_max: float, grid_n: int) -> GridFunction:
    """Tabulate the cascade fixed-point iterate F_k on z in [0, z_max]."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    f = next(itertools.islice(_fk_iterates(_fk_grid(z_max, grid_n)), k, None))
    return GridFunction(z_max, f)


def fk_limit_gap(gf: GridFunction) -> float:
    """sup over the grid of |F_k(z) - 1/(1+z)|, the distance of an
    iterate from the fixed point."""
    return float(np.abs(gf.values - 1.0 / (1.0 + gf.xs)).max())


_DELTA_Z_MIN = 0.25
_DELTA_TOLERANCE = 1e-2


@dataclass(frozen=True)
class DeltaBoundReport:
    """Result of checking 0 <= delta_k <= M for all k <= k_max, where
    delta_k(z) = 2^k (1+z)^3/z^2 * (1/(1+z) - F_k(z)) and M = sup delta_0.

    The check runs on z >= z_min (_DELTA_Z_MIN): below that the 2^k/z^2
    amplification turns quadrature round-off into noise, which is what
    `tolerance` (_DELTA_TOLERANCE) budgets for on the checked range.
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


def delta_bound_check(k_max: int, z_max: float, grid_n: int) -> DeltaBoundReport:
    """Evaluate the delta_k envelope numerically and report violations."""
    z_min, tolerance = _DELTA_Z_MIN, _DELTA_TOLERANCE
    if k_max < 0:
        raise ValueError(f"k_max must be >= 0, got {k_max}")
    if z_max < z_min:
        raise ValueError(f"z_max = {z_max} is below z_min = {z_min}: no grid point to check")
    zs = _fk_grid(z_max, grid_n)
    sel = zs >= z_min
    z = zs[sel]
    limit = 1.0 / (1.0 + z)
    with np.errstate(over="ignore", invalid="ignore"):
        amp = (1.0 + z) ** 3 / z**2
    if not np.isfinite(amp).all():
        raise ValueError(f"z_max = {z_max} makes the amplitude (1+z)^3/z^2 overflow on the grid")
    # |delta_k - M| <= 2^(k_max+1) * max(amp) for every k: refuse a k_max at which
    # that bound, a power of two times a double, passes the largest double
    if k_max + 1 + math.frexp(amp.max())[1] > np.finfo(float).maxexp:
        raise ValueError(f"k_max = {k_max} makes 2^k (1+z)^3/z^2 overflow on the grid")
    violations = []
    max_upper = -math.inf
    max_lower = -math.inf
    M = math.nan
    for k, f in zip(range(k_max + 1), _fk_iterates(zs)):
        delta = 2.0**k * amp * (limit - f[sel])
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
