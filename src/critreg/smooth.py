"""Floating-point checks for derivative growth of interval diffeomorphisms.

Derivative products along orbits are accumulated in log space so iterate
counts in the tens of thousands cannot overflow; grid maxima are always
lower bounds on the true suprema, so the growth bound below is tested as a
necessary consequence.

Two shortcuts return exactly the floats of the plain computation:

- The Holder estimate needs the largest ratio over all grid pairs. Entry
  (i, j) and entry (j, i) of the pair matrix are the same floats, since
  rounded subtraction is antisymmetric and both sides take absolute
  values, and the diagonal contributes 0. So only the strict upper
  triangle is evaluated, in blocks of ``HOLDER_BLOCK_ROWS`` rows.
- The derivative sweep only reports, for each k, the grid maximum of the
  log-product and whether some derivative was non-positive. Once two
  adjacent orbits are bit-identical they see the same derivatives for
  ever after (``f`` and ``df`` act elementwise), and rounded addition is
  monotone: a <= b implies fl(a + c) <= fl(b + c). So every
  ``MERGE_EVERY`` steps a run of bit-identical orbits is replaced by one
  orbit carrying the run's largest log-product, and every later maximum
  and positivity test is that of the full grid. Orbits are compared as
  int64 bit patterns, so -0.0 and +0.0 never merge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

FIXED_POINT_TOL = 1e-10
PARABOLIC_TOL = 1e-9
# a growth bound holds at k while log(bound) - log(grid max) >= -GROWTH_TOL
GROWTH_TOL = 1e-12
# rows of the Holder pair matrix evaluated at once (64 x 1025 floats = 0.5 MB)
HOLDER_BLOCK_ROWS = 64
# steps of the derivative sweep between merges of bit-identical orbits
MERGE_EVERY = 16


class HyperbolicFixedPointError(ValueError):
    """A declared fixed point has derivative away from 1."""


@dataclass(frozen=True)
class SmoothMap:
    """Closed-form interval map with derivative access.

    ``f`` and ``df`` act elementwise on float64 arrays, treat -0.0 and
    +0.0 alike and return new arrays, which the orbit sweeps overwrite;
    ``f`` also takes a Python float, as the bisection in
    ``wandering_sum_check`` calls it on one.
    """

    name: str
    f: Callable[[np.ndarray], np.ndarray]
    df: Callable[[np.ndarray], np.ndarray]
    a: float
    b: float
    fixed_points: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if not self.a < self.b:
            raise ValueError("need a < b")
        for p in self.fixed_points:
            if abs(float(self.f(np.float64(p))) - p) > FIXED_POINT_TOL:
                raise ValueError(f"declared fixed point {p} moves under the map")

    @property
    def length(self) -> float:
        return self.b - self.a

    def grid(self, n: int) -> np.ndarray:
        return np.linspace(self.a, self.b, n)


def parabolic_map(c: float) -> SmoothMap:
    """x + c*x^2*(1-x)^2 on [0,1]: both endpoints parabolic, no interior
    fixed points, derivative positive for c < 3*sqrt(3)."""
    if not 0 < c < 4:
        raise ValueError("parameter must lie in (0, 4)")
    return SmoothMap(
        f"parabolic({c})",
        lambda x: x + c * x ** 2 * (1 - x) ** 2,
        lambda x: 1 + 2 * c * x * (1 - x) * (1 - 2 * x),
        0.0,
        1.0,
        (0.0, 1.0),
    )


def doubling_fixed_point_map() -> SmoothMap:
    """2x/(1+x) on [0,1]: hyperbolic at 0 with derivative 2."""
    return SmoothMap(
        "mobius-doubling",
        lambda x: 2 * x / (1 + x),
        lambda x: 2 / (1 + x) ** 2,
        0.0,
        1.0,
        (0.0, 1.0),
    )


# ---------------------------------------------------------------------------
# iterate derivatives
# ---------------------------------------------------------------------------


def _require_positive(d: np.ndarray) -> None:
    # fmin skips NaN, which is not <= 0 either
    if np.fmin.reduce(d) <= 0:
        raise ValueError("derivative must stay positive")


def _orbit_step(g: SmoothMap, x: np.ndarray, logprod: np.ndarray) -> None:
    """Add log Dg(x) to logprod, then move x to g(x) clipped to [a, b], in place."""
    d = g.df(x)
    _require_positive(d)
    logprod += np.log(d, out=d)
    np.minimum(np.maximum(g.f(x), g.a, out=x), g.b, out=x)


def _merge_equal_orbits(
    x: np.ndarray, logprod: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Collapse each run of adjacent bit-identical orbits to one, keeping
    the run's largest log-product."""
    bits = x.view(np.int64)
    starts = np.flatnonzero(bits[1:] != bits[:-1]) + 1
    if len(starts) == len(x) - 1:
        return x, logprod
    starts = np.concatenate(([0], starts))
    return x[starts], np.maximum.reduceat(logprod, starts)


def _log_derivative_sweep(g: SmoothMap, k_max: int, grid: int) -> np.ndarray:
    """max over the grid of log(Dg^k), for every k = 1..k_max."""
    x = g.grid(grid)
    logprod = np.zeros_like(x)
    out = np.empty(k_max)
    for k in range(1, k_max + 1):
        _orbit_step(g, x, logprod)
        out[k - 1] = logprod.max()
        if k % MERGE_EVERY == 0:
            x, logprod = _merge_equal_orbits(x, logprod)
    return out


@dataclass(frozen=True)
class HolderEstimate:
    alpha: float
    constant: float
    grid: int
    pairs: int


def holder_constant_estimate(
    g: SmoothMap, alpha: float, grid: int = 1025
) -> HolderEstimate:
    """Grid-pair estimate of the Holder constant of log(Dg)."""
    if not 0 < alpha <= 1:
        raise ValueError("exponent must lie in (0, 1]")
    x = g.grid(grid)
    d = g.df(x)
    _require_positive(d)
    ld = np.log(d)
    # the largest ratio over the strict upper triangle, 0 for the diagonal;
    # row block [r0, r1) against columns r0.. masks its own lower triangle;
    # np.maximum passes a NaN on, as the max of the full matrix did
    best = np.float64(0.0)
    for r0 in range(0, grid, HOLDER_BLOCK_ROWS):
        r1 = min(r0 + HOLDER_BLOCK_ROWS, grid)
        num = np.abs(ld[r0:r1, None] - ld[None, r0:])
        den = np.abs(x[r0:r1, None] - x[None, r0:]) ** alpha
        low = np.tril_indices(r1 - r0)
        num[low] = 0.0
        den[low] = 1.0
        best = np.maximum(best, (num / den).max())
    return HolderEstimate(alpha, float(best), grid, grid * (grid - 1) // 2)


@dataclass(frozen=True)
class GrowthBoundReport:
    alpha: float
    c_g: float
    k_checked: int
    all_pass: bool
    first_failure: int | None
    min_log_slack: float  # min over k of log(bound) - log(grid max)


def growth_bound_check(
    g: SmoothMap,
    alpha: float,
    k_max: int,
    grid: int = 4097,
) -> GrowthBoundReport:
    """Test  max Dg^k <= exp(3 * C * |I|^alpha * k^(1-alpha))  for k <= k_max.

    Requires every declared fixed point to be parabolic (derivative 1).
    """
    if not 0 < alpha < 1:
        raise ValueError("exponent must lie in (0, 1)")
    for p in g.fixed_points:
        dp = float(g.df(np.float64(p)))
        if abs(dp - 1.0) > PARABOLIC_TOL:
            raise HyperbolicFixedPointError(
                f"fixed point {p} has derivative {dp}, bound requires 1"
            )
    c = holder_constant_estimate(g, alpha).constant
    logmax = _log_derivative_sweep(g, k_max, grid)
    ks = np.arange(1, k_max + 1, dtype=float)
    logbound = 3.0 * c * g.length ** alpha * ks ** (1.0 - alpha)
    ok = logmax <= logbound + GROWTH_TOL
    first_fail = None if bool(ok.all()) else int(np.argmin(ok)) + 1
    return GrowthBoundReport(
        alpha,
        c,
        k_max,
        bool(ok.all()),
        first_fail,
        float((logbound - logmax).min()),
    )


def blowup_scan(g: SmoothMap, k_max: int, grid: int = 4097) -> list[int]:
    """All k <= k_max with grid-max Dg^k > k."""
    logmax = _log_derivative_sweep(g, k_max, grid)
    ks = np.arange(1, k_max + 1, dtype=float)
    return [int(k) for k, ok in zip(ks, logmax > np.log(ks)) if ok]


# ---------------------------------------------------------------------------
# wandering intervals
# ---------------------------------------------------------------------------


def _invert(g: SmoothMap, y: float, tol: float = 1e-14) -> float:
    """Preimage under the increasing map by bisection."""
    # Python floats: the same IEEE operations as np.float64, at less cost per call
    lo, hi = float(g.a), float(g.b)
    if g.f(lo) >= y:
        return lo
    if g.f(hi) <= y:
        return hi
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if g.f(mid) < y:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class WanderingReport:
    disjoint: bool
    partial_sums: tuple[float, ...]
    final_sum: float
    within_interval: bool


def wandering_sum_check(g: SmoothMap, x0: float, k_max: int) -> WanderingReport:
    """Check the backward images of (x0, g(x0)) are disjoint with summable
    lengths bounded by |I|.

    The k-th backward image has endpoints c_k, c_(k+1) on the single
    preimage orbit c_0 = g(x0), c_(k+1) = g^-1(c_k); sharing the computed
    endpoint makes disjointness an exact monotonicity check.
    """
    gx0 = float(g.f(np.float64(x0)))
    if abs(gx0 - x0) <= FIXED_POINT_TOL:
        raise ValueError(f"{x0} is (numerically) a fixed point")
    orbit = [gx0, x0]
    for _ in range(k_max):
        orbit.append(_invert(g, orbit[-1]))
    steps = [b - a for a, b in zip(orbit, orbit[1:])]
    # open intervals: shared endpoints and (converged) empty images are fine
    disjoint = all(s >= 0 for s in steps) or all(s <= 0 for s in steps)
    sums = []
    acc = 0.0
    for s in steps[1:]:  # lengths of the k >= 1 backward images
        acc += abs(s)
        sums.append(acc)
    return WanderingReport(
        disjoint,
        tuple(sums),
        acc,
        acc <= g.length + 1e-12,
    )
