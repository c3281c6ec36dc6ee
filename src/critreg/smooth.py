"""Floating-point checks of the distortion lemma for interval diffeomorphisms.

The lemma (the Holder-sum step of Deroin, Kleptsyn and Navas, Acta Math.
199, 2007): if log Dg is alpha-Holder with constant C and J = [x0, g(x0)]
is a fundamental domain, the images g^i J are pairwise disjoint, so for
x, y in J

    |log Dg^k(x) - log Dg^k(y)| <= C * sum_{i<k} |g^i J|^alpha
                                <= C * |I|^alpha * k^(1-alpha),

the second step by concavity of t -> t^alpha and sum_i |g^i J| <= |I|.
``fundamental_domain_check`` advances a grid of J forward and reads every
dynamics row from that one orbit.  Grid variations are lower bounds on the
true ones and C is a grid estimate, so the first inequality is tested as a
necessary condition.  Derivative products are accumulated in log space so
iterate counts in the tens of thousands cannot overflow.

Two arguments make the float results exact where it matters:

- The Holder estimate needs the largest ratio over all grid pairs. Entry
  (i, j) and entry (j, i) of the pair matrix are the same floats, since
  rounded subtraction is antisymmetric and both sides take absolute
  values, and the diagonal contributes 0. So only the strict upper
  triangle is evaluated, in blocks of ``HOLDER_BLOCK_ROWS`` rows.
- The grid of J starts at x0 and ends at the float g(x0).  ``f`` acts
  elementwise, so after k steps the left end of the orbit is g^k applied
  to x0 and the right end is g^(k-1) applied to that same float g(x0):
  the right end of g^(k-1) J equals the left end of g^k J bit for bit.
  The images then form one chain of shared endpoints, and disjointness is
  an exact check that the chain is monotone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

FIXED_POINT_TOL = 1e-10
# a row holds at k while bound - value >= -GROWTH_TOL
GROWTH_TOL = 1e-12
# rows of the Holder pair matrix evaluated at once (64 x 1025 floats = 0.5 MB)
HOLDER_BLOCK_ROWS = 64


@dataclass(frozen=True)
class SmoothMap:
    """Closed-form interval map with derivative access.

    ``f`` and ``df`` act elementwise on float64 arrays, treat -0.0 and
    +0.0 alike and return new arrays, which the orbit step overwrites.
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
class Slack:
    """The least of bound - value over k = 1..k_max, and the first k where
    it falls below -GROWTH_TOL (None when the row holds for every k)."""

    least: float
    first_failure: int | None

    @property
    def passed(self) -> bool:
        return self.first_failure is None


def _slack(bound: np.ndarray, value: np.ndarray) -> Slack:
    slack = bound - value
    # a NaN slack is not >= -GROWTH_TOL, so it fails
    failing = np.flatnonzero(~(slack >= -GROWTH_TOL))
    return Slack(float(slack.min()), int(failing[0]) + 1 if len(failing) else None)


@dataclass(frozen=True)
class DomainReport:
    """The dynamics rows of one forward orbit of J = [x0, g(x0)]."""

    distortion: Slack  # C * sum_{i<k} |g^i J|^alpha - var_J log Dg^k
    closed_form: Slack  # C * |I|^alpha * k^(1-alpha) - C * sum_{i<k} |g^i J|^alpha
    disjoint: bool  # g^i J, i = 0..k_max, pairwise disjoint
    partial_sums: tuple[float, ...]  # sum_{i<k} |g^i J| for k = 1..k_max
    within_interval: bool  # the last partial sum is at most |I|


def _domain_orbit(g: SmoothMap, k_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Advance 257 points of J = [x0, g(x0)], x0 the midpoint of I, k_max
    steps forward.  Returns var_J log Dg^k for k = 1..k_max (max - min over
    the grid) and the (left, right) ends of g^k J for k = 0..k_max."""
    x0 = 0.5 * (g.a + g.b)
    x = np.linspace(x0, float(g.f(np.float64(x0))), 257)
    logprod = np.zeros_like(x)
    variation = np.empty(k_max)
    ends = np.empty((k_max + 1, 2))
    ends[0] = x[0], x[-1]
    for k in range(1, k_max + 1):
        _orbit_step(g, x, logprod)
        variation[k - 1] = np.ptp(logprod)
        ends[k] = x[0], x[-1]
    return variation, ends


def fundamental_domain_check(
    g: SmoothMap, alpha: float, c: float, k_max: int
) -> DomainReport:
    """Test, for every k <= k_max on the forward orbit of J,
    var_J log Dg^k <= C * sum_{i<k} |g^i J|^alpha <= C * |I|^alpha * k^(1-alpha),
    with C = ``c`` the Holder constant of log Dg; also that the images g^i J,
    i <= k_max, are disjoint and that the k_max images g^i J, i < k_max,
    have lengths summing to at most |I|.
    """
    if not 0 < alpha < 1:
        raise ValueError("exponent must lie in (0, 1)")
    x0 = 0.5 * (g.a + g.b)
    if abs(float(g.f(np.float64(x0))) - x0) <= FIXED_POINT_TOL:
        raise ValueError(f"{x0} is (numerically) a fixed point")
    variation, ends = _domain_orbit(g, k_max)
    left, right = ends[:, 0], ends[:, 1]
    steps = right - left
    # open intervals: shared endpoints and (converged) empty images are fine
    disjoint = np.array_equal(left[1:], right[:-1]) and (
        bool((steps >= 0).all()) or bool((steps <= 0).all())
    )
    lengths = np.abs(steps[:-1])
    holder_sum = c * np.cumsum(lengths ** alpha)
    ks = np.arange(1, k_max + 1, dtype=float)
    closed_form = c * g.length ** alpha * ks ** (1.0 - alpha)
    sums = np.cumsum(lengths)
    return DomainReport(
        _slack(holder_sum, variation),
        _slack(closed_form, holder_sum),
        disjoint,
        tuple(sums.tolist()),
        bool(sums[-1] <= g.length + 1e-12),
    )
