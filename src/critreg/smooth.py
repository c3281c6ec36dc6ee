"""Floating-point checks of the distortion lemma for interval diffeomorphisms.

The lemma (the Holder-sum step of Deroin, Kleptsyn and Navas, Acta Math.
199, 2007): if log Dg is alpha-Holder with constant C, then for x, y in an
interval J

    |log Dg^k(x) - log Dg^k(y)| <= C * sum_{i<k} |g^i J|^alpha
                                <= C * |I|^alpha * k^(1-alpha).

The first step needs no disjointness: by the chain rule log Dg^k(x) is
sum_{i<k} log Dg(g^i x), and g^i x and g^i y both lie in g^i J, so the
Holder bound on each image gives it for any J.  The second step holds when
J = [x0, g(x0)] is a fundamental domain, whose images g^i J are pairwise
disjoint, by concavity of t -> t^alpha and sum_i |g^i J| <= |I|.
``fundamental_domain_check`` advances a grid of J forward and tests the
first step along that one orbit; it returns the sums sum_{i<k} |g^i J| as
measured values.  Grid variations are lower bounds on the true ones and C
is a grid estimate, so the first inequality is tested as a necessary
condition.  Derivative products are accumulated in log space so iterate
counts in the tens of thousands cannot overflow.

Four arguments make the float results exact where it matters:

- The Holder estimate needs the largest ratio |ld_j - ld_i| / |x_j - x_i|^alpha
  over all grid pairs.  Entry (i, j) and entry (j, i) of the pair matrix
  are the same floats, since rounded subtraction is antisymmetric and both
  sides take absolute values, and the diagonal contributes 0; so only the
  pairs (i, i + k), k >= 1, count.  For each offset k a first pass takes
  M_k, the largest numerator, and G_k, the least gap, and the bound
  U_k = M_k / G_k^alpha * ``HOLDER_SLACK`` is at least every computed
  ratio at that offset (see ``HOLDER_SLACK``).  The offsets are then
  visited by descending U_k, each one's ratios computed exactly as the
  full matrix computes them, until U_k is at most the best ratio so far:
  no skipped offset can raise the maximum.  An offset whose U_k is not a
  finite float (a NaN, a zero gap, a power below the normal range) is
  always computed, so NaN and inf reach the result as in the full matrix.
- When the grid is an exact progression x_i = i h with h a power of two,
  as ``linspace(0, 1, 2^m + 1)`` is, every x_(i+k) = (i + k) h and k h =
  x_k are floats, so the subtraction x_(i+k) - x_i is exact and every
  pair at offset k has the gap G_k = x_k.  The first pass then takes M_k
  alone; on any other grid it takes G_k as well.
- The grid of J starts at x0 and ends at the float g(x0).  ``f`` acts
  elementwise, so after k steps the left end of the orbit is g^k applied
  to x0 and the right end is g^(k-1) applied to that same float g(x0):
  the right end of g^(k-1) J equals the left end of g^k J bit for bit.
  The images form one chain of shared endpoints.  On the parabolic maps
  every rounded step fl(x + c x^2 (1-x)^2) is at least x, so the chain is
  monotone, the images are disjoint and their lengths telescope to
  |g^k(x0) - x0| <= |I|.
- The positions x_(k+1) = clip(g(x_k)) do not depend on the derivative,
  so the orbit moves the points alone, without the clip, for
  ``ORBIT_BLOCK_STEPS`` steps and checks the block once.
  ``np.maximum(v, a)`` returns v itself when v > a, ``np.minimum(v, b)``
  does when v < b, and NaN passes through both, so a block whose
  positions all lie strictly inside (a, b), or are NaN, holds the clipped
  floats.  Any other block is taken again from its first row with the
  clip at every step; touching an end is enough, since at v = a the clip
  returns a, which is +0.0 when v is -0.0.  The parabolic maps never
  leave (0, 1), so they take no second pass.  The orbit then takes Dg,
  its positivity check and its log at all the block's positions at once;
  ``df`` and ``log`` act elementwise, so each value is the float a
  per-step call gives.  Each row of logs then gets the row before it
  added, the carried log product first: the same additions in the same
  order as a per-step running sum.  A nonpositive derivative raises at
  the end of its block, before any result is returned.

The orbit works in arrays it allocates once per call: the block's position
rows and its log rows, each with a row 0 that carries the block's start.
Each step writes g straight into the next position row, and Dg and its log
are taken in the log rows (``f`` and ``df`` take numpy's ``out=``), so no
step copies a row and a block allocates no block-sized array but the one
temporary of ``df``.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

# `fundamental_domain_check` refuses a midpoint this close to its image
FIXED_POINT_TOL = 1e-10
# a row holds at k while bound - value >= -GROWTH_TOL
GROWTH_TOL = 1e-12
# grid rows whose pairs the Holder bound pass takes at once, in one buffer
# of 64 x (grid + 64) floats (0.56 MB at the 1025-point grid) that the
# numerators and then, on a grid that is not an exact progression, the
# gaps reuse
HOLDER_BLOCK_ROWS = 64
# Every computed ratio fl(fl(|ld_(i+k) - ld_i|) / fl(fl(|x_(i+k) - x_i|)^alpha))
# at offset k is at most U_k = fl(fl(M_k / fl(G_k^alpha)) * HOLDER_SLACK)
# whenever fl(G_k^alpha) is a normal float, by ulp accounting (u = 2^-53;
# each power within 2^8 ulp, e = 2^-44 relative, of the true one: glibc
# documents 1 ulp for pow, as `lattice.MARGIN` assumes, and numpy's SIMD
# power loops read within 1 ulp of glibc on an AVX-512 x86-64 host).
# The numerators and gaps are the same floats in both, and x -> x^alpha
# increases, so a ratio is at most M_k / (G_k^alpha (1 - e)) * (1 + u),
# while U_k is at least M_k / (G_k^alpha (1 + e)) * (1 - u)^2 * SLACK.
# SLACK >= (1 + e)(1 + u) / ((1 - e)(1 - u)^2), about 1 + 2^-43, suffices.
HOLDER_SLACK = 1.0 + 2.0 ** -40
# orbit steps whose derivatives are taken at once (128 x 257 floats, 0.26 MB).
# A block-sized array is past glibc's 128 KiB mmap threshold, so each new one
# is a fresh mapping whose pages fault on first touch (about 225 minor faults
# per 750-step dynamics op when every block allocated its own); the orbit
# allocates its block arrays once per call and works in them
ORBIT_BLOCK_STEPS = 128


class _SmoothMapFields(NamedTuple):
    name: str
    f: Callable[[np.ndarray], np.ndarray]
    df: Callable[[np.ndarray], np.ndarray]
    a: float
    b: float
    fixed_points: tuple[float, ...] = ()


class SmoothMap(_SmoothMapFields):
    """Closed-form interval map with derivative access.

    ``f`` and ``df`` act elementwise on float64 arrays of any shape and on
    ``np.float64`` scalars, and treat -0.0 and +0.0 alike.  Each takes
    numpy's ``out=`` convention: ``f(x, out=y)`` writes the values into y,
    an array of x's shape that is not x, and returns y; without ``out`` it
    returns a new array (a scalar for a scalar).  The orbit passes ``out``;
    g(x0) and the fixed-point checks do not.  The orbit clips a block only
    after stepping it, so ``f`` can also meet points outside [a, b] that an
    earlier step of the block reached.
    """

    __slots__ = ()

    def __new__(
        cls, name: str, f: Callable[[np.ndarray], np.ndarray],
        df: Callable[[np.ndarray], np.ndarray], a: float, b: float,
        fixed_points: tuple[float, ...] = (),
    ) -> SmoothMap:
        if not a < b:
            raise ValueError("need a < b")
        for p in fixed_points:
            if float(f(np.float64(p))) != p:
                raise ValueError(f"declared fixed point {p} moves under the map")
        return tuple.__new__(cls, (name, f, df, a, b, fixed_points))

    def grid(self, n: int) -> np.ndarray:
        return np.linspace(self.a, self.b, n)


def parabolic_map(c: float) -> SmoothMap:
    """x + c*x^2*(1-x)^2 on [0,1]: both endpoints parabolic, no interior
    fixed points, derivative positive for c < 3*sqrt(3).

    ``f`` and ``df`` below work in ``out``, or in a new array, and one
    temporary, with the operations and order of ``x + c * x ** 2 * (1 - x) ** 2``
    and ``1 + 2 * c * x * (1 - x) * (1 - 2 * x)``; IEEE + and * commute, so
    every value rounds as in those expressions.  An array's ``** 2`` is
    ``np.square``, so ``f`` squares into ``out`` with it; without ``out``
    the squares stay ``** 2`` and ``**= 2``: on an ``np.float64`` scalar
    they call libm ``pow``, which can differ from ``x * x`` by one ulp
    (x = 0.2518727338099447), so ``x * x`` or ``np.square`` would move
    g(x0) on some intervals."""
    if not 0 < c < 4:
        raise ValueError("parameter must lie in (0, 4)")

    def f(x, out=None):
        y = x ** 2 if out is None else np.square(x, out=out)
        y *= c
        t = 1 - x
        t **= 2
        y *= t
        y += x
        return y

    def df(x, out=None):
        y = np.multiply(2 * c, x, out=out)
        t = np.empty(np.shape(x))  # an array even for a scalar x, to hold both factors
        y *= np.subtract(1, x, out=t)
        y *= np.subtract(1, np.multiply(2, x, out=t), out=t)
        y += 1
        return y

    return SmoothMap(f"parabolic({c})", f, df, 0.0, 1.0, (0.0, 1.0))


# ---------------------------------------------------------------------------
# iterate derivatives
# ---------------------------------------------------------------------------


def _require_positive(d: np.ndarray) -> None:
    # fmin skips NaN, which is not <= 0 either
    if np.fmin.reduce(d, axis=None) <= 0:
        raise ValueError("derivative must stay positive")


def _exact_progression(x: np.ndarray) -> bool:
    """Whether x_i = i h for every i, with h = x_1 a power of two."""
    return len(x) > 1 and np.frexp(x[1])[0] == 0.5 and np.array_equal(
        x, np.arange(len(x)) * x[1])


def holder_constant_estimate(g: SmoothMap, alpha: float, grid: int = 1025) -> float:
    """Grid-pair estimate C of the Holder constant of log(Dg)."""
    if not 0 < alpha <= 1:
        raise ValueError("exponent must lie in (0, 1]")
    x = g.grid(grid)
    d = g.df(x)
    _require_positive(d)
    ld = np.log(d)
    # row block [r0, r1) against columns r0.. writes |v_j - v_i| at row i,
    # column j - r0, of a block `wide` columns wide; read with one more
    # element per row, the same memory has offset j - i down each column.
    # Columns past the grid are padding that neither max nor min picks, so
    # a NaN still passes on
    top = np.full(grid, -np.inf)  # M_k
    passes = [(ld, -np.inf, np.maximum, top)]
    if _exact_progression(x):
        gap = x  # G_k = x_k, see the module docstring
    else:
        gap = np.full(grid, np.inf)
        passes.append((x, np.inf, np.minimum, gap))
    buf = np.empty(HOLDER_BLOCK_ROWS * (grid + HOLDER_BLOCK_ROWS + 1))
    for r0 in range(0, grid, HOLDER_BLOCK_ROWS):
        rows, width = min(HOLDER_BLOCK_ROWS, grid - r0), grid - r0
        wide = width + rows
        block = buf[: rows * wide].reshape(rows, wide)
        skew = buf[: rows * (wide + 1)].reshape(rows, wide + 1)[:, :width]
        for v, pad, fold, out in passes:
            np.subtract(v[r0:], v[r0 : r0 + rows, None], out=block[:, :width])
            np.abs(block[:, :width], out=block[:, :width])
            block[:, width:] = pad
            fold(out[:width], fold.reduce(skew, axis=0), out=out[:width])
    power = gap[1:] ** alpha
    with np.errstate(divide="ignore", invalid="ignore"):
        bound = np.where(power >= np.finfo(float).tiny, top[1:] / power * HOLDER_SLACK, np.inf)
    # NaN sorts last, so descending order visits NaN, then inf, first
    best = np.float64(0.0)
    for k in np.argsort(bound)[::-1] + 1:
        if np.isnan(best) or (bound[k - 1] <= best and bound[k - 1] < np.inf):
            break
        ratio = np.abs(ld[k:] - ld[:-k]) / np.abs(x[k:] - x[:-k]) ** alpha
        best = np.maximum(best, ratio.max())
    return float(best)


class Slack(NamedTuple):
    """The least of bound - value over k = 1..k_max, the first k where it
    falls below -GROWTH_TOL (None when the row holds for every k), and the
    bound at k = k_max."""

    least: float
    first_failure: int | None
    last_bound: float

    @property
    def passed(self) -> bool:
        return self.first_failure is None


class DomainReport(NamedTuple):
    """The dynamics row and the wandering sums of one forward orbit of
    J = [x0, g(x0)]."""

    distortion: Slack  # C * sum_{i<k} |g^i J|^alpha - var_J log Dg^k
    partial_sums: tuple[float, ...]  # sum_{i<k} |g^i J| for k = 1..k_max


def _domain_orbit(g: SmoothMap, k_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Advance 257 points of J = [x0, g(x0)], x0 the midpoint of I, k_max
    steps forward.  Returns var_J log Dg^k for k = 1..k_max (max - min over
    the grid) and the (left, right) ends of g^k J for k = 0..k_max."""
    x0 = 0.5 * (g.a + g.b)
    rows = min(k_max, ORBIT_BLOCK_STEPS)
    # positions, then the running log products of the block's steps; row 0
    # of each carries the block's start.  One allocation: once it is freed,
    # glibc serves allocations up to its size from the heap, so the next
    # call's arrays and the block temporary of df fault no fresh pages in
    pos, logs = np.empty((2, rows + 1, 257))
    # the rows as views, taken once: indexing costs as much as a row's add
    pos_rows, log_rows = list(pos), list(logs)
    pos[0] = np.linspace(x0, float(g.f(np.float64(x0))), 257)
    logs[0] = 0.0
    variation = np.empty(k_max)
    ends = np.empty((k_max + 1, 2))
    ends[0] = pos[0, 0], pos[0, -1]
    for k0 in range(0, k_max, ORBIT_BLOCK_STEPS):
        steps = min(ORBIT_BLOCK_STEPS, k_max - k0)
        for x, y in zip(pos_rows, pos_rows[1 : steps + 1]):
            g.f(x, out=y)
        moved = pos[1 : steps + 1]
        # fmin and fmax skip NaN, which the clip passes on as well
        lo, hi = np.fmin.reduce(moved, axis=None), np.fmax.reduce(moved, axis=None)
        if not (g.a < lo and hi < g.b):
            for x, y in zip(pos_rows, pos_rows[1 : steps + 1]):
                np.minimum(np.maximum(g.f(x, out=y), g.a, out=y), g.b, out=y)
        block = logs[1 : steps + 1]
        g.df(pos[:steps], out=block)
        _require_positive(block)
        np.log(block, out=block)
        for carried, y in zip(log_rows, log_rows[1 : steps + 1]):
            np.add(carried, y, out=y)
        np.ptp(block, axis=1, out=variation[k0 : k0 + steps])
        ends[k0 + 1 : k0 + steps + 1] = moved[:, [0, -1]]
        pos[0] = pos[steps]
        logs[0] = logs[steps]
    return variation, ends


def fundamental_domain_check(
    g: SmoothMap, alpha: float, c: float, k_max: int
) -> DomainReport:
    """Test, for every k <= k_max on the forward orbit of J,
    var_J log Dg^k <= C * sum_{i<k} |g^i J|^alpha, with C = ``c`` the
    Holder constant of log Dg, and measure sum_{i<k} |g^i J|.
    """
    if not 0 < alpha <= 1:
        raise ValueError("exponent must lie in (0, 1]")
    x0 = 0.5 * (g.a + g.b)
    if abs(float(g.f(np.float64(x0))) - x0) <= FIXED_POINT_TOL:
        raise ValueError(f"{x0} is (numerically) a fixed point")
    variation, ends = _domain_orbit(g, k_max)
    lengths = np.abs(ends[:-1, 1] - ends[:-1, 0])
    holder_sum = c * np.cumsum(lengths ** alpha)
    slack = holder_sum - variation
    # a NaN slack is not >= -GROWTH_TOL, so it fails
    failing = np.flatnonzero(~(slack >= -GROWTH_TOL))
    distortion = Slack(float(slack.min()), int(failing[0]) + 1 if len(failing) else None,
                       float(holder_sum[-1]))
    return DomainReport(distortion, tuple(np.cumsum(lengths).tolist()))
