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
  pairs (i, i + k), k >= 1, count.  At offset k let M_k be the largest
  numerator and G_k the least gap: U_k = M_k / G_k^alpha * ``HOLDER_SLACK``
  is at least every computed ratio at k, and stays so with M_k replaced by
  any larger float and G_k by any smaller positive one (see
  ``HOLDER_SLACK``).  Blocks give such bounds.  Fold ld into blocks of s
  consecutive points, keeping each block's max and min (``np.maximum`` and
  ``np.minimum``, which pass NaN on).  A pair (i, i + k) with i in block p
  has its other end in block q = p + floor(k/s) or q = p + ceil(k/s), the
  first alone when s divides k.  Rounding is monotone, so
  fl(ld_j - ld_i) <= fl(max_q - min_p) and fl(ld_i - ld_j) <= fl(max_p - min_q);
  the largest of these two over the block pairs (p, q) at those two
  distances bounds M_k.  With s = 1 the blocks are the points, and the
  bound is M_k itself.
  The scan takes a first best ratio from one offset's row
  (``_seed_offset``).  It bounds every offset from at most
  ``HOLDER_BLOCKS`` blocks, keeps the offsets whose bound exceeds the best
  ratio, and bounds those again from blocks ``HOLDER_SHRINK`` times
  smaller, down to s = 1, where the bound is U_k.  The offsets left are
  visited by descending U_k, each one's ratios computed exactly as the full
  matrix computes them, until U_k is at most the best ratio so far: no
  skipped offset can raise the maximum.  A bound that is not a finite
  float (a NaN, or a power of the gap below the normal range) always
  keeps its offset.  A NaN in ld makes the fold of its block
  NaN, and so the bound of every offset whose pairs hold it; so NaN and inf
  reach the result as in the full matrix.
- When the grid is an exact progression x_i = i h with h a power of two,
  as ``linspace(0, 1, 2^m + 1)`` is, every x_(i+k) = (i + k) h and k h =
  x_k are floats, so the subtraction x_(i+k) - x_i is exact and every
  pair at offset k has the gap G_k = x_k; the scan above runs on such
  grids alone.  Any other grid, such as one on an interval other than
  [0, 1] or of a size other than 2^m + 1, takes the largest ratio at
  every offset, as the full matrix does.
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
temporary of ``df``.  A step is then one ``f`` call on a 257-float row: six
ufunc calls with no scalar operand to convert (``parabolic_map``), whose
per-call overhead, not the arithmetic, is most of the orbit's time.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

# `fundamental_domain_check` refuses a midpoint this close to its image
FIXED_POINT_TOL = 1e-10
# a row holds at k while bound - value >= -GROWTH_TOL
GROWTH_TOL = 1e-12
# the Holder scan bounds every offset from at most HOLDER_BLOCKS blocks of
# the grid, keeps the offsets whose bound exceeds the best ratio so far, and
# bounds them again from blocks HOLDER_SHRINK times smaller, down to points
HOLDER_BLOCKS = 128
HOLDER_SHRINK = 4
# block differences that one pass of the scan holds (two arrays of 0.26 MB)
HOLDER_PASS = 1 << 15
# Every computed ratio fl(fl(|ld_(i+k) - ld_i|) / fl(fl(|x_(i+k) - x_i|)^alpha))
# at offset k is at most U_k = fl(fl(M_k / fl(G_k^alpha)) * HOLDER_SLACK)
# whenever fl(G_k^alpha) is a normal float, by ulp accounting (u = 2^-53;
# each power within 2^8 ulp, e = 2^-44 relative, of the true one: glibc
# documents 1 ulp for pow, as `lattice.MARGIN` assumes, and numpy's SIMD
# power loops read within 1 ulp of glibc on an AVX-512 x86-64 host).
# The numerators are at most M_k and the gaps at least G_k, and x -> x^alpha
# increases, so a ratio is at most M_k / (G_k^alpha (1 - e)) * (1 + u),
# while U_k is at least M_k / (G_k^alpha (1 + e)) * (1 - u)^2 * SLACK.
# SLACK >= (1 + e)(1 + u) / ((1 - e)(1 - u)^2), about 1 + 2^-43, suffices,
# and the same holds for U computed from any M >= M_k and 0 < G <= G_k.
HOLDER_SLACK = 1.0 + 2.0 ** -40
# orbit steps whose derivatives are taken at once (128 x 257 floats, 0.26 MB).
# A block-sized array is past glibc's 128 KiB mmap threshold, so each new one
# is a fresh mapping whose pages fault on first touch (about 225 minor faults
# per 750-step dynamics op when every block allocated its own); the orbit
# allocates its block arrays once per call and works in them
ORBIT_BLOCK_STEPS = 128


class _SmoothMapFields(NamedTuple):
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
        cls, f: Callable[[np.ndarray], np.ndarray], df: Callable[[np.ndarray], np.ndarray],
        a: float, b: float, fixed_points: tuple[float, ...] = (),
    ) -> SmoothMap:
        if not a < b:
            raise ValueError("need a < b")
        for p in fixed_points:
            if float(f(np.float64(p))) != p:
                raise ValueError(f"declared fixed point {p} moves under the map")
        return tuple.__new__(cls, (f, df, a, b, fixed_points))

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
    g(x0) on some intervals.

    ``f`` takes c and 1 as 0-d float64 arrays, built once here: numpy
    converts a Python float or an ``np.float64`` operand on every call,
    which on a 257-float orbit row costs about as much as the arithmetic,
    and takes a 0-d array as it is.  On float64 x, NEP 50 gives a 0-d
    float64 array and a Python float the same float64 loop, so every value
    rounds as in the expression, and an ``np.float64`` x still gives an
    ``np.float64``."""
    if not 0 < c < 4:
        raise ValueError("parameter must lie in (0, 4)")
    c0, one = np.array(c, dtype=np.float64), np.array(1.0)

    def f(x, out=None):
        y = x ** 2 if out is None else np.square(x, out=out)
        y *= c0
        t = one - x
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

    return SmoothMap(f, df, 0.0, 1.0, (0.0, 1.0))


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


def _blocks(v: np.ndarray, s: int) -> tuple[int, np.ndarray, np.ndarray]:
    """v in blocks of s points, for a bound at each offset k on the largest
    |v_(i+k) - v_i|: the block size and each block's max and min, each
    followed by one pad more than there are blocks."""
    if s == 1:
        hi = lo = v
    else:
        starts = np.arange(0, len(v), s)
        hi, lo = np.maximum.reduceat(v, starts), np.minimum.reduceat(v, starts)
    pad = np.full(len(hi) + 1, np.inf)
    return s, np.concatenate([hi, -pad]), np.concatenate([lo, pad])


def _skew(v: np.ndarray, d0: int, m: int, rows: int) -> np.ndarray:
    """The (m, rows) view w[d, p] = v[d0 + d + p] of a contiguous float64 v."""
    return np.ndarray((m, rows), np.float64, v, 8 * d0, (8, 8))


def _block_bound(blocks: tuple, k0: int, k1: int) -> np.ndarray:
    """The bound of ``_blocks`` at offsets k0..k1-1: the largest, over the
    block pairs (p, p + d) at d = floor(k/s) and ceil(k/s), of
    max(top_(p+d) - bottom_p, top_p - bottom_(p+d)).  A pair past the last
    block meets a pad and reads -inf, which the maximum does not pick."""
    s, top, bottom = blocks
    ks = np.arange(k0, k1)
    near, far = ks // s, -(-ks // s)
    d0 = k0 // s
    m, rows = int(far[-1]) - d0 + 1, (len(top) - 1) // 2 - d0  # blocks p < len - d0
    diff = _skew(top, d0, m, rows) - bottom[:rows]
    np.maximum(diff, top[:rows] - _skew(bottom, d0, m, rows), out=diff)
    reach = np.maximum.reduce(diff, axis=1)
    return np.maximum(reach[near - d0], reach[far - d0])


def _offset_bounds(ld: np.ndarray, x: np.ndarray, alpha: float, s: int,
                   ks: np.ndarray) -> np.ndarray:
    """U at each offset of ks from blocks of s points of ld on an exact
    progression x, inf where x_k^alpha is not a normal float; with s = 1, U_k."""
    numerators = _blocks(ld, s)
    # a pass bounds the kept offsets of one span, about HOLDER_PASS differences
    span = max(1, s * (HOLDER_PASS // (len(x) // s + 1) - 2))
    u = []
    with np.errstate(all="ignore"):
        for part in np.split(ks, np.flatnonzero(np.diff((ks - ks[0]) // span)) + 1):
            k0, k1 = int(part[0]), int(part[-1]) + 1
            power = x[k0:k1] ** alpha
            top = _block_bound(numerators, k0, k1)
            bound = np.where(power >= np.finfo(float).tiny, top / power * HOLDER_SLACK, np.inf)
            u.append(bound[part - k0])
    return np.concatenate(u)


def _seed_offset(ld: np.ndarray, x: np.ndarray, alpha: float, s: int) -> int:
    """A guess at the offset of the largest ratio: the multiple of s whose
    pairs of points i s and (i + d) s give the largest ratio, taken against
    the gap x_(d s) - x_0."""
    points = ld[::s]
    with np.errstate(all="ignore"):
        ratio = _block_bound(_blocks(points, 1), 1, len(points)) / (
            x[s::s] - x[0]) ** alpha
    return s * (int(np.argmax(ratio)) + 1)


def _ratio_max(ld: np.ndarray, x: np.ndarray, alpha: float, k: int) -> np.float64:
    """The largest ratio at offset k, computed as the full pair matrix does."""
    return (np.abs(ld[k:] - ld[:-k]) / np.abs(x[k:] - x[:-k]) ** alpha).max()


def holder_constant_estimate(g: SmoothMap, alpha: float, grid: int = 1025) -> float:
    """Grid-pair estimate C of the Holder constant of log(Dg)."""
    if not 0 < alpha <= 1:
        raise ValueError("exponent must lie in (0, 1]")
    x = g.grid(grid)
    d = g.df(x)
    _require_positive(d)
    ld = np.log(d)
    if grid < 2:
        return 0.0
    if not _exact_progression(x):  # G_k = x_k only there, see the module docstring
        return float(np.maximum.reduce(
            [_ratio_max(ld, x, alpha, k) for k in range(1, grid)]))
    s = -(-grid // HOLDER_BLOCKS)
    best = _ratio_max(ld, x, alpha, _seed_offset(ld, x, alpha, s))
    ks, u = np.arange(1, grid), np.empty(0)
    while not np.isnan(best):
        u = _offset_bounds(ld, x, alpha, s, ks)
        keep = ~((u <= best) & (u < np.inf))  # NaN and inf stay
        ks, u = ks[keep], u[keep]
        if s == 1 or not len(ks):
            break
        s = max(1, s // HOLDER_SHRINK)
    # the offsets left by descending U_k, as the full scan would visit them
    for i in np.argsort(u)[::-1]:
        if np.isnan(best) or (u[i] <= best and u[i] < np.inf):
            break
        best = np.maximum(best, _ratio_max(ld, x, alpha, ks[i]))
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
