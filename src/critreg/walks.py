"""Seeded Markov walks on the nonnegative orthant, certified in one batch.

The kernel favors large coordinates: from state i the walk increments
coordinate j with probability (1+i_j)/(|i|+d), which makes the arrival law
after n steps exactly uniform on the sphere of radius n.  A sampled path is
certified against two bounds with B = max(3(L/A_d)^(1/d), 3L/A_d) and
A_d = 1/(d-1)!:

* cost bound:      sum of weight^(1/d) over the first n points
                   <= B * (log2(n+1))^(1-1/d)
* terminal bound:  weight at the endpoint <= B / (n+1)^(d-1)

Which pass runs is read from the family.  On a product family with one
rate on every axis (both built-in families, and `lattice.uniform_box_family`)
whose support holds every walk of length n, the weight on the orthant is
const * 2^(-rate |v|): point t of every walk weighs what (t, 0, ..., 0)
weighs, and every endpoint, on the sphere |v| = n, what (n, 0, ..., 0)
weighs.  The batch is then decided from one cost sum and that one endpoint,
and nothing is drawn.  Every other family (tables, unequal rates, finite
supports a walk can leave) runs the walks in lockstep on one numpy stream,
their states kept by axis as the kernel's cumulative thresholds, and
evaluates every point of every walk; a block of buffered steps draws at
once, as `bounded_draws` replays the block's draws from the generator's raw
words exactly as `Generator.integers` would give them step by step.  Both
passes give every sample the float that one addition per step gives it.
The terms come from `log2_weights`, the vector of float log2 weights of a
point array, which lives here because this is the one numpy caller of the
weight families; on a product family it reads the split form, an exact
integer exponent plus a constant float part, with one rounding.

Terminal weights are decided as `lattice.weights_le` decides them, from
split log2 weights with exact rationals only inside its margin; on a
product family the split weights of all endpoints are one vector pass.
The first sample, in sample order, that meets both bounds is the witness
that a certified path exists; a batch with no such sample has no witness.

Logarithms here are base 2: the harmonic-sum comparison H_n <= log_b(n+1)
behind the cost bound holds for every base b <= 2 and for no larger base,
so base 2 is the choice that keeps the stated constants valid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .lattice import (
    MARGIN,
    LengthFamily,
    ProductFamily,
    log2_parts,
    sphere_constant,
    weights_le,
)

COST_REL_TOL = 1e-12
# factor on the expectation bound of `batch_certificates`' mean cost
MEAN_SLACK = 1.05
# int64 entries buffered per block (256 kB): the per-sample pass's walk
# states of a block of steps; larger blocks run no faster and raise peak
# memory (2^18 added 8 MB)
BLOCK_INTS = 2 ** 15


def lemma_bound(family: LengthFamily, d: int) -> tuple[float, Fraction]:
    """(B as float, exact rational used for the terminal-weight side).

    When L/A_d >= 1 the max is attained by the exact branch 3L/A_d; in the
    other case the float value is frozen into an exact binary rational so
    the terminal check stays deterministic.
    """
    L = family.total_mass
    a_d = sphere_constant(d)
    exact = 3 * L / a_d
    root = 3.0 * float(L / a_d) ** (1.0 / d)
    if exact >= root:
        return float(exact), exact
    return root, Fraction(root)


def cost_bound(b: float, d: int, n: int) -> float:
    return b * math.log2(n + 1) ** (1.0 - 1.0 / d)


@dataclass(frozen=True)
class BatchSummary:
    d: int
    n: int
    samples: int
    success_fraction: float
    mean_cost: float
    mean_cost_bound: float
    cost_bound: float
    bound_b: float
    # the first sample meeting both bounds and its cost; None if there is none
    witness: int | None
    witness_cost: float | None

    @property
    def mean_ok(self) -> bool:
        return self.mean_cost <= self.mean_cost_bound


def _exponents(family: ProductFamily, cols: np.ndarray) -> np.ndarray:
    """The exact integer parts e0 - sum rate_k |c_k| of the split log2
    weights (`weight_log2_parts`) of the points in the columns of `cols`,
    one row per axis, as int64: offsets and rates are small integers and
    coordinates are walk lengths, so they stay far inside its range."""
    expo = np.full(cols.shape[1], family.point_base[0], dtype=np.int64)
    for ax, col in zip(family.axes, cols):
        expo -= ax.rate * (col if ax.lo >= 0 else np.abs(col))
    return expo


def log2_weights(family: LengthFamily, pts: np.ndarray) -> np.ndarray:
    """Float log2 weights of the points in the rows of `pts`, all in the
    family's support.  On a product family that is the split form read as
    one float: the exact int64 exponent of `_exponents` plus the constant
    float part f0, one rounding per point; a table takes each point's own
    log2."""
    if not isinstance(family, ProductFamily):
        return np.array([family.log2_weight(tuple(int(c) for c in p)) for p in pts])
    return _exponents(family, pts.T) + family.point_base[1]


def _counts(thresholds: np.ndarray) -> np.ndarray:
    """Per-axis coordinates (rows) from cumulative thresholds (rows), in
    place, from the last row down."""
    for k in range(len(thresholds) - 1, 0, -1):
        thresholds[k] -= thresholds[k - 1]
    thresholds -= 1
    return thresholds


def bounded_draws(
    bitgen: np.random.BitGenerator, highs: np.ndarray, samples: int, spare: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The rows `Generator.integers(0, h, size=samples)` would give for each
    h in the nondecreasing `highs` (1 <= h <= 2^32), in turn, on the generator
    of `bitgen`, and the outputs left over for the next call.

    This replays numpy's sampler for such a range: Lemire's multiply-shift
    (x h) >> 32 on the generator's 32-bit outputs x, the low half of each
    raw word before its high half, where x is drawn again while the low 32
    bits of x h fall below 2^32 mod h; h = 1 gives 0 and draws nothing.
    The outputs come from `random_raw`, after `spare`, and pair with the
    draws in order.  A rejection is rare (below h / 2^32 a draw): the
    rejected output is deleted from the stream, and the pass is redone
    from the row it was in.
    """
    live = int(np.searchsorted(highs, 2))
    his = highs[live:, None].astype(np.uint64)
    # 2^32 mod h is below h and at most 2^32 - h, so below this bound
    bound = min(int(highs[-1]), 1 << 31)
    size = his.size * samples
    prod = np.empty((len(highs), samples), dtype=np.uint64)
    prod[:live] = 0
    rows = prod[live:]
    stream, row = spare, 0
    while True:
        if stream.size < size:
            raw = bitgen.random_raw((size - stream.size + 1) // 2).view(np.uint32)
            stream = np.concatenate((stream, raw)) if stream.size else raw
        x = stream[row * samples:size].reshape(len(his) - row, samples)
        np.multiply(x, his[row:], out=rows[row:], dtype=np.uint64)
        low = rows[row:].astype(np.uint32).reshape(-1)
        if low.min(initial=bound) >= bound:
            break
        near = np.flatnonzero(low < bound)
        bad = near[low[near] < (1 << 32) % his[row + near // samples, 0]]
        if not bad.size:
            break
        j = row * samples + int(bad[0])
        stream = np.delete(stream, j)
        row = j // samples
    np.right_shift(prod, 32, out=prod)
    return prod.view(np.int64), stream[size:].copy()


def _terminal_le(family: LengthFamily, ends: np.ndarray, q: Fraction) -> np.ndarray:
    """`weights_le(family, endpoints, q)` as a bool array, for the endpoints
    in the columns of `ends`, one row per axis.

    On a product family whose support holds every endpoint, the split log2
    weights are `_exponents` and the constant float part f0, and the points
    within MARGIN of log2 q go to `weights_le`, which compares their exact
    weights.  Otherwise every point goes there, and an endpoint outside a
    finite support raises its ValueError.
    """
    inside = isinstance(family, ProductFamily) and ends.size and all(
        ax.lo <= col.min() and col.max() <= ax.hi for ax, col in zip(family.axes, ends)
    )
    if not inside:
        points = ends.T.tolist()
        return np.fromiter(weights_le(family, points, q), dtype=bool, count=len(points))
    eq, fq = log2_parts(q)
    diff = (_exponents(family, ends) - eq) + (family.point_base[1] - fq)
    out = diff < 0
    near = np.flatnonzero(np.abs(diff) <= MARGIN)
    out[near] = list(weights_le(family, ends[:, near].T.tolist(), q))
    return out


def batch_certificates(
    family: LengthFamily,
    n: int,
    samples: int,
    seed: int,
) -> BatchSummary:
    """Vectorized Monte-Carlo pass on the family's lattice Z^d: the joint
    success fraction, the mean cost and the first certified sample.

    On an equal-rate product family whose support holds [0, n] on every
    axis (both built-in families) every sample costs the one sum
    `_shared_cost` and meets the terminal bound exactly when the endpoint
    (n, 0, ..., 0) does, so no walk is stepped; every other family takes
    `_sample_pass` on the seed's stream.
    """
    d = family.d
    if (isinstance(family, ProductFamily) and len({ax.rate for ax in family.axes}) == 1
            and all(ax.lo <= 0 and n <= ax.hi for ax in family.axes)):
        costs = np.full(samples, _shared_cost(family, n))
        ends = np.zeros((d, 1), dtype=np.int64)
        ends[0] = n
    else:
        costs, ends = _sample_pass(family, n, samples, seed)
    return _summary(family, n, costs, ends)


def _shared_cost(family: ProductFamily, n: int) -> float:
    """Every walk's cost on an equal-rate family: the terms
    exp2(log2 w(t, 0, ..., 0) / d) for t < n, added in step order by one
    running sum (`np.cumsum` adds sequentially, as the steps would)."""
    if not n:
        return 0.0
    line = np.zeros((n, family.d), dtype=np.int64)
    line[:, 0] = np.arange(n)
    return float(np.cumsum(np.exp2(log2_weights(family, line) / family.d))[-1])


def _sample_pass(
    family: LengthFamily, n: int, samples: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Every sample's cost and its endpoint (one row per axis), from every
    point of every walk on the stream of `seed`.

    The states advance in lockstep (the step-t denominator t+d is
    state-independent) as the cumulative thresholds
    acc[k] = sum_{i<=k} (1 + counts_i), one row per axis.  The step-t draw
    r in range(t+d) moves a sample along the first axis j with r < acc[j],
    which raises exactly the thresholds above r, so a step adds (acc > r)
    to the d-1 rows that move; for d = 1 none moves, and nothing is drawn.
    The steps run in blocks of at most BLOCK_INTS state entries (or one
    step); after a block the thresholds become coordinates in place, and
    the exp2(log2 w / d) of its points are added to the costs by one
    reduction over the rows in step order, the floats of one addition per
    step."""
    d = family.d
    bitgen = np.random.default_rng(seed).bit_generator
    steps = max(1, min(n, BLOCK_INTS // max(d * samples, 1)))
    # a block's thresholds by axis and step, and the state after it; axes
    # 0..d-2 move, axis d-1 is t+d
    acc = np.empty((d, steps + 1, samples), dtype=np.int64)
    acc[:, 0] = np.arange(1, d + 1)[:, None]
    moving = list(acc[:d - 1].swapaxes(0, 1))
    # the running costs, then a block's terms; the extra column keeps
    # numpy's reduction over rows from summing a single column pairwise
    sums = np.zeros((steps + 1, samples + 1))
    spare = np.empty(0, dtype=np.uint32)
    total = np.empty(samples + 1)
    for start in range(0, n, steps):
        m = min(steps, n - start)
        highs = np.arange(start + d, start + d + m)
        if d > 1:
            draws, spare = bounded_draws(bitgen, highs, samples, spare)
            for a, b, r in zip(moving, moving[1:], draws):
                np.add(a, a > r, out=b)
        acc[d - 1, :m] = highs[:, None]
        pts = _counts(acc[:, :m]).reshape(d, m * samples)
        lw = log2_weights(family, pts.T)
        np.exp2(lw.reshape(m, samples) / d, out=sums[1:m + 1, :samples])
        np.add.reduce(sums[:m + 1], axis=0, out=total)
        sums[0] = total
        acc[:d - 1, 0] = acc[:d - 1, m]
    acc[d - 1, 0] = n + d
    return sums[0, :samples], _counts(acc[:, 0])


def _summary(family: LengthFamily, n: int, costs: np.ndarray, ends: np.ndarray) -> BatchSummary:
    """The bounds, the two checks and the witness, from every sample's cost
    and endpoint; terminal weights are decided by `_terminal_le`."""
    d = family.d
    b_float, b_exact = lemma_bound(family, d)
    cb = cost_bound(b_float, d, n)
    first = costs <= cb * (1.0 + COST_REL_TOL)
    second = _terminal_le(family, ends, b_exact / (n + 1) ** (d - 1))
    ok = first & second
    witness = int(np.argmax(ok)) if ok.any() else None
    mean_bound = float(family.total_mass / sphere_constant(d)) ** (1.0 / d)
    mean_bound *= math.log2(n + 1) ** (1.0 - 1.0 / d) * MEAN_SLACK
    return BatchSummary(
        d=d,
        n=n,
        samples=len(costs),
        success_fraction=float(np.mean(ok)),
        mean_cost=float(np.mean(costs)),
        mean_cost_bound=mean_bound,
        cost_bound=cb,
        bound_b=b_float,
        witness=witness,
        witness_cost=None if witness is None else float(costs[witness]),
    )
