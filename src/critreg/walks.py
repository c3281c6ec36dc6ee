"""Seeded Markov walks on the nonnegative orthant, certified in one batch.

The kernel favors large coordinates: from state i the walk increments
coordinate j with probability (1+i_j)/(|i|+d), which makes the arrival law
after n steps exactly uniform on the sphere of radius n.  A sampled path is
certified against two bounds with B = max(3(L/A_d)^(1/d), 3L/A_d) and
A_d = 1/(d-1)!:

* cost bound:      sum of weight^(1/d) over the first n points
                   <= B * (log2(n+1))^(1-1/d)
* terminal bound:  weight at the endpoint <= B / (n+1)^(d-1)

Before any draw the family's support must hold every orthant point with
|v| <= n, since a walk of length n reaches each of them with positive
probability; otherwise the batch raises ValueError naming the first one
missing, whatever the seed.  Which pass runs is then read from the
family.  On a product family with one rate on every axis (both built-in
families, and `uniform_box_family` of `tests/oracles.py`) the weight on
the orthant is const * 2^(-rate |v|): point t of every walk weighs what
(t, 0, ..., 0) weighs, and every endpoint, on the sphere |v| = n, what
(n, 0, ..., 0) weighs.  The batch is then decided from one cost sum and
that one endpoint, and nothing is drawn.  Every other family (tables,
unequal rates) steps all walks in lockstep, one `Generator.integers` call
per step on one numpy stream, and evaluates every point of every walk.  Both
passes give every sample the float that one addition per step gives it.
The terms come from `log2_weights`, the vector of float log2 weights of a
point array, which lives here because this is the one numpy caller of the
weight families; it reads each weight's split form, an exact integer
exponent plus a small float part, with one rounding.

Terminal weights are decided by `lattice.weights_le`, from split log2
weights with exact rationals only inside its margin.  The first sample,
in sample order, that meets both bounds is the witness that a certified
path exists; a batch with no such sample has no witness.

Logarithms here are base 2: the harmonic-sum comparison H_n <= log_b(n+1)
behind the cost bound holds for every base b <= 2 and for no larger base,
so base 2 is the choice that keeps the stated constants valid.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator, NamedTuple

import numpy as np

from .lattice import LengthFamily, ProductFamily, sphere_constant, weights_le

COST_REL_TOL = 1e-12
# factor on the expectation bound of `batch_certificates`' mean cost
MEAN_SLACK = 1.05


def lemma_bound(L: Fraction, d: int) -> tuple[float, Fraction]:
    """(B as float, exact rational used for the terminal-weight side), for
    a family of total mass L on Z^d.

    When L/A_d >= 1 the max is attained by the exact branch 3L/A_d; in the
    other case the float value is frozen into an exact binary rational so
    the terminal check stays deterministic.
    """
    a_d = sphere_constant(d)
    exact = 3 * L / a_d
    root = 3.0 * float(L / a_d) ** (1.0 / d)
    if exact >= root:
        return float(exact), exact
    return root, Fraction(root)


def cost_bound(b: float, d: int, n: int) -> float:
    return b * math.log2(n + 1) ** (1.0 - 1.0 / d)


class BatchSummary(NamedTuple):
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


def log2_weights(family: LengthFamily, pts: np.ndarray) -> np.ndarray:
    """Float log2 weights of the points in the rows of `pts`, all in the
    family's support.  On a product family that is the split form read as
    one float: the exact integer exponent e0 - sum rate_k |c_k| in int64
    (offsets and rates are small integers and coordinates are walk
    lengths, so it stays far inside that range) plus the constant float
    part f0, one rounding per point.  Any other family reads each point's
    own split parts `weight_log2_parts` as one float the same way."""
    if not isinstance(family, ProductFamily):
        return np.array([sum(family.weight_log2_parts(p)) for p in pts.tolist()])
    expo = np.full(len(pts), family.point_base[0], dtype=np.int64)
    for ax, col in zip(family.axes, pts.T):
        expo -= ax.rate * (col if ax.lo >= 0 else np.abs(col))
    return expo + family.point_base[1]


def _simplex(d: int, n: int) -> Iterator[tuple[int, ...]]:
    """The orthant points with |v| <= n, sphere by sphere, each sphere in
    lexicographic order."""
    def sphere(d: int, r: int) -> Iterator[tuple[int, ...]]:
        if d == 1:
            yield (r,)
            return
        for first in range(r + 1):
            for rest in sphere(d - 1, r - first):
                yield (first, *rest)

    for r in range(n + 1):
        yield from sphere(d, r)


def _first_unreached(family: LengthFamily, n: int) -> tuple[int, ...] | None:
    """The first point of `_simplex(d, n)` outside the family's support, or
    None if the support holds them all.  A walk of length n visits each of
    these points with positive probability, and no other point.

    On a product family that is the origin if an axis misses 0, else the
    point r e_k, at the smallest r = hi_k + 1 and the last such axis k.  A
    table stops at its first missing point, so it reads at most
    len(table) + 1 points of the simplex."""
    d = family.d
    if not isinstance(family, ProductFamily):
        return next((v for v in _simplex(d, n) if not family.contains(v)), None)
    if not all(ax.lo <= 0 <= ax.hi for ax in family.axes):
        return (0,) * d
    r = min(ax.hi for ax in family.axes) + 1
    if r > n:
        return None
    k = max(k for k, ax in enumerate(family.axes) if ax.hi + 1 == r)
    return tuple(r if j == k else 0 for j in range(d))


def batch_certificates(
    family: LengthFamily,
    n: int,
    samples: int,
    seed: int,
) -> BatchSummary:
    """Vectorized Monte-Carlo pass on the family's lattice Z^d: the joint
    success fraction, the mean cost and the first certified sample.

    The support must hold every point a walk of length n can reach;
    otherwise this raises ValueError, before any draw.  On a product
    family with one rate on every axis (both built-in families) every
    sample then costs the one sum `_shared_cost` and meets the terminal
    bound exactly when the endpoint (n, 0, ..., 0) does, so no walk is
    stepped; every other family takes `_sample_pass` on the seed's stream.
    """
    missing = _first_unreached(family, n)
    if missing is not None:
        raise ValueError(f"a walk of length {n} can reach {missing}, outside the family's support")
    if isinstance(family, ProductFamily) and len({ax.rate for ax in family.axes}) == 1:
        costs = np.full(samples, _shared_cost(family, n))
        ends = np.array([[n] + [0] * (family.d - 1)])
    else:
        costs, ends = _sample_pass(family, n, samples, seed)
    return _summary(family, n, costs, ends)


def _shared_cost(family: ProductFamily, n: int) -> float:
    """Every walk's cost on an equal-rate family: the terms
    exp2(log2 w(t, 0, ..., 0) / d) for t < n, added in step order by one
    running sum (`np.cumsum` adds sequentially, as the steps would).  The
    log2 weights are `log2_weights` of that line, read off the split form:
    the int64 exponent e0 - rate t plus f0, one rounding per point."""
    if not n:
        return 0.0
    e0, f0 = family.point_base
    log2_w = (e0 - family.axes[0].rate * np.arange(n)) + f0
    return float(np.cumsum(np.exp2(log2_w / family.d))[-1])


def _sample_pass(
    family: LengthFamily, n: int, samples: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Every sample's cost and its endpoint (one row per sample), stepping
    all walks in lockstep on the stream of `seed`: the step-t denominator
    t+d is state-independent, so step t adds each sample's current term
    exp2(log2 w / d) to its cost, draws r in range(t+d) and moves the
    sample along the first axis j with r < sum_{i<=j} (1 + counts_i)."""
    d = family.d
    rng = np.random.default_rng(seed)
    counts = np.zeros((samples, d), dtype=np.int64)
    costs = np.zeros(samples)
    rows = np.arange(samples)
    for t in range(n):
        costs += np.exp2(log2_weights(family, counts) / d)
        r = rng.integers(0, t + d, size=samples)
        counts[rows, np.argmax(r[:, None] < np.cumsum(counts + 1, axis=1), axis=1)] += 1
    return costs, counts


def _summary(family: LengthFamily, n: int, costs: np.ndarray, ends: np.ndarray) -> BatchSummary:
    """The bounds, the two checks and the witness, from every sample's cost
    and the endpoints in the rows of `ends` (one row stands for every
    sample); terminal weights are decided by `lattice.weights_le`."""
    d = family.d
    mass = family.total_mass
    b_float, b_exact = lemma_bound(mass, d)
    cb = cost_bound(b_float, d, n)
    first = costs <= cb * (1.0 + COST_REL_TOL)
    q = b_exact / (n + 1) ** (d - 1)
    second = np.fromiter(weights_le(family, ends.tolist(), q), dtype=bool, count=len(ends))
    witness, success_fraction = _certified(first & second)
    mean_bound = float(mass / sphere_constant(d)) ** (1.0 / d)
    mean_bound *= math.log2(n + 1) ** (1.0 - 1.0 / d) * MEAN_SLACK
    return BatchSummary(
        d=d,
        n=n,
        samples=len(costs),
        success_fraction=success_fraction,
        mean_cost=float(np.mean(costs)),  # numpy's pairwise sum, as reported
        mean_cost_bound=mean_bound,
        cost_bound=cb,
        bound_b=b_float,
        witness=witness,
        witness_cost=None if witness is None else float(costs[witness]),
    )


def _certified(ok: np.ndarray) -> tuple[int | None, float]:
    """The first certified sample (None if there is none) and the share
    of certified samples, from one pass over the nonempty bool array `ok`.
    The share is the float `np.mean(ok)` gives: its sum of ones is exact,
    and both divide once, correctly rounded."""
    hits = np.flatnonzero(ok)
    return (int(hits[0]) if len(hits) else None), len(hits) / len(ok)
