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
that one endpoint, and nothing is drawn or held per sample.  Every other
family (tables, unequal rates) steps all walks in lockstep, one
`Generator.integers` call per step on one numpy stream, and evaluates
every point of every walk.  Both passes give every sample the float that
one addition per step gives it.
The terms come from `log2_weights`, the vector of float log2 weights of a
point array, which lives here because this is the one numpy caller of the
weight families; it reads each point's split parts `weight_log2_parts`,
an exact integer exponent plus a small float part, with one rounding.

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
import sys
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
    the terminal check stays deterministic.  ValueError unless L/A_d and B
    are finite normal floats: past them the float forms overflow, or
    underflow to a bound of 0.
    """
    a_d = sphere_constant(d)
    ratio = L / a_d
    exact = 3 * ratio
    if sys.float_info.min <= ratio and exact <= sys.float_info.max:
        root = 3.0 * float(ratio) ** (1.0 / d)
        if exact >= root:
            return float(exact), exact
        if root < math.inf:
            return root, Fraction(root)
    size = "small" if ratio < 1 else "large"
    raise ValueError(f"lemma 1's bound B needs L/A_d in the normal float range; "
                     f"the family's total mass L is too {size}")


def cost_bound(b: float, d: int, n: int) -> float:
    return b * math.log2(n + 1) ** (1.0 - 1.0 / d)


class BatchSummary(NamedTuple):
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
    family's support: each point's split parts `weight_log2_parts`, an
    exact integer plus a small float, read as one float with one rounding."""
    return np.array([sum(family.weight_log2_parts(p)) for p in pts.tolist()])


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

    A product family whose every axis holds [0, n] (both built-in
    families) holds them all; any other family is scanned in simplex
    order, so a table reads at most len(table) + 1 points."""
    if isinstance(family, ProductFamily) and all(ax.lo <= 0 and n <= ax.hi for ax in family.axes):
        return None
    return next((v for v in _simplex(family.d, n) if not family.contains(v)), None)


def batch_certificates(
    family: LengthFamily,
    n: int,
    samples: int,
    seed: int,
) -> BatchSummary:
    """Vectorized Monte-Carlo pass on the family's lattice Z^d: the joint
    success fraction, the mean cost and the first certified sample.

    A batch has n >= 1 and samples >= 1, as the CLI's n_max and samples
    have, and the support must hold every point a walk of length n can
    reach; otherwise this raises ValueError, before any draw.  On a product family with one rate on
    every axis (both built-in families) every sample then costs the one
    sum `_shared_cost`, which is the batch's mean whatever `samples` is,
    and meets the terminal bound exactly when the endpoint (n, 0, ..., 0)
    does, so no walk is stepped; every other family takes `_sample_pass`
    on the seed's stream.  Bounds past float range raise the ValueError of
    `_summary`.
    """
    if n < 1 or samples < 1:
        raise ValueError(f"a batch needs n >= 1 and samples >= 1, got {n} and {samples}")
    missing = _first_unreached(family, n)
    if missing is not None:
        raise ValueError(f"a walk of length {n} can reach {missing}, outside the family's support")
    if isinstance(family, ProductFamily) and len({ax.rate for ax in family.axes}) == 1:
        # one cost and one endpoint stand for every sample
        costs = np.array([_shared_cost(family, n)])
        ends = np.array([[n] + [0] * (family.d - 1)])
    else:
        costs, ends = _sample_pass(family, n, samples, seed)
    return _summary(family, n, costs, ends)


def _shared_cost(family: ProductFamily, n: int) -> float:
    """Every walk's cost on an equal-rate family, for n >= 1: the terms
    exp2(log2 w(t, 0, ..., 0) / d) for t < n, added in step order by one
    running sum (`np.cumsum` adds sequentially, as the steps would).  The
    log2 weights are that line's `log2_weights`: the int64 exponent
    e0 - rate t plus f0, (e0, f0) the origin's split weight, rounded once."""
    e0, f0 = family.weight_log2_parts((0,) * family.d)
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
    and endpoint, one per row of `ends` (or one cost and one endpoint that
    stand for every sample); terminal weights are decided by
    `lattice.weights_le`.  ValueError when the cost bound or the mean bound
    is past float range, as `lemma_bound` refuses B."""
    d = family.d
    mass = family.total_mass
    b_float, b_exact = lemma_bound(mass, d)
    cb = cost_bound(b_float, d, n)
    mean_bound = float(mass / sphere_constant(d)) ** (1.0 / d)
    mean_bound *= math.log2(n + 1) ** (1.0 - 1.0 / d) * MEAN_SLACK
    if not math.isfinite(cb) or not math.isfinite(mean_bound):
        raise ValueError("lemma 1's cost bounds are past float range; "
                         "the family's total mass L is too large")
    first = costs <= cb * (1.0 + COST_REL_TOL)
    q = b_exact / (n + 1) ** (d - 1)
    second = np.fromiter(weights_le(family, ends.tolist(), q), dtype=bool, count=len(ends))
    witness, success_fraction = _certified(first & second)
    return BatchSummary(
        success_fraction=success_fraction,
        mean_cost=float(np.mean(costs)),
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
