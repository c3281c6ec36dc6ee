"""Seeded Markov walks on the nonnegative orthant, certified in one batch.

The kernel favors large coordinates: from state i the walk increments
coordinate j with probability (1+i_j)/(|i|+d), which makes the arrival law
after n steps exactly uniform on the sphere of radius n.  A sampled path is
certified against two bounds with B = max(3(L/A_d)^(1/d), 3L/A_d) and
A_d = 1/(d-1)!:

* cost bound:      sum of weight^(1/d) over the first n points
                   <= B * (log2(n+1))^(1-1/d)
* terminal bound:  weight at the endpoint <= B / (n+1)^(d-1)

`batch_certificates` runs many walks in lockstep on one numpy stream.  It
keeps their states by axis, as the kernel's cumulative thresholds, so a
step is one draw, one comparison and one addition on contiguous rows;
costs are evaluated once per block of buffered steps and summed in step
order.  Their terms come from `log2_weights`, the vector of float log2
weights of a point array, which lives here because this is the one
numpy caller of the weight families.  Terminal weights are decided by
`lattice.weights_le`, from split log2 weights with exact rationals only
inside its margin.  The first sample, in sample order, that meets both
bounds is the witness that a certified path exists; a batch with no such
sample has no witness.

Logarithms here are base 2: the harmonic-sum comparison H_n <= log_b(n+1)
behind the cost bound holds for every base b <= 2 and for no larger base,
so base 2 is the choice that keeps the stated constants valid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .lattice import LengthFamily, ProductFamily, sphere_constant, weights_le

COST_REL_TOL = 1e-12
# factor on the expectation bound of `batch_certificates`' mean cost
MEAN_SLACK = 1.05
# walk-state entries buffered per cost evaluation (256 kB of int64); larger
# blocks run no faster and raise peak memory (2^18 added 8 MB)
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


def log2_weights(family: LengthFamily, pts: np.ndarray) -> np.ndarray:
    """Float log2 weights of the points in the rows of `pts`, all in the
    family's support.  A product family writes each axis' one-point run out,
    -rate |i| + ((offset + log2 coef) as integer plus float), added to log2
    of its scale in axis order; a table takes each point's own log2."""
    if not isinstance(family, ProductFamily):
        return np.array([family.log2_weight(tuple(int(c) for c in p)) for p in pts])
    out = np.full(pts.shape[0], family.scale_log2)
    for k, ax in enumerate(family.axes):
        ce, cf = ax.coef_parts
        col = pts[:, k]
        terms = np.multiply(col if ax.lo >= 0 else np.abs(col), -ax.rate, dtype=np.float64)
        terms += (ax.offset + ce) + cf
        out += terms
    return out


def _counts(thresholds: np.ndarray) -> np.ndarray:
    """Per-axis coordinates (rows) from cumulative thresholds (rows)."""
    out = thresholds - 1
    out[1:] -= thresholds[:-1]
    return out


def batch_certificates(
    family: LengthFamily,
    n: int,
    samples: int,
    seed: int,
) -> BatchSummary:
    """Vectorized Monte-Carlo pass on the family's lattice Z^d: the joint
    success fraction, the mean cost and the first certified sample.

    Walk states for all samples advance in lockstep (the step-t denominator
    t+d is state-independent).  The state is kept by axis as the kernel's
    cumulative thresholds acc[k] = sum_{i<=k} (1 + counts_i), a (d, samples)
    array.  The step-t draw r in range(t+d) moves a sample along the first
    axis j with r < acc[j], which raises acc[k] for every k >= j; as the
    thresholds increase in k and acc[d-1] = t+d > r, those are exactly the
    thresholds above r, so a step is `acc += acc > r`.  Each step's states
    go into a block buffer of at most BLOCK_INTS entries (or one step);
    once per block the log2 weights of its points are evaluated on
    per-axis rows and their exp2(./d) added into the costs in step order,
    so the float sums are those of one addition per step.  Terminal
    weights are decided exactly per sample by `weights_le`.
    """
    d = family.d
    rng = np.random.default_rng(seed)
    acc = np.repeat(np.arange(1, d + 1, dtype=np.int64)[:, None], samples, axis=1)
    costs = np.zeros(samples)
    steps = max(1, min(n, BLOCK_INTS // max(d * samples, 1)))
    block = np.empty((d, steps, samples), dtype=np.int64)
    for start in range(0, n, steps):
        m = min(steps, n - start)
        for s in range(m):
            block[:, s] = acc
            r = rng.integers(0, start + s + d, size=samples)
            acc += acc > r
        pts = _counts(block[:, :m].reshape(d, m * samples))
        terms = np.exp2(log2_weights(family, pts.T) / d).reshape(m, samples)
        for row in terms:
            costs += row
    b_float, b_exact = lemma_bound(family, d)
    cb = cost_bound(b_float, d, n)
    first = costs <= cb * (1.0 + COST_REL_TOL)
    rhs = b_exact / (n + 1) ** (d - 1)
    ends = _counts(acc).T.tolist()
    second = np.fromiter(weights_le(family, ends, rhs), dtype=bool, count=samples)
    ok = first & second
    witness = int(np.argmax(ok)) if ok.any() else None
    mean_bound = float(family.total_mass / sphere_constant(d)) ** (1.0 / d)
    mean_bound *= math.log2(n + 1) ** (1.0 - 1.0 / d) * MEAN_SLACK
    return BatchSummary(
        d=d,
        n=n,
        samples=samples,
        success_fraction=float(np.mean(ok)),
        mean_cost=float(np.mean(costs)),
        mean_cost_bound=mean_bound,
        cost_bound=cb,
        bound_b=b_float,
        witness=witness,
        witness_cost=None if witness is None else float(costs[witness]),
    )

