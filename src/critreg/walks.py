"""Seeded Markov walks on the nonnegative orthant with path certificates.

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
order, and terminal weights are decided by `lattice.weights_le`, from
split log2 weights with exact rationals only inside its margin.

Logarithms here are base 2: the harmonic-sum comparison H_n <= log_b(n+1)
behind the cost bound holds for every base b <= 2 and for no larger base,
so base 2 is the choice that keeps the stated constants valid.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .lattice import LatticePath, LengthFamily, path_cost, sphere_constant, weights_le

COST_REL_TOL = 1e-12
# factor on the expectation bound of `batch_certificates`' mean cost
MEAN_SLACK = 1.05
# walk-state entries buffered per cost evaluation (256 kB of int64); larger
# blocks run no faster and raise peak memory (2^18 added 8 MB)
BLOCK_INTS = 2 ** 15


@dataclass(frozen=True)
class WalkKernel:
    d: int

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ValueError("dimension must be positive")


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
class PathCertificate:
    """The two path bounds evaluated on one sampled walk."""

    path: LatticePath
    n: int
    cost: float
    terminal_weight: Fraction
    bound_b: float
    bound_b_exact: Fraction
    first_ok: bool
    second_ok: bool

    @property
    def ok(self) -> bool:
        return self.first_ok and self.second_ok


def certify(path: LatticePath, family: LengthFamily) -> PathCertificate:
    """Recompute both bounds for a path, independently of how it was drawn."""
    d = family.d
    n = len(path)
    cost = float(path_cost(path, family, Fraction(1, d)))
    terminal = family.weight(path.points[-1])
    b_float, b_exact = lemma_bound(family, d)
    first = cost <= cost_bound(b_float, d, n) * (1.0 + COST_REL_TOL)
    second = terminal * (n + 1) ** (d - 1) <= b_exact
    return PathCertificate(path, n, cost, terminal, b_float, b_exact, first, second)


def sample_path(kernel: WalkKernel, n: int, seed: int) -> LatticePath:
    """One seeded walk of n steps from the origin; exact integer sampling.

    At step t the direction weights 1+i_j sum to t+d, so a uniform draw in
    range(t+d) reproduces the kernel probabilities without any floats.
    """
    rng = random.Random(seed)
    state = [0] * kernel.d
    pts = [tuple(state)]
    for t in range(n):
        r = rng.randrange(t + kernel.d)
        acc = 0
        for j in range(kernel.d):
            acc += 1 + state[j]
            if r < acc:
                state[j] += 1
                break
        pts.append(tuple(state))
    return LatticePath(tuple(pts))


class CertificateSearchError(RuntimeError):
    """Exhausted the attempt budget; carries the best certificate seen."""

    def __init__(self, attempts: int, best: PathCertificate | None) -> None:
        super().__init__(f"no certified path within {attempts} attempts")
        self.attempts = attempts
        self.best = best


def _attempt_seed(seed: int, attempt: int) -> int:
    return (seed * 0x9E3779B97F4A7C15 + attempt) % 2 ** 63


def sample_and_certify(
    kernel: WalkKernel,
    family: LengthFamily,
    n: int,
    seed: int,
    max_attempts: int = 100,
) -> tuple[PathCertificate, int]:
    """First certified sampled path, with the number of attempts used."""
    if family.d != kernel.d:
        raise ValueError("family dimension mismatch")
    best: PathCertificate | None = None
    for attempt in range(1, max_attempts + 1):
        path = sample_path(kernel, n, _attempt_seed(seed, attempt))
        cert = certify(path, family)
        if cert.ok:
            return cert, attempt
        if best is None or cert.cost < best.cost:
            best = cert
    raise CertificateSearchError(max_attempts, best)


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

    @property
    def mean_ok(self) -> bool:
        return self.mean_cost <= self.mean_cost_bound


def _counts(thresholds: np.ndarray) -> np.ndarray:
    """Per-axis coordinates (rows) from cumulative thresholds (rows)."""
    out = thresholds - 1
    out[1:] -= thresholds[:-1]
    return out


def batch_certificates(
    kernel: WalkKernel,
    family: LengthFamily,
    n: int,
    samples: int,
    seed: int,
) -> BatchSummary:
    """Vectorized Monte-Carlo pass: joint success fraction and mean cost.

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
    d = kernel.d
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
        terms = np.exp2(family.np_log2_weight(pts.T) / d).reshape(m, samples)
        for row in terms:
            costs += row
    b_float, b_exact = lemma_bound(family, d)
    cb = cost_bound(b_float, d, n)
    first = costs <= cb * (1.0 + COST_REL_TOL)
    rhs = b_exact / (n + 1) ** (d - 1)
    ends = _counts(acc).T.tolist()
    second = np.fromiter(weights_le(family, ends, rhs), dtype=bool, count=samples)
    mean_bound = float(family.total_mass / sphere_constant(d)) ** (1.0 / d)
    mean_bound *= math.log2(n + 1) ** (1.0 - 1.0 / d) * MEAN_SLACK
    return BatchSummary(
        d=d,
        n=n,
        samples=samples,
        success_fraction=float(np.mean(first & second)),
        mean_cost=float(np.mean(costs)),
        mean_cost_bound=mean_bound,
        cost_bound=cb,
        bound_b=b_float,
    )

