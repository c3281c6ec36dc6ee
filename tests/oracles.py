"""Reference implementations and fixtures the tests compare critreg against.

None of these runs in a CLI kind.  Each is a slow or brute-force twin of
something the package computes in closed form (the point weights of the
built-in axes, exact arrival laws and minimum-cost paths of the walks,
sphere enumeration, box enumeration, the corner sweep of cover
multiplicity, B-d2 boxes and the roundness and retention constants in
their Fraction forms, subdivision leaves and the share of non-admissible
levels, per-point mean goodness and the goodness of a segment's flag, the
linear scans and the depth-first fully-good search that the chain
searches replaced, exact packed lengths, the identity kind's draws, the
per-step orbit of a fundamental domain, the report writer's row-by-row
ASCII form, the split log2 masses, mass ratios and power sums summed with no
memo, each record's ratio of which `measured`'s B_log2 is the largest, and
that B_log2 with the integer parts subtracted exactly,
the distortion budget re-summed from the walk's start for every row, the
two-point, generator-based region checks of `Box` and
`Segment`, and the decided walk pass's cost line and summary as
`log2_weights` and `np.mean`/`np.argmax` gave them), a small fixture map for the derivative checks, or an
input of those oracles (the walk kernel and lattice paths).  `FAMILIES`
registers the family backends that the contract tests and the chain
search tests run over, each with its point weight and total mass written
out by hand; `CHAIN_CASES` registers the chains that the chain contract
runs over, each with its family and sequence makers.
`exact_mass` is no oracle: it reads the package's own exact mass form
as a rational, for tests of something else; nor is `uniform_box_family`,
the tests' finite family of rate-0 axes, on which every translate of a
region has the same mass; nor is `within_5_s`, which fails a test whose
run passes 5 s.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import itertools
import json
import math
import random
import signal
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from critreg.boxes import BoxSequence, SubdivisionTree, _piece, build_sequence, integer_root
from critreg.concat import (
    BudgetReport,
    BudgetRow,
    ChainCertificate,
    ChainSearchError,
    _stretch_entry_t,
    build_chain,
    walk_stretches,
)
from critreg.lattice import (
    Axis,
    Bound,
    Box,
    Coords,
    LengthFamily,
    Log2Parts,
    ProductFamily,
    Segment,
    TableFamily,
    _check_dimension,
    _geometric_sum_log2,
    geometric_axis,
    geometric_family,
    log2_add,
    log2_parts,
    mass_le,
    mass_log2,
    symmetric_geometric_axis,
    symmetric_geometric_family,
    translated,
)
from critreg.smooth import SmoothMap
from critreg.walks import log2_weights


class OracleSizeError(ValueError):
    """An oracle input past the oracle's own size guard."""


SPHERE_GUARD = 10 ** 6
DP_STATE_GUARD = 2 * 10 ** 6
# `enumerate_min_cost` refuses more monotone paths than this
PATH_ENUM_CAP = 10 ** 5


# ---------------------------------------------------------------------------
# spheres and paths of the index lattice
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LatticePath:
    """Ordered lattice points, consecutive ones differing by 1 in one axis."""

    points: tuple[Coords, ...]

    def __post_init__(self) -> None:
        if not self.points:
            raise ValueError("empty path")
        for a, b in zip(self.points, self.points[1:]):
            diffs = [x - y for x, y in zip(b, a)]
            nz = [x for x in diffs if x != 0]
            if len(nz) != 1 or abs(nz[0]) != 1:
                raise ValueError(f"non-adjacent consecutive points {a} -> {b}")

    def __len__(self) -> int:
        return len(self.points) - 1


def sphere_size(d: int, n: int) -> int:
    """Number of points of the nonnegative orthant with coordinate sum n."""
    _check_dimension(d)
    if n < 0:
        raise ValueError("radius must be nonnegative")
    return math.comb(n + d - 1, d - 1)


def sphere_points(d: int, n: int) -> Iterator[Coords]:
    """Enumerate the n-sphere (coordinate sum n) of the nonnegative orthant."""
    if d == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in sphere_points(d - 1, n - first):
            yield (first, *rest)


def box_points(box: Box) -> Iterator[Coords]:
    """Every lattice point of a box, in lexicographic order."""
    return product(*(range(lo, hi + 1) for lo, hi in box.intervals))


def sweep_multiplicity(boxes: Sequence[Box]) -> int:
    """Maximum number of boxes covering a common lattice point, for any list
    of boxes: the cover count is constant on every cell of the arrangement
    cut at the boxes' corners, so one point per cell is swept."""
    if not boxes:
        return 0
    dim = boxes[0].dim
    cuts = []
    for k in range(dim):
        vals = set()
        for b in boxes:
            lo, hi = b.intervals[k]
            vals.add(lo)
            vals.add(hi + 1)
        cuts.append(sorted(vals)[:-1])  # cell representatives: left edges
    best = 0

    def rec(k: int, partial: list[Box]) -> None:
        nonlocal best
        if k == dim:
            best = max(best, len(partial))
            return
        for v in cuts[k]:
            nxt = [b for b in partial if b.intervals[k][0] <= v <= b.intervals[k][1]]
            if len(nxt) > best:
                rec(k + 1, nxt)

    rec(0, list(boxes))
    return best


def geodesic(path: LatticePath) -> bool:
    """True when every step increments exactly one coordinate by +1."""
    return all(
        sum(b) - sum(a) == 1 for a, b in zip(path.points, path.points[1:])
    )


# ---------------------------------------------------------------------------
# point weights of the built-in axes, written out by hand
# ---------------------------------------------------------------------------


def geometric_weight(i: int) -> Fraction:
    """The geometric axis: 2^-(i+1) on i >= 0, and 0 off the cone."""
    return Fraction(1, 2 ** (i + 1)) if i >= 0 else Fraction(0)


def symmetric_geometric_weight(i: int) -> Fraction:
    """The symmetric-geometric axis: 2^-|i| / 3 on all integers."""
    return Fraction(1, 3 * 2 ** abs(i))


def steep_weight(i: int) -> Fraction:
    """`steep_axis`: 5/3 * 2^(1 - 2|i|) on [-3, 14], and 0 outside."""
    return Fraction(5, 3) * Fraction(2) ** (1 - 2 * abs(i)) if -3 <= i <= 14 else Fraction(0)


def uniform_weight(lo: int, hi: int) -> Callable[[int], Fraction]:
    """An axis of `uniform_box_family` on [lo, hi]: the cell mass
    1/(hi - lo + 1) inside, and 0 outside."""
    return lambda i: Fraction(1, hi - lo + 1) if lo <= i <= hi else Fraction(0)


def point_weights(
    axis_weights: Sequence[Callable[[int], Fraction]], scale: Fraction, points: Iterable[Coords]
) -> list[Fraction]:
    """scale * prod_k w_k(v_k) at each point, one point at a time."""
    return [scale * math.prod(w(c) for w, c in zip(axis_weights, v, strict=True))
            for v in points]


def exact_mass(family: LengthFamily, region: Box | Segment) -> Fraction:
    """A region's exact mass: the family's `mass_form` read as a rational."""
    return family.mass_form(region).value()


def scaled_axis(axis: Axis, s: Fraction) -> Axis:
    """The axis times the positive rational s: coef * s, with log2_parts(s)
    added to its coef_parts, so that a family holding it is s times one
    holding the axis."""
    se, sf = log2_parts(s)
    ce, cf = axis.coef_parts
    return axis._replace(coef=axis.coef * s, coef_parts=(ce + se, cf + sf))


def steep_axis() -> Axis:
    """A finite axis of rate 2 that starts below 0 (`steep_weight`)."""
    return Axis(-3, 14, Fraction(5, 3), log2_parts(Fraction(5, 3)), 1, 2)


def uniform_box_family(box: Box, total: Fraction = Fraction(1)) -> ProductFamily:
    """Constant weights on a finite box, renormalized to the given total,
    which the first axis' cell carries."""
    cells = [Fraction(1, hi - lo + 1) for lo, hi in box.intervals]
    cells[0] *= total
    axes = [Axis(lo, hi, c, log2_parts(c), 0, 0) for (lo, hi), c in zip(box.intervals, cells)]
    return ProductFamily(axes)


def within_5_s(fn: Callable[..., Any], *args: Any) -> Any:
    """fn(*args), failing the test when it runs past 5 s."""
    class Hung(BaseException):  # no handler of `main` catches it
        pass

    def hang(signum, frame):
        raise Hung

    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(5)
    try:
        return fn(*args)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def exact_sum(ws: Iterable[Fraction]) -> Fraction:
    """The sum of rationals over their least common denominator, normalized
    once, so that the huge power-of-two denominators of far points add fast."""
    ws = list(ws)
    den = math.lcm(*(w.denominator for w in ws))
    return Fraction(sum(w.numerator * (den // w.denominator) for w in ws), den)


# ---------------------------------------------------------------------------
# the family backends of the contract tests, each with its point weight and
# total mass written out by hand
# ---------------------------------------------------------------------------


class Builder(NamedTuple):
    """One family backend of the contract tests."""

    family: Callable[[int], LengthFamily]  # a fresh family on Z^d, its memo empty
    weight: Callable[[Coords], Fraction]  # the point weight, 0 off the support
    total: Callable[[int], Fraction]  # the total mass on Z^d
    near: tuple[int, ...]


def _product(factors, near):
    """The product of the first d axes of the (axis, hand-written weight,
    total) factors, against the products of their weights and totals."""
    axes, weights, totals = zip(*factors)
    # regions repeat coordinates, and far weights are 10^5-bit rationals
    cached = [functools.cache(w) for w in weights]
    return Builder(lambda d: ProductFamily(axes[:d]),
                   lambda v: point_weights(cached[:len(v)], Fraction(1), [v])[0],
                   lambda d: math.prod(totals[:d]), near)


def _scaled(s, factor):
    """The factor times s, its axis by `scaled_axis`."""
    axis, weight, total = factor
    return scaled_axis(axis, s), lambda i: s * weight(i), s * total


def _finite(axis, weight, lo, hi):
    """The factor of an axis whose weight is 0 off [lo, hi], its total
    summed from that weight."""
    return axis, weight, exact_sum(map(weight, range(lo, hi + 1)))


def _table(entries, near, seed):
    """A table on Z^d of the weights `entries(rng, d)` draws, inserted in a
    shuffled order, so that the table's order is not the segments'."""
    @functools.cache
    def table(d):
        rng = random.Random(seed + d)
        items = list(entries(rng, d).items())
        rng.shuffle(items)
        return dict(items)

    return Builder(lambda d: TableFamily(table(d)),
                   lambda v: table(len(v)).get(v, Fraction(0)),
                   lambda d: sum(table(d).values(), Fraction(0)), near)


GEO = geometric_axis(), geometric_weight, Fraction(1)
SYM = symmetric_geometric_axis(), symmetric_geometric_weight, Fraction(1)
# sides that differ, so that the axes give different parts on one range
UNIFORM = Box(((-8, 6000), (-3, 4100), (1, 4096), (0, 5000)))

FAMILIES = {
    "geometric": _product([GEO] * 4, (0, 30, 4090, 100_000)),
    "symmetric-geometric": _product([SYM] * 4, (-100_000, -30, 0, 4090)),
    # the first and third axes are equal and share their memo entries
    "mixed": _product([GEO, SYM] * 2, (-100_000, 0, 4090)),
    # scales below and above 1, one of them moving the integer part of coef_parts
    "scaled": _product([_scaled(Fraction(5, 7), GEO), _scaled(Fraction(2), SYM),
                        _scaled(Fraction(1, 3), GEO), SYM], (0, 30, 4090)),
    "steep": _product([_finite(steep_axis(), steep_weight, -3, 14), SYM, GEO, SYM], (-3, 0, 14)),
    # the total, 3, is the first axis' cell's
    "uniform": _product([_finite(axis, weight, *side) for axis, weight, side in zip(
        uniform_box_family(UNIFORM, Fraction(3)).axes,
        [lambda i: 3 * uniform_weight(*UNIFORM.intervals[0])(i),
         *(uniform_weight(*side) for side in UNIFORM.intervals[1:])],
        UNIFORM.intervals)], (-8, 1, 4096, 6000)),
    "dyadic-table": _table(
        lambda rng, d: {p: Fraction(rng.randint(1, 9), 2 ** (sum(map(abs, p)) + rng.randint(0, 8)))
                        for p in product(range(-1, 4), repeat=d)},
        (-1, 3), 7),
    "non-dyadic-table": _table(
        lambda rng, d: {p: Fraction(rng.randint(1, 9), rng.randint(1, 9))
                        for p in product(range(5), repeat=d)},
        (0, 4), 11),
    # about a quarter of the points of a block near 4090, with weights far apart
    "far-block-table": _table(
        lambda rng, d: {p: Fraction(rng.randint(1, 99), 2 ** rng.randint(0, 60))
                        for p in product(range(4088, 4094), repeat=d) if rng.random() < 0.25},
        (4088, 4093), 13),
}


# ---------------------------------------------------------------------------
# the chains of the chain contract
# ---------------------------------------------------------------------------


class ChainCase(NamedTuple):
    """One chain of the chain contract: a chain kind over a box sequence,
    on a built-in family."""

    kind: str
    family: Callable[[int], ProductFamily]  # a fresh family on Z^d, its memo empty
    sequence: Callable[..., BoxSequence]  # the boxes up to the keyword n_max
    n_max: int
    min_fit_n: int  # the first fitted budget row
    digest: str | None = None  # the sha256 of the records, where they are pinned

    def build(self) -> tuple[ProductFamily, ChainCertificate]:
        """A fresh family and the chain on it."""
        seq = self.sequence(n_max=self.n_max)
        family = self.family(seq.boxes[0].dim)
        return family, build_chain(self.kind, family, seq)


def planar_b_general(n_max: int) -> BoxSequence:
    """The B-general sequence at d = 2.  `build_sequence` has no d = 2
    recursion for B-general, so the planar (1/3, 2/3) boxes stand in,
    indexed from 2, where the builder's staircases fit in the overlaps."""
    planar = build_sequence("B-d2", alphas=(Fraction(1, 3), Fraction(2, 3)), n_max=n_max)
    return BoxSequence("B-general", 2, planar.boxes, alphas=planar.alphas, d=2)


def _sizes(name, kind, family, sequence, min_fit_n, *sizes):
    """One chain's cases name-n_max: a size is an n_max or (n_max, pinned digest)."""
    for size in sizes:
        n_max, digest = size if isinstance(size, tuple) else (size, None)
        yield f"{name}-{n_max}", ChainCase(kind, family, sequence, n_max, min_fit_n, digest)


_GEO, _SYM = geometric_family, symmetric_geometric_family
_HALVES = functools.partial(build_sequence, "B-d2", alphas=(Fraction(1, 2),) * 2)
_THIRDS = functools.partial(build_sequence, "B-d2", alphas=(Fraction(1, 3), Fraction(2, 3)))
_D3 = functools.partial(build_sequence, "B-general", alphas=(Fraction(1, 3),) * 3)
_D4 = functools.partial(build_sequence, "B-general", alphas=(Fraction(1, 4),) * 4)
_FF = {d: functools.partial(build_sequence, "FF", d=d) for d in (3, 4, 5)}
# Every chain the contract checks.  The six digests were taken from the
# builders that each computed their own junctions; FF-d3's first fitted row
# is its start stage, 4
CHAIN_CASES = dict(itertools.chain(
    _sizes("B-d2-half", "B-d2", _GEO, _HALVES, 2, 20),
    _sizes("B-d2-third", "B-d2", _GEO, _THIRDS, 2,
           (12, "cb97a4a6df55ab43a64167750f4ff50e3a78cd9c3e78d4a2a605d4eab56b7416"), 24),
    _sizes("B-d3", "B-d3", _GEO, _D3, 2,
           (8, "810904f6c746d9eba48ebf16d7f9c2d31640dabe1f5cce193478545b9743003f"), 16),
    _sizes("B-general-planar", "B-general", _GEO, planar_b_general, 2,
           (10, "b7ea509e8ef8d031d78e39f654528c136fab51cd8cabf84c6f2344f10631df7a")),
    _sizes("B-general-d3", "B-general", _GEO, _D3, 2, 16, 40),
    _sizes("B-general-d4", "B-general", _GEO, _D4, 2,
           (8, "837a047b4ef6bf3954aefa3ab5b03d7f57f8ca1ce392b153ffcba8301c760fdc"), 12, 16),
    _sizes("FF-d3-geometric", "FF-d3", _GEO, _FF[3], 4, 17, 40),
    _sizes("FF-d3-symmetric", "FF-d3", _SYM, _FF[3], 4,
           (13, "eeb3cc022a78636dfc24f5216203f330fac6582e6de45076370d1b5cdd6524b8"), 17, 40),
    _sizes("FF-general-d4-symmetric", "FF-general", _SYM, _FF[4], 2,
           (6, "dac2f320eb3caf34e0695091d3f3c4a6aac3ebe062a50fce43322cdb472007a7"), 8),
    _sizes("FF-general-d4-geometric", "FF-general", _GEO, _FF[4], 2, 12),
    _sizes("FF-general-d5-geometric", "FF-general", _GEO, _FF[5], 2, 12),
))


# ---------------------------------------------------------------------------
# the walk kernel's exact laws and minimum costs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WalkKernel:
    """The coordinate-favoring kernel on the orthant of Z^d: from state i,
    coordinate j grows by one with probability (1+i_j)/(|i|+d)."""

    d: int

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ValueError("dimension must be positive")


def transition_distribution(
    kernel: WalkKernel, state: Coords
) -> list[tuple[int, Fraction]]:
    """Exact per-direction step probabilities from a cone state."""
    if len(state) != kernel.d:
        raise ValueError("state dimension mismatch")
    if any(c < 0 for c in state):
        raise ValueError(f"state {state} outside the nonnegative cone")
    denom = sum(state) + kernel.d
    return [(j, Fraction(1 + state[j], denom)) for j in range(kernel.d)]


def arrival_distribution(kernel: WalkKernel, n: int) -> dict[Coords, Fraction]:
    """Exact n-step arrival law from the origin, by sphere-to-sphere DP."""
    if n < 0:
        raise ValueError("step count must be nonnegative")
    if sphere_size(kernel.d, n) > SPHERE_GUARD:
        raise OracleSizeError(f"sphere of radius {n} exceeds {SPHERE_GUARD} states")
    dist: dict[Coords, Fraction] = {tuple([0] * kernel.d): Fraction(1)}
    for _ in range(n):
        nxt: dict[Coords, Fraction] = {}
        for state, p in dist.items():
            for j, q in transition_distribution(kernel, state):
                t = list(state)
                t[j] += 1
                key = tuple(t)
                nxt[key] = nxt.get(key, Fraction(0)) + p * q
        dist = nxt
    return dist


def brute_min_cost(
    family: LengthFamily, d: int, n: int
) -> tuple[LatticePath, float]:
    """Minimum-cost monotone path from the origin, by exact sphere DP.

    Serves as the independent oracle for the sampled certificates: the
    returned cost is a true minimum over all monotone paths of length n.
    """
    states = sum(sphere_size(d, j) for j in range(n + 1))
    if states > DP_STATE_GUARD:
        raise OracleSizeError(f"{states} DP states exceed {DP_STATE_GUARD}")
    origin = tuple([0] * d)
    best: dict[Coords, tuple[float, Coords | None]] = {origin: (0.0, None)}
    frontier = [origin]
    for _ in range(n):
        nxt: dict[Coords, tuple[float, Coords | None]] = {}
        for state in frontier:
            base = best[state][0] + 2.0 ** (sum(family.weight_log2_parts(state)) / d)
            for j in range(d):
                t = list(state)
                t[j] += 1
                key = tuple(t)
                if key not in nxt or base < nxt[key][0]:
                    nxt[key] = (base, state)
        best.update(nxt)
        frontier = list(nxt)
    end = min(frontier, key=lambda s: best[s][0])
    pts = [end]
    while True:
        prev = best[pts[-1]][1]
        if prev is None:
            break
        pts.append(prev)
    return LatticePath(tuple(reversed(pts))), best[end][0]


def enumerate_min_cost(family: LengthFamily, d: int, n: int) -> float:
    """Exhaustive minimum over all d^n monotone paths."""
    if d ** n > PATH_ENUM_CAP:
        raise OracleSizeError(f"{d ** n} paths exceed {PATH_ENUM_CAP}")
    best = math.inf

    def rec(state: list[int], j: int, acc: float) -> None:
        nonlocal best
        if j == n:
            best = min(best, acc)
            return
        acc += 2.0 ** (sum(family.weight_log2_parts(tuple(state))) / d)
        for k in range(d):
            state[k] += 1
            rec(state, j + 1, acc)
            state[k] -= 1

    rec([0] * d, 0, 0.0)
    return best


# ---------------------------------------------------------------------------
# split log2 masses and power sums without a memo
# ---------------------------------------------------------------------------


def _axis_ranges(region: Box | Segment) -> list[tuple[int, int, int, int]]:
    """(axis, lo, hi, stride) over a box's axes, or over a segment's fixed
    axes and then its moving one, with lo and hi read from its end points."""
    if isinstance(region, Box):
        return [(k, lo, hi, 1) for k, (lo, hi) in enumerate(region.intervals)]
    ends = region.anchor[region.axis], region.last()[region.axis]
    fixed = [(k, c, c, 1) for k, c in enumerate(region.anchor) if k != region.axis]
    return [*fixed, (region.axis, min(ends), max(ends), abs(region.step))]


def mass_log2_parts_unmemoized(family: LengthFamily, region: Box | Segment) -> Log2Parts | None:
    """The split log2 mass with no memo: on a product family each axis'
    `Axis.log2_parts` added from (0, 0.0) in `_axis_ranges` order;
    elsewhere log2_parts of the exact mass.  None on zero mass."""
    if not isinstance(family, ProductFamily):
        m = family.mass_form(region).value()
        return log2_parts(m) if m else None
    e, f = 0, 0.0
    for k, lo, hi, s in _axis_ranges(region):
        term = family.axes[k].log2_parts(lo, hi, s)
        if term is None:
            return None
        e, f = e + term[0], f + term[1]
    return e, f


def segment_power_log2_unmemoized(family: LengthFamily, seg: Segment, alpha: float) -> float:
    """log2 of the sum of weight^alpha over the segment: on a product family
    alpha times each fixed point's split parts, added from 0.0, plus every
    run of the moving axis' `Axis._runs`, each its `_geometric_sum_log2`,
    joined by log2_add from -inf (not `Axis.power_log2`, so that a shortcut
    there is checked against the join); on a table the point terms, each
    alpha times the point's split parts, joined by log2_add in the
    segment's order."""
    if not isinstance(family, ProductFamily):
        out = -math.inf
        for p in seg.points():
            if p in family.table:
                out = log2_add(out, alpha * sum(family.weight_log2_parts(p)))
        return out
    m = 0.0
    for k, c in enumerate(seg.anchor):
        if k != seg.axis:
            ax = family.axes[k]
            if not ax.lo <= c <= ax.hi:
                return -math.inf
            e, f = ax.point_parts(c)
            m += alpha * (e + f)
    _, lo, hi, s = _axis_ranges(seg)[-1]
    ax = family.axes[seg.axis]
    ce, cf = ax.coef_parts
    out = -math.inf
    for e, r, count in ax._runs(lo, hi, s):
        out = log2_add(out, _geometric_sum_log2(alpha * (e + ce) + alpha * cf, alpha * r, count))
    return m + out


def _tail_log2(x: float, count: int) -> float:
    """log2(1 + 2^x + ... + 2^(x (count - 1))) for x <= 0."""
    if x == 0:
        return math.log2(count)
    ln2 = math.log(2)
    return math.log2(-math.expm1(x * count * ln2)) - math.log2(-math.expm1(x * ln2))


def power_ratio_log2(cert: ChainCertificate, family: LengthFamily, r) -> float:
    """log2 of a record's power sum over max(L_n, L_(n+1))^alpha, from the
    box masses L: the ratio whose largest value is B."""
    alpha = float(cert.seq.alphas[r.seg.axis])
    ns = [n for n in (r.n, r.n + 1) if n in cert.seq.indices()]
    base = alpha * max(mass_log2(family, cert.seq.box(n)) for n in ns)
    return family.range_power_log2(r.seg, alpha) - base


def b_log2_split(cert: ChainCertificate, family: ProductFamily) -> float:
    """`concat.measured`'s B_log2 on a product family whose support holds
    the chain, with each log2 mass and power sum kept as an exact rational
    plus a small float until they are subtracted: alpha is the sequence's
    Fraction, so alpha times an integer exponent is exact, and only the
    difference, near 0, is rounded.  `measured` rounds each log2 to one
    float first, and so loses the difference once the integer parts are
    many times 2^53 larger than it."""

    def power_parts(seg: Segment, alpha: Fraction) -> tuple[Fraction, float]:
        a = float(alpha)
        e, f = 0, 0.0
        *fixed, (k, lo, hi, s) = _axis_ranges(seg)
        for j, c, _, _ in fixed:
            pe, pf = family.axes[j].point_parts(c)
            e, f = e + alpha * pe, f + a * pf
        ax = family.axes[k]
        ce, cf = ax.coef_parts
        runs = [(alpha * (re + ce), a * cf + _tail_log2(a * r, count))
                for re, r, count in ax._runs(lo, hi, s)]
        tail = -math.inf
        for re, rf in runs:
            tail = log2_add(tail, float(re - runs[0][0]) + rf)
        return e + runs[0][0], f + tail

    masses = {n: mass_log2_parts_unmemoized(family, cert.seq.box(n)) for n in cert.seq.indices()}
    best = -math.inf
    for r in cert.records:
        alpha = cert.seq.alphas[r.seg.axis]
        bases = [masses[n] for n in (r.n, r.n + 1) if n in masses]
        be, bf = max(bases, key=lambda p: float(p[0] - bases[0][0]) + p[1])
        pe, pf = power_parts(r.seg, alpha)
        best = max(best, float(pe - alpha * be) + (pf - float(alpha) * bf))
    return best


def resummed_budget(cert: ChainCertificate, family: LengthFamily, min_fit_n: int) -> BudgetReport:
    """The budget pass that re-sums the walk from its start for every row,
    and scans every stretch for every entry: the reference for the
    prefix-sum pass of `distortion_budget`, whose rows are fitted from
    min_fit_n on."""
    alphas = cert.seq.alphas
    alpha_min = float(min(alphas))
    stretches = walk_stretches(cert)
    starts = [0]
    for s in stretches:
        starts.append(starts[-1] + s.count - 1)

    def budget_upto(m_cut):
        acc = 0.0
        for i, s in enumerate(stretches):
            if starts[i] > m_cut:
                break
            own_hi = s.count - 2 if i + 1 < len(stretches) else s.count - 1
            t_hi = min(own_hi, m_cut - starts[i])
            if t_hi < 0:
                continue
            part = s._replace(count=t_hi + 1)
            acc += 2.0 ** family.range_power_log2(part, float(alphas[s.axis]))
        return acc

    rows = []
    for n in cert.seq.indices():
        if n + 1 not in cert.seq.indices():
            continue
        nxt_box = cert.seq.box(n + 1)
        entry = None
        for i, s in enumerate(stretches):
            t = _stretch_entry_t(s, nxt_box)
            if t is not None:
                entry = starts[i] + t
                break
        if entry is None or entry == 0:
            continue
        b = budget_upto(entry)
        ln = math.log(entry)
        rows.append(BudgetRow(n, entry, b, b / ln ** (1.0 - alpha_min) if ln > 0 else math.inf))
    fit = [r.ratio for r in rows if r.n >= min_fit_n and math.isfinite(r.ratio)]
    return BudgetReport(tuple(rows), max(fit, default=0.0),
                        max(fit) / min(fit) if fit and min(fit) > 0 else None, len(fit),
                        starts[-1] + 1)


def box_contains_all(box: Box, v: Sequence[int]) -> bool:
    """`Box.contains` as one `all` over a generator, as it was written."""
    return all(lo <= c <= hi for c, (lo, hi) in zip(v, box.intervals, strict=True))


# ---------------------------------------------------------------------------
# goodness of a region by per-point means
# ---------------------------------------------------------------------------


def _region_box(region: Box | Segment) -> Box:
    if isinstance(region, Box):
        return region
    if abs(region.step) != 1:
        raise ValueError("region boxes need unit-step segments")
    lo, hi, _ = region.axis_values()
    ivs = [(c, c) for c in region.anchor]
    ivs[region.axis] = (lo, hi)
    return Box(tuple(ivs))


def goodness_ratio(family: LengthFamily, region: Box | Segment, ambient: Box) -> Fraction:
    """Exact least lambda making a sub-box (or unit segment) lambda-good in
    an ambient box: the region's mean weight over the ambient mean."""
    rbox = _region_box(region)
    if not all(a <= c and d <= b for (a, b), (c, d) in zip(ambient.intervals, rbox.intervals)):
        raise ValueError("region must be contained in the ambient box")
    rmass = exact_mass(family, rbox)
    amass = exact_mass(family, ambient)
    if rmass == 0 or amass == 0:
        raise ValueError("regions must carry positive mass")
    return (rmass / rbox.npoints()) / (amass / ambient.npoints())


def flag_members(box: Box, seg: Segment) -> list[Box]:
    """The canonical nested flag of a full unit segment: member j spans the
    j + 1 cyclically consecutive axes from the segment's direction on, up to
    dim - 1 axes."""
    ivs = [(c, c) for c in seg.anchor]
    out = []
    for j in range(box.dim - 1):
        axis = (seg.axis + j) % box.dim
        ivs[axis] = box.intervals[axis]
        out.append(Box(tuple(ivs)))
    return out


def flag_goodness(family: LengthFamily, box: Box, seg: Segment) -> Fraction:
    """Least lambda making the segment's flag fully lambda-good: the worst
    member's `goodness_ratio`."""
    return max(goodness_ratio(family, m, box) for m in flag_members(box, seg))


def point_mass(family: LengthFamily, region: Box | Segment) -> Fraction:
    """A region's mass summed point by point over the points in the support."""
    pts = box_points(region) if isinstance(region, Box) else region.points()
    return exact_sum([family.weight(p) for p in pts if family.contains(p)] or [Fraction(0)])


def first_good(
    family: LengthFamily,
    candidates: Iterable[tuple[Any, Iterable[tuple[Box | Segment, Bound]]]],
    what: str,
    n: int | None,
):
    """The linear scan the chain searches replaced: the first value, in scan
    order, whose (region, Bound) checks all pass `mass_le`, trying the
    candidates one by one; ChainSearchError(what, n) when none qualifies,
    with the number of candidates scanned in its stats."""
    scanned = 0
    for scanned, (value, checks) in enumerate(candidates, 1):
        if all(mass_le(family, region, bound) for region, bound in checks):
            return value
    raise ChainSearchError(what, n, {"candidates": scanned})


def _passes(family: LengthFamily, region: Box | Segment, bound: Bound) -> bool:
    q, other = bound
    return point_mass(family, region) <= q * point_mass(family, other)


def first_translate_linear(
    family: LengthFamily,
    checks: Sequence[tuple[Box | Segment, Bound]],
    axis: int,
    step: int,
    count: int,
) -> tuple[int, int]:
    """The linear scan over translates: the first t < count at which every
    region moved by t * step along `axis` passes its bound (count when none
    does), decided by point sums, and the number of region checks the scan
    makes when each candidate stops at its first failing region."""
    checked = 0
    for t in range(count):
        for region, bound in checks:
            checked += 1
            if not _passes(family, translated(region, axis, t * step), bound):
                break
        else:
            return t, checked
    return count, checked


def fully_good_dfs(family: LengthFamily, box: Box, axis: int, lam: Fraction) -> Segment | None:
    """The depth-first search for a fully lambda-good 1-segment that the
    greedy search replaced: fix the flag's axes top-down (the axis
    cyclically before the segment direction first), scan each in ascending
    order and backtrack from a value with no fully good completion; None
    when no segment qualifies."""
    dim = box.dim
    order = [(axis - t) % dim for t in range(1, dim)]
    fixed: dict[int, int] = {}

    def member(upto: int) -> Box:
        ivs = list(box.intervals)
        for a in order[: upto + 1]:
            ivs[a] = (fixed[a], fixed[a])
        return Box(tuple(ivs))

    def dfs(t: int) -> bool:
        if t == len(order):
            return True
        a = order[t]
        for v in range(box.intervals[a][0], box.intervals[a][1] + 1):
            fixed[a] = v
            m = member(t)
            if _passes(family, m, Bound(lam * m.npoints() / box.npoints(), box)) and dfs(t + 1):
                return True
            del fixed[a]
        return False

    if not dfs(0):
        return None
    anchor = [fixed.get(a, box.intervals[a][0]) for a in range(dim)]
    return Segment(tuple(anchor), axis, box.side(axis))


# ---------------------------------------------------------------------------
# the vertical subdivision as an explicit tree
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SubdivisionNode:
    box: Box
    depth: int  # number of chain indices leading here (root: 0)
    chain: tuple[int, ...]  # 1-based piece indices
    trailing: bool  # True when this piece has index M at its level

    def is_leaf(self, tree: SubdivisionTree) -> bool:
        return self.trailing or self.depth == len(tree.piece_lengths)


def nodes(tree: SubdivisionTree) -> Iterator[SubdivisionNode]:
    """Walk the tree; children of every node partition its extent."""

    def rec(node: SubdivisionNode) -> Iterator[SubdivisionNode]:
        yield node
        if node.is_leaf(tree):
            return
        plen = tree.piece_lengths[node.depth]
        lo, hi = node.box.intervals[-1]
        for m in range(1, (hi - lo) // plen + 2):
            p_lo, p_hi, trailing = _piece(lo, hi, plen, m)
            piece = Box(node.box.intervals[:-1] + ((p_lo, p_hi),))
            yield from rec(SubdivisionNode(piece, node.depth + 1, node.chain + (m,), trailing))

    yield from rec(SubdivisionNode(tree.box, 0, (), trailing=False))


def leaves(tree: SubdivisionTree) -> Iterator[SubdivisionNode]:
    return (n for n in nodes(tree) if n.depth > 0 and n.is_leaf(tree))


def branching_counts(tree: SubdivisionTree) -> tuple[int, ...]:
    """Pieces per full parent at each depth: the root's last-axis extent is
    cut first, then each full piece of the depth above.  The counts are
    uniform per depth because every non-trailing piece at one depth has
    the same extent."""
    out = []
    extent = tree.box.side(tree.box.dim - 1)
    for plen in tree.piece_lengths:
        out.append(max(1, -(-extent // plen)))
        extent = plen
    return tuple(out)


def non_admissible_fraction(tree: SubdivisionTree) -> Fraction:
    """Share of levels whose chain ends in a trailing piece, from the
    per-depth piece lengths and `branching_counts`.

    A parent of extent E cut into c pieces of length plen has a trailing
    piece of E - (c-1)*plen levels, all non-admissible; each of its c-1
    full pieces repeats the count one depth down.
    """
    total = extent = tree.box.side(tree.box.dim - 1)
    bad, full = 0, 1  # full: number of non-trailing pieces at this depth
    for plen, c in zip(tree.piece_lengths, branching_counts(tree)):
        bad += full * (extent - (c - 1) * plen)
        full *= c - 1
        extent = plen
    return Fraction(bad, total)


# ---------------------------------------------------------------------------
# the unipotent action: exact lengths and the identity kind's draws
# ---------------------------------------------------------------------------


def length(v: Coords) -> Fraction:
    """The exact length of the v-th packed interval, a product of Fractions:
    the weight of the symmetric-geometric family over Z^len(v) at v."""
    return symmetric_geometric_family(len(v)).weight(v)


def identity_alphabet(model: str, d: int) -> tuple[list[tuple[int, int]], int]:
    """The generators (i, j) an identity-kind word is drawn from, and the
    dimension of its index lattice: f(j+1, 1) for j = 1 .. d+1 on Z^(d+1)
    for the translation model, every f(i, j) of rank d+1 on Z^d for ff."""
    if model == "translation":
        return [(i, 1) for i in range(2, d + 3)], d + 1
    return [(i, j) for i in range(2, d + 2) for j in range(1, i)], d


def identity_triples(rng, gens: Sequence[tuple[int, int]], lattice_d: int,
                     samples: int) -> list[tuple[tuple[tuple[int, int, int], ...], int, Coords]]:
    """The identity kind's (letters, k, index) draws, in its call order: per
    sample `randint(1, 6)` letters, each `choice(gens)` and then
    `choice((1, -1))`; then `randint(1, 5)` for k; then `lattice_d`
    coordinates, each `randint(-3, 3)`."""
    out = []
    for _ in range(samples):
        letters = []
        for _ in range(rng.randint(1, 6)):
            i, j = rng.choice(gens)
            letters.append((i, j, rng.choice((1, -1))))
        k = rng.randint(1, 5)
        out.append((tuple(letters), k, tuple(rng.randint(-3, 3) for _ in range(lattice_d))))
    return out


# ---------------------------------------------------------------------------
# fixture maps for the derivative checks
# ---------------------------------------------------------------------------


def plain_map(f: Callable, df: Callable, a: float, b: float) -> SmoothMap:
    """The map of the plain elementwise expressions f and df, in the
    ``out=`` form `SmoothMap` takes: given ``out``, each call writes the
    expression's floats there and returns it."""
    return SmoothMap(_into_out(f), _into_out(df), a, b)


def _into_out(fn: Callable) -> Callable:
    def call(x, out=None):
        y = fn(x)
        if out is None:
            return y
        out[...] = y
        return out

    return call


def identity_map() -> SmoothMap:
    return plain_map(lambda x: x, lambda x: np.ones_like(x), 0.0, 1.0)


def affine_map(slope: float, a: float = 0.0, b: float = 1.0) -> SmoothMap:
    """x -> a + slope*(x-a); contraction toward a when slope < 1."""
    if slope <= 0:
        raise ValueError("slope must be positive")
    return plain_map(
        lambda x: a + slope * (x - a),
        lambda x: np.full_like(np.asarray(x, dtype=float), slope),
        a,
        b,
    )


def doubling_fixed_point_map() -> SmoothMap:
    """2x/(1+x) on [0,1]: hyperbolic at 0 with derivative 2."""
    return plain_map(
        lambda x: 2 * x / (1 + x),
        lambda x: 2 / (1 + x) ** 2,
        0.0,
        1.0,
    )


def mobius_contraction_map() -> SmoothMap:
    """x/(2-x) on [0,1]: onto, contracting toward 0 (inverse of doubling)."""
    return plain_map(
        lambda x: x / (2 - x),
        lambda x: 2 / (2 - x) ** 2,
        0.0,
        1.0,
    )


def restrict(g: SmoothMap, a2: float, b2: float) -> SmoothMap:
    """Restriction to an invariant-enough subinterval (no new fixed points)."""
    if not g.a <= a2 < b2 <= g.b:
        raise ValueError("subinterval escapes the domain")
    return SmoothMap(g.f, g.df, a2, b2)


def renormalize(g: SmoothMap) -> SmoothMap:
    """Affine conjugate living on [0,1]; its derivative is df(phi^-1(u))."""
    a, b, L = g.a, g.b, g.b - g.a
    f, df = g.f, g.df
    return plain_map(
        lambda u: (f(a + L * u) - a) / L,
        lambda u: df(a + L * u),
        0.0,
        1.0,
    )


def clip_to(x: np.ndarray, a: float, b: float) -> np.ndarray:
    """x clipped to [a, b] as `smooth._domain_orbit` clips it, by
    np.maximum then np.minimum: -0.0 at a = 0.0 becomes +0.0, which
    np.clip would keep."""
    return np.minimum(np.maximum(x, a), b)


def domain_orbit(
    g: SmoothMap, k_max: int, clip: Callable[..., np.ndarray] = clip_to
) -> tuple[np.ndarray, np.ndarray]:
    """The orbit of 257 points of J = [x0, g(x0)], x0 the midpoint of I, one
    plain step at a time, each image clipped to I by `clip`: var_J log Dg^k
    for k = 1..k_max and the (left, right) ends of g^k J for k = 0..k_max."""
    x0 = 0.5 * (g.a + g.b)
    x = np.linspace(x0, float(g.f(np.float64(x0))), 257)
    logprod = np.zeros_like(x)
    variation = []
    ends = [(x[0], x[-1])]
    for _ in range(k_max):
        d = g.df(x)
        if np.any(d <= 0):
            raise ValueError("derivative must stay positive")
        logprod = logprod + np.log(d)
        x = clip(g.f(x), g.a, g.b)
        variation.append(logprod.max() - logprod.min())
        ends.append((x[0], x[-1]))
    return np.array(variation), np.array(ends)


def holder_by_offsets(g: SmoothMap, alpha: float, grid: int) -> float:
    """The grid Holder estimate one offset k at a time, in memory linear in
    the grid: the largest |ld_(i+k) - ld_i| / |x_(i+k) - x_i|^alpha at each
    k, then the largest over k, NaN passing through both (np.max and
    np.maximum), as the full pair matrix gives it."""
    x = g.grid(grid)
    d = g.df(x)
    if np.any(d <= 0):
        raise ValueError("derivative must stay positive")
    ld = np.log(d)
    best = np.float64(0.0)  # the diagonal's 0 / 1
    for k in range(1, grid):
        ratio = np.abs(ld[k:] - ld[:-k]) / np.abs(x[k:] - x[:-k]) ** alpha
        best = np.maximum(best, ratio.max())
    return float(best)


# ---------------------------------------------------------------------------
# box constants and the report writer, in their first forms
# ---------------------------------------------------------------------------


def floor_power(base: int, exponent: Fraction) -> int:
    """floor(base**exponent) for a nonnegative rational exponent, as the
    root of the whole power."""
    return integer_root(base ** exponent.numerator, exponent.denominator)


def b_d2_box(alphas: tuple[Fraction, Fraction], n: int) -> Box:
    """Q(n) of the B-d2 sequence at exponents (a1, a2), each of its four
    endpoints its own floor(4^(k*a))."""
    a1, a2 = alphas
    m, odd = divmod(n - 1, 2)
    if odd == 0:  # n = 2m+1
        iv1 = (floor_power(4, m * a1), floor_power(4, (m + 1) * a1))
        iv2 = (floor_power(4, m * a2), floor_power(4, (m + 2) * a2))
    else:  # n = 2m+2
        iv1 = (floor_power(4, m * a1), floor_power(4, (m + 2) * a1))
        iv2 = (floor_power(4, (m + 1) * a2), floor_power(4, (m + 2) * a2))
    return Box((iv1, iv2))


def round_constant_fractions(box: Box) -> Fraction:
    """The least A >= 1 making the box A-round as a running max of the
    Fraction bounds of every axis, for lower endpoints >= 1."""
    s = box.side(0)
    out = Fraction(1)
    for i in range(1, box.dim + 1):
        x, y = box.intervals[i - 1]
        p = Fraction(s) ** i
        side = 1 + y - x
        for c in (p / x, Fraction(y) / p, p / side, Fraction(side) / p):
            if c > out:
                out = c
    return out


def retention_constant_fractions(seq: BoxSequence) -> Fraction | None:
    """The least side-retention ratio over the steps of a B sequence as a
    running min of Fractions; None for a single box."""
    out = None
    for n in seq.indices()[:-1]:
        cur, nxt = seq.box(n), seq.box(n + 1)
        low, up = seq.touched(n)
        for r in (Fraction(nxt.side(low), cur.side(low)), Fraction(cur.side(up), nxt.side(up))):
            out = r if out is None else min(out, r)
    return out


@contextlib.contextmanager
def _ascii_file(path: Path, **kwargs) -> Iterator[Any]:
    """`path` opened for writing ASCII text.  A non-ASCII write removes the
    file and raises its UnicodeEncodeError, so no file of refused text is
    left, as `cli.write_report` refuses such text before it opens a file."""
    try:
        with path.open("w", encoding="ascii", **kwargs) as fh:
            yield fh
    except UnicodeEncodeError:
        path.unlink()
        raise


def write_report_rows(report: dict, out: Path) -> None:
    """The files of `cli.write_report`, by the standard library's indented
    strict JSON encoder and one write per CSV row and per table line, in
    ASCII."""
    out.mkdir(parents=True, exist_ok=True)
    text = json.dumps(report, sort_keys=True, indent=2, default=str, allow_nan=False)
    with _ascii_file(out / "report.json") as fh:
        fh.write(text + "\n")
    with _ascii_file(out / "checks.csv", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["check", "passed", "value", "bound", "note"])
        for r in report["rows"]:
            w.writerow([r["check"], r["passed"], r["value"], r["bound"], r["note"]])
    for name, table in report.get("tables", {}).items():
        with _ascii_file(out / f"{name}.dat") as fh:
            for a, b in table:
                fh.write(f"{a} {b}\n")


def file_tree(root: Path) -> dict:
    """Each file and directory under root: its bytes (None for a directory)
    and its mode, as the writer comparisons compare them."""
    return {str(f.relative_to(root)): (None if f.is_dir() else f.read_bytes(), f.stat().st_mode)
            for f in sorted(root.rglob("*"))}


def shared_cost_line(family: ProductFamily, n: int) -> float:
    """`walks._shared_cost` by `walks.log2_weights` over the (n, d) point
    array of the line (t, 0, ..., 0), t < n, summed by one running sum,
    for n >= 1."""
    line = np.zeros((n, family.d), dtype=np.int64)
    line[:, 0] = np.arange(n)
    return float(np.cumsum(np.exp2(log2_weights(family, line) / family.d))[-1])


def certified_mean_argmax(ok: np.ndarray) -> tuple[int | None, float]:
    """`walks._certified` as `np.argmax` and `np.mean` of the bool array."""
    witness = int(np.argmax(ok)) if ok.any() else None
    return witness, float(np.mean(ok))
