"""Core lattice substrate: boxes, segments and weight families.

A product family's weight is a rational scale times one `Axis` per
coordinate, w(i) = coef * 2^(offset - rate |i|) on an integer interval.
A strided range of an axis is at most two geometric runs of integer log2
exponents, split at 0 where |i| turns, and every closed form is one
function of those runs: the exact rational mass, the log2 mass split into
an exact integer and a small float (`mass_log2_parts`, read as one float
by `mass_log2`) so that astronomically small weights stay computable, and
the float log2 of a power sum with a fractional exponent.  A point's
weight is its one-point range; its split log2 weight and the vector of
point log2 weights write that one run out.

Goodness decisions go through `mass_le`, which decides from the split
form with a certified error margin and computes exact rationals only when
the margin cannot decide; `weights_le` decides single point weights the
same way.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

Coords = tuple[int, ...]

#: hard cap on lattice dimension for every constructor in this package
DIMENSION_CAP = 6

LN2 = math.log(2.0)
LOG2_3 = math.log2(3.0)


class SizeGuardError(ValueError):
    """Raised when an exact computation would exceed its size guard."""


def _check_dimension(d: int) -> None:
    if not 1 <= d <= DIMENSION_CAP:
        raise ValueError(f"dimension must be in [1, {DIMENSION_CAP}], got {d}")


@dataclass(frozen=True)
class Box:
    """Product of closed integer intervals [x_k, y_k]."""

    intervals: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        _check_dimension(len(self.intervals))
        for lo, hi in self.intervals:
            if lo > hi:
                raise ValueError(f"empty interval [{lo}, {hi}]")

    @property
    def dim(self) -> int:
        return len(self.intervals)

    def side(self, k: int) -> int:
        lo, hi = self.intervals[k]
        return hi - lo + 1

    def sides(self) -> tuple[int, ...]:
        return tuple(self.side(k) for k in range(self.dim))

    def npoints(self) -> int:
        return math.prod(self.sides())

    def contains(self, v: Sequence[int]) -> bool:
        return all(lo <= c <= hi for c, (lo, hi) in zip(v, self.intervals, strict=True))

    def intersect(self, other: "Box") -> "Box | None":
        ivs = []
        for (a, b), (c, d) in zip(self.intervals, other.intervals, strict=True):
            lo, hi = max(a, c), min(b, d)
            if lo > hi:
                return None
            ivs.append((lo, hi))
        return Box(tuple(ivs))

    def fix_axis(self, k: int, value: int) -> "Box":
        lo, hi = self.intervals[k]
        if not lo <= value <= hi:
            raise ValueError(f"value {value} outside axis-{k} range [{lo}, {hi}]")
        ivs = list(self.intervals)
        ivs[k] = (value, value)
        return Box(tuple(ivs))


@dataclass(frozen=True)
class Segment:
    """Unidirectional run of lattice points, possibly with a stride.

    Points are anchor + t*step*stride along `axis` for t = 0..count-1.  The
    plain unit-step segments of the combinatorial chains use stride 1; the
    stride field carries the arithmetic-progression runs generated by the
    interval action.
    """

    anchor: Coords
    axis: int
    count: int
    step: int = 1
    stride: int = 1
    ambient: Box | None = None

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError("segment needs at least one point")
        if self.step not in (1, -1):
            raise ValueError("step must be +1 or -1")
        if self.stride < 1:
            raise ValueError("stride must be positive")
        if not 0 <= self.axis < len(self.anchor):
            raise ValueError("axis out of range")
        if self.ambient is not None:
            for p in (self.anchor, self.point(self.count - 1)):
                if not self.ambient.contains(p):
                    raise ValueError(f"segment point {p} escapes ambient box")

    def point(self, t: int) -> Coords:
        c = list(self.anchor)
        c[self.axis] += t * self.step * self.stride
        return tuple(c)

    def points(self) -> Iterator[Coords]:
        return (self.point(t) for t in range(self.count))

    def last(self) -> Coords:
        return self.point(self.count - 1)

    def axis_values(self) -> tuple[int, int, int]:
        """(lo, hi, stride) of the moving coordinate, lo <= hi."""
        a = self.anchor[self.axis]
        b = self.last()[self.axis]
        return (min(a, b), max(a, b), self.stride)

    def index_of(self, v: Sequence[int]) -> int | None:
        """Position of lattice point v on the segment, or None."""
        for k, c in enumerate(v):
            if k != self.axis and c != self.anchor[k]:
                return None
        delta = v[self.axis] - self.anchor[self.axis]
        t, r = divmod(delta, self.step * self.stride)
        if r != 0 or not 0 <= t < self.count:
            return None
        return t


# ---------------------------------------------------------------------------
# log2-domain helpers (nonnegative reals represented by their log2)
# ---------------------------------------------------------------------------

NEG_INF = float("-inf")


def log2_add(a: float, b: float) -> float:
    """log2(2^a + 2^b), robust to huge magnitude differences."""
    if a == NEG_INF:
        return b
    if b == NEG_INF:
        return a
    hi, lo = (a, b) if a >= b else (b, a)
    diff = lo - hi
    if diff < -1074:
        return hi
    return hi + math.log1p(2.0 ** diff) / LN2


def log2_one_minus_pow2(x: float) -> float:
    """log2(1 - 2^x) for x < 0."""
    if x >= 0:
        raise ValueError("need x < 0")
    return math.log1p(-(2.0 ** x)) / LN2 if x > -1074 else 0.0


Log2Parts = tuple[int, float]  # log2 x = exact integer + small float


def log2_parts(q: Fraction) -> Log2Parts:
    """log2 of a positive rational as (bit-length difference, log2 of the
    correctly rounded quotient in (1/2, 2)); the float is off by <= 2.5u."""
    p, r = q.numerator, q.denominator
    if p <= 0:
        raise ValueError("log2 of non-positive rational")
    shift = p.bit_length() - r.bit_length()
    return shift, math.log2(p / (r << shift) if shift >= 0 else (p << -shift) / r)


def log2_fraction(q: Fraction) -> float:
    """log2 of a positive rational, exact-int based so huge values are fine."""
    if q <= 0:
        raise ValueError("log2 of non-positive rational")
    p, r = q.numerator, q.denominator
    # math.log2 on big ints keeps ~double precision of the true log
    return math.log2(p) - math.log2(r)


def _geometric_sum_log2(first_log2: float, ratio_log2: float, count: int) -> float:
    """log2 of  2^first * (1 + 2^ratio + ... + 2^(ratio*(count-1))),  ratio <= 0."""
    if count <= 0:
        return NEG_INF
    if ratio_log2 == 0:
        return first_log2 + math.log2(count)
    if ratio_log2 > 0:
        raise ValueError("ratio must be <= 1")
    total_tail = ratio_log2 * count
    num = log2_one_minus_pow2(total_tail) if total_tail < 0 else NEG_INF
    den = log2_one_minus_pow2(ratio_log2)
    return first_log2 + num - den


# ---------------------------------------------------------------------------
# per-axis weights
# ---------------------------------------------------------------------------

# A run is (e, r, c): the c terms 2^e, 2^(e+r), ..., 2^(e+r(c-1)), led by the
# largest, with integer exponents and r <= 0.
def _run_mass(e: int, r: int, c: int) -> tuple[int, int]:
    """A run's sum as (n, k), meaning n * 2^k exactly."""
    if r == 0:
        return c, e
    return ((1 << -r * c) - 1) // ((1 << -r) - 1), e + r * (c - 1)


@dataclass(frozen=True)
class Axis:
    """One factor of a product weight family: w(i) = coef * 2^(offset - rate |i|)
    on lo <= i <= hi (lo and hi may be infinite; then rate > 0).

    `coef_parts` is log2 coef as an exact integer plus a float, carried as
    given so that the split forms below round as written.  Every form sums
    the geometric runs of `_runs`; a point's weight is its one-point range.
    """

    lo: int | float
    hi: int | float
    coef: Fraction
    coef_parts: Log2Parts
    offset: int
    rate: int

    def contains(self, i: int) -> bool:
        return self.lo <= i <= self.hi

    def _runs(self, lo: int, hi: int, stride: int) -> list[tuple[int, int, int]]:
        """The points lo, lo + stride, ... <= hi inside the support, as at
        most two runs: i < 0, where the weights ascend, led by its top point,
        then i >= 0.  A constant axis (rate 0) is one run."""
        if lo < self.lo:  # first point of the range's own grid in the support
            lo += -((lo - self.lo) // stride) * stride
        if hi > self.hi:
            hi = self.hi
        if hi < lo:
            return []
        out, ratio = [], -self.rate * stride
        if lo < 0 and self.rate:
            top = min(hi - (hi - lo) % stride, -1 - (-1 - lo) % stride)
            out.append((self.offset + self.rate * top, ratio, (top - lo) // stride + 1))
            lo = top + stride
        if lo <= hi:
            out.append((self.offset - self.rate * lo, ratio, (hi - lo) // stride + 1))
        return out

    def mass(self, lo: int, hi: int, stride: int = 1) -> Fraction:
        """Exact sum of the weights over the strided range."""
        total = Fraction(0)
        for run in self._runs(lo, hi, stride):
            n, k = _run_mass(*run)
            total += Fraction(n << k) if k >= 0 else Fraction(n, 1 << -k)
        return self.coef * total

    def log2_parts(self, lo: int, hi: int, stride: int = 1) -> Log2Parts | None:
        """log2 of `mass` as exact integer plus float; None when empty.  Two
        runs are joined with log2_add, aligned on the larger exponent."""
        ce, cf = self.coef_parts
        out = None
        for e, r, c in self._runs(lo, hi, stride):
            # the tail, log2 of 1 + 2^r + ... + 2^(r(c-1)): integer + float in [0, 1]
            if c == 1:
                te, tf = 0, 0.0
            elif r == 0:
                te, tf = log2_parts(c)
            else:
                te, tf = 0, log2_one_minus_pow2(r * c) - log2_one_minus_pow2(r)
            e, f = e + ce + te, tf + cf
            if out is not None:
                top = max(out[0], e)
                e, f = top, log2_add(out[1] + (out[0] - top), f + (e - top))
            out = e, f
        return out

    def power_log2(self, lo: int, hi: int, stride: int, alpha: float) -> float:
        """log2 of the sum of weight^alpha over the strided range."""
        ce, cf = self.coef_parts
        out = NEG_INF
        for e, r, c in self._runs(lo, hi, stride):
            out = log2_add(out, _geometric_sum_log2(alpha * (e + ce) + alpha * cf, alpha * r, c))
        return out

    def _check(self, i: int) -> None:
        if not self.lo <= i <= self.hi:
            raise ValueError(f"index {i} outside axis support [{self.lo}, {self.hi}]")

    def weight(self, i: int) -> Fraction:
        """Exact w(i), the mass of the one-point range; ValueError outside
        the support."""
        self._check(i)
        return self.mass(i, i)

    def point_parts(self, i: int) -> Log2Parts:
        """`log2_parts(i, i)` written out (its one run has tail (0, 0.0)), as
        points are decided by the thousand; ValueError outside the support."""
        self._check(i)
        ce, cf = self.coef_parts
        return self.offset + ce - self.rate * abs(i), cf

    def total(self) -> Fraction:
        """Mass of the whole support, which is finite, [0, inf) or all of Z."""
        if math.isfinite(self.lo) and math.isfinite(self.hi):
            return self.mass(self.lo, self.hi)
        ratio = Fraction(1, 1 << self.rate)
        tail = self.coef * Fraction(2) ** self.offset / (1 - ratio)
        return tail if self.lo == 0 else tail * (1 + ratio)

    def np_log2(self, col: np.ndarray) -> np.ndarray:
        """Float log2 w(i) for the indices i of `col`, all in the support
        (so |i| = i when lo >= 0)."""
        ce, cf = self.coef_parts
        out = np.multiply(col if self.lo >= 0 else np.abs(col), -self.rate, dtype=np.float64)
        out += (self.offset + ce) + cf
        return out


def geometric_axis() -> Axis:
    """w(i) = 2^-(i+1) on the nonnegative integers; total mass 1."""
    return Axis(0, math.inf, Fraction(1), (0, 0.0), -1, 1)


def symmetric_geometric_axis() -> Axis:
    """w(i) = 2^-|i| / 3 on all integers; total mass 1."""
    return Axis(-math.inf, math.inf, Fraction(1, 3), (0, -LOG2_3), 0, 1)


# ---------------------------------------------------------------------------
# weight families
# ---------------------------------------------------------------------------


class LengthFamily:
    """Summable positive weights on a d-dimensional lattice.

    Subclasses know their support and expose exact masses.  `support` is one
    of "cone" (nonnegative orthant), "lattice" (all of Z^d) or "finite".
    """

    d: int
    support: str
    name: str

    def contains(self, v: Sequence[int]) -> bool:
        raise NotImplementedError

    def weight(self, v: Sequence[int]) -> Fraction:
        raise NotImplementedError

    def log2_weight(self, v: Sequence[int]) -> float:
        return log2_fraction(self.weight(v))

    def weight_log2_parts(self, v: Sequence[int]) -> Log2Parts:
        """log2 weight at v as an exact integer plus a small float; raises
        the ValueError of `weight` outside the support."""
        return log2_parts(self.weight(v))

    @property
    def total_mass(self) -> Fraction:
        raise NotImplementedError

    def box_mass(self, box: Box) -> Fraction:
        raise NotImplementedError

    def segment_mass(self, seg: Segment) -> Fraction:
        raise NotImplementedError

    def segment_power_log2(self, seg: Segment, alpha: float) -> float:
        """log2 of the sum of weight^alpha over the segment's points."""
        raise NotImplementedError

    def mass_log2_parts(self, region: Box | Segment) -> Log2Parts | None:
        """log2 mass of a box or segment as an exact integer plus a float
        of magnitude below 16; None on zero mass."""
        m = exact_mass(self, region)
        return log2_parts(m) if m else None

    def np_log2_weight(self, pts: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class ProductFamily(LengthFamily):
    """Product of per-axis weights times a rational scale."""

    def __init__(self, axes: Sequence[Axis], scale: Fraction = Fraction(1),
                 name: str = "product") -> None:
        _check_dimension(len(axes))
        self.axes = tuple(axes)
        self.d = len(axes)
        self.scale = Fraction(scale)
        self._scale_parts = log2_parts(self.scale)
        self._scale_log2 = log2_fraction(self.scale)
        self.name = name
        bounded = all(math.isfinite(a.lo) and math.isfinite(a.hi) for a in axes)
        self.support = "finite" if bounded else (
            "cone" if all(a.lo == 0 for a in axes) else "lattice"
        )

    def contains(self, v: Sequence[int]) -> bool:
        return len(v) == self.d and all(
            ax.contains(c) for ax, c in zip(self.axes, v)
        )

    def weight(self, v: Sequence[int]) -> Fraction:
        w = self.scale
        for ax, c in zip(self.axes, v, strict=True):
            w *= ax.weight(c)
        return w

    def weight_log2_parts(self, v: Sequence[int]) -> Log2Parts:
        e, f = self._scale_parts
        for ax, c in zip(self.axes, v, strict=True):
            te, tf = ax.point_parts(c)
            e, f = e + te, f + tf
        return e, f

    @property
    def total_mass(self) -> Fraction:
        t = self.scale
        for ax in self.axes:
            t *= ax.total()
        return t

    def box_mass(self, box: Box) -> Fraction:
        m = self.scale
        for ax, (lo, hi) in zip(self.axes, box.intervals, strict=True):
            m *= ax.mass(lo, hi)
            if not m:
                return Fraction(0)
        return m

    def mass_log2_parts(self, region: Box | Segment) -> Log2Parts | None:
        if isinstance(region, Box):
            terms = [
                ax.log2_parts(lo, hi)
                for ax, (lo, hi) in zip(self.axes, region.intervals, strict=True)
            ]
        else:
            # a fixed coordinate outside its axis' support leaves no point
            terms = [
                self.axes[k].point_parts(c) if self.axes[k].contains(c) else None
                for k, c in enumerate(region.anchor)
                if k != region.axis
            ]
            terms.append(self.axes[region.axis].log2_parts(*region.axis_values()))
        e, f = self._scale_parts
        for term in terms:
            if term is None:
                return None
            e, f = e + term[0], f + term[1]
        return e, f

    def segment_mass(self, seg: Segment) -> Fraction:
        m = self.scale
        for k, c in enumerate(seg.anchor):
            if k != seg.axis:
                if not self.axes[k].contains(c):
                    return Fraction(0)
                m *= self.axes[k].weight(c)
        return m * self.axes[seg.axis].mass(*seg.axis_values())

    def segment_power_log2(self, seg: Segment, alpha: float) -> float:
        """log2 of the sum of weight^alpha over the segment's points."""
        m = alpha * self._scale_log2
        for k, c in enumerate(seg.anchor):
            if k != seg.axis:
                if not self.axes[k].contains(c):
                    return NEG_INF
                e, f = self.axes[k].point_parts(c)
                m += alpha * (e + f)
        return m + self.axes[seg.axis].power_log2(*seg.axis_values(), alpha)

    def np_log2_weight(self, pts: np.ndarray) -> np.ndarray:
        out = np.full(pts.shape[0], self._scale_log2)
        for k, ax in enumerate(self.axes):
            out += ax.np_log2(pts[:, k])
        return out


class TableFamily(LengthFamily):
    """Finite family given by an explicit weight table."""

    support = "finite"

    def __init__(self, weights: dict[Coords, Fraction], name: str = "table") -> None:
        if not weights:
            raise ValueError("empty weight table")
        dims = {len(k) for k in weights}
        if len(dims) != 1:
            raise ValueError("inconsistent index dimensions")
        self.d = dims.pop()
        _check_dimension(self.d)
        self.table = {k: Fraction(v) for k, v in weights.items()}
        if any(v <= 0 for v in self.table.values()):
            raise ValueError("weights must be positive")
        self.name = name

    def contains(self, v: Sequence[int]) -> bool:
        return tuple(v) in self.table

    def weight(self, v: Sequence[int]) -> Fraction:
        try:
            return self.table[tuple(v)]
        except KeyError:
            raise ValueError(f"index {tuple(v)} outside table support") from None

    @property
    def total_mass(self) -> Fraction:
        return sum(self.table.values(), Fraction(0))

    def box_mass(self, box: Box) -> Fraction:
        return sum(
            (w for v, w in self.table.items() if box.contains(v)), Fraction(0)
        )

    def segment_mass(self, seg: Segment) -> Fraction:
        return sum((self.weight(p) for p in seg.points()), Fraction(0))

    def segment_power_log2(self, seg: Segment, alpha: float) -> float:
        out = NEG_INF
        for p in seg.points():
            out = log2_add(out, alpha * self.log2_weight(p))
        return out

    def np_log2_weight(self, pts: np.ndarray) -> np.ndarray:
        return np.array([self.log2_weight(tuple(int(c) for c in p)) for p in pts])


def geometric_family(d: int) -> ProductFamily:
    """Product-geometric weights on the cone: w(v) = prod 2^-(v_k+1), total 1."""
    _check_dimension(d)
    return ProductFamily([geometric_axis()] * d, name="geometric")


def symmetric_geometric_family(d: int) -> ProductFamily:
    """Z^d-symmetric dyadic weights w(v) = prod 2^-|v_k|/3, total 1."""
    _check_dimension(d)
    return ProductFamily([symmetric_geometric_axis()] * d, name="symmetric-geometric")


def uniform_box_family(box: Box, total: Fraction = Fraction(1)) -> ProductFamily:
    """Constant weights on a finite box, renormalized to the given total."""
    cells = [Fraction(1, hi - lo + 1) for lo, hi in box.intervals]
    axes = [Axis(lo, hi, c, log2_parts(c), 0, 0) for (lo, hi), c in zip(box.intervals, cells)]
    return ProductFamily(axes, scale=Fraction(total), name="uniform")


# ---------------------------------------------------------------------------
# certified mass comparison
# ---------------------------------------------------------------------------


class Bound(NamedTuple):
    """The quantity q * mass(region): a positive rational and a box or segment."""

    q: Fraction
    region: Box | Segment


# bounded: scans compare many regions with one bound, and the cache keeps
# at most this many families alive
@functools.lru_cache(maxsize=1024)
def _parts(family: LengthFamily, region: Box | Segment) -> Log2Parts | None:
    return family.mass_log2_parts(region)


def mass_log2(family: LengthFamily, region: Box | Segment) -> float:
    """log2 mass of a box or segment, from the split closed form."""
    parts = _parts(family, region)
    return NEG_INF if parts is None else parts[0] + parts[1]


def exact_mass(family: LengthFamily, region: Box | Segment) -> Fraction:
    if isinstance(region, Box):
        return family.box_mass(region)
    return family.segment_mass(region)


# Error of the float part of mass_log2_parts, by ulp accounting (u = 2^-53;
# libm log2, log1p and pow within 1 ulp, as glibc documents).  The integer
# part is exact, and the float part sums at most 7 terms (d <= 6 axis
# terms and the scale), each in [-2, 2]:
# - log2_parts: the correctly rounded quotient costs 1.45u in log2, and
#   log2 of a value below 1 adds one ulp: 2.5u.
# - per run of `Axis._runs`: the tail in `Axis.log2_parts` costs 8u, as
#   2^-k is exact and log1p, the division by ln 2 and the subtraction are
#   within an ulp each.  Adding the coefficient's float (-log2(3) on the
#   symmetric axis; on a uniform axis log2_parts of the cell, and the tail
#   is log2_parts of the count) brings a run to 11u.  Joining the two runs
#   of a range with log2_add, whose slopes lie in [0, 1], adds 9u.
# So each term is off by at most 33u, and the 7 additions of partial sums
# below 16 in magnitude by 8u each: 287u per mass.  mass_ratio_log2 takes
# two differences below 32 (16u each), the factor's 2.5u and a final sum
# with the exact integer difference e.  When |e| <= 64 that sum is below
# 128 (64u): 2 * 287u + 32u + 2.5u + 64u < 700u < 2^-43.  A larger |e|
# puts the ratio more than 32 from 0, so its sign is beyond doubt.
# `weights_le` sums the same kinds of terms for one point (weight parts of
# the axes and the scale) against one log2_parts, so its error is smaller.
MARGIN = 2.0 ** -40
# Exact masses of the weights 2^-(affine in i) 3^-k of the infinite
# families carry about as many bits as the sum of the coordinate
# magnitudes; past this many an exact comparison would take seconds and
# gigabytes.  Finite families sum their own rationals at any coordinates.
EXACT_BITS_GUARD = 2 ** 20


def _coordinate_bits(region: Box | Segment) -> int:
    ends = region.intervals if isinstance(region, Box) else zip(region.anchor, region.last())
    return sum(max(abs(lo), abs(hi)) for lo, hi in ends)


def mass_ratio_log2(family: LengthFamily, region: Box | Segment, bound: Bound) -> float:
    """log2 of mass(region) / (q * mass(B)) for bound = (q, B), within
    MARGIN when it is near 0; -inf or inf when a mass is zero."""
    q, other = bound
    eq, fq = log2_parts(q)  # raises unless q > 0
    a = _parts(family, region)
    if a is None:
        return NEG_INF
    b = _parts(family, other)
    if b is None:
        return math.inf
    return (a[0] - b[0] - eq) + (a[1] - b[1] - fq)


def mass_le(family: LengthFamily, region: Box | Segment, bound: Bound) -> bool:
    """Decide mass(region) <= q * mass(B) for bound = (q, B), exactly.

    The split log2 closed forms decide whenever the two sides are further
    apart than MARGIN; otherwise both masses are computed as exact
    rationals.
    """
    diff = mass_ratio_log2(family, region, bound)
    if abs(diff) > MARGIN:
        return diff < 0
    q, other = bound
    bits = _coordinate_bits(region) + _coordinate_bits(other)
    if family.support != "finite" and bits > EXACT_BITS_GUARD:
        raise SizeGuardError(f"masses of {region} and {other} tie to 2^-40")
    return exact_mass(family, region) <= q * exact_mass(family, other)


def weights_le(
    family: LengthFamily, points: Iterable[Sequence[int]], q: Fraction
) -> Iterator[bool]:
    """Decide weight(v) <= q exactly for each point v, the way `mass_le`
    decides masses.

    The split log2 weight (at most DIMENSION_CAP axis terms and the scale,
    so MARGIN's accounting covers it) decides whenever it is further than
    MARGIN from log2 q; otherwise the exact weight is compared.  Outside a
    finite support this raises the ValueError of `family.weight`.
    """
    eq, fq = log2_parts(q)
    for v in points:
        e, f = family.weight_log2_parts(v)
        diff = (e - eq) + (f - fq)
        yield diff < 0 if abs(diff) > MARGIN else family.weight(v) <= q


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def sphere_constant(d: int) -> Fraction:
    """A_d = 1/(d-1)!, the sphere-size lower-bound constant actually used."""
    return Fraction(1, math.factorial(d - 1))
