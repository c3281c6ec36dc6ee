"""Core lattice substrate: multi-indices, weight families, segments, paths.

All masses and per-axis sums are exact rationals coming from closed forms;
every closed form is also exposed in a log2-domain form, so astronomically
small weights stay computable.  Goodness decisions go through `mass_le`,
which decides from log2 masses split into an exact integer and a small
float, with a certified error margin, and computes exact rationals only
when the margin cannot decide.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iter_product
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

Coords = tuple[int, ...]

#: hard cap on lattice dimension for every constructor in this package
DIMENSION_CAP = 6

LN2 = math.log(2.0)
LOG2_3 = math.log2(3.0)


class UnsupportedRegionError(ValueError):
    """Raised when a mass is requested over a region with no closed form."""


class SizeGuardError(ValueError):
    """Raised when an exact computation would exceed its size guard."""


def _check_dimension(d: int) -> None:
    if not 1 <= d <= DIMENSION_CAP:
        raise ValueError(f"dimension must be in [1, {DIMENSION_CAP}], got {d}")


@dataclass(frozen=True)
class MultiIndex:
    """A point of the index lattice, optionally restricted to the positive cone."""

    coords: Coords
    nonnegative: bool = False

    def __post_init__(self) -> None:
        _check_dimension(len(self.coords))
        if self.nonnegative and any(c < 0 for c in self.coords):
            raise ValueError(f"negative coordinate in cone context: {self.coords}")

    @property
    def d(self) -> int:
        return len(self.coords)


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

    def points(self) -> Iterator[Coords]:
        ranges = [range(lo, hi + 1) for lo, hi in self.intervals]
        return iter_product(*ranges)

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

    @property
    def d(self) -> int:
        return len(self.anchor)

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

    @property
    def geodesic(self) -> bool:
        """True when every step increments exactly one coordinate by +1."""
        return all(
            sum(b) - sum(a) == 1 for a, b in zip(self.points, self.points[1:])
        )

    def step_axis(self, j: int) -> int:
        a, b = self.points[j], self.points[j + 1]
        for k in range(len(a)):
            if a[k] != b[k]:
                return k
        raise AssertionError("degenerate step")


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


def _run_tail_log2(stride: int, count: int) -> float:
    """log2 of 1 + 2^-stride + ... + 2^(-stride (count-1)), which lies in [0, 1]."""
    if count == 1:
        return 0.0
    return log2_one_minus_pow2(-stride * count) - log2_one_minus_pow2(-stride)


def _geometric_sum_log2(first_log2: float, ratio_log2: float, count: int) -> float:
    """log2 of  2^first * (1 + 2^ratio + ... + 2^(ratio*(count-1))),  ratio < 0."""
    if count <= 0:
        return NEG_INF
    if ratio_log2 >= 0:
        raise ValueError("ratio must be < 1")
    total_tail = ratio_log2 * count
    num = log2_one_minus_pow2(total_tail) if total_tail < 0 else NEG_INF
    den = log2_one_minus_pow2(ratio_log2)
    return first_log2 + num - den


# ---------------------------------------------------------------------------
# per-axis weights
# ---------------------------------------------------------------------------


class AxisWeight:
    """One factor of a product weight family: exact sums along one axis."""

    def contains(self, i: int) -> bool:
        raise NotImplementedError

    def weight(self, i: int) -> Fraction:
        raise NotImplementedError

    def log2_weight(self, i: int) -> float:
        return log2_fraction(self.weight(i))

    def total(self) -> Fraction:
        raise NotImplementedError

    def prefix(self, t: int) -> Fraction:
        """Sum of weights at indices strictly below t."""
        raise NotImplementedError

    def range_mass(self, lo: int, hi: int, stride: int = 1) -> Fraction:
        raise NotImplementedError

    def range_mass_log2(self, lo: int, hi: int, stride: int = 1) -> float:
        raise NotImplementedError

    def range_power_log2(self, lo: int, hi: int, stride: int, alpha: float) -> float:
        """log2 of the sum of weight^alpha over the strided range."""
        raise NotImplementedError

    def weight_log2_parts(self, i: int) -> Log2Parts:
        return log2_parts(self.weight(i))

    def range_mass_log2_parts(self, lo: int, hi: int, stride: int = 1) -> Log2Parts | None:
        """log2 of range_mass as exact integer plus float; None when empty."""
        m = self.range_mass(lo, hi, stride)
        return log2_parts(m) if m else None

    def np_log2(self, col: np.ndarray) -> np.ndarray:
        raise NotImplementedError


def _count(lo: int, hi: int, stride: int) -> int:
    return 0 if hi < lo else (hi - lo) // stride + 1


class GeometricAxis(AxisWeight):
    """w(i) = 2^-(i+1) on the nonnegative integers; total mass 1."""

    def contains(self, i: int) -> bool:
        return i >= 0

    def weight(self, i: int) -> Fraction:
        if i < 0:
            raise ValueError(f"index {i} outside cone support")
        return Fraction(1, 2 ** (i + 1))

    def log2_weight(self, i: int) -> float:
        if i < 0:
            raise ValueError(f"index {i} outside cone support")
        return float(-(i + 1))

    def total(self) -> Fraction:
        return Fraction(1)

    def prefix(self, t: int) -> Fraction:
        if t <= 0:
            return Fraction(0)
        return 1 - Fraction(1, 2 ** t)

    def range_mass(self, lo: int, hi: int, stride: int = 1) -> Fraction:
        lo = max(lo, 0)
        c = _count(lo, hi, stride)
        if c == 0:
            return Fraction(0)
        r = Fraction(1, 2 ** stride)
        return Fraction(1, 2 ** (lo + 1)) * (1 - r ** c) / (1 - r)

    def range_mass_log2(self, lo: int, hi: int, stride: int = 1) -> float:
        return self.range_power_log2(lo, hi, stride, 1.0)

    def range_power_log2(self, lo: int, hi: int, stride: int, alpha: float) -> float:
        lo = max(lo, 0)
        c = _count(lo, hi, stride)
        if c == 0:
            return NEG_INF
        return _geometric_sum_log2(-alpha * (lo + 1), -alpha * stride, c)

    def weight_log2_parts(self, i: int) -> Log2Parts:
        if i < 0:
            raise ValueError(f"index {i} outside cone support")
        return -(i + 1), 0.0

    def range_mass_log2_parts(self, lo: int, hi: int, stride: int = 1) -> Log2Parts | None:
        lo = max(lo, 0)
        c = _count(lo, hi, stride)
        return (-(lo + 1), _run_tail_log2(stride, c)) if c else None

    def np_log2(self, col: np.ndarray) -> np.ndarray:
        return -(col.astype(np.float64) + 1.0)


class SymmetricGeometricAxis(AxisWeight):
    """w(i) = 2^-|i| / 3 on all integers; total mass 1."""

    def contains(self, i: int) -> bool:
        return True

    def weight(self, i: int) -> Fraction:
        return Fraction(1, 3 * 2 ** abs(i))

    def log2_weight(self, i: int) -> float:
        return -abs(i) - math.log2(3.0)

    def total(self) -> Fraction:
        return Fraction(1)

    def prefix(self, t: int) -> Fraction:
        if t <= 0:
            return Fraction(1, 3 * 2 ** (-t))
        return 1 - Fraction(2, 3 * 2 ** t)

    def range_mass(self, lo: int, hi: int, stride: int = 1) -> Fraction:
        total = Fraction(0)
        # negative side: indices <= -1, weight 2^i/3 increasing toward 0
        neg_hi = min(hi, -1)
        if lo <= neg_hi:
            c = _count(lo, neg_hi, stride)
            first = Fraction(1, 3) * Fraction(1, 2 ** (-lo))
            r = Fraction(2 ** stride)
            total += first * (r ** c - 1) / (r - 1)
        # nonnegative side: first index >= max(lo, 0) on the stride grid of lo
        if hi >= 0:
            start = lo if lo >= 0 else lo + ((-lo + stride - 1) // stride) * stride
            c = _count(start, hi, stride)
            if c:
                first = Fraction(1, 3 * 2 ** start)
                r = Fraction(1, 2 ** stride)
                total += first * (1 - r ** c) / (1 - r)
        return total

    def range_mass_log2(self, lo: int, hi: int, stride: int = 1) -> float:
        return self.range_power_log2(lo, hi, stride, 1.0)

    def range_power_log2(self, lo: int, hi: int, stride: int, alpha: float) -> float:
        out = NEG_INF
        lg3 = math.log2(3.0)
        neg_hi = min(hi, -1)
        if lo <= neg_hi:
            c = _count(lo, neg_hi, stride)
            # ascending weights: sum backwards from the largest term
            top = lo + (c - 1) * stride
            out = log2_add(
                out, _geometric_sum_log2(alpha * top - alpha * lg3, -alpha * stride, c)
            )
        if hi >= 0:
            start = lo if lo >= 0 else lo + ((-lo + stride - 1) // stride) * stride
            c = _count(start, hi, stride)
            if c:
                out = log2_add(
                    out, _geometric_sum_log2(-alpha * start - alpha * lg3, -alpha * stride, c)
                )
        return out

    def weight_log2_parts(self, i: int) -> Log2Parts:
        return -abs(i), -LOG2_3

    def range_mass_log2_parts(self, lo: int, hi: int, stride: int = 1) -> Log2Parts | None:
        # each side is one geometric run, led by its largest weight
        neg = pos = None
        neg_hi = min(hi, -1)
        if lo <= neg_hi:
            c = _count(lo, neg_hi, stride)
            neg = (lo + (c - 1) * stride, _run_tail_log2(stride, c) - LOG2_3)
        if hi >= 0:
            start = lo if lo >= 0 else lo + ((-lo + stride - 1) // stride) * stride
            c = _count(start, hi, stride)
            if c:
                pos = (-start, _run_tail_log2(stride, c) - LOG2_3)
        if neg is None or pos is None:
            return neg or pos
        e = max(neg[0], pos[0])
        return e, log2_add(neg[1] + (neg[0] - e), pos[1] + (pos[0] - e))

    def np_log2(self, col: np.ndarray) -> np.ndarray:
        return -np.abs(col).astype(np.float64) - math.log2(3.0)


class UniformAxis(AxisWeight):
    """Constant weight on a finite integer interval."""

    def __init__(self, lo: int, hi: int, cell: Fraction) -> None:
        if lo > hi or cell <= 0:
            raise ValueError("uniform axis needs lo <= hi and positive cell mass")
        self.lo, self.hi, self.cell = lo, hi, Fraction(cell)

    def contains(self, i: int) -> bool:
        return self.lo <= i <= self.hi

    def weight(self, i: int) -> Fraction:
        if not self.contains(i):
            raise ValueError(f"index {i} outside axis support [{self.lo}, {self.hi}]")
        return self.cell

    def total(self) -> Fraction:
        return self.cell * (self.hi - self.lo + 1)

    def prefix(self, t: int) -> Fraction:
        n_below = min(max(t - self.lo, 0), self.hi - self.lo + 1)
        return self.cell * n_below

    def range_mass(self, lo: int, hi: int, stride: int = 1) -> Fraction:
        lo, hi = max(lo, self.lo), min(hi, self.hi)
        return self.cell * _count(lo, hi, stride)

    def range_mass_log2(self, lo: int, hi: int, stride: int = 1) -> float:
        m = self.range_mass(lo, hi, stride)
        return log2_fraction(m) if m else NEG_INF

    def range_power_log2(self, lo: int, hi: int, stride: int, alpha: float) -> float:
        lo, hi = max(lo, self.lo), min(hi, self.hi)
        c = _count(lo, hi, stride)
        if not c:
            return NEG_INF
        return math.log2(c) + alpha * log2_fraction(self.cell)

    def np_log2(self, col: np.ndarray) -> np.ndarray:
        return np.full(col.shape, log2_fraction(self.cell))


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

    @property
    def total_mass(self) -> Fraction:
        raise NotImplementedError

    def box_mass(self, box: Box) -> Fraction:
        raise NotImplementedError

    def box_mass_log2(self, box: Box) -> float:
        m = self.box_mass(box)
        return log2_fraction(m) if m else NEG_INF

    def segment_mass(self, seg: Segment) -> Fraction:
        raise NotImplementedError

    def segment_mass_log2(self, seg: Segment) -> float:
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

    def __init__(self, axes: Sequence[AxisWeight], scale: Fraction = Fraction(1),
                 name: str = "product") -> None:
        _check_dimension(len(axes))
        self.axes = tuple(axes)
        self.d = len(axes)
        self.scale = Fraction(scale)
        self._scale_parts = log2_parts(self.scale)
        self.name = name
        self.support = "finite" if all(isinstance(a, UniformAxis) for a in axes) else (
            "cone" if all(isinstance(a, GeometricAxis) for a in axes) else "lattice"
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

    def log2_weight(self, v: Sequence[int]) -> float:
        return log2_fraction(self.scale) + sum(
            ax.log2_weight(c) for ax, c in zip(self.axes, v, strict=True)
        )

    @property
    def total_mass(self) -> Fraction:
        t = self.scale
        for ax in self.axes:
            t *= ax.total()
        return t

    def box_mass(self, box: Box) -> Fraction:
        m = self.scale
        for ax, (lo, hi) in zip(self.axes, box.intervals, strict=True):
            m *= ax.range_mass(lo, hi)
            if not m:
                return Fraction(0)
        return m

    def box_mass_log2(self, box: Box) -> float:
        m = log2_fraction(self.scale)
        for ax, (lo, hi) in zip(self.axes, box.intervals, strict=True):
            m += ax.range_mass_log2(lo, hi)
        return m

    def mass_log2_parts(self, region: Box | Segment) -> Log2Parts | None:
        if isinstance(region, Box):
            terms = [
                ax.range_mass_log2_parts(lo, hi)
                for ax, (lo, hi) in zip(self.axes, region.intervals, strict=True)
            ]
        else:
            terms = [
                self.axes[k].weight_log2_parts(c)
                for k, c in enumerate(region.anchor)
                if k != region.axis
            ]
            terms.append(self.axes[region.axis].range_mass_log2_parts(*region.axis_values()))
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
                m *= self.axes[k].weight(c)
        lo, hi, stride = seg.axis_values()
        return m * self.axes[seg.axis].range_mass(lo, hi, stride)

    def segment_mass_log2(self, seg: Segment) -> float:
        m = log2_fraction(self.scale)
        for k, c in enumerate(seg.anchor):
            if k != seg.axis:
                m += self.axes[k].log2_weight(c)
        lo, hi, stride = seg.axis_values()
        return m + self.axes[seg.axis].range_mass_log2(lo, hi, stride)

    def segment_power_log2(self, seg: Segment, alpha: float) -> float:
        """log2 of the sum of weight^alpha over the segment's points."""
        m = alpha * log2_fraction(self.scale)
        for k, c in enumerate(seg.anchor):
            if k != seg.axis:
                m += alpha * self.axes[k].log2_weight(c)
        lo, hi, stride = seg.axis_values()
        return m + self.axes[seg.axis].range_power_log2(lo, hi, stride, alpha)

    def np_log2_weight(self, pts: np.ndarray) -> np.ndarray:
        out = np.full(pts.shape[0], log2_fraction(self.scale))
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

    def segment_mass_log2(self, seg: Segment) -> float:
        return log2_fraction(self.segment_mass(seg))

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
    return ProductFamily([GeometricAxis() for _ in range(d)], name="geometric")


def symmetric_geometric_family(d: int) -> ProductFamily:
    """Z^d-symmetric dyadic weights w(v) = prod 2^-|v_k|/3, total 1."""
    _check_dimension(d)
    return ProductFamily(
        [SymmetricGeometricAxis() for _ in range(d)], name="symmetric-geometric"
    )


def uniform_box_family(box: Box, total: Fraction = Fraction(1)) -> ProductFamily:
    """Constant weights on a finite box, renormalized to the given total."""
    axes = [UniformAxis(lo, hi, Fraction(1, hi - lo + 1)) for lo, hi in box.intervals]
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
# terms and the scale), each in [-2, 1]:
# - log2_parts: the correctly rounded quotient costs 1.45u in log2, and
#   log2 of a value below 1 adds one ulp: 2.5u.
# - _run_tail_log2: 2^-k is exact; log1p, the division by ln 2 and the
#   subtraction: 8u.  A symmetric-axis run subtracts log2(3): 11u.
#   Joining two runs with log2_add, whose slopes lie in [0, 1], adds 9u.
# So each term is off by at most 33u, and the 7 additions of partial sums
# below 16 in magnitude by 8u each: 287u per mass.  mass_ratio_log2 takes
# two differences below 32 (16u each), the factor's 2.5u and a final sum
# with the exact integer difference e.  When |e| <= 64 that sum is below
# 128 (64u): 2 * 287u + 32u + 2.5u + 64u < 700u < 2^-43.  A larger |e|
# puts the ratio more than 32 from 0, so its sign is beyond doubt.
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


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


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


def sphere_constant(d: int) -> Fraction:
    """A_d = 1/(d-1)!, the sphere-size lower-bound constant actually used."""
    return Fraction(1, math.factorial(d - 1))


def region_mass(
    family: LengthFamily,
    region: Box | Iterable[Sequence[int]] | None,
) -> tuple[Fraction, Fraction | None]:
    """Exact (mass, mean) of a region; mean is None on infinite regions.

    `region=None` means the family's full support, which needs a closed-form
    total; any other infinite region is rejected.
    """
    if region is None:
        return family.total_mass, None
    if isinstance(region, Box):
        if region.dim != family.d:
            raise ValueError("region dimension mismatch")
        mass = family.box_mass(region)
        return mass, mass / region.npoints()
    pts = [tuple(p) for p in region]
    if not pts:
        raise UnsupportedRegionError("empty point set")
    mass = sum((family.weight(p) for p in pts), Fraction(0))
    return mass, mass / len(pts)


def _exponent_for_axis(exponents, axis: int):
    if isinstance(exponents, (list, tuple)):
        return exponents[axis]
    return exponents


def path_cost(
    path: LatticePath | Sequence[Coords],
    family: LengthFamily,
    exponents,
) -> Fraction | float:
    """Sum of weight(point)^e over path points, e set by each outgoing step.

    Exact rational when every exponent equals 1, double precision otherwise
    (computed through log2 weights, so tiny weights do not underflow).
    """
    pts = path.points if isinstance(path, LatticePath) else tuple(tuple(p) for p in path)
    if len(pts) < 2:
        raise ValueError("path must have at least one step")
    axes = []
    for a, b in zip(pts, pts[1:]):
        diff = [x - y for x, y in zip(b, a)]
        axes.append(next(k for k, x in enumerate(diff) if x != 0))
    exps = [_exponent_for_axis(exponents, ax) for ax in axes]
    if all(e == 1 for e in exps):
        return sum((family.weight(p) for p in pts[:-1]), Fraction(0))
    total = 0.0
    for p, e in zip(pts[:-1], exps):
        if not 0 < float(e) <= 1:
            raise ValueError(f"exponent {e} outside (0, 1]")
        total += 2.0 ** (float(e) * family.log2_weight(p))
    return total
