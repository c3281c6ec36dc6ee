"""Core lattice substrate: boxes, segments and weight families.

A segment is (anchor, axis, count, step): count points from the anchor,
a nonzero signed step apart along one axis.  It names no box; a chain's
segments are checked against their boxes by `concat.verify_chain`.

A product family is its axes: its weight is the product of one `Axis`
per coordinate, w(i) = coef * 2^(offset - rate |i|) on an integer interval.
A strided range of an axis is at most two geometric runs of integer log2
exponents, split at 0 where |i| turns, and every closed form is one
function of those runs: the exact dyadic mass, the log2 mass split into
an exact integer and a small float (`mass_log2_parts`, read as one float
by `mass_log2`) so that astronomically small weights stay computable, and
the float log2 of a power sum with a fractional exponent, the last two
with one geometric tail, `_geometric_sum_log2`.  A point's weight is its
one-point range; its split log2 weight writes that one run out.  This
module imports no numpy, so neither do the kinds built on it alone; the
vector of float log2 weights of a point array is `walks.log2_weights`.
A family memoizes its split parts itself: a product family per axis
range, keyed by (axis id, lo, hi, stride), where equal axes share one id,
and the power sum of a moving range by (axis id, lo, hi, stride, alpha) in
a dict of its own; a table per region.  Nothing is cached at module level,
as every run builds its own family and a process-wide cache would only
keep dead families alive.

Goodness decisions go through `mass_le`, which decides from the split
form with a certified error margin, and where that cannot decide from
the sign of one exact sum of powers of two, at any coordinates;
`weights_le` decides point weights so, falling back to exact rationals.
`first_translate_le` finds the first translate of regions along one axis
that `mass_le` passes.  On a product axis of rate > 0, at coordinates >= 0
inside the support, a translate's split parts are those of the unmoved
region with rate times the move taken from the integer, so the scan
starts where that closed form predicts the answer, decides each probe
from it, and builds a translate for `mass_le` only on a tie.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple, Sequence

Coords = tuple[int, ...]

#: hard cap on lattice dimension for every constructor in this package
DIMENSION_CAP = 6

LN2 = math.log(2.0)
LOG2_3 = math.log2(3.0)


def _check_dimension(d: int) -> None:
    if not 1 <= d <= DIMENSION_CAP:
        raise ValueError(f"dimension must be in [1, {DIMENSION_CAP}], got {d}")


class _BoxFields(NamedTuple):
    intervals: tuple[tuple[int, int], ...]


class Box(_BoxFields):
    """Product of closed integer intervals [x_k, y_k]."""

    __slots__ = ()

    def __new__(cls, intervals: tuple[tuple[int, int], ...]) -> Box:
        _check_dimension(len(intervals))
        for lo, hi in intervals:
            if lo > hi:
                raise ValueError(f"empty interval [{lo}, {hi}]")
        return tuple.__new__(cls, (intervals,))

    @property
    def dim(self) -> int:
        return len(self.intervals)

    def side(self, k: int) -> int:
        lo, hi = self.intervals[k]
        return hi - lo + 1

    def npoints(self) -> int:
        return math.prod(hi - lo + 1 for lo, hi in self.intervals)

    def contains(self, v: Sequence[int]) -> bool:
        for c, (lo, hi) in zip(v, self.intervals, strict=True):
            if not lo <= c <= hi:
                return False
        return True

    def intersect(self, other: "Box") -> "Box":
        ivs = []
        for (a, b), (c, d) in zip(self.intervals, other.intervals, strict=True):
            lo, hi = max(a, c), min(b, d)
            if lo > hi:
                raise ValueError(f"boxes {self.intervals} and {other.intervals} are disjoint")
            ivs.append((lo, hi))
        return Box._make((tuple(ivs),))

    def fix_axis(self, k: int, value: int) -> "Box":
        lo, hi = self.intervals[k]
        if not lo <= value <= hi:
            raise ValueError(f"value {value} outside axis-{k} range [{lo}, {hi}]")
        ivs = list(self.intervals)
        ivs[k] = (value, value)
        return Box._make((tuple(ivs),))


class _SegmentFields(NamedTuple):
    anchor: Coords
    axis: int
    count: int
    step: int = 1


class Segment(_SegmentFields):
    """Unidirectional run of lattice points: anchor + t*step along `axis`
    for t = 0..count-1, with a nonzero signed step.

    The combinatorial chains walk unit steps, +1 or -1; a larger |step| is
    an arithmetic-progression run generated by the interval action.
    """

    __slots__ = ()

    def __new__(cls, anchor: Coords, axis: int, count: int, step: int = 1) -> Segment:
        if count < 1:
            raise ValueError("segment needs at least one point")
        if not step:
            raise ValueError("step must be nonzero")
        if not 0 <= axis < len(anchor):
            raise ValueError("axis out of range")
        return tuple.__new__(cls, (anchor, axis, count, step))

    def point(self, t: int) -> Coords:
        c = list(self.anchor)
        c[self.axis] += t * self.step
        return tuple(c)

    def points(self) -> Iterator[Coords]:
        return (self.point(t) for t in range(self.count))

    def last(self) -> Coords:
        return self.point(self.count - 1)

    def axis_values(self) -> tuple[int, int, int]:
        """(lo, hi, |step|) of the moving coordinate, lo <= hi."""
        # one unpacking: a field read of a tuple costs about twice an attribute's
        anchor, axis, count, step = self
        a = anchor[axis]
        b = a + (count - 1) * step
        return (a, b, step) if step > 0 else (b, a, -step)

    def index_of(self, v: Sequence[int]) -> int | None:
        """Position of lattice point v on the segment, or None."""
        anchor, axis, count, step = self
        for k, c in enumerate(v):
            if k != axis and c != anchor[k]:
                return None
        t, r = divmod(v[axis] - anchor[axis], step)
        if r != 0 or not 0 <= t < count:
            return None
        return t


# ---------------------------------------------------------------------------
# log2-domain helpers (nonnegative reals represented by their log2)
# ---------------------------------------------------------------------------

NEG_INF = float("-inf")


def log2_add(a: float, b: float) -> float:
    """log2(2^a + 2^b), robust to huge magnitude differences: past 1075
    bits apart, and when b is -inf, 2.0 ** (lo - hi) is 0.0 and the larger
    one comes back."""
    if a == NEG_INF:
        return b
    hi, lo = (a, b) if a >= b else (b, a)
    return hi + math.log1p(2.0 ** (lo - hi)) / LN2


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


def _geometric_sum_log2(first_log2: float, ratio_log2: float, count: int) -> float:
    """log2 of  2^first * (1 + 2^ratio + ... + 2^(ratio*(count-1))),  ratio <= 0,
    count >= 1 (a run of `Axis._runs`)."""
    if ratio_log2 == 0:
        return first_log2 + math.log2(count)
    if ratio_log2 > 0:
        raise ValueError("ratio must be <= 1")
    num = log2_one_minus_pow2(ratio_log2 * count)
    den = log2_one_minus_pow2(ratio_log2)
    return first_log2 + num - den


# A dyadic sum {e: c} is the integer combination sum c 2^e of powers of two,
# exact at exponents far outside float range.
Dyadic = dict[int, int]
ONE: Dyadic = {0: 1}


def _product(k: int, *sums: Dyadic) -> Dyadic:
    """The product of an integer and dyadic sums, term by term."""
    out = {0: k}
    for s in sums:
        nxt: Dyadic = {}
        for e, c in out.items():
            for f, g in s.items():
                nxt[e + f] = nxt.get(e + f, 0) + c * g
        out = nxt
    return out


def _sign(terms: Iterable[tuple[int, int]]) -> int:
    """The exact sign of sum c 2^e over (e, c) terms, some c != 0 (as in
    `mass_le`, where both masses are positive), read from the top e down.

    acc holds the terms read so far in units of 2^top.  The terms from e
    down are below 2^(e + b), b the bit length of their total |c|, so once
    acc != 0 and top - e >= b the sign is acc's; a nonzero acc is never
    shifted further, so the cost depends on the term count alone.
    """
    items = sorted(((e, c) for e, c in terms if c), reverse=True)
    below = list(itertools.accumulate(abs(c) for _, c in reversed(items)))[::-1]
    acc, top = 0, items[0][0]
    for (e, c), total in zip(items, below):
        if acc and top - e >= total.bit_length():
            break
        acc, top = (acc << top - e) + c, e
    return (acc > 0) - (acc < 0)


# ---------------------------------------------------------------------------
# per-axis weights
# ---------------------------------------------------------------------------

# A run is (e, r, c): the c terms 2^e, 2^(e+r), ..., 2^(e+r(c-1)), led by the
# largest, with integer exponents and r <= 0.
class Axis(NamedTuple):
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

    def form(self, lo: int, hi: int, stride: int = 1) -> tuple[Dyadic, Dyadic]:
        """The strided range's mass over `coef`, exactly, as num / den.  Its
        runs share r; each adds 2^(e-r) - 2^(e-r+rc) over den = 2^-r - 1, or,
        when r = 0 or every run is one point, c 2^e over den = 1."""
        runs, r = self._runs(lo, hi, stride), -self.rate * stride
        num: Dyadic = defaultdict(int)
        if r == 0 or all(c == 1 for *_, c in runs):
            for e, _, c in runs:
                num[e] += c
            return num, ONE
        for e, _, c in runs:
            num[e - r] += 1
            num[e - r + r * c] -= 1
        return num, {-r: 1, 0: -1}

    def log2_parts(self, lo: int, hi: int, stride: int = 1) -> Log2Parts | None:
        """log2 of the mass, coef times `form`, as exact integer plus float;
        None when empty.  Two runs are joined with log2_add, aligned on the
        larger exponent; a point is its one run, written out by `point_parts`."""
        if lo == hi:
            return self.point_parts(lo) if self.lo <= lo <= self.hi else None
        ce, cf = self.coef_parts
        out = None
        for e, r, c in self._runs(lo, hi, stride):
            # the tail, log2 of 1 + 2^r + ... + 2^(r(c-1)): integer + float in [0, 1]
            if r == 0:
                te, tf = log2_parts(c)
            else:
                te, tf = 0, _geometric_sum_log2(0.0, r, c)
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

    def point_parts(self, i: int) -> Log2Parts:
        """`log2_parts(i, i)` written out (its one run has tail (0, 0.0)), as
        points are decided by the thousand; ValueError outside the support."""
        self._check(i)
        ce, cf = self.coef_parts
        return self.offset + ce - self.rate * abs(i), cf

    def total_form(self) -> tuple[Dyadic, Dyadic]:
        """`form` of the whole support, which is finite, [0, inf) or all of Z;
        an endless run keeps only 2^(e-r): 2^(offset+rate) from 0, 2^offset from -1."""
        if math.isfinite(self.lo) and math.isfinite(self.hi):
            return self.form(self.lo, self.hi)
        num = {self.offset + self.rate: 1, self.offset: int(self.lo < 0)}
        return num, {self.rate: 1, 0: -1}


def geometric_axis() -> Axis:
    """w(i) = 2^-(i+1) on the nonnegative integers; total mass 1."""
    return Axis(0, math.inf, Fraction(1), (0, 0.0), -1, 1)


def symmetric_geometric_axis() -> Axis:
    """w(i) = 2^-|i| / 3 on all integers; total mass 1."""
    return Axis(-math.inf, math.inf, Fraction(1, 3), (0, -LOG2_3), 0, 1)


# ---------------------------------------------------------------------------
# weight families
# ---------------------------------------------------------------------------


class MassForm(NamedTuple):
    """An exact mass c * num / den: a rational and two dyadic sums."""

    c: Fraction
    num: Dyadic
    den: Dyadic

    def value(self) -> Fraction:
        """The mass as a rational, with as many bits as coordinates are large."""
        low = min(*self.num, *self.den, 0)
        n, m = (sum(k << e - low for e, k in s.items()) for s in (self.num, self.den))
        return self.c * Fraction(n, m)


# the ValueError of a family method given a box or segment of another dimension
_OTHER_DIMENSION = "the family is on Z^{}, but the {} is on Z^{}"


class LengthFamily:
    """Summable positive weights on a d-dimensional lattice.

    Subclasses know their support and expose exact masses.  Their mass and
    power-sum methods raise ValueError on a box or segment of another
    dimension (`_check_region`).
    """

    d: int

    def contains(self, v: Sequence[int]) -> bool:
        raise NotImplementedError

    def weight(self, v: Sequence[int]) -> Fraction:
        raise NotImplementedError

    def weight_log2_parts(self, v: Sequence[int]) -> Log2Parts:
        """log2 weight at v as an exact integer plus a small float; raises
        the ValueError of `weight` outside the support."""
        return log2_parts(self.weight(v))

    @property
    def total_mass(self) -> Fraction:
        raise NotImplementedError

    def mass_form(self, region: Box | Segment) -> MassForm:
        """The exact mass of a box or segment as c * num / den."""
        raise NotImplementedError

    def range_power_log2(self, seg: Segment, alpha: float) -> float:
        """log2 of the sum of weight^alpha over the segment's points; -inf
        when none lies in the support."""
        raise NotImplementedError

    def mass_log2_parts(self, region: Box | Segment) -> Log2Parts | None:
        """log2 mass of a box or segment as an exact integer plus a float
        of magnitude below 16; None on zero mass."""
        m = self.mass_form(region).value()
        return log2_parts(m) if m else None

    def _check_region(self, region: Box | Segment) -> None:
        """ValueError unless the box or segment lies on the family's lattice."""
        dim = len(region[0])  # a box's intervals, a segment's anchor
        if dim != self.d:
            raise ValueError(_OTHER_DIMENSION.format(self.d, type(region).__name__.lower(), dim))


class ProductFamily(LengthFamily):
    """Product of per-axis weights, w(v) = prod_k w_k(v_k)."""

    def __init__(self, axes: Sequence[Axis]) -> None:
        _check_dimension(len(axes))
        self.axes = tuple(axes)
        self.d = len(axes)
        self._coef = math.prod(ax.coef for ax in self.axes)
        # axis k's memo id: the position of the first axis equal to it, so
        # that equal axes, whose closed forms are one function of the same
        # fields, share entries
        self._ids = tuple(self.axes.index(ax) for ax in self.axes)
        # the split log2 mass of lo, lo + stride, ... <= hi on an axis, by (id,
        # lo, hi, stride), and its power sum at alpha by (id, lo, hi, stride,
        # alpha); they live and die with the family
        self._memo: dict[tuple[int, int, int, int], Log2Parts | None] = {}
        self._powers: dict[tuple[int, int, int, int, float], float] = {}

    def contains(self, v: Sequence[int]) -> bool:
        return len(v) == self.d and all(
            ax.contains(c) for ax, c in zip(self.axes, v)
        )

    def weight(self, v: Sequence[int]) -> Fraction:
        self.weight_log2_parts(v)  # the ValueError of each axis outside the support
        return self.mass_form(Box(tuple((c, c) for c in v))).value()

    def weight_log2_parts(self, v: Sequence[int]) -> Log2Parts:
        """Each axis' `Axis.point_parts` added in axis order, as
        `mass_log2_parts` adds the terms of the one-point box."""
        e, f = 0, 0.0
        for ax, c in zip(self.axes, v, strict=True):
            pe, pf = ax.point_parts(c)
            e, f = e + pe, f + pf
        return e, f

    @property
    def total_mass(self) -> Fraction:
        return self._form([ax.total_form() for ax in self.axes]).value()

    def _form(self, forms: Sequence[tuple[Dyadic, Dyadic]]) -> MassForm:
        """The product of the per-axis forms: every axis gives its coef once."""
        nums, dens = zip(*forms)
        return MassForm(self._coef, _product(1, *nums), _product(1, *dens))

    def mass_form(self, region: Box | Segment) -> MassForm:
        self._check_region(region)
        if isinstance(region, Box):
            ranges = region.intervals
        else:
            ranges = [(c, c) for c in region.anchor]
            ranges[region.axis] = region.axis_values()
        return self._form([self.axes[k].form(*r) for k, r in enumerate(ranges)])

    def mass_log2_parts(self, region: Box | Segment) -> Log2Parts | None:
        # memoized axis terms: a box's axes, or a segment's fixed axes then its
        # moving one
        self._check_region(region)
        memo, axes, ids = self._memo, self.axes, self._ids
        e, f = 0, 0.0
        if isinstance(region, Box):
            k = 0
            for lo, hi in region.intervals:
                key = ids[k], lo, hi, 1
                term = memo.get(key, memo)
                if term is memo:
                    term = memo[key] = axes[k].log2_parts(lo, hi, 1)
                if term is None:
                    return None
                e, f, k = e + term[0], f + term[1], k + 1
            return e, f
        axis = region.axis
        for k, c in enumerate(region.anchor):
            if k != axis:
                key = ids[k], c, c, 1
                term = memo.get(key, memo)
                if term is memo:
                    term = memo[key] = axes[k].log2_parts(c, c, 1)
                if term is None:
                    return None
                e, f = e + term[0], f + term[1]
        lo, hi, s = region.axis_values()
        key = ids[axis], lo, hi, s
        term = memo.get(key, memo)
        if term is memo:
            term = memo[key] = axes[axis].log2_parts(lo, hi, s)
        if term is None:
            return None
        return e + term[0], f + term[1]

    def range_power_log2(self, seg: Segment, alpha: float) -> float:
        self._check_region(seg)
        m, memo, ids, axis = 0.0, self._memo, self._ids, seg.axis
        for k, c in enumerate(seg.anchor):
            if k != axis:
                # a point's parts, None outside the support, as in mass_log2_parts
                key = ids[k], c, c, 1
                term = memo.get(key, memo)
                if term is memo:
                    term = memo[key] = self.axes[k].log2_parts(c, c, 1)
                if term is None:
                    return NEG_INF
                m += alpha * (term[0] + term[1])
        lo, hi, s = seg.axis_values()
        key = ids[axis], lo, hi, s, alpha
        power = self._powers.get(key)
        if power is None:
            power = self._powers[key] = self.axes[axis].power_log2(lo, hi, s, alpha)
        return m + power


class TableFamily(LengthFamily):
    """Finite family given by an explicit weight table."""

    def __init__(self, weights: dict[Coords, Fraction]) -> None:
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
        # split log2 masses by region: a scan compares many translates with
        # one bound, whose mass sums the whole table
        self._memo: dict[Box | Segment, Log2Parts | None] = {}

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

    def _on_segment(self, seg: Segment) -> Iterable[Coords]:
        """The segment's points that lie in the table, in the segment's
        order, read off the table by `Segment.index_of`: a region costs the
        table, as a box does, however long the segment runs."""
        at = {t: v for v in self.table if (t := seg.index_of(v)) is not None}
        return (at[t] for t in sorted(at))

    def mass_form(self, region: Box | Segment) -> MassForm:
        """The sum of the weights of the region's points in the table, over 1."""
        self._check_region(region)
        pts = (filter(region.contains, self.table) if isinstance(region, Box)
               else self._on_segment(region))
        total = sum((self.table[p] for p in pts), Fraction(0))
        return MassForm(total, ONE, ONE)

    def mass_log2_parts(self, region: Box | Segment) -> Log2Parts | None:
        if region not in self._memo:
            self._memo[region] = super().mass_log2_parts(region)
        return self._memo[region]

    def range_power_log2(self, seg: Segment, alpha: float) -> float:
        self._check_region(seg)
        # the point terms, summed in the segment's order
        out = NEG_INF
        for v in self._on_segment(seg):
            out = log2_add(out, alpha * sum(self.weight_log2_parts(v)))
        return out


def geometric_family(d: int) -> ProductFamily:
    """Product-geometric weights on the cone: w(v) = prod 2^-(v_k+1), total 1."""
    _check_dimension(d)
    return ProductFamily([geometric_axis()] * d)


def symmetric_geometric_family(d: int) -> ProductFamily:
    """Z^d-symmetric dyadic weights w(v) = prod 2^-|v_k|/3, total 1."""
    _check_dimension(d)
    return ProductFamily([symmetric_geometric_axis()] * d)


# ---------------------------------------------------------------------------
# certified mass comparison
# ---------------------------------------------------------------------------


class Bound(NamedTuple):
    """The quantity q * mass(region): a positive rational and a box or segment."""

    q: Fraction
    region: Box | Segment


def mass_log2(family: LengthFamily, region: Box | Segment) -> float:
    """log2 mass of a box or segment, from the split closed form."""
    parts = family.mass_log2_parts(region)
    return NEG_INF if parts is None else parts[0] + parts[1]


# Error of the float part of mass_log2_parts, by ulp accounting (u = 2^-53;
# libm log2, log1p and pow within 1 ulp, as glibc documents).  The integer
# part is exact, and the float part sums at most 6 terms (one per axis,
# d <= 6), each in [-2, 2]:
# - log2_parts: the correctly rounded quotient costs 1.45u in log2, and
#   log2 of a value below 1 adds one ulp: 2.5u.
# - per run of `Axis._runs`: the tail in `Axis.log2_parts` costs 8u, as
#   2^-k is exact and log1p, the division by ln 2 and the subtraction are
#   within an ulp each.  Adding the coefficient's float (-log2(3) on the
#   symmetric axis; on a uniform axis log2_parts of the cell, and the tail
#   is log2_parts of the count) brings a run to 11u.  Joining the two runs
#   of a range with log2_add, whose slopes lie in [0, 1], adds 9u.
# So each term is off by at most 33u, and the 6 additions of partial sums
# below 16 in magnitude by 8u each: 246u per mass.  mass_ratio_log2 takes
# two differences below 32 (16u each), the factor's 2.5u and a final sum
# with the exact integer difference e.  When |e| <= 64 that sum is below
# 128 (64u): 2 * 246u + 32u + 2.5u + 64u < 600u < 2^-43.  A larger |e|
# puts the ratio more than 32 from 0, so its sign is beyond doubt.
# `weights_le` sums the same kinds of terms for one point (the axes' point
# parts) against one log2_parts, so its error is smaller.
MARGIN = 2.0 ** -40


def _ratio_parts(family: LengthFamily, region: Box | Segment, bound: Bound) -> tuple[int, float]:
    """`mass_ratio_log2` split as (E, F) from the split parts of the masses
    and of q: E = a0 - b0 - e_q exact, F = a1 - b1 - f_q; (0, -inf) for a
    zero-mass region, else (0, inf) for a zero-mass B."""
    q, other = bound
    eq, fq = log2_parts(q)  # raises unless q > 0
    a = family.mass_log2_parts(region)
    if a is None:
        return 0, NEG_INF
    b = family.mass_log2_parts(other)
    if b is None:
        return 0, math.inf
    return a[0] - b[0] - eq, a[1] - b[1] - fq


def mass_ratio_log2(family: LengthFamily, region: Box | Segment, bound: Bound) -> float:
    """log2 of mass(region) / (q * mass(B)) for bound = (q, B), within
    MARGIN when it is near 0; -inf or inf when a mass is zero."""
    e, f = _ratio_parts(family, region, bound)
    return e + f


def mass_le(family: LengthFamily, region: Box | Segment, bound: Bound) -> bool:
    """Decide mass(region) <= q * mass(B) for bound = (q, B), exactly.

    The split log2 closed forms decide whenever the two sides are further
    apart than MARGIN; otherwise the two `mass_form`s, c * num / den, are
    cross-multiplied into one dyadic sum, whose sign decides at any size.
    """
    e, f = _ratio_parts(family, region, bound)
    diff = e + f
    if abs(diff) > MARGIN:
        return diff < 0
    q, other = bound
    a, b = family.mass_form(region), family.mass_form(other)
    # a.c a.num / a.den <= q b.c b.num / b.den, times the positive denominators
    left = _product(a.c.numerator * b.c.denominator * q.denominator, a.num, b.den)
    right = _product(-b.c.numerator * a.c.denominator * q.numerator, b.num, a.den)
    return _sign([*left.items(), *right.items()]) <= 0


def translated(region: Box | Segment, axis: int, delta: int) -> Box | Segment:
    """The box or segment moved by delta along one axis.  A move changes no
    field that the constructors check, so `_make` builds it unchecked."""
    if isinstance(region, Box):
        ivs = list(region.intervals)
        ivs[axis] = (ivs[axis][0] + delta, ivs[axis][1] + delta)
        return Box._make((tuple(ivs),))
    anchor = list(region.anchor)
    anchor[axis] += delta
    return Segment._make((tuple(anchor), region.axis, region.count, region.step))


def _translate_ratios(
    family: LengthFamily,
    checks: Sequence[tuple[Box | Segment, Bound]],
    axis: int,
    step: int,
    count: int,
) -> tuple[int, list[tuple[int, float]] | None]:
    """Where `first_translate_le` starts, and each check's `_ratio_parts`
    at t = 0, when every translate lies in the support at coordinates >= 0
    of a product axis with rate > 0; (0, None) elsewhere.

    There a region's range on the axis is one run of `Axis._runs`, and a
    move by delta takes rate * delta from its integer exponent and leaves
    its tail alone, so the translate's split parts are (a0 - rate * delta,
    a1) and its `mass_ratio_log2` is (E - rate * delta) + F, bit for bit.
    The start is the largest ceiling of a ratio at t = 0 over rate * step,
    where its check starts to pass.
    """
    if not isinstance(family, ProductFamily) or family.axes[axis].rate <= 0:
        return 0, None
    ax = family.axes[axis]
    start, ratios = 0, []
    for region, bound in checks:
        if isinstance(region, Box):
            lo, hi = region.intervals[axis]
        elif region.axis == axis:
            lo, hi, _ = region.axis_values()
        else:
            lo = hi = region.anchor[axis]
        if lo < max(0, ax.lo) or hi + (count - 1) * step > ax.hi:
            return 0, None
        e, f = _ratio_parts(family, region, bound)
        ratios.append((e, f))
        x = (e + f) / (ax.rate * step)
        if x > 0:
            start = max(start, count if x >= count else math.ceil(x))
    return start, ratios


class ChainSearchError(RuntimeError):
    """A good-object search exhausted its box; carries observed proportions."""

    def __init__(self, message: str, n: int | None, stats: dict):
        super().__init__(message)
        self.n = n
        self.stats = stats


def first_translate_le(
    family: LengthFamily,
    checks: Sequence[tuple[Box | Segment, Bound]],
    axis: int,
    step: int,
    count: int,
) -> int:
    """The least t < count at which every region of `checks`, moved by
    t * step along `axis`, passes `mass_le` against its bound; count when
    no t does.

    Where every translate lies in the support at coordinates >= 0 of a
    product axis with rate > 0, a translate's split parts are those at
    t = 0 with rate * t * step taken from the integer (`_translate_ratios`),
    so each step multiplies a region's mass by exactly 2^(-rate * step):
    its check fails and then passes for good, from the ceiling of its log2
    ratio at t = 0 over rate * step on.  The walk starts at the largest
    such ceiling and steps down while the previous index passes, or else
    up while the current one fails.  Each probe is decided by `mass_le`'s
    own float difference, computed from the t = 0 parts, and only a
    difference within MARGIN, a tie, builds the translate for `mass_le`'s
    exact sign; so the answer is the linear scan's.  Elsewhere the walk
    starts at 0 and `mass_le` decides every probe, which is the linear scan.
    """
    t, ratios = _translate_ratios(family, checks, axis, step, count)
    slope = 0 if ratios is None else family.axes[axis].rate * step

    def passes(t: int) -> bool:
        for i, (region, bound) in enumerate(checks):
            if ratios is not None:
                diff = (ratios[i][0] - slope * t) + ratios[i][1]
                if diff > MARGIN:
                    return False
                if diff < -MARGIN:
                    continue
            if not mass_le(family, translated(region, axis, t * step), bound):
                return False
        return True

    down = False
    while t > 0 and passes(t - 1):
        t, down = t - 1, True
    while not down and t < count and not passes(t):
        t += 1
    return t


def weights_le(
    family: LengthFamily, points: Iterable[Sequence[int]], q: Fraction
) -> Iterator[bool]:
    """Decide weight(v) <= q exactly for each point v, the way `mass_le`
    decides masses.

    The split log2 weight (at most DIMENSION_CAP axis terms, so MARGIN's
    accounting covers it) decides whenever it is further than MARGIN from
    log2 q; otherwise the exact weight is compared.  Outside a finite
    support this raises the ValueError of `family.weight`.
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
