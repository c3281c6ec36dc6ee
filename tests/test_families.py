"""The contract every weight family backend meets, checked once per backend.

`oracles.FAMILIES` registers each backend as a builder: a fresh family on
Z^d, its point weight and its total mass written out apart from the family
(the weight 0 off the support), and the coordinates near which regions are
drawn, which are the support's edges and far coordinates.  Every check
below runs over every builder at d = 2 to 4, so a new backend joins the
contract as one registry entry.
"""

import functools
import math
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from critreg.lattice import (
    MARGIN,
    Bound,
    Box,
    Coords,
    LengthFamily,
    ProductFamily,
    Segment,
    TableFamily,
    log2_parts,
    mass_le,
    mass_ratio_log2,
    weights_le,
)

from oracles import (
    FAMILIES, box_points, exact_sum, mass_log2_parts_unmemoized,
    segment_power_log2_unmemoized,
)

TABLES = [name for name in FAMILIES if name.endswith("table")]
CASES = [pytest.param(name, d, id=f"{name}-d{d}") for name in FAMILIES for d in (2, 3, 4)]
# half the side of a region around its centre: boxes of up to 13^2, 5^3 and 3^4 points
REACH = {2: 6, 3: 2, 4: 1}
ALPHAS = st.sampled_from((1 / 3, 1 / 2, 2 / 3))


@functools.cache  # one strategy per case: building one costs more than a draw
@st.composite
def boxes(draw, name, d):
    """A box around coordinates of the builder's `near`."""
    near, s = FAMILIES[name].near, REACH[d]
    return Box(tuple((c - draw(st.integers(0, s)), c + draw(st.integers(0, s)))
                     for c in (draw(st.sampled_from(near)) for _ in range(d))))


@functools.cache
@st.composite
def segments(draw, name, d):
    """A strided segment, either way, around coordinates of the builder's
    `near`; on a table, half of them lie on a line through the table's
    span (its `near` is the span's ends) and run 2^40 points or more, with
    the table somewhere along them."""
    near, s = FAMILIES[name].near, REACH[d]
    axis = draw(st.integers(0, d - 1))
    step = draw(st.sampled_from((1, -1))) * draw(st.integers(1, 5))
    if name in TABLES and draw(st.booleans()):
        anchor = [draw(st.integers(min(near), max(near))) for _ in range(d)]
        count = 2 ** draw(st.integers(40, 62))
        anchor[axis] -= draw(st.integers(0, count - 1)) * step
    else:
        anchor = [draw(st.sampled_from(near)) + draw(st.integers(-s, s)) for _ in range(d)]
        count = draw(st.integers(1, 8))
    return Segment(tuple(anchor), axis, count, step)


@functools.cache
def regions(name, d):
    return st.one_of(boxes(name, d), segments(name, d))


def _ends(fam: LengthFamily) -> list[tuple[int | float, int | float]]:
    """Per axis, the ends of the support, or of the table's span."""
    if isinstance(fam, TableFamily):
        return [(min(cs), max(cs)) for cs in zip(*fam.table)]
    return [(ax.lo, ax.hi) for ax in fam.axes]


def _walked(fam: LengthFamily, seg: Segment) -> Segment | None:
    """The segment an oracle walks: on a table, its points inside the
    table's bounding box, which hold every point of weight, in the same
    order (None when there are none); elsewhere the segment."""
    if not isinstance(fam, TableFamily):
        return seg
    window = _ends(fam)
    if any(not lo <= c <= hi for k, (c, (lo, hi)) in enumerate(zip(seg.anchor, window))
           if k != seg.axis):
        return None
    (lo, hi), a, u = window[seg.axis], seg.anchor[seg.axis], abs(seg.step)
    if seg.step < 0:  # walk the mirror image
        lo, hi, a = -hi, -lo, -a
    first, last = max(0, -((a - lo) // u)), min(seg.count - 1, (hi - a) // u)
    return Segment(seg.point(first), seg.axis, last - first + 1, seg.step) if first <= last else None


def _points(fam: LengthFamily, region: Box | Segment) -> list[Coords]:
    """Every point of the region that can carry weight, in the region's order."""
    if isinstance(region, Box):
        return list(box_points(region))
    walked = _walked(fam, region)
    return [] if walked is None else list(walked.points())


def _weights(name: str, fam: LengthFamily, region: Box | Segment) -> list[Fraction]:
    return [FAMILIES[name].weight(v) for v in _points(fam, region)]


# a bound near x: a random rational, x itself (an exact tie), or
# x (1 + s 2^-k), on both sides of MARGIN as k runs to 100
RATIONALS = st.builds(Fraction, st.integers(1, 100), st.integers(1, 100))
NEAR = st.one_of(
    st.builds(lambda q: lambda x: q, RATIONALS),
    st.just(lambda x: x),
    st.builds(lambda s, k: lambda x: x * (1 + s * Fraction(1, 2 ** k)),
              st.sampled_from((1, -1)), st.integers(1, 100)))


def _raised(call, *args) -> str:
    """The message of the ValueError that call(*args) raises."""
    with pytest.raises(ValueError) as info:
        call(*args)
    return str(info.value)


@pytest.mark.parametrize("name, d", CASES)
def test_total_mass_is_the_hand_written_total(name, d):
    assert FAMILIES[name].family(d).total_mass == FAMILIES[name].total(d)


@pytest.mark.parametrize("name, d", CASES)
@given(data=st.data())
@settings(max_examples=8, deadline=None)
def test_mass_form_is_the_sum_of_the_point_weights(name, d, data):
    region = data.draw(regions(name, d))
    fam = FAMILIES[name].family(d)
    assert fam.mass_form(region).value() == exact_sum(_weights(name, fam, region))


@pytest.mark.parametrize("name, d", CASES)
@given(data=st.data())
@settings(max_examples=8, deadline=None)
def test_split_mass_is_within_the_margin_of_the_exact_log2(name, d, data):
    # read as one float, within the margin of log2 of the exact mass, up to
    # rounding both to magnitude |log2 mass|; and bit for bit the split mass
    # summed without a memo
    region = data.draw(regions(name, d))
    fam = FAMILIES[name].family(d)
    mass, parts = exact_sum(_weights(name, fam, region)), fam.mass_log2_parts(region)
    assert repr(parts) == repr(mass_log2_parts_unmemoized(fam, region))
    assert (parts is None) == (not mass)
    if mass:
        expected = sum(log2_parts(mass))
        assert abs(sum(parts) - expected) <= MARGIN + 2 * math.ulp(expected)


@pytest.mark.parametrize("name, d", CASES)
@given(data=st.data(), alpha=ALPHAS)
@settings(max_examples=20, deadline=None)
def test_power_sum_is_the_ordered_sum_of_the_point_powers(name, d, data, alpha):
    # 2^got against the sum of weight^alpha over the points in the
    # segment's order, each term scaled by the largest: within 1e-12, or 16
    # ulps of the largest term's log2 where that is more, which takes
    # |log2| >= 512 (far coordinates); and got is the unmemoized sum bit
    # for bit
    seg = data.draw(segments(name, d))
    fam = FAMILIES[name].family(d)
    got = fam.range_power_log2(seg, alpha)
    terms = [alpha * (math.log2(w.numerator) - math.log2(w.denominator))
             for w in _weights(name, fam, seg) if w]
    walked = _walked(fam, seg)
    if not terms:
        assert got == -math.inf
    else:
        top = max(terms)
        want = sum(2.0 ** (t - top) for t in terms)
        assert math.isclose(2.0 ** (got - top), want, rel_tol=max(1e-12, 16 * math.ulp(top)))
    want = -math.inf if walked is None else segment_power_log2_unmemoized(fam, walked, alpha)
    assert repr(got) == repr(want)


@pytest.mark.parametrize("name, d", CASES)
def test_point_weight_is_the_one_point_box_mass(name, d):
    # on the points whose coordinates lie on or next to an end of their axis
    # (-1, 0, 1 on an axis that is all of Z), and the diagonal points of
    # `near`: inside the support the split weight is the one-point box's
    # split mass bit for bit; outside, `weight`, `weight_log2_parts` and
    # `weights_le` raise the table's error, or the `Axis.point_parts` error
    # of the first axis that misses the point, and the box has no mass
    fam = FAMILIES[name].family(d)
    ends = _ends(fam)
    grid = [sorted({c + s for c in end if math.isfinite(c) for s in (-1, 0, 1)} or {-1, 0, 1})
            for end in ends]
    seen = set()
    for v in [*product(*grid), *((c,) * d for c in FAMILIES[name].near)]:
        one = Box(tuple((c, c) for c in v))
        assert fam.contains(v) == bool(FAMILIES[name].weight(v)), v
        if fam.contains(v):
            assert repr(fam.weight_log2_parts(v)) == repr(fam.mass_log2_parts(one)), v
            edge = isinstance(fam, ProductFamily) and any(c in end for c, end in zip(v, ends))
            seen.add("edge" if edge else "inside")
            continue
        if isinstance(fam, TableFamily):
            want = f"index {v} outside table support"
        else:
            k = next(k for k, (ax, c) in enumerate(zip(fam.axes, v)) if not ax.contains(c))
            want = _raised(fam.axes[k].point_parts, v[k])
        for call in (fam.weight, fam.weight_log2_parts,
                     lambda v: list(weights_le(fam, [v], Fraction(1)))):
            assert _raised(call, v) == want, v
        assert fam.mass_log2_parts(one) is None
        seen.add("outside")
    # a table's points are inside or outside; the symmetric axis is all of Z
    assert seen == ({"inside"} if name == "symmetric-geometric" else
                    {"inside", "outside"} if name in TABLES else {"inside", "edge", "outside"})


@pytest.mark.parametrize("name, d", CASES)
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_comparisons_agree_with_the_exact_ones(name, d, data):
    # mass(region) <= q mass(other) and weight(v) <= q, with q at random, at
    # the exact ratio and at near ties on both sides of MARGIN
    region, other = data.draw(regions(name, d)), data.draw(regions(name, d))
    fam = FAMILIES[name].family(d)
    weights = _weights(name, fam, region)
    mass, other_mass = exact_sum(weights), exact_sum(_weights(name, fam, other))
    q = data.draw(NEAR)(mass / other_mass if mass and other_mass else Fraction(1))
    assert mass_le(fam, region, Bound(q, other)) == (mass <= q * other_mass)
    inside = [(v, w) for v, w in zip(_points(fam, region), weights) if w]
    if inside:
        q = data.draw(NEAR)(data.draw(st.sampled_from(inside))[1])
        assert list(weights_le(fam, [v for v, _ in inside], q)) == [w <= q for _, w in inside]


@pytest.mark.parametrize("name, d", CASES)
@given(data=st.data(), alpha=ALPHAS)
@settings(max_examples=8, deadline=None)
def test_memo_hits_return_the_cold_values(name, d, data, alpha):
    # each segment comes with the unit-stride segment over its range, the
    # range as a box, and the range on the next axis, so that memo keys must
    # tell strides and axes apart; two passes over them, the second reading
    # what the first kept, give each region's values on a fresh family
    regions = []
    for seg in data.draw(st.lists(segments(name, d), min_size=1, max_size=3)):
        (lo, hi, _), axis, nxt = seg.axis_values(), seg.axis, (seg.axis + 1) % d
        start = tuple(lo if k == axis else c for k, c in enumerate(seg.anchor))
        turned = tuple(lo if k == nxt else c for k, c in enumerate(seg.anchor))
        regions += [seg, Segment(start, axis, hi - lo + 1),
                    Box(tuple((c, hi if k == axis else c) for k, c in enumerate(start))),
                    Segment(turned, nxt, seg.count, abs(seg.step))]
    regions.append(data.draw(boxes(name, d)))
    pairs = list(zip(regions, regions[::-1]))

    def values(fam, region, other):
        power = fam.range_power_log2(region, alpha) if isinstance(region, Segment) else None
        ratio = mass_ratio_log2(fam, region, Bound(Fraction(1, 3), other))
        return repr((fam.mass_log2_parts(region), power, ratio))

    build = FAMILIES[name].family
    cold = [values(build(d), *pair) for pair in pairs]
    fam = build(d)
    for _ in range(2):
        assert [values(fam, *pair) for pair in pairs] == cold


@pytest.mark.parametrize("name, d", CASES)
def test_a_region_of_another_dimension_is_refused(name, d):
    fam = FAMILIES[name].family(d)
    c = FAMILIES[name].near[0]
    for k in (d - 1, d + 1):
        for region in (Box(((c, c + 1),) * k), Segment((c,) * k, 0, 3),
                       Segment((c,) * k, k - 1, 2 ** 40, -1)):
            kind = type(region).__name__.lower()
            calls = [fam.mass_form, fam.mass_log2_parts,
                     functools.partial(fam.range_power_log2, alpha=0.5)]
            for call in calls if kind == "segment" else calls[:2]:
                assert _raised(call, region) == f"the family is on Z^{d}, but the {kind} is on Z^{k}"


def _halved(fam: LengthFamily) -> LengthFamily:
    """The family with every weight halved: a product through its first
    axis' offset, a table weight by weight."""
    if isinstance(fam, ProductFamily):
        first = fam.axes[0]
        return ProductFamily([first._replace(offset=first.offset - 1), *fam.axes[1:]])
    return TableFamily({v: w / 2 for v, w in fam.table.items()})


@pytest.mark.parametrize("name, d", CASES)
@given(data=st.data())
@settings(max_examples=8, deadline=None)
def test_halving_shifts_every_split_mass_by_one(name, d, data):
    # the exact mass halves, and every split mass and point weight moves by
    # exactly (-1, +0.0)
    region = data.draw(regions(name, d))
    fam = FAMILIES[name].family(d)
    half = _halved(fam)
    assert half.mass_form(region).value() == fam.mass_form(region).value() / 2
    parts = fam.mass_log2_parts(region)
    assert repr(half.mass_log2_parts(region)) == repr(parts and (parts[0] - 1, parts[1]))
    for v in filter(fam.contains, _points(fam, region)[:64]):
        e, f = fam.weight_log2_parts(v)
        assert repr(half.weight_log2_parts(v)) == repr((e - 1, f))
