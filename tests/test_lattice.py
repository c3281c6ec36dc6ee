import functools
import math
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from critreg.lattice import (
    MARGIN,
    Bound,
    Box,
    ProductFamily,
    Segment,
    TableFamily,
    first_translate_le,
    geometric_axis,
    geometric_family,
    log2_parts,
    mass_le,
    mass_log2,
    mass_ratio_log2,
    sphere_constant,
    symmetric_geometric_axis,
    symmetric_geometric_family,
    weights_le,
)

from oracles import (
    LatticePath,
    ambient_error,
    box_contains_all,
    box_points,
    exact_mass,
    exact_sum,
    geodesic,
    geometric_weight,
    mass_log2_parts_unmemoized,
    mass_ratio_log2_unmemoized,
    point_weights,
    segment_power_log2,
    segment_power_log2_unmemoized,
    sphere_points,
    sphere_size,
    symmetric_geometric_weight,
    uniform_box_family,
    uniform_weight,
)


def brute_sphere(d, n):
    return sum(1 for p in product(range(n + 1), repeat=d) if sum(p) == n)


class TestSphere:
    def test_single_direction(self):
        assert sphere_size(1, 5) == 1

    def test_examples_against_enumeration(self):
        assert sphere_size(2, 3) == brute_sphere(2, 3) == 4
        assert sphere_size(3, 2) == brute_sphere(3, 2) == 6

    def test_matches_enumeration_all_small(self):
        for d in range(1, 5):
            for n in range(13):
                assert sphere_size(d, n) == brute_sphere(d, n)

    def test_lower_bound_constant(self):
        for d in range(1, 5):
            a_d = sphere_constant(d)
            for n in range(201):
                assert sphere_size(d, n) >= a_d * (n + 1) ** (d - 1)

    def test_points_enumeration(self):
        pts = list(sphere_points(3, 2))
        assert len(pts) == 6
        assert all(sum(p) == 2 for p in pts)


class TestRegionMass:
    def test_full_cone_total(self):
        fam = geometric_family(2)
        assert fam.total_mass == 1

    def test_constant_box(self):
        box = Box(((0, 2), (0, 3)))
        fam = uniform_box_family(box, total=Fraction(3))
        mass = exact_mass(fam, box)
        assert mass == 3
        assert mass / box.npoints() == Fraction(3, 12)

    def test_symmetric_total(self):
        fam = symmetric_geometric_family(3)
        assert fam.total_mass == 1

    @given(
        st.integers(0, 6), st.integers(0, 6), st.integers(0, 6), st.integers(0, 6)
    )
    @settings(max_examples=40, deadline=None)
    def test_additive_over_disjoint_boxes(self, a, w, b, h):
        fam = geometric_family(2)
        left = Box(((a, a + w), (0, 3)))
        right = Box(((a + w + 1, a + w + 1 + b), (0, 3)))
        both = Box(((a, a + w + 1 + b), (0, 3)))
        assert exact_mass(fam, left) + exact_mass(fam, right) == exact_mass(fam, both)


class TestAxisClosedForms:
    @given(st.integers(-8, 8), st.integers(0, 10), st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_symmetric_range_mass(self, lo, width, stride):
        # the exact form of a strided range, read as a rational, against the
        # hand-written point weights
        fam = ProductFamily([symmetric_geometric_axis()])
        seg = Segment((lo,), 0, width // stride + 1, stride=stride)
        ws = point_weights((symmetric_geometric_weight,), Fraction(1), seg.points())
        assert exact_mass(fam, seg) == sum(ws, Fraction(0))

    @given(st.integers(-6, 6), st.integers(0, 8), st.integers(1, 3))
    @settings(max_examples=50, deadline=None)
    def test_power_sum_log2_matches_brute(self, lo, width, stride):
        ax = symmetric_geometric_axis()
        hi = lo + width
        alpha = 0.5
        brute = sum(
            float(symmetric_geometric_weight(i)) ** alpha
            for i in range(lo, hi + 1)
            if (i - lo) % stride == 0
        )
        got = 2.0 ** ax.power_log2(lo, hi, stride, alpha)
        assert math.isclose(got, brute, rel_tol=1e-12)

    def test_a_point_is_its_one_point_range(self):
        # log2_parts takes a point from point_parts, which writes its one
        # run out; its bits must be those of the same point as a strided
        # range, which takes the runs, and the exact weight must be the
        # hand-written one
        for ax, oracle in (
            (geometric_axis(), geometric_weight),
            (symmetric_geometric_axis(), symmetric_geometric_weight),
            (uniform_box_family(Box(((-3, 9),))).axes[0], uniform_weight(-3, 9)),
        ):
            fam = ProductFamily([ax])
            for i in range(-12, 13):
                if oracle(i):
                    assert ax.point_parts(i) == ax.log2_parts(i, i) == ax.log2_parts(i, i + 1, 2)
                    assert fam.weight((i,)) == oracle(i)
                    continue
                assert ax.log2_parts(i, i) is None is ax.log2_parts(i, i + 1, 2)
                assert ax.form(i, i)[0] == {}
                for point_form in (ax.point_parts, lambda i: fam.weight((i,))):
                    with pytest.raises(ValueError, match="outside axis support"):
                        point_form(i)

    @pytest.mark.parametrize("ax", [geometric_axis(), symmetric_geometric_axis()])
    def test_total_form_is_the_limit_of_long_ranges(self, ax):
        # the support's total, 1 on both axes, less the mass of [-k, k]
        # (cut to the support) is 2^-k times a bounded factor
        fam = ProductFamily([ax])
        assert fam.total_mass == 1
        for k in (10, 40):
            tail = 1 - exact_mass(fam, Box(((-k, k),)))
            assert 0 < tail * 2 ** k <= 1


# family, its axis weights written out by hand, its scale, and the axis
# values near which regions are drawn: 0 and the edges of the support
ORACLE_FAMILIES = {
    "geometric": (geometric_family(2), (geometric_weight,) * 2, Fraction(1), (0,)),
    "symmetric-geometric": (
        symmetric_geometric_family(2), (symmetric_geometric_weight,) * 2, Fraction(1), (0,)
    ),
    "uniform": (
        uniform_box_family(Box(((-3, 9), (-3, 9))), Fraction(3)),
        (uniform_weight(-3, 9),) * 2, Fraction(3), (-3, 0, 9),
    ),
}


@st.composite
def _oracle_cases(draw):
    """A family of ORACLE_FAMILIES with a box across its edges, or a strided
    segment whose coordinates lie near the edges and may leave the support."""
    name = draw(st.sampled_from(sorted(ORACLE_FAMILIES)))
    fam, weights, scale, edges = ORACLE_FAMILIES[name]
    if draw(st.booleans()):
        return name, Box(tuple(
            (e - draw(st.integers(0, 12)), e + draw(st.integers(0, 12)))
            for e in (draw(st.sampled_from(edges)) for _ in range(2))
        ))
    axis = draw(st.integers(0, 1))
    anchor = [draw(st.sampled_from(edges)) + draw(st.integers(-12, 12)) for _ in range(2)]
    return name, Segment(
        tuple(anchor), axis, draw(st.integers(1, 8)), step=draw(st.sampled_from((1, -1))),
        stride=draw(st.integers(1, 5)),
    )


class TestMassesAgainstPointWeights:
    """Masses, log2 masses and power sums of the closed forms against sums of
    the hand-written point weights of tests/oracles.py over the points."""

    @given(_oracle_cases(), st.sampled_from((1 / 3, 1 / 2, 2 / 3)))
    @settings(max_examples=300, deadline=None)
    def test_closed_forms_match_enumeration(self, case, alpha):
        name, region = case
        fam, weights, scale, _ = ORACLE_FAMILIES[name]
        points = box_points(region) if isinstance(region, Box) else region.points()
        ws = point_weights(weights, scale, points)
        total = sum(ws, Fraction(0))
        assert exact_mass(fam, region) == total
        if total:
            expected = sum(log2_parts(total))
            assert abs(mass_log2(fam, region) - expected) <= MARGIN + 2 * math.ulp(expected)
        else:
            assert mass_log2(fam, region) == -math.inf
        if isinstance(region, Segment):
            brute = sum(float(w) ** alpha for w in ws if w)
            got = segment_power_log2(fam, region, alpha)
            assert math.isclose(2.0 ** got, brute, rel_tol=1e-12) if brute else got == -math.inf

    def test_fixed_coordinate_outside_the_support_has_no_mass(self):
        # every point of the segment has first coordinate -1, as every point
        # of the box has: both masses are 0, and no form raises
        geo = geometric_family(2)
        seg = Segment((-1, 0), 1, 6)
        assert exact_mass(geo, seg) == exact_mass(geo, Box(((-1, -1), (0, 5)))) == 0
        assert geo.mass_log2_parts(seg) is None
        assert segment_power_log2(geo, seg, 0.5) == -math.inf
        assert mass_le(geo, seg, (Fraction(1), Box(((0, 0), (0, 0)))))

    def test_strided_range_below_the_support_keeps_its_grid(self):
        # the points on axis 0 are -1, 1, 3 (and 5 on the uniform box): the closed
        # forms must count (1, 0) and (3, 0), not restart the grid at 0
        geo = geometric_family(2)
        seg = Segment((-1, 0), 0, 3, stride=2)
        assert exact_mass(geo, seg) == Fraction(5, 32)
        assert abs(mass_log2(geo, seg) - math.log2(5 / 32)) <= MARGIN
        expected = (1 / 8) ** 0.5 + (1 / 32) ** 0.5
        assert math.isclose(2.0 ** segment_power_log2(geo, seg, 0.5), expected, rel_tol=1e-12)
        uniform = uniform_box_family(Box(((0, 4), (0, 0))))
        seg = Segment((-1, 0), 0, 4, stride=2)
        assert exact_mass(uniform, seg) == Fraction(2, 5)
        assert abs(mass_log2(uniform, seg) - math.log2(2 / 5)) <= MARGIN

    def test_table_segment_half_outside_counts_its_inside_points(self):
        # a 6x6 table; the segment from (2, 3) up six points leaves it after
        # three, and its forms are those of its three inside points, as the
        # same points' box has
        table = {(i, j): Fraction(1, 2 ** (i + j + 2)) for i in range(6) for j in range(6)}
        fam = TableFamily(table)
        seg = Segment((2, 3), 1, 6)
        inside = [table[(2, j)] for j in (3, 4, 5)]
        assert exact_mass(fam, seg) == exact_mass(fam, Box(((2, 2), (3, 8)))) == sum(inside)
        assert abs(mass_log2(fam, seg) - math.log2(sum(inside))) <= MARGIN
        expected = sum(float(w) ** 0.5 for w in inside)
        assert math.isclose(2.0 ** segment_power_log2(fam, seg, 0.5), expected, rel_tol=1e-12)
        assert mass_le(fam, seg, Bound(Fraction(1), Box(((2, 2), (3, 5)))))


class TestTypes:
    def test_path_adjacency(self):
        with pytest.raises(ValueError):
            LatticePath(((0, 0), (1, 1)))
        p = LatticePath(((0, 0), (0, 1), (1, 1)))
        assert geodesic(p) and len(p) == 2

    def test_nonmonotone_not_geodesic(self):
        p = LatticePath(((1, 1), (0, 1)))
        assert not geodesic(p)

    def test_segment_points_and_lookup(self):
        s = Segment((3, 5), axis=1, count=4, stride=2)
        assert list(s.points()) == [(3, 5), (3, 7), (3, 9), (3, 11)]
        assert s.index_of((3, 9)) == 2
        assert s.index_of((3, 8)) is None
        assert s.index_of((4, 9)) is None

    def test_segment_ambient_guard(self):
        with pytest.raises(ValueError):
            Segment((0, 0), 0, 5, ambient=Box(((0, 2), (0, 2))))

    def test_table_family(self):
        fam = TableFamily({(0, 0): Fraction(1, 2), (1, 0): Fraction(1, 2)})
        assert fam.total_mass == 1
        with pytest.raises(ValueError):
            fam.weight((2, 2))


def test_log2_parts_huge_values():
    q = Fraction(1, 2 ** 100_000)
    assert log2_parts(q) == (-100_000, 0.0)
    assert math.isclose(sum(log2_parts(q)), -100_000.0, rel_tol=1e-12)


# ---------------------------------------------------------------------------
# the certified mass comparison against sums of hand-written point weights
# ---------------------------------------------------------------------------

_table_rng = random.Random(7)
_TABLE = {
    p: Fraction(_table_rng.randint(1, 9), _table_rng.randint(1, 9))
    for p in box_points(Box(((4080, 4140), (4080, 4140))))
}


def _product_weight(axis_weights, scale=Fraction(1)):
    # regions repeat coordinates, and far weights are 10^5-bit rationals
    cached = [functools.lru_cache(maxsize=None)(w) for w in axis_weights]
    return lambda v: point_weights(cached, scale, [v])[0]


# family, its weight at a point written out by hand (tests/oracles.py), and
# the per-axis region origins: coordinates below and above 4096
MASS_FAMILIES = {
    "geometric": (
        geometric_family(2), _product_weight((geometric_weight,) * 2), (0, 30, 4090, 100_000)
    ),
    "symmetric-geometric": (
        symmetric_geometric_family(2), _product_weight((symmetric_geometric_weight,) * 2),
        (-100_000, -30, 0, 4090),
    ),
    "uniform": (
        uniform_box_family(Box(((-8, 6000), (-8, 6000))), Fraction(3)),
        _product_weight((uniform_weight(-8, 6000),) * 2, Fraction(3)), (-8, 4090, 5900),
    ),
    "table": (TableFamily(_TABLE), lambda v: _TABLE.get(v, Fraction(0)), (4080, 4090)),
}


def _oracle_mass(weight, region: Box | Segment) -> Fraction:
    """The region's mass as the sum of its point weights."""
    points = box_points(region) if isinstance(region, Box) else region.points()
    return exact_sum(map(weight, points))


@st.composite
def _regions(draw, origins):
    """A box, or a strided segment, near the given per-axis origins."""
    corner = [draw(st.sampled_from(origins)) + draw(st.integers(0, 15)) for _ in range(2)]
    if draw(st.booleans()):
        return Box(tuple((c, c + draw(st.integers(0, 15))) for c in corner))
    return Segment(
        tuple(corner), draw(st.integers(0, 1)), draw(st.integers(1, 8)),
        stride=draw(st.integers(1, 4)),
    )


@st.composite
def _family_regions(draw, count):
    """A name of MASS_FAMILIES and `count` regions near its origins."""
    name = draw(st.sampled_from(sorted(MASS_FAMILIES)))
    return name, *(draw(_regions(MASS_FAMILIES[name][2])) for _ in range(count))


@st.composite
def _comparisons(draw):
    """A family, two regions, a bound at or near their mass ratio, and the
    two point-sum masses."""
    name, region, other = draw(_family_regions(2))
    weight = MASS_FAMILIES[name][1]
    mass, other_mass = _oracle_mass(weight, region), _oracle_mass(weight, other)
    ratio = mass / other_mass
    q = draw(st.one_of(
        st.builds(Fraction, st.integers(1, 100), st.integers(1, 100)),
        st.just(ratio),  # an exact tie
        # a near tie on either side, inside and outside the float margin
        st.builds(lambda s, k: ratio * (1 + s * Fraction(1, 2 ** k)),
                  st.sampled_from((1, -1)), st.integers(1, 100)),
    ))
    return name, region, Bound(q, other), mass, other_mass


class TestMassComparison:
    @given(_comparisons())
    @settings(max_examples=400, deadline=None)
    def test_agrees_with_exact_rationals(self, case):
        name, region, bound, mass, other_mass = case
        fam = MASS_FAMILIES[name][0]
        assert mass_le(fam, region, bound) == (mass <= bound.q * other_mass)

    @given(_family_regions(1))
    @settings(max_examples=400, deadline=None)
    def test_mass_log2_is_accurate(self, case):
        # the split closed form, read as one float, is within the margin of
        # log2 of the exact mass, up to rounding both to magnitude |log2 mass|
        name, region = case
        fam, weight, _ = MASS_FAMILIES[name]
        expected = sum(log2_parts(_oracle_mass(weight, region)))
        assert abs(mass_log2(fam, region) - expected) <= MARGIN + 2 * math.ulp(expected)

    @given(_regions((-8, 4090, 5900)), _regions((-8, 4090, 5900)))
    @settings(max_examples=60, deadline=None)
    def test_uniform_means_tie_exactly(self, region, other):
        # constant weights: mass is proportional to the point count, so the
        # size ratio is an exact tie that only the exact fallback decides
        fam = MASS_FAMILIES["uniform"][0]

        def size(r):
            return r.npoints() if isinstance(r, Box) else r.count

        q = Fraction(size(region), size(other))
        assert mass_le(fam, region, Bound(q, other))
        assert not mass_le(fam, region, Bound(q * (1 - Fraction(1, 2 ** 60)), other))

    def test_b_d3_ties_to_2_pow_minus_64_are_rejected(self):
        # two candidate rows of chain-b --d 3 --variant B-d3 --n-max 12 whose
        # mass exceeds 1/64 of their plane's by a relative 1/(2^64 - 1)
        fam, weight = geometric_family(3), _product_weight((geometric_weight,) * 3)
        for seg, plane in (
            (Segment((1, 6, 4), 0, 64), Box(((1, 64), (1, 64), (4, 4)))),
            (Segment((34, 1, 6), 1, 128), Box(((34, 34), (1, 128), (1, 64)))),
        ):
            bound = Bound(Fraction(1, 64), plane)
            excess = _oracle_mass(weight, seg) / (bound.q * _oracle_mass(weight, plane)) - 1
            assert excess == Fraction(1, 2 ** 64 - 1)
            assert not mass_le(fam, seg, bound)

    def test_decides_below_float_resolution_at_huge_coordinates(self):
        # column k = 65558 of the FF d=3 box Q(16) against 2/w times the box,
        # w = 2^24 + 1: the axis-1 factors cancel and the ratio is
        # (1 + 2^-24) / (1 - 2^-w) > 1, a gap below one ulp of the float
        # log2 masses (about -4.3e9), and exact masses with 10^12-bit
        # denominators are out of reach
        fam = geometric_family(2)
        box = Box(((65536, 16842752), (4294967296, 1103806595072)))
        w = box.side(0)
        assert w == 2 ** 24 + 1
        assert not mass_le(fam, box.fix_axis(0, 65558), Bound(Fraction(2, w), box))
        assert mass_le(fam, box.fix_axis(0, 65559), Bound(Fraction(2, w), box))

    def test_exact_tie_at_two_to_the_twenty_holds(self):
        # two points 2^20 out along the cone differ by exactly a factor 2;
        # within 2^-60 of q = 2 only the exact dyadic sum decides
        fam = geometric_family(2)
        n = 2 ** 20
        near, far = Box(((n, n), (0, 0))), Box(((n + 1, n + 1), (0, 0)))
        for q, holds in ((Fraction(2), True), (2 + Fraction(1, 2 ** 60), True),
                         (2 - Fraction(1, 2 ** 60), False)):
            assert abs(mass_ratio_log2(fam, near, Bound(q, far))) <= MARGIN
            assert mass_le(fam, near, Bound(q, far)) is holds
        assert mass_le(fam, far, Bound(Fraction(1, 2), near))

    def test_b_d2_row_against_its_box_at_n_max_100(self):
        # the row y = 2^41 + 40 across the box B = [2^40, 2^42] x [2^41, 2^42]
        # that chain-b --d 2 --variant B-d2 --alpha 1/2,1/2 --n-max 100 scans,
        # with H = 2^41 + 1 rows.  The axis-0 factors of the two masses are
        # equal; on axis 1 the row weighs 2^-40 w and the column
        # 2 w (1 - 2^-H), w = w(2^41).  So mass(row) / (q mass(B)) is
        # H / (2^41 (1 - 2^-H)) > 1 at q = 1/H (the scan's bound),
        # 1 / (1 - 2^-H) > 1 at q = 2^-41, a gap of 2^-H, and
        # 1 / ((1 + 2^-41)(1 - 2^-H)) < 1 at q = H / 2^82
        fam = geometric_family(2)
        row = Segment((2 ** 40, 2 ** 41 + 40), 0, 3 * 2 ** 40 + 1)
        box = Box(((2 ** 40, 2 ** 42), (2 ** 41, 2 ** 42)))
        h = 2 ** 41 + 1
        for q, holds in ((Fraction(1, h), False), (Fraction(1, 2 ** 41), False),
                         (Fraction(h, 2 ** 82), True)):
            assert abs(mass_ratio_log2(fam, row, Bound(q, box))) <= MARGIN
            assert mass_le(fam, row, Bound(q, box)) is holds

    @pytest.mark.parametrize("stride", [2 ** 40, 2 ** 62], ids=("2^40", "2^62"))
    def test_strided_ties_at_huge_strides(self, stride):
        # the points 5 + t * stride on axis 0: the same segment one row up
        # has exactly half the mass, and a third point adds a relative
        # 2^-(2 * stride) that only the exact sum sees
        fam = geometric_family(2)
        two, three = Segment((5, 0), 0, 2, stride=stride), Segment((5, 0), 0, 3, stride=stride)
        up = Segment((5, 1), 0, 2, stride=stride)
        for region, q, other, holds in (
            (two, Fraction(2), up, True),
            (up, Fraction(1, 2), two, True),
            (two, 2 - Fraction(1, 2 ** 60), up, False),
            (two, Fraction(1), three, True),
            (three, Fraction(1), two, False),
        ):
            assert abs(mass_ratio_log2(fam, region, Bound(q, other))) <= MARGIN
            assert mass_le(fam, region, Bound(q, other)) is holds


@st.composite
def _weight_comparisons(draw):
    """A family, a point near its origins, a bound near the point's weight,
    and the hand-written weight."""
    fam, weight, origins = MASS_FAMILIES[draw(st.sampled_from(sorted(MASS_FAMILIES)))]
    v = tuple(draw(st.sampled_from(origins)) + draw(st.integers(0, 15)) for _ in range(2))
    w = weight(v)
    q = draw(st.one_of(
        st.builds(Fraction, st.integers(1, 100), st.integers(1, 100)),
        st.just(w),  # an exact tie
        st.builds(lambda s, k: w * (1 + s * Fraction(1, 2 ** k)),
                  st.sampled_from((1, -1)), st.integers(1, 100)),
    ))
    return fam, v, q, w


class TestWeightComparison:
    @given(_weight_comparisons())
    @settings(max_examples=400, deadline=None)
    def test_agrees_with_exact_rationals(self, case):
        fam, v, q, w = case
        assert list(weights_le(fam, [v], q)) == [w <= q]

    def test_outside_support_raises_the_weight_error(self):
        cases = (
            (MASS_FAMILIES["table"][0], (4080, 4079)),
            (MASS_FAMILIES["uniform"][0], (6001, 0)),
            (MASS_FAMILIES["uniform"][0], (0, -9)),
            (geometric_family(2), (0, -1)),
        )
        for fam, v in cases:
            with pytest.raises(ValueError) as expected:
                fam.weight(v)
            with pytest.raises(ValueError) as got:
                list(weights_le(fam, [v], Fraction(1)))
            assert str(got.value) == str(expected.value)


# ---------------------------------------------------------------------------
# the family's memo against the unmemoized sums, and the region checks
# against their generator-based forms
# ---------------------------------------------------------------------------

_memo_rng = random.Random(11)
_MEMO_TABLE = {
    p: Fraction(_memo_rng.randint(1, 9), 2 ** (sum(p) + 8))
    for p in product(range(-2, 7), repeat=2)
}

# a fresh family per example, so that its memo starts empty; the uniform
# box's sides differ, so its axes give different parts on one range
MEMO_FAMILIES = {
    "geometric": geometric_family,
    "symmetric-geometric": symmetric_geometric_family,
    "uniform": lambda d: uniform_box_family(Box(((-2, 3), (0, 9), (1, 4))[:d]), Fraction(5)),
    "table": lambda d: TableFamily(_MEMO_TABLE),
}


@st.composite
def _memo_queries(draw):
    """A family name, its dimension and regions across its support's edges:
    boxes, and segments with step +-1 and strides up to 4, from a small grid
    so that ranges repeat with other strides and on other axes."""
    name = draw(st.sampled_from(sorted(MEMO_FAMILIES)))
    d = 2 if name == "table" else draw(st.integers(2, 3))
    coord = st.integers(-4, 10)
    regions = []
    for _ in range(draw(st.integers(1, 6))):
        if draw(st.booleans()):
            regions.append(Box(tuple((c, c + draw(st.integers(0, 8)))
                                     for c in (draw(coord) for _ in range(d)))))
        else:
            regions.append(Segment(
                tuple(draw(coord) for _ in range(d)), draw(st.integers(0, d - 1)),
                draw(st.integers(1, 8)), step=draw(st.sampled_from((1, -1))),
                stride=draw(st.integers(1, 4)),
            ))
    return name, d, regions


def _outcome(fn, *args):
    """fn's result, or the type and message of the ValueError it raised."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


class TestFamilyMemo:
    @given(_memo_queries(), st.sampled_from((1 / 3, 1 / 2, 2 / 3)),
           st.builds(Fraction, st.integers(1, 50), st.integers(1, 50)))
    @settings(max_examples=300, deadline=None)
    def test_matches_the_unmemoized_sums_bit_for_bit(self, case, alpha, q):
        name, d, regions = case
        fam = MEMO_FAMILIES[name](d)
        for _ in range(2):  # the second pass reads what the first memoized
            for region, other in zip(regions, regions[::-1]):
                assert fam.mass_log2_parts(region) == mass_log2_parts_unmemoized(fam, region)
                bound = Bound(q, other)
                assert mass_ratio_log2(fam, region, bound) == mass_ratio_log2_unmemoized(
                    fam, region, bound)
                if isinstance(region, Segment):
                    want = segment_power_log2_unmemoized(fam, region, alpha)
                    lo, hi, s = region.axis_values()
                    assert fam.range_power_log2(
                        region.anchor, region.axis, lo, hi, s, alpha) == want

    def test_keys_tell_strides_and_axes_apart(self):
        # one range 0..6 of the second axis with stride 1, then 3, then on
        # the first axis, whose cells are 1/6 against the second's 1/10 and
        # whose support ends at 3
        fam = uniform_box_family(Box(((-2, 3), (0, 9))))
        regions = [Segment((0, 0), 1, 7), Segment((0, 0), 1, 3, stride=3),
                   Box(((0, 6), (0, 0))), Segment((0, 0), 0, 7), Box(((0, 0), (0, 6)))]
        got = [fam.mass_log2_parts(r) for r in regions]
        assert got == [mass_log2_parts_unmemoized(fam, r) for r in regions]
        assert len(set(got[:3])) == 3

    def test_a_table_scan_sums_each_bound_region_once(self, monkeypatch):
        # the linear scan decides every probe against the one bound region,
        # whose mass sums the whole table: once per family
        fam = TableFamily(_MEMO_TABLE)
        box = Box(((-2, 6), (-2, 6)))
        calls = []
        inner = fam.mass_form

        def counted(region):
            calls.append(region)
            return inner(region)

        monkeypatch.setattr(fam, "mass_form", counted)
        column = Box(((-2, -2), (-2, 6)))
        t = first_translate_le(fam, [(column, Bound(Fraction(1, 40), box))], 0, 1, 9)
        assert 3 <= t < 9
        assert calls.count(box) == 1
        assert len(calls) == t + 2  # every probed column once, and the box


class TestRegionChecks:
    @given(st.integers(1, 4), st.integers(-1, 1), st.data())
    @settings(max_examples=300, deadline=None)
    def test_match_the_generator_forms(self, d, extra, data):
        # the ambient box may have one axis more or fewer than the segment
        dim = min(max(d + extra, 1), 6)
        ivs = [(lo, lo + data.draw(st.integers(0, 4)))
               for lo in data.draw(st.lists(st.integers(-3, 3), min_size=dim, max_size=dim))]
        ambient = Box(tuple(ivs))
        anchor = tuple(data.draw(st.lists(st.integers(-4, 8), min_size=d, max_size=d)))
        axis = data.draw(st.integers(0, d - 1))
        count, step = data.draw(st.integers(1, 5)), data.draw(st.sampled_from((1, -1)))
        stride = data.draw(st.integers(1, 3))
        try:
            Segment(anchor, axis, count, step, stride, ambient)
            got = None
        except ValueError as exc:
            got = str(exc)
        assert got == ambient_error(anchor, axis, count, step, stride, ambient)
        for v in (anchor, tuple(ivs_lo for ivs_lo, _ in ivs)):
            assert _outcome(ambient.contains, v) == _outcome(box_contains_all, ambient, v)

    def test_escapes_at_either_end_name_their_point(self):
        box = Box(((0, 4), (0, 4)))
        with pytest.raises(ValueError, match=r"point \(0, 5\) escapes"):
            Segment((0, 5), 1, 2, step=-1, ambient=box)
        with pytest.raises(ValueError, match=r"point \(0, 6\) escapes"):
            Segment((0, 2), 1, 3, stride=2, ambient=box)
        with pytest.raises(ValueError, match=r"point \(0, -2\) escapes"):
            Segment((0, 2), 1, 3, step=-1, stride=2, ambient=box)
        with pytest.raises(ValueError, match="zip"):
            Segment((0, 2, 0), 1, 1, ambient=box)
        assert Segment((4, 4), 0, 1, ambient=box).count == 1
