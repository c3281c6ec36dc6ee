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
    Segment,
    SizeGuardError,
    TableFamily,
    exact_mass,
    geometric_axis,
    geometric_family,
    log2_fraction,
    log2_parts,
    mass_le,
    mass_log2,
    sphere_constant,
    symmetric_geometric_axis,
    symmetric_geometric_family,
    uniform_box_family,
    weights_le,
)

from oracles import (
    LatticePath,
    box_points,
    geodesic,
    geometric_weight,
    point_weights,
    sphere_points,
    sphere_size,
    symmetric_geometric_weight,
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
        mass = fam.box_mass(box)
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
        assert fam.box_mass(left) + fam.box_mass(right) == fam.box_mass(both)


class TestAxisClosedForms:
    @given(st.integers(-8, 8), st.integers(0, 10), st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_symmetric_range_mass(self, lo, width, stride):
        ax = symmetric_geometric_axis()
        hi = lo + width
        expected = sum(
            (symmetric_geometric_weight(i) for i in range(lo, hi + 1) if (i - lo) % stride == 0),
            Fraction(0),
        )
        assert ax.mass(lo, hi, stride) == expected

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
        # point_parts writes log2_parts(i, i) out; both must give the same
        # bits, and the exact weight must be the hand-written one
        for ax, oracle in (
            (geometric_axis(), geometric_weight),
            (symmetric_geometric_axis(), symmetric_geometric_weight),
            (uniform_box_family(Box(((-3, 9),))).axes[0], uniform_weight(-3, 9)),
        ):
            for i in range(-12, 13):
                if oracle(i):
                    assert ax.point_parts(i) == ax.log2_parts(i, i)
                    assert ax.weight(i) == ax.mass(i, i) == oracle(i)
                    continue
                assert ax.log2_parts(i, i) is None and ax.mass(i, i) == 0
                for point_form in (ax.point_parts, ax.weight):
                    with pytest.raises(ValueError, match="outside axis support"):
                        point_form(i)


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
            got = fam.segment_power_log2(region, alpha)
            assert math.isclose(2.0 ** got, brute, rel_tol=1e-12) if brute else got == -math.inf

    def test_fixed_coordinate_outside_the_support_has_no_mass(self):
        # every point of the segment has first coordinate -1, as every point
        # of the box has: both masses are 0, and no form raises
        geo = geometric_family(2)
        seg = Segment((-1, 0), 1, 6)
        assert geo.segment_mass(seg) == geo.box_mass(Box(((-1, -1), (0, 5)))) == 0
        assert geo.mass_log2_parts(seg) is None
        assert geo.segment_power_log2(seg, 0.5) == -math.inf
        assert mass_le(geo, seg, (Fraction(1), Box(((0, 0), (0, 0)))))

    def test_strided_range_below_the_support_keeps_its_grid(self):
        # the points on axis 0 are -1, 1, 3 (and 5 on the uniform box): the closed
        # forms must count (1, 0) and (3, 0), not restart the grid at 0
        geo = geometric_family(2)
        seg = Segment((-1, 0), 0, 3, stride=2)
        assert geo.segment_mass(seg) == Fraction(5, 32)
        assert abs(mass_log2(geo, seg) - math.log2(5 / 32)) <= MARGIN
        expected = (1 / 8) ** 0.5 + (1 / 32) ** 0.5
        assert math.isclose(2.0 ** geo.segment_power_log2(seg, 0.5), expected, rel_tol=1e-12)
        uniform = uniform_box_family(Box(((0, 4), (0, 0))))
        seg = Segment((-1, 0), 0, 4, stride=2)
        assert uniform.segment_mass(seg) == Fraction(2, 5)
        assert abs(mass_log2(uniform, seg) - math.log2(2 / 5)) <= MARGIN


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


def test_log2_fraction_huge_values():
    q = Fraction(1, 2 ** 100_000)
    assert math.isclose(log2_fraction(q), -100_000.0, rel_tol=1e-12)


# ---------------------------------------------------------------------------
# the certified mass comparison against exact rationals
# ---------------------------------------------------------------------------

_table_rng = random.Random(7)
# family, and the per-axis region origins: coordinates below and above 4096
MASS_FAMILIES = {
    "geometric": (geometric_family(2), (0, 30, 4090, 100_000)),
    "symmetric-geometric": (symmetric_geometric_family(2), (-100_000, -30, 0, 4090)),
    "uniform": (uniform_box_family(Box(((-8, 6000), (-8, 6000))), Fraction(3)), (-8, 4090, 5900)),
    "table": (
        TableFamily({
            p: Fraction(_table_rng.randint(1, 9), _table_rng.randint(1, 9))
            for p in box_points(Box(((4080, 4140), (4080, 4140))))
        }),
        (4080, 4090),
    ),
}


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
    """A family of MASS_FAMILIES and `count` regions near its origins."""
    fam, origins = MASS_FAMILIES[draw(st.sampled_from(sorted(MASS_FAMILIES)))]
    return fam, *(draw(_regions(origins)) for _ in range(count))


@st.composite
def _comparisons(draw):
    fam, region, other = draw(_family_regions(2))
    ratio = exact_mass(fam, region) / exact_mass(fam, other)
    q = draw(st.one_of(
        st.builds(Fraction, st.integers(1, 100), st.integers(1, 100)),
        st.just(ratio),  # an exact tie
        # a near tie on either side, inside and outside the float margin
        st.builds(lambda s, k: ratio * (1 + s * Fraction(1, 2 ** k)),
                  st.sampled_from((1, -1)), st.integers(1, 100)),
    ))
    return fam, region, Bound(q, other)


class TestMassComparison:
    @given(_comparisons())
    @settings(max_examples=400, deadline=None)
    def test_agrees_with_exact_rationals(self, case):
        fam, region, bound = case
        expected = exact_mass(fam, region) <= bound.q * exact_mass(fam, bound.region)
        assert mass_le(fam, region, bound) == expected

    @given(_family_regions(1))
    @settings(max_examples=400, deadline=None)
    def test_mass_log2_is_accurate(self, case):
        # the split closed form, read as one float, is within the margin of
        # log2 of the exact mass, up to rounding both to magnitude |log2 mass|
        fam, region = case
        expected = sum(log2_parts(exact_mass(fam, region)))
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
        fam = geometric_family(3)
        for seg, plane in (
            (Segment((1, 6, 4), 0, 64), Box(((1, 64), (1, 64), (4, 4)))),
            (Segment((34, 1, 6), 1, 128), Box(((34, 34), (1, 128), (1, 64)))),
        ):
            bound = Bound(Fraction(1, 64), plane)
            excess = fam.segment_mass(seg) / (bound.q * fam.box_mass(plane)) - 1
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

    def test_exact_tie_past_the_size_guard_is_refused(self):
        # two points 2^20 out along the cone differ by exactly a factor 2:
        # only exact masses of about 2^20 bits could decide the tie
        fam = geometric_family(2)
        n = 2 ** 20
        near, far = Box(((n, n), (0, 0))), Box(((n + 1, n + 1), (0, 0)))
        assert mass_le(fam, near, Bound(Fraction(2) + Fraction(1, 2 ** 30), far))
        assert not mass_le(fam, near, Bound(Fraction(2) - Fraction(1, 2 ** 30), far))
        with pytest.raises(SizeGuardError):
            mass_le(fam, near, Bound(Fraction(2), far))


@st.composite
def _weight_comparisons(draw):
    """A family, a point near its origins and a bound near the point's weight."""
    fam, origins = MASS_FAMILIES[draw(st.sampled_from(sorted(MASS_FAMILIES)))]
    v = tuple(draw(st.sampled_from(origins)) + draw(st.integers(0, 15)) for _ in range(2))
    w = fam.weight(v)
    q = draw(st.one_of(
        st.builds(Fraction, st.integers(1, 100), st.integers(1, 100)),
        st.just(w),  # an exact tie
        st.builds(lambda s, k: w * (1 + s * Fraction(1, 2 ** k)),
                  st.sampled_from((1, -1)), st.integers(1, 100)),
    ))
    return fam, v, q


class TestWeightComparison:
    @given(_weight_comparisons())
    @settings(max_examples=400, deadline=None)
    def test_agrees_with_exact_rationals(self, case):
        fam, v, q = case
        assert list(weights_le(fam, [v], q)) == [fam.weight(v) <= q]

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
