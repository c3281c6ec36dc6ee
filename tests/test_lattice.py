import math
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from critreg.lattice import (
    Bound,
    Box,
    LatticePath,
    MultiIndex,
    Segment,
    SizeGuardError,
    SymmetricGeometricAxis,
    TableFamily,
    UnsupportedRegionError,
    exact_mass,
    geometric_family,
    log2_fraction,
    mass_le,
    path_cost,
    region_mass,
    sphere_constant,
    sphere_points,
    sphere_size,
    symmetric_geometric_family,
    uniform_box_family,
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
        mass, mean = region_mass(fam, None)
        assert mass == 1 and mean is None

    def test_sphere_one(self):
        fam = geometric_family(2)
        mass, mean = region_mass(fam, [(1, 0), (0, 1)])
        assert mass == Fraction(1, 4)
        assert mean == Fraction(1, 8)

    def test_constant_box(self):
        box = Box(((0, 2), (0, 3)))
        fam = uniform_box_family(box, total=Fraction(3))
        mass, mean = region_mass(fam, box)
        assert mass == 3
        assert mean == Fraction(3, 12)

    def test_symmetric_total(self):
        fam = symmetric_geometric_family(3)
        assert fam.total_mass == 1

    def test_empty_region_rejected(self):
        with pytest.raises(UnsupportedRegionError):
            region_mass(geometric_family(2), [])

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
        ax = SymmetricGeometricAxis()
        hi = lo + width
        expected = sum(
            (ax.weight(i) for i in range(lo, hi + 1) if (i - lo) % stride == 0),
            Fraction(0),
        )
        assert ax.range_mass(lo, hi, stride) == expected

    @given(st.integers(-8, 8))
    @settings(max_examples=30, deadline=None)
    def test_symmetric_prefix(self, t):
        ax = SymmetricGeometricAxis()
        expected = sum((ax.weight(i) for i in range(-40, t)), Fraction(0))
        # the tail below -40 is 2^-41/3-small; compare after adding it back
        tail = Fraction(1, 3 * 2 ** 40)
        assert ax.prefix(t) - expected == tail

    @given(st.integers(-6, 6), st.integers(0, 8), st.integers(1, 3))
    @settings(max_examples=50, deadline=None)
    def test_power_sum_log2_matches_brute(self, lo, width, stride):
        ax = SymmetricGeometricAxis()
        hi = lo + width
        alpha = 0.5
        brute = sum(
            float(ax.weight(i)) ** alpha
            for i in range(lo, hi + 1)
            if (i - lo) % stride == 0
        )
        got = 2.0 ** ax.range_power_log2(lo, hi, stride, alpha)
        assert math.isclose(got, brute, rel_tol=1e-12)


class TestPathCost:
    def test_worked_example(self):
        fam = geometric_family(2)
        cost = path_cost([(0, 0), (1, 0), (1, 1)], fam, (0.5, 0.5))
        assert math.isclose(cost, 0.8535533905932737, rel_tol=1e-12)

    def test_unit_weights_count_steps(self):
        box = Box(((0, 9), (0, 9)))
        fam = uniform_box_family(box, total=Fraction(100))
        path = [(0, 0), (1, 0), (2, 0), (2, 1)]
        assert path_cost(path, fam, 1) == 3 * fam.weight((0, 0))

    def test_single_step_exponent_one(self):
        fam = geometric_family(3)
        assert path_cost([(0, 0, 0), (1, 0, 0)], fam, 1) == fam.weight((0, 0, 0))

    def test_monotone_path_cost_below_box_mass(self):
        fam = geometric_family(2)
        box = Box(((0, 4), (0, 4)))
        path = [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (3, 2)]
        assert path_cost(path, fam, 1) <= fam.box_mass(box)


class TestTypes:
    def test_multi_index_cone_flag(self):
        with pytest.raises(ValueError):
            MultiIndex((1, -1), nonnegative=True)
        assert MultiIndex((1, 2, 3)).d == 3

    def test_path_adjacency(self):
        with pytest.raises(ValueError):
            LatticePath(((0, 0), (1, 1)))
        p = LatticePath(((0, 0), (0, 1), (1, 1)))
        assert p.geodesic and len(p) == 2

    def test_nonmonotone_not_geodesic(self):
        p = LatticePath(((1, 1), (0, 1)))
        assert not p.geodesic

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
            for p in Box(((4080, 4140), (4080, 4140))).points()
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
def _comparisons(draw):
    fam, origins = MASS_FAMILIES[draw(st.sampled_from(sorted(MASS_FAMILIES)))]
    region, other = draw(_regions(origins)), draw(_regions(origins))
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
