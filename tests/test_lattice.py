import math
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from critreg.lattice import (
    MARGIN,
    Axis,
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
)

from oracles import (
    LatticePath,
    box_contains_all,
    box_points,
    exact_mass,
    exact_sum,
    geodesic,
    geometric_weight,
    mass_log2_parts_unmemoized,
    point_weights,
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


class TestAxisClosedForms:
    @given(st.integers(-8, 8), st.integers(0, 10), st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_symmetric_range_mass(self, lo, width, stride):
        # the exact form of a strided range, read as a rational, against the
        # hand-written point weights
        fam = ProductFamily([symmetric_geometric_axis()])
        seg = Segment((lo,), 0, width // stride + 1, stride)
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
        assert fam.total_mass == ProductFamily([ax] * 3).total_mass == 1
        for k in (10, 40):
            tail = 1 - exact_mass(fam, Box(((-k, k),)))
            assert 0 < tail * 2 ** k <= 1


class TestMassesAgainstPointWeights:
    """Masses, log2 masses and power sums of hand-picked regions against the
    sums of their point weights, written out."""

    def test_fixed_coordinate_outside_the_support_has_no_mass(self):
        # every point of the segment has first coordinate -1, as every point
        # of the box has: both masses are 0, and no form raises
        geo = geometric_family(2)
        seg = Segment((-1, 0), 1, 6)
        assert exact_mass(geo, seg) == exact_mass(geo, Box(((-1, -1), (0, 5)))) == 0
        assert geo.mass_log2_parts(seg) is None
        assert geo.range_power_log2(seg, 0.5) == -math.inf
        assert mass_le(geo, seg, (Fraction(1), Box(((0, 0), (0, 0)))))

    def test_strided_range_below_the_support_keeps_its_grid(self):
        # the points on axis 0 are -1, 1, 3 (and 5 on the uniform box): the closed
        # forms must count (1, 0) and (3, 0), not restart the grid at 0
        geo = geometric_family(2)
        seg = Segment((-1, 0), 0, 3, 2)
        assert exact_mass(geo, seg) == Fraction(5, 32)
        assert abs(mass_log2(geo, seg) - math.log2(5 / 32)) <= MARGIN
        expected = (1 / 8) ** 0.5 + (1 / 32) ** 0.5
        assert math.isclose(2.0 ** geo.range_power_log2(seg, 0.5), expected, rel_tol=1e-12)
        uniform = uniform_box_family(Box(((0, 4), (0, 0))))
        seg = Segment((-1, 0), 0, 4, 2)
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
        assert math.isclose(2.0 ** fam.range_power_log2(seg, 0.5), expected, rel_tol=1e-12)
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
        s = Segment((3, 5), axis=1, count=4, step=2)
        assert list(s.points()) == [(3, 5), (3, 7), (3, 9), (3, 11)]
        assert s.index_of((3, 9)) == 2
        assert s.index_of((3, 8)) is None
        assert s.index_of((4, 9)) is None

    def test_table_family(self):
        fam = TableFamily({(0, 0): Fraction(1, 2), (1, 0): Fraction(1, 2)})
        assert fam.total_mass == 1
        with pytest.raises(ValueError):
            fam.weight((2, 2))

    def test_product_family_takes_no_scale(self):
        # a scale lives in an axis (`scaled_axis`)
        with pytest.raises(TypeError):
            ProductFamily([geometric_axis()], scale=Fraction(1, 2))


def test_log2_parts_huge_values():
    q = Fraction(1, 2 ** 100_000)
    assert log2_parts(q) == (-100_000, 0.0)
    assert math.isclose(sum(log2_parts(q)), -100_000.0, rel_tol=1e-12)


# ---------------------------------------------------------------------------
# the certified mass comparison against sums of hand-written point weights
# ---------------------------------------------------------------------------

class TestMassComparison:
    def test_b_d3_ties_to_2_pow_minus_64_are_rejected(self):
        # two candidate rows of chain-b --d 3 --variant B-d3 --n-max 12 whose
        # mass exceeds 1/64 of their plane's by a relative 1/(2^64 - 1)
        fam = geometric_family(3)

        def mass(points):
            return exact_sum(point_weights((geometric_weight,) * 3, Fraction(1), points))

        for seg, plane in (
            (Segment((1, 6, 4), 0, 64), Box(((1, 64), (1, 64), (4, 4)))),
            (Segment((34, 1, 6), 1, 128), Box(((34, 34), (1, 128), (1, 64)))),
        ):
            bound = Bound(Fraction(1, 64), plane)
            excess = mass(seg.points()) / (bound.q * mass(box_points(plane))) - 1
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
        two, three = Segment((5, 0), 0, 2, stride), Segment((5, 0), 0, 3, stride)
        up = Segment((5, 1), 0, 2, stride)
        for region, q, other, holds in (
            (two, Fraction(2), up, True),
            (up, Fraction(1, 2), two, True),
            (two, 2 - Fraction(1, 2 ** 60), up, False),
            (two, Fraction(1), three, True),
            (three, Fraction(1), two, False),
        ):
            assert abs(mass_ratio_log2(fam, region, Bound(q, other))) <= MARGIN
            assert mass_le(fam, region, Bound(q, other)) is holds


class TestFamilyMemo:
    @staticmethod
    def _counted(monkeypatch, name):
        """The calls of `Axis.name` from here on, as their argument tuples."""
        calls, inner = [], getattr(Axis, name)

        def counted(ax, *args):
            calls.append(args)
            return inner(ax, *args)

        monkeypatch.setattr(Axis, name, counted)
        return calls

    def test_equal_axes_share_their_entries(self, monkeypatch):
        fam = geometric_family(3)
        box = Box(((2, 5),) * 3)
        want = mass_log2_parts_unmemoized(fam, box)
        calls = self._counted(monkeypatch, "log2_parts")
        assert fam.mass_log2_parts(box) == want
        assert calls == [(2, 5, 1)]

    def test_power_sums_are_kept_by_range_and_exponent(self, monkeypatch):
        fam = geometric_family(3)
        # parallel: one moving range 1..5 on the first axis, other fixed coordinates
        segs = [Segment((1, 2, 0), 0, 5), Segment((5, 0, 3), 0, 5, -1)]
        cases = [(segs[0], 0.5), (segs[1], 0.5), (segs[0], 1 / 3)]
        want = [segment_power_log2_unmemoized(fam, seg, alpha) for seg, alpha in cases]
        calls = self._counted(monkeypatch, "power_log2")
        assert [fam.range_power_log2(seg, alpha) for seg, alpha in cases] == want
        assert calls == [(1, 5, 1, 0.5), (1, 5, 1, 1 / 3)]

    def test_a_table_scan_sums_each_bound_region_once(self, monkeypatch):
        # the linear scan decides every probe against the one bound region,
        # whose mass sums the whole table: once per family
        rng = random.Random(11)
        fam = TableFamily({p: Fraction(rng.randint(1, 9), 2 ** (sum(p) + 8))
                           for p in product(range(-2, 7), repeat=2)})
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


def _outcome(fn, *args):
    """fn's result, or the type and message of the ValueError it raised."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


class TestRegionChecks:
    @given(st.integers(1, 4), st.integers(-1, 1), st.data())
    @settings(max_examples=300, deadline=None)
    def test_match_the_generator_forms(self, d, extra, data):
        # the box may have one axis more or fewer than the point
        dim = min(max(d + extra, 1), 6)
        ivs = [(lo, lo + data.draw(st.integers(0, 4)))
               for lo in data.draw(st.lists(st.integers(-3, 3), min_size=dim, max_size=dim))]
        box = Box(tuple(ivs))
        point = tuple(data.draw(st.lists(st.integers(-4, 8), min_size=d, max_size=d)))
        for v in (point, tuple(lo for lo, _ in ivs)):
            assert _outcome(box.contains, v) == _outcome(box_contains_all, box, v)
