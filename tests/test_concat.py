import dataclasses
import hashlib
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from critreg import concat
from critreg.boxes import BoxSequence, build_sequence, minimal_round_constant
from critreg.concat import (
    BudgetReport,
    BudgetRow,
    ChainSearchError,
    _each,
    _first_good,
    _full_segment,
    _fully_good_segment,
    _junction,
    _stretch_entry_t,
    _strip_count,
    build_chain,
    distortion_budget,
    chain_start_stage,
    find_good_segment_d2,
    lambda_prime,
    reach_vertical_section,
    stride_cascade_lambda,
    verify_chain,
)
from critreg.lattice import (
    Bound,
    Box,
    Segment,
    TableFamily,
    geometric_family,
    symmetric_geometric_family,
    uniform_box_family,
)

from oracles import box_points, exact_mass, flag_goodness, flag_members, goodness_ratio

HALF = Fraction(1, 2)
THIRD = Fraction(1, 3)


class TestGoodness:
    def test_constant_family_ratio_one(self):
        box = Box(((1, 4), (1, 6)))
        fam = uniform_box_family(box)
        for region in (Box(((2, 3), (1, 6))), Box(((1, 1), (2, 2)))):
            assert goodness_ratio(fam, region, box) == 1

    def test_heaviest_cell_of_two_by_two(self):
        box = Box(((0, 1), (0, 1)))
        fam = geometric_family(2)
        ratio = goodness_ratio(fam, Box(((0, 0), (0, 0))), box)
        lmax = fam.weight((0, 0))
        total = exact_mass(fam, box)
        assert ratio == 4 * lmax / total

    def test_segment_region(self):
        box = Box(((0, 3), (0, 3)))
        fam = geometric_family(2)
        seg = _full_segment(box, 0, (0, 1))
        assert goodness_ratio(fam, seg, box) > 0

    def test_containment_enforced(self):
        fam = geometric_family(2)
        with pytest.raises(ValueError):
            goodness_ratio(fam, Box(((0, 9), (0, 0))), Box(((0, 3), (0, 3))))

    def test_fully_good_chain_ratio_is_max(self):
        # the flag's goodness level is the worst member ratio; the members
        # of a segment along axis 0 span axis 0, then axes 0 and 1
        box = Box(((1, 4), (1, 4), (1, 4)))
        fam = geometric_family(3)
        seg = _full_segment(box, 0, (1, 2, 3))
        members = [Box(((1, 4), (2, 2), (3, 3))), Box(((1, 4), (1, 4), (3, 3)))]
        assert flag_members(box, seg) == members
        ratios = [goodness_ratio(fam, m, box) for m in members]
        assert flag_goodness(fam, box, seg) == max(ratios)


def _oracle_masses(fam, seg, bound):
    """Exact (segment mass, bound value) by summing point weights."""
    mass = sum((fam.weight(p) for p in seg.points()), Fraction(0))
    other = sum((fam.weight(p) for p in box_points(bound.region)), Fraction(0))
    return mass, bound.q * other


class TestGoodSegmentPlanar:
    def test_constant_returns_first(self):
        box = Box(((1, 4), (2, 4)))
        fam = uniform_box_family(box)
        seg, bound = find_good_segment_d2(fam, box, "horizontal")
        mass, limit = _oracle_masses(fam, seg, bound)
        assert seg.anchor == (1, 2) and mass == limit

    def test_geometric_picks_far_row(self):
        box = Box(((1, 4), (2, 4)))
        fam = geometric_family(2)
        seg, bound = find_good_segment_d2(fam, box, "horizontal")
        mass, limit = _oracle_masses(fam, seg, bound)
        assert mass <= limit
        assert seg.anchor[1] > 2  # the heavy first row cannot qualify

    def test_adversarial_heavy_row(self):
        box = Box(((0, 3), (0, 3)))
        w = {}
        for p in box_points(box):
            w[p] = Fraction(100) if p[1] == 0 else Fraction(1)
        fam = TableFamily(w)
        seg, bound = find_good_segment_d2(fam, box, "horizontal")
        mass, limit = _oracle_masses(fam, seg, bound)
        assert seg.anchor[1] != 0 and mass <= limit


class TestLambdaRecursions:
    def test_lambda_prime_monotone_in_kappa(self):
        grid = [Fraction(k, 12) for k in range(1, 12)]
        for mu in (1, 2):
            vals = [lambda_prime(mu, k, 4) for k in grid]
            assert vals == sorted(vals)

    def test_lambda_prime_monotone_in_mu(self):
        assert lambda_prime(3, HALF, 3) >= lambda_prime(1, HALF, 3)

    def test_lambda_prime_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            lambda_prime(1, Fraction(3, 2), 3)
        with pytest.raises(ValueError):
            lambda_prime(Fraction(1, 2), HALF, 3)

    def test_cascade_value_is_finite_rational(self):
        v = stride_cascade_lambda(1, Fraction(27), 4, HALF)
        assert isinstance(v, Fraction) and v >= 1


class TestVerticalReach:
    def test_uniform_full_section(self):
        box = Box(((1, 3), (1, 9), (1, 27)))
        fam = uniform_box_family(box)
        a = minimal_round_constant(box)
        res = reach_vertical_section(fam, box, a, (2, 5, 3), kappa=HALF)
        assert res.fraction == 1 and res.meets_target

    def test_geometric_toy_meets_half(self):
        box = Box(((1, 3), (1, 9), (1, 27)))
        fam = geometric_family(3)
        a = minimal_round_constant(box)
        res = reach_vertical_section(fam, box, a, (2, 5, 3), kappa=HALF)
        assert res.meets_target
        assert all(len(c) <= 2 for c in res.chains.values())

    def test_inadmissible_level_rejected(self):
        box = Box(((1, 3), (1, 9), (1, 27)))
        fam = uniform_box_family(box)
        a = minimal_round_constant(box)
        with pytest.raises(ValueError):
            reach_vertical_section(fam, box, a, (2, 5, 27), kappa=HALF)

    def test_caller_mu_checked_at_large_coordinates(self):
        # FF d=3 Q(2) has coordinates up to 4112; the point's flag is only
        # about 2044.5-good, so a caller's mu = 2^-20 must be refused
        seq = build_sequence("FF", d=3, n_max=2)
        box = seq.box(2)
        a = minimal_round_constant(box)
        fam = geometric_family(2)
        assert max(box.intervals[-1]) > 4096
        with pytest.raises(ValueError):
            reach_vertical_section(fam, box, a, (4, 16), kappa=HALF, mu=Fraction(1, 2 ** 20))
        assert reach_vertical_section(fam, box, a, (4, 16), kappa=HALF).mu == 2048

    def test_chains_against_exhaustive_enumeration(self):
        # brute-force all one- and two-segment stride chains on the toy box
        box = Box(((1, 3), (1, 9), (1, 27)))
        fam = geometric_family(3)
        a = minimal_round_constant(box)
        point = (2, 5, 3)
        res = reach_vertical_section(fam, box, a, point, kappa=HALF)
        box_mean = exact_mass(fam, box) / box.npoints()

        def runs(start_j, stride, lo, hi):
            first = start_j - ((start_j - lo) // stride) * stride
            pts = list(range(first, hi + 1, stride))
            return pts

        from critreg.boxes import vertical_subdivision

        tree = vertical_subdivision(box, a)
        level = tree.level(point[2])
        finest = tree.chain_box(level.chain).intervals[2]
        lam = res.lam

        def good(pts):
            total = sum((fam.weight((2, 5, j)) for j in pts), Fraction(0))
            return total / len(pts) <= lam * box_mean

        reach = set()
        first_runs = []
        for stride, span in ((1, finest), (2, box.intervals[2])):
            pts = runs(point[2], stride, *span)
            if good(pts):
                first_runs.append(pts)
                reach.update(pts)
        for pts in first_runs:
            for j in pts:
                for stride, span in ((1, finest), (2, box.intervals[2]), (5, box.intervals[2])):
                    pts2 = runs(j, stride, *span)
                    if good(pts2):
                        reach.update(pts2)
        assert res.reachable <= reach


def _chain_smoke(kind, fam, seq, **kw):
    cert = build_chain(kind, fam, seq, **kw)
    rep = verify_chain(cert, fam)
    assert rep["all"], rep
    return cert


class TestChains:
    def test_planar_chain_and_budget(self):
        fam = geometric_family(2)
        seq = build_sequence("B-d2", alphas=(HALF, HALF), n_max=15)
        cert = _chain_smoke("B-d2", fam, seq)
        assert len(cert.records) == 15
        rep = distortion_budget(cert, fam, min_fit_n=4)
        assert rep.ratio_spread < 2.0
        assert rep.a_prime > 0

    def test_planar_chain_constant_family(self):
        box = Box(((1, 64), (1, 64)))
        fam = uniform_box_family(box)
        seq = build_sequence("B-d2", alphas=(HALF, HALF), n_max=6)
        cert = _chain_smoke("B-d2", fam, seq)
        # uniform weights make every goodness ratio exactly one
        for r in cert.records:
            assert r.mass_log2 <= r.mass_bound_log2 + 1e-9

    def test_spatial_plane_chain(self):
        fam = geometric_family(3)
        seq = build_sequence("B-general", alphas=(THIRD,) * 3, n_max=10)
        cert = _chain_smoke("B-d3", fam, seq)
        labels = {r.label.split(".")[1] for r in cert.records}
        assert labels == {"1", "2", "3"}
        assert cert.measured["K_d"] == 3.0

    def test_general_chain_d3_and_d4(self):
        fam = geometric_family(3)
        seq = build_sequence("B-general", alphas=(THIRD,) * 3, n_max=10)
        cert = _chain_smoke("B-general", fam, seq)
        assert cert.measured["K_d"] <= 3
        fam4 = geometric_family(4)
        seq4 = build_sequence("B-general", alphas=(Fraction(1, 4),) * 4, n_max=8)
        cert4 = _chain_smoke("B-general", fam4, seq4)
        assert cert4.measured["K_d"] <= 4

    def test_orbit_chain(self):
        fam = symmetric_geometric_family(2)
        seq = build_sequence("FF", d=3, n_max=13)
        assert chain_start_stage(seq) == 4
        cert = _chain_smoke("FF-d3", fam, seq)
        gens = {r.generator for r in cert.records}
        assert gens == {"f(2,1)", "f(3,1)", "f(3,2)"}
        # stride segments are genuine group-action runs
        for r in cert.records:
            if r.generator == "f(3,2)":
                assert r.seg.stride == r.seg.anchor[0]
        # the vertical pieces through a strip span one whole strip of the odd
        # box, cut every y_(1,odd) levels from the bottom of its second axis
        for r in cert.records:
            if r.flag_kind in ("overlap-vertical", "strip-overlap-vertical"):
                odd = seq.box(r.n + 1 - r.n % 2)
                height = odd.intervals[0][1]
                assert r.seg.count == height
                assert (r.seg.anchor[1] - odd.intervals[1][0]) % height == 0
        rep = distortion_budget(cert, fam, min_fit_n=4)
        assert rep.ratio_spread < 2.0

    def test_strip_count(self):
        # levels 3..12 cut every 4: [3, 6], [7, 10] and the short [11, 12]
        assert _strip_count(Box(((1, 5), (3, 12))), 4) == 3
        assert _strip_count(Box(((1, 5), (3, 10))), 4) == 2
        assert _strip_count(Box(((1, 5), (3, 3))), 4) == 1

    def test_orbit_chain_general(self):
        fam = symmetric_geometric_family(3)
        seq = build_sequence("FF", d=4, n_max=6)
        cert = _chain_smoke("FF-general", fam, seq)
        assert cert.measured["lambda"] >= 1

    def test_uniform_budget_negative_control(self):
        # unit-like weights are not summable at large scale: the budget
        # grows linearly in the walk length and the fitted ratio reflects
        # that honestly instead of flattening out
        box = Box(((1, 64), (1, 64)))
        fam = uniform_box_family(box)
        seq = build_sequence("B-d2", alphas=(HALF, HALF), n_max=6)
        cert = build_chain("B-d2", fam, seq)
        rep = distortion_budget(cert, fam)
        per_step = [r.budget / r.entry_index for r in rep.rows if r.entry_index > 4]
        assert max(per_step) / min(per_step) < 3  # near-linear growth in N
        finite = [r.ratio for r in rep.rows if r.entry_index > 1]
        assert finite[-1] > finite[0]  # fit grows, not bounded

    def test_kind_sequence_mismatch(self):
        fam = geometric_family(2)
        seq = build_sequence("B-d2", alphas=(HALF, HALF), n_max=4)
        with pytest.raises(ValueError):
            build_chain("B-general", fam, seq)

    def test_chebyshev_plane_counts(self):
        # in every processed box the lambda-good plane fraction exceeds
        # 1 - 1/lambda (exact rational counting)
        fam = geometric_family(3)
        seq = build_sequence("B-general", alphas=(THIRD,) * 3, n_max=8)
        cert = build_chain("B-d3", fam, seq)
        lam = Fraction(cert.measured["lambda"]).limit_denominator(10 ** 6)
        for n in seq.indices():
            box = seq.box(n)
            m2 = ((n - 1) % 3 + 2) % 3
            total = exact_mass(fam, box)
            bound = lam * total / box.side(m2)
            good = sum(
                1
                for v in range(box.intervals[m2][0], box.intervals[m2][1] + 1)
                if exact_mass(fam, box.fix_axis(m2, v)) <= bound
            )
            assert Fraction(good, box.side(m2)) > 1 - 1 / lam


_CHAINS = {
    "B-d2": (geometric_family(2), ("B-d2", dict(alphas=(HALF, HALF), n_max=10))),
    "B-d3": (geometric_family(3), ("B-general", dict(alphas=(THIRD,) * 3, n_max=8))),
    "FF-d3": (symmetric_geometric_family(2), ("FF", dict(d=3, n_max=13))),
}


def _tamper(cert, field):
    """A copy of the certificate with one stored value changed: a box mass,
    or one field of a middle record."""
    r = cert.records[len(cert.records) // 2]
    if field == "masses_log2":
        masses = {**cert.masses_log2, r.n: cert.masses_log2[r.n] + 1.0}
        return dataclasses.replace(cert, masses_log2=masses)
    value = {
        "flag_ok": False,
        "mass_log2": math.nextafter(r.mass_log2, -math.inf),
        # lowering a power sum keeps it under the power bound
        "power_sum_log2": math.nextafter(r.power_sum_log2, -math.inf),
        # raising a base keeps the power sum under the power bound
        "power_base_log2": r.power_base_log2 + 1.0,
    }[field]
    records = list(cert.records)
    records[len(records) // 2] = dataclasses.replace(r, **{field: value})
    return dataclasses.replace(cert, records=records)


class TestVerifyChain:
    @pytest.fixture(scope="class", params=sorted(_CHAINS))
    def built(self, request):
        fam, (seq_kind, kw) = _CHAINS[request.param]
        return fam, build_chain(request.param, fam, build_sequence(seq_kind, **kw))

    @pytest.mark.parametrize(
        "field", ["flag_ok", "mass_log2", "power_sum_log2", "power_base_log2", "masses_log2"]
    )
    def test_tampered_field_fails(self, built, field):
        fam, cert = built
        assert not verify_chain(_tamper(cert, field), fam)["all"]

    def test_raised_power_ratio_fails(self):
        fam, (seq_kind, kw) = _CHAINS["B-d2"]
        cert = build_chain("B-d2", fam, build_sequence(seq_kind, **kw))
        assert verify_chain(cert, fam)["all"]
        raised = dataclasses.replace(cert, power_ratio_log2=cert.power_ratio_log2 + 5)
        report = verify_chain(raised, fam)
        assert not report["power_bound"] and not report["all"]


class TestFullyGoodSearch:
    def test_constant_family_first_segment(self):
        box = Box(((1, 4), (1, 4), (1, 4)))
        fam = uniform_box_family(box)
        seg = _fully_good_segment(fam, box, 0, Fraction(2))
        assert seg.anchor == (1, 1, 1) and flag_goodness(fam, box, seg) == 1

    def test_geometric_avoids_heavy_corner(self):
        box = Box(((1, 32), (1, 32), (1, 32)))
        fam = geometric_family(3)
        seg = _fully_good_segment(fam, box, 0, Fraction(7))
        assert flag_goodness(fam, box, seg) <= 7
        assert seg.anchor[1] > 1 or seg.anchor[2] > 1

    def test_averaging_guarantees_existence_at_one(self):
        # selecting the lightest slice per level always yields a fully
        # 1-good flag, even against an adversarial weight spike
        box = Box(((1, 2), (1, 2), (1, 2)))
        w = {p: Fraction(1) for p in box_points(box)}
        w[(1, 1, 1)] = Fraction(10 ** 9)
        fam = TableFamily(w)
        seg = _fully_good_segment(fam, box, 0, Fraction(1))
        assert flag_goodness(fam, box, seg) <= 1

    @pytest.mark.parametrize("dim, anchor", [(3, (1, 5, 3)), (4, (1, 5, 5, 3))])
    def test_box_size_taken_once_per_depth(self, dim, anchor, monkeypatch):
        # a member's size, and so its bound, depends only on its depth in
        # the search, so no search counts box points more than depth + 1 times
        box = Box(tuple((1, 32) for _ in range(dim)))
        fam = geometric_family(dim)
        visits = []
        mass_le = concat.mass_le
        monkeypatch.setattr(concat, "mass_le", lambda *a: visits.append(a) or mass_le(*a))
        sizes = []
        npoints = Box.npoints
        monkeypatch.setattr(Box, "npoints", lambda b: sizes.append(b) or npoints(b))
        seg = _fully_good_segment(fam, box, 0, Fraction(7))
        assert len(visits) > 2 * dim  # the search backtracks
        assert len(sizes) <= dim
        assert seg.anchor == anchor

    def test_visit_cap_raises_search_error(self):
        box = Box(((1, 8), (1, 8), (1, 8)))
        fam = geometric_family(3)
        with pytest.raises(ChainSearchError) as err:
            _fully_good_segment(fam, box, 0, Fraction(2), visit_cap=1)
        # the search stops on the visit past the cap and reports it
        assert err.value.stats == {"visits": 2}


class TestJunction:
    def test_crossing(self):
        row = Segment((1, 5), 0, 10)  # x = 1..10 at y = 5
        column = Segment((4, 2), 1, 8)  # y = 2..9 at x = 4
        assert _junction(row, column) == _junction(column, row) == (4, 5)

    def test_unit_run_against_strided_run(self):
        # FF-d3 hands over between a stride-k class and a strip's unit run
        cls = Segment((5, 3), 1, 20, stride=5)  # y = 3, 8, 13, ..., 98
        strip = Segment((5, 10), 1, 5)  # y = 10..14
        assert _junction(cls, strip) == _junction(strip, cls) == (5, 13)

    def test_collinear_unit_runs(self):
        # B-general at d = 2: the overlap staircase and the next anchor run
        # lie on one line; they meet at the later of the two starts
        stair = Segment((4, 2), 0, 6)  # x = 4..9
        anchor = Segment((1, 2), 0, 20)  # x = 1..20
        assert _junction(stair, anchor) == _junction(anchor, stair) == (4, 2)

    @pytest.mark.parametrize(
        "a, b",
        [
            (Segment((0, 0), 0, 5), Segment((0, 1), 0, 5)),  # parallel lines
            (Segment((0, 0), 0, 3), Segment((5, 0), 1, 3)),  # crossing off a
            (Segment((0, 0), 0, 3), Segment((10, 0), 0, 3)),  # one line, apart
            (Segment((0, 0), 0, 9, stride=2), Segment((1, 0), 0, 9, stride=2)),
            (Segment((0, 0, 0), 0, 4), Segment((1, 2, 0), 1, 4)),  # skew lines
        ],
    )
    def test_disjoint_legs_raise(self, a, b):
        with pytest.raises(ValueError):
            _junction(a, b)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(-20, 20), st.integers(1, 12), st.integers(1, 6),
        st.integers(-20, 20), st.integers(1, 12), st.integers(1, 6),
    )
    def test_collinear_runs_meet_at_lowest_common_point(self, a0, ac, s, b0, bc, t):
        a = Segment((7, a0), 1, ac, stride=s)
        b = Segment((7, b0), 1, bc, stride=t)
        common = set(a.points()) & set(b.points())
        if not common:
            with pytest.raises(ValueError):
                _junction(a, b)
        else:
            assert _junction(a, b) == min(common, key=lambda p: p[1])


class TestFirstGood:
    def test_first_passing_value_in_scan_order(self):
        # row masses 10, 6, 2 against the row mean 6: row 2 is the first
        # within the bound (a tie passes), row 3 is never looked at
        box = Box(((1, 2), (1, 3)))
        fam = TableFamily({(x, y): Fraction(7 - 2 * y) for x, y in box_points(box)})
        rows = [box.fix_axis(1, v) for v in range(1, 4)]
        bound = Bound(Fraction(1, 3), box)
        assert _first_good(fam, ((r, [(r, bound)]) for r in rows), "none", 3) == rows[1]

    def test_exhausted_scan_raises_search_error(self):
        box = Box(((1, 4), (1, 4)))
        fam = geometric_family(2)
        never = Bound(Fraction(1, 10 ** 6), box)
        with pytest.raises(ChainSearchError, match="no candidate") as err:
            _first_good(fam, ((box, [(box, never)]),), "no candidate", 7)
        assert err.value.n == 7
        assert err.value.stats == {"candidates": 1}

    def test_search_error_counts_every_candidate(self):
        box = Box(((1, 4), (1, 4)))
        fam = geometric_family(2)
        never = Bound(Fraction(1, 10 ** 6), box)
        rows = [box.fix_axis(1, v) for v in range(1, 5)]
        with pytest.raises(ChainSearchError) as err:
            _first_good(fam, _each(rows, never), "none", None)
        assert err.value.stats == {"candidates": 4}

    def test_failing_staircase_scan_reports_its_count(self):
        # the planar B-d2 boxes relabelled as B-general from their own first
        # index: at n = 3 every staircase pivot escapes the overlap, so the
        # scan is left with no candidate at all
        planar = build_sequence("B-d2", alphas=(THIRD, 2 * THIRD), n_max=10)
        seq = BoxSequence("B-general", 1, planar.boxes, alphas=planar.alphas, d=2)
        with pytest.raises(ChainSearchError, match="no good staircase") as err:
            build_chain("B-general", geometric_family(2), seq)
        assert err.value.n == 3
        assert err.value.stats == {"candidates": 0}


def _planar_b_general(n_max):
    """The B-general builder at d = 2.  `build_sequence` has no d = 2
    recursion for B-general, so the planar (1/3, 2/3) boxes stand in,
    indexed from 2, where the builder's staircases fit in the overlaps."""
    planar = build_sequence("B-d2", alphas=(THIRD, 2 * THIRD), n_max=n_max)
    return BoxSequence("B-general", 2, planar.boxes, alphas=planar.alphas, d=2)


# one config per builder path: (kind, family, sequence, record count, sha256
# of the records' (n, label, segment, flag kind, generator, flag, entry,
# exit)), taken from the builders that each computed their own junctions
_PINNED = {
    "B-d2": ("B-d2", geometric_family(2),
             lambda: build_sequence("B-d2", alphas=(THIRD, 2 * THIRD), n_max=12), 12,
             "cb97a4a6df55ab43a64167750f4ff50e3a78cd9c3e78d4a2a605d4eab56b7416"),
    "B-d3": ("B-d3", geometric_family(3),
             lambda: build_sequence("B-general", alphas=(THIRD,) * 3, n_max=8), 21,
             "810904f6c746d9eba48ebf16d7f9c2d31640dabe1f5cce193478545b9743003f"),
    "B-general-d2": ("B-general", geometric_family(2), lambda: _planar_b_general(10), 19,
                     "b7ea509e8ef8d031d78e39f654528c136fab51cd8cabf84c6f2344f10631df7a"),
    "B-general-d4": ("B-general", geometric_family(4),
                     lambda: build_sequence("B-general", alphas=(Fraction(1, 4),) * 4, n_max=8),
                     29, "837a047b4ef6bf3954aefa3ab5b03d7f57f8ca1ce392b153ffcba8301c760fdc"),
    "FF-d3": ("FF-d3", symmetric_geometric_family(2),
              lambda: build_sequence("FF", d=3, n_max=13), 17,
              "eeb3cc022a78636dfc24f5216203f330fac6582e6de45076370d1b5cdd6524b8"),
    "FF-general-d4": ("FF-general", symmetric_geometric_family(3),
                      lambda: build_sequence("FF", d=4, n_max=6), 18,
                      "dac2f320eb3caf34e0695091d3f3c4a6aac3ebe062a50fce43322cdb472007a7"),
}


@pytest.mark.parametrize("case", sorted(_PINNED))
def test_records_pinned_per_builder(case):
    kind, fam, make_seq, count, digest = _PINNED[case]
    cert = build_chain(kind, fam, make_seq())
    rows = [
        (r.n, r.label, (r.seg.anchor, r.seg.axis, r.seg.count, r.seg.step, r.seg.stride),
         r.flag_kind, r.generator, r.flag_ok, r.entry, r.exit)
        for r in cert.records
    ]
    assert len(rows) == count
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == digest
    assert verify_chain(cert, fam)["all"]


def _resummed_budget(cert, family, min_fit_n):
    """The budget pass that re-sums the walk from its start for every row:
    the reference for the prefix-sum pass of `distortion_budget`."""
    alphas = cert.alphas
    alpha_min = float(min(alphas))
    stretches = cert.stretches
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
            part = Segment(s.anchor, s.axis, t_hi + 1, step=s.step, stride=s.stride)
            acc += 2.0 ** family.segment_power_log2(part, float(alphas[s.axis]))
        return acc

    rows = []
    for n in sorted(cert.masses_log2):
        if n + 1 not in cert.masses_log2:
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
                        max(fit) / min(fit) if fit else math.inf, starts[-1] + 1)


# chains for the budget oracle: (kind, family, sequence, min_fit_n as the CLI
# sets it).  B-general and FF-general at d = 4 walk through count-1 stretches
# before their last; FF-d3 at n_max 17 has its last entry inside the final
# stretch.
_BUDGET_CHAINS = {
    "B-d2-half": ("B-d2", geometric_family(2),
                  lambda: build_sequence("B-d2", alphas=(HALF, HALF), n_max=20), 2),
    "B-d2-third": ("B-d2", geometric_family(2),
                   lambda: build_sequence("B-d2", alphas=(THIRD, 2 * THIRD), n_max=24), 2),
    "B-d3": ("B-d3", geometric_family(3),
             lambda: build_sequence("B-general", alphas=(THIRD,) * 3, n_max=16), 2),
    "B-general-d3": ("B-general", geometric_family(3),
                     lambda: build_sequence("B-general", alphas=(THIRD,) * 3, n_max=16), 2),
    "B-general-d4": ("B-general", geometric_family(4),
                     lambda: build_sequence("B-general", alphas=(Fraction(1, 4),) * 4,
                                            n_max=12), 2),
    "FF-d3-geometric": ("FF-d3", geometric_family(2),
                        lambda: build_sequence("FF", d=3, n_max=17), 4),
    "FF-d3-symmetric": ("FF-d3", symmetric_geometric_family(2),
                        lambda: build_sequence("FF", d=3, n_max=17), 4),
    "FF-general-d4": ("FF-general", symmetric_geometric_family(3),
                      lambda: build_sequence("FF", d=4, n_max=8), 2),
}


def _budget_case(case):
    kind, fam, make_seq, min_fit_n = _BUDGET_CHAINS[case]
    return build_chain(kind, fam, make_seq()), fam, min_fit_n


class TestBudgetOracle:
    @pytest.mark.parametrize("case", sorted(_BUDGET_CHAINS))
    def test_equals_resummed_budget(self, case):
        cert, fam, min_fit_n = _budget_case(case)
        got = distortion_budget(cert, fam, min_fit_n=min_fit_n)
        want = _resummed_budget(cert, fam, min_fit_n=min_fit_n)
        assert len(got.rows) == len(want.rows) > 0
        for a, b in zip(got.rows, want.rows):
            assert a == b
        assert got.a_prime == want.a_prime
        assert got.ratio_spread == want.ratio_spread
        assert got.total_points == want.total_points

    def test_cases_cover_short_stretches_and_final_cuts(self):
        for case in ("B-general-d4", "FF-general-d4"):
            cert, _, _ = _budget_case(case)
            assert any(s.count == 1 for s in cert.stretches[:-1]), case
        for case in ("FF-d3-geometric", "FF-d3-symmetric"):
            cert, fam, min_fit_n = _budget_case(case)
            rep = distortion_budget(cert, fam, min_fit_n=min_fit_n)
            # the final stretch holds walk indices total - count .. total - 1
            first = rep.total_points - cert.stretches[-1].count
            assert any(first <= r.entry_index < rep.total_points - 1 for r in rep.rows), case

    @pytest.mark.parametrize("case", ["B-d2-third", "B-general-d4", "FF-d3-symmetric"])
    def test_one_power_sum_per_stretch_and_row(self, case, monkeypatch):
        cert, fam, min_fit_n = _budget_case(case)
        calls = []
        inner = fam.segment_power_log2

        def counted(seg, alpha):
            calls.append(seg)
            return inner(seg, alpha)

        monkeypatch.setattr(fam, "segment_power_log2", counted)
        rep = distortion_budget(cert, fam, min_fit_n=min_fit_n)
        assert 0 < len(calls) <= len(cert.stretches) + len(rep.rows)
