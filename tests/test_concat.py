import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from critreg import cli, concat, lattice
from critreg.boxes import build_sequence, minimal_round_constant
from critreg.concat import (
    ChainSearchError,
    _first_translate,
    _full_segment,
    _fully_good_segment,
    _junction,
    _stretch,
    _stretch_entry_t,
    _strip_count,
    build_chain,
    distortion_budget,
    chain_start_stage,
    lambda_prime,
    measured,
    reach_vertical_section,
    stride_cascade_lambda,
    verify_chain,
    walk_stretches,
)
from critreg.lattice import (
    Bound,
    Box,
    ProductFamily,
    Segment,
    TableFamily,
    first_translate_le,
    geometric_family,
    symmetric_geometric_family,
    translated,
)

from oracles import (
    CHAIN_CASES,
    FAMILIES,
    b_log2_split,
    box_points,
    exact_mass,
    first_translate_linear,
    flag_goodness,
    flag_members,
    fully_good_dfs,
    goodness_ratio,
    planar_b_general,
    point_mass,
    power_ratio_log2,
    resummed_budget,
    uniform_box_family,
)

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


# the product builders of the family contract, for the search tests
PRODUCTS = [name for name in FAMILIES if not name.endswith("table")]


def _oracle_masses(fam, seg, bound):
    """Exact (segment mass, bound value) by summing point weights."""
    mass = sum((fam.weight(p) for p in seg.points()), Fraction(0))
    other = sum((fam.weight(p) for p in box_points(bound.region)), Fraction(0))
    return mass, bound.q * other


def _first_average_row(fam, box):
    """The search of B-d2's even stages: the first horizontal segment of a
    planar box with mass at most the box average, and that bound."""
    bound = Bound(Fraction(1, box.side(1)), box)
    c = box.intervals[1][0]
    (seg,) = _first_translate(fam, [(_full_segment(box, 0, (c, c)), bound)], 1, 1,
                              box.side(1), "no average-good segment", None)
    return seg, bound


class TestGoodSegmentPlanar:
    def test_constant_returns_first(self):
        box = Box(((1, 4), (2, 4)))
        fam = uniform_box_family(box)
        seg, bound = _first_average_row(fam, box)
        mass, limit = _oracle_masses(fam, seg, bound)
        assert seg.anchor == (1, 2) and mass == limit

    def test_geometric_picks_far_row(self):
        box = Box(((1, 4), (2, 4)))
        fam = geometric_family(2)
        seg, bound = _first_average_row(fam, box)
        mass, limit = _oracle_masses(fam, seg, bound)
        assert mass <= limit
        assert seg.anchor[1] > 2  # the heavy first row cannot qualify

    def test_adversarial_heavy_row(self):
        box = Box(((0, 3), (0, 3)))
        w = {}
        for p in box_points(box):
            w[p] = Fraction(100) if p[1] == 0 else Fraction(1)
        fam = TableFamily(w)
        seg, bound = _first_average_row(fam, box)
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

    def test_least_mu_at_large_coordinates(self):
        # FF d=3 Q(2) has coordinates up to 4112; the point's flag is only
        # about 2044.5-good, so the least power of two that makes it fully
        # mu-good is 2^11
        seq = build_sequence("FF", d=3, n_max=2)
        box = seq.box(2)
        a = minimal_round_constant(box)
        fam = geometric_family(2)
        assert max(box.intervals[-1]) > 4096
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


class TestChains:
    def test_planar_chain_and_budget(self):
        fam, cert = CHAIN_CASES["B-d2-half-20"]._replace(n_max=15).build()
        assert len(cert.records) == 15
        rep = distortion_budget(cert, fam)
        assert rep.ratio_spread < 2.0
        assert rep.a_prime > 0

    def test_planar_chain_constant_family(self):
        box = Box(((1, 64), (1, 64)))
        fam = uniform_box_family(box)
        seq = build_sequence("B-d2", alphas=(HALF, HALF), n_max=6)
        cert = build_chain("B-d2", fam, seq)
        assert verify_chain(cert, fam)["all"]
        # uniform weights make every goodness ratio exactly one
        for r in cert.records:
            assert lattice.mass_le(fam, r.seg, r.bound)

    def test_spatial_plane_chain(self):
        fam, cert = CHAIN_CASES["B-d3-8"]._replace(n_max=10).build()
        labels = {r.label.split(".")[1] for r in cert.records}
        assert labels == {"1", "2", "3"}
        assert measured(cert, fam)["K_d"] == 3.0

    def test_general_chain_d3_and_d4(self):
        fam, cert = CHAIN_CASES["B-general-d3-16"]._replace(n_max=10).build()
        assert measured(cert, fam)["K_d"] <= 3
        fam4, cert4 = CHAIN_CASES["B-general-d4-8"].build()
        assert measured(cert4, fam4)["K_d"] <= 4

    def test_orbit_chain(self):
        fam, cert = CHAIN_CASES["FF-d3-symmetric-13"].build()
        seq = cert.seq
        assert chain_start_stage(seq) == 4
        gens = {r.generator for r in cert.records}
        assert gens == {"f(2,1)", "f(3,1)", "f(3,2)"}
        # stride segments are genuine group-action runs
        for r in cert.records:
            if r.generator == "f(3,2)":
                assert r.seg.step == r.seg.anchor[0]
        # the vertical pieces through a strip span one whole strip of the odd
        # box, cut every y_(1,odd) levels from the bottom of its second axis
        for r in cert.records:
            if r.flag_kind in ("overlap-vertical", "strip-overlap-vertical"):
                odd = seq.box(r.n + 1 - r.n % 2)
                height = odd.intervals[0][1]
                assert r.seg.count == height
                assert (r.seg.anchor[1] - odd.intervals[1][0]) % height == 0
        rep = distortion_budget(cert, fam)
        assert rep.ratio_spread < 2.0

    def test_box_growth_is_read_from_the_sequence(self):
        # D's count exponent is a fact of the box sequence (FF boxes grow as
        # 4^(n/(d-1)), B boxes as 2^(n alpha)), so a certificate whose kind
        # is relabelled measures the same
        for case, n_max, other in (("B-d2-half-20", 8, "FF-d3"),
                                   ("FF-d3-symmetric-13", 13, "B-d2")):
            fam, cert = CHAIN_CASES[case]._replace(n_max=n_max).build()
            want = measured(cert, fam)
            assert want["D"] > 0
            assert measured(cert._replace(kind=other), fam) == want

    def test_strip_count(self):
        # levels 3..12 cut every 4: [3, 6], [7, 10] and the short [11, 12]
        assert _strip_count(Box(((1, 5), (3, 12))), 4) == 3
        assert _strip_count(Box(((1, 5), (3, 10))), 4) == 2
        assert _strip_count(Box(((1, 5), (3, 3))), 4) == 1

    def test_orbit_chain_general(self):
        _, cert = CHAIN_CASES["FF-general-d4-symmetric-6"].build()
        assert cert.levels["lambda"] >= 1

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
        fam, cert = CHAIN_CASES["B-d3-8"].build()
        seq = cert.seq
        lam = Fraction(cert.levels["lambda"]).limit_denominator(10 ** 6)
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


# the sequences the chain table is tried on; the B-d2 boxes relabelled as
# B-general are the planar staircase case of
# `test_failing_staircase_scan_reports_its_count`
_TABLE_SEQS = {
    "B-d2": lambda: build_sequence("B-d2", alphas=(HALF, HALF), n_max=8),
    "B-general-d3": lambda: build_sequence("B-general", alphas=(THIRD,) * 3, n_max=8),
    "B-general-d4": lambda: build_sequence("B-general", alphas=(Fraction(1, 4),) * 4, n_max=8),
    "FF-d3": lambda: build_sequence("FF", d=3, n_max=8),
    "FF-d4": lambda: build_sequence("FF", d=4, n_max=6),
    "B-general-planar": lambda: planar_b_general(10)._replace(start_index=1),
}
# the sequences each chain kind walks, and its refusal of any other
_WALKS = {
    "B-d2": ({"B-d2"}, "B-d2 needs the B-d2 sequence"),
    "B-d3": ({"B-general-d3"}, "B-d3 needs the B-general sequence with d=3"),
    "B-general": ({"B-general-d3", "B-general-d4", "B-general-planar"},
                  "B-general needs the B-general sequence"),
    "FF-d3": ({"FF-d3"}, "FF-d3 needs the FF sequence with d=3"),
    "FF-general": ({"FF-d3", "FF-d4"}, "FF-general needs the FF sequence"),
}


@pytest.mark.parametrize("seq_name", sorted(_TABLE_SEQS))
@pytest.mark.parametrize("kind", sorted(_WALKS))
def test_chain_table_checks_each_sequence(kind, seq_name):
    assert set(concat.CHAINS) == set(_WALKS)
    seq = _TABLE_SEQS[seq_name]()
    fam = geometric_family(seq.boxes[0].dim)
    walks, refusal = _WALKS[kind]
    if seq_name not in walks:
        with pytest.raises(ValueError) as err:
            build_chain(kind, fam, seq)
        assert str(err.value) == refusal
        return
    try:
        cert = build_chain(kind, fam, seq)
    except ChainSearchError:
        # the relabelled planar boxes reach the staircase search and fail it
        assert seq_name == "B-general-planar"
        return
    assert cert.kind == kind and verify_chain(cert, fam)["all"]


def test_unknown_chain_kind_is_refused():
    with pytest.raises(ValueError, match="unknown chain kind 'nope'"):
        build_chain("nope", geometric_family(2), _TABLE_SEQS["B-d2"]())


@pytest.mark.parametrize("kind, d", [("B-d2", 3), ("B-d2", 1), ("FF-d3", 3), ("FF-d3", 1)])
def test_a_family_of_another_dimension_is_refused(kind, d):
    # B-d2 and FF-d3 boxes lie on Z^2.  A family on Z^3 was read on two of
    # its axes (on B-d2 at n_max 8: 8 records, verified, A' = 0.663), and one
    # on Z^1 died of an IndexError
    seq = _TABLE_SEQS[kind]()
    cert = build_chain(kind, geometric_family(2), seq)
    other = geometric_family(d)
    message = f"^the family is on Z\\^{d}, but the boxes are on Z\\^2$"
    for call in (lambda: build_chain(kind, other, seq), lambda: verify_chain(cert, other),
                 lambda: measured(cert, other), lambda: distortion_budget(cert, other)):
        with pytest.raises(ValueError, match=message):
            call()


@pytest.mark.parametrize("d", range(3, 7))
def test_ff_sequences_carry_the_chain_exponent(d):
    assert build_sequence("FF", d=d, n_max=2).alphas == (Fraction(2, d * (d - 1)),) * (d - 1)


@pytest.mark.parametrize("kind, alphas", [
    ("B-d2", (THIRD, 2 * THIRD)),
    ("B-general", (Fraction(1, 4), Fraction(1, 4), HALF)),
])
def test_b_sequences_keep_their_exponents(kind, alphas):
    assert build_sequence(kind, alphas=alphas, n_max=6).alphas == alphas


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 19: measured subtracts float log2 values whose integer parts are far "
    "past 2^53, so B_log2 at n_max 40 is rounding noise (8388608.0 at d = 4, 256.0 at "
    "d = 5, against 2.696 and 3.500); the split form of item 19 mends it"))
@pytest.mark.parametrize("d", [4, 5])
def test_ff_general_b_log2_keeps_the_split_value_at_n_max_40(d):
    fam, cert = CHAIN_CASES[f"FF-general-d{d}-geometric-12"]._replace(n_max=40).build()
    assert abs(measured(cert, fam)["B_log2"] - b_log2_split(cert, fam)) <= 1e-9


# four of the registered chains, two of them at a smaller n_max, that the
# derived values are followed on field by field
_CHAINS = {
    "B-d2": CHAIN_CASES["B-d2-half-20"]._replace(n_max=10),
    "B-d3": CHAIN_CASES["B-d3-8"],
    "B-general": CHAIN_CASES["B-general-d3-16"]._replace(n_max=10),
    "FF-d3": CHAIN_CASES["FF-d3-symmetric-13"],
}


class TestVerifyChain:
    @pytest.fixture(scope="class", params=sorted(_CHAINS))
    def built(self, request):
        return _CHAINS[request.param].build()

    @pytest.mark.parametrize("field", ["power_sum_log2", "exit"])
    def test_derived_values_follow_the_records(self, built, field):
        # B and the walk's stretches are computed from the records, so a
        # changed record moves them: nothing stored beside the records can
        # disagree
        fam, cert = built
        r = cert.records[-1]
        if field == "power_sum_log2":
            # the last record's power sum raised: its segment moved to 0
            # along an axis it does not move on, where the weights are heavier
            anchor = list(r.seg.anchor)
            anchor[(r.seg.axis + 1) % len(anchor)] = 0
            changed_r = r._replace(seg=r.seg._replace(anchor=tuple(anchor)))
        else:
            # the walk leaves the last segment one point earlier
            t = r.seg.index_of(r.exit)
            changed_r = r._replace(exit=r.seg.point(t - 1 if t else 1))
        changed = cert._replace(records=(*cert.records[:-1], changed_r))
        before, after = walk_stretches(cert), walk_stretches(changed)
        if field == "power_sum_log2":
            b_log2 = measured(changed, fam)["B_log2"]
            assert b_log2 == power_ratio_log2(changed, fam, changed_r)
            assert b_log2 > measured(cert, fam)["B_log2"]
            assert after == before
        else:
            assert measured(changed, fam)["B_log2"] == measured(cert, fam)["B_log2"]
            assert after[:-1] == before[:-1]
            assert after[-1].last() == changed_r.exit != before[-1].last()


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
        # the search, so no search counts box points more than depth + 1 times.
        # The geometric scans decide from closed forms without a `mass_le`
        # probe, so the geometric weights of a smaller box, as a table, are
        # searched too: there every decision is a probe
        small = Box(((1, 8),) * dim)
        geo = geometric_family(dim)
        table = TableFamily({p: geo.weight(p) for p in box_points(small)})
        want = _fully_good_segment(geo, small, 0, Fraction(7))
        probes = []
        mass_le = lattice.mass_le
        monkeypatch.setattr(lattice, "mass_le", lambda *a: probes.append(a) or mass_le(*a))
        sizes = []
        npoints = Box.npoints
        monkeypatch.setattr(Box, "npoints", lambda b: sizes.append(b) or npoints(b))
        assert _fully_good_segment(table, small, 0, Fraction(7)) == want
        # more probes than sizes taken, so a size per probe would show
        assert len(probes) > dim
        assert len(sizes) <= dim
        sizes.clear()
        seg = _fully_good_segment(geo, Box(((1, 32),) * dim), 0, Fraction(7))
        assert len(sizes) <= dim
        assert seg.anchor == anchor

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_greedy_equals_depth_first_search(self, data):
        # every level of a fully lambda-good search has a good value for
        # lambda >= 1, so the greedy search finds the depth-first one
        dim = data.draw(st.integers(2, 3), label="dim")
        box = Box(tuple(
            (lo, lo + data.draw(st.integers(0, 3))) for lo in data.draw(
                st.lists(st.integers(-3, 6), min_size=dim, max_size=dim), label="lo")
        ))
        kind = data.draw(st.sampled_from([*PRODUCTS, "table"]))
        if kind == "table":
            ws = data.draw(st.lists(st.integers(1, 10 ** 6), min_size=box.npoints(),
                                    max_size=box.npoints()), label="weights")
            fam = TableFamily(dict(zip(box_points(box), map(Fraction, ws))))
        else:
            fam = FAMILIES[kind].family(dim)
        axis = data.draw(st.integers(0, dim - 1), label="axis")
        lam = data.draw(st.sampled_from([Fraction(1), Fraction(3, 2), Fraction(2), Fraction(5)]))
        assert _fully_good_segment(fam, box, axis, lam) == fully_good_dfs(fam, box, axis, lam)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 3), st.data())
def test_segment_forms_match_a_list_of_points(d, data):
    # a segment and the stretches and translates made from it, against the
    # list of its points anchor + t * step, in order
    anchor = data.draw(st.tuples(*[st.integers(-20, 20)] * d))
    axis = data.draw(st.integers(0, d - 1))
    count = data.draw(st.integers(1, 6))
    step = data.draw(st.sampled_from((1, -1))) * data.draw(st.integers(1, 5))
    seg = Segment(anchor, axis, count, step)

    def moved(p, k, delta):
        return p[:k] + (p[k] + delta,) + p[k + 1:]

    pts = [moved(anchor, axis, t * step) for t in range(count)]
    assert [seg.point(t) for t in range(count)] == list(seg.points()) == pts
    assert seg.last() == pts[-1]
    on_axis = [p[axis] for p in pts]
    assert seg.axis_values() == (min(on_axis), max(on_axis), abs(step))
    # every point of the line near the segment, on and off the progression
    for offset in range(-abs(step) - 1, count * abs(step) + 2):
        v = moved(anchor, axis, offset * (1 if step > 0 else -1))
        assert seg.index_of(v) == (pts.index(v) if v in pts else None)
        if d > 1:
            assert seg.index_of(moved(v, (axis + 1) % d, 1)) is None
    k, delta = data.draw(st.integers(0, d - 1)), data.draw(st.integers(-9, 9))
    moved_seg = translated(seg, k, delta)
    assert type(moved_seg) is Segment
    assert moved_seg[1:] == seg[1:] and list(moved_seg.points()) == [moved(p, k, delta) for p in pts]
    # a stretch between two points of the segment, walked either way
    i, j = data.draw(st.integers(0, count - 1)), data.draw(st.integers(0, count - 1))
    stretch = _stretch(pts[i], pts[j], axis, abs(step))
    assert list(stretch.points()) == (pts[i:j + 1] if i <= j else pts[j:i + 1][::-1])
    # the first point of the stretch in a box
    corner = [c + data.draw(st.integers(-8, 8)) for c in anchor]
    box = Box(tuple((lo, lo + data.draw(st.integers(0, 8))) for lo in corner))
    inside = [t for t, p in enumerate(stretch.points()) if box.contains(p)]
    assert _stretch_entry_t(stretch, box) == (inside[0] if inside else None)


class TestJunction:
    def test_crossing(self):
        row = Segment((1, 5), 0, 10)  # x = 1..10 at y = 5
        column = Segment((4, 2), 1, 8)  # y = 2..9 at x = 4
        assert _junction(row, column) == _junction(column, row) == (4, 5)

    def test_unit_run_against_strided_run(self):
        # FF-d3 hands over between a stride-k class and a strip's unit run
        cls = Segment((5, 3), 1, 20, 5)  # y = 3, 8, 13, ..., 98
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
            (Segment((0, 0), 0, 9, 2), Segment((1, 0), 0, 9, 2)),
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
        a = Segment((7, a0), 1, ac, s)
        b = Segment((7, b0), 1, bc, t)
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
        assert _first_translate(fam, [(rows[0], bound)], 1, 1, 3, "none", 3) == [rows[1]]

    def test_exhausted_scan_raises_search_error(self):
        box = Box(((1, 4), (1, 4)))
        fam = geometric_family(2)
        never = Bound(Fraction(1, 10 ** 6), box)
        with pytest.raises(ChainSearchError, match="no candidate") as err:
            _first_translate(fam, [(box, never)], 0, 1, 1, "no candidate", 7)
        assert err.value.n == 7
        assert err.value.stats == {"candidates": 1}

    def test_search_error_counts_every_candidate(self):
        # with a predicted start (geometric) and without one (uniform)
        box = Box(((1, 4), (1, 4)))
        never = Bound(Fraction(1, 10 ** 6), box)
        for fam in (geometric_family(2), uniform_box_family(box)):
            with pytest.raises(ChainSearchError) as err:
                _first_translate(fam, [(box.fix_axis(1, 1), never)], 1, 1, 4, "none", None)
            assert err.value.stats == {"candidates": 4}

    def test_failing_staircase_scan_reports_its_count(self):
        # the planar B-d2 boxes relabelled as B-general from their own first
        # index: at n = 3 every staircase pivot escapes the overlap, so the
        # scan is left with no candidate at all
        seq = planar_b_general(10)._replace(start_index=1)
        with pytest.raises(ChainSearchError, match="no good staircase") as err:
            build_chain("B-general", geometric_family(2), seq)
        assert err.value.n == 3
        assert err.value.stats == {"candidates": 0}


def _jump_applies(fam, checks, axis, step, count) -> bool:
    """Where the translate search decides from closed forms and may start
    past 0: a product axis of rate > 0, with every translate in the support
    at coordinates >= 0."""
    if not isinstance(fam, ProductFamily) or fam.axes[axis].rate <= 0:
        return False
    ax = fam.axes[axis]
    for region, _ in checks:
        pts = box_points(region) if isinstance(region, Box) else region.points()
        values = [p[axis] for p in pts]
        if min(values) < max(0, ax.lo) or max(values) + (count - 1) * step > ax.hi:
            return False
    return True


@st.composite
def _regions(draw):
    """A box or a segment of Z^2 near the origin, strided or reversed."""
    if draw(st.booleans()):
        return Box(tuple((lo, lo + draw(st.integers(0, 3))) for lo in
                         (draw(st.integers(-6, 10)), draw(st.integers(-6, 10)))))
    anchor = (draw(st.integers(-6, 10)), draw(st.integers(-6, 10)))
    return Segment(anchor, draw(st.integers(0, 1)), draw(st.integers(1, 5)),
                   draw(st.sampled_from([1, -1])) * draw(st.integers(1, 3)))


# a table over [-4, 12]^2 whose weights neither fall nor rise along an axis
_TABLE = TableFamily({(i, j): Fraction(1 + (3 * i + 5 * j) % 7, 2 ** (abs(i) + abs(j)))
                      for i in range(-4, 13) for j in range(-4, 13)})


class TestFirstTranslate:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_a_translate_shifts_the_integer_part(self, data):
        # what the closed-form probes rest on: on a product axis of rate
        # > 0, a region moved by delta, it and its translate in the support
        # at coordinates >= 0, has the split log2 mass of the unmoved region
        # with rate * delta taken from the integer and the float unchanged
        kind = data.draw(st.sampled_from(PRODUCTS), label="family")
        fam = FAMILIES[kind].family(2)
        region = data.draw(_regions(), label="region")
        # a segment moves along its own axis or along the fixed one
        axis = data.draw(st.integers(0, 1), label="axis")
        rate = fam.axes[axis].rate
        parts = fam.mass_log2_parts(region)
        far = data.draw(st.integers(13, 10 ** 6), label="far")
        for delta in [*range(-12, 13), far]:
            other = translated(region, axis, delta)
            if _jump_applies(fam, [(region, None), (other, None)], axis, 1, 1):
                want = None if parts is None else (parts[0] - rate * delta, parts[1])
                assert fam.mass_log2_parts(other) == want

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_the_linear_scan(self, data):
        # the same index and exhausted count as the linear scan.  The walk
        # from 0 makes the linear scan's checks; where a start is predicted,
        # it lies at the answer or one past it (one before it only when a
        # region's start is within 1e-6 of an integer), and `mass_le` runs
        # only on ties: translates whose closed-form difference lies within
        # MARGIN, and whose mass equals the bound's, so a draw that meets
        # no tie makes no call
        kind = data.draw(st.sampled_from([*PRODUCTS, "table"]), label="family")
        fam = _TABLE if kind == "table" else FAMILIES[kind].family(2)
        axis = data.draw(st.integers(0, 1), label="axis")
        step = data.draw(st.integers(1, 3), label="step")
        count = data.draw(st.integers(0, 10), label="count")
        checks = []
        for _ in range(data.draw(st.integers(1, 2), label="regions")):
            region, other = data.draw(_regions()), data.draw(_regions())
            q = Fraction(data.draw(st.integers(1, 64)), data.draw(st.integers(1, 64)))
            q *= Fraction(2) ** data.draw(st.integers(-12, 12))
            if count and data.draw(st.booleans(), label="tie"):
                # q such that the translate at t has the bound's mass exactly
                t = data.draw(st.integers(0, count - 1))
                m, b = point_mass(fam, translated(region, axis, t * step)), point_mass(fam, other)
                q = m / b if m and b else q
            checks.append((region, Bound(q, other)))
        want, linear_checks = first_translate_linear(fam, checks, axis, step, count)
        calls = []
        mass_le = lattice.mass_le
        with mock.patch.object(lattice, "mass_le", lambda *a: calls.append(a) or mass_le(*a)):
            got = first_translate_le(fam, checks, axis, step, count)
        assert got == want
        if _jump_applies(fam, checks, axis, step, count):
            start, _ = lattice._translate_ratios(fam, checks, axis, step, count)
            near = self._near_integer_start(fam, checks, axis, step)
            assert want - near <= start <= want + 1
            for _, region, (q, other) in calls:
                assert abs(lattice.mass_ratio_log2(fam, region, Bound(q, other))) <= lattice.MARGIN
                assert point_mass(fam, region) == q * point_mass(fam, other)
        else:
            assert len(calls) == linear_checks
        if want == count:
            with pytest.raises(ChainSearchError) as err:
                _first_translate(fam, checks, axis, step, count, "none", None)
            assert err.value.stats == {"candidates": count}
        else:
            found = _first_translate(fam, checks, axis, step, count, "none", None)
            assert found == [translated(r, axis, want * step) for r, _ in checks]

    def test_a_start_past_a_tie_steps_back(self):
        # mass((0, 0)) is exactly 2/3 of mass({0} x [0, 1]), but the float
        # log2 ratio lands above 0, so the predicted start is 1: only the
        # step down finds the tie at 0, and that tie is the one `mass_le` call
        fam = geometric_family(2)
        checks = [(Box(((0, 0), (0, 0))), Bound(Fraction(2, 3), Box(((0, 0), (0, 1)))))]
        start, ratios = lattice._translate_ratios(fam, checks, 0, 1, 1)
        assert start == 1 and 0 < sum(ratios[0]) <= lattice.MARGIN
        calls = []
        mass_le = lattice.mass_le
        with mock.patch.object(lattice, "mass_le", lambda *a: calls.append(a) or mass_le(*a)):
            assert first_translate_le(fam, checks, 0, 1, 1) == 0
        assert len(calls) == 1

    @staticmethod
    def _near_integer_start(fam, checks, axis, step) -> bool:
        rate = fam.axes[axis].rate * step
        for region, (q, other) in checks:
            m, b = point_mass(fam, region), q * point_mass(fam, other)
            if m and b:
                x = (math.log2(m.numerator) - math.log2(m.denominator)
                     - math.log2(b.numerator) + math.log2(b.denominator)) / rate
                if abs(x - round(x)) < 1e-6:
                    return True
        return False


def test_b_d2_cap_line_probes_at_most_once_per_search(monkeypatch, tmp_path):
    # B-d2 (1/2, 1/2) at the n_max cap: every average-good segment search
    # decides its probes from closed forms, and calls `mass_le` only on a
    # tie, at most once per search (119 of the 200 searches meet one)
    counts, active = [], [False]
    mass_le, find = lattice.mass_le, concat._first_translate

    def counting(family, region, bound):
        if active[0]:
            counts[-1] += 1
            assert abs(lattice.mass_ratio_log2(family, region, bound)) <= lattice.MARGIN
        return mass_le(family, region, bound)

    def search(*a):
        counts.append(0)
        active[0] = True
        try:
            return find(*a)
        finally:
            active[0] = False

    monkeypatch.setattr(lattice, "mass_le", counting)
    monkeypatch.setattr(concat, "mass_le", counting)
    monkeypatch.setattr(concat, "_first_translate", search)
    argv = "chain-b --d 2 --variant B-d2 --alpha 1/2,1/2 --n-max 200".split()
    assert cli.main([*argv, "--out", str(tmp_path)]) == 2  # budget-ratio-spread fails
    assert len(counts) == 200 and max(counts) <= 1


# the registered chains that the budget oracle is tried on one check at a
# time, by the names it first had for them
_BUDGET_CHAINS = {
    "B-d2-half": "B-d2-half-20",
    "B-d2-third": "B-d2-third-24",
    "B-d3": "B-d3-16",
    "B-general-d3": "B-general-d3-16",
    "B-general-d4": "B-general-d4-12",
    "FF-d3-geometric": "FF-d3-geometric-17",
    "FF-d3-symmetric": "FF-d3-symmetric-17",
    "FF-general-d4": "FF-general-d4-symmetric-8",
}


class TestBudgetOracle:
    @pytest.mark.parametrize("case", sorted(_BUDGET_CHAINS))
    def test_equals_resummed_budget(self, case):
        fam, cert = CHAIN_CASES[_BUDGET_CHAINS[case]].build()
        got = distortion_budget(cert, fam)
        want = resummed_budget(cert, fam, CHAIN_CASES[_BUDGET_CHAINS[case]].min_fit_n)
        assert len(got.rows) == len(want.rows) > 0
        for a, b in zip(got.rows, want.rows):
            assert a == b
        assert got.a_prime == want.a_prime
        assert got.ratio_spread == want.ratio_spread
        assert got.fitted == want.fitted
        assert got.total_points == want.total_points

    @pytest.mark.parametrize("case", ["B-d2-third", "B-general-d4", "FF-d3-symmetric"])
    def test_one_power_sum_per_stretch_and_row(self, case, monkeypatch):
        fam, cert = CHAIN_CASES[_BUDGET_CHAINS[case]].build()
        calls = []
        inner = fam.range_power_log2

        def counted(*args):
            calls.append(args)
            return inner(*args)

        monkeypatch.setattr(fam, "range_power_log2", counted)
        rep = distortion_budget(cert, fam)
        assert 0 < len(calls) <= len(walk_stretches(cert)) + len(rep.rows)

    @pytest.mark.parametrize("case", sorted(_BUDGET_CHAINS))
    def test_entry_scan_resumes_at_previous_row(self, case, monkeypatch):
        # rows from the first record's index on resume at the stretch of
        # the previous row's entry, so the scan passes each stretch about
        # once, not once per row; the full scan of the reference agrees
        fam, cert = CHAIN_CASES[_BUDGET_CHAINS[case]].build()
        calls = []

        def counted(stretch, box):
            calls.append(stretch)
            return _stretch_entry_t(stretch, box)

        monkeypatch.setattr(concat, "_stretch_entry_t", counted)
        distortion_budget(cert, fam)
        assert 0 < len(calls) <= len(walk_stretches(cert)) + 2 * len(cert.seq.indices())

    def test_cases_cover_short_stretches_and_final_cuts(self):
        # the budget check of tests/test_chains.py meets count-1 stretches
        # before the last, and last entries inside the final stretch, which
        # holds walk indices total - count .. total - 1
        short, final = set(), set()
        for case in CHAIN_CASES.values():
            fam, cert = case.build()
            stretches, rep = walk_stretches(cert), distortion_budget(cert, fam)
            if any(s.count == 1 for s in stretches[:-1]):
                short.add(case.kind)
            first = rep.total_points - stretches[-1].count
            if any(first <= r.entry_index < rep.total_points - 1 for r in rep.rows):
                final.add((case.kind, case.family))
        assert {"B-general", "FF-general"} <= short
        assert {("FF-d3", geometric_family), ("FF-d3", symmetric_geometric_family)} <= final

    def test_a_box_entered_at_the_start_has_no_row(self):
        # the plane table without the origin (the ledger's
        # plane-no-origin-table.json): the walk starts at Q(1)'s lower corner
        # (1, 1), which lies in Q(2) = [[1, 6], [1, 2]], so Q(2) is entered
        # at step 0 and n = 1 has no row
        fam = TableFamily({(i, j): Fraction(1 + (3 * i + 5 * j) % 7, 2 ** (i + j))
                           for i in range(9) for j in range(9) if (i, j) != (0, 0)})
        seq = build_sequence("B-d2", alphas=(2 * THIRD, THIRD), n_max=4)
        cert = build_chain("B-d2", fam, seq)
        assert walk_stretches(cert)[0].anchor == (1, 1)
        assert seq.box(2).intervals == ((1, 6), (1, 2))
        rep = distortion_budget(cert, fam)
        assert [(r.n, r.entry_index) for r in rep.rows] == [(2, 1), (3, 2)]
        assert rep == resummed_budget(cert, fam, min_fit_n=2)

