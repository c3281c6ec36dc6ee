import random
from fractions import Fraction

import pytest

from critreg.boxes import build_sequence, minimal_round_constant
from critreg.concat import (
    ChainSearchError,
    _full_segment,
    black_box_reach,
    brute_reach,
    build_chain,
    distortion_budget,
    chain_start_stage,
    find_fully_good_segment,
    find_good_segment_d2,
    flag_goodness,
    goodness_ratio,
    lambda_prime,
    lambda_two,
    reach_vertical_section,
    segment_flag_boxes,
    stride_cascade_lambda,
    verify_chain,
)
from critreg.lattice import (
    Box,
    TableFamily,
    geometric_family,
    symmetric_geometric_family,
    uniform_box_family,
)

HALF = Fraction(1, 2)
THIRD = Fraction(1, 3)


class TestGoodness:
    def test_constant_family_ratio_one(self):
        box = Box(((1, 4), (1, 6)))
        fam = uniform_box_family(box)
        for region in (Box(((2, 3), (1, 6))), Box(((1, 1), (2, 2)))):
            rep = goodness_ratio(fam, region, box)
            assert rep.mean_ratio == 1

    def test_heaviest_cell_of_two_by_two(self):
        box = Box(((0, 1), (0, 1)))
        fam = geometric_family(2)
        rep = goodness_ratio(fam, Box(((0, 0), (0, 0))), box)
        lmax = fam.weight((0, 0))
        total = fam.box_mass(box)
        assert rep.mean_ratio == 4 * lmax / total
        assert rep.copies == 4 and rep.tiles_exactly
        assert rep.copy_ratio == rep.mean_ratio

    def test_copy_vs_mean_on_nontiling_region(self):
        box = Box(((0, 4), (0, 4)))
        fam = geometric_family(2)
        rep = goodness_ratio(fam, Box(((0, 1), (0, 2))), box)
        assert not rep.tiles_exactly
        assert rep.copy_ratio != rep.mean_ratio

    def test_segment_region(self):
        box = Box(((0, 3), (0, 3)))
        fam = geometric_family(2)
        seg = _full_segment(box, 0, (0, 1))
        rep = goodness_ratio(fam, seg, box)
        assert rep.mean_ratio > 0

    def test_containment_enforced(self):
        fam = geometric_family(2)
        with pytest.raises(ValueError):
            goodness_ratio(fam, Box(((0, 9), (0, 0))), Box(((0, 3), (0, 3))))

    def test_fully_good_chain_ratio_is_max(self):
        # the flag's goodness level is the worst member ratio
        box = Box(((1, 4), (1, 4), (1, 4)))
        fam = geometric_family(3)
        seg = _full_segment(box, 0, (1, 2, 3))
        mu = flag_goodness(fam, box, seg)
        members = segment_flag_boxes(box, seg)
        ratios = [goodness_ratio(fam, m, box).mean_ratio for m in members]
        assert mu == max(ratios)


def _oracle_masses(fam, seg, bound):
    """Exact (segment mass, bound value) by summing point weights."""
    mass = sum((fam.weight(p) for p in seg.points()), Fraction(0))
    other = sum((fam.weight(p) for p in bound.region.points()), Fraction(0))
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
        for p in box.points():
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

    def test_lambda_two_feasibility(self):
        assert lambda_two(HALF, 1, Fraction(1), 4) >= 1
        with pytest.raises(ValueError):
            lambda_two(HALF, 1, Fraction(100), 5)


class TestBlackBox:
    def test_uniform_everything_reachable(self):
        box = Box(((1, 4), (1, 4), (1, 4)))
        fam = uniform_box_family(box)
        seed = _full_segment(box, 0, (1, 1, 1))
        res = black_box_reach(fam, box, seed, kappa=HALF)
        assert res.fraction == 1 and res.meets_target

    def test_concentrated_plane_oracle(self):
        box = Box(((1, 6), (1, 6), (1, 6)))
        w = {
            p: Fraction(10 ** 6) if p[2] == 3 else Fraction(1) for p in box.points()
        }
        fam = TableFamily(w)
        seed = _full_segment(box, 0, (1, 1, 1))
        res = black_box_reach(fam, box, seed, kappa=Fraction(1, 10), lam=Fraction(3))
        oracle = brute_reach(fam, box, seed, Fraction(3), 2)
        assert oracle == res.reachable
        # chains never route through the over-heavy in-plane segments
        for chain in res.chains.values():
            for s in chain:
                assert not (s.axis != 2 and s.anchor[2] == 3)

    def test_random_family_oracle_equivalence(self):
        rng = random.Random(3)
        for _ in range(8):
            dims = tuple(rng.randint(2, 6) for _ in range(3))
            box = Box(tuple((1, s) for s in dims))
            fam = TableFamily({p: Fraction(rng.randint(1, 40)) for p in box.points()})
            seed = _full_segment(
                box, rng.randrange(3), tuple(rng.randint(1, s) for s in dims)
            )
            res = black_box_reach(fam, box, seed, kappa=HALF)
            assert brute_reach(fam, box, seed, res.lam, 2) == res.reachable

    def test_flag_goodness_precondition(self):
        box = Box(((1, 4), (1, 4), (1, 4)))
        fam = geometric_family(3)
        seed = _full_segment(box, 0, (1, 1, 1))  # heavy corner flag
        with pytest.raises(ValueError):
            black_box_reach(fam, box, seed, kappa=HALF, mu=Fraction(1))

    def test_chains_start_on_seed_and_link_up(self):
        box = Box(((1, 5), (1, 4), (1, 3)))
        fam = uniform_box_family(box)
        seed = _full_segment(box, 1, (2, 1, 2))
        res = black_box_reach(fam, box, seed, kappa=HALF)
        for p, chain in res.chains.items():
            assert len(chain) <= 2
            assert any(q in set(seed.points()) for q in chain[0].points())
            for a, b in zip(chain, chain[1:]):
                assert set(a.points()) & set(b.points())
            assert p in set(chain[-1].points())


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
        box_mean = fam.box_mass(box) / box.npoints()

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
    assert cert.all_flags_ok
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
        rep = distortion_budget(cert, fam, min_fit_n=4)
        assert rep.ratio_spread < 2.0

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
            total = fam.box_mass(box)
            bound = lam * total / box.side(m2)
            good = sum(
                1
                for v in range(box.intervals[m2][0], box.intervals[m2][1] + 1)
                if fam.box_mass(box.fix_axis(m2, v)) <= bound
            )
            assert Fraction(good, box.side(m2)) > 1 - 1 / lam


class TestFullyGoodSearch:
    def test_constant_family_first_segment(self):
        box = Box(((1, 4), (1, 4), (1, 4)))
        fam = uniform_box_family(box)
        seg, mu = find_fully_good_segment(fam, box, 0, Fraction(2))
        assert seg.anchor == (1, 1, 1) and mu == 1

    def test_geometric_avoids_heavy_corner(self):
        box = Box(((1, 32), (1, 32), (1, 32)))
        fam = geometric_family(3)
        seg, mu = find_fully_good_segment(fam, box, 0, Fraction(7))
        assert mu <= 7
        assert seg.anchor[1] > 1 or seg.anchor[2] > 1

    def test_averaging_guarantees_existence_at_one(self):
        # selecting the lightest slice per level always yields a fully
        # 1-good flag, even against an adversarial weight spike
        box = Box(((1, 2), (1, 2), (1, 2)))
        w = {p: Fraction(1) for p in box.points()}
        w[(1, 1, 1)] = Fraction(10 ** 9)
        fam = TableFamily(w)
        seg, mu = find_fully_good_segment(fam, box, 0, Fraction(1))
        assert mu <= 1

    def test_visit_cap_raises_search_error(self):
        box = Box(((1, 8), (1, 8), (1, 8)))
        fam = geometric_family(3)
        with pytest.raises(ChainSearchError):
            find_fully_good_segment(fam, box, 0, Fraction(2), visit_cap=1)
