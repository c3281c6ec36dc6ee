import math
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from critreg.boxes import (
    BoxSequence,
    RADICAND_BITS_GUARD,
    build_sequence,
    inocent_constant,
    integer_root,
    minimal_round_constant,
    scaled_root,
    sequence_multiplicity,
    side_growth_bracket,
    vertical_subdivision,
)
from critreg.lattice import Box

from oracles import (
    b_d2_box,
    branching_counts,
    leaves,
    nodes,
    non_admissible_fraction,
    retention_constant_fractions,
    round_constant_fractions,
    sweep_multiplicity,
)

HALF = Fraction(1, 2)
THIRD = Fraction(1, 3)


class TestIntegerRoots:
    @given(st.integers(0, 10 ** 12), st.integers(1, 5))
    @settings(max_examples=100, deadline=None)
    def test_integer_root(self, x, q):
        r = integer_root(x, q)
        assert r ** q <= x < (r + 1) ** q

    @given(
        st.one_of(
            st.integers(0, 2 ** 4000),
            st.builds(lambda b: 2 ** b, st.integers(0, 4000)),
        ),
        st.one_of(st.integers(1, 7), st.integers(8, 1200)),
    )
    # the slowest roots of B-d2 at (1/1000, 999/1000) up to n_max 30 and 40
    @example(x=4 ** (999 * 13), q=1000)
    @example(x=4 ** (999 * 39), q=1000)
    @settings(max_examples=300, deadline=None)
    def test_integer_root_at_any_size(self, x, q):
        r = integer_root(x, q)
        assert r ** q <= x < (r + 1) ** q

    @given(st.one_of(st.integers(1, 2 ** 12), st.integers(1, 2 ** 600)), st.integers(2, 64),
           st.sampled_from((-1, 0, 1)))
    # x next to 2^53, where t = x >> low starts to drop bits of x
    @example(m=2, q=53, delta=-1)
    @example(m=2, q=53, delta=1)
    @example(m=208063, q=3, delta=1)  # m^3 just under 2^53
    @example(m=208064, q=3, delta=-1)  # m^3 just over 2^53
    # cube roots next to 2^32 and 2^33, of 96- to 100-bit x
    @example(m=2 ** 32 - 1, q=3, delta=1)
    @example(m=2 ** 32 + 1, q=3, delta=-1)
    @example(m=2 ** 33 - 1, q=3, delta=1)
    @example(m=2 ** 33, q=3, delta=-1)
    @example(m=2 ** 33 + 1, q=3, delta=-1)
    @settings(max_examples=300, deadline=None)
    def test_integer_root_next_to_perfect_powers(self, m, q, delta):
        x = m ** q + delta
        r = integer_root(x, q)
        assert r == (m - 1 if delta < 0 else m)
        assert r ** q <= x < (r + 1) ** q

    def test_integer_root_past_float_range(self):
        # x past 2^1024, where a float of x would overflow
        assert integer_root(3 ** 600, 2) == 3 ** 300
        assert integer_root(3 ** 600, 3) == 3 ** 200
        assert integer_root(3 ** 600 - 1, 3) == 3 ** 200 - 1
        assert integer_root(2 ** 1100, 5) == 2 ** 220

    @pytest.mark.parametrize("x", [4 ** 999, 3 ** 2000, 2 ** 1998 - 1],
                             ids=["4^999", "3^2000", "2^1998-1"])
    def test_integer_root_of_a_small_root_past_float_range(self, x):
        # the roots are 3, 9 and 3 of an x past 2^1024, of which the start
        # reads only the top 53 bits
        r = integer_root(x, 1000)
        assert r ** 1000 <= x < (r + 1) ** 1000

    def test_floor_power(self):
        assert scaled_root(1, 4, Fraction(3, 2)) == 8
        assert scaled_root(1, 4, Fraction(1, 2)) == 2
        assert scaled_root(1, 2, Fraction(5, 3)) == 3  # 2^(5/3) = 3.17...

    @given(st.integers(0, 2 ** 80), st.integers(1, 7), st.integers(-400, 400),
           st.integers(1, 60), st.booleans())
    @example(value=64, base=2, p=-3, q=1, ceil=True)  # an exact root: 64 / 8
    @example(value=7, base=4, p=-1, q=2, ceil=True)  # 7 / 2 rounds up to 4
    @settings(max_examples=300, deadline=None)
    def test_scaled_root_brackets_the_scaled_value(self, value, base, p, q, ceil):
        # with x = value * base^(p/q), r <= x < r + 1 for the floor and
        # r - 1 < x <= r for the ceiling, compared as q-th powers
        r = scaled_root(value, base, Fraction(p, q), ceil=ceil)
        g = math.gcd(p, q)
        p, q = p // g, q // g
        num, den = value ** q * base ** max(p, 0), base ** max(-p, 0)
        if ceil:
            assert (r - 1) ** q * den < num <= r ** q * den if num else r == 0
        else:
            assert r ** q * den <= num < (r + 1) ** q * den

    def test_scaled_root_refuses_a_radicand_past_the_guard(self):
        # value 1 and base 4 take 1 and 3 bits, so 4^(+-1/q) is bounded by q + 3
        assert scaled_root(1, 4, Fraction(1, RADICAND_BITS_GUARD - 3)) == 1
        for sign in (1, -1):
            with pytest.raises(ValueError, match="radicand past"):
                scaled_root(1, 4, Fraction(sign, RADICAND_BITS_GUARD - 2))


class TestSequences:
    def test_planar_first_two_boxes(self):
        s = build_sequence("B-d2", alphas=(HALF, HALF), n_max=4)
        assert s.box(1).intervals == ((1, 2), (1, 4))
        assert s.box(2).intervals == ((1, 4), (2, 4))

    def test_box_index_outside_the_sequence_raises(self):
        # an offset into the boxes below the start would read from the end
        s = build_sequence("B-d2", alphas=(HALF, HALF), n_max=10)
        assert s.indices() == range(1, 11)
        for n in (0, -9, 11):
            with pytest.raises(IndexError):
                s.box(n)

    def test_planar_multiplicity_is_four(self):
        s = build_sequence("B-d2", alphas=(HALF, HALF), n_max=20)
        assert sequence_multiplicity(s) == 4

    @pytest.mark.parametrize("a1, mult", [
        *((a1, 4) for a1 in ("1/2", "1/3", "2/3")),
        *((a1, 5) for a1 in ("1/4", "1/5", "1/6", "1/8", "1/10", "1/16", "1/32", "1/100",
                             "1/1000", "3/4", "9/10", "999/1000")),
    ])
    def test_planar_multiplicity_table(self, a1, mult):
        # B-d2 at (a1, 1 - a1), n_max 60; the same values hold at 20 and 200.
        # The bound d + 2 = 4 fails at every 5: known failing cells that
        # ROADMAP items 13 and 31 own, pinned as they are
        a = Fraction(a1)
        s = build_sequence("B-d2", alphas=(a, 1 - a), n_max=60)
        assert sequence_multiplicity(s) == mult

    def test_general_seed_and_touched_factors(self):
        s = build_sequence("B-general", alphas=(THIRD,) * 3, n_max=3)
        assert s.box(1).intervals == ((1, 64),) * 3
        # step 1 touches factors 1 and 2 only
        q1, q2 = s.box(1), s.box(2)
        changed = [k for k in range(3) if q1.intervals[k] != q2.intervals[k]]
        assert changed == [0, 1]
        assert s.touched(1) == (0, 1)

    def test_general_multiplicity_bound(self):
        s = build_sequence("B-general", alphas=(THIRD,) * 3, n_max=12)
        assert sequence_multiplicity(s) <= 5
        s4 = build_sequence("B-general", alphas=(Fraction(1, 4),) * 4, n_max=12)
        assert sequence_multiplicity(s4) <= 6

    def test_general_uneven_exponents(self):
        s = build_sequence(
            "B-general", alphas=(HALF, Fraction(1, 4), Fraction(1, 4)), n_max=12
        )
        assert sequence_multiplicity(s) <= 5

    def test_exponent_sum_enforced(self):
        with pytest.raises(ValueError):
            build_sequence("B-d2", alphas=(HALF, Fraction(1, 3)), n_max=4)

    def test_planar_takes_two_exponents(self):
        with pytest.raises(ValueError, match="B-d2 takes two exponents"):
            build_sequence("B-d2", alphas=(THIRD,) * 3, n_max=4)

    def test_ff_seed(self):
        s = build_sequence("FF", d=3, n_max=2)
        assert s.box(0).intervals == ((1, 257), (1, 257))

    def test_ff_multiplicity(self):
        for d, bound in ((3, 5), (4, 6)):
            s = build_sequence("FF", d=d, n_max=16)
            assert sequence_multiplicity(s) <= bound

    def test_single_box_multiplicity(self):
        assert sequence_multiplicity(BoxSequence("FF", 0, (Box(((1, 5), (2, 9))),), d=3)) == 1

    @pytest.mark.parametrize("kind,kws,n_max", [
        ("B-d2", [{"alphas": (Fraction(p, q), 1 - Fraction(p, q))} for p, q in (
            (1, 2), (1, 3), (2, 3), (1, 4), (3, 4), (1, 5), (4, 7), (2, 5),
            (1, 8), (7, 8))], 60),
        # its build takes seconds past n = 30: the roots of 4^(999 m / 1000)
        ("B-d2", [{"alphas": (Fraction(1, 1000), Fraction(999, 1000))}], 30),
        ("B-general", [{"alphas": a} for a in (
            (THIRD,) * 3, (HALF, THIRD, Fraction(1, 6)), (HALF, Fraction(1, 4), Fraction(1, 4)),
            (Fraction(1, 4),) * 4, (HALF, Fraction(1, 6), Fraction(1, 6), Fraction(1, 6)),
            (Fraction(1, 5),) * 5, (Fraction(1, 6),) * 6)], 40),
        ("FF", [{"d": d} for d in (3, 4, 5, 6)], 40),
    ], ids=["B-d2", "B-d2-1/1000", "B-general", "FF"])
    def test_multiplicity_matches_corner_sweep(self, kind, kws, n_max):
        # every prefix of each sequence: the run form against the sweep,
        # which holds for any list of boxes
        for kw in kws:
            s = build_sequence(kind, n_max=n_max, **kw)
            for k in range(1, len(s.boxes) + 1):
                prefix = BoxSequence(s.kind, s.start_index, s.boxes[:k], s.d, s.alphas)
                assert sequence_multiplicity(prefix) == sweep_multiplicity(prefix.boxes), (kw, k)

    @pytest.mark.parametrize("second", [((0, 6), (3, 9)), ((1, 4), (3, 9)), ((1, 5), (3, 8))],
                             ids=["lower-falls", "upper-falls", "upper-falls-on-axis-2"])
    def test_falling_endpoint_raises(self, second):
        with pytest.raises(ValueError, match="falls from Q\\(4\\) to Q\\(5\\)"):
            BoxSequence("B-d2", 4, (Box(((1, 5), (2, 9))), Box(second)), d=2)

    def test_mixed_dimensions_raise(self):
        with pytest.raises(ValueError):
            BoxSequence("B-d2", 1, (Box(((1, 5), (2, 9))), Box(((1, 5),))), d=2)

    def test_consecutive_boxes_overlap(self):
        for s in (
            build_sequence("B-d2", alphas=(HALF, HALF), n_max=15),
            build_sequence("B-general", alphas=(THIRD,) * 3, n_max=12),
            build_sequence("FF", d=3, n_max=16),
        ):
            for n in list(s.indices())[:-1]:
                assert s.box(n).intersect(s.box(n + 1)) is not None

    @pytest.mark.parametrize("kind", ["B-d2", "B-general", "FF"])
    def test_endpoints_nondecreasing(self, kind):
        # every construction only raises endpoints, so per axis both
        # endpoints of Q(n) are nondecreasing in n (`BoxSequence` raises
        # otherwise); the cover multiplicity's run form and the entry-time
        # scan of `concat.distortion_budget` rest on this
        grid = {
            "B-d2": [{"alphas": a} for a in (
                (HALF, HALF), (THIRD, 2 * THIRD), (2 * THIRD, THIRD),
                (Fraction(1, 4), Fraction(3, 4)), (Fraction(4, 7), Fraction(3, 7)))],
            "B-general": [{"alphas": a} for a in (
                (THIRD,) * 3, (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)),
                (Fraction(1, 4),) * 4, (Fraction(1, 5),) * 5)],
            "FF": [{"d": d} for d in (3, 4, 5, 6)],
        }[kind]
        for kw in grid:
            for n_max in (1, 2, 5, 12, 40, 200):
                s = build_sequence(kind, n_max=n_max, **kw)
                boxes = [s.box(n) for n in s.indices()]
                for a, b in zip(boxes, boxes[1:]):
                    for (lo_a, hi_a), (lo_b, hi_b) in zip(a.intervals, b.intervals):
                        assert lo_a <= lo_b and hi_a <= hi_b, (kw, n_max)

    def test_ff_side_growth_bracket(self):
        for d in (3, 4):
            s = build_sequence("FF", d=d, n_max=20)
            c = side_growth_bracket(s)
            assert math.isfinite(c) and c >= 1

    def test_inocent_positive(self):
        s = build_sequence("B-general", alphas=(THIRD,) * 3, n_max=12)
        assert inocent_constant(s) > 0


def _is_round(box, a):
    """The four inequality families of A-roundness, from the definition:
    on axis i, each endpoint and the side lie within a factor a of p = s^i,
    s the first side; so the lower endpoints are positive."""
    s = box.side(0)
    for i, (x, y) in enumerate(box.intervals, 1):
        p, side = s ** i, y - x + 1
        if x <= 0 or p > a * x or y > a * p or p > a * side or side > a * p:
            return False
    return True


class TestRoundness:
    def test_worked_example(self):
        box = Box(((2, 4), (4, 16)))
        assert minimal_round_constant(box) == Fraction(9, 4)
        assert _is_round(box, Fraction(9, 4))
        assert not _is_round(box, Fraction(2))

    def test_degenerate_unit_box(self):
        assert minimal_round_constant(Box(((1, 1), (1, 1), (1, 1)))) == 1
        assert _is_round(Box(((1, 1), (1, 1))), Fraction(1))

    def test_nonpositive_coordinates_never_round(self):
        for box in (Box(((0, 3), (1, 9))), Box(((1, 3), (-2, 9))), Box(((-5, -1),))):
            with pytest.raises(ValueError, match=r"needs lower endpoints >= 1, got \("):
                minimal_round_constant(box)

    def test_ff_roundness_uniformly_bounded(self):
        # the per-box minimal constant stabilizes: no growth along n
        s = build_sequence("FF", d=4, n_max=16)
        vals = [minimal_round_constant(b) for b in s.boxes]
        assert max(vals) <= 2 * min(vals)

    @pytest.mark.parametrize("d", [3, 4, 5, 6])
    def test_ff_first_box_roundness_is_closed_form(self, d):
        # Q(0) = [1, 1 + 4^(d+1)]^(d-1), so every FF sequence has a roundness
        # constant at least (1 + 4^(d+1))^(d-1): the orbit construction's
        # concatenation level needs a proportion below 1/a^2 there
        seq = build_sequence("FF", d=d, n_max=20)
        side = 1 + 4 ** (d + 1)
        assert seq.box(0).intervals == ((1, side),) * (d - 1)
        assert minimal_round_constant(seq.box(0)) == side ** (d - 1)
        # lower endpoints start at 1 and only grow, so no box lacks a constant
        assert all(lo >= 1 for box in seq.boxes for lo, _ in box.intervals)

    @given(
        st.integers(1, 6), st.integers(0, 8), st.integers(1, 40), st.integers(0, 30)
    )
    @settings(max_examples=60, deadline=None)
    def test_minimal_constant_is_binding(self, x1, w1, x2, w2):
        box = Box(((x1, x1 + w1), (x2, x2 + w2)))
        a = minimal_round_constant(box)
        assert _is_round(box, a)
        if a > 1:
            assert not _is_round(box, a * Fraction(99, 100))


EXPONENT_PAIRS = st.integers(2, 1000).flatmap(
    lambda q: st.integers(1, q - 1).map(lambda p: (Fraction(p, q), 1 - Fraction(p, q))))
# lower endpoints at or below 0 (refused: no roundness constant), and small
# and large integers
LOWER = st.one_of(st.integers(-2, 40), st.integers(1, 10 ** 9))
BOXES = st.lists(st.tuples(LOWER, st.integers(0, 60) | st.integers(0, 10 ** 9)),
                 min_size=1, max_size=4).map(lambda ivs: Box(tuple((x, x + w) for x, w in ivs)))


@st.composite
def raised_sequences(draw):
    """A B sequence of random boxes whose endpoints never fall."""
    dim = draw(st.integers(2, 4))
    box = draw(st.lists(st.tuples(st.integers(1, 30), st.integers(0, 30)),
                        min_size=dim, max_size=dim))
    ivs = [(x, x + w) for x, w in box]
    boxes = [Box(tuple(ivs))]
    for _ in range(draw(st.integers(0, 8))):
        ups = draw(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)),
                            min_size=dim, max_size=dim))
        ivs = [(x + a, max(y + b, x + a)) for (x, y), (a, b) in zip(ivs, ups)]
        boxes.append(Box(tuple(ivs)))
    return BoxSequence("B-d2" if dim == 2 else "B-general", 1, tuple(boxes), d=dim)


class TestIntegerConstants:
    """The builders' and constants' integer forms against their first,
    Fraction forms in tests/oracles.py."""

    @given(EXPONENT_PAIRS, st.integers(1, 40))
    @example(alphas=(Fraction(1, 1000), Fraction(999, 1000)), n_max=40)
    @example(alphas=(Fraction(999, 1000), Fraction(1, 1000)), n_max=40)
    @example(alphas=(HALF, HALF), n_max=1)
    @settings(max_examples=40, deadline=None)
    def test_b_d2_endpoints_match_per_box_powers(self, alphas, n_max):
        seq = build_sequence("B-d2", alphas=alphas, n_max=n_max)
        assert seq.boxes == tuple(b_d2_box(alphas, n) for n in seq.indices())

    @given(BOXES)
    @example(Box(((0, 3), (1, 9))))  # x <= 0: refused
    @example(Box(((1, 2), (1, 16))))  # p/x, y/p and side/p tie at 4
    @example(Box(((1, 1), (1, 1), (1, 1))))  # every bound is 1
    @settings(max_examples=300, deadline=None)
    def test_round_constant_matches_fraction_form(self, box):
        # the oracle takes all four bounds, side/p among them
        if min(x for x, _ in box.intervals) <= 0:
            with pytest.raises(ValueError, match="needs lower endpoints >= 1"):
                minimal_round_constant(box)
        else:
            assert minimal_round_constant(box) == round_constant_fractions(box)

    @pytest.mark.parametrize("box", [Box(((1, 1), (Fraction(1, 2), 100))),
                                     Box(((Fraction(3), 4),)), Box(((0, 3), (1, 2.5)))])
    def test_round_constant_refuses_endpoints_that_are_not_integers(self, box):
        # at the lower endpoint 1/2, side/p = 201/2 would be the largest bound
        with pytest.raises(ValueError, match="integer endpoints"):
            minimal_round_constant(box)

    @given(st.one_of(
        raised_sequences(),
        st.builds(lambda a, n: build_sequence("B-d2", alphas=a, n_max=n),
                  EXPONENT_PAIRS, st.integers(1, 20)),
        st.builds(lambda d, n: build_sequence("B-general", alphas=(Fraction(1, d),) * d,
                                              n_max=n), st.integers(3, 5), st.integers(1, 20)),
    ))
    @settings(max_examples=150, deadline=None)
    def test_retention_constant_matches_fraction_form(self, seq):
        want = retention_constant_fractions(seq)
        if want is None:
            with pytest.raises(ValueError, match="too short"):
                inocent_constant(seq)
        else:
            assert inocent_constant(seq) == want


class TestSubdivision:
    def test_worked_example(self):
        box = Box(((1, 3), (1, 9), (1, 27)))
        t = vertical_subdivision(box, Fraction(27))
        assert t.piece_lengths == (8, 2)
        assert branching_counts(t) == (4, 4)
        # depth-1 pieces: 8, 8, 8, 3 along the last axis
        depth1 = [n.box.side(2) for n in nodes(t) if n.depth == 1]
        assert depth1 == [8, 8, 8, 3]
        # and a full depth-1 piece of 8 levels splits into 2, 2, 2, 2
        depth2 = [n.box.side(2) for n in nodes(t) if n.depth == 2 and n.chain[0] == 1]
        assert depth2 == [2, 2, 2, 2]

    def test_leaves_partition_points(self):
        box = Box(((1, 3), (1, 9), (1, 27)))
        t = vertical_subdivision(box, Fraction(27))
        assert sum(n.box.npoints() for n in leaves(t)) == box.npoints()

    def test_levels_and_admissibility(self):
        box = Box(((1, 2), (1, 4), (1, 8)))
        t = vertical_subdivision(box, minimal_round_constant(box))
        # pieces of length 3 then 1: trailing pieces poison admissibility
        levels = [t.level(i) for i in range(1, 9)]
        for i, lv in enumerate(levels, 1):
            chain_box = t.chain_box(lv.chain)
            assert chain_box.contains((1, 1, i))
        assert any(lv.admissible for lv in levels)
        assert any(not lv.admissible for lv in levels)
        frac = non_admissible_fraction(t)
        assert 0 < frac < 1

    def test_out_of_range_levels_raise(self):
        box = Box(((1, 2), (1, 4), (1, 8)))
        t = vertical_subdivision(box, minimal_round_constant(box))
        for i in (0, -3, 9):
            with pytest.raises(ValueError):
                t.level(i)
        with pytest.raises(ValueError):
            t.chain_box((4,))  # depth 1 has pieces 1..3 only

    @given(
        st.integers(2, 4),
        st.lists(st.tuples(st.integers(1, 6), st.integers(0, 12)), min_size=3, max_size=3),
        st.integers(1, 30),
        st.integers(0, 80),
    )
    @settings(max_examples=150, deadline=None)
    def test_levels_match_leaf_oracle(self, dim, heads, z_lo, z_width):
        # the first dim-1 axes give the piece lengths y - 1, so y >= 2; upper
        # endpoints ascending make deeper pieces shorter, as in round boxes
        ivs = sorted(((x, max(x + w, 2)) for x, w in heads[: dim - 1]), key=lambda iv: iv[1])
        box = Box(tuple(ivs) + ((z_lo, z_lo + z_width),))
        t = vertical_subdivision(box, minimal_round_constant(box))
        leaf_nodes = list(leaves(t))
        assert sum(n.box.side(dim - 1) for n in leaf_nodes) == box.side(dim - 1)
        bad = 0
        for i in range(z_lo, z_lo + z_width + 1):
            (leaf,) = [n for n in leaf_nodes if n.box.intervals[-1][0] <= i <= n.box.intervals[-1][1]]
            lv = t.level(i)
            assert lv.chain == leaf.chain
            assert t.chain_box(lv.chain) == leaf.box
            assert lv.admissible == (leaf.depth == len(t.piece_lengths) and not leaf.trailing)
            bad += not lv.admissible
        assert non_admissible_fraction(t) == Fraction(bad, box.side(dim - 1))

    def test_ff_non_admissible_fractions(self):
        # the share of section levels lying in trailing or shallow leaves
        s = build_sequence("FF", d=3, n_max=5)
        expect = {2: Fraction(1016, 4097), 4: Fraction(3872, 65537), 5: Fraction(12356, 61697)}
        for n, frac in expect.items():
            box = s.box(n)
            t = vertical_subdivision(box, minimal_round_constant(box))
            assert non_admissible_fraction(t) == frac

    def test_subdivision_memory_does_not_grow_with_section(self):
        box = build_sequence("FF", d=3, n_max=4).box(4)  # 65537 levels
        a = minimal_round_constant(box)
        tracemalloc.start()
        try:
            vertical_subdivision(box, a)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_single_level_axis_flagged(self):
        box = Box(((2, 4), (4, 17), (9, 9)))
        a = minimal_round_constant(box)
        t = vertical_subdivision(box, a)
        lv = t.level(9)
        assert not lv.admissible  # the only piece is the trailing one

    def test_requires_roundness(self):
        with pytest.raises(ValueError, match=r"^box is not 1-round \(minimal 8\)$"):
            vertical_subdivision(Box(((1, 2), (1, 4), (1, 8))), Fraction(1))
        with pytest.raises(ValueError, match=r"^the round constant needs lower endpoints >= 1"):
            vertical_subdivision(Box(((0, 2), (1, 4))), Fraction(9))
        with pytest.raises(ValueError, match="^roundness constant must be >= 1$"):
            vertical_subdivision(Box(((1, 2), (1, 4))), Fraction(1, 2))

    def test_branching_counts_within_bounds(self):
        s = build_sequence("FF", d=4, n_max=10)
        box = s.box(6)
        a = minimal_round_constant(box)
        t = vertical_subdivision(box, a)
        lo = (1 + box.side(0) - 1) / a ** 2
        hi = 1 + a ** 2 * box.side(0)
        for m in branching_counts(t):
            assert lo <= m <= hi
