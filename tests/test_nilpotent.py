import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from critreg.lattice import AxisWeight
from critreg.nilpotent import (
    UnipotentMatrix,
    Word,
    center_and_commutators,
    conjugacy_distortion_check,
    full_group_model,
    parse_word,
    realize,
    slope_growth_scan,
    translation_model,
)

F21 = UnipotentMatrix.generator(3, 2, 1)
F31 = UnipotentMatrix.generator(3, 3, 1)
F32 = UnipotentMatrix.generator(3, 3, 2)


class TestMatrices:
    def test_shift_action(self):
        assert F21.act((4, 7)) == (5, 7)

    def test_shear_action(self):
        assert F32.act((4, 7)) == (4, 11)

    def test_identity_action(self):
        assert UnipotentMatrix.identity(3).act((3, -2)) == (3, -2)

    def test_inverse(self):
        w = F21 * F32 * F31.inverse() * F32
        assert w * w.inverse() == UnipotentMatrix.identity(3)

    def test_power(self):
        assert F21.power(3).act((0, 0)) == (3, 0)
        assert F21.power(-2).act((0, 0)) == (-2, 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            UnipotentMatrix(((1, 1), (0, 1)))  # upper entry
        with pytest.raises(ValueError):
            UnipotentMatrix(((2, 0), (0, 1)))  # diagonal


class TestCommutators:
    def test_center_of_rank_three(self):
        rep = center_and_commutators(2)
        assert rep.center == F31
        assert rep.center_commutes_with_all
        assert rep.table[((3, 1), (2, 1))] and rep.table[((3, 1), (3, 2))]

    def test_noncommuting_pair_differs_by_center(self):
        assert not F21.commutes_with(F32)
        assert F21.act(F32.act((5, 5))) == (6, 10)
        assert F32.act(F21.act((5, 5))) == (6, 11)
        comm = F21.inverse() * F32.inverse() * F21 * F32
        assert comm in (F31, F31.inverse())

    def test_abelian_rank_two(self):
        rep = center_and_commutators(1)
        assert all(rep.table.values())


class TestWords:
    def test_parse(self):
        w = parse_word("f(2,1) f(3,2)^-1 f(3,1)", 2)
        assert w.letters == ((2, 1, 1), (3, 2, -1), (3, 1, 1))

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_word("f(2,1) nonsense", 2)
        with pytest.raises(ValueError):
            parse_word("f(5,1)", 2)
        with pytest.raises(ValueError):
            Word(((2, 2, 1),), 3)  # letters must lie below the diagonal

    def test_left_to_right_composition(self):
        w = parse_word("f(2,1) f(3,2)", 2)
        # f(2,1) first: (0,0) -> (1,0), then f(3,2): (1,0) -> (1,1)
        assert w.product().act((0, 0)) == (1, 1)

    def test_prefixes(self):
        w = parse_word("f(2,1) f(2,1) f(3,2)", 2)
        assert len(w.prefixes()) == 4
        assert w.prefixes()[2].act((0, 0)) == (2, 0)


class TestPacking:
    def test_left_endpoint_examples(self):
        pk = full_group_model(2)
        assert pk.left((0, 0)) == Fraction(4, 9)
        assert pk.length((0, 0)) == Fraction(1, 9)

    def test_lexicographic_order_matches_endpoints(self):
        pk = full_group_model(2)
        idx = [(-2, 1), (-1, -3), (-1, 2), (0, 0), (0, 1), (2, -2)]
        lefts = [pk.left(v) for v in idx]
        assert lefts == sorted(lefts)
        for v, w in zip(idx, idx[1:]):
            assert (v < w) == (pk.left(v) < pk.left(w))

    def test_intervals_disjoint_and_ordered(self):
        pk = full_group_model(2)
        idx = sorted([(-1, 0), (-1, 1), (0, -1), (0, 0), (0, 1), (1, 0)])
        for v, w in zip(idx, idx[1:]):
            assert pk.interval(v)[1] <= pk.interval(w)[0]

    def test_block_length_is_fiber_mass(self):
        pk = full_group_model(3)
        head = (1, -2)
        expected = pk.family.axes[0].weight(1) * pk.family.axes[1].weight(-2)
        assert pk.block_length(head) == expected


class TestRealization:
    def test_slope_example(self):
        pk = full_group_model(2)
        r = realize(pk, F21)
        assert r.slope((0, 0)) == Fraction(1, 2)

    def test_identity_realization(self):
        pk = full_group_model(2)
        r = realize(pk, UnipotentMatrix.identity(3))
        for v in ((0, 0), (2, -1), (-3, 3)):
            assert r.slope(v) == 1

    def test_maps_intervals_exactly(self):
        pk = full_group_model(2)
        for f in (F21, F32, F31, F21 * F32):
            r = realize(pk, f)
            for v in ((0, 0), (1, 2), (-2, 1), (3, -3)):
                assert r.maps_interval_exactly(v)

    def test_homomorphism_on_random_words(self):
        pk = full_group_model(2)
        rng = random.Random(11)
        gens = [F21, F31, F32, F21.inverse(), F31.inverse(), F32.inverse()]
        for _ in range(1000):
            a = rng.choice(gens) * rng.choice(gens)
            b = rng.choice(gens) * rng.choice(gens)
            ra, rb, rab = realize(pk, a), realize(pk, b), realize(pk, a * b)
            for _ in range(3):
                v = (rng.randint(-4, 4), rng.randint(-4, 4))
                assert ra.slope(b.act(v)) * rb.slope(v) == rab.slope(v)

    def test_center_commutes_pointwise(self):
        pk = full_group_model(2)
        g = realize(pk, F31)
        for f in (F21, F32):
            rf = realize(pk, f)
            fg = rf.compose(g)
            gf = g.compose(rf)
            for v in ((0, 0), (1, -1), (-2, 3)):
                assert fg.slope(v) == gf.slope(v)
                assert fg.image_index(v) == gf.image_index(v)


class TestOrbitStructure:
    def test_orbit_is_first_coordinates(self):
        # rank-4 group acting on Z^3: the subgroup fixing the last row and
        # column moves exactly the first two coordinates
        sub = [
            UnipotentMatrix.generator(4, i, j) for i, j in ((2, 1), (3, 1), (3, 2))
        ]
        seen = set()
        frontier = {(0, 0, 0)}
        for _ in range(4):
            new = set()
            for v in frontier:
                for m in sub:
                    new.add(m.act(v))
                    new.add(m.inverse().act(v))
            frontier = new - seen
            seen |= new
        assert all(v[2] == 0 for v in seen)
        assert len({v[:2] for v in seen}) > 1

    def test_stabilizer_fixes_index(self):
        # elements whose first column matches the identity fix the origin
        m = UnipotentMatrix.generator(4, 3, 2) * UnipotentMatrix.generator(4, 4, 3)
        assert m.rows[1][0] == m.rows[2][0] == m.rows[3][0] == 0
        assert m.act((0, 0, 0)) == (0, 0, 0)


class TestDistortionIdentity:
    def test_translation_model_zero_residual(self):
        pk = translation_model(2)
        g = UnipotentMatrix.generator(4, 4, 1)
        word = Word(((2, 1, 1), (3, 1, -1), (4, 1, 1), (2, 1, 1)), 4)
        rep = conjugacy_distortion_check(pk, word, g, 3, [(0, 0, 0), (1, 2, -1)])
        assert rep.all_zero
        assert len(rep.m_values) == 4
        assert rep.m_values == tuple(sorted(rep.m_values))

    def test_ff_model_zero_residual(self):
        pk = full_group_model(3)
        g = UnipotentMatrix.generator(4, 4, 1)
        word = parse_word("f(2,1) f(3,2) f(4,3)^-1 f(3,1)", 3)
        rep = conjugacy_distortion_check(pk, word, g, 2, [(0, 0, 0), (-1, 2, 0)])
        assert rep.all_zero

    def test_noncommuting_letter_rejected(self):
        pk = full_group_model(3)
        g = UnipotentMatrix.generator(4, 3, 2)  # commutes with f(3,1), not f(2,1)
        for text in (
            "f(2,1)",
            "f(2,1)^-1",  # only the inverse of the offending generator
            "f(3,1) f(3,1)^-1 f(3,1) f(2,1)",  # after a repeated commuting letter
        ):
            with pytest.raises(ValueError, match="does not commute"):
                conjugacy_distortion_check(pk, parse_word(text, 3), g, 1, [(0, 0, 0)])


class _InverseSquareAxis(AxisWeight):
    def contains(self, i):
        return True

    def weight(self, i):
        return Fraction(1, 1 + i * i)


class TestSlopeGrowth:
    def test_geometric_fiber_exponential(self):
        rep = slope_growth_scan(full_group_model(2), 8)
        assert rep.max_slopes == tuple(Fraction(2) ** k for k in range(1, 9))
        assert rep.classification == "exponential"

    def test_constant_fiber_bounded(self):
        from critreg.lattice import UniformAxis

        rep = slope_growth_scan(UniformAxis(-50, 50, Fraction(1, 101)), 5, window=20)
        assert rep.classification == "bounded"
        assert all(s == 1 for s in rep.max_slopes)

    def test_inverse_square_quadratic(self):
        rep = slope_growth_scan(_InverseSquareAxis(), 40)
        assert rep.max_slopes[-1] == 1 + 40 * 40
        assert rep.classification == "polynomial"
        assert 1.7 < rep.fit < 2.3


# ---------------------------------------------------------------------------
# the trusted action code against naive validated products
# ---------------------------------------------------------------------------


def _naive_mul(a, b):
    n = a.size
    return UnipotentMatrix(tuple(
        tuple(sum(a.rows[i][k] * b.rows[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    ))


def _naive_power(m, k):
    base = m if k >= 0 else m.inverse()
    out = UnipotentMatrix.identity(m.size)
    for _ in range(abs(k)):
        out = _naive_mul(out, base)
    return out


def _naive_act(m, v):
    w = (1, *v)
    return tuple(sum(m.rows[i][k] * w[k] for k in range(m.size)) for i in range(1, m.size))


def _naive_prefixes(word):
    """h_0 = id and h_t = f_t^e * h_(t-1), each letter a validated matrix."""
    out = [UnipotentMatrix.identity(word.size)]
    for i, j, e in word.letters:
        rows = [[int(a == b) for b in range(word.size)] for a in range(word.size)]
        rows[i - 1][j - 1] = e
        out.append(_naive_mul(UnipotentMatrix(tuple(map(tuple, rows))), out[-1]))
    return out


def _is_valid(m):
    return UnipotentMatrix(m.rows) == m


@st.composite
def _matrices(draw, elementary=False, entries=st.integers(-3, 3)):
    n = draw(st.integers(2, 5))
    rows = [[int(a == b) for b in range(n)] for a in range(n)]
    if elementary:
        i = draw(st.integers(1, n - 1))
        j = draw(st.integers(0, i - 1))
        rows[i][j] = draw(st.integers(-4, 4).filter(bool))
    else:
        for i in range(1, n):
            for j in range(i):
                rows[i][j] = draw(entries)
    return UnipotentMatrix(tuple(map(tuple, rows)))


@st.composite
def _words(draw, size=None):
    n = size or draw(st.integers(2, 5))
    gens = [(i, j) for i in range(2, n + 1) for j in range(1, i)]
    letters = draw(st.lists(
        st.tuples(st.sampled_from(gens), st.sampled_from((1, -1))), max_size=8
    ))
    return Word(tuple((i, j, e) for (i, j), e in letters), n)


class TestTrustedAction:
    @given(st.one_of(_matrices(elementary=True), _matrices()), st.integers(-12, 12))
    @settings(max_examples=80, deadline=None)
    def test_power_matches_repeated_products(self, m, k):
        p = m.power(k)
        assert p == _naive_power(m, k)
        assert _is_valid(p)

    @given(_matrices(), _matrices())
    @settings(max_examples=60, deadline=None)
    def test_product_and_inverse_match_naive(self, a, b):
        if a.size != b.size:
            b = UnipotentMatrix.identity(a.size)
        assert a * b == _naive_mul(a, b)
        assert _naive_mul(a, a.inverse()) == UnipotentMatrix.identity(a.size)
        for m in (a * b, a.inverse(), UnipotentMatrix.identity(a.size)):
            assert _is_valid(m)

    @given(_words())
    @settings(max_examples=80, deadline=None)
    def test_prefixes_match_left_multiplied_generators(self, word):
        got = word.prefixes()
        assert got == _naive_prefixes(word)
        assert word.product() == got[-1]
        assert all(_is_valid(h) for h in got)

    @given(_matrices(entries=st.sampled_from((0, 0, 0, 1, -2))), st.data())
    @settings(max_examples=100, deadline=None)
    def test_generator_commutation_matches_products(self, g, data):
        i = data.draw(st.integers(2, g.size))
        j = data.draw(st.integers(1, i - 1))
        f = UnipotentMatrix.generator(g.size, i, j)
        expected = g * f == f * g
        assert g.commutes_with_generator(i, j) == expected
        assert expected == (g * f.inverse() == f.inverse() * g)

    def test_generators_are_valid(self):
        for n in range(2, 6):
            for i in range(2, n + 1):
                for j in range(1, i):
                    assert _is_valid(UnipotentMatrix.generator(n, i, j))

    @given(st.integers(2, 4), st.data())
    @settings(max_examples=40, deadline=None)
    def test_conjugacy_check_matches_naive_reference(self, d, data):
        pk = full_group_model(d)
        word = data.draw(_words(size=d + 1))
        k = data.draw(st.integers(1, 5))
        idx = data.draw(st.lists(
            st.tuples(*[st.integers(-3, 3)] * d), min_size=1, max_size=3
        ))
        g = UnipotentMatrix.generator(d + 1, d + 1, 1)
        rep = conjugacy_distortion_check(pk, word, g, k, idx, holder_exponent=0.5)

        weight = pk.family.weight
        h = _naive_prefixes(word)[-1]
        gk = _naive_power(g, k)

        def slope(m, v):
            return weight(_naive_act(m, v)) / weight(v)

        expected = [
            slope(gk, v) - slope(h, v) / slope(h, _naive_act(gk, v)) * slope(gk, _naive_act(h, v))
            for v in idx
        ]
        assert rep.residuals == tuple(expected)
        assert rep.all_zero

        m_vals, acc = [], 0.0
        axes = pk.family.axes
        for hj in _naive_prefixes(word)[:-1]:
            head = _naive_act(hj, (0,) * d)[:-1]
            block = pk.family.scale
            for ax, c in zip(axes, head):
                block *= ax.weight(c)
            block *= axes[-1].total()
            acc += float(block) ** 0.5
            m_vals.append(acc)
        assert rep.m_values == tuple(m_vals)
