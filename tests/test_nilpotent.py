import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from critreg.cli import ConfigError, ExperimentConfig, _run_identity
from critreg.lattice import DIMENSION_CAP
from critreg.nilpotent import (
    UnipotentMatrix,
    Word,
    _residuals,
    conjugacy_distortion_check,
    exponent,
)

from oracles import length, prefixes

F21 = UnipotentMatrix.generator(3, 2, 1)
F31 = UnipotentMatrix.generator(3, 3, 1)
F32 = UnipotentMatrix.generator(3, 3, 2)


class TestMatrices:
    def test_shift_action(self):
        assert F21.act((4, 7)) == (5, 7)

    def test_shear_action(self):
        assert F32.act((4, 7)) == (4, 11)

    def test_identity_action(self):
        assert _identity(3).act((3, -2)) == (3, -2)

    def test_power(self):
        assert F21.power(3).act((0, 0)) == (3, 0)
        assert F21.power(-2).act((0, 0)) == (-2, 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            UnipotentMatrix(((1, 1), (0, 1)))  # upper entry
        with pytest.raises(ValueError):
            UnipotentMatrix(((2, 0), (0, 1)))  # diagonal


def _slope(m, v):
    """Slope of the piecewise-affine map of m on the v-th packed interval."""
    return length(m.act(v)) / length(v)


class TestCommutators:
    def test_center_of_rank_three(self):
        # f(3,1) is central, as the identity kind's g = f(d+1,1) must be
        for i, j in ((2, 1), (3, 1), (3, 2)):
            f = UnipotentMatrix.generator(3, i, j)
            assert F31.commutes_with_generator(i, j)
            assert _naive_mul(F31, f) == _naive_mul(f, F31)

    def test_noncommuting_pair_differs_by_center(self):
        assert _naive_mul(F21, F32) != _naive_mul(F32, F21)
        assert not F21.commutes_with_generator(3, 2)
        assert F21.act(F32.act((5, 5))) == (6, 10)
        assert F32.act(F21.act((5, 5))) == (6, 11)
        comm = _naive_mul(_naive_mul(F21.power(-1), F32.power(-1)), _naive_mul(F21, F32))
        assert comm in (F31, F31.power(-1))


class TestWords:
    def test_word_rejects_letters_off_the_triangle(self):
        with pytest.raises(ValueError):
            Word(((5, 1, 1),), 3)  # outside the rank-3 group
        with pytest.raises(ValueError):
            Word(((2, 2, 1),), 3)  # letters must lie below the diagonal

    def test_left_to_right_composition(self):
        w = Word(((2, 1, 1), (3, 2, 1)), 3)
        # f(2,1) first: (0,0) -> (1,0), then f(3,2): (1,0) -> (1,1)
        assert w.product().act((0, 0)) == (1, 1)

    def test_prefixes(self):
        w = Word(((2, 1, 1), (2, 1, 1), (3, 2, 1)), 3)
        assert len(prefixes(w)) == 4
        assert prefixes(w)[2].act((0, 0)) == (2, 0)
        assert prefixes(w)[-1] == w.product()


class TestRealization:
    def test_slope_example(self):
        assert length((0, 0)) == Fraction(1, 9)
        assert _slope(F21, (0, 0)) == Fraction(1, 2)

    def test_identity_realization(self):
        for v in ((0, 0), (2, -1), (-3, 3)):
            assert _slope(_identity(3), v) == 1

    def test_homomorphism_on_random_words(self):
        # the chain rule of the slopes: the action of a product is the
        # composition of the actions
        rng = random.Random(11)
        gens = [F21, F31, F32, F21.power(-1), F31.power(-1), F32.power(-1)]
        for _ in range(1000):
            a = _naive_mul(rng.choice(gens), rng.choice(gens))
            b = _naive_mul(rng.choice(gens), rng.choice(gens))
            ab = _naive_mul(a, b)
            for _ in range(3):
                v = (rng.randint(-4, 4), rng.randint(-4, 4))
                assert a.act(b.act(v)) == ab.act(v)
                assert _slope(a, b.act(v)) * _slope(b, v) == _slope(ab, v)

    def test_center_commutes_pointwise(self):
        for f in (F21, F32):
            for v in ((0, 0), (1, -1), (-2, 3)):
                assert _slope(_naive_mul(f, F31), v) == _slope(_naive_mul(F31, f), v)
                assert f.act(F31.act(v)) == F31.act(f.act(v))


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
                    new.add(m.power(-1).act(v))
            frontier = new - seen
            seen |= new
        assert all(v[2] == 0 for v in seen)
        assert len({v[:2] for v in seen}) > 1

    def test_stabilizer_fixes_index(self):
        # elements whose first column matches the identity fix the origin
        m = _naive_mul(UnipotentMatrix.generator(4, 3, 2), UnipotentMatrix.generator(4, 4, 3))
        assert m.rows[1][0] == m.rows[2][0] == m.rows[3][0] == 0
        assert m.act((0, 0, 0)) == (0, 0, 0)


class TestDistortionIdentity:
    def test_translation_model_zero_residual(self):
        gk = UnipotentMatrix.generator(4, 4, 1).power(3)
        word = Word(((2, 1, 1), (3, 1, -1), (4, 1, 1), (2, 1, 1)), 4)
        assert conjugacy_distortion_check(word, gk, [(0, 0, 0), (1, 2, -1)]) == (0, 0)

    def test_ff_model_zero_residual(self):
        gk = UnipotentMatrix.generator(4, 4, 1).power(2)
        word = Word(((2, 1, 1), (3, 2, 1), (4, 3, -1), (3, 1, 1)), 4)
        assert conjugacy_distortion_check(word, gk, [(0, 0, 0), (-1, 2, 0)]) == (0, 0)

    def test_noncommuting_letter_rejected(self):
        g = UnipotentMatrix.generator(4, 3, 2)  # commutes with f(3,1), not f(2,1)
        for letters in (
            ((2, 1, 1),),
            ((2, 1, -1),),  # only the inverse of the offending generator
            ((3, 1, 1), (3, 1, -1), (3, 1, 1), (2, 1, 1)),  # after a repeated commuting letter
        ):
            with pytest.raises(ValueError, match="does not commute"):
                conjugacy_distortion_check(Word(letters, 4), g, [(0, 0, 0)])


# ---------------------------------------------------------------------------
# the trusted action code against naive validated products
# ---------------------------------------------------------------------------


def _naive_mul(a, b):
    n = a.size
    return UnipotentMatrix(tuple(
        tuple(sum(a.rows[i][k] * b.rows[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    ))


def _identity(n):
    return UnipotentMatrix(tuple(tuple(int(a == b) for b in range(n)) for a in range(n)))


def _naive_power(m, k):
    """m^k for k >= 0 by k validated products."""
    out = _identity(m.size)
    for _ in range(k):
        out = _naive_mul(out, m)
    return out


def _naive_act(m, v):
    w = (1, *v)
    return tuple(sum(m.rows[i][k] * w[k] for k in range(m.size)) for i in range(1, m.size))


def _naive_prefixes(word):
    """h_0 = id and h_t = f_t^e * h_(t-1), each letter a validated matrix."""
    out = [_identity(word.size)]
    for i, j, e in word.letters:
        rows = [[int(a == b) for b in range(word.size)] for a in range(word.size)]
        rows[i - 1][j - 1] = e
        out.append(_naive_mul(UnipotentMatrix(tuple(map(tuple, rows))), out[-1]))
    return out


def _exact_residual(h, gk, v):
    """The slope identity's residual from exact Fraction lengths."""
    def slope(m, u):
        return length(_naive_act(m, u)) / length(u)

    return slope(gk, v) - slope(h, v) / slope(h, _naive_act(gk, v)) * slope(gk, _naive_act(h, v))


def _is_valid(m):
    return UnipotentMatrix(m.rows) == m


@st.composite
def _matrices(draw, elementary=False, entries=st.integers(-3, 3), size=None):
    n = size or draw(st.integers(2, 5))
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
    @given(_matrices(elementary=True), st.integers(-12, 12))
    @settings(max_examples=80, deadline=None)
    def test_power_matches_repeated_products(self, m, k):
        p = m.power(k)
        assert _is_valid(p)
        if k >= 0:
            assert p == _naive_power(m, k)
        assert _naive_mul(p, m.power(-k)) == _identity(m.size)

    @given(st.integers(3, 5), st.integers(-12, 12), st.data())
    @settings(max_examples=60, deadline=None)
    def test_power_refuses_two_off_diagonal_entries(self, n, k, data):
        cells = [(i, j) for i in range(1, n) for j in range(i)]
        rows = [[int(a == b) for b in range(n)] for a in range(n)]
        for i, j in data.draw(st.lists(st.sampled_from(cells), min_size=2, max_size=2,
                                       unique=True)):
            rows[i][j] = data.draw(st.integers(-4, 4).filter(bool))
        with pytest.raises(ValueError, match="^power needs an elementary matrix"):
            UnipotentMatrix(tuple(map(tuple, rows))).power(k)

    @given(st.integers(1, 6))
    def test_empty_word_is_the_identity(self, n):
        assert Word((), n).product() == _identity(n)

    @given(_words())
    @settings(max_examples=80, deadline=None)
    def test_prefixes_match_left_multiplied_generators(self, word):
        got = prefixes(word)
        assert got == _naive_prefixes(word)
        assert word.product() == got[-1]
        assert all(_is_valid(h) for h in got)

    @given(_matrices(entries=st.sampled_from((0, 0, 0, 1, -2))), st.data())
    @settings(max_examples=100, deadline=None)
    def test_generator_commutation_matches_products(self, g, data):
        i = data.draw(st.integers(2, g.size))
        j = data.draw(st.integers(1, i - 1))
        f = UnipotentMatrix.generator(g.size, i, j)
        expected = _naive_mul(g, f) == _naive_mul(f, g)
        assert g.commutes_with_generator(i, j) == expected
        f_inv = f.power(-1)
        assert expected == (_naive_mul(g, f_inv) == _naive_mul(f_inv, g))

    @given(_matrices(entries=st.sampled_from((0, 0, 0, 1, -2))), st.integers(1, 5))
    @settings(max_examples=100, deadline=None)
    def test_powers_commute_with_the_generators_g_commutes_with(self, g, k):
        # the group is torsion-free nilpotent, so for k != 0 g^k commutes with
        # f(i,j) exactly when g does: the identity check tests the power alone
        gk = _naive_power(g, k)
        for i in range(2, g.size + 1):
            for j in range(1, i):
                assert gk.commutes_with_generator(i, j) == g.commutes_with_generator(i, j)

    def test_generators_are_valid(self):
        for n in range(2, 6):
            for i in range(2, n + 1):
                for j in range(1, i):
                    assert _is_valid(UnipotentMatrix.generator(n, i, j))

    @given(st.integers(2, 4), st.data())
    @settings(max_examples=40, deadline=None)
    def test_conjugacy_check_matches_naive_reference(self, d, data):
        word = data.draw(_words(size=d + 1))
        k = data.draw(st.integers(1, 5))
        idx = data.draw(st.lists(
            st.tuples(*[st.integers(-3, 3)] * d), min_size=1, max_size=3
        ))
        g = UnipotentMatrix.generator(d + 1, d + 1, 1)
        residuals = conjugacy_distortion_check(word, g.power(k), idx)

        h = _naive_prefixes(word)[-1]
        gk = _naive_power(g, k)
        assert residuals == tuple(_exact_residual(h, gk, v) for v in idx)
        assert not any(residuals)


# ---------------------------------------------------------------------------
# integer exponents against exact lengths
# ---------------------------------------------------------------------------


class TestExponents:
    @given(st.integers(1, DIMENSION_CAP), st.data())
    @settings(max_examples=60, deadline=None)
    def test_exponent_gives_the_exact_length(self, d, data):
        v = data.draw(st.tuples(*[st.integers(-40, 40)] * d))
        assert Fraction(2) ** exponent(v) / 3 ** d == length(v)

    @given(st.integers(1, 4), st.data())
    @settings(max_examples=80, deadline=None)
    def test_residuals_match_exact_lengths(self, d, data):
        # h and gk are arbitrary matrices, so they need not commute and the
        # residuals need not vanish
        h = data.draw(_matrices(size=d + 1))
        gk = data.draw(_matrices(size=d + 1))
        idx = data.draw(st.lists(
            st.tuples(*[st.integers(-4, 4)] * d), min_size=1, max_size=4
        ))
        got = _residuals(h, gk, idx)
        assert got == tuple(_exact_residual(h, gk, v) for v in idx)
        assert all(type(r) is Fraction for r in got)

    def test_noncommuting_pair_has_nonzero_residuals(self):
        idx = [(0, 0), (5, 5), (-2, 3), (1, -4)]
        got = _residuals(F21, F32, idx)
        assert got == tuple(_exact_residual(F21, F32, v) for v in idx)
        # e.g. v = (5, 5): g^k v = (5, 10), h g^k v = (6, 10), g^k h v = (6, 11),
        # so the residual is 2^(-15+10) * (1 - 2^(-17+16)) = 1/64
        assert got == (Fraction(1, 2), Fraction(1, 64), Fraction(2), Fraction(-2))

    def test_translation_model_names_its_dimension_limit(self):
        # the translation model packs Z^(d+1), so the identity runner takes
        # d up to DIMENSION_CAP - 1 and refuses the cap itself by name
        ok = ExperimentConfig("identity", d=DIMENSION_CAP - 1, samples=3)
        assert _run_identity(ok)["constants"]["checked"] == 3
        with pytest.raises(ConfigError, match=f"translation needs d <= {DIMENSION_CAP - 1}"):
            _run_identity(ExperimentConfig("identity", d=DIMENSION_CAP, samples=3))

    def test_index_must_match_the_group(self):
        # the index lattice is the matrices' own: a rank-4 word moves Z^3
        word = Word(((2, 1, 1),), 4)
        g = UnipotentMatrix.generator(4, 4, 1)
        with pytest.raises(ValueError, match="^index must have 3 coordinates$"):
            conjugacy_distortion_check(word, g, [(0, 0)])
