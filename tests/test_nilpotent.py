import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from critreg import nilpotent
from critreg.cli import ConfigError, ExperimentConfig, _run_identity
from critreg.lattice import DIMENSION_CAP
from critreg.nilpotent import (
    _residual,
    commuting_letters,
    conjugacy_distortion_check,
    generator,
    identity,
    product,
)

from oracles import identity_alphabet, identity_triples, length

F21 = generator(3, 2, 1)
F31 = generator(3, 3, 1)
F32 = generator(3, 3, 2)
RANK3 = [(2, 1), (3, 1), (3, 2)]


def _check(gk, letters, indices):
    """The residuals of one word against the power gk at each index, with
    the word's own generators as gens."""
    check = conjugacy_distortion_check({1: gk}, sorted({(i, j) for i, j, _ in letters}))
    return [check(letters, 1, v) for v in indices]


class TestMatrices:
    def test_shift_action(self):
        assert _naive_act(F21, (4, 7)) == (5, 7)

    def test_shear_action(self):
        assert _naive_act(F32, (4, 7)) == (4, 11)

    def test_identity_action(self):
        assert identity(3) == _identity(3)
        assert _naive_act(identity(3), (3, -2)) == (3, -2)

    def test_power(self):
        assert _naive_act(generator(3, 2, 1, 3), (0, 0)) == (3, 0)
        assert _naive_act(generator(3, 2, 1, -2), (0, 0)) == (-2, 0)

    def test_validation(self):
        for i, j in ((1, 2), (2, 2), (4, 1), (2, 0)):
            with pytest.raises(ValueError, match=re.escape(f"letter f({i},{j}) outside")):
                generator(3, i, j)
        # a caller's powers must be of one size (test_records checks the
        # triangle and the diagonal)
        with pytest.raises(ValueError, match=r"^g\^2 is not a lower-unitriangular 3x3"):
            conjugacy_distortion_check({1: F21, 2: generator(4, 2, 1)}, [])


def _slope(m, v):
    """Slope of the piecewise-affine map of m on the v-th packed interval."""
    return length(_naive_act(m, v)) / length(v)


class TestCommutators:
    def test_center_of_rank_three(self):
        # f(3,1) is central, as the identity kind's g = f(d+1,1) must be
        assert commuting_letters(F31, RANK3) == {(i, j, e) for i, j in RANK3 for e in (1, -1)}
        for i, j in RANK3:
            f = generator(3, i, j)
            assert _naive_mul(F31, f) == _naive_mul(f, F31)

    def test_noncommuting_pair_differs_by_center(self):
        assert _naive_mul(F21, F32) != _naive_mul(F32, F21)
        assert not commuting_letters(F21, [(3, 2)])
        assert _naive_act(F21, _naive_act(F32, (5, 5))) == (6, 10)
        assert _naive_act(F32, _naive_act(F21, (5, 5))) == (6, 11)
        comm = _naive_mul(_naive_mul(generator(3, 2, 1, -1), generator(3, 3, 2, -1)),
                          _naive_mul(F21, F32))
        assert comm in (F31, generator(3, 3, 1, -1))


class TestWords:
    def test_word_rejects_letters_off_the_triangle(self):
        # outside the rank-3 group, or on the diagonal
        for i, j in ((5, 1), (2, 2)):
            with pytest.raises(ValueError, match=re.escape(f"letter f({i},{j}) outside")):
                conjugacy_distortion_check({1: F31}, [(i, j)])

    def test_left_to_right_composition(self):
        h = product(((2, 1, 1), (3, 2, 1)), identity(3))
        # f(2,1) first: (0,0) -> (1,0), then f(3,2): (1,0) -> (1,1)
        assert _naive_act(h, (0, 0)) == (1, 1)

    def test_prefixes(self):
        letters = ((2, 1, 1), (2, 1, 1), (3, 2, 1))
        got = [product(letters[:t], identity(3)) for t in range(4)]
        assert _naive_act(got[2], (0, 0)) == (2, 0)
        # the rest of the word left-multiplies a prefix's product
        assert product(letters[2:], got[2]) == got[3]


class TestRealization:
    def test_slope_example(self):
        assert length((0, 0)) == Fraction(1, 9)
        assert _slope(F21, (0, 0)) == Fraction(1, 2)

    def test_identity_realization(self):
        for v in ((0, 0), (2, -1), (-3, 3)):
            assert _slope(identity(3), v) == 1

    def test_homomorphism_on_random_words(self):
        # the chain rule of the slopes: the action of a product is the
        # composition of the actions
        rng = random.Random(11)
        gens = [generator(3, i, j, e) for i, j in RANK3 for e in (1, -1)]
        for _ in range(1000):
            a = _naive_mul(rng.choice(gens), rng.choice(gens))
            b = _naive_mul(rng.choice(gens), rng.choice(gens))
            ab = _naive_mul(a, b)
            for _ in range(3):
                v = (rng.randint(-4, 4), rng.randint(-4, 4))
                assert _naive_act(a, _naive_act(b, v)) == _naive_act(ab, v)
                assert _slope(a, _naive_act(b, v)) * _slope(b, v) == _slope(ab, v)

    def test_center_commutes_pointwise(self):
        for f in (F21, F32):
            for v in ((0, 0), (1, -1), (-2, 3)):
                assert _slope(_naive_mul(f, F31), v) == _slope(_naive_mul(F31, f), v)
                assert _naive_act(f, _naive_act(F31, v)) == _naive_act(F31, _naive_act(f, v))


class TestOrbitStructure:
    def test_orbit_is_first_coordinates(self):
        # rank-4 group acting on Z^3: the subgroup fixing the last row and
        # column moves exactly the first two coordinates
        sub = [generator(4, i, j, e) for i, j in ((2, 1), (3, 1), (3, 2)) for e in (1, -1)]
        seen = set()
        frontier = {(0, 0, 0)}
        for _ in range(4):
            new = {_naive_act(m, v) for v in frontier for m in sub}
            frontier = new - seen
            seen |= new
        assert all(v[2] == 0 for v in seen)
        assert len({v[:2] for v in seen}) > 1

    def test_stabilizer_fixes_index(self):
        # elements whose first column matches the identity fix the origin
        m = product(((4, 3, 1), (3, 2, 1)), identity(4))
        assert m == _naive_mul(generator(4, 3, 2), generator(4, 4, 3))
        assert m[1][0] == m[2][0] == m[3][0] == 0
        assert _naive_act(m, (0, 0, 0)) == (0, 0, 0)


class TestDistortionIdentity:
    def test_translation_model_zero_residual(self):
        gk = generator(4, 4, 1, 3)
        letters = ((2, 1, 1), (3, 1, -1), (4, 1, 1), (2, 1, 1))
        assert _check(gk, letters, [(0, 0, 0), (1, 2, -1)]) == [0, 0]

    def test_ff_model_zero_residual(self):
        gk = generator(4, 4, 1, 2)
        letters = ((2, 1, 1), (3, 2, 1), (4, 3, -1), (3, 1, 1))
        assert _check(gk, letters, [(0, 0, 0), (-1, 2, 0)]) == [0, 0]

    def test_noncommuting_letter_rejected(self):
        g = generator(4, 3, 2)  # commutes with f(3,1), not f(2,1)
        check = conjugacy_distortion_check({1: g}, [(2, 1), (3, 1)])
        assert check(((3, 1, 1),), 1, (0, 0, 0)) == 0
        for letters in (
            ((2, 1, 1),),
            ((2, 1, -1),),  # only the inverse of the offending generator
            ((3, 1, 1), (3, 1, -1), (3, 1, 1), (2, 1, 1)),  # after a repeated commuting letter
        ):
            message = f"^letter {re.escape(str(letters[-1]))} does not commute with g\\^k$"
            with pytest.raises(ValueError, match=message):
                check(letters, 1, (0, 0, 0))

    def test_letters_outside_gens_are_refused(self):
        # f(3,1) commutes with g = f(4,1) but is not in gens; exponents are +-1
        for letter in ((3, 1, 1), (2, 1, 2)):
            message = f"^letter {re.escape(str(letter))} is not f\\(i,j\\)"
            with pytest.raises(ValueError, match=message):
                conjugacy_distortion_check({1: generator(4, 4, 1)}, [(2, 1)])(
                    ((2, 1, 1), letter), 1, (0, 0, 0))


# ---------------------------------------------------------------------------
# the row operations against naive products
# ---------------------------------------------------------------------------


def _naive_mul(a, b):
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)) for i in range(n)
    )


def _identity(n):
    return tuple(tuple(int(a == b) for b in range(n)) for a in range(n))


def _naive_power(m, k):
    """m^k for k >= 0 by k products."""
    out = _identity(len(m))
    for _ in range(k):
        out = _naive_mul(out, m)
    return out


def _naive_act(m, v):
    w = (1, *v)
    return tuple(sum(m[i][k] * w[k] for k in range(len(m))) for i in range(1, len(m)))


def _naive_prefixes(letters, n):
    """h_0 = id and h_t = f_t^e * h_(t-1), each letter a matrix of its own."""
    out = [_identity(n)]
    for i, j, e in letters:
        rows = [[int(a == b) for b in range(n)] for a in range(n)]
        rows[i - 1][j - 1] = e
        out.append(_naive_mul(tuple(map(tuple, rows)), out[-1]))
    return out


def _exact_residual(h, gk, v):
    """The slope identity's residual from exact Fraction lengths."""
    def slope(m, u):
        return length(_naive_act(m, u)) / length(u)

    return slope(gk, v) - slope(h, v) / slope(h, _naive_act(gk, v)) * slope(gk, _naive_act(h, v))


def _is_unitriangular(m):
    n = len(m)
    return all(len(row) == n and row[r] == 1 and not any(row[r + 1:])
               for r, row in enumerate(m))


@st.composite
def _matrices(draw, entries=st.integers(-3, 3), size=None):
    n = size or draw(st.integers(2, 5))
    rows = [[int(a == b) for b in range(n)] for a in range(n)]
    for i in range(1, n):
        for j in range(i):
            rows[i][j] = draw(entries)
    return tuple(map(tuple, rows))


@st.composite
def _letters(draw, n):
    gens = [(i, j) for i in range(2, n + 1) for j in range(1, i)]
    letters = draw(st.lists(
        st.tuples(st.sampled_from(gens), st.sampled_from((1, -1))), max_size=8
    ))
    return tuple((i, j, e) for (i, j), e in letters)


class TestTrustedAction:
    @given(st.integers(2, 5), st.integers(-12, 12), st.data())
    @settings(max_examples=80, deadline=None)
    def test_power_matches_repeated_products(self, n, k, data):
        i = data.draw(st.integers(2, n))
        j = data.draw(st.integers(1, i - 1))
        p = generator(n, i, j, k)
        assert _is_unitriangular(p)
        if k >= 0:
            assert p == _naive_power(generator(n, i, j), k)
        assert _naive_mul(p, generator(n, i, j, -k)) == _identity(n)

    @given(st.integers(1, 6))
    def test_empty_word_is_the_identity(self, n):
        assert product((), identity(n)) == _identity(n)

    @given(st.integers(2, 5), st.data())
    @settings(max_examples=80, deadline=None)
    def test_prefixes_match_left_multiplied_generators(self, n, data):
        letters = data.draw(_letters(n))
        got = [product(letters[:t], identity(n)) for t in range(len(letters) + 1)]
        assert got == _naive_prefixes(letters, n)
        assert all(_is_unitriangular(h) for h in got)

    @given(_matrices(entries=st.sampled_from((0, 0, 0, 1, -2))), st.data())
    @settings(max_examples=100, deadline=None)
    def test_generator_commutation_matches_products(self, g, data):
        i = data.draw(st.integers(2, len(g)))
        j = data.draw(st.integers(1, i - 1))
        f, f_inv = generator(len(g), i, j), generator(len(g), i, j, -1)
        expected = _naive_mul(g, f) == _naive_mul(f, g)
        assert commuting_letters(g, [(i, j)]) == ({(i, j, 1), (i, j, -1)} if expected else set())
        assert expected == (_naive_mul(g, f_inv) == _naive_mul(f_inv, g))

    @given(_matrices(entries=st.sampled_from((0, 0, 0, 1, -2))), st.integers(1, 5))
    @settings(max_examples=100, deadline=None)
    def test_powers_commute_with_the_generators_g_commutes_with(self, g, k):
        # the group is torsion-free nilpotent, so for k != 0 g^k commutes with
        # f(i,j) exactly when g does
        gens = [(i, j) for i in range(2, len(g) + 1) for j in range(1, i)]
        assert commuting_letters(_naive_power(g, k), gens) == commuting_letters(g, gens)

    def test_generators_are_valid(self):
        for n in range(2, 6):
            for i in range(2, n + 1):
                for j in range(1, i):
                    assert _is_unitriangular(generator(n, i, j))

    @given(st.integers(2, 4), st.data())
    @settings(max_examples=40, deadline=None)
    def test_conjugacy_check_matches_naive_reference(self, d, data):
        letters = data.draw(_letters(d + 1))
        k = data.draw(st.integers(1, 5))
        idx = data.draw(st.lists(
            st.tuples(*[st.integers(-3, 3)] * d), min_size=1, max_size=3
        ))
        gens = [(i, j) for i in range(2, d + 2) for j in range(1, i)]
        powers = {p: generator(d + 1, d + 1, 1, p) for p in range(1, 6)}
        check = conjugacy_distortion_check(powers, gens)
        residuals = [check(letters, k, v) for v in idx]

        h = _naive_prefixes(letters, d + 1)[-1]
        gk = _naive_power(generator(d + 1, d + 1, 1), k)
        assert residuals == [_exact_residual(h, gk, v) for v in idx]
        assert not any(residuals)


# ---------------------------------------------------------------------------
# integer exponents against exact lengths
# ---------------------------------------------------------------------------


class TestExponents:
    @given(st.integers(1, DIMENSION_CAP), st.data())
    @settings(max_examples=60, deadline=None)
    def test_exponent_gives_the_exact_length(self, d, data):
        # the residual's exponent sums give exact lengths far from the origin
        # and at every dimension up to the cap
        h = data.draw(_matrices(size=d + 1))
        gk = data.draw(_matrices(size=d + 1))
        v = data.draw(st.tuples(*[st.integers(-40, 40)] * d))
        assert _residual(h, gk, v) == _exact_residual(h, gk, v)

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
        got = [_residual(h, gk, v) for v in idx]
        assert got == [_exact_residual(h, gk, v) for v in idx]
        assert all(type(r) is Fraction for r in got)

    def test_noncommuting_pair_has_nonzero_residuals(self):
        idx = [(0, 0), (5, 5), (-2, 3), (1, -4)]
        got = [_residual(F21, F32, v) for v in idx]
        assert got == [_exact_residual(F21, F32, v) for v in idx]
        # e.g. v = (5, 5): g^k v = (5, 10), h g^k v = (6, 10), g^k h v = (6, 11),
        # so the residual is 2^(-15+10) * (1 - 2^(-17+16)) = 1/64
        assert got == [Fraction(1, 2), Fraction(1, 64), Fraction(2), Fraction(-2)]

    def test_translation_model_names_its_dimension_limit(self):
        # the translation model packs Z^(d+1), so the identity runner takes
        # d up to DIMENSION_CAP - 1 and refuses the cap itself by name
        ok = ExperimentConfig("identity", d=DIMENSION_CAP - 1, samples=3)
        assert _run_identity(ok)["constants"]["checked"] == 3
        with pytest.raises(ConfigError, match=f"translation needs d <= {DIMENSION_CAP - 1}"):
            _run_identity(ExperimentConfig("identity", d=DIMENSION_CAP, samples=3))

    def test_index_must_match_the_group(self):
        # the index lattice is the matrices' own: a rank-4 word moves Z^3
        with pytest.raises(ValueError, match="^index must have 3 coordinates$"):
            _check(generator(4, 4, 1), ((2, 1, 1),), [(0, 0)])


# ---------------------------------------------------------------------------
# the identity kind's draw stream
# ---------------------------------------------------------------------------


class _Recorder(random.Random):
    """A `random.Random` that logs each `randint` and `choice` call, with
    its arguments and result, in call order."""

    def __init__(self, seed):
        super().__init__(seed)
        self.calls = []

    def randint(self, a, b):
        out = super().randint(a, b)
        self.calls.append(("randint", (a, b), out))
        return out

    def choice(self, seq):
        out = super().choice(seq)
        self.calls.append(("choice", tuple(seq), out))
        return out


class _Replay:
    """Hands back a recorded stream call by call, and fails on a call that
    differs from the recorded one in name or arguments."""

    def __init__(self, calls):
        self.calls = list(calls)

    def _next(self, name, args):
        got, got_args, out = self.calls.pop(0)
        assert (got, got_args) == (name, args)
        return out

    def randint(self, a, b):
        return self._next("randint", (a, b))

    def choice(self, seq):
        return self._next("choice", tuple(seq))


@pytest.mark.parametrize("seed", [1, 2, 7])
@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("model", ["translation", "ff"])
def test_runner_checks_the_reference_draws(monkeypatch, model, d, seed):
    # the runner builds its own random.Random; the recorder takes its place,
    # so the triples are read from the one stream the runner consumes
    rngs = []

    class Recorder(_Recorder):
        def __init__(self, seed):
            super().__init__(seed)
            rngs.append(self)

    samples = 25
    monkeypatch.setattr(random, "Random", Recorder)
    out = _run_identity(ExperimentConfig("identity", d=d, variant=model, samples=samples,
                                         seed=seed))
    monkeypatch.undo()
    (rng,) = rngs
    gens, lattice_d = identity_alphabet(model, d)
    replay = _Replay(rng.calls)
    drawn = identity_triples(replay, gens, lattice_d, samples)
    assert not replay.calls  # nothing drawn past the last sample
    assert drawn == identity_triples(random.Random(seed), gens, lattice_d, samples)
    assert out["constants"]["checked"] == samples
    assert all(len(v) == lattice_d and 1 <= k <= 5 and 1 <= len(letters) <= 6
               for letters, k, v in drawn)


@pytest.mark.parametrize("model", ["translation", "ff"])
def test_runner_checks_each_drawn_triple_once(monkeypatch, model):
    # what the runner hands the check: its alphabet, the five powers of the
    # central f(n,1), and then the reference triples in draw order
    built, checked, decided = [], [], []

    def make(powers, gens):
        built.append((powers, gens))
        check = real_make(powers, gens)

        def spy(letters, k, v):
            checked.append((tuple(letters), k, tuple(v)))
            return check(letters, k, v)
        return spy

    def commuting(m, gens):
        decided.append(m)
        return real_commuting(m, gens)

    real_make, real_commuting = nilpotent.conjugacy_distortion_check, nilpotent.commuting_letters
    monkeypatch.setattr(nilpotent, "conjugacy_distortion_check", make)
    monkeypatch.setattr(nilpotent, "commuting_letters", commuting)
    _run_identity(ExperimentConfig("identity", d=3, variant=model, samples=40, seed=5))
    gens, lattice_d = identity_alphabet(model, 3)
    ((powers, got_gens),) = built
    assert got_gens == gens
    assert powers == {k: generator(lattice_d + 1, lattice_d + 1, 1, k) for k in range(1, 6)}
    assert checked == identity_triples(random.Random(5), gens, lattice_d, 40)
    # commutation is decided once per power, before the first sample
    assert decided == list(powers.values())
