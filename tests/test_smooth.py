import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from critreg import smooth
from critreg.smooth import (
    SmoothMap,
    fundamental_domain_check,
    holder_constant_estimate,
    parabolic_map,
)

from oracles import (
    affine_map,
    domain_orbit,
    doubling_fixed_point_map,
    holder_by_offsets,
    identity_map,
    mobius_contraction_map,
    plain_map,
    renormalize,
    restrict,
)


def check(g, alpha, k_max, scale=1.0):
    """The dynamics rows of g with the grid Holder constant times scale."""
    c = holder_constant_estimate(g, alpha)
    return fundamental_domain_check(g, alpha, scale * c, k_max)


def wandering_steps(g, k_max):
    """The signed lengths of g^k J, k = 0..k_max, after checking that the
    images form one chain of shared endpoints, bit for bit: steps of one
    sign then make them pairwise disjoint."""
    _, ends = smooth._domain_orbit(g, k_max)
    bits = ends.view(np.int64)
    assert np.array_equal(bits[1:, 0], bits[:-1, 1])
    return ends[:, 1] - ends[:, 0]


class TestHolder:
    def test_identity_zero(self):
        assert holder_constant_estimate(identity_map(), 0.5) == 0.0

    def test_quarter_parabola_bound(self):
        g = plain_map(lambda x: x + x ** 2 / 4, lambda x: 1 + x / 2, 0, 1, (0.0,))
        assert holder_constant_estimate(g, 0.5) <= 0.5

    def test_monotone_in_refinement(self):
        g = parabolic_map(2.0)
        c1 = holder_constant_estimate(g, 0.5, grid=129)
        c2 = holder_constant_estimate(g, 0.5, grid=513)
        assert c2 >= c1 - 1e-15

    @given(st.floats(0.05, 0.6), st.floats(0.2, 0.39))
    @settings(max_examples=15, deadline=None)
    def test_renormalization_identity(self, a, width):
        g = restrict(parabolic_map(1.0), a, a + width)
        c = holder_constant_estimate(g, 0.5)
        c_unit = holder_constant_estimate(renormalize(g), 0.5)
        assert abs(c_unit - c * width ** 0.5) < 1e-8


class TestGrowthBound:
    def test_parabolic_family_passes(self):
        for c in (0.5, 1.0, 2.0):
            for alpha in (1 / 3, 1 / 2):
                rep = check(parabolic_map(c), alpha, 2000)
                assert rep.distortion.passed, (c, alpha, rep.distortion)

    def test_hyperbolic_fixed_points_pass(self):
        # the lemma on J needs no parabolic fixed point: both ends of this
        # map have derivative 5/4 and 3/4
        g = plain_map(
            lambda x: x + x * (1 - x) / 4, lambda x: 1 + (1 - 2 * x) / 4,
            0.0, 1.0, (0.0, 1.0),
        )
        assert check(g, 0.5, 500).distortion.passed
        assert (wandering_steps(g, 500) >= 0).all()

    def test_too_small_constant_fails_at_first_step(self):
        for c in (0.5, 1.0, 2.0):
            for alpha in (1 / 3, 1 / 2, 2 / 3):
                rep = check(parabolic_map(c), alpha, 750, scale=1 / 20)
                assert rep.distortion.first_failure == 1, (c, alpha)
                assert not rep.distortion.passed and rep.distortion.least < 0

    def test_exponent_range_checked(self):
        for alpha in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError, match=r"exponent must lie in \(0, 1\]"):
                fundamental_domain_check(parabolic_map(1.0), alpha, 1.0, 10)
        # alpha = 1: log Dg is Lipschitz, and the Holder sum is C * sum |g^i J|
        for c in (0.05, 1.0, 3.9):
            g = parabolic_map(c)
            lipschitz = holder_constant_estimate(g, 1.0)
            rep = fundamental_domain_check(g, 1.0, lipschitz, 750)
            assert rep.distortion.passed, c
            assert rep.distortion.last_bound == lipschitz * rep.partial_sums[-1]


class TestWandering:
    def test_parabolic_partial_sums(self):
        sums = check(parabolic_map(1.0), 0.5, 500).partial_sums
        assert len(sums) == 500 and sums[-1] <= 1.0
        assert all(a <= b for a, b in zip(sums, sums[1:]))

    @pytest.mark.parametrize("k_max", [127, 128, 129, 750])
    @pytest.mark.parametrize("c", [0.05, 1.0, 3.9])
    def test_parabolic_images_wander(self, c, k_max):
        # every rounded step x + c x^2 (1-x)^2 is at least x, so the images
        # of J move right along one chain of shared endpoints: they are
        # disjoint, their lengths telescope to g^k_max(x0) - x0 <= |I|, and
        # by concavity of t^alpha, sum_(i<k) |g^i J|^alpha <= |I|^alpha k^(1-alpha)
        g = parabolic_map(c)
        steps = wandering_steps(g, k_max)
        assert (steps >= 0).all()
        assert fundamental_domain_check(g, 0.5, 1.0, k_max).partial_sums[-1] <= 1.0  # |I|
        ks = np.arange(1, k_max + 1)
        for alpha in (0.1, 0.5, 0.9):
            closed_form = ks ** (1 - alpha)  # |I|^alpha k^(1-alpha)
            assert (np.cumsum(steps[:-1] ** alpha) <= closed_form).all(), alpha

    def test_contraction_telescopes(self):
        g = mobius_contraction_map()
        rep = check(g, 0.5, 60)
        assert (wandering_steps(g, 60) <= 0).all() and rep.partial_sums[-1] <= 1.0
        # forward images share endpoints, so the sum telescopes:
        # sum_(k<K) |g^k(J)| = x0 - g^K(x0), and the orbit approaches 0
        x = 0.5
        for _ in range(60):
            x = x / (2 - x)
        assert abs(rep.partial_sums[-1] - (0.5 - x)) < 1e-9

    def test_fixed_point_rejected(self):
        # the identity fixes x0 = 1/2: J is a point, not a fundamental domain
        with pytest.raises(ValueError, match="fixed point"):
            fundamental_domain_check(identity_map(), 0.5, 0.0, 10)


class TestMapValidation:
    def test_declared_fixed_point_must_be_fixed(self):
        # a move of 1e-11 lies within FIXED_POINT_TOL, and is still a move
        for move in (0.5, 1e-11):
            with pytest.raises(ValueError, match="moves under the map"):
                plain_map(lambda x: x + move, lambda x: np.ones_like(x), 0, 1, (0.0,))

    def test_restrict_guard(self):
        with pytest.raises(ValueError):
            restrict(parabolic_map(1.0), 0.5, 1.5)

    def test_parabolic_parameter_guard(self):
        with pytest.raises(ValueError):
            parabolic_map(5.0)


# ---------------------------------------------------------------------------
# exactness against the plain computations: full pair matrix and per-step
# orbit; results must agree bit for bit
# ---------------------------------------------------------------------------


def full_matrix_holder(g, alpha, grid):
    x = g.grid(grid)
    d = g.df(x)
    if np.any(d <= 0):
        raise ValueError("derivative must stay positive")
    ld = np.log(d)
    num = np.abs(ld[:, None] - ld[None, :])
    den = np.abs(x[:, None] - x[None, :]) ** alpha
    np.fill_diagonal(den, 1.0)
    np.fill_diagonal(num, 0.0)
    return float((num / den).max())


# (map, orbit length): the orbits of J under affine(0.5) and the
# contraction underflow to 0 after about 1075 steps, so their later
# images are empty
EXACT_MAPS = {
    "parabolic-0.5": (parabolic_map(0.5), 300),
    "parabolic-1": (parabolic_map(1.0), 300),
    "parabolic-2.5": (parabolic_map(2.5), 300),
    "doubling": (doubling_fixed_point_map(), 300),
    "contraction": (mobius_contraction_map(), 1200),
    "affine-0.5": (affine_map(0.5), 1200),
    "identity": (identity_map(), 100),
    "doubling-restricted": (
        renormalize(restrict(doubling_fixed_point_map(), 0.5, 1.0)), 300),
    "contraction-restricted": (
        renormalize(restrict(mobius_contraction_map(), 0.0, 0.5)), 1200),
}


# grids for the streaming oracle: the smallest, both sides of the first step
# of the block size (HOLDER_BLOCKS points fold into blocks of one point, one
# more into blocks of two), a grid that is no exact progression, and dyadic
# grids up to where the full pair matrix cannot go
ORACLE_GRIDS = (1, 2, 3, smooth.HOLDER_BLOCKS - 1, smooth.HOLDER_BLOCKS,
                smooth.HOLDER_BLOCKS + 1, 1000, 1025, 2049, 4097)


# k_max on both sides of the orbit's block edges
BLOCK_EDGES = (
    smooth.ORBIT_BLOCK_STEPS - 1,
    smooth.ORBIT_BLOCK_STEPS,
    smooth.ORBIT_BLOCK_STEPS + 1,
    2 * smooth.ORBIT_BLOCK_STEPS,
)


class TestExactness:
    @pytest.mark.parametrize("name", sorted(EXACT_MAPS))
    def test_holder_matches_full_matrix(self, name):
        g, _ = EXACT_MAPS[name]
        grids = (1, 2, 3, 64, 65, 200, 1025)
        # both ways of taking the gaps: read off an exact progression (2, 3,
        # 65 and 1025 points on [0, 1]) and the block pass (the others)
        assert {smooth._exact_progression(g.grid(n)) for n in grids} == {True, False}
        for alpha in (1 / 3, 0.5, 2 / 3, 1.0):
            for grid in grids:
                got = holder_constant_estimate(g, alpha, grid)
                assert got == full_matrix_holder(g, alpha, grid), (alpha, grid)
            with pytest.raises(ValueError):  # an empty grid has no pair
                holder_constant_estimate(g, alpha, 0)

    @pytest.mark.parametrize("name", sorted(EXACT_MAPS))
    def test_streaming_oracle_matches_full_matrix(self, name):
        g, _ = EXACT_MAPS[name]
        for alpha in (1 / 3, 1.0):
            for grid in (1, 2, 3, 64, 65, 200, 1025):
                want = full_matrix_holder(g, alpha, grid)
                assert holder_by_offsets(g, alpha, grid) == want, (alpha, grid)
        # NaN passes through both, from 0 / 0 on coincident points
        b = np.nextafter(1.0, 2.0)
        g = plain_map(lambda x: x, lambda x: 1 + x, 1.0, b)
        with np.errstate(invalid="ignore"):
            assert np.isnan(holder_by_offsets(g, 0.5, 65))
            assert np.isnan(full_matrix_holder(g, 0.5, 65))

    @pytest.mark.parametrize("name", sorted(EXACT_MAPS))
    def test_holder_matches_streaming_oracle(self, name):
        g, _ = EXACT_MAPS[name]
        for grid in ORACLE_GRIDS:
            for alpha in (1 / 3, 2 / 3, 1.0) if grid <= 1025 else (0.5,):
                got = holder_constant_estimate(g, alpha, grid)
                assert got == holder_by_offsets(g, alpha, grid), (alpha, grid)

    @given(st.floats(0.05, 3.9), st.floats(0.05, 1.0), st.sampled_from(ORACLE_GRIDS),
           st.booleans())
    @settings(max_examples=12, deadline=None)
    def test_random_parabolic_past_the_full_matrix(self, c, alpha, grid, unit):
        # no grid on [0.1, 0.7] is an exact progression, so x is folded too
        g = parabolic_map(c) if unit else restrict(parabolic_map(c), 0.1, 0.7)
        assert holder_constant_estimate(g, alpha, grid) == holder_by_offsets(g, alpha, grid)

    @pytest.mark.parametrize("m", [1, 6, 10])
    def test_dyadic_grids_are_exact_progressions(self, m):
        # x_i = i 2^-m, so x_(i+k) - x_i is the float x_k at every i
        x = np.linspace(0, 1, 2 ** m + 1)
        assert smooth._exact_progression(x)
        for k in (1, 2 ** m // 2, 2 ** m):
            assert (x[k:] - x[:-k] == x[k]).all()

    def test_other_grids_take_the_gap_pass(self):
        few_ulps = np.linspace(1.0, 1 + 1000 * 2.0 ** -52, 257)  # test_holder_gaps_of_few_ulps
        for x in (np.linspace(0, 1, 1000), few_ulps, np.linspace(0, 1, 1025) + 2.0 ** -10,
                  np.linspace(0.25, 0.75, 1025), np.linspace(0, 1, 1)):
            assert not smooth._exact_progression(x)

    def test_holder_coincident_points_give_nan(self):
        # on two adjacent floats the grid repeats points, and a pair with
        # equal ends has 0 / 0: the full matrix's max is NaN, and so is the
        # estimate
        b = np.nextafter(1.0, 2.0)
        for df in (lambda x: 1 + x, lambda x: np.where(x > 1, 3.0, 2.0)):
            g = plain_map(lambda x: x, df, 1.0, b)
            for alpha in (1 / 3, 0.5, 1.0):
                for grid in (3, 5, 64, 65, 200):
                    with np.errstate(invalid="ignore"):
                        assert np.isnan(full_matrix_holder(g, alpha, grid))
                        assert np.isnan(holder_constant_estimate(g, alpha, grid))

    def test_holder_nan_derivative_gives_nan(self):
        # Dg is NaN at the middle point alone, so every pair holding it has a
        # NaN ratio, and the maximum is NaN.  log Dg = x elsewhere, so the
        # largest finite ratios, about 1, sit at the widest offsets, which
        # pass over the middle point; a block fold that drops NaN (np.fmax)
        # would bound the offsets through it below 1 and skip them
        g = plain_map(lambda x: x,
                      lambda x: np.where(x == 0.5, np.nan, np.exp(x)), 0.0, 1.0)
        for alpha in (1 / 3, 0.5):
            for grid in (65, 1025, 4097):
                assert np.isnan(holder_constant_estimate(g, alpha, grid)), (alpha, grid)
                assert np.isnan(holder_by_offsets(g, alpha, grid))
            assert np.isnan(full_matrix_holder(g, alpha, 1025))

    def test_holder_gaps_of_few_ulps(self):
        # on 1000 ulps of 1.0 the grid's gaps differ by whole ulps, so an
        # offset's bound M_k / G_k^alpha can exceed its ratios by 1/(4k);
        # with alpha near 1 the largest ratio (at the widest pair) then sits
        # below the bound of a narrower offset, and only the stop rule
        # against the exact ratios finds it
        g = plain_map(lambda x: x, lambda x: np.exp((x - 1) * 2.0 ** 40),
                      1.0, 1 + 1000 * 2.0 ** -52)
        for alpha in (1 / 3, 0.5, 0.99, 0.999, 1.0):
            for grid in (65, 200, 257):
                got = holder_constant_estimate(g, alpha, grid)
                assert got == full_matrix_holder(g, alpha, grid), (alpha, grid)

    @pytest.mark.parametrize("name", sorted(EXACT_MAPS))
    def test_images_share_endpoints(self, name):
        # the right end of g^(k-1) J and the left end of g^k J are one float
        g, k_max = EXACT_MAPS[name]
        for k in (*BLOCK_EDGES, k_max):
            _, ends = smooth._domain_orbit(g, k)
            bits = ends.view(np.int64)
            assert np.array_equal(bits[1:, 0], bits[:-1, 1]), k

    @pytest.mark.parametrize("name", sorted(EXACT_MAPS))
    def test_orbit_matches_per_step_oracle(self, name):
        g, k_max = EXACT_MAPS[name]
        for k in (*BLOCK_EDGES, k_max):
            variation, ends = smooth._domain_orbit(g, k)
            want_variation, want_ends = domain_orbit(g, k)
            assert variation.tobytes() == want_variation.tobytes(), k
            assert ends.tobytes() == want_ends.tobytes(), k
        if name != "identity":  # whose x0 is fixed
            sums = check(g, 0.5, k_max).partial_sums
            assert sums == tuple(np.cumsum(np.abs(np.diff(want_ends[:-1], axis=1)[:, 0])))

    @given(
        st.floats(0.05, 3.9),
        st.floats(0.05, 1.0),
        st.one_of(st.integers(2, 300), st.sampled_from([2, 63, 64, 65, 127, 129])),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_parabolic(self, c, alpha, grid):
        for g in (parabolic_map(c), renormalize(restrict(parabolic_map(c), 0.1, 0.7))):
            got = holder_constant_estimate(g, alpha, grid)
            assert got == full_matrix_holder(g, alpha, grid)
            variation, ends = smooth._domain_orbit(g, 40)
            want_variation, want_ends = domain_orbit(g, 40)
            assert variation.tobytes() == want_variation.tobytes()
            assert ends.tobytes() == want_ends.tobytes()


def translate_out(n):
    """J = [1/2, 1/2 + 1/512] moves right by 1/512 a step on
    I = [1/2 - (2n + 1)/1024, 1/2 + (2n + 1)/1024], on exact binary
    fractions, so the right end of J lies strictly inside I up to step n - 1
    and first leaves it at step n; log Dg varies across J."""
    return plain_map(lambda x: x + 1 / 512, lambda x: 1 + x * x,
                     0.5 - (2 * n + 1) / 1024, 0.5 + (2 * n + 1) / 1024)


def counting(g):
    """g with a counter of its ``f`` calls, which starts at 0."""
    calls = []

    def f(x, out=None):
        calls.append(1)
        return g.f(x, out=out)

    wrapped = SmoothMap(f, g.df, g.a, g.b, g.fixed_points)
    calls.clear()
    return wrapped, calls


class TestOrbitBlocks:
    @pytest.mark.parametrize("c", [0.05, 1.0, 3.9])
    def test_parabolic_orbit_is_never_clipped(self, c):
        # g(x0) once, then one call a step: no block is taken a second time
        for k_max in (1, *BLOCK_EDGES, 750):
            g, calls = counting(parabolic_map(c))
            smooth._domain_orbit(g, k_max)
            assert len(calls) == k_max + 1, k_max

    # the first step of the second block, its middle and its last step
    @pytest.mark.parametrize("n", [smooth.ORBIT_BLOCK_STEPS + 1, 200,
                                   2 * smooth.ORBIT_BLOCK_STEPS])
    def test_orbit_leaving_in_a_later_block(self, n):
        for k_max in (n - 1, n, 2 * smooth.ORBIT_BLOCK_STEPS + 1, 3 * smooth.ORBIT_BLOCK_STEPS):
            g, calls = counting(translate_out(n))
            variation, ends = smooth._domain_orbit(g, k_max)
            # only the blocks from the one holding step n on are taken again
            assert len(calls) > k_max + 1 if k_max >= n else len(calls) == k_max + 1
            want_variation, want_ends = domain_orbit(g, k_max)
            assert np.array_equal(variation.view(np.int64), want_variation.view(np.int64))
            assert np.array_equal(ends.view(np.int64), want_ends.view(np.int64))
        assert ends[n - 1, 1] < g.b and (ends[n:, 1] == g.b).all()

    def test_orbit_onto_a_zero_end_is_clipped(self):
        # positions that land on -0.0 at a = 0.0 are clipped to +0.0, the
        # float np.maximum(-0.0, 0.0) gives; np.clip keeps -0.0, which
        # equals it as a value but not as bits, so an oracle that clips
        # with np.clip fails the bit comparison
        g = plain_map(lambda x: np.where(x < 0.2, -0.0, x - 1 / 8),
                      lambda x: 1 + x * x, 0.0, 1.0)
        for k_max in (10, *BLOCK_EDGES):
            variation, ends = smooth._domain_orbit(g, k_max)
            want_variation, want_ends = domain_orbit(g, k_max)
            assert variation.tobytes() == want_variation.tobytes()
            assert ends.tobytes() == want_ends.tobytes()
            assert (ends[5:] == 0).all() and not np.signbit(ends).any()
            _, clipped_ends = domain_orbit(g, k_max, clip=np.clip)
            assert np.array_equal(ends, clipped_ends)
            assert ends.tobytes() != clipped_ends.tobytes()


def plain_parabolic(c):
    """The parabolic map and its derivative as plain expressions."""
    return (lambda x: x + c * x ** 2 * (1 - x) ** 2,
            lambda x: 1 + 2 * c * x * (1 - x) * (1 - 2 * x))


# zeros of both signs, the ends of I, subnormals, points outside [0, 1],
# and two points where an np.float64 square by ** 2 (libm pow) and by a
# product differ by one ulp, which moves g at c = 1: x ** 2 at the first,
# (1 - x) ** 2 at the second
SPECIAL_POINTS = (0.0, -0.0, 1.0, 5e-324, -5e-324, 2.0 ** -1030, 1 - 2.0 ** -53,
                  -0.75, 1.5, -3e5, 1e200, 0.2518727338099447, 0.3074938682082511)


def assert_same_bits(got, want):
    assert type(got) is type(want) and np.shape(got) == np.shape(want)
    assert np.array_equal(np.asarray(got).view(np.int64), np.asarray(want).view(np.int64))


class TestParabolicInPlace:
    @given(
        st.floats(0, 4, exclude_min=True, exclude_max=True),
        st.lists(st.one_of(st.sampled_from(SPECIAL_POINTS), st.floats(-1, 2),
                           st.floats(allow_nan=False)), min_size=1, max_size=30),
    )
    @example(1.0, list(SPECIAL_POINTS))
    @settings(max_examples=40, deadline=None)
    def test_matches_plain_expressions(self, c, values):
        g = parabolic_map(c)
        f, df = plain_parabolic(c)
        x = np.array(values)
        row = np.resize(x, 257)
        block = np.resize(x, (smooth.ORBIT_BLOCK_STEPS, 257))
        with np.errstate(all="ignore"):
            for arg in (x, row, block, *map(np.float64, values)):
                for got, want in ((g.f, f), (g.df, df)):
                    before = arg.copy()
                    assert_same_bits(got(arg), want(arg))
                    assert_same_bits(arg, before)  # the input is left as it was
                    if np.ndim(arg):  # the orbit's form: into a given array
                        out = np.full_like(arg, np.nan)
                        assert got(arg, out=out) is out
                        assert_same_bits(out, want(arg))
                        assert_same_bits(arg, before)

    @pytest.mark.parametrize("c", [0.05, 0.6, 1.0, 2.5, 3.9])
    def test_orbit_rows_match_the_iterated_expression(self, c):
        # the orbit's calling pattern: each row of one 2-D array written
        # from the row before, over two blocks and a step, from the special
        # points and from points of J = [1/2, g(1/2)]
        g = parabolic_map(c)
        want_f, _ = plain_parabolic(c)
        steps = 2 * smooth.ORBIT_BLOCK_STEPS + 1
        rows = np.empty((steps + 1, 257))
        rows[0] = np.resize([*SPECIAL_POINTS, *np.linspace(0.5, want_f(0.5), 200)], 257)
        want = rows[0].copy()
        with np.errstate(all="ignore"):
            for k in range(steps):
                out = rows[k + 1]
                assert g.f(rows[k], out=out) is out
                want = want_f(want)
                assert_same_bits(out, want)

    @pytest.mark.parametrize("c", [0.6, 1.0, 3.9])
    def test_no_state_between_calls(self, c):
        # block, row and scalar calls, in both orders, each give the plain
        # expression's floats, and no later call changes an earlier result;
        # the scalar path stays np.float64
        want_f, _ = plain_parabolic(c)
        calls = []
        for points in (SPECIAL_POINTS, SPECIAL_POINTS[::-1]):
            row = np.resize(np.array(points), 257)
            block = np.resize(row, (smooth.ORBIT_BLOCK_STEPS, 257))
            calls += [(block, False), (block, True), (row, False), (row, True),
                      *((np.float64(x), False) for x in points[-2:])]
        with np.errstate(all="ignore"):
            for order in (calls, calls[::-1]):
                g = parabolic_map(c)
                results = [(arg, g.f(arg, out=np.empty_like(arg) if out else None))
                           for arg, out in order]
                for arg, got in results:
                    assert_same_bits(got, want_f(arg))
        assert type(parabolic_map(c).f(np.float64(0.3))) is np.float64


def translate_then_kink(n):
    """J = [1/2, 1/2 + 1/512] moves right by 1/512 a step, on exact binary
    fractions; the derivative is 0 at the one point 1/2 + n/512, which the
    right end of J reaches after n - 1 steps, so step n meets it."""
    kink = 0.5 + n / 512
    return plain_map(
        lambda x: x + 1 / 512,
        lambda x: np.where(x == kink, 0.0, 1.0),
        0.0,
        1.0,
    )


class TestPositivity:
    def test_negative_derivative_from_the_start(self):
        g = plain_map(lambda x: 1 - x, lambda x: -np.ones_like(x), 0.0, 1.0)
        for run in (
            lambda: smooth._domain_orbit(g, 5),
            lambda: holder_constant_estimate(g, 0.5),
            lambda: domain_orbit(g, 5),
        ):
            with pytest.raises(ValueError, match="derivative must stay positive"):
                run()

    def test_zero_derivative_reached_later(self):
        g = translate_then_kink(21)
        rep = fundamental_domain_check(g, 0.5, 0.0, 20)
        assert (wandering_steps(g, 20) >= 0).all() and rep.partial_sums[-1] == 20 / 512
        for run in (lambda: fundamental_domain_check(g, 0.5, 0.0, 21),
                    lambda: domain_orbit(g, 21)):
            with pytest.raises(ValueError, match="derivative must stay positive"):
                run()

    # the zero derivative at the first step of the first and second blocks,
    # at the last step of the first and in the middle of the second (step 21,
    # in the middle of the first, is the test above)
    @pytest.mark.parametrize("n", [1, smooth.ORBIT_BLOCK_STEPS,
                                   smooth.ORBIT_BLOCK_STEPS + 1, 200])
    def test_zero_derivative_at_block_positions(self, n):
        g = translate_then_kink(n)
        if n > 1:
            rep = fundamental_domain_check(g, 0.5, 0.0, n - 1)
            assert (wandering_steps(g, n - 1) >= 0).all()
            assert rep.partial_sums[-1] == (n - 1) / 512
        for k_max in (n, n + 1, 2 * smooth.ORBIT_BLOCK_STEPS):
            for run in (lambda: smooth._domain_orbit(g, k_max),
                        lambda: fundamental_domain_check(g, 0.5, 0.0, k_max)):
                with pytest.raises(ValueError, match="derivative must stay positive"):
                    run()


def test_holder_memory_is_blockwise():
    # no array of grid^2 floats: 8.4 MB at 1025 points, 134 MB at 4097
    g = parabolic_map(1.0)
    for grid, bound in ((1025, 4_000_000), (4097, 1_500_000)):
        tracemalloc.start()
        try:
            holder_constant_estimate(g, 0.5, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound, grid


def test_orbit_memory_is_blockwise():
    # the positions and the log products of one block, and one block-sized
    # temporary of the derivative: 0.85 MB at k_max 750
    g = parabolic_map(1.0)
    tracemalloc.start()
    try:
        smooth._domain_orbit(g, 750)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
