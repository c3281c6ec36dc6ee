import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from critreg import smooth
from critreg.smooth import (
    HyperbolicFixedPointError,
    SmoothMap,
    growth_bound_check,
    doubling_fixed_point_map,
    holder_constant_estimate,
    parabolic_map,
    blowup_scan,
    wandering_sum_check,
)

from oracles import (
    affine_map,
    identity_map,
    mobius_contraction_map,
    renormalize,
    restrict,
)


class TestHolder:
    def test_identity_zero(self):
        assert holder_constant_estimate(identity_map(), 0.5).constant == 0.0

    def test_quarter_parabola_bound(self):
        g = SmoothMap("q", lambda x: x + x ** 2 / 4, lambda x: 1 + x / 2, 0, 1, (0.0,))
        est = holder_constant_estimate(g, 0.5)
        assert est.constant <= 0.5

    def test_monotone_in_refinement(self):
        g = parabolic_map(2.0)
        c1 = holder_constant_estimate(g, 0.5, grid=129).constant
        c2 = holder_constant_estimate(g, 0.5, grid=513).constant
        assert c2 >= c1 - 1e-15

    @given(st.floats(0.05, 0.6), st.floats(0.2, 0.39))
    @settings(max_examples=15, deadline=None)
    def test_renormalization_identity(self, a, width):
        g = restrict(parabolic_map(1.0), a, a + width)
        c = holder_constant_estimate(g, 0.5).constant
        c_unit = holder_constant_estimate(renormalize(g), 0.5).constant
        assert abs(c_unit - c * width ** 0.5) < 1e-8


class TestGrowthBound:
    def test_identity_trivially_passes(self):
        g = identity_map()
        rep = growth_bound_check(g, 0.5, 50)
        assert rep.all_pass and rep.c_g == 0.0

    def test_parabolic_family_passes(self):
        for c in (0.5, 1.0, 2.0):
            for alpha in (1 / 3, 1 / 2):
                rep = growth_bound_check(parabolic_map(c), alpha, 2000)
                assert rep.all_pass, (c, alpha, rep.first_failure)

    def test_hyperbolic_fixed_point_rejected(self):
        g = SmoothMap(
            "hyp", lambda x: x + x * (1 - x) / 4, lambda x: 1 + (1 - 2 * x) / 4,
            0.0, 1.0, (0.0, 1.0),
        )
        with pytest.raises(HyperbolicFixedPointError):
            growth_bound_check(g, 0.5, 10)

    def test_exponent_range_checked(self):
        with pytest.raises(ValueError):
            growth_bound_check(parabolic_map(1.0), 1.0, 10)


class TestScan:
    def test_identity_empty(self):
        assert blowup_scan(identity_map(), 100) == []

    def test_doubling_all_k(self):
        ks = blowup_scan(doubling_fixed_point_map(), 300)
        assert ks == list(range(1, 301))

    def test_parabolic_eventually_nonempty(self):
        # parabolic maps stay below the line for small k; the scan just
        # reports whatever the grid shows, and for c=2 the early iterates
        # already clear small thresholds
        ks = blowup_scan(parabolic_map(2.0), 50)
        assert isinstance(ks, list)


class TestWandering:
    def test_parabolic_partial_sums(self):
        rep = wandering_sum_check(parabolic_map(1.0), 0.5, 500)
        assert rep.disjoint
        assert rep.within_interval
        sums = rep.partial_sums
        assert all(a <= b + 1e-15 for a, b in zip(sums, sums[1:]))

    def test_contraction_telescopes(self):
        g = mobius_contraction_map()
        rep = wandering_sum_check(g, 0.5, 60)
        assert rep.disjoint and rep.within_interval
        # backward images share endpoints, so the sum telescopes:
        # sum_k |g^-k(J)| = g^-K(x0) - x0, and preimages approach 1
        x = 0.5
        for _ in range(60):
            x = 2 * x / (1 + x)  # inverse of the contraction
        assert abs(rep.final_sum - (x - 0.5)) < 1e-9

    def test_fixed_point_rejected(self):
        with pytest.raises(ValueError):
            wandering_sum_check(parabolic_map(1.0), 0.0, 10)


class TestMapValidation:
    def test_declared_fixed_point_must_be_fixed(self):
        with pytest.raises(ValueError):
            SmoothMap("bad", lambda x: x + 0.5, lambda x: np.ones_like(x), 0, 1, (0.0,))

    def test_restrict_guard(self):
        with pytest.raises(ValueError):
            restrict(parabolic_map(1.0), 0.5, 1.5)

    def test_parabolic_parameter_guard(self):
        with pytest.raises(ValueError):
            parabolic_map(5.0)


# ---------------------------------------------------------------------------
# exactness against the plain computations: full pair matrix, full-grid
# sweep, bisection on np.float64; results must agree bit for bit
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


def full_grid_sweep(g, k_max, grid):
    x = g.grid(grid)
    logprod = np.zeros_like(x)
    out = np.empty(k_max)
    for k in range(k_max):
        d = g.df(x)
        if np.any(d <= 0):
            raise ValueError("derivative must stay positive")
        logprod += np.log(d)
        out[k] = logprod.max()
        x = np.clip(g.f(x), g.a, g.b)
    return out


def float64_invert(g, y, tol=1e-14):
    lo, hi = g.a, g.b
    if float(g.f(np.float64(lo))) >= y:
        return lo
    if float(g.f(np.float64(hi))) <= y:
        return hi
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if float(g.f(np.float64(mid))) < y:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# (map, sweep length): affine(0.5) and the contraction need about 1075
# steps before their orbits underflow and merge
EXACT_MAPS = {
    "parabolic-0.5": (parabolic_map(0.5), 300),
    "parabolic-1": (parabolic_map(1.0), 300),
    "parabolic-2.5": (parabolic_map(2.5), 300),
    "doubling": (doubling_fixed_point_map(), 300),
    "contraction": (mobius_contraction_map(), 1200),
    "affine-0.5": (affine_map(0.5), 1200),
    "identity": (identity_map(), 100),
    # orbits pile up at one end with different log-products, the largest in
    # the pile: a merge that keeps the wrong value or the wrong orbit shows
    "doubling-restricted": (
        renormalize(restrict(doubling_fixed_point_map(), 0.5, 1.0)), 300),
    "contraction-restricted": (
        renormalize(restrict(mobius_contraction_map(), 0.0, 0.5)), 1200),
}


def orbit_counts(monkeypatch):
    """Record the orbit count after every merge of the sweep."""
    counts = []
    merge = smooth._merge_equal_orbits

    def spy(x, logprod):
        x, logprod = merge(x, logprod)
        counts.append(len(x))
        return x, logprod

    monkeypatch.setattr(smooth, "_merge_equal_orbits", spy)
    return counts


class TestExactness:
    @pytest.mark.parametrize("name", sorted(EXACT_MAPS))
    def test_holder_matches_full_matrix(self, name):
        g, _ = EXACT_MAPS[name]
        for alpha in (1 / 3, 0.5, 2 / 3, 1.0):
            for grid in (2, 3, 64, 65, 200, 1025):
                got = holder_constant_estimate(g, alpha, grid).constant
                assert got == full_matrix_holder(g, alpha, grid), (alpha, grid)

    @pytest.mark.parametrize("name", sorted(EXACT_MAPS))
    def test_sweep_matches_full_grid(self, name):
        g, k_max = EXACT_MAPS[name]
        for grid in (2, 257, 4097):
            got = smooth._log_derivative_sweep(g, k_max, grid)
            assert np.array_equal(got, full_grid_sweep(g, k_max, grid)), grid

    @pytest.mark.parametrize("name", ["doubling", "contraction", "affine-0.5",
                                      "doubling-restricted", "contraction-restricted"])
    def test_sweep_merges_these_orbits(self, name, monkeypatch):
        g, k_max = EXACT_MAPS[name]
        counts = orbit_counts(monkeypatch)
        smooth._log_derivative_sweep(g, k_max, 4097)
        assert counts[-1] < 4097 // 2

    def test_doubling_collapses_early(self, monkeypatch):
        counts = orbit_counts(monkeypatch)
        smooth._log_derivative_sweep(doubling_fixed_point_map(), 750, 4097)
        assert counts[80 // smooth.MERGE_EVERY - 1] == 3  # after step 80

    @pytest.mark.parametrize("name", sorted(EXACT_MAPS))
    def test_bisection_matches_float64(self, name):
        g, _ = EXACT_MAPS[name]
        for y in np.linspace(g.a, g.b, 41)[1:-1]:
            assert smooth._invert(g, float(y)) == float64_invert(g, float(y))

    def test_wandering_report_matches_float64_bisection(self, monkeypatch):
        g = parabolic_map(1.0)
        got = wandering_sum_check(g, 0.5, 300)
        monkeypatch.setattr(smooth, "_invert", float64_invert)
        assert got == wandering_sum_check(g, 0.5, 300)

    @given(
        st.floats(0.05, 3.9),
        st.floats(0.05, 1.0),
        st.one_of(st.integers(2, 300), st.sampled_from([2, 63, 64, 65, 127, 129])),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_parabolic(self, c, alpha, grid):
        for g in (parabolic_map(c), renormalize(restrict(parabolic_map(c), 0.1, 0.7))):
            got = holder_constant_estimate(g, alpha, grid).constant
            assert got == full_matrix_holder(g, alpha, grid)
            got = smooth._log_derivative_sweep(g, 40, grid)
            assert np.array_equal(got, full_grid_sweep(g, 40, grid))


# orbits of [0, 1/2] collapse onto P in one step and then move right by
# 1/512 a step; grid orbits stay on multiples of 1/4096 and never meet P's
# orbit, whose 20th point is the one place where the derivative is 0
P = 0.5 + 2.0 ** -13
KINK = P + 20 / 512
COLLAPSE_THEN_KINK = SmoothMap(
    "collapse-then-kink",
    lambda x: np.maximum(x, P) + 1 / 512,
    lambda x: np.where(x == KINK, 0.0, 1.0),
    0.0,
    1.0,
)


class TestPositivity:
    def test_negative_derivative_from_the_start(self):
        g = SmoothMap("flip", lambda x: 1 - x, lambda x: -np.ones_like(x), 0.0, 1.0)
        for run in (
            lambda: blowup_scan(g, 5),
            lambda: holder_constant_estimate(g, 0.5),
            lambda: full_grid_sweep(g, 5, 4097),
        ):
            with pytest.raises(ValueError, match="derivative must stay positive"):
                run()

    def test_zero_derivative_reached_after_merging(self, monkeypatch):
        g = COLLAPSE_THEN_KINK
        counts = orbit_counts(monkeypatch)
        assert np.array_equal(
            smooth._log_derivative_sweep(g, 20, 4097), full_grid_sweep(g, 20, 4097)
        )
        assert counts[0] < 4097 // 2  # merged at step MERGE_EVERY < 21
        for sweep in (smooth._log_derivative_sweep, full_grid_sweep):
            with pytest.raises(ValueError, match="derivative must stay positive"):
                sweep(g, 21, 4097)


def test_holder_memory_is_blockwise():
    g = parabolic_map(1.0)
    tracemalloc.start()
    try:
        holder_constant_estimate(g, 0.5, 1025)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000
