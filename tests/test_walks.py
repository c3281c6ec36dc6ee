import contextlib
import io
import json
import math
import re
import random
import sys
from fractions import Fraction
from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from critreg.lattice import (
    MARGIN,
    Axis,
    Box,
    ProductFamily,
    Segment,
    TableFamily,
    geometric_axis,
    geometric_family,
    log2_parts,
    sphere_constant,
    symmetric_geometric_family,
    weights_le,
)
from critreg import cli, walks
from critreg.walks import (
    COST_REL_TOL,
    BatchSummary,
    _first_unreached,
    batch_certificates,
    cost_bound,
    lemma_bound,
    log2_weights,
)

from oracles import (
    OracleSizeError,
    WalkKernel,
    arrival_distribution,
    box_points,
    brute_min_cost,
    certified_mean_argmax,
    enumerate_min_cost,
    geodesic,
    scaled_axis,
    shared_cost_line,
    sphere_points,
    transition_distribution,
    uniform_box_family,
)


class TestKernel:
    def test_origin_uniform(self):
        probs = dict(transition_distribution(WalkKernel(3), (0, 0, 0)))
        assert probs == {0: Fraction(1, 3), 1: Fraction(1, 3), 2: Fraction(1, 3)}

    def test_weighted_state(self):
        probs = dict(transition_distribution(WalkKernel(2), (2, 0)))
        assert probs == {0: Fraction(3, 4), 1: Fraction(1, 4)}

    def test_one_dimensional(self):
        assert transition_distribution(WalkKernel(1), (7,)) == [(0, Fraction(1))]

    def test_negative_coordinate_rejected(self):
        with pytest.raises(ValueError):
            transition_distribution(WalkKernel(2), (-1, 0))

    @given(st.tuples(st.integers(0, 50), st.integers(0, 50), st.integers(0, 50)))
    @settings(max_examples=200, deadline=None)
    def test_stochastic(self, state):
        probs = transition_distribution(WalkKernel(3), state)
        assert sum(p for _, p in probs) == 1

    def test_stochastic_bulk(self):
        rng = random.Random(0)
        k = WalkKernel(3)
        for _ in range(10_000):
            state = tuple(rng.randint(0, 10 ** 6) for _ in range(3))
            assert sum(p for _, p in transition_distribution(k, state)) == 1


def brute_arrival(d, n):
    """Independent oracle: enumerate all d^n direction words with their
    exact kernel probabilities."""
    out: dict = {}
    for word in product(range(d), repeat=n):
        state = [0] * d
        p = Fraction(1)
        for t, j in enumerate(word):
            p *= Fraction(1 + state[j], t + d)
            state[j] += 1
        key = tuple(state)
        out[key] = out.get(key, Fraction(0)) + p
    return out


class TestArrival:
    def test_uniform_on_spheres_small(self):
        for d in (2, 3):
            for n in range(0, 9):
                dist = arrival_distribution(WalkKernel(d), n)
                sizes = {len(dist)}
                (size,) = sizes
                assert all(p == Fraction(1, size) for p in dist.values())

    def test_matches_path_enumeration(self):
        for d, n in ((2, 2), (2, 5), (3, 3)):
            assert arrival_distribution(WalkKernel(d), n) == brute_arrival(d, n)

    def test_one_dimensional_point_mass(self):
        assert arrival_distribution(WalkKernel(1), 7) == {(7,): Fraction(1)}

    def test_size_guard(self):
        with pytest.raises(OracleSizeError):
            arrival_distribution(WalkKernel(6), 150)

    def test_worked_example(self):
        dist = arrival_distribution(WalkKernel(2), 2)
        assert dist == {
            (2, 0): Fraction(1, 3),
            (1, 1): Fraction(1, 3),
            (0, 2): Fraction(1, 3),
        }


def spike_table(d, n, end, weight):
    """Weight 1/20 on every point of coordinate sum at most n, and `weight`
    at `end`.  With weight 2 at d=2, n=5 the total is 3 and B = 9, so only a
    walk ending at `end` breaks the terminal bound: w(end) * 6 = 12 > 9."""
    w = {v: Fraction(1, 20) for r in range(n + 1) for v in sphere_points(d, r)}
    w[end] = Fraction(weight)
    return TableFamily(w)


class TestSampling:
    def test_seed_reproducibility(self):
        fam = simplex_table(2, 40)
        a = batch_certificates(fam, 40, 20, seed=123)
        assert a == batch_certificates(fam, 40, 20, seed=123)
        assert a != batch_certificates(fam, 40, 20, seed=124)

    def test_certify_geometric(self):
        # geometric weights make every path cost the same closed-form sum
        fam = geometric_family(2)
        s = batch_certificates(fam, 100, 20, seed=42)
        assert s.witness == 0
        expected = sum(2.0 ** (-(j + 2) / 2) for j in range(100))
        assert math.isclose(s.witness_cost, expected, rel_tol=1e-9)
        assert s.witness_cost <= s.cost_bound

    def test_uniform_family_trivial(self):
        box = Box(((0, 200), (0, 200)))
        s = batch_certificates(uniform_box_family(box), 4, 5, seed=5)
        assert s.witness == 0 and s.success_fraction == 1.0

    def test_no_certified_sample_means_no_witness(self):
        # the one walk of seed 4 ends on the spike, so it breaks the terminal
        # bound while meeting the cost bound
        d, n, seed = 2, 5, 4
        end = reference_endpoint(d, n, seed)
        s = batch_certificates(spike_table(d, n, end, 2), n, 1, seed)
        assert s.success_fraction == 0.0
        assert s.witness is None and s.witness_cost is None

    def test_witness_is_the_first_certified_sample(self):
        # uneven weights, so path costs differ, and a spike of 100 where
        # sample 0 ends (the total is then about 114, so q = L/2 < 100): the
        # witness is the first sample that ends elsewhere, with its own cost
        d, n, seed, samples = 2, 5, 4, 8
        ends = reference_endpoints(d, n, samples, seed)
        end = ends[0]
        fam = TableFamily({**simplex_table(d, n).table, end: Fraction(100)})
        s = batch_certificates(fam, n, samples, seed)
        assert s.witness == next(i for i, e in enumerate(ends) if e != end) > 0
        assert s.witness_cost == reference_batch_certificates(fam, n, samples, seed).witness_cost
        assert s.success_fraction == sum(e != end for e in ends) / samples

    def test_lemma_bound_exact_branch(self):
        fam = geometric_family(3)
        b_float, b_exact = lemma_bound(fam.total_mass, 3)
        assert b_exact == 6 and b_float == 6.0

    def test_lemma_bound_needs_normal_floats(self):
        # on Z^1, A_1 = 1: L/A_d = L must be a normal float and B = 3L a
        # finite one
        tiny, huge = Fraction(sys.float_info.min), Fraction(sys.float_info.max)
        assert lemma_bound(tiny, 1)[0] == 3.0 * sys.float_info.min
        assert lemma_bound(huge / 4, 1)[0] == float(3 * huge / 4)
        for mass in (tiny * (1 - Fraction(1, 2 ** 60)), huge / 3 * (1 + Fraction(1, 2 ** 60)),
                     Fraction(10) ** 400, Fraction(1, 10 ** 400)):
            with pytest.raises(ValueError, match="^lemma 1's bound B needs L/A_d in the normal"):
                lemma_bound(mass, 1)


def reference_log2_weights(family, pts):
    """The float log2 weights of a point array, a product family's read
    off its closed form at any point, in its support or not: the int64
    exponent e0 - sum rate_k |c_k| plus f0, one rounding per point, where
    e0 sums each axis' offset and integer coef part and f0 its float coef
    part, from (0, 0.0) in axis order.  Any other family by `log2_weights`."""
    if not isinstance(family, ProductFamily):
        return log2_weights(family, pts)
    e0, f0 = 0, 0.0
    for ax in family.axes:
        e0, f0 = e0 + ax.offset + ax.coef_parts[0], f0 + ax.coef_parts[1]
    return (e0 - np.abs(pts) @ np.array([ax.rate for ax in family.axes])) + f0


def reference_batch_certificates(family, n, samples, seed, mean_slack=1.05):
    """The lockstep pass as it was before its state was kept by axis: one
    cumsum and argmax per step, an exact Fraction per terminal weight, and
    the witness found by scanning the samples in order.  Every walk on an
    equal-rate product family costs the same, and that one cost is the mean."""
    d = family.d
    rng = np.random.default_rng(seed)
    counts = np.zeros((samples, d), dtype=np.int64)
    costs = np.zeros(samples)
    for t in range(n):
        costs += np.exp2(reference_log2_weights(family, counts) / d)
        r = rng.integers(0, t + d, size=samples)
        cum = np.cumsum(counts + 1, axis=1)
        j = np.argmax(r[:, None] < cum, axis=1)
        counts[np.arange(samples), j] += 1
    b_float, b_exact = lemma_bound(family.total_mass, d)
    cb = cost_bound(b_float, d, n)
    first = costs <= cb * (1.0 + COST_REL_TOL)
    rhs = b_exact
    second = np.fromiter(
        (
            family.weight(tuple(int(c) for c in row)) * (n + 1) ** (d - 1) <= rhs
            for row in counts
        ),
        dtype=bool,
        count=samples,
    )
    mean_bound = float(family.total_mass / sphere_constant(d)) ** (1.0 / d)
    mean_bound *= math.log2(n + 1) ** (1.0 - 1.0 / d) * mean_slack
    witness = next((i for i in range(samples) if first[i] and second[i]), None)
    decided = isinstance(family, ProductFamily) and len({ax.rate for ax in family.axes}) == 1
    return BatchSummary(
        success_fraction=float(np.mean(first & second)),
        mean_cost=float(costs[0] if decided else np.mean(costs)),
        mean_cost_bound=mean_bound,
        cost_bound=cb,
        bound_b=b_float,
        witness=witness,
        witness_cost=None if witness is None else float(costs[witness]),
    )


def reference_endpoints(d, n, samples, seed):
    """Endpoints of the walks of a pass, in sample order, by the reference steps."""
    rng = np.random.default_rng(seed)
    counts = np.zeros((samples, d), dtype=np.int64)
    for t in range(n):
        r = rng.integers(0, t + d, size=samples)
        j = np.argmax(r[:, None] < np.cumsum(counts + 1, axis=1), axis=1)
        counts[np.arange(samples), j] += 1
    return [tuple(int(c) for c in row) for row in counts]


def reference_endpoint(d, n, seed):
    """Endpoint of the single walk of a one-sample pass."""
    return reference_endpoints(d, n, 1, seed)[0]


def simplex_table(d, radius):
    """Table weights on the points of coordinate sum at most radius, uneven
    within each sphere and decaying across spheres like the geometric family."""
    return TableFamily({
        v: Fraction(1 + sum((2 * k + 3) * c for k, c in enumerate(v)) % 7, 2 ** sum(v))
        for r in range(radius + 1)
        for v in sphere_points(d, r)
    })


def unequal_rate_family(d):
    """A scaled product family whose axes alternate rates 1 and 2 (at d = 1
    only rate 1), so the weight on the orthant is not a function of |v| and
    path costs differ."""
    five_thirds = Fraction(5, 3)
    steep = Axis(0, math.inf, five_thirds, log2_parts(five_thirds), 3, 2)
    axes = [geometric_axis() if k % 2 == 0 else steep for k in range(d)]
    return ProductFamily([scaled_axis(axes[0], Fraction(2, 7)), *axes[1:]])


def batch_families(d, n):
    """The families of the oracle grid; the finite ones hold every walk of
    length n.  All but the table and the unequal-rate family have one rate
    on every axis.  The table family is left out where its simplex would
    exceed about 2 * 10^4 points (d >= 3 at n = 200).  They are built here,
    not drawn from `oracles.FAMILIES`, whose finite families are fixed and
    would not hold every walk's simplex."""
    fams = {
        "geometric": geometric_family(d),
        "symmetric-geometric": symmetric_geometric_family(d),
        "uniform": uniform_box_family(Box(((0, n),) * d)),
        "unequal-rates": unequal_rate_family(d),
    }
    if math.comb(n + d, d) <= 25_000:
        fams["table"] = simplex_table(d, n)
    return fams


def raising(name):
    def fail(*args, **kwargs):
        raise AssertionError(f"{name} ran")
    return fail


class TestBatch:
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    @pytest.mark.parametrize("n", [0, 1, 7, 200])
    def test_matches_reference_bitwise(self, d, n):
        # walks of length 0 are refused, as the CLI refuses n_max 0
        for name, fam in batch_families(d, n).items():
            for samples in (1, 3, 250):
                for seed in (0, 11, 2024):
                    if n == 0:
                        with pytest.raises(ValueError, match=r"^a batch needs n >= 1 and "
                                           rf"samples >= 1, got 0 and {samples}$"):
                            batch_certificates(fam, n, samples, seed)
                        continue
                    got = batch_certificates(fam, n, samples, seed)
                    want = reference_batch_certificates(fam, n, samples, seed)
                    # record equality compares every field, floats by ==
                    assert got == want, (name, samples, seed)

    def test_a_batch_of_no_samples_is_refused(self):
        # as the CLI refuses samples 0: the decided pass would report a
        # witness that was never drawn, and the stepped pass divides by 0
        for fam in batch_families(2, 7).values():
            with pytest.raises(ValueError, match=r"^a batch needs n >= 1 and samples >= 1, "
                               r"got 7 and 0$"):
                batch_certificates(fam, 7, 0, 1)

    def test_exact_mass_is_read_once_per_batch(self):
        # a table's mass sums every weight; the bound B and the mean cost
        # bound share that one sum
        for fam in batch_families(2, 7).values():
            cls = type(fam)
            real = cls.total_mass.fget(fam)
            with mock.patch.object(cls, "total_mass", new_callable=mock.PropertyMock,
                                   return_value=real) as mass:
                got = batch_certificates(fam, 7, 3, 11)
            assert mass.call_count == 1, fam
            assert got == reference_batch_certificates(fam, 7, 3, 11)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_pass_follows_the_family_rates(self, d):
        # equal-rate product families are decided from one endpoint and
        # draw nothing; tables and unequal rates step every sample.  The
        # code that must not run raises.
        n = 7
        fams = batch_families(d, n)
        decided = [fams[name] for name in ("geometric", "symmetric-geometric", "uniform")]
        stepped = [fams["table"]] + ([fams["unequal-rates"]] if d > 1 else [])
        decided_ends = []
        real = walks.weights_le

        def spy(family, points, q):
            if family in decided:
                decided_ends.append(points)
            return real(family, points, q)

        for families, blocked in ((decided, "_sample_pass"), (stepped, "_shared_cost")):
            with mock.patch.object(walks, blocked, raising(blocked)), \
                    mock.patch.object(walks, "weights_le", spy):
                for fam in families:
                    args = (fam, n, 3, 11)
                    assert batch_certificates(*args) == reference_batch_certificates(*args), fam
        # a decided batch is decided at the one endpoint (n, 0, ..., 0)
        assert decided_ends == [[[n] + [0] * (d - 1)]] * len(decided)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_decided_summary_does_not_depend_on_samples(self, d):
        # a decided batch reports its one cost as its mean: two sample
        # counts give the same summary
        for fam in (geometric_family(d), symmetric_geometric_family(d)):
            for n in (20, 100, 316):
                few, many = (batch_certificates(fam, n, samples, 1) for samples in (100, 10000))
                assert few == many, (fam, n)
                assert few.mean_cost == walks._shared_cost(fam, n)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_spheres_have_one_weight_on_equal_rate_families(self, d):
        # the premise of the decided pass: on the orthant an equal-rate
        # product family weighs every point of a sphere |v| = n alike, in
        # exact and in split form
        steep = Axis(0, math.inf, Fraction(5, 3), log2_parts(Fraction(5, 3)), 3, 2)
        fams = (geometric_family(d), symmetric_geometric_family(d),
                ProductFamily([scaled_axis(steep, Fraction(2, 7)), *[steep] * (d - 1)]))
        for fam in fams:
            for n in range(9):
                points = list(sphere_points(d, n))
                assert len({fam.weight(v) for v in points}) == 1, (fam, n)
                assert len({fam.weight_log2_parts(v) for v in points}) == 1, (fam, n)

    @pytest.mark.parametrize("side", ["cost", "terminal"])
    def test_decided_batch_can_fail(self, side, tmp_path):
        # a bound that one side cannot meet fails every sample of a decided
        # batch, and the lemma1 kind exits 2
        real = walks.lemma_bound

        def lowered(mass, d):
            b_float, b_exact = real(mass, d)
            if side == "cost":
                return b_float / 1e6, b_exact
            return b_float, b_exact / 2 ** 100

        argv = "lemma1 --d 3 --n-max 50 --samples 20 --seed 1 --out".split()
        with mock.patch.object(walks, "lemma_bound", lowered), \
                mock.patch.object(walks, "_sample_pass", raising("_sample_pass")):
            for fam in (geometric_family(3), symmetric_geometric_family(2)):
                s = batch_certificates(fam, 50, 20, seed=1)
                # only the lowered side fails: the shared cost meets its
                # bound unless that bound was lowered
                assert (s.mean_cost > s.cost_bound) == (side == "cost")
                assert s.success_fraction == 0.0
                assert s.witness is None and s.witness_cost is None
            assert cli.main([*argv, str(tmp_path / side)]) == 2
        # unpatched, the same line passes every row
        assert cli.main([*argv, str(tmp_path / "real")]) == 0

    @pytest.mark.parametrize("above", [False, True])
    def test_terminal_tie_is_decided_exactly(self, above):
        # d=2, n=5: the endpoint e carries half the mass plus `excess`, so
        # L = 2 + excess >= 1 puts B on its exact branch 3L, and
        # w(e) * 6 <= B  iff  excess <= 0.  The split log2 forms of w(e) and
        # B/6 coincide, so only the exact fallback decides.
        d, n, seed = 2, 5, 4
        excess = Fraction(1, 2 ** 60) if above else Fraction(0)
        end = reference_endpoint(d, n, seed)
        fam = spike_table(d, n, end, 1 + excess)
        b_float, b_exact = lemma_bound(fam.total_mass, d)
        assert b_exact == 3 * fam.total_mass
        q = b_exact / (n + 1) ** (d - 1)
        assert fam.weight_log2_parts(end) == log2_parts(q)
        got = batch_certificates(fam, n, 1, seed)
        assert got == reference_batch_certificates(fam, n, 1, seed)
        assert got.success_fraction == (0.0 if above else 1.0)

    @pytest.mark.parametrize("above", [False, True])
    @pytest.mark.parametrize("d,seed", [(2, 4), (3, 0)])
    def test_product_terminal_tie_is_decided_exactly(self, d, seed, above):
        # the terminal decision on a product family at w(end) = B / 6^(d-1),
        # and at 1/(1 - 2^-60) times it, where only the exact weight decides.
        # A product family whose support holds every walk weighs an endpoint
        # at most L / (n+1) < B / 6^(d-1) at d = 2, so the tie family's
        # support is the one point on its last axis, which walks leave: the
        # batch raises, and `_summary` decides the reference walk's endpoint
        n = 5
        end = reference_endpoint(d, n, seed)
        fam = tie_family(end, above)
        b_float, b_exact = lemma_bound(fam.total_mass, d)
        assert b_exact == 3 * fam.total_mass * math.factorial(d - 1)
        q = b_exact / (n + 1) ** (d - 1)
        assert (fam.weight(end) > q) == above
        e, f = fam.weight_log2_parts(end)
        eq, fq = log2_parts(q)
        assert abs((e - eq) + (f - fq)) <= MARGIN
        assert list(weights_le(fam, [end], q)) == [not above]
        with pytest.raises(ValueError, match="outside the family's support"):
            batch_certificates(fam, n, 1, seed)
        want = reference_batch_certificates(fam, n, 1, seed)
        got = walks._summary(fam, n, np.array([want.mean_cost]), np.array([end]))
        assert got == want
        assert got.success_fraction == (0.0 if above else 1.0)

    def test_endpoint_outside_finite_support_raises_as_before(self):
        # a support that a walk of length n can leave raises at every seed,
        # naming the first simplex point it misses, before any draw
        d, n = 2, 7
        families = (
            (simplex_table(d, n - 1), (0, 7)),  # every endpoint is outside
            (uniform_box_family(Box(((0, n - 1), (0, n - 1)))), (0, 7)),  # the axis ends are
            (uniform_box_family(Box(((0, n), (1, n)))), (0, 0)),  # the origin is
        )
        with mock.patch.object(walks, "_sample_pass", raising("_sample_pass")):
            for fam, missing in families:
                for seed in range(6):
                    with pytest.raises(ValueError, match=re.escape(f"reach {missing}, outside")):
                        batch_certificates(fam, n, 50, seed)

    def test_table_that_a_walk_can_leave_raises_at_every_seed(self, tmp_path):
        # the 6x6 table w(i, j) = 2^-(i+j+2) misses (0, 6) at n = 7, though
        # some seeds' walks stay on it; a table that holds exactly the
        # simplex |v| <= 7 steps every seed as the reference does
        n = 7
        square = {(i, j): Fraction(1, 2 ** (i + j + 2)) for i in range(6) for j in range(6)}
        path = tmp_path / "square.json"
        path.write_text(json.dumps({f"{i},{j}": str(w) for (i, j), w in square.items()}))
        simplex = simplex_table(2, n)
        for seed in range(1, 9):
            with pytest.raises(ValueError, match=re.escape("reach (0, 6), outside")):
                batch_certificates(TableFamily(square), n, 3, seed)
            argv = ["lemma1", "--d", "2", "--family", "custom-file", "--family-file", str(path),
                    "--n-max", str(n), "--samples", "3", "--seed", str(seed),
                    "--out", str(tmp_path / f"out-{seed}")]
            with contextlib.redirect_stderr(io.StringIO()):
                assert cli.main(argv) == 1
            args = (simplex, n, 3, seed)
            assert batch_certificates(*args) == reference_batch_certificates(*args)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_first_unreached_point_of_a_product_family(self, d):
        # the product-family rule against the first simplex point outside
        # the support, and against a table on the same box; (0, 5) stops at
        # n - 1, (0, 6) at n, and (1, 6) reaches n but misses 0
        n = 6
        for bounds in product([(0, 2), (0, 4), (0, 5), (0, 6), (-1, 6), (1, 5), (1, 6), (-3, -1)],
                              repeat=d):
            box = Box(bounds)
            want = next((v for r in range(n + 1) for v in sphere_points(d, r)
                         if not box.contains(v)), None)
            assert _first_unreached(uniform_box_family(box), n) == want, bounds
            table = TableFamily({v: Fraction(1) for v in box_points(box)})
            assert _first_unreached(table, n) == want, bounds

    def test_first_unreached_scans_only_where_an_axis_misses_0_to_n(self):
        # axes that all hold [0, n] answer without a scan, whatever n is; an
        # endless axis from 1 is scanned and misses the origin
        with mock.patch.object(walks, "_simplex", raising("_simplex")):
            assert _first_unreached(geometric_family(3), 10 ** 9) is None
            assert _first_unreached(uniform_box_family(Box(((-1, 6), (0, 8)))), 6) is None
        from_one = Axis(1, math.inf, Fraction(1), (0, 0.0), -1, 1)
        assert _first_unreached(ProductFamily([geometric_axis(), from_one]), 6) == (0, 0)

    @pytest.mark.parametrize("d", [1, 3])
    def test_log2_weights_match_exact_weights(self, d):
        # the vector form against each point's exact weight, on an axis that
        # starts at 0, one that covers Z, a scaled family of unequal rates
        # and a table
        pts = np.array(list(product(range(-3, 4), repeat=d)), dtype=np.int64)
        cone = pts[(pts >= 0).all(axis=1)]
        cases = [(geometric_family(d), cone), (symmetric_geometric_family(d), pts),
                 (unequal_rate_family(d), cone), (simplex_table(d, 3), cone[cone.sum(axis=1) <= 3])]
        for fam, rows in cases:
            got = log2_weights(fam, rows)
            assert got.shape == (len(rows),)
            assert got.tolist() == reference_log2_weights(fam, rows).tolist()
            for row, value in zip(rows.tolist(), got):
                assert math.isclose(value, math.log2(fam.weight(row)), rel_tol=1e-15, abs_tol=1e-12)

    def test_table_weight_near_one_keeps_its_log2(self):
        # log2 (2^200 + 2^150)/2^200 is about 1.28e-15: log2 p - log2 r of
        # the two integers cancels to 0.0, the split parts keep it
        fam = TableFamily({(0, 0): Fraction(2 ** 200 + 2 ** 150, 2 ** 200)})
        want = math.log1p(2.0 ** -50) / math.log(2)
        assert log2_weights(fam, np.zeros((1, 2), dtype=np.int64)).tolist() == [want]
        assert fam.range_power_log2(Segment((0, 0), 0, 1), 1.0) == want

    def test_success_fraction_and_mean(self):
        fam = geometric_family(2)
        s = batch_certificates(fam, 100, 500, seed=42)
        assert s.success_fraction >= 0.33
        assert s.mean_cost <= s.mean_cost_bound
        # geometric weights make every path cost identical
        expected = sum(2.0 ** (-(j + 2) / 2) for j in range(100))
        assert math.isclose(s.mean_cost, expected, rel_tol=1e-9)


class TestDecidedPassForms:
    """The decided pass's exponent line and its witness and success
    fraction equal, with ==, the forms they replaced (`tests/oracles.py`)."""

    @pytest.mark.parametrize("d", range(1, 7))
    def test_shared_cost_is_the_log2_weights_line(self, d):
        fams = (geometric_family(d), symmetric_geometric_family(d),
                uniform_box_family(Box(((0, 712),) * d)),
                # uneven sides, a negative lower end and a scale: unequal coefs
                uniform_box_family(Box(((-3, 720),) + ((0, 4),) * (d - 1)), Fraction(7, 5)))
        for fam in fams:
            for n in (1, 2, 63, 64, 712):  # batch_certificates refuses n < 1
                assert walks._shared_cost(fam, n) == shared_cost_line(fam, n), (fam, n)

    @given(arrays(np.bool_, st.integers(1, 3000)))
    @settings(max_examples=200, deadline=None)
    def test_certified_is_argmax_and_mean(self, ok):
        witness, fraction = walks._certified(ok)
        want_witness, want_fraction = certified_mean_argmax(ok)
        assert witness == want_witness and type(witness) is type(want_witness)
        assert fraction == want_fraction and type(fraction) is float

    @pytest.mark.parametrize("size", [1, 7, 8, 9, 128, 129, 1000, 4097])
    def test_certified_on_all_none_and_last(self, size):
        # block edges of numpy's pairwise sum, with no, every and only the
        # last sample certified
        for ok in (np.zeros(size, bool), np.ones(size, bool),
                   np.arange(size) == size - 1):
            assert walks._certified(ok) == certified_mean_argmax(ok)


def tie_family(end, above):
    """A product family on Z^2 or Z^3 for n = 5 whose weight at `end`, a
    point with end[0] = 0, is B / 6^(d-1) exactly: weights 2^-(i+1) on axis
    0, three equal weights from end[1] on when d = 3, and the one point
    end[-1] on the last axis, all times 2.  The endpoint then carries 1/2
    (d = 2) or 1/6 (d = 3) of the total L = 2, which is 3 (d-1)! / 6^(d-1),
    so B = 3 L (d-1)!.  With `above`, axis 0 stops at 59, which raises that
    share by the factor 1/(1 - 2^-60)."""
    first = Axis(0, 59, Fraction(1), (0, 0.0), -1, 1) if above else geometric_axis()
    third = Fraction(1, 3)
    middle = [Axis(end[1], end[1] + 2, third, log2_parts(third), 0, 0)] if len(end) == 3 else []
    last = Axis(end[-1], end[-1], Fraction(1), (0, 0.0), 0, 0)
    return ProductFamily([scaled_axis(first, Fraction(2)), *middle, last])


class TestBruteMinCost:
    def test_unit_weights(self):
        box = Box(((0, 20), (0, 20)))
        fam = uniform_box_family(box, total=Fraction(441))
        _, cost = brute_min_cost(fam, 2, 5)
        assert math.isclose(cost, 5.0, rel_tol=1e-12)

    def test_matches_enumeration(self):
        fam = geometric_family(2)
        for n in (3, 6):
            _, dp_cost = brute_min_cost(fam, 2, n)
            assert math.isclose(dp_cost, enumerate_min_cost(fam, 2, n), rel_tol=1e-12)
        fam3 = geometric_family(3)
        _, dp3 = brute_min_cost(fam3, 3, 4)
        assert math.isclose(dp3, enumerate_min_cost(fam3, 3, 4), rel_tol=1e-12)

    def test_oracle_below_sampled_certificates(self):
        # on the table, costs differ from path to path
        for fam in (geometric_family(2), simplex_table(2, 10)):
            _, best = brute_min_cost(fam, 2, 10)
            for seed in range(1, 21):
                s = batch_certificates(fam, 10, 5, seed)
                assert s.witness is not None and best <= s.witness_cost + 1e-12

    def test_path_is_returned(self):
        fam = geometric_family(2)
        path, _ = brute_min_cost(fam, 2, 6)
        assert geodesic(path) and len(path) == 6
