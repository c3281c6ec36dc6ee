"""Good-segment searches, vertical-section reach, and the chain builders.

A chain certificate is a finite list of unidirectional segments, one group
per box of an inductive sequence, such that consecutive segments share a
lattice point and every segment carries a goodness flag that a verifier
decides again from the weight family.  Builders are deterministic: every
search keeps the first qualifying candidate in scan order.  Every scan
runs over the translates of one or more regions along one axis
(`_first_translate`): FF-d3's stride classes are two such runs, split
where the classes lose their top point, and a B-general staircase is one
fixed segment and the translates of the others.
`lattice.first_translate_le` starts each scan from a closed-form
prediction of the first good translate and decides each probe from the
split log2 parts at t = 0, shifted by the axis rate; only a tie builds the
translate for `mass_le`, so the answer is the linear scan's.

Each builder returns its walk as an ordered list of legs: records without
their witness points (segment, flag kind, bound and generator).  One
assembler, `_assemble`, adds the points where consecutive legs hand over
(`_junction`).  A certificate holds only the records, the walk's start and
the builder's levels; box masses, stretches, B, D, K_d and the budget are
derived (`measured`, `walk_stretches`), and the Holder exponents are the
sequence's (`BoxSequence.alphas`).  A power sum is taken over the segment
it sums (`range_power_log2`), a stretch's first points as the stretch cut
short.  `CHAINS` names each kind's sequence and builder, and
`build_chain` checks the sequence once, and each entry point checks the
family's dimension against the boxes once.  `verify_chain` re-decides each
record's flag on its own segment and bound, and checks that segments lie
in their boxes, the witness handovers, and that the records fill the
kind's stages (`stage_counts`).

Every goodness decision has the form mass(A) <= q * mass(B) and goes
through `lattice.mass_le`.  It decides from the log2 closed forms, split
into an exact integer and a small float (weights like 2^-10^9 are far
outside both float range and sane rational bit-lengths), whenever the two
sides are further apart than a certified rounding margin, and by an exact
sum of powers of two otherwise.  A record stores the bound pair (q, B) of
its flag, so `verify_chain` re-decides it from the weight family alone.

Four builders take their goodness levels from closed forms.  FF-general's
lambda is measured from its own staircase segments: the orbit
construction's roundness-driven level is infeasible at the FF boxes'
roundness constants, so its lambda is a reported value, not a checked one.
"""

from __future__ import annotations

import bisect
import math
from collections import Counter
from fractions import Fraction
from typing import NamedTuple, Sequence

from .boxes import BoxSequence, inocent_constant, vertical_subdivision
from .lattice import (
    Bound,
    Box,
    ChainSearchError,
    Coords,
    LengthFamily,
    NEG_INF,
    Segment,
    first_translate_le,
    mass_le,
    mass_log2,
    mass_ratio_log2,
    translated,
)


# ---------------------------------------------------------------------------
# goodness
# ---------------------------------------------------------------------------


def _first_translate(
    family: LengthFamily,
    checks: Sequence[tuple[Box | Segment, Bound]],
    axis: int,
    step: int,
    count: int,
    what: str,
    n: int | None,
) -> list[Box | Segment]:
    """The regions of `checks` moved to their first translate, in scan
    order t = 0, ..., count - 1 by t * step along `axis`, at which all pass
    `mass_le` (`lattice.first_translate_le`); ChainSearchError(what, n) when
    none does, with the count of candidates ruled out, all of them, in its
    stats."""
    t = first_translate_le(family, checks, axis, step, count)
    if t == count:
        raise ChainSearchError(what, n, {"candidates": count})
    return [translated(region, axis, t * step) for region, _ in checks]


# ---------------------------------------------------------------------------
# records, stretches, certificates
# ---------------------------------------------------------------------------


class SegmentRecord(NamedTuple):
    """One segment of a chain walk, the goodness flag it carries and the
    walk's points on it.  A builder's leg has no points yet: `_assemble`
    adds them."""

    n: int
    label: str
    seg: Segment
    flag_kind: str
    bound: Bound  # the flag claims mass(seg) <= bound.q * mass(bound.region)
    generator: str | None = None  # None in a leg: the coordinate generator f(axis + 1)
    entry: Coords | None = None
    exit: Coords | None = None

    @property
    def points_between(self) -> int:
        """Walk points from entry to exit, both included."""
        axis = self.seg.axis
        return abs(self.exit[axis] - self.entry[axis]) // abs(self.seg.step) + 1


class ChainCertificate(NamedTuple):
    kind: str
    seq: BoxSequence  # its alphas are the chain's per-axis Holder exponents
    records: tuple[SegmentRecord, ...]
    start: Coords | None  # a staircase leads from here to the first entry
    levels: dict[str, float | None]  # the builder's lambdas; None past float range
    notes: tuple[str, ...]


def _assemble(
    kind: str, seq: BoxSequence, legs: Sequence[SegmentRecord], start: Coords | None,
    levels: dict[str, float] | None = None, notes: tuple[str, ...] = (),
    last_exit: Coords | None = None,
) -> ChainCertificate:
    """The certificate of a builder's walk, its legs given their points.

    The walk enters at the first leg's anchor, passes from each leg to the
    next at their `_junction` and leaves at the last leg's end point, or at
    `last_exit` when given.  A walk with a `start` reaches its entry by a
    monotone staircase from there (`walk_stretches`).
    """
    joints = [_junction(a.seg, b.seg) for a, b in zip(legs, legs[1:])]
    entries = [legs[0].seg.anchor, *joints]
    exits = [*joints, legs[-1].seg.last() if last_exit is None else last_exit]
    records = tuple(
        SegmentRecord(*leg[:5], leg.generator or f"f{leg.seg.axis + 1}", entry, exit_)
        for leg, entry, exit_ in zip(legs, entries, exits)
    )
    return ChainCertificate(kind, seq, records, start, levels or {}, notes)


def _junction(a: Segment, b: Segment) -> Coords:
    """The point where leg a hands over to leg b: the crossing point of two
    non-parallel legs, or the lowest common point of two collinear runs
    (strided ones included).  ValueError when the legs do not meet."""
    pt = list(b.anchor)
    if a.axis != b.axis:
        pt[b.axis] = a.anchor[b.axis]
    else:
        (a_lo, _, s), (b_lo, _, t) = a.axis_values(), b.axis_values()
        g = math.gcd(s, t)
        if (b_lo - a_lo) % g:
            raise ValueError("collinear legs in disjoint residue classes")
        # least common value of the two progressions, then the first one at
        # or above both starts
        x = a_lo + s * ((b_lo - a_lo) // g * pow(s // g, -1, t // g) % (t // g))
        start = max(a_lo, b_lo)
        pt[b.axis] = start + (x - start) % (s // g * t)
    out = tuple(pt)
    if a.index_of(out) is None or b.index_of(out) is None:
        raise ValueError(f"legs do not meet at {out}")
    return out


def _mean_bound(level: Fraction, size: int, ambient: Box, points: int) -> Bound:
    """The bound: mean over a region of `size` points at most level times
    the mean of the ambient box, which has `points` points (its `npoints()`,
    counted once by the caller for all the bounds on that box)."""
    return Bound(Fraction(level.numerator * size, level.denominator * points), ambient)


def _stretch(entry: Coords, exit_: Coords, axis: int, stride: int = 1) -> Segment:
    """Walk piece from entry to exit inclusive along one axis, its points
    `stride` apart."""
    steps, r = divmod(exit_[axis] - entry[axis], stride)
    if r:
        raise ValueError("exit not reachable with this stride")
    return Segment(entry, axis, abs(steps) + 1, stride if steps >= 0 else -stride)


def _walk_start(family: LengthFamily, seq: BoxSequence) -> Coords:
    """Walks start at the origin when the family lives there, else at the
    first box's lower corner."""
    origin = (0,) * seq.boxes[0].dim
    return origin if family.contains(origin) else tuple(iv[0] for iv in seq.boxes[0].intervals)


def _check_family(family: LengthFamily, seq: BoxSequence) -> None:
    """ValueError unless the family lives on the lattice of the sequence's
    boxes."""
    dim = seq.boxes[0].dim
    if family.d != dim:
        raise ValueError(f"the family is on Z^{family.d}, but the boxes are on Z^{dim}")


def walk_stretches(cert: ChainCertificate) -> list[Segment]:
    """The walk as entry-to-exit stretches of the records, after a monotone
    staircase from the walk's start, if any, to the first entry point."""
    out: list[Segment] = []
    first = cert.records[0].entry
    if cert.start is not None:
        cur = cert.start
        for axis in range(len(first)):
            if first[axis] != cur[axis]:
                nxt = cur[:axis] + (first[axis],) + cur[axis + 1:]
                out.append(_stretch(cur, nxt, axis))
                cur = nxt
    for r in cert.records:
        out.append(_stretch(r.entry, r.exit, r.seg.axis, abs(r.seg.step)))
    return out


def measured(cert: ChainCertificate, family: LengthFamily) -> dict[str, float | None]:
    """B (and its log2), D and K_d of the chain's records.  B is the largest
    ratio of a record's power sum to max(L_n, L_(n+1))^alpha, from the box
    masses L; None past float range.  A record of zero power sum gives
    -inf, and B_log2 is None unless it is finite."""
    _check_family(family, cert.seq)
    masses = {n: mass_log2(family, cert.seq.box(n)) for n in cert.seq.indices()}
    alphas = [float(a) for a in cert.seq.alphas]

    def power_ratio_log2(r: SegmentRecord) -> float:
        alpha = alphas[r.seg.axis]
        base = alpha * max(masses[r.n], masses.get(r.n + 1, NEG_INF))
        power = family.range_power_log2(r.seg, alpha)
        return power - base if power > NEG_INF else NEG_INF

    ratio = max(map(power_ratio_log2, cert.records), default=NEG_INF)
    if cert.seq.kind == "FF":
        count_exp = 2.0 / cert.seq.boxes[0].dim  # standard 4^(n/(d-1))
    else:
        count_exp = min(alphas)  # standard 2^(n*alpha)
    by_n: dict[int, list[int]] = {}  # walk points of each record, by box
    for r in cert.records:
        by_n.setdefault(r.n, []).append(r.points_between)
    return {
        "B": 2.0 ** ratio if ratio < 1024 else None,  # past float range B_log2 stays readable
        "B_log2": ratio if math.isfinite(ratio) else None,
        "D": max((2.0 ** (n * count_exp) / max(ks) for n, ks in by_n.items()), default=0.0),
        "K_d": float(max(map(len, by_n.values()), default=0)),
    }


# ---------------------------------------------------------------------------
# chain verification (recompute everything from the family and sequence)
# ---------------------------------------------------------------------------


def stage_counts(kind: str, seq: BoxSequence) -> dict[int, int]:
    """The records a chain of the kind holds at each stage, by the kind's
    own rule on the sequence: one per index on B-d2, two on FF-d3 (from
    `chain_start_stage` to the last even index) and dim on the others;
    the last stage holds one, except on B-d3 and FF-general, which end
    the walk in the stage before it."""
    stages = seq.indices()
    lo, hi = min(stages), max(stages)
    if kind == "FF-d3":
        lo = chain_start_stage(seq)
        hi -= (hi - lo) % 2
    counts = dict.fromkeys(range(lo, hi), {"B-d2": 1, "FF-d3": 2}.get(kind, seq.boxes[0].dim))
    if kind not in ("B-d3", "FF-general"):
        counts[hi] = 1
    return counts


def verify_chain(cert: ChainCertificate, family: LengthFamily) -> dict[str, bool]:
    """Decide every record's flag again from the weight family alone, on
    its own segment and bound; records name boxes of the sequence and their
    segments lie in them, entries and exits lie on their segments, and each
    record exits where the next enters.  The walk's box index never falls,
    and its records fill the kind's stages (`stage_counts`), so a
    truncated certificate fails."""
    _check_family(family, cert.seq)
    recs, indices = cert.records, cert.seq.indices()
    checks = {
        "records": all(mass_le(family, r.seg, r.bound) for r in recs),
        "containment": all(
            r.n in indices
            and all(cert.seq.box(r.n).contains(p) for p in (r.seg.anchor, r.seg.last()))
            for r in recs
        ),
        "witnesses": all(r.seg.index_of(p) is not None for r in recs for p in (r.entry, r.exit))
        and all(a.exit == b.entry for a, b in zip(recs, recs[1:])),
        "stages": all(a.n <= b.n for a, b in zip(recs, recs[1:]))
        and Counter(r.n for r in recs) == stage_counts(cert.kind, cert.seq),
    }
    return {**checks, "all": all(checks.values())}


# ---------------------------------------------------------------------------
# the planar chain (two exponents)
# ---------------------------------------------------------------------------


def _build_b_d2(family: LengthFamily, seq: BoxSequence) -> ChainCertificate:
    legs = []
    for n in seq.indices():
        # the first segment along the axis whose lower endpoint step n raises
        # with mass at most the box average (one exists by averaging),
        # scanned along the other axis
        box, (axis, scan) = seq.box(n), seq.touched(n)
        bound = Bound(Fraction(1, box.side(scan)), box)
        # (c, c) fixes the scanned coordinate at c; _full_segment resets its own
        c = box.intervals[scan][0]
        (seg,) = _first_translate(
            family, [(_full_segment(box, axis, (c, c)), bound)], scan, 1, box.side(scan),
            "no average-good segment", n,
        )
        legs.append(SegmentRecord(n, f"g{n}", seg, "segment-average", bound))
    return _assemble("B-d2", seq, legs, _walk_start(family, seq))


# ---------------------------------------------------------------------------
# full segments and the peeling recursion for their goodness level
# ---------------------------------------------------------------------------


def lambda_prime(mu, kappa, dim: int) -> Fraction:
    """Goodness level of the staircase segments, by the peeling recursion.

    Each peeled axis spends one Chebyshev level chosen with a factor-2
    margin, multiplying the accumulated goodness; the two-dimensional base
    case is a single averaging level.  Monotone increasing in kappa and mu.
    """
    mu, kappa = Fraction(mu), Fraction(kappa)
    if not 0 < kappa < 1:
        raise ValueError("kappa must lie in (0, 1)")
    if mu < 1:
        raise ValueError("mu must be at least 1")
    if dim < 2:
        raise ValueError("dimension must be at least 2")
    if dim == 2:
        return mu * 2 / (1 - kappa)
    lam = Fraction(2) * (dim - 2) / (1 - kappa)
    rho = (dim - 2) * (1 - 1 / lam) - (dim - 3)  # simplifies to (1+kappa)/2
    return mu * lambda_prime(lam, kappa / rho, dim - 1)


def _full_segment(box: Box, axis: int, fixed: Sequence[int]) -> Segment:
    """The maximal unit segment of a box along one axis through given coords."""
    lo, hi = box.intervals[axis]
    anchor = list(fixed)
    anchor[axis] = lo
    return Segment(tuple(anchor), axis, hi - lo + 1)


# ---------------------------------------------------------------------------
# vertical sections: reach along one fiber with stride moves
# ---------------------------------------------------------------------------


class VerticalReach(NamedTuple):
    reachable: frozenset[int]  # last-coordinate values reached
    chains: dict[int, tuple[Segment, ...]]
    lam: Fraction
    mu: Fraction
    d_prime: float
    fraction: Fraction
    meets_target: bool


def _least_power_of_two(
    family: LengthFamily, members: Sequence[tuple[Box | Segment, Bound]]
) -> int:
    """Least m >= 0 such that mass_le accepts (region, (2^m q, B)) for every
    member (region, (q, B))."""
    m = 0
    for region, (q, other) in members:
        # r is off by far less than 1: a member below 2^(m-1) needs no
        # decision, and the least power of any other is at least ceil(r) - 1
        r = mass_ratio_log2(family, region, Bound(q, other))
        if r > m - 1:
            m = max(m, math.ceil(r) - 1)
            while not mass_le(family, region, Bound(q * 2 ** m, other)):
                m += 1
    return m


def stride_cascade_lambda(mu, a, d: int, kappa) -> Fraction:
    """Goodness level of the stride segments per the cascade's factors.

    Stage 1 contributes mu * 2^(d-2) * A^(d-4); every later stage k adds a
    Chebyshev level lam' = 2(d-2)/(1-kappa) on top of mu * 2^(d-1-k) *
    A^(3d-5-k).  The returned value dominates all stages.
    """
    mu, a, kappa = Fraction(mu), Fraction(a), Fraction(kappa)
    lam_choice = Fraction(2) * max(1, d - 2) / (1 - kappa)
    best = mu * 2 ** (d - 2) * a ** max(0, d - 4)
    for k in range(2, d - 1):
        best = max(best, mu * 2 ** (d - 1 - k) * a ** (3 * d - 5 - k) * lam_choice)
    return best


def reach_vertical_section(
    family: LengthFamily,
    box: Box,
    a,
    point: Coords,
    kappa,
) -> VerticalReach:
    """Reach most of a vertical section from an admissible fully good point.

    Chains use at most dim-1 = d-2 stride segments: first a unit-stride run
    through the point's finest subdivision piece, then runs whose strides
    are the point's own coordinates (the strides the group action offers on
    that fiber), each spanning the whole section and flagged against lambda
    times the box mean.  Segment lengths are reported through D', and mu
    is the least power of two that makes the point fully mu-good.
    """
    a = Fraction(a)
    kappa = Fraction(kappa)
    dim = box.dim
    d = dim + 1
    if not box.contains(point):
        raise ValueError("point outside the box")
    tree = vertical_subdivision(box, a)
    level = tree.level(point[-1])
    if not level.admissible:
        raise ValueError(f"level {point[-1]} is not admissible")
    # fully good check along the chain restricted to the fiber: each
    # member's mean is at most mu times the box mean
    fiber_ivs = tuple((c, c) for c in point[:-1])
    box_points = box.npoints()
    members = []
    for k in range(1, len(level.chain) + 1):
        piece = tree.chain_box(level.chain[:k])
        restricted = Box(fiber_ivs + (piece.intervals[-1],))
        members.append(
            (restricted, _mean_bound(Fraction(1), restricted.npoints(), box, box_points)))
    mu = Fraction(2) ** _least_power_of_two(family, members)
    lam = stride_cascade_lambda(mu, a, d, kappa)
    lo, hi = box.intervals[-1]
    strides = [1] + [abs(c) for c in point[:-1] if abs(c) >= 1]
    strides = strides[: dim - 1]
    finest = tree.chain_box(level.chain)
    flo, fhi = finest.intervals[-1]

    def section_segment(start_j: int, stride: int, span: tuple[int, int]) -> Segment:
        s_lo, s_hi = span
        first = start_j - ((start_j - s_lo) // stride) * stride
        count = (s_hi - first) // stride + 1
        anchor = point[:-1] + (first,)
        return Segment(anchor, dim - 1, count, stride)

    def seg_ok(s: Segment) -> bool:
        return mass_le(family, s, _mean_bound(lam, s.count, box, box_points))

    covered: set[int] = set()
    chains: dict[int, tuple[Segment, ...]] = {}
    frontier = {point[-1]}
    max_count = 1
    for stage, stride in enumerate(strides):
        span = (flo, fhi) if stage == 0 else (lo, hi)
        new_frontier = set()
        for j in sorted(frontier):
            s = section_segment(j, stride, span)
            if not seg_ok(s):
                continue
            max_count = max(max_count, s.count)
            base = chains.get(j, ())
            for p in s.points():
                v = p[-1]
                if v not in chains:
                    chains[v] = base + (s,)
                covered.add(v)
                new_frontier.add(v)
        frontier = new_frontier or frontier
    section_points = hi - lo + 1
    fraction = Fraction(len(covered), section_points)
    d_prime = max_count / (box.side(0))
    return VerticalReach(
        frozenset(covered), chains, lam, mu, d_prime, fraction, fraction >= kappa
    )


# ---------------------------------------------------------------------------
# the spatial chain with planes (three exponents)
# ---------------------------------------------------------------------------


def _build_b_d3(family: LengthFamily, seq: BoxSequence) -> ChainCertificate:
    lam = max(Fraction(2), 2 / inocent_constant(seq))
    lo_n, hi_n = min(seq.indices()), max(seq.indices())
    # P_1: first lambda-good plane of Q(1), on the axis m2 that its step leaves alone
    box = seq.box(lo_n)
    m2 = 3 - sum(seq.touched(lo_n))
    first = box.fix_axis(m2, box.intervals[m2][0])
    (plane,) = _first_translate(
        family, [(first, Bound(lam / box.side(m2), box))], m2, 1, box.side(m2),
        "no good plane", lo_n,
    )
    legs = []
    for n in range(lo_n, hi_n):
        m0, m1 = seq.touched(n)  # step n raises m0's lower endpoint and m1's upper one
        m2 = 3 - m0 - m1
        box, nxt = seq.box(n), seq.box(n + 1)
        p_val = plane.intervals[m2][0]
        # gamma_n^1: 1-good horizontal segment of the plane (direction m0)
        h_bound = Bound(Fraction(1, box.side(m1)), plane)
        h0 = box.intervals[m1][0]
        (seg1,) = _first_translate(
            family, [(_full_segment(box, m0, _coords({m2: p_val, m1: h0})), h_bound)],
            m1, 1, box.side(m1), "no plane-average segment", n,
        )
        # joint scan: vertical of P_n at v, and plane of Q(n+1) at v
        v_bound = Bound(lam / box.side(m0), plane)
        nxt_bound = Bound(lam / nxt.side(m0), nxt)
        v0 = nxt.intervals[m0][0]
        vertical = Segment(_coords({m2: p_val, m0: v0, m1: h0}), m1, box.side(m1))
        seg2, plane = _first_translate(
            family, [(vertical, v_bound), (nxt.fix_axis(m0, v0), nxt_bound)], m0, 1,
            nxt.side(m0), "no shared good vertical/plane", n,
        )
        # gamma_n^3: lambda-good vertical of P_(n+1) inside Q(n), direction m2
        w_bound = Bound(lam / nxt.side(m1), plane)
        (seg3,) = _first_translate(
            family, [(_full_segment(box, m2, _coords({m0: seg2.anchor[m0], m1: h0})), w_bound)],
            m1, 1, box.side(m1), "no good cross vertical", n,
        )
        legs += [
            SegmentRecord(n, f"g{n}.1", seg1, "plane-average-row", h_bound),
            SegmentRecord(n, f"g{n}.2", seg2, "shared-plane-vertical", v_bound),
            SegmentRecord(n, f"g{n}.3", seg3, "next-plane-vertical", w_bound),
        ]
    return _assemble("B-d3", seq, legs, _walk_start(family, seq),
                     {"lambda": float(lam)})


def _coords(values: dict[int, int]) -> Coords:
    """A point of Z^3 with the given coordinates and zeros elsewhere."""
    out = [0, 0, 0]
    for k, v in values.items():
        out[k] = v
    return tuple(out)


# ---------------------------------------------------------------------------
# the general chain through staircases in box overlaps
# ---------------------------------------------------------------------------


def _fully_good_segment(
    family: LengthFamily, box: Box, axis: int, lam: Fraction
) -> Segment:
    """The first 1-segment, in scan order, whose canonical flag is fully
    lambda-good (each member's mean at most lambda times the box mean), for
    lambda >= 1.

    Fixes the flag's axes top-down (the axis cyclically before the segment
    direction first), each at the first value whose member passes: one
    translate scan per axis, and no backtracking.  None is needed: mass is
    additive, so the members one level down average the member above over
    the side of the newly fixed axis, and so does their bound.  A good
    member therefore has a good member below it, and lambda >= 1 gives the
    first level one.
    """
    dim = box.dim
    order = [(axis - t) % dim for t in range(1, dim)]
    # the member at depth t fixes the axes order[:t+1], so its size, and
    # with it the bound of `_mean_bound`, depends on t alone
    size = points = box.npoints()
    member = box
    for a in order:
        size //= box.side(a)
        bound = _mean_bound(lam, size, box, points)
        (member,) = _first_translate(
            family, [(member.fix_axis(a, box.intervals[a][0]), bound)], a, 1, box.side(a),
            "no fully good segment in box", None,
        )
    anchor = [lo for lo, _ in member.intervals]
    return Segment(tuple(anchor), axis, box.side(axis))


def _build_b_general(family: LengthFamily, seq: BoxSequence) -> ChainCertificate:
    d = seq.d
    lam = Fraction(2 * (d - 1) + 1)
    lam_prime = lambda_prime(lam, Fraction(1, 2), d)
    lo_n, hi_n = min(seq.indices()), max(seq.indices())
    seg = _fully_good_segment(family, seq.box(lo_n), seq.touched(lo_n)[0], lam)
    legs = []
    for n in range(lo_n, hi_n):
        box, nxt = seq.box(n), seq.box(n + 1)
        overlap = box.intersect(nxt)
        # the anchor segments of Q(n) and Q(n + 1) run along the axes whose
        # lower and upper endpoints step n raises
        m0, m_next = seq.touched(n)
        nxt_seg = _fully_good_segment(family, nxt, m_next, lam)
        # every staircase segment is a full overlap segment, so its bound
        # depends only on its axis
        points = overlap.npoints()
        bounds = [_mean_bound(lam_prime, overlap.side(a), overlap, points) for a in range(d)]
        # choose the target point on the next anchor segment, scanning its
        # span, so that the connecting staircase in the overlap is good.  The
        # staircase's first segment runs along m_next, the same for every
        # target; the others move with the target, so they are translates
        what = "no good staircase into the next box"
        lo, _ = overlap.intervals[m_next]
        stair = _staircase_segments(
            overlap, seg, nxt_seg.point(lo - nxt_seg.anchor[m_next]), m0
        )
        # the targets differ only in their m_next coordinate, which stays in
        # the overlap, so a staircase leaves it for every target or for none
        if stair is None:
            raise ChainSearchError(what, n, {"candidates": 0})
        if not mass_le(family, stair[0], bounds[m_next]):
            raise ChainSearchError(what, n, {"candidates": overlap.side(m_next)})
        stair[1:] = _first_translate(
            family, [(s, bounds[s.axis]) for s in stair[1:]], m_next, 1,
            overlap.side(m_next), what, n,
        )
        legs.append(
            SegmentRecord(n, f"g{n}.1", seg, "fully-good-anchor",
                          _mean_bound(lam, seg.count, box, box.npoints()))
        )
        legs += [SegmentRecord(n, f"g{n}.{k + 2}", s, "staircase-overlap", bounds[s.axis])
                 for k, s in enumerate(stair)]
        seg = nxt_seg
    last = seq.box(hi_n)
    legs.append(SegmentRecord(hi_n, f"g{hi_n}.1", seg, "fully-good-anchor",
                              _mean_bound(lam, seg.count, last, last.npoints())))
    return _assemble("B-general", seq, legs, _walk_start(family, seq),
                     {"lambda": float(lam), "lambda_prime": float(lam_prime)})


def _staircase_segments(
    overlap: Box, cur: Segment, target: Coords, m0: int
) -> list[Segment] | None:
    """Full overlap segments in directions m0+1, ..., m0+d-1 joining the
    anchor segment to the target; None when the pivot escapes the overlap."""
    dim = overlap.dim
    if not overlap.contains(target):
        return None
    pivot = list(cur.anchor)
    pivot[m0] = target[m0]
    if not overlap.contains(pivot):
        return None
    out = []
    coords = list(pivot)
    for k in range(1, dim):
        a = (m0 + k) % dim
        fixed = list(coords)
        out.append(_full_segment(overlap, a, fixed))
        coords[a] = target[a]
        if not overlap.contains(coords):
            return None
    return out


# ---------------------------------------------------------------------------
# the planar orbit chain driven by the group action (strips and strides)
# ---------------------------------------------------------------------------


def _strip_count(box: Box, stride: int) -> int:
    """Number of strips of the box's second axis cut every `stride` levels;
    all have height `stride` except possibly the last one."""
    return -(-box.side(1) // stride)


def chain_start_stage(seq: BoxSequence) -> int:
    """First even stage whose following odd stage has at least two strips."""
    stages = seq.indices()
    for n in stages:
        if n % 2 == 1 and n - 1 in stages:
            stride = seq.box(n).intervals[0][1]
            if _strip_count(seq.box(n), stride) >= 2:
                return n - 1
    raise ChainSearchError("no workable stage in range", None, {"stages": len(stages)})


def _build_ff_d3(family: LengthFamily, seq: BoxSequence) -> ChainCertificate:
    lam = Fraction(2)
    n0 = chain_start_stage(seq)
    n_end = max(seq.indices())
    if n_end - n0 < 2:
        raise ChainSearchError(
            "sequence too short past the start stage", n0, {"stages": len(seq.indices())}
        )

    def class_leg(n: int, k: int) -> SegmentRecord:
        """First stride-k class that is average-good in its vertical set."""
        box = seq.box(n)
        x2, y2 = box.intervals[1]
        bound = Bound(Fraction(1, k), box.fix_axis(0, k))
        # the classes start at x2, x2 + 1, ... and each is the one before
        # moved up by 1, except that the first to start past x2 + (y2 - x2) % k
        # loses its top point: two translate scans, in scan order
        classes, c0 = min(k, y2 - x2 + 1), (y2 - x2) // k + 1
        full = (y2 - x2) % k + 1
        for j0, count, npts in ((x2, full, c0), (x2 + full, classes - full, c0 - 1)):
            if count > 0:
                first = Segment((k, j0), 1, npts, k)
                t = first_translate_le(family, [(first, bound)], 1, 1, count)
                if t < count:
                    seg = translated(first, 1, t)
                    return SegmentRecord(n, f"g{n}.1", seg, "vertical-set-class", bound, "f(3,2)")
        raise ChainSearchError("no good stride class", n, {"candidates": classes})

    # opening stage: first k with a 2-good vertical set in Q(n0); the walk
    # reaches the class's entry by a plain staircase from the seed box corner
    box = seq.box(n0)
    (column,) = _first_translate(
        family, [(box.fix_axis(0, box.intervals[0][0]), Bound(lam / box.side(0), box))],
        0, 1, box.side(0), "no good vertical set", n0,
    )
    k = column.intervals[0][0]
    legs = [class_leg(n0, k)]
    n = n0
    while n + 2 <= n_end:
        even, odd, nxt_even = n, n + 1, n + 2
        box_e, box_o, box_e2 = seq.box(even), seq.box(odd), seq.box(nxt_even)
        stride = box_o.intervals[0][1]  # strip height y_(1,odd)
        big_r = _strip_count(box_o, stride)
        if big_r < 2:
            raise ChainSearchError("degenerate strip decomposition", odd, {"strips": big_r})
        overlap_col = box_e.intersect(box_o)
        # joint strip scan: overlap-vertical 2-good and strip 2-good
        seg2_bound = Bound(lam / big_r, overlap_col.fix_axis(0, k))
        strip_bound = Bound(lam / big_r, box_o)
        x2 = box_o.intervals[1][0]
        strip = Box((box_o.intervals[0], (x2, x2 + stride - 1)))
        seg2, strip_box = _first_translate(
            family, [(Segment((k, x2), 1, stride), seg2_bound), (strip, strip_bound)],
            1, stride, big_r - 1, "no jointly good strip", odd,
        )
        j_lo, j_hi = strip_box.intervals[1]
        # row scan inside the strip
        row_bound = Bound(Fraction(1, stride), strip_box)
        (row,) = _first_translate(
            family, [(Segment((box_o.intervals[0][0], j_lo), 0, box_o.side(0)), row_bound)],
            1, 1, j_hi - j_lo + 1, "no average-good row in strip", odd,
        )
        # joint column scan for the next even box
        seg3_bound = Bound(lam / box_o.side(0), strip_box)
        column_bound = Bound(lam / box_e2.side(0), box_e2)
        k0 = box_e2.intervals[0][0]
        seg3, _ = _first_translate(
            family, [(Segment((k0, j_lo), 1, j_hi - j_lo + 1), seg3_bound),
                     (box_e2.fix_axis(0, k0), column_bound)],
            0, 1, box_e2.side(0), "no jointly good column", nxt_even,
        )
        k = seg3.anchor[0]
        legs += [
            SegmentRecord(even, f"g{even}.2", seg2, "overlap-vertical", seg2_bound, "f(3,1)"),
            SegmentRecord(odd, f"g{odd}.1", row, "strip-row", row_bound, "f(2,1)"),
            SegmentRecord(odd, f"g{odd}.2", seg3, "strip-overlap-vertical", seg3_bound, "f(3,1)"),
            class_leg(nxt_even, k),
        ]
        n = nxt_even
    corner = tuple(iv[0] for iv in seq.box(min(seq.indices())).intervals)
    return _assemble(
        "FF-d3", seq, legs, corner, {"lambda": float(lam)},
        ("strip heights use the first factor's raw upper endpoint, not its side length",),
    )


def _build_ff_general(family: LengthFamily, seq: BoxSequence) -> ChainCertificate:
    dim = seq.d - 1
    lo_n, hi_n = min(seq.indices()), max(seq.indices())
    # each box walks from its entry to the lower corner of its overlap with
    # the next box, one full segment per axis
    cur = [lo for lo, _ in seq.box(lo_n).intervals]
    plan: list[tuple[int, Segment]] = []
    for n in range(lo_n, hi_n):
        overlap = seq.box(n).intersect(seq.box(n + 1))
        for axis in range(dim):
            plan.append((n, _full_segment(seq.box(n), axis, tuple(cur))))
            cur[axis] = overlap.intervals[axis][0]
    # lambda is measured: the least power of two bounding every staircase
    # segment's mean ratio.  The orbit construction's roundness-driven level
    # needs a target proportion below 1/a^2, and every FF sequence has
    # a >= (1 + 4^(d+1))^(d-1), the roundness constant of its first box
    points = {n: seq.box(n).npoints() for n in range(lo_n, hi_n)}
    m = _least_power_of_two(family, [
        (seg, _mean_bound(Fraction(1), seg.count, seq.box(n), points[n])) for n, seg in plan
    ])
    lam = Fraction(2) ** m
    legs = [
        SegmentRecord(n, f"g{n}.{seg.axis + 1}", seg, "staircase-mean",
                      _mean_bound(lam, seg.count, seq.box(n), points[n]), f"f({seg.axis + 2},1)")
        for n, seg in plan
    ]
    # the walk stops at the last overlap's lower corner
    # past float range lambda is None, as B is in `measured`
    return _assemble("FF-general", seq, legs, None,
                     {"lambda": 2.0 ** m if m < 1024 else None}, last_exit=tuple(cur))


# each chain kind: the sequence kind it walks, the d it needs (None for
# any) and its builder
CHAINS = {
    "B-d2": ("B-d2", None, _build_b_d2),
    "B-d3": ("B-general", 3, _build_b_d3),
    "B-general": ("B-general", None, _build_b_general),
    "FF-d3": ("FF", 3, _build_ff_d3),
    "FF-general": ("FF", None, _build_ff_general),
}


def build_chain(kind: str, family: LengthFamily, seq: BoxSequence) -> ChainCertificate:
    """Build one of the deterministic concatenated chains over a sequence;
    ValueError unless the sequence is the one `CHAINS` names for the kind
    and the family lives on its boxes' lattice."""
    if kind not in CHAINS:
        raise ValueError(f"unknown chain kind {kind!r}")
    seq_kind, d, build = CHAINS[kind]
    if seq.kind != seq_kind or d not in (None, seq.d):
        raise ValueError(f"{kind} needs the {seq_kind} sequence" + (f" with d={d}" if d else ""))
    _check_family(family, seq)
    return build(family, seq)


# ---------------------------------------------------------------------------
# entry times and distortion budgets along the walk
# ---------------------------------------------------------------------------


class BudgetRow(NamedTuple):
    n: int
    entry_index: int
    budget: float
    ratio: float  # budget / (ln N)^(1-alpha)


class BudgetReport(NamedTuple):
    rows: tuple[BudgetRow, ...]
    a_prime: float
    # max/min of ratio over the fitted rows; None for no row or a zero min
    ratio_spread: float | None
    fitted: int  # the rows in the fit
    total_points: int


def _stretch_entry_t(stretch: Segment, box: Box) -> int | None:
    """Smallest t with stretch.point(t) inside the box, or None."""
    for kaxis, c in enumerate(stretch.anchor):
        if kaxis == stretch.axis:
            continue
        lo, hi = box.intervals[kaxis]
        if not lo <= c <= hi:
            return None
    lo, hi = box.intervals[stretch.axis]
    a, step = stretch.anchor[stretch.axis], stretch.step
    # the points enter the interval at `near` and leave it at `far`
    near, far = (lo, hi) if step > 0 else (hi, lo)
    t_lo = max(-((a - near) // step), 0)
    t_hi = min((far - a) // step, stretch.count - 1)
    return t_lo if t_lo <= t_hi else None


def distortion_budget(cert: ChainCertificate, family: LengthFamily) -> BudgetReport:
    """Entry times N(n) and cumulative Holder sums along the walk.

    For each box index n the budget is the sum of weight(point)^a(step)
    over walk points up to the first entry into Q(n+1); the fitted constant
    is the largest ratio budget / (ln N)^(1-alpha_min) over n >= 2 from
    the chain's first stage on (FF-d3's is `chain_start_stage`).

    One pass: each stretch's own power sum is taken once, and prefix[i]
    is the running float sum of stretches 0..i-1 in walk order.  A row's
    budget is prefix[i] plus at most one truncated term for the stretch i
    that holds its cut.  Since 0.0 + x == x, every budget is the same
    float as re-summing the stretches from the walk's start.
    """
    _check_family(family, cert.seq)
    alphas = [float(a) for a in cert.seq.alphas]
    alpha_min = min(alphas)
    stretches = walk_stretches(cert)
    starts = [0]
    for s in stretches:
        starts.append(starts[-1] + s.count - 1)
    total = starts[-1] + 1

    def own_part(i: int, t_hi: int) -> float:
        """Sum of weight^alpha over points 0..t_hi of stretch i."""
        anchor, axis, _, step = stretches[i]
        cut = Segment._make((anchor, axis, t_hi + 1, step))  # unchecked: t_hi >= 0
        return 2.0 ** family.range_power_log2(cut, alphas[axis])

    # a stretch owns its points up to the next stretch's start; the last one
    # owns its end point too, and a non-final one-point stretch owns nothing
    own_his = [s.count - 2 for s in stretches[:-1]] + [s.count - 1 for s in stretches[-1:]]
    prefix = [0.0]
    for i, own_hi in enumerate(own_his):
        prefix.append(prefix[-1] + own_part(i, own_hi) if own_hi >= 0 else prefix[-1])

    def budget_upto(m_cut: int) -> float:
        # the last stretch starting at or before m_cut; all earlier ones end
        # before it starts, so they count in full
        i = bisect.bisect_right(starts, m_cut, 0, len(stretches)) - 1
        t_hi = m_cut - starts[i]
        if t_hi >= own_his[i]:
            return prefix[i + 1]
        return prefix[i] + own_part(i, t_hi)

    # For n >= n1, the first record's index, no walk point before the first
    # entry into Q(n) lies in Q(n+1), so the scan resumes at that entry's
    # stretch.  `BoxSequence` checks at construction that per axis both
    # endpoints are nondecreasing in n, so Q(a) & Q(c) lies in Q(b) for
    # a < b < c.  A point p of Q(n+1) on the prefix staircase, which runs
    # coordinatewise from a base at or below the first entry e in Q(n1), has
    # lo(n) <= lo(n+1) <= p <= e <= hi(n1) <= hi(n); on a record of box m < n
    # it lies in Q(m) & Q(n+1); either way in Q(n).  Records come in
    # nondecreasing n and every box from n1 to the last row's has some, so
    # later boxes' records come after a point of Q(n).  Rows below n1
    # (FF-d3's prefix rows) scan from the first stretch.
    rows = []
    first_n = cert.records[0].n
    resume = 0
    indices = cert.seq.indices()
    for n in indices[:-1]:
        nxt_box = cert.seq.box(n + 1)
        entry = None
        for i in range(resume if n >= first_n else 0, len(stretches)):
            t = _stretch_entry_t(stretches[i], nxt_box)
            if t is not None:
                entry, resume = starts[i] + t, i
                break
        if entry is None or entry == 0:
            continue
        b = budget_upto(entry)
        ln = math.log(entry)
        ratio = b / ln ** (1.0 - alpha_min) if ln > 0 else math.inf
        rows.append(BudgetRow(n, entry, b, ratio))
    fit = [r.ratio for r in rows if r.n >= max(2, first_n) and math.isfinite(r.ratio)]
    spread = max(fit) / min(fit) if fit and min(fit) > 0 else None
    return BudgetReport(tuple(rows), max(fit, default=0.0), spread, len(fit), total)
