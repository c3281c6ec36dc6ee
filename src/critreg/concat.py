"""Goodness classification, reach lemmas, and the chain builders.

A chain certificate is a finite list of unidirectional segments, one group
per box of an inductive sequence, such that consecutive segments share a
lattice point and every segment carries a recomputable goodness flag and a
power-sum bound.  Builders are deterministic: every search scans candidates
in ascending order and keeps the first qualifying object.

Every goodness decision has the form mass(A) <= q * mass(B) and goes
through `lattice.mass_le`.  It decides from the log2 closed forms, split
into an exact integer and a small float (weights like 2^-10^9 are far
outside both float range and sane rational bit-lengths), whenever the two
sides are further apart than a certified rounding margin, and compares
exact rationals otherwise.  A record stores the bound pair (q, B) next to
the flag, so `verify_chain` re-decides it from the weight family alone.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

from .boxes import BoxSequence, minimal_round_constant, vertical_subdivision
from .lattice import (
    Bound,
    Box,
    Coords,
    LengthFamily,
    NEG_INF,
    Segment,
    log2_fraction,
    mass_le,
    mass_log2,
    mass_ratio_log2,
)

SEARCH_CAP = 500_000


class ChainSearchError(RuntimeError):
    """A good-object search exhausted its box; carries observed proportions."""

    def __init__(self, message: str, n: int | None = None, stats: dict | None = None):
        super().__init__(message)
        self.n = n
        self.stats = stats or {}


# ---------------------------------------------------------------------------
# goodness
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GoodnessReport:
    """Least lambda making a region good inside an ambient box.

    ``mean_ratio`` compares per-point means; ``copy_ratio`` uses the number
    of disjoint translates of the region that fit in the ambient box.  The
    two coincide exactly when the translates tile the box.
    """

    mean_ratio: Fraction
    copy_ratio: Fraction
    copies: int
    tiles_exactly: bool


def _region_box(region: Box | Segment) -> Box:
    if isinstance(region, Box):
        return region
    if region.stride != 1:
        raise ValueError("copy counts need unit-stride segments")
    lo, hi, _ = region.axis_values()
    ivs = [(c, c) for c in region.anchor]
    ivs[region.axis] = (lo, hi)
    return Box(tuple(ivs))


def goodness_ratio(
    family: LengthFamily, region: Box | Segment, ambient: Box
) -> GoodnessReport:
    """Exact goodness of a sub-box (or unit segment) inside an ambient box."""
    rbox = _region_box(region)
    if ambient.intersect(rbox) is None or ambient.intersect(rbox) != rbox:
        raise ValueError("region must be contained in the ambient box")
    rmass = family.box_mass(rbox)
    amass = family.box_mass(ambient)
    if rmass == 0 or amass == 0:
        raise ValueError("regions must carry positive mass")
    mean_ratio = (rmass / rbox.npoints()) / (amass / ambient.npoints())
    copies = 1
    tiles = True
    for k in range(ambient.dim):
        q, r = divmod(ambient.side(k), rbox.side(k))
        copies *= q
        tiles = tiles and r == 0
    copy_ratio = Fraction(copies) * rmass / amass
    return GoodnessReport(mean_ratio, copy_ratio, copies, tiles)


def find_good_segment_d2(
    family: LengthFamily, box: Box, orientation: str
) -> tuple[Segment, Bound]:
    """First segment with mass at most the family average (exists by
    averaging), with that bound; horizontal segments fix the second
    coordinate."""
    if box.dim != 2:
        raise ValueError("two-dimensional boxes only")
    if orientation == "horizontal":
        fixed_axis, direction = 1, 0
    elif orientation == "vertical":
        fixed_axis, direction = 0, 1
    else:
        raise ValueError("orientation must be horizontal or vertical")
    bound = Bound(Fraction(1, box.side(fixed_axis)), box)
    lo, hi = box.intervals[fixed_axis]
    dlo, dhi = box.intervals[direction]
    for c in range(lo, hi + 1):
        anchor = [0, 0]
        anchor[fixed_axis] = c
        anchor[direction] = dlo
        seg = Segment(tuple(anchor), direction, dhi - dlo + 1, ambient=box)
        if mass_le(family, seg, bound):
            return seg, bound
    raise AssertionError("averaging guarantees a good segment")


# ---------------------------------------------------------------------------
# records, stretches, certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SegmentRecord:
    n: int
    label: str
    seg: Segment
    generator: str
    flag_kind: str
    bound: Bound  # the flag claims mass(seg) <= bound.q * mass(bound.region)
    flag_ok: bool  # as decided by mass_le
    mass_log2: float
    mass_bound_log2: float
    power_sum_log2: float
    power_base_log2: float  # log2 of max(L_n, L_(n+1))^alpha_s (B measured over these)
    entry: Coords | None
    exit: Coords | None

    @property
    def points_between(self) -> int:
        if self.entry is None or self.exit is None:
            return self.seg.count
        a = self.seg.index_of(self.entry)
        b = self.seg.index_of(self.exit)
        if a is None or b is None:
            raise ValueError("witness escapes its segment")
        return abs(b - a) + 1


@dataclass
class ChainCertificate:
    kind: str
    seq: BoxSequence
    family_name: str
    alphas: tuple[Fraction, ...] | Fraction
    masses_log2: dict[int, float]
    measured: dict[str, float]
    records: list[SegmentRecord] = field(default_factory=list)
    stretches: list[Segment] = field(default_factory=list)
    power_ratio_log2: float = NEG_INF  # max of power_sum_log2 - power_base_log2
    notes: tuple[str, ...] = ()

    def records_for(self, n: int) -> list[SegmentRecord]:
        return [r for r in self.records if r.n == n]

    @property
    def all_flags_ok(self) -> bool:
        return all(r.flag_ok for r in self.records)

    def power_ratios(self) -> list[float]:
        return [2.0 ** (r.power_sum_log2 - r.power_base_log2) for r in self.records]


def _alpha_for(alphas, axis: int) -> float:
    if isinstance(alphas, tuple):
        return float(alphas[axis])
    return float(alphas)


def _new_cert(
    kind: str, family: LengthFamily, seq: BoxSequence, alphas, measured=None
) -> ChainCertificate:
    masses = {n: family.box_mass_log2(seq.box(n)) for n in seq.indices()}
    return ChainCertificate(kind, seq, family.name, alphas, masses, measured or {})


def _emit(
    family: LengthFamily,
    cert: ChainCertificate,
    n: int,
    label: str,
    seg: Segment,
    kind: str,
    bound: Bound,
    entry: Coords,
    exit_: Coords,
    generator: str | None = None,
) -> None:
    """Append the record of one chain segment, its flag decided by mass_le."""
    alpha = _alpha_for(cert.alphas, seg.axis)
    base = max(cert.masses_log2[n], cert.masses_log2.get(n + 1, NEG_INF))
    cert.records.append(
        SegmentRecord(
            n=n,
            label=label,
            seg=seg,
            generator=generator or f"f{seg.axis + 1}",
            flag_kind=kind,
            bound=bound,
            flag_ok=mass_le(family, seg, bound),
            mass_log2=mass_log2(family, seg),
            mass_bound_log2=log2_fraction(bound.q) + mass_log2(family, bound.region),
            power_sum_log2=family.segment_power_log2(seg, alpha),
            power_base_log2=alpha * base,
            entry=entry,
            exit=exit_,
        )
    )


def _finish(cert: ChainCertificate, prefix_from: Coords | None) -> ChainCertificate:
    """Walk the witnessed records (after an optional staircase from a base
    point) and fill the measured constants."""
    cert.stretches = _stretches_from_witnessed(cert.records, prefix_from)
    _measure(cert)
    return cert


def _mean_bound(level: Fraction, region: Box | Segment, ambient: Box) -> Bound:
    """The bound: mean over the region at most level times the ambient mean."""
    size = region.npoints() if isinstance(region, Box) else region.count
    return Bound(Fraction(level.numerator * size, level.denominator * ambient.npoints()), ambient)


def _witness_check(records: Sequence[SegmentRecord]) -> bool:
    for a, b in zip(records, records[1:]):
        if a.exit is None or b.entry is None:
            return False
        if a.exit != b.entry:
            return False
        if a.seg.index_of(a.exit) is None or b.seg.index_of(b.entry) is None:
            return False
    return True


def _stretch(entry: Coords, exit_: Coords, axis: int, stride: int = 1) -> Segment:
    """Walk piece from entry to exit inclusive along one axis."""
    delta = exit_[axis] - entry[axis]
    if delta % stride:
        raise ValueError("exit not reachable with this stride")
    steps = delta // stride
    return Segment(
        entry, axis, abs(steps) + 1, step=1 if steps >= 0 else -1, stride=stride
    )


def _measure(cert: ChainCertificate) -> None:
    """Fill the measured-constants table of a freshly built chain."""
    alphas = cert.alphas
    if isinstance(alphas, tuple):
        alpha_min = float(min(alphas))
    else:
        alpha_min = float(alphas)
    b = max(cert.power_ratios(), default=0.0)
    cert.power_ratio_log2 = max(
        (r.power_sum_log2 - r.power_base_log2 for r in cert.records), default=NEG_INF
    )
    d_const = 0.0
    if cert.kind.startswith("B"):
        count_exp = alpha_min * math.log2(2.0)  # standard 2^(n*alpha)
    else:
        count_exp = 2.0 / cert.seq.boxes[0].dim  # standard 4^(n/(d-1))
    per_n: dict[int, int] = {}
    for n in {r.n for r in cert.records}:
        rows = cert.records_for(n)
        per_n[n] = len(rows)
        longest = max(r.points_between for r in rows)
        d_const = max(d_const, 2.0 ** (n * count_exp) / longest)
    cert.measured["B"] = b
    cert.measured["D"] = d_const
    cert.measured["K_d"] = float(max(per_n.values(), default=0))


# ---------------------------------------------------------------------------
# chain verification (recompute everything from the family and sequence)
# ---------------------------------------------------------------------------


def verify_chain(cert: ChainCertificate, family: LengthFamily) -> dict[str, bool]:
    """Recompute all certificate flags from the weight family alone.

    Masses and power sums come from the same closed forms the builders
    use, so they must equal the stored values; each flag is re-decided by
    `mass_le` against its stored bound pair.
    """
    flags = all(
        r.flag_ok
        and mass_le(family, r.seg, r.bound)
        and mass_log2(family, r.seg) == r.mass_log2
        for r in cert.records
    )
    power_sums = [
        family.segment_power_log2(r.seg, _alpha_for(cert.alphas, r.seg.axis))
        for r in cert.records
    ]
    powers = all(ps == r.power_sum_log2 for ps, r in zip(power_sums, cert.records))
    containment = all(
        cert.seq.box(r.n).contains(r.seg.anchor)
        and cert.seq.box(r.n).contains(r.seg.last())
        for r in cert.records
    )
    witnesses = _witness_check(cert.records)
    b_ok = all(
        ps - r.power_base_log2 <= cert.power_ratio_log2
        for ps, r in zip(power_sums, cert.records)
    )
    return {
        "masses": flags,
        "power_sums": powers,
        "containment": containment,
        "witnesses": witnesses,
        "power_bound": b_ok,
        "all": flags and powers and containment and witnesses and b_ok,
    }


# ---------------------------------------------------------------------------
# the planar chain (two exponents)
# ---------------------------------------------------------------------------


def _build_b_d2(family: LengthFamily, seq: BoxSequence) -> ChainCertificate:
    alphas = seq.alphas
    assert alphas is not None and len(alphas) == 2
    cert = _new_cert("B-d2", family, seq, alphas)
    chosen = [
        (n, *find_good_segment_d2(
            family, seq.box(n), "vertical" if n % 2 == 1 else "horizontal"
        ))
        for n in seq.indices()
    ]
    # witnesses: consecutive fixed coordinates meet at a point
    for idx, (n, seg, bound) in enumerate(chosen):
        entry = _cross_point(chosen[idx - 1][1], seg) if idx > 0 else seg.anchor
        exit_ = _cross_point(seg, chosen[idx + 1][1]) if idx + 1 < len(chosen) else seg.last()
        _emit(family, cert, n, f"g{n}", seg, "segment-average", bound, entry, exit_)
    return _finish(cert, _prefix_base(family, seq))


def _cross_point(a: Segment, b: Segment) -> Coords:
    """Intersection point of two crossing full segments."""
    if a.axis == b.axis:
        raise ValueError("parallel segments do not cross")
    pt = list(b.anchor)
    pt[b.axis] = a.anchor[b.axis]
    pt[a.axis] = b.anchor[a.axis]
    out = tuple(pt)
    if a.index_of(out) is None or b.index_of(out) is None:
        raise ValueError(f"segments do not intersect at {out}")
    return out


def _stretches_from_witnessed(
    records: Sequence[SegmentRecord], prefix_from: Coords | None
) -> list[Segment]:
    """Turn witnessed records into an entry-to-exit walk, with an optional
    monotone staircase from a base point to the first entry point."""
    out: list[Segment] = []
    first = records[0].entry
    assert first is not None
    if prefix_from is not None:
        cur = prefix_from
        for axis in range(len(first)):
            if first[axis] != cur[axis]:
                nxt = list(cur)
                nxt[axis] = first[axis]
                out.append(_stretch(cur, tuple(nxt), axis))
                cur = tuple(nxt)
    for r in records:
        assert r.entry is not None and r.exit is not None
        out.append(_stretch(r.entry, r.exit, r.seg.axis, r.seg.stride))
    return out


def _prefix_base(family: LengthFamily, seq: BoxSequence) -> Coords:
    """Walks start at the origin when the family lives there, else at the
    first box's lower corner."""
    dim = seq.boxes[0].dim
    origin = tuple([0] * dim)
    if family.contains(origin):
        return origin
    return tuple(iv[0] for iv in seq.boxes[0].intervals)


# ---------------------------------------------------------------------------
# the black box: reach most points from a fully good segment
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
    return Segment(tuple(anchor), axis, hi - lo + 1, ambient=box)


def _all_segments(box: Box) -> Iterable[Segment]:
    for axis in range(box.dim):
        others = [
            range(lo, hi + 1) if k != axis else [box.intervals[axis][0]]
            for k, (lo, hi) in enumerate(box.intervals)
        ]
        for fixed in itertools.product(*others):
            yield _full_segment(box, axis, fixed)


def segment_flag_boxes(box: Box, seg: Segment) -> list[Box]:
    """Canonical nested flag of a full 1-segment: member j spans the j
    cyclically consecutive axes starting at the segment's direction."""
    dim = box.dim
    out = []
    spanned = {seg.axis}
    ivs = list((c, c) for c in seg.anchor)
    ivs[seg.axis] = box.intervals[seg.axis]
    out.append(Box(tuple(ivs)))
    for j in range(1, dim - 1):
        axis = (seg.axis + j) % dim
        spanned.add(axis)
        ivs[axis] = box.intervals[axis]
        out.append(Box(tuple(ivs)))
    return out


def flag_goodness(family: LengthFamily, box: Box, seg: Segment) -> Fraction:
    """Least mu making the canonical flag fully mu-good (exact)."""
    amass = family.box_mass(box)
    amean = amass / box.npoints()
    worst = Fraction(0)
    for member in segment_flag_boxes(box, seg):
        mmean = family.box_mass(member) / member.npoints()
        worst = max(worst, mmean / amean)
    return worst


@dataclass(frozen=True)
class ReachResult:
    reachable: frozenset[Coords]
    chains: dict[Coords, tuple[Segment, ...]]
    lam: Fraction
    mu: Fraction
    fraction: Fraction
    meets_target: bool


def black_box_reach(
    family: LengthFamily,
    box: Box,
    seg: Segment,
    kappa,
    mu=None,
    lam=None,
    point_cap: int = 20_000,
) -> ReachResult:
    """Points reachable from a fully good 1-segment by short good chains.

    A point counts as reached when some sequence of at most dim-1 full
    unit segments, each lambda'-good in the box (mean form), starts on the
    seed segment, has consecutive members sharing a point, and ends on a
    segment through the point.  lambda' comes from the peeling recursion
    unless supplied explicitly.
    """
    kappa = Fraction(kappa)
    if box.npoints() > point_cap:
        raise ValueError(f"box has more than {point_cap} points")
    lo, hi = box.intervals[seg.axis]
    if seg.stride != 1 or seg.count != hi - lo + 1:
        raise ValueError("seed must be a full unit segment of the box")
    mu_star = flag_goodness(family, box, seg)
    mu = Fraction(mu) if mu is not None else max(Fraction(1), mu_star)
    if mu_star > mu:
        raise ValueError(f"flag is only {mu_star}-good, asked for fully {mu}-good")
    lam = Fraction(lam) if lam is not None else lambda_prime(mu, kappa, box.dim)
    amean = family.box_mass(box) / box.npoints()
    good = [
        s
        for s in _all_segments(box)
        if family.segment_mass(s) / s.count <= lam * amean
    ]
    frontier = [s for s in good if _segments_cross(s, seg)]
    chains: dict[Coords, tuple[Segment, ...]] = {}
    seen_segments = {(s.axis, s.anchor) for s in frontier}
    parents: dict[tuple[int, Coords], tuple[Segment, ...]] = {
        (s.axis, s.anchor): (s,) for s in frontier
    }
    for _level in range(box.dim - 1):
        nxt = []
        for s in frontier:
            chain = parents[(s.axis, s.anchor)]
            for p in s.points():
                chains.setdefault(p, chain)
            for t in good:
                key = (t.axis, t.anchor)
                if key in seen_segments or not _segments_cross(s, t):
                    continue
                seen_segments.add(key)
                parents[key] = chain + (t,)
                nxt.append(t)
        frontier = nxt
    reachable = frozenset(chains)
    fraction = Fraction(len(reachable), box.npoints())
    return ReachResult(reachable, chains, lam, mu, fraction, fraction >= kappa)


def _segments_cross(a: Segment, b: Segment) -> bool:
    if a.axis == b.axis:
        return a.anchor == b.anchor
    return all(
        a.anchor[k] == b.anchor[k] for k in range(len(a.anchor)) if k not in (a.axis, b.axis)
    )


def brute_reach(
    family: LengthFamily,
    box: Box,
    seg: Segment,
    lam: Fraction,
    max_segments: int,
) -> frozenset[Coords]:
    """Oracle twin of the reach search: cumulative point-set recursion with
    per-point weight sums instead of closed forms."""
    amean = sum((family.weight(p) for p in box.points()), Fraction(0)) / box.npoints()

    def seg_good(s: Segment) -> bool:
        total = sum((family.weight(p) for p in s.points()), Fraction(0))
        return total / s.count <= lam * amean

    good = [s for s in _all_segments(box) if seg_good(s)]
    covered: set[Coords] = set()
    frontier_points = set(seg.points())
    for _ in range(max_segments):
        new_points: set[Coords] = set()
        for s in good:
            if any(p in frontier_points for p in s.points()):
                new_points.update(s.points())
        if new_points <= frontier_points and covered:
            break
        covered.update(new_points)
        frontier_points = frontier_points | new_points
    return frozenset(covered)


# ---------------------------------------------------------------------------
# vertical sections: reach along one fiber with stride moves
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VerticalReach:
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
    mu=None,
) -> VerticalReach:
    """Reach most of a vertical section from an admissible fully good point.

    Chains use at most dim-1 = d-2 stride segments: first a unit-stride run
    through the point's finest subdivision piece, then runs whose strides
    are the point's own coordinates (the strides the group action offers on
    that fiber), each spanning the whole section and flagged against lambda
    times the box mean.  Segment lengths are reported through D'.  A given
    mu must make the point fully mu-good (ValueError otherwise); without
    one, mu is the least power of two that does.
    """
    a = Fraction(a)
    kappa = Fraction(kappa)
    dim = box.dim
    d = dim + 1
    tree = vertical_subdivision(box, a)
    if not box.contains(point):
        raise ValueError("point outside the box")
    level = tree.level(point[-1])
    if not level.admissible:
        raise ValueError(f"level {point[-1]} is not admissible")
    # fully good check along the chain restricted to the fiber: each
    # member's mean is at most mu times the box mean
    fiber_ivs = tuple((c, c) for c in point[:-1])
    members = []
    for k in range(1, len(level.chain) + 1):
        piece = tree.chain_box(level.chain[:k])
        restricted = Box(fiber_ivs + (piece.intervals[-1],))
        members.append((restricted, _mean_bound(Fraction(1), restricted, box)))
    if mu is None:
        mu_val = Fraction(2) ** _least_power_of_two(family, members)
    else:
        mu_val = Fraction(mu)
        if not all(mass_le(family, r, Bound(mu_val * q, b)) for r, (q, b) in members):
            raise ValueError(f"point is not fully {mu_val}-good")
    lam = stride_cascade_lambda(mu_val, a, d, kappa)
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
        return Segment(anchor, dim - 1, count, stride=stride)

    def seg_ok(s: Segment) -> bool:
        return mass_le(family, s, _mean_bound(lam, s, box))

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
        frozenset(covered), chains, lam, mu_val, d_prime, fraction, fraction >= kappa
    )


# ---------------------------------------------------------------------------
# the spatial chain with planes (three exponents)
# ---------------------------------------------------------------------------


def _build_b_d3(
    family: LengthFamily, seq: BoxSequence, lam: Fraction | None
) -> ChainCertificate:
    alphas = seq.alphas
    assert alphas is not None and len(alphas) == 3
    from .boxes import inocent_constant

    d2 = inocent_constant(seq)
    lam = Fraction(lam) if lam is not None else max(Fraction(2), 2 / d2)
    cert = _new_cert("B-d3", family, seq, alphas, {"lambda": float(lam)})
    lo_n, hi_n = min(seq.indices()), max(seq.indices())

    def axes_of(n: int) -> tuple[int, int, int]:
        m0 = (n - 1) % 3
        return m0, (m0 + 1) % 3, (m0 + 2) % 3

    def first_ok(candidates: Iterable, bounds: Sequence[Bound]):
        """First candidate whose regions all meet their bounds."""
        for regions in candidates:
            if all(mass_le(family, r, b) for r, b in zip(regions, bounds)):
                return regions[0]
        return None

    # P_1: first lambda-good plane of Q(1), on the axis m2
    box = seq.box(lo_n)
    m2 = axes_of(lo_n)[2]
    plane = first_ok(
        ((box.fix_axis(m2, v),) for v in range(*_r(box.intervals[m2]))),
        (Bound(lam / box.side(m2), box),),
    )
    if plane is None:
        raise ChainSearchError("no good plane", lo_n)
    pending: list[tuple] = []
    for n in range(lo_n, hi_n):
        m0, m1, m2 = axes_of(n)
        box, nxt = seq.box(n), seq.box(n + 1)
        p_val = plane.intervals[m2][0]
        # gamma_n^1: 1-good horizontal segment of the plane (direction m0)
        h_bound = Bound(Fraction(1, box.side(m1)), plane)
        seg1 = first_ok(
            ((_full_segment(box, m0, _coords({m2: p_val, m1: h})),)
             for h in range(*_r(box.intervals[m1]))),
            (h_bound,),
        )
        if seg1 is None:
            raise ChainSearchError("no plane-average segment", n)
        # joint scan: vertical of P_n at v, and plane of Q(n+1) at v
        v_bound = Bound(lam / box.side(m0), plane)
        seg2 = first_ok(
            ((Segment(_coords({m2: p_val, m0: v, m1: box.intervals[m1][0]}), m1,
                      box.side(m1)), nxt.fix_axis(m0, v))
             for v in range(*_r(nxt.intervals[m0]))),
            (v_bound, Bound(lam / nxt.side(m0), nxt)),
        )
        if seg2 is None:
            raise ChainSearchError("no shared good vertical/plane", n)
        v_val = seg2.anchor[m0]
        plane = nxt.fix_axis(m0, v_val)
        # gamma_n^3: lambda-good vertical of P_(n+1) inside Q(n), direction m2
        w_bound = Bound(lam / nxt.side(m1), plane)
        seg3 = first_ok(
            ((_full_segment(box, m2, _coords({m0: v_val, m1: w})),)
             for w in range(*_r(box.intervals[m1]))),
            (w_bound,),
        )
        if seg3 is None:
            raise ChainSearchError("no good cross vertical", n)
        pending.append((n, (seg1, h_bound), (seg2, v_bound), (seg3, w_bound)))

    for idx, (n, (seg1, hb), (seg2, vb), (seg3, wb)) in enumerate(pending):
        prev3 = pending[idx - 1][3][0] if idx > 0 else None
        nxt1 = pending[idx + 1][1][0] if idx + 1 < len(pending) else None
        e1 = _cross_point(prev3, seg1) if prev3 is not None else seg1.anchor
        x1 = _cross_point(seg1, seg2)
        x2 = _cross_point(seg2, seg3)
        x3 = _cross_point(seg3, nxt1) if nxt1 is not None else seg3.last()
        for label, seg, bound, entry, exit_, kind in (
            ("1", seg1, hb, e1, x1, "plane-average-row"),
            ("2", seg2, vb, x1, x2, "shared-plane-vertical"),
            ("3", seg3, wb, x2, x3, "next-plane-vertical"),
        ):
            _emit(family, cert, n, f"g{n}.{label}", seg, kind, bound, entry, exit_)
    return _finish(cert, _prefix_base(family, seq))


def _r(iv: tuple[int, int]) -> tuple[int, int]:
    return iv[0], iv[1] + 1


def _coords(values: dict[int, int]) -> Coords:
    """A point of Z^3 with the given coordinates and zeros elsewhere."""
    out = [0, 0, 0]
    for k, v in values.items():
        out[k] = v
    return tuple(out)


# ---------------------------------------------------------------------------
# the general chain through staircases in box overlaps
# ---------------------------------------------------------------------------


def find_fully_good_segment(
    family: LengthFamily,
    box: Box,
    axis: int,
    lam: Fraction,
    visit_cap: int = SEARCH_CAP,
) -> tuple[Segment, Fraction]:
    """The fully lambda-good segment of `_fully_good_segment`, with the
    exact goodness of its flag."""
    seg = _fully_good_segment(family, box, axis, lam, visit_cap)
    return seg, flag_goodness(family, box, seg)


def _fully_good_segment(
    family: LengthFamily,
    box: Box,
    axis: int,
    lam: Fraction,
    visit_cap: int = SEARCH_CAP,
) -> Segment:
    """Depth-first search for a 1-segment whose canonical flag is fully
    lambda-good (each member's mean at most lambda times the box mean).

    Fixes the flag's axes top-down (the axis cyclically before the segment
    direction first); deterministic: ascending coordinate scan with the
    first fully good branch kept.
    """
    dim = box.dim
    order = [(axis - t) % dim for t in range(1, dim)]
    fixed: dict[int, int] = {}
    visits = 0

    def member_box(upto: int) -> Box:
        ivs = list(box.intervals)
        for a in order[: upto + 1]:
            ivs[a] = (fixed[a], fixed[a])
        return Box(tuple(ivs))

    def dfs(t: int) -> bool:
        nonlocal visits
        if t == len(order):
            return True
        a = order[t]
        lo, hi = box.intervals[a]
        for v in range(lo, hi + 1):
            visits += 1
            if visits > visit_cap:
                raise ChainSearchError("fully good segment search exhausted", None)
            fixed[a] = v
            member = member_box(t)
            if mass_le(family, member, _mean_bound(lam, member, box)):
                if dfs(t + 1):
                    return True
            del fixed[a]
        return False

    if not dfs(0):
        raise ChainSearchError("no fully good segment in box", None)
    anchor = [0] * dim
    for a, v in fixed.items():
        anchor[a] = v
    anchor[axis] = box.intervals[axis][0]
    return Segment(tuple(anchor), axis, box.side(axis), ambient=box)


def _build_b_general(
    family: LengthFamily, seq: BoxSequence, lam: Fraction | None
) -> ChainCertificate:
    alphas = seq.alphas
    assert alphas is not None
    d = len(alphas)
    lam = Fraction(lam) if lam is not None else Fraction(2 * (d - 1) + 1)
    lam_prime = lambda_prime(lam, Fraction(1, 2), d)
    cert = _new_cert(
        "B-general", family, seq, alphas,
        {"lambda": float(lam), "lambda_prime": float(lam_prime)},
    )
    lo_n, hi_n = min(seq.indices()), max(seq.indices())

    def m_axis(n: int) -> int:
        return (n - 1) % d

    segs: dict[int, Segment] = {}
    seg = _fully_good_segment(family, seq.box(lo_n), m_axis(lo_n), lam)
    segs[lo_n] = seg
    entries: dict[int, Coords] = {lo_n: seg.anchor}
    for n in range(lo_n, hi_n):
        box, nxt = seq.box(n), seq.box(n + 1)
        overlap = box.intersect(nxt)
        assert overlap is not None
        m0 = m_axis(n)
        m_next = m_axis(n + 1)
        cur = segs[n]
        nxt_seg = _fully_good_segment(family, nxt, m_next, lam)
        # choose the target point on the next anchor segment, scanning its
        # span, so that the connecting staircase in the overlap is good
        t_lo, t_hi = overlap.intervals[m_next]
        found = None
        for t in range(t_lo, t_hi + 1):
            p = list(nxt_seg.anchor)
            p[m_next] = t
            p = tuple(p)
            stair = _staircase_segments(overlap, cur, p, m0)
            if stair is None:
                continue
            if all(mass_le(family, s, _mean_bound(lam_prime, s, overlap)) for s in stair):
                found = (p, stair)
                break
        if found is None:
            raise ChainSearchError("no good staircase into the next box", n)
        p, stair = found
        junctions = _staircase_junctions(cur, stair, p)
        _emit(family, cert, n, f"g{n}.1", cur, "fully-good-anchor",
              _mean_bound(lam, cur, box), entries[n], junctions[0])
        for k, (s, e_in, e_out) in enumerate(
            zip(stair, junctions[:-1], junctions[1:])
        ):
            _emit(family, cert, n, f"g{n}.{k + 2}", s, "staircase-overlap",
                  _mean_bound(lam_prime, s, overlap), e_in, e_out)
        segs[n + 1] = nxt_seg
        entries[n + 1] = p
    _emit(family, cert, hi_n, f"g{hi_n}.1", segs[hi_n], "fully-good-anchor",
          _mean_bound(lam, segs[hi_n], seq.box(hi_n)), entries[hi_n], segs[hi_n].last())
    return _finish(cert, _prefix_base(family, seq))


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


def _staircase_junctions(
    cur: Segment, stair: Sequence[Segment], target: Coords
) -> list[Coords]:
    """Shared points: cur/stair_1, stair_k/stair_(k+1), ..., last = target."""
    out = []
    coords = list(stair[0].anchor)
    coords[stair[0].axis] = cur.anchor[stair[0].axis]
    # junction of cur and stair_1: the pivot point on cur
    pivot = list(cur.anchor)
    pivot[cur.axis] = stair[0].anchor[cur.axis]
    out.append(tuple(pivot))
    run = list(pivot)
    for k, s in enumerate(stair):
        if k + 1 < len(stair):
            run[s.axis] = target[s.axis]
            out.append(tuple(run))
        else:
            out.append(target)
    return out


# ---------------------------------------------------------------------------
# the planar orbit chain driven by the group action (strips and strides)
# ---------------------------------------------------------------------------


def _strips(box: Box, stride: int) -> list[tuple[int, int, int]]:
    """(index r, j_lo, j_hi) strips of the box's second axis, heights equal
    to the stride except possibly the last one; 1-based indices."""
    x2, y2 = box.intervals[1]
    out = []
    r = 0
    j = x2
    while j <= y2:
        r += 1
        out.append((r, j, min(j + stride - 1, y2)))
        j += stride
    return out


def _first_in_class(j_lo: int, j_hi: int, anchor_j: int, k: int) -> int | None:
    """Smallest j in [j_lo, j_hi] congruent to anchor_j mod k."""
    delta = (anchor_j - j_lo) % k
    j = j_lo + delta
    return j if j <= j_hi else None


def chain_start_stage(seq: BoxSequence) -> int:
    """First even stage whose following odd stage has at least two strips."""
    for n in seq.indices():
        if n % 2 == 1 and n - 1 in seq.indices():
            stride = seq.box(n).intervals[0][1]
            if len(_strips(seq.box(n), stride)) >= 2:
                return n - 1
    raise ChainSearchError("no workable stage in range", None)


def _build_ff_d3(
    family: LengthFamily, seq: BoxSequence, n_start: int | None = None
) -> ChainCertificate:
    if seq.kind != "FF" or seq.d != 3:
        raise ValueError("needs the FF sequence with d=3")
    alpha = Fraction(1, 3)  # 2/(d(d-1)) at d=3
    lam = Fraction(2)
    cert = _new_cert("FF-d3", family, seq, alpha, {"lambda": float(lam)})
    n0 = chain_start_stage(seq) if n_start is None else n_start
    if n0 % 2:
        raise ValueError("chains start at an even stage")
    n_end = max(seq.indices())
    if n_end - n0 < 2:
        raise ValueError("sequence too short past the start stage")

    def column(box: Box, k: int) -> Box:
        return box.fix_axis(0, k)

    def col_scan(n: int) -> int:
        """First k with a 2-good vertical set in Q(n)."""
        box = seq.box(n)
        bound = Bound(lam / box.side(0), box)
        for k in range(*_r(box.intervals[0])):
            if mass_le(family, column(box, k), bound):
                return k
        raise ChainSearchError("no good vertical set", n)

    def class_scan(n: int, k: int) -> tuple[Segment, Bound]:
        """First stride-k class that is average-good in its vertical set."""
        box = seq.box(n)
        bound = Bound(Fraction(1, k), column(box, k))
        x2, y2 = box.intervals[1]
        for r0 in range(min(k, y2 - x2 + 1)):
            j0 = x2 + r0
            count = (y2 - j0) // k + 1
            s = Segment((k, j0), 1, count, stride=k)
            if mass_le(family, s, bound):
                return s, bound
        raise ChainSearchError("no good stride class", n)

    # opening stage; the walk reaches its entry by a plain staircase from
    # the seed box corner
    k = col_scan(n0)
    g1, g1_bound = class_scan(n0, k)
    entry: Coords = g1.anchor
    n = n0
    while n + 2 <= n_end:
        even, odd, nxt_even = n, n + 1, n + 2
        box_e, box_o, box_e2 = seq.box(even), seq.box(odd), seq.box(nxt_even)
        stride = box_o.intervals[0][1]  # strip height y_(1,odd)
        strips = _strips(box_o, stride)
        big_r = len(strips)
        if big_r < 2:
            raise ChainSearchError("degenerate strip decomposition", odd)
        overlap_col = box_e.intersect(box_o)
        assert overlap_col is not None
        # joint strip scan: overlap-vertical 2-good and strip 2-good
        seg2_bound = Bound(lam / big_r, overlap_col.fix_axis(0, k))
        strip_bound = Bound(lam / big_r, box_o)
        pick = None
        for _, j_lo, j_hi in strips[:-1]:
            strip_box = Box((box_o.intervals[0], (j_lo, j_hi)))
            seg2 = Segment((k, j_lo), 1, j_hi - j_lo + 1)
            if mass_le(family, seg2, seg2_bound) and mass_le(family, strip_box, strip_bound):
                pick = (j_lo, j_hi, strip_box, seg2)
                break
        if pick is None:
            raise ChainSearchError("no jointly good strip", odd)
        j_lo, j_hi, strip_box, seg2 = pick
        # walk gamma_even^1 from its entry to the strip
        j_star = _first_in_class(j_lo, j_hi, g1.anchor[1], g1.stride)
        assert j_star is not None, "strip shorter than the class stride"
        _emit(family, cert, even, f"g{even}.1", g1, "vertical-set-class", g1_bound,
              entry, (k, j_star), "f(3,2)")
        # row scan inside the strip
        row_bound = Bound(Fraction(1, stride), strip_box)
        for j in range(j_lo, j_hi + 1):
            row = Segment((box_o.intervals[0][0], j), 0, box_o.side(0))
            if mass_le(family, row, row_bound):
                break
        else:
            raise ChainSearchError("no average-good row in strip", odd)
        j0 = row.anchor[1]
        _emit(family, cert, even, f"g{even}.2", seg2, "overlap-vertical", seg2_bound,
              (k, j_star), (k, j0), "f(3,1)")
        # joint column scan for the next even box
        seg3_bound = Bound(lam / box_o.side(0), strip_box)
        column_bound = Bound(lam / box_e2.side(0), box_e2)
        pick2 = None
        for kp in range(*_r(box_e2.intervals[0])):
            seg3 = Segment((kp, j_lo), 1, j_hi - j_lo + 1)
            if mass_le(family, seg3, seg3_bound) and mass_le(
                family, column(box_e2, kp), column_bound
            ):
                pick2 = (kp, seg3)
                break
        if pick2 is None:
            raise ChainSearchError("no jointly good column", nxt_even)
        kp, seg3 = pick2
        _emit(family, cert, odd, f"g{odd}.1", row, "strip-row", row_bound,
              (k, j0), (kp, j0), "f(2,1)")
        g1_next, g1_next_bound = class_scan(nxt_even, kp)
        j_next = _first_in_class(j_lo, j_hi, g1_next.anchor[1], g1_next.stride)
        assert j_next is not None, "strip shorter than the next stride"
        _emit(family, cert, odd, f"g{odd}.2", seg3, "strip-overlap-vertical", seg3_bound,
              (kp, j0), (kp, j_next), "f(3,1)")
        k, g1, g1_bound, entry = kp, g1_next, g1_next_bound, (kp, j_next)
        n = nxt_even
    # close the final class segment
    _emit(family, cert, n, f"g{n}.1", g1, "vertical-set-class", g1_bound,
          entry, g1.last(), "f(3,2)")
    corner = tuple(iv[0] for iv in seq.box(min(seq.indices())).intervals)
    cert.notes = (
        "strip heights use the first factor's raw upper endpoint, not its side length",
    )
    return _finish(cert, corner)


def lambda_two(kappa, mu, a, d: int):
    """Concatenation goodness level across a window of round boxes.

    Follows the two-branch recursion with kappa' chosen minimal; feasible
    only when the target proportion stays below 1/a^2, which for measured
    roundness constants of the inductive sequences is a strong restriction
    (callers fall back to measured levels when this raises).
    """
    kappa, mu, a = Fraction(kappa), Fraction(mu), Fraction(a)
    if d < 3:
        raise ValueError("need d >= 3")
    if d == 3:
        return max(
            stride_cascade_lambda(mu, a, 3, kappa), 2 * mu / (1 - kappa)
        )
    kappa_p = (kappa + 2 - 1 / a ** 2) / 2
    if not kappa_p < 1:
        raise ValueError(f"kappa={kappa} infeasible for roundness {a}")
    kappa_p = max(kappa_p, kappa)
    return max(
        lambda_two(kappa_p, mu, a, d - 1),
        stride_cascade_lambda(mu / (1 - kappa_p), a, d, kappa),
    )


def _build_ff_general(
    family: LengthFamily, seq: BoxSequence, lam: Fraction | None
) -> ChainCertificate:
    if seq.kind != "FF" or seq.d is None:
        raise ValueError("needs an FF sequence")
    d = seq.d
    dim = d - 1
    alpha = Fraction(2, d * (d - 1))
    cert = _new_cert("FF-general", family, seq, alpha)
    lo_n, hi_n = min(seq.indices()), max(seq.indices())
    point = tuple(iv[0] for iv in seq.box(lo_n).intervals)
    plan: list[tuple[int, list[Segment], list[Coords]]] = []
    for n in range(lo_n, hi_n):
        box = seq.box(n)
        overlap = box.intersect(seq.box(n + 1))
        assert overlap is not None
        target = tuple(iv[0] for iv in overlap.intervals)
        segs: list[Segment] = []
        junctions: list[Coords] = [point]
        cur = list(point)
        for axis in range(dim):
            segs.append(_full_segment(box, axis, tuple(cur)))
            cur[axis] = target[axis]
            junctions.append(tuple(cur))
        plan.append((n, segs, junctions))
        point = target
    # least power of two bounding every staircase segment's mean ratio
    lam_measured = Fraction(2) ** _least_power_of_two(family, [
        (seg, _mean_bound(Fraction(1), seg, seq.box(n)))
        for n, segs, _ in plan for seg in segs
    ])
    a_round = max(
        (minimal_round_constant(b) or Fraction(10 ** 9) for b in seq.boxes),
    )
    try:
        lam_policy = lambda_two(Fraction(1, 2), Fraction(1), a_round, d)
        cert.measured["lambda_two"] = float(lam_policy)
    except ValueError:
        lam_policy = None
    lam_used = Fraction(lam) if lam is not None else max(
        lam_measured, lam_policy or 0
    )
    cert.measured["lambda"] = float(lam_used)
    for n, segs, junctions in plan:
        for kidx, seg in enumerate(segs):
            _emit(family, cert, n, f"g{n}.{kidx + 1}", seg, "staircase-mean",
                  _mean_bound(lam_used, seg, seq.box(n)), junctions[kidx],
                  junctions[kidx + 1], f"f({seg.axis + 2},1)")
    return _finish(cert, None)


def build_chain(
    kind: str,
    family: LengthFamily,
    seq: BoxSequence,
    lam: Fraction | None = None,
    n_start: int | None = None,
) -> ChainCertificate:
    """Build one of the deterministic concatenated chains over a sequence."""
    if kind == "B-d2":
        if seq.kind != "B-d2":
            raise ValueError("sequence kind mismatch")
        return _build_b_d2(family, seq)
    if kind == "B-d3":
        if seq.kind != "B-general" or seq.d != 3:
            raise ValueError("needs the B-general sequence with d=3")
        return _build_b_d3(family, seq, lam)
    if kind == "B-general":
        if seq.kind != "B-general":
            raise ValueError("sequence kind mismatch")
        return _build_b_general(family, seq, lam)
    if kind == "FF-d3":
        return _build_ff_d3(family, seq, n_start)
    if kind == "FF-general":
        return _build_ff_general(family, seq, lam)
    raise ValueError(f"unknown chain kind {kind!r}")


# ---------------------------------------------------------------------------
# entry times and distortion budgets along the walk
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BudgetRow:
    n: int
    entry_index: int
    budget: float
    ratio: float  # budget / (ln N)^(1-alpha)


@dataclass(frozen=True)
class BudgetReport:
    rows: tuple[BudgetRow, ...]
    a_prime: float
    ratio_spread: float  # max/min of ratio over the reported rows
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
    a = stretch.anchor[stretch.axis]
    ss = stretch.step * stretch.stride
    if ss > 0:
        t_lo = -(-(lo - a) // ss) if lo > a else 0
        t_hi = (hi - a) // ss
    else:
        t_lo = -(-(a - hi) // -ss) if a > hi else 0
        t_hi = (a - lo) // -ss
    t_lo = max(t_lo, 0)
    t_hi = min(t_hi, stretch.count - 1)
    return t_lo if t_lo <= t_hi else None


def distortion_budget(
    cert: ChainCertificate,
    family: LengthFamily,
    exponents=None,
    min_fit_n: int = 2,
) -> BudgetReport:
    """Entry times N(n) and cumulative Holder sums along the walk.

    For each box index n the budget is the sum of weight(point)^a(step)
    over walk points up to the first entry into Q(n+1); the fitted constant
    is the largest ratio budget / (ln N)^(1-alpha_min) over n >= min_fit_n.
    """
    alphas = exponents if exponents is not None else cert.alphas
    alpha_min = float(min(alphas)) if isinstance(alphas, tuple) else float(alphas)
    stretches = cert.stretches
    starts = [0]
    for s in stretches:
        starts.append(starts[-1] + s.count - 1)
    total = starts[-1] + 1

    def budget_upto(m_cut: int) -> float:
        acc = 0.0
        for i, s in enumerate(stretches):
            if starts[i] > m_cut:
                break
            own_hi = s.count - 2 if i + 1 < len(stretches) else s.count - 1
            t_hi = min(own_hi, m_cut - starts[i])
            if t_hi < 0:
                continue
            part = Segment(s.anchor, s.axis, t_hi + 1, step=s.step, stride=s.stride)
            alpha = _alpha_for(alphas, s.axis)
            acc += 2.0 ** family.segment_power_log2(part, alpha)
        return acc

    rows = []
    indices = sorted(cert.masses_log2)
    for n in indices:
        if n + 1 not in cert.masses_log2:
            continue
        nxt_box = cert.seq.box(n + 1)
        entry = None
        for i, s in enumerate(stretches):
            t = _stretch_entry_t(s, nxt_box)
            if t is not None:
                entry = starts[i] + t
                break
        if entry is None or entry == 0:
            continue
        b = budget_upto(entry)
        ln = math.log(entry)
        ratio = b / ln ** (1.0 - alpha_min) if ln > 0 else math.inf
        rows.append(BudgetRow(n, entry, b, ratio))
    fit_rows = [r for r in rows if r.n >= min_fit_n and math.isfinite(r.ratio)]
    a_prime = max((r.ratio for r in fit_rows), default=0.0)
    spread = (
        max(r.ratio for r in fit_rows) / min(r.ratio for r in fit_rows)
        if fit_rows
        else math.inf
    )
    return BudgetReport(tuple(rows), a_prime, spread, total)
