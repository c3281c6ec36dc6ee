"""What the package relies on from its validated records.

`Box`, `Segment`, `BoxSequence` and `SmoothMap` check their fields when
they are built, cannot be changed afterwards, and hash as the tuple of
their fields, so family memos keyed by regions and the order of sets of
them do not depend on how a record is implemented.  The chain path builds
some boxes and segments with `_make`, skipping those checks where its
inputs already hold them; each such build equals the checked one.  The identity check's
matrices and words are plain tuples; it checks a caller's powers and
generators before its first sample.
"""

import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from critreg import concat
from critreg.boxes import BoxSequence, build_sequence
from critreg.concat import SegmentRecord
from critreg.lattice import Bound, Box, Segment, geometric_family, translated
from critreg.nilpotent import conjugacy_distortion_check, generator
from critreg.smooth import SmoothMap

SQUARE = Box(((0, 5), (0, 5)))


def _identity(x, out=None):
    return np.positive(x, out=out)


def _half(x, out=None):
    return np.multiply(x, 0.5, out=out)


_NOT_UNIPOTENT = "g^1 is not a lower-unitriangular 2x2 matrix"


def _power(rows):
    return conjugacy_distortion_check({1: rows}, [])


INVALID = {
    "empty interval": (lambda: Box(((0, 3), (2, 1))), "empty interval [2, 1]"),
    "too many axes": (lambda: Box(((0, 1),) * 7), "dimension must be in [1, 6], got 7"),
    "no points": (lambda: Segment((0, 0), 0, 0), "segment needs at least one point"),
    "step": (lambda: Segment((0, 0), 0, 2, step=0), "step must be nonzero"),
    "axis": (lambda: Segment((0, 0), 2, 2), "axis out of range"),
    "falling endpoint": (
        lambda: BoxSequence("B-d2", 1, (Box(((0, 3), (0, 3))), Box(((1, 4), (0, 2)))), 2),
        "an endpoint falls from Q(1) to Q(2)"),
    "empty map interval": (lambda: SmoothMap(_identity, _identity, 1.0, 1.0), "need a < b"),
    "moving fixed point": (lambda: SmoothMap(_half, _half, 0.0, 1.0, (0.0, 1.0)),
                           "declared fixed point 1.0 moves under the map"),
    "ragged matrix": (lambda: _power(((1, 0), (0,))), _NOT_UNIPOTENT),
    "diagonal": (lambda: _power(((2, 0), (0, 1))), _NOT_UNIPOTENT),
    "upper entry": (lambda: _power(((1, 1), (0, 1))), _NOT_UNIPOTENT),
    "letter off the group": (
        lambda: conjugacy_distortion_check({1: generator(3, 3, 1)}, [(5, 1)]),
        "letter f(5,1) outside the rank-3 group"),
}


@pytest.mark.parametrize("case", sorted(INVALID))
def test_constructor_rejects_invalid_fields(case):
    build, message = INVALID[case]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


VALID = {
    "box": (SQUARE, "intervals"),
    "segment": (Segment((0, 1), 0, 6, -2), "count"),
    "sequence": (BoxSequence("B-d2", 1, (SQUARE, Box(((0, 6), (0, 5)))), 2), "boxes"),
    "map": (SmoothMap(_identity, _identity, 0.0, 1.0, (0.5,)), "a"),
}


@pytest.mark.parametrize("case", sorted(VALID))
def test_fields_cannot_be_assigned(case):
    record, field = VALID[case]
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.extra = 1


def test_records_hash_as_their_field_tuples():
    intervals = ((0, 5), (2, 3))
    assert hash(Box(intervals)) == hash((intervals,))
    assert hash(Segment((0, 2), 0, 4, -3)) == hash(((0, 2), 0, 4, -3))
    assert hash(Segment((1, 2), 1, 2)) == hash(((1, 2), 1, 2, 1))
    # equal fields make equal records, whichever call built them
    assert Segment((1, 2), 1, 2) == Segment(anchor=(1, 2), axis=1, count=2, step=1)
    assert Segment((1, 2), 1, 2, -1)._fields == ("anchor", "axis", "count", "step")


_COORD = st.integers(-6, 6)


@st.composite
def _boxes(draw, d):
    los = draw(st.lists(_COORD, min_size=d, max_size=d))
    return Box(tuple((lo, lo + draw(st.integers(0, 4))) for lo in los))


@st.composite
def _segments(draw, d):
    step = draw(st.sampled_from((1, -1))) * draw(st.integers(1, 3))
    return Segment(tuple(draw(st.lists(_COORD, min_size=d, max_size=d))),
                   draw(st.integers(0, d - 1)), draw(st.integers(1, 5)), step)


def _same(got, want):
    assert type(got) is type(want) and got == want


@given(st.integers(2, 4).flatmap(
    lambda d: st.tuples(_boxes(d), _boxes(d), _segments(d), st.integers(0, d - 1), _COORD,
                        st.lists(st.tuples(st.integers(0, 4), st.integers(0, d - 1)),
                                 min_size=1, max_size=5))))
@settings(max_examples=300, deadline=None)
def test_unchecked_builds_match_the_checked_constructors(case):
    box, other, seg, k, delta, walk = case
    # translates
    ivs = [(lo + delta, hi + delta) if j == k else (lo, hi)
           for j, (lo, hi) in enumerate(box.intervals)]
    _same(translated(box, k, delta), Box(tuple(ivs)))
    anchor = tuple(c + delta if j == k else c for j, c in enumerate(seg.anchor))
    _same(translated(seg, k, delta), Segment(anchor, seg.axis, seg.count, seg.step))
    # fix_axis on the box and off it
    lo, hi = box.intervals[k]
    for value in (lo, hi, delta):
        if lo <= value <= hi:
            fixed = [(value, value) if j == k else iv for j, iv in enumerate(box.intervals)]
            _same(box.fix_axis(k, value), Box(tuple(fixed)))
        else:
            with pytest.raises(ValueError, match="outside axis"):
                box.fix_axis(k, value)
    # intersect of overlapping and of disjoint boxes
    meet = [(max(a, c), min(b, e)) for (a, b), (c, e) in zip(box.intervals, other.intervals)]
    if all(a <= b for a, b in meet):
        _same(box.intersect(other), Box(tuple(meet)))
    else:
        with pytest.raises(ValueError, match="disjoint"):
            box.intersect(other)
    # the legs of a walk that turns at a drawn point of each leg, with and
    # without a generator: _assemble's records are the legs given their points
    legs, cur = [], seg
    for i, (t, axis) in enumerate(walk):
        if axis == cur.axis:
            axis = (axis + 1) % len(cur.anchor)
        nxt = Segment(cur.point(min(t, cur.count - 1)), axis, t + 1, -1 if t % 2 else 2)
        legs.append(SegmentRecord(i, f"g{i}", cur, "kind", Bound(Fraction(1, i + 1), box),
                                  None if i % 2 else "f(2,1)"))
        cur = nxt
    cert = concat._assemble("B-d2", None, legs, None)
    for leg, rec in zip(legs, cert.records):
        _same(rec, leg._replace(generator=leg.generator or f"f{leg.seg.axis + 1}",
                                entry=rec.entry, exit=rec.exit))
        assert leg.seg.index_of(rec.entry) is not None and leg.seg.index_of(rec.exit) is not None


@given(st.sampled_from(("B-d3", "B-general")),
       st.sampled_from(("1/3,1/3,1/3", "1/4,1/4,1/2", "1/6,1/3,1/2")), st.integers(3, 16))
@settings(max_examples=25, deadline=None)
def test_budget_cuts_match_the_checked_constructor(kind, alphas, n_max):
    # every power sum of distortion_budget, the truncated stretches among
    # them, is over a segment that the checked constructor builds alike;
    # these walks run both ways
    fam = geometric_family(3)
    seq = build_sequence("B-general", alphas=[Fraction(a) for a in alphas.split(",")],
                         n_max=n_max)
    cert = concat.build_chain(kind, fam, seq)
    seen = []
    inner = fam.range_power_log2
    fam.range_power_log2 = lambda seg, alpha: seen.append(seg) or inner(seg, alpha)
    concat.distortion_budget(cert, fam)
    assert {s.step > 0 for s in seen} == {True, False}
    for seg in seen:
        _same(seg, Segment(seg.anchor, seg.axis, seg.count, seg.step))
