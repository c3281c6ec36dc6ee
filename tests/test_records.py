"""What the package relies on from its validated records.

`Box`, `Segment`, `BoxSequence` and `SmoothMap` check their fields when
they are built, cannot be changed afterwards, and hash as the tuple of
their fields, so family memos keyed by regions and the order of sets of
them do not depend on how a record is implemented.  The identity check's
matrices and words are plain tuples; it checks a caller's powers and
generators before its first sample.
"""

import re

import numpy as np
import pytest

from critreg.boxes import BoxSequence
from critreg.lattice import Box, Segment
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
