"""Metamorphic relations: properties that follow from the paper's statements.

Each test changes an input in a way the mathematics says cannot matter and
checks that the program's answer does not change either.  No second
implementation is involved, so a misreading that a reference in
`tests/oracles.py` shares with the package can still show up here.
"""

import contextlib
import io
import json
from fractions import Fraction

import pytest

from critreg.boxes import build_sequence
from critreg.cli import main
from critreg.concat import build_chain, distortion_budget, stage_counts
from critreg.lattice import (
    ProductFamily,
    TableFamily,
    geometric_family,
    symmetric_geometric_family,
)

from oracles import CHAIN_CASES

# w(i, j) = 2^-(i+j+2) on a 6x6 square, as in `make_digests.TABLES`
SQUARE = {(i, j): Fraction(1, 2 ** (i + j + 2)) for i in range(6) for j in range(6)}
HALF, THIRD = Fraction(1, 2), Fraction(1, 3)


def _verdicts(tmp_path, name, table, n_max):
    """What a chain-b B-d2 run with exponents (1/2, 1/2) on a weight table
    decides: its exit code, each row's (check, passed), the walk's entry
    times and the constants that count the chain and bound its power sums."""
    table_file = tmp_path / f"{name}.json"
    table_file.write_text(json.dumps({f"{i},{j}": str(w) for (i, j), w in table.items()}))
    out = tmp_path / f"{name}-{n_max}"
    argv = ["chain-b", "--d", "2", "--variant", "B-d2", "--alpha", "1/2,1/2",
            "--family", "custom-file", "--family-file", str(table_file),
            "--n-max", str(n_max), "--out", str(out)]
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    report = json.loads((out / "report.json").read_text())
    constants = {k: report["constants"][k] for k in ("B", "records", "walk_points")}
    verdicts = [(r["check"], r["passed"]) for r in report["rows"]]
    return code, verdicts, report["tables"]["entry_times"], constants


@pytest.mark.parametrize("n_max", [4, 6, 8])
def test_scaling_every_weight_changes_no_verdict(tmp_path, n_max):
    """Scale.  Multiplying every length of the action by one constant c is
    an affine change of coordinates on the interval, which moves no
    derivative ratio.  The program sees the lengths only through quotients:
    each goodness flag is mass(A) <= q * mass(B), and the spread row is a
    quotient of two Holder budgets, each of which c^alpha multiplies.  So
    halving every weight of the table must leave the exit code, every row's
    verdict and every goodness decision as they were: the same chain,
    entered at the same times, with the same power-sum bound B."""
    half = {v: w / 2 for v, w in SQUARE.items()}
    assert _verdicts(tmp_path, "half", half, n_max) == _verdicts(tmp_path, "square", SQUARE, n_max)


def _halved_parts(family, halved, cert):
    """The split log2 masses (an exact integer and a float, or None on zero
    mass), on the family and on its halved copy, of every region the
    chain's decisions read: each record's segment and bound region, and
    each box of its sequence.  The chain is built on both families and must
    be the same."""
    assert build_chain(cert.kind, halved, cert.seq).records == cert.records
    regions = [*(r.seg for r in cert.records), *(r.bound.region for r in cert.records),
               *cert.seq.boxes]
    return ([family.mass_log2_parts(r) for r in regions],
            [halved.mass_log2_parts(r) for r in regions])


def _shift_by_one_halving(parts):
    return [None if p is None else (p[0] - 1, p[1]) for p in parts]


@pytest.mark.parametrize("n_max", [4, 6, 8])
def test_halving_a_table_shifts_every_split_mass_by_exactly_one(n_max):
    """Scale, on the split log2 masses the decisions read.  Halving every
    weight halves every mass, which the split form states exactly: the
    integer part falls by one and the float part is bit for bit the same,
    so no float of a comparison moves."""
    seq = build_sequence("B-d2", alphas=(HALF, HALF), n_max=n_max)
    family = TableFamily(SQUARE)
    halved = TableFamily({v: w / 2 for v, w in SQUARE.items()})
    parts, halved_parts = _halved_parts(family, halved, build_chain("B-d2", family, seq))
    assert any(parts)
    assert halved_parts == _shift_by_one_halving(parts)


def test_halving_a_product_family_shifts_every_split_mass_by_exactly_one():
    """Scale, for a product family: the symmetric-geometric family halved
    by lowering its first axis' offset by 1, on B-general at d = 3."""
    seq = build_sequence("B-general", alphas=(THIRD,) * 3, n_max=12)
    family = symmetric_geometric_family(3)
    first, *rest = family.axes
    halved = ProductFamily([first._replace(offset=first.offset - 1), *rest])
    parts, halved_parts = _halved_parts(family, halved, build_chain("B-general", family, seq))
    assert all(parts)
    assert halved_parts == _shift_by_one_halving(parts)


SEQUENCES = {
    "B-d2 (1/2, 1/2)": dict(kind="B-d2", alphas=(Fraction(1, 2), Fraction(1, 2))),
    "B-d2 (1/3, 2/3)": dict(kind="B-d2", alphas=(Fraction(1, 3), Fraction(2, 3))),
    "FF d=3": dict(kind="FF", d=3),
    "B-general d=3": dict(kind="B-general", alphas=(Fraction(1, 3),) * 3),
}


@pytest.mark.parametrize("name", sorted(SEQUENCES))
def test_a_shorter_sequence_is_a_prefix_of_a_longer_one(name):
    """Prefix.  The box sequences are defined inductively: Q(n + 1) is
    determined by Q(n) and n alone, and n_max only says where to stop.
    So the boxes built up to n_max 12 are the first boxes built up to
    n_max 30."""
    short = build_sequence(**SEQUENCES[name], n_max=12)
    long = build_sequence(**SEQUENCES[name], n_max=30)
    assert short.start_index == long.start_index
    assert short.boxes == long.boxes[: len(short.boxes)]


# the chains of `oracles.CHAIN_CASES` whose (kind, sequence) pairs the
# prefix relation walks, by the relation's names for them
PREFIX_CASES = {
    "B-d2 (1/2, 1/2)": "B-d2-half-20",
    "B-d2 (1/3, 2/3)": "B-d2-third-12",
    "B-general d=3": "B-general-d3-16",
    "B-general d=4": "B-general-d4-8",
    "FF-d3": "FF-d3-geometric-17",
}
FAMILIES = {"geometric": geometric_family, "symmetric-geometric": symmetric_geometric_family}


def _chain(case, family, n_max):
    """The chain of the `CHAIN_CASES` case at n_max, on a fresh family of
    the given name, with its distortion budget."""
    fam, cert = CHAIN_CASES[case]._replace(family=FAMILIES[family], n_max=n_max).build()
    return cert, distortion_budget(cert, fam)


def _below(case, family, n_max, cut):
    """The records, stage counts and budget rows of the chain at n_max whose
    box index is below cut."""
    cert, budget = _chain(case, family, n_max)
    return ([r for r in cert.records if r.n < cut],
            {n: c for n, c in stage_counts(cert.kind, cert.seq).items() if n < cut},
            [r for r in budget.rows if r.n < cut])


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("name", sorted(PREFIX_CASES))
def test_a_longer_sequence_keeps_the_chain_below_the_last_two_boxes(name, family):
    """Prefix, for chains.  A builder picks the legs of stage n from boxes
    n and n + 1 alone, at goodness levels that do not depend on n_max, and
    the walk hands over from one leg to the next.  So below the last two
    boxes of the sequence at n_max 12, the chain at n_max 30 has the same
    records (segments, bounds and walk points), the same stage counts and
    the same budget rows: the same entry times, and Holder sums added in
    the same order."""
    case = PREFIX_CASES[name]
    cut = max(CHAIN_CASES[case].sequence(n_max=12).indices()) - 1
    short = _below(case, family, 12, cut)
    assert all(short)
    assert short == _below(case, family, 30, cut)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_b_d3_keeps_its_segments_but_not_its_bounds(family):
    """Prefix fails for B-d3's bounds.  Its level is lambda = max(2, 2/D2),
    and D2 is the least side-retention ratio over the whole sequence, so a
    longer sequence lowers D2 and raises lambda: 1538/257 (5.98444) at
    n_max 12 and 98306/16385 (5.99976) at 30.  Below the last two boxes
    every record keeps its segment and walk points; the two vertical flags
    of each stage, bounded by lambda over a side times a plane, change
    their bounds, and the plane-average row, bounded by 1 over a side,
    keeps its own."""
    (short, _), (long, _) = (_chain("B-d3-8", family, n) for n in (12, 30))
    assert (short.levels["lambda"], long.levels["lambda"]) == (1538 / 257, 98306 / 16385)
    below = [(a, b) for a, b in zip(short.records, long.records) if a.n < 11]
    assert len(below) == 30
    assert all(a._replace(bound=None) == b._replace(bound=None) for a, b in below)
    changed = [a.flag_kind for a, b in below if a.bound != b.bound]
    assert changed == ["shared-plane-vertical", "next-plane-vertical"] * 10
