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

# w(i, j) = 2^-(i+j+2) on a 6x6 square, as in `make_digests.TABLES`
SQUARE = {(i, j): Fraction(1, 2 ** (i + j + 2)) for i in range(6) for j in range(6)}


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
