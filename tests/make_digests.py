"""Write `tests/digests.json`, the ledger of pinned reports.

    PYTHONPATH=src python3 tests/make_digests.py
    PYTHONPATH=src python3 tests/make_digests.py --check

The ledger maps a `critreg` argv line to its exit code and the sha256 of
every file its `--out` directory holds.  It is the only store of pinned
reports: `tests/test_digests.py` runs every line and checks its pins and
the report policy.  It reads only the ledger, this file's constants and the
README, so nothing under `bench/` is imported at test time.
`ledger_lines()` gives its lines, in these groups:

- every CLI op of the four benchmark pools at seed 1 (the stochastic ones
  with their drawn `--seed`; `pool_lines(name)` gives one pool's) and the
  eight README lines, read from `bench/workloads.py`, which no other test
  code imports;
- `CAP_LINES`, the three chain lines at the n_max cap;
- `CHAIN_LINES`: builders, families and ties that the pools miss;
- `SEARCH_FAILURE_LINES`: the FF-d3 ranges that exit 3;
- `TABLE_LINES`: chains and walks on four of the tables of `TABLES`;
- `LEMMA1_LINES`: lemma1 at other seeds, families and dimensions;
- `DYNAMICS_LINES`: k_max around the orbit block and the ends of c and alpha;
- `IDENTITY_LINES`: every allowed (model, d) at three seeds;
- `PROBE_LINES`: chains whose `report.json` held Infinity before it was
  strict JSON;
- `REACH_LINES`: the reach gate's small runs that no other group holds.

Each group's comment gives its reason.  The lines name the tables by paths
relative to the directory they run in, so that a report's config block
does not depend on it; `write_tables` puts them there.

A refusal writes no report, so the ledger cannot pin it.  `REFUSALS` maps
each argv line that exits 1 to its one `error:` line instead, and is the
only place a refusal is pinned: `tests/test_cli.py` holds every line to one
refusal contract and `tests/test_reachability.py` counts the code they
reach.

A change that alters a report regenerates the ledger with the first
command.  Before it writes, the script prints the lines added, removed and
changed against the committed ledger; the change names each with its
reason.  `--check` runs no line and writes nothing: it prints the lines
that `ledger_lines()` gives and the ledger lacks, and those the ledger
holds beyond them, and exits 1 when there are any.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import sys
import tempfile
from pathlib import Path

from critreg.cli import main as cli_main

ROOT = Path(__file__).resolve().parent.parent
LEDGER = ROOT / "tests" / "digests.json"

TABLES = {
    # w(i, j) = 2^-(i+j+2) on a 6x6 square: B-d2 chain segments up to n = 8,
    # and lemma1 walks of length 7, can leave it
    "square-table.json": json.dumps(
        {f"{i},{j}": f"1/{2 ** (i + j + 2)}" for i in range(6) for j in range(6)}),
    # a weight that is not a function of |v|, on the points with i + j <= 5,
    # so every lemma1 walk of length 5 is stepped on it
    "simplex-table.json": json.dumps(
        {f"{i},{j}": f"{1 + (3 * i + 5 * j) % 7}/{2 ** (i + j)}"
         for i in range(6) for j in range(6 - i)}),
    # unit weights on the block (500..502)^2 only, which no chain walk of
    # n_max 6 reaches: every power sum, budget and fitted ratio is zero
    "far-block-table.json": json.dumps(
        {f"{i},{j}": "1" for i in range(500, 503) for j in range(500, 503)}),
    # 1/1000 on the points with i + j <= 4 but 9/10 at (4, 0), past lemma 1's
    # terminal bound: a walk of length 4 that ends there is not certified
    "heavy-endpoint-table.json": json.dumps(
        {f"{i},{j}": "9/10" if (i, j) == (4, 0) else "1/1000"
         for i in range(5) for j in range(5 - i)}),
    # the simplex table's weights over 2^6, on the points with i + j <= 6: a
    # total mass below 1, where lemma 1's B takes its root branch
    "light-simplex-table.json": json.dumps(
        {f"{i},{j}": f"{1 + (3 * i + 5 * j) % 7}/{2 ** (i + j + 6)}"
         for i in range(7) for j in range(7 - i)}),
    # the simplex table's weights on the 9x9 square, which a B-d2 chain of
    # n_max 4 does not leave
    "plane-table.json": json.dumps(
        {f"{i},{j}": f"{1 + (3 * i + 5 * j) % 7}/{2 ** (i + j)}"
         for i in range(9) for j in range(9)}),
    # the plane table without the origin, so a B-d2 chain's walk starts at
    # its first box's lower corner
    "plane-no-origin-table.json": json.dumps(
        {f"{i},{j}": f"{1 + (3 * i + 5 * j) % 7}/{2 ** (i + j)}"
         for i in range(9) for j in range(9) if (i, j) != (0, 0)}),
}

CAP_LINES = (
    "chain-ff --d 3 --n-max 200",
    "chain-b --d 2 --variant B-d2 --alpha 1/2,1/2 --n-max 200",
    "chain-b --d 3 --variant B-general --n-max 200",
)

# chains, and the boxes cap line: every builder, the symmetric family, ties
# near 2^40 (n_max 100 and 35), the n_max cap of 200 and FF-general's lambda
# past float range
CHAIN_LINES = (
    "chain-b --d 3 --variant B-general --n-max 40",
    "chain-ff --d 5 --n-max 12",
    "chain-b --d 2 --alpha 1/2,1/2 --family symmetric-geometric --n-max 12",
    "chain-b --d 2 --variant B-d2 --alpha 1/2,1/2 --n-max 100",
    "chain-ff --d 3 --n-max 35",
    "chain-ff --d 6 --n-max 180",
    "boxes --d 6 --variant FF --n-max 200",
)

# the search failures of FF-d3 short of a start stage (n_max <= 4) or of
# stages past it (5)
SEARCH_FAILURE_LINES = tuple(f"chain-ff --d 3 --n-max {n}" for n in range(2, 6))

# a B-d2 chain on a table whose segments leave it, and the same chain at
# n_max 60, whose segments run far past the table's 36 points
# (`FAR_TABLE_CHAIN`, which must finish within 5 s); a table
# that steps every lemma1 walk, a B-d2 and an FF-d3 chain whose walks get
# zero weight (a null budget-ratio-spread and B_log2, exit 2), and a
# lemma1 walk whose one sample ends at the heavy point (4, 0), so no
# sample is certified (exit 2)
FAR_TABLE_CHAIN = ("chain-b --d 2 --variant B-d2 --alpha 1/2,1/2 --family custom-file"
                   " --family-file square-table.json --n-max 60")
TABLE_LINES = (
    "chain-b --d 2 --variant B-d2 --alpha 1/2,1/2 --n-max 8"
    " --family custom-file --family-file square-table.json",
    FAR_TABLE_CHAIN,
    "lemma1 --d 2 --family custom-file --family-file simplex-table.json"
    " --n-max 5 --samples 50 --seed 3",
    "chain-b --d 2 --alpha 1/2,1/2 --family custom-file --family-file far-block-table.json"
    " --n-max 6",
    "chain-ff --d 3 --family custom-file --family-file far-block-table.json --n-max 6",
    "lemma1 --d 2 --family custom-file --family-file heavy-endpoint-table.json"
    " --n-max 4 --samples 1 --seed 6",
)

# lemma1: the README line at another seed, which a built-in family decides
# without a draw, so only the seed in the config block differs; one line per
# built-in family, and one d=2 and one d=4 line of the 1000-sample walk-mc
# bench tail
LEMMA1_LINES = (
    "lemma1 --d 3 --n-max 1000 --samples 10000 --seed 43",
    "lemma1 --d 3 --n-max 200 --samples 500 --seed 42",
    "lemma1 --d 3 --family symmetric-geometric --n-max 200 --samples 500 --seed 42",
    "lemma1 --d 2 --n-max 700 --samples 1000 --seed 5",
    "lemma1 --d 4 --n-max 480 --samples 1000 --seed 9",
)

# dynamics: k_max one below, at and one above smooth.ORBIT_BLOCK_STEPS (128)
# and twice it, both ends of the c range and the Holder exponents 1/10, 9/10
# and 1
DYNAMICS_LINES = (
    *(f"dynamics --c-param 1.0 --alpha-holder 1/2 --k-max {k}" for k in (127, 128, 129, 256)),
    *(f"dynamics --c-param {c} --alpha-holder 1/2 --k-max 750" for c in ("0.05", "3.9")),
    *(f"dynamics --c-param 1.0 --alpha-holder {a} --k-max 750" for a in ("1/10", "9/10", "1")),
)

# identity at every allowed (model, d) and three seeds, as written before the
# kind moved from Fraction lengths to integer exponents
IDENTITY_LINES = tuple(
    f"identity --d {d} --variant {model} --samples 40 --seed {seed}"
    for model, top in (("translation", 5), ("ff", 6))
    for d in range(1, top + 1) for seed in (1, 2, 3)
)

# chains whose report.json held Infinity before reports became strict JSON
# and now holds null: budget-ratio-spread over an empty fit (the first three)
# and B past float range; `chain-ff --d 6 --n-max 180` (CHAIN_LINES) is the
# fifth, with B and lambda past float range
PROBE_LINES = (
    "chain-b --d 2 --alpha 1/2,1/2 --n-max 1",
    "chain-b --d 2 --alpha 1/2,1/2 --n-max 2",
    "chain-b --d 3 --variant B-d3 --n-max 2",
    "chain-b --d 2 --alpha 1/3,2/3 --n-max 110",
)

# the small runs of every kind that the reach gate (tests/test_reachability.py)
# traces and no other group holds: lemma1 on the symmetric family and on a
# table of total mass below 1 (where lemma 1's B takes its root branch), B
# boxes (the ceiling of an inexact root at 1/5,2/5,2/5, and roots so large
# that their Newton start is a left shift at n_max 200), B-d2 chains on the
# symmetric family and on a table, a B-d2 chain whose walk starts inside a
# later box: on the plane table without the origin it starts at Q(1)'s lower
# corner (1, 1), which lies in Q(2), so Q(2) is entered at step 0 and the
# budget has no row for n = 1; FF chains up to FF-general at exit 2
# (B_log2 2^23 at n_max 40, B past float range: rounding noise, ROADMAP item
# 19), both identity models and dynamics
REACH_LINES = (
    "lemma1 --d 2 --family symmetric-geometric --n-max 4 --samples 5",
    "lemma1 --d 2 --family custom-file --family-file light-simplex-table.json --n-max 6"
    " --samples 5",
    "boxes --d 3 --n-max 4",
    "boxes --d 3 --alpha 1/5,2/5,2/5 --n-max 60",
    "boxes --d 2 --variant B-d2 --alpha 1/3,2/3 --n-max 200",
    "chain-b --d 2 --alpha 1/2,1/2 --family symmetric-geometric --n-max 5",
    "chain-b --d 2 --alpha 1/2,1/2 --family custom-file --family-file plane-table.json"
    " --n-max 4",
    "chain-b --d 2 --variant B-d2 --alpha 2/3,1/3 --n-max 4 --family custom-file"
    " --family-file plane-no-origin-table.json",
    "chain-ff --d 3 --n-max 6",
    "chain-ff --d 4 --n-max 7",
    "chain-ff --d 4 --n-max 40",
    "identity --d 2 --variant ff --samples 4",
    "identity --d 2 --samples 4",
    "dynamics --k-max 20",
)


def _triangle(size: int, weight: str) -> str:
    """A family file on Z^2 of one weight at the points with i + j < size."""
    return json.dumps({f"{i},{j}": weight for i in range(size) for j in range(size - i)})


# the JSON members "i,j": 1 of the points of Z^2 with i + j <= 10, which a
# lemma1 walk of the default n_max (10) can reach
_ORTHANT_10 = ", ".join(f'"{i},{j}": 1' for i in range(11) for j in range(11 - i))

# a report whose one row's value is a JSON constant that no writer emits
_ROW_VALUE_REPORT = ('{"rows": [{"check": "x", "passed": true, "value": %s, "bound": 1,'
                     ' "note": ""}], "passed": true}')

_NOT_UTF8 = ("is not UTF-8 text: 'utf-8' codec can't decode byte 0xff in position 0:"
             " invalid start byte")

_NOT_A_REPORT = ("is not a report: needs 'passed' and 'rows', a nonempty list of objects"
                 " with check, passed (true or false), value and bound")

# the files that REFUSALS name: the tables, and the config, family and report
# files and the regular file that are usage errors, as text written in UTF-8
# or as bytes.  No file is named missing.json
REFUSAL_FILES: dict[str, str | bytes] = {
    **TABLES,
    "unread-key.json": '{"n_max": 5}',
    "string-n-max.json": '{"n_max": "5"}',
    "float-d.json": '{"d": 2.5}',
    "string-c-param.json": '{"c_param": "x"}',
    "zero-alpha.json": '{"d": 2, "alphas": ["1/0", "1/2"]}',
    "zero-alpha-holder.json": '{"alpha_holder": "1/0"}',
    "family-file-key.json": '{"family_file": "square-table.json"}',
    "regular-file": "",
    "infinite-passed.json": '{"rows": [], "passed": Infinity}',
    "tiny-mass-table.json": '{"0,0": "1e-400", "1,0": "1e-400", "0,1": "1e-400"}',
    "repeated-index-table.json": '{"0,0": "1/2", "0, 0": "1/4", "1,0": "1/8", "0,1": "1/8"}',
    "underscore-key-table.json": '{"1_0,0": "1/2", "0,0": "1/4", "0,1": "1/8"}',
    "huge-mass-table.json": '{"0,0": "1e400", "1,0": "1", "0,1": "1"}',
    "list-report.json": "[]",
    # read as a config, a family file or a report: no JSON, no object, and
    # no UTF-8 text (these bytes, written as they are)
    "not-json.json": "not json {",
    "number-list.json": "[1, 2]",
    "not-utf8.json": b"\xff{}",
    # config files: keys the kind does not read, another kind, and values of
    # the wrong type or outside their choices
    "k-max-key.json": '{"k_max": 5}',
    "out-key.json": '{"out": "x"}',
    "boxes-kind.json": '{"kind": "boxes"}',
    "bool-samples.json": '{"samples": true}',
    "unknown-family.json": '{"family": "cubic"}',
    "string-alphas.json": '{"alphas": "1/2,1/2"}',
    "zero-first-alpha.json": '{"alphas": ["1/0", "1/2"]}',
    "zero-second-alpha.json": '{"alphas": ["1/2", "1/0"], "d": 2}',
    # config files whose exponents do not fit their d
    "b-general-d2.json": '{"d": 2, "variant": "B-general", "alphas": ["1/3", "1/3", "1/3"]}',
    "b-d2-d3.json": '{"d": 3, "variant": "B-d2", "alphas": ["1/2", "1/2"]}',
    "b-d2-d5.json": '{"d": 5, "variant": "B-d2", "alphas": ["1/2", "1/2"]}',
    "ff-alphas.json": '{"d": 3, "variant": "FF", "alphas": ["1/2", "1/2"]}',
    # family files: a weight past float range either way on |v| <= 7, so that
    # B or L/A_d leaves it, or one whose cost bound B * log2(6)^(1/2) alone
    # overflows; a table on Z^3; weights that are no finite rational; keys
    # that are no index, or name one index twice
    "large-weight-table.json": _triangle(8, "1e400"),
    "small-weight-table.json": _triangle(8, "1e-400"),
    "cost-overflow-table.json": _triangle(8, "1.5e306"),
    "cube-table.json": json.dumps({f"{i},{j},{k}": "1/64"
                                   for i in range(4) for j in range(4) for k in range(4)}),
    "list-weight-table.json": '{"1,2": [1]}',
    "object-weight-table.json": '{"1,2": {"w": 1}}',
    "bool-weight-table.json": '{"1,2": true}',
    "null-weight-table.json": '{"1,2": null}',
    "word-weight-table.json": '{"1,2": "abc"}',
    "zero-denominator-table.json": '{"1,2": "1/0"}',
    "infinite-weight-table.json": '{"1,2": Infinity}',
    "nan-weight-table.json": '{"1,2": NaN}',
    "letter-key-table.json": '{"a,2": 1}',
    "empty-key-table.json": '{"": 1}',
    "twice-key-table.json": '{"1,2": 1, "1,2": 2}',
    "spaced-key-table.json": '{"1,2": 1, " 1,2 ": 2}',
    # keys that int() reads as (11, 0) and (12, 0), beside every point that
    # a walk of length 10 can reach
    "orthant-underscore-key-table.json": f'{{{_ORTHANT_10}, "1_1,0": 1}}',
    "orthant-full-width-key-table.json": f'{{{_ORTHANT_10}, "\\uff11\\uff12,0": 1}}',
    # reports: rows that are no list of rows, a missing verdict, no rows, a
    # verdict that is no bool or that its rows contradict, and values that
    # no writer emits
    "number-rows-report.json": '{"rows": 3, "passed": true}',
    "number-row-report.json": '{"rows": [1], "passed": true}',
    "short-row-report.json": '{"rows": [{"check": "x"}], "passed": true}',
    "no-verdict-report.json": '{"rows": []}',
    "no-rows-report.json": '{"rows": [], "passed": true}',
    "string-verdict-report.json": '{"rows": [{"check": "x", "passed": "false", "value": 1,'
                                  ' "bound": 0}], "passed": true}',
    "contradicted-report.json": '{"rows": [{"check": "budget-ratio-spread", "passed": false,'
                                ' "value": 2.5, "bound": 2.0}], "passed": true}',
    "infinity-value-report.json": _ROW_VALUE_REPORT % "Infinity",
    "minus-infinity-value-report.json": _ROW_VALUE_REPORT % "-Infinity",
    "nan-value-report.json": _ROW_VALUE_REPORT % "NaN",
}

# each REFUSAL_FILES file as the bytes it holds
REFUSAL_BYTES = {name: c if isinstance(c, bytes) else c.encode()
                 for name, c in REFUSAL_FILES.items()}

# Every argv line (shell-quoted) that exits 1, run in a directory that holds
# REFUSAL_FILES, and its error line after "error: ": a string, or a pattern
# where argparse, numpy or the OS words part of it.  This is the one place
# that pins a refusal: `TestFlags::test_usage_errors_exit_one` in
# tests/test_cli.py holds each line to the refusal contract (exit 1; stderr
# is the parser's usage message when the parser refuses, then one error:
# line, this one; stdout is empty but on WRITE_REFUSALS; the directory keeps
# exactly REFUSAL_FILES), and tests/test_reachability.py counts the code the
# lines reach.  Among them:
# - parser errors: a missing or unknown kind, an unknown flag or a flag of
#   another kind (after a small run of each kind), a value of the wrong type;
# - paths: an empty --out or --config, a missing config, family or report
#   file, and an --out under a regular file;
# - config files: no UTF-8 text, no JSON, no object, a key the kind does not
#   read, another kind, values of the wrong type or outside their choices;
# - exponents that are no rational, outside (0, 1] or past float range
#   either way, negative values in exponent notation, as flags and as config
#   values; exponents, variants or a translation model that do not fit --d,
#   as flags and as config values; dynamics parameters outside their range;
# - sequences too short to measure, a B-d2 sequence at alpha 1/1000 (whose
#   roots start past float range);
# - family files: no UTF-8 text or no JSON, given without --family
#   custom-file (as a flag and as a config key), on another lattice than
#   the kind's, with weights that are no finite rational, keys that are no
#   index (among them keys `int()` reads but that are not ASCII digits),
#   one index named twice, a table that a lemma1 walk can leave, and a
#   lemma1 table whose mass or cost bounds leave float range;
# - a stepped lemma1 batch or a dynamics orbit of 10^17 samples (refused
#   before anything is allocated);
# - reports that are no UTF-8 text, no JSON, not strict JSON, no JSON
#   object, hold no rows or malformed ones, or a verdict that is no bool or
#   that its rows contradict.
REFUSALS = {
    "lemma1 --bogus 1": "unrecognized arguments: --bogus 1",
    "": "the following arguments are required: command",
    "lemma1 --n-max x": "argument --n-max: invalid int value: 'x'",
    "nonsense": re.compile(r"argument command: invalid choice: 'nonsense' \(choose from .*\)"),
    "dynamics --k-max 20 --out ''": "--out needs a directory path, not an empty string",
    "dynamics --config ''": "--config needs a file path, not an empty string",
    "dynamics --d 3": "unrecognized arguments: --d 3",
    "dynamics --config unread-key.json": "dynamics does not read config keys n_max",
    "lemma1 --config string-n-max.json": 'config value n_max="5" is not an integer',
    "lemma1 --config float-d.json": "config value d=2.5 is not an integer",
    "dynamics --config string-c-param.json": 'config value c_param="x" is not a number',
    "chain-b --d 2 --alpha 1/0,1/2": "alpha '1/0' is not a rational",
    "boxes --d 2 --variant B-d2 --alpha 1/0,1/2": "alpha '1/0' is not a rational",
    "dynamics --alpha-holder 1/0": "alpha-holder '1/0' is not a rational",
    "dynamics --alpha-holder 1e400": "exponent must lie in (0, 1]",
    "dynamics --alpha-holder -1e-3": "exponent must lie in (0, 1]",
    "dynamics --c-param -1e-3": "parameter must lie in (0, 4)",
    "chain-b --d 2 --alpha -1e-1,1/2": "exponents must lie in (0, 1]",
    "chain-b --config zero-alpha.json": "alpha '1/0' is not a rational",
    "boxes --config zero-alpha.json": "alpha '1/0' is not a rational",
    "dynamics --config zero-alpha-holder.json": "alpha-holder '1/0' is not a rational",
    "lemma1 --d 2 --family-file square-table.json": "--family-file needs --family custom-file",
    "lemma1 --config family-file-key.json": "--family-file needs --family custom-file",
    "identity --d 6 --variant translation":
        "translation needs d <= 5, since its packing lives on Z^(d+1); got d=6",
    "dynamics --k-max 20 --out regular-file/sub":
        re.compile(r"\[Errno \d+\] Not a directory: 'regular-file/sub'"),
    "boxes --d 2 --variant B-d2 --alpha 1/1000,999/1000 --n-max 1":
        "sequence too short to measure the retention constant",
    "lemma1 --d 2 --family custom-file --family-file square-table.json --n-max 7 --samples 3"
    " --seed 1": "a walk of length 7 can reach (0, 6), outside the family's support",
    "lemma1 --d 2 --n-max 5 --samples 100000000000000000 --family custom-file"
    " --family-file simplex-table.json": re.compile("Unable to allocate .*"),
    "dynamics --k-max 100000000000000000": re.compile("Unable to allocate .*"),
    "chain-b --d 2 --variant B-general --alpha 1/3,1/3,1/3 --n-max 6":
        "3 exponents give a 3-dimensional B-general sequence, not d = 2",
    "chain-b --d 3 --variant B-d2 --alpha 1/2,1/2":
        "2 exponents give a 2-dimensional B-d2 sequence, not d = 3",
    "boxes --d 5 --variant B-d2 --alpha 1/2,1/2":
        "2 exponents give a 2-dimensional B-d2 sequence, not d = 5",
    "boxes --d 3 --variant FF --alpha 1/2,1/2": "FF takes no exponents, got 2 at d = 3",
    "chain-b --d 4 --variant B-d3 --n-max 5": "B-d3 needs the B-general sequence with d=3",
    "chain-ff --d 4 --variant FF-d3 --n-max 5": "FF-d3 needs the FF sequence with d=3",
    "chain-b --d 3 --variant B-d3 --n-max 1":
        "sequence too short to measure the retention constant",
    "boxes --d 3 --variant nope": "unknown sequence kind 'nope'",
    "boxes --d 3 --n-max 201": "n_max must be in [1, 200]",
    "boxes --d 2 --variant B-d2 --alpha 1/3,1/3": "exponent sum must be 1, got 2/3",
    "boxes --d 2 --variant B-d2 --alpha 1/3,1/3,1/3": "B-d2 takes two exponents",
    "boxes --d 2 --variant FF": "FF sequence needs d >= 3",
    "dynamics --c-param 5 --k-max 20": "parameter must lie in (0, 4)",
    "dynamics --c-param 1e-12 --k-max 20": "0.5 is (numerically) a fixed point",
    "dynamics --alpha-holder 1e-400 --k-max 20": "exponent 1e-400 underflows to 0.0 as a float",
    "lemma1 --d 2 --family custom-file --family-file tiny-mass-table.json --n-max 1":
        "lemma 1's bound B needs L/A_d in the normal float range; the family's total mass L"
        " is too small",
    "lemma1 --d 2 --family custom-file --family-file repeated-index-table.json --n-max 1":
        "repeated-index-table.json: index (0, 0) is named twice, again as key '0, 0'",
    "lemma1 --d 2 --family custom-file --family-file huge-mass-table.json --n-max 1"
    " --samples 1": "lemma 1's bound B needs L/A_d in the normal float range; the family's"
    " total mass L is too large",
    "lemma1 --d 2 --family custom-file --family-file underscore-key-table.json --n-max 1":
        "underscore-key-table.json: key '1_0,0' is not comma-separated integers",
    "report infinite-passed.json": "infinite-passed.json is not strict JSON: it holds Infinity",
    "lemma1 --d 40": "d outside the supported range",
    "dynamics --k-max 20 --config ''": "--config needs a file path, not an empty string",
    # a flag of another kind after a small run of each kind
    "lemma1 --d 2 --n-max 20 --samples 30 --seed 4 --alpha 1/2,1/2 --out rep":
        "unrecognized arguments: --alpha 1/2,1/2",
    "boxes --d 2 --variant B-d2 --alpha 1/2,1/2 --n-max 8 --family geometric --out rep":
        "unrecognized arguments: --family geometric",
    "chain-b --d 3 --variant B-d3 --n-max 6 --seed 3 --out rep": "unrecognized arguments: --seed 3",
    "chain-ff --d 3 --family symmetric-geometric --n-max 9 --alpha 1/3,1/3,1/3 --out rep":
        "unrecognized arguments: --alpha 1/3,1/3,1/3",
    "identity --d 2 --variant ff --samples 5 --seed 2 --n-max 5 --out rep":
        "unrecognized arguments: --n-max 5",
    "dynamics --c-param 1.5 --alpha-holder 1/3 --k-max 40 --d 5 --out rep":
        "unrecognized arguments: --d 5",
    # exponents
    "chain-b --d 2 --alpha 1/2,1/0": "alpha '1/0' is not a rational",
    "dynamics --alpha-holder half": "alpha-holder 'half' is not a rational",
    **dict.fromkeys([f"dynamics --alpha-holder {a}" for a in ("2", "-1", "0")],
                    "exponent must lie in (0, 1]"),
    "chain-b --d 2 --variant B-general --alpha 1/3,1/3,1/3 --n-max 6 --out rep":
        "3 exponents give a 3-dimensional B-general sequence, not d = 2",
    "chain-b --config b-general-d2.json --n-max 6 --out rep":
        "3 exponents give a 3-dimensional B-general sequence, not d = 2",
    "chain-b --d 3 --variant B-d2 --alpha 1/2,1/2 --n-max 6 --out rep":
        "2 exponents give a 2-dimensional B-d2 sequence, not d = 3",
    "chain-b --config b-d2-d3.json --n-max 6 --out rep":
        "2 exponents give a 2-dimensional B-d2 sequence, not d = 3",
    "boxes --d 5 --variant B-d2 --alpha 1/2,1/2 --n-max 6 --out rep":
        "2 exponents give a 2-dimensional B-d2 sequence, not d = 5",
    "boxes --config b-d2-d5.json --n-max 6 --out rep":
        "2 exponents give a 2-dimensional B-d2 sequence, not d = 5",
    "boxes --d 3 --variant FF --alpha 1/2,1/2 --n-max 6 --out rep":
        "FF takes no exponents, got 2 at d = 3",
    "boxes --config ff-alphas.json --n-max 6 --out rep": "FF takes no exponents, got 2 at d = 3",
    # two exponents do not fit d = 3 either, but the builder names them first
    "chain-b --d 3 --variant B-general --alpha 1/2,1/2":
        "B-general needs d >= 3 (use B-d2 for two factors)",
    "boxes --d 2 --variant B-d2 --alpha 1/1000,999/1000 --n-max 1 --out rep":
        "sequence too short to measure the retention constant",
    # variants
    **dict.fromkeys([f"chain-ff --variant {v} --n-max 8 --out rep" for v in ("B-d2", "nope")],
                    "chain-ff variants: FF-d3, FF-general"),
    "chain-ff --d 4 --variant FF-d3 --n-max 8 --out rep": "FF-d3 needs the FF sequence with d=3",
    "chain-b --d 3 --variant FF-d3 --n-max 8 --out rep": "chain-b variants: B-d2, B-d3, B-general",
    "chain-b --d 4 --variant B-d3 --n-max 8 --out rep":
        "B-d3 needs the B-general sequence with d=3",
    # config files
    "lemma1 --config missing.json": "[Errno 2] No such file or directory: 'missing.json'",
    "lemma1 --config not-json.json":
        "not-json.json is not JSON: Expecting value: line 1 column 1 (char 0)",
    "lemma1 --config number-list.json": "the config file number-list.json must hold a JSON"
    " object",
    "lemma1 --config not-utf8.json": f"not-utf8.json {_NOT_UTF8}",
    "lemma1 --config k-max-key.json": "lemma1 does not read config keys k_max",
    "lemma1 --config out-key.json": "lemma1 does not read config keys out",
    "lemma1 --config boxes-kind.json": "the config file is for kind 'boxes', not 'lemma1'",
    "lemma1 --config bool-samples.json": "config value samples=true is not an integer",
    "lemma1 --config unknown-family.json": 'config value family="cubic" is not one of geometric,'
    " symmetric-geometric, custom-file",
    "boxes --config string-alphas.json": 'config value alphas="1/2,1/2" is not a list of strings',
    "boxes --config zero-first-alpha.json": "alpha '1/0' is not a rational",
    "chain-b --config zero-second-alpha.json": "alpha '1/0' is not a rational",
    # family files
    "lemma1 --d 2 --n-max 5 --samples 10 --family-file plane-table.json":
        "--family-file needs --family custom-file",
    "lemma1 --d 2 --n-max 5 --samples 10 --config family-file-key.json":
        "--family-file needs --family custom-file",
    "lemma1 --d 3 --family custom-file --family-file plane-table.json":
        "the family file's table is on Z^2, not Z^3",
    "chain-b --d 3 --variant B-d3 --n-max 5 --family custom-file --family-file plane-table.json":
        "the family file's table is on Z^2, not Z^3",
    "chain-b --d 2 --n-max 4 --family custom-file --family-file cube-table.json":
        "the family file's table is on Z^3, not Z^2",
    "chain-ff --d 3 --n-max 6 --family custom-file --family-file cube-table.json":
        "the family file's table is on Z^3, not Z^2",
    **{f"lemma1 --d 2 --family custom-file --family-file {name}": error for name, error in {
        "missing.json": "[Errno 2] No such file or directory: 'missing.json'",
        "not-json.json": "not-json.json is not JSON: Expecting value: line 1 column 1 (char 0)",
        "not-utf8.json": f"not-utf8.json {_NOT_UTF8}",
        "number-list.json": "number-list.json must hold a JSON object of index -> weight",
        **{name: f"{name}: weight of '1,2' is not a number or a rational"
           for name in ("list-weight-table.json", "object-weight-table.json",
                        "bool-weight-table.json", "null-weight-table.json")},
        "word-weight-table.json": "word-weight-table.json: weight 'abc' of '1,2' is not a finite"
        " rational",
        "zero-denominator-table.json": "zero-denominator-table.json: weight '1/0' of '1,2' is not"
        " a finite rational",
        "infinite-weight-table.json": "infinite-weight-table.json: weight inf of '1,2' is not a"
        " finite rational",
        "nan-weight-table.json": "nan-weight-table.json: weight nan of '1,2' is not a finite"
        " rational",
        "letter-key-table.json": "letter-key-table.json: key 'a,2' is not comma-separated integers",
        "empty-key-table.json": "empty-key-table.json: key '' is not comma-separated integers",
        "twice-key-table.json": "twice-key-table.json: index (1, 2) is named twice, again as key"
        " '1,2'",
        "spaced-key-table.json": "spaced-key-table.json: index (1, 2) is named twice, again as"
        " key ' 1,2 '",
        "orthant-underscore-key-table.json": "orthant-underscore-key-table.json: key '1_1,0' is"
        " not comma-separated integers",
        "orthant-full-width-key-table.json": "orthant-full-width-key-table.json: key"
        " '\uff11\uff12,0' is not comma-separated integers",
    }.items()},
    **{f"lemma1 --d 2 --family custom-file --family-file {size}-weight-table.json --n-max 5"
       " --samples 5 --out rep": "lemma 1's bound B needs L/A_d in the normal float range; the"
       f" family's total mass L is too {size}" for size in ("large", "small")},
    **dict.fromkeys(["lemma1 --d 2 --family custom-file --family-file cost-overflow-table.json"
                     f" --n-max 5 --samples 5{out}" for out in ("", " --out rep")],
                    "lemma 1's cost bounds are past float range; the family's total mass L is"
                    " too large"),
    # reports
    "report missing.json": "[Errno 2] No such file or directory: 'missing.json'",
    "report not-json.json": "not-json.json is not JSON: Expecting value: line 1 column 1"
    " (char 0)",
    "report not-utf8.json": f"not-utf8.json {_NOT_UTF8}",
    **{f"report {name}": f"{name} {_NOT_A_REPORT}"
       for name in ("list-report.json", "number-rows-report.json", "number-row-report.json",
                    "short-row-report.json", "no-verdict-report.json", "no-rows-report.json",
                    "string-verdict-report.json")},
    "report contradicted-report.json":
        "contradicted-report.json: 'passed' is not the verdict of its rows",
    **{f"report {name}-value-report.json": f"{name}-value-report.json is not strict JSON: it"
       f" holds {constant}" for name, constant in (("infinity", "Infinity"),
                                                  ("minus-infinity", "-Infinity"),
                                                  ("nan", "NaN"))},
}

# the REFUSALS lines whose error is the failed write of the report: the run
# prints its rows, and no "report written" line, before the write fails
WRITE_REFUSALS = ("dynamics --k-max 20 --out regular-file/sub",)


def write_tables(directory: Path) -> None:
    """Put the files of `TABLES` in directory."""
    for name, text in TABLES.items():
        (directory / name).write_text(text)


def file_digests(out: Path) -> dict:
    """The sha256 of each file in the directory out; none if it is missing."""
    return {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
            for f in sorted(out.iterdir())} if out.is_dir() else {}


def run_line(line: str, out: Path) -> dict:
    """Exit code and per-file sha256 of one argv line run with --out."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli_main([*line.split(), "--out", str(out)])
    return {"exit": code, "files": file_digests(out)}


def _workloads():
    """`bench/workloads.py`, the benchmark's pools."""
    bench = str(ROOT / "bench")
    if bench not in sys.path:
        sys.path.insert(0, bench)
    import workloads

    return workloads


def pool_lines(name: str) -> list[str]:
    """The CLI ops of the benchmark pool `name` at seed 1, in the pool's
    order; ValueError naming the pools for any other name."""
    return [" ".join(op.cli_argv()) for op in _workloads().make_ops(name, 1) if op.argv]


def ledger_lines() -> list[str]:
    workloads = _workloads()
    lines = [line for name in workloads.WORKLOADS for line in pool_lines(name)]
    lines += [text for _, text in workloads.README_LINES]
    lines += [*CAP_LINES, *CHAIN_LINES, *SEARCH_FAILURE_LINES, *TABLE_LINES, *LEMMA1_LINES,
              *DYNAMICS_LINES, *IDENTITY_LINES, *PROBE_LINES, *REACH_LINES]
    return list(dict.fromkeys(lines))


def changes(old: dict, new: dict) -> list[str]:
    """One line per ledger line added, removed or changed from old to new;
    a changed line gives its exit codes and the files whose digests differ."""
    shown = [f"added: {line}" for line in new if line not in old]
    shown += [f"removed: {line}" for line in old if line not in new]
    for line, now in new.items():
        was = old.get(line, now)
        if was != now:
            files = sorted(name for name in was["files"].keys() | now["files"].keys()
                           if was["files"].get(name) != now["files"].get(name))
            shown.append(f"changed: {line} (exit {was['exit']} -> {now['exit']};"
                         f" files: {', '.join(files) or 'none'})")
    return shown


def check() -> int:
    """1 when the ledger's lines are not exactly `ledger_lines()`, after
    printing each line missing from it or extra to it; else 0."""
    want, have = set(ledger_lines()), set(json.loads(LEDGER.read_text()))
    for line in sorted(want - have):
        print("not in the ledger:", line)
    for line in sorted(have - want):
        print("in the ledger but not a ledger line:", line)
    return int(want != have)


def main() -> None:
    if sys.argv[1:] == ["--check"]:
        raise SystemExit(check())
    if sys.argv[1:]:
        raise SystemExit("usage: make_digests.py [--check]")
    old = json.loads(LEDGER.read_text()) if LEDGER.exists() else {}
    out = {}
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        write_tables(Path(tmp))
        os.chdir(tmp)
        try:
            for i, line in enumerate(ledger_lines()):
                out[line] = run_line(line, Path(str(i)))
        finally:
            os.chdir(here)
    for shown in changes(old, out):
        print(shown)
    LEDGER.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"{len(out)} lines -> {LEDGER}")


if __name__ == "__main__":
    main()
