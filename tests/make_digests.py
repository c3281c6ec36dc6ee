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
  with their drawn `--seed`) and the eight README lines, read from
  `bench/workloads.py`; `ledger_lines()` is the only code that reads it;
- `CAP_LINES`, the three chain lines at the n_max cap;
- `CHAIN_LINES`: builders, families and ties that the pools miss;
- `SEARCH_FAILURE_LINES`: the FF-d3 ranges that exit 3;
- `TABLE_LINES`: chains and walks on the four tables of `TABLES`;
- `LEMMA1_LINES`: lemma1 at other seeds, families and dimensions;
- `DYNAMICS_LINES`: k_max around the orbit block and the ends of c and alpha;
- `IDENTITY_LINES`: every allowed (model, d) at three seeds;
- `PROBE_LINES`: chains whose `report.json` held Infinity before it was
  strict JSON.

Each group's comment gives its reason.  The lines name the tables by paths
relative to the directory they run in, so that a report's config block
does not depend on it; `write_tables` puts them there.

A refusal writes no report, so the ledger cannot pin it.  `REFUSALS` maps
each argv line that exits 1 to its one `error:` line instead;
`tests/test_cli.py` checks those lines and `tests/test_reachability.py`
counts the code they reach.

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

# a B-d2 chain on a table whose segments leave it, a table that steps
# every lemma1 walk, a B-d2 and an FF-d3 chain whose walks get zero
# weight (a null budget-ratio-spread and B_log2, exit 2), and a lemma1
# walk whose one sample ends at the heavy point (4, 0), so no sample is
# certified (exit 2)
TABLE_LINES = (
    "chain-b --d 2 --variant B-d2 --alpha 1/2,1/2 --n-max 8"
    " --family custom-file --family-file square-table.json",
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


# the files that REFUSALS name: the tables and inputs that are usage errors
REFUSAL_FILES = {
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
}

# argv lines (shell-quoted) that exit 1, run in a directory that holds
# REFUSAL_FILES, and their error line after "error: ": a string, or a pattern
# where argparse, numpy or the OS words part of it.  Among them: parser
# errors, an empty --out and --config, an unread flag or config key, config
# values of the wrong type, exponents that are no rational (as flags and as
# config values), outside (0, 1] or past float range either way, negative
# values in exponent notation, a family file without --family custom-file (as
# a flag and as a config key), a translation model past Z^6, an --out under a
# regular file, sequences too short to measure, a B-d2 sequence at alpha
# 1/1000 (whose roots start past float range), a lemma1 table that a walk
# can leave, a stepped lemma1 batch or a dynamics orbit of 10^17 samples
# (refused before anything is allocated), exponents or variants that do not
# fit --d, dynamics parameters outside their range, a lemma1 table whose
# mass leaves float range either way, a table that names one index twice
# and one whose key `int()` reads but that is not ASCII digits, and a report
# that is not strict JSON and one that is not a JSON object
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
    "report list-report.json": "list-report.json is not a report: needs 'passed' and 'rows', a"
    " nonempty list of objects with check, passed (true or false), value and bound",
}


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


def ledger_lines() -> list[str]:
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads

    lines = [" ".join(op.cli_argv())
             for name in workloads.WORKLOADS for op in workloads.make_ops(name, 1)
             if op.argv]
    lines += [text for _, text in workloads.README_LINES]
    lines += [*CAP_LINES, *CHAIN_LINES, *SEARCH_FAILURE_LINES, *TABLE_LINES, *LEMMA1_LINES,
              *DYNAMICS_LINES, *IDENTITY_LINES, *PROBE_LINES]
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
