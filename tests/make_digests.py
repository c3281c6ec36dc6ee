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
- `TABLE_LINES`: chains and a walk on the three tables of `TABLES`;
- `LEMMA1_LINES`: lemma1 at other seeds, families and dimensions;
- `DYNAMICS_LINES`: k_max around the orbit block and the ends of c and alpha;
- `IDENTITY_LINES`: every allowed (model, d) at three seeds;
- `PROBE_LINES`: chains whose `report.json` held Infinity before it was
  strict JSON.

Each group's comment gives its reason.  The lines name the tables by paths
relative to the directory they run in, so that a report's config block
does not depend on it; `write_tables` puts them there.

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
# every lemma1 walk, and a B-d2 and an FF-d3 chain whose walks get zero
# weight (a null budget-ratio-spread and B_log2, exit 2)
TABLE_LINES = (
    "chain-b --d 2 --variant B-d2 --alpha 1/2,1/2 --n-max 8"
    " --family custom-file --family-file square-table.json",
    "lemma1 --d 2 --family custom-file --family-file simplex-table.json"
    " --n-max 5 --samples 50 --seed 3",
    "chain-b --d 2 --alpha 1/2,1/2 --family custom-file --family-file far-block-table.json"
    " --n-max 6",
    "chain-ff --d 3 --family custom-file --family-file far-block-table.json --n-max 6",
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
