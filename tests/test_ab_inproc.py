"""`tests/ab_inproc.py`, the in-process timer of two checkouts, runs as its
docstring says and tells reports apart: exit 0 on two copies of one
checkout, exit 1 and the line named when one copy writes another report,
and `--pool` runs a benchmark pool's seed-1 lines.  Each case runs the
script in a fresh interpreter, once, on two small lines or on a pool."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import make_digests

ROOT = Path(__file__).resolve().parent.parent
# the first line's report holds the note "planar sequence"; the second's not
LINES = ("boxes --d 2 --variant B-d2 --alpha 1/2,1/2 --n-max 6",
         "chain-b --d 3 --variant B-d3 --n-max 5")


def _checkout(root: Path) -> Path:
    """A copy of this checkout's `src/critreg` under root."""
    shutil.copytree(ROOT / "src" / "critreg", root / "src" / "critreg",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return root


def _ab(tmp_path: Path, old: Path, new: Path, *source: str) -> subprocess.CompletedProcess:
    """The script on old and new, one rep, over LINES or else the given
    source flags."""
    if not source:
        lines = tmp_path / "lines.txt"
        lines.write_text("\n".join(LINES) + "\n")
        source = ("--lines", str(lines))
    return subprocess.run(
        [sys.executable, str(ROOT / "tests" / "ab_inproc.py"), str(old), str(new),
         *source, "--reps", "1"],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, cwd=tmp_path,
        capture_output=True, text=True, check=False,
    )


def test_two_copies_of_one_checkout_agree(tmp_path):
    proc = _ab(tmp_path, _checkout(tmp_path / "old"), _checkout(tmp_path / "new"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "2 lines x 1 reps; reports differing: 0"


def test_a_changed_report_note_names_its_line(tmp_path):
    new = _checkout(tmp_path / "new")
    cli = new / "src" / "critreg" / "cli.py"
    text = cli.read_text()
    assert text.count('"planar sequence"') == 1
    cli.write_text(text.replace('"planar sequence"', '"planar sequence, changed"'))
    proc = _ab(tmp_path, _checkout(tmp_path / "old"), new)
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout.splitlines()[-2:] == [
        "2 lines x 1 reps; reports differing: 1", f"differs: {LINES[0]}"]


def test_a_pool_runs_its_seed_one_lines(tmp_path):
    checkout = _checkout(tmp_path / "old")
    proc = _ab(tmp_path, checkout, checkout, "--pool", "deep-chain")
    assert proc.returncode == 0, proc.stderr
    count = len(make_digests.pool_lines("deep-chain"))
    assert count == 104
    assert proc.stdout.splitlines()[-1] == f"{count} lines x 1 reps; reports differing: 0"


@pytest.mark.parametrize("source, error", [
    (("--pool", "nope"), "error: unknown workload 'nope'; choose from ('walk-mc',"
                         " 'deep-chain', 'action', 'cli-short')"),
    (("--pool", "walk-mc", "--lines", "lines.txt"),
     "error: argument --lines: not allowed with argument --pool"),
])
def test_a_pool_is_a_pool_name_and_no_lines_file(tmp_path, source, error):
    checkout = _checkout(tmp_path / "old")
    proc = _ab(tmp_path, checkout, checkout, *source)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.splitlines()[-1].endswith(error), proc.stderr
