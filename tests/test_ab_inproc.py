"""`tests/ab_inproc.py`, the in-process timer of two checkouts, runs as its
docstring says and tells reports apart: exit 0 on two copies of one
checkout, exit 1 and the line named when one copy writes another report.
Each case runs the script in a fresh interpreter, on two small lines, once."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# the first line's report holds the note "planar sequence"; the second's not
LINES = ("boxes --d 2 --variant B-d2 --alpha 1/2,1/2 --n-max 6",
         "chain-b --d 3 --variant B-d3 --n-max 5")


def _checkout(root: Path) -> Path:
    """A copy of this checkout's `src/critreg` under root."""
    shutil.copytree(ROOT / "src" / "critreg", root / "src" / "critreg",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return root


def _ab(tmp_path: Path, old: Path, new: Path) -> subprocess.CompletedProcess:
    lines = tmp_path / "lines.txt"
    lines.write_text("\n".join(LINES) + "\n")
    return subprocess.run(
        [sys.executable, str(ROOT / "tests" / "ab_inproc.py"), str(old), str(new),
         "--lines", str(lines), "--reps", "1"],
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
