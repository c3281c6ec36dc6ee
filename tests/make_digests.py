"""Write `tests/digests.json`, the ledger of report digests.

    PYTHONPATH=src python3 tests/make_digests.py

The ledger maps a `critreg` argv line to its exit code and the sha256 of
every file its `--out` directory holds.  Its lines are every CLI op of the
four benchmark pools at seed 1 (the stochastic ones with their drawn
`--seed`), the eight README lines and the three chain lines at the n_max
cap.  The pools are read from `bench/workloads.py`; the test that checks
the ledger (`tests/test_digests.py`) reads only this file's output, so
nothing under `bench/` is imported at test time.  A change that alters a
report regenerates the ledger with the command above and names each
changed line and its reason.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from critreg.cli import main as cli_main

ROOT = Path(__file__).resolve().parent.parent
LEDGER = ROOT / "tests" / "digests.json"

CAP_LINES = (
    "chain-ff --d 3 --n-max 200",
    "chain-b --d 2 --variant B-d2 --alpha 1/2,1/2 --n-max 200",
    "chain-b --d 3 --variant B-general --n-max 200",
)


def run_line(line: str, out: Path) -> dict:
    """Exit code and per-file sha256 of one argv line run with --out."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli_main([*line.split(), "--out", str(out)])
    files = {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
             for f in sorted(out.iterdir())} if out.is_dir() else {}
    return {"exit": code, "files": files}


def ledger_lines() -> list[str]:
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads

    lines = [" ".join(op.cli_argv())
             for name in workloads.WORKLOADS for op in workloads.make_ops(name, 1)
             if op.argv]
    lines += [text for _, text in workloads.README_LINES]
    lines += CAP_LINES
    return list(dict.fromkeys(lines))


def main() -> None:
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for i, line in enumerate(ledger_lines()):
            out[line] = run_line(line, Path(tmp) / str(i))
    LEDGER.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"{len(out)} lines -> {LEDGER}")


if __name__ == "__main__":
    main()
