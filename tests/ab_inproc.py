"""Time two checkouts of critreg on the same argv lines in one process.

    PYTHONPATH=src python3 tests/ab_inproc.py OLD NEW [--lines FILE | --pool NAME] [--reps N]

OLD and NEW are checkouts, each holding `src/critreg`.  They load under
the package names `critreg_old` and `critreg_new`, which the package's
relative imports allow, so both run in one interpreter.  Each rep runs
every line once on each side with `--out`, the two sides interleaved and
the side that goes first alternating from line to line and from rep to
rep, and times each call with `time.perf_counter`; each side's first call
pays its lazy imports, which the medians of several reps leave out.  The
lines come from FILE, one argv line a line, or from the seed-1 CLI ops of
the benchmark pool NAME (`make_digests.pool_lines`), or else from
`make_digests.ledger_lines()`; they run in a temporary directory that
holds the tables of `make_digests.TABLES`.

It prints, per side, the median and 90th percentile over lines of each
line's median time, then NEW over OLD for each.  It prints no summed
time: a total is weighted by the slowest lines and says nothing of the
others.  A ratio means nothing without the band the host's noise gives
it: run an A/A pass by passing a second copy of OLD
(say, `git archive` of the same commit unpacked elsewhere) as NEW, and
read a change's ratio as a move only where it leaves that pass's ratio
on the same pool and reps.  It exits 1 when a line's exit code or any
file it writes differs between the sides, byte for byte, and names the
line; else 0.  It imports nothing under `bench/`: `make_digests.py`, which
it imports, imports `critreg.cli`, hence the `PYTHONPATH`.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import os
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import make_digests

SIDES = ("old", "new")


def load(root: Path, side: str):
    """The `cli` module of root's `src/critreg`, loaded as `critreg_<side>`."""
    name = f"critreg_{side}"
    pkg = root / "src" / "critreg"
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.cli")


def run(cli, argv: list[str], out: Path) -> tuple[float, int, dict[str, bytes]]:
    """Seconds, exit code and output files of one `main` call."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        t0 = time.perf_counter()
        code = cli.main([*argv, "--out", str(out)])
        dt = time.perf_counter() - t0
    files = {f.name: f.read_bytes() for f in sorted(out.iterdir())} if out.is_dir() else {}
    shutil.rmtree(out, ignore_errors=True)
    return dt, code, files


def p90(xs: list[float]) -> float:
    return statistics.quantiles(xs, n=10)[-1] if len(xs) > 1 else xs[0]


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("old", type=Path)
    p.add_argument("new", type=Path)
    source = p.add_mutually_exclusive_group()
    source.add_argument("--lines", type=Path,
                        help="argv lines, one a line (default: the ledger's)")
    source.add_argument("--pool", help="time the seed-1 CLI ops of this benchmark pool")
    p.add_argument("--reps", type=int, default=7)
    args = p.parse_args(argv)
    if args.reps < 1:
        p.error("--reps must be at least 1")
    if args.lines:
        lines = [ln.split() for ln in args.lines.read_text().splitlines() if ln.strip()]
    elif args.pool is not None:
        try:
            lines = [ln.split() for ln in make_digests.pool_lines(args.pool)]
        except ValueError as exc:
            p.error(str(exc))
    else:
        lines = [ln.split() for ln in make_digests.ledger_lines()]
    clis = dict(zip(SIDES, (load(args.old.resolve(), "old"), load(args.new.resolve(), "new"))))
    times = {side: [[] for _ in lines] for side in SIDES}
    differ = set()
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        make_digests.write_tables(Path(tmp))
        os.chdir(tmp)
        try:
            for rep in range(args.reps):
                for i, line in enumerate(lines):
                    order = SIDES if (rep + i) % 2 == 0 else SIDES[::-1]
                    got = {}
                    for side in order:
                        dt, *got[side] = run(clis[side], line, Path(f"{side}-{i}"))
                        times[side][i].append(dt)
                    if got["old"] != got["new"]:
                        differ.add(i)
        finally:
            os.chdir(here)
    summary = {}
    for side in SIDES:
        per_line = [statistics.median(ts) for ts in times[side]]
        summary[side] = (statistics.median(per_line), p90(per_line))
        print(f"{side}: line p50 {summary[side][0] * 1e3:.3f} ms,"
              f" line p90 {summary[side][1] * 1e3:.3f} ms")
    ratios = [n / o for o, n in zip(summary["old"], summary["new"])]
    print("new/old: line p50 {:.3f}, line p90 {:.3f}".format(*ratios))
    print(f"{len(lines)} lines x {args.reps} reps; reports differing: {len(differ)}")
    for i in sorted(differ):
        print("differs:", " ".join(lines[i]))
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
