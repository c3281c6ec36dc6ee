"""Print, per module of src/critreg, the executable lines that no real run reaches.

    PYTHONPATH=src python3 tests/line_reach.py

The runs are every line of the digest ledger (`make_digests.ledger_lines()`),
the config set of `test_reachability.kind_runs` and the benchmark's direct
library calls (`test_reachability.direct_calls`), all in process.  A trace
function set with `sys.settrace` records the line events of frames whose
code lives in src/critreg.  A function's executable lines are those its
bytecode names; module and class bodies run at import and are left out.

This is a report, not a gate: it asserts nothing and no test imports it.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import io
import os
import sys
import tempfile
from pathlib import Path

import critreg
from critreg import cli

import make_digests
import test_reachability

SRC = Path(critreg.__file__).resolve().parent


def executable_lines(path: Path) -> set[int]:
    """The lines named by the bytecode of every function defined in path."""
    out: set[int] = set()

    def visit(code) -> None:
        if code.co_flags & inspect.CO_OPTIMIZED:
            out.update(line for _, _, line in code.co_lines() if line is not None)
        for const in code.co_consts:
            if inspect.iscode(const):
                visit(const)

    visit(compile(path.read_text(), str(path), "exec"))
    return out


def _clear_caches() -> None:
    """Empty the package's lru caches, so that a cached call still runs."""
    for name, module in list(sys.modules.items()):
        if name.startswith("critreg"):
            for value in vars(module).values():
                if isinstance(value, functools._lru_cache_wrapper):
                    value.cache_clear()


def reached_lines(tmp: Path) -> dict[str, set[int]]:
    """file -> the lines of src/critreg that the runs execute."""
    seen: dict[str, set[int]] = {}
    files: dict[str, str | None] = {}  # a code's file name -> its resolved path in SRC

    def local(frame, event, arg):
        if event == "line":
            seen[files[frame.f_code.co_filename]].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in files:
            path = Path(name).resolve()
            files[name] = str(path) if path.parent == SRC else None
        if files[name] is None:
            return None
        seen.setdefault(files[name], set()).add(frame.f_lineno)
        return local

    _clear_caches()
    make_digests.write_tables(tmp)
    here = os.getcwd()
    os.chdir(tmp)
    sink = io.StringIO()
    sys.settrace(trace)
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            for i, line in enumerate(make_digests.ledger_lines()):
                make_digests.run_line(line, tmp / f"ledger-{i}")
            for argv, _ in test_reachability.kind_runs(tmp):
                cli.main(argv)
            test_reachability.direct_calls()
    finally:
        sys.settrace(None)
        os.chdir(here)
    return seen


def _ranges(lines: list[int]) -> str:
    """Sorted line numbers as runs: 3-5, 9."""
    runs: list[list[int]] = []
    for n in lines:
        if runs and n == runs[-1][1] + 1:
            runs[-1][1] = n
        else:
            runs.append([n, n])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        seen = reached_lines(Path(tmp))
    total = 0
    for path in sorted(SRC.glob("*.py")):
        lines = executable_lines(path)
        missed = sorted(lines - seen.get(str(path), set()))
        total += len(missed)
        print(f"{path.stem}: {len(missed)} of {len(lines)} lines unreached")
        if missed:
            print(f"  {_ranges(missed)}")
    print(f"total: {total} lines unreached")


if __name__ == "__main__":
    main()
