"""Every statement in a function of src/critreg runs on some CLI or
benchmark input, or is a raise or listed with a reason.

The runs are a small config set of every kind (plus `report` and exit-2 and
exit-3 runs), every refusal of `make_digests.REFUSALS` and the benchmark's
two direct library calls, all in process under `sys.settrace`.  A statement
counts as reached when a line event fires on any line of its span, so Python
3.10 and 3.11 agree.  Module and class bodies run at import and are left
out, and so are docstrings.  Every unreached statement must be a `raise` or
be on ALLOWLIST, and every ALLOWLIST entry must name an unreached statement.
Test oracles live in tests/oracles.py, not in the package.
"""

import ast
import contextlib
import functools
import io
import json
import os
import shlex
import sys
from fractions import Fraction
from pathlib import Path

import critreg
from critreg import boxes, cli, concat, lattice

from make_digests import REFUSAL_FILES, REFUSALS

SRC = Path(critreg.__file__).resolve().parent


def _in(name: str, *lines: str) -> list[tuple[str, str]]:
    """ALLOWLIST keys of the statements of one def that start with these lines."""
    return [(name, line) for line in lines]


# A key is a def's qualified name (module.Class.function), which covers its
# nested defs too, or (qualified name, the first source line of a statement,
# stripped), which covers each statement of that def that starts with it.
# The value is the reason the statements stay.
ALLOWLIST = {
    "lattice.ProductFamily.weight": (
        "exact point weight for weights_le's fallback, which lemma1 reaches only on a "
        "terminal tie within 2^-40, and no built-in family has one"),
    "nilpotent.UnipotentMatrix.__new__": (
        "the validated constructor: the kinds build matrices through the trusted "
        "builders only, and a caller's own rows are checked here"),
    ("boxes.integer_root", "return r - 1"): (
        "a float root that rounds up past the integer root, next to a perfect power; no B "
        "exponent pair or triple tried at n_max up to 200 meets one"),
    ("boxes.minimal_round_constant", "return None"): (
        "a box with a lower endpoint <= 0 has no roundness constant; the CLI and the "
        "benchmark ask only of FF boxes, whose lower endpoints start at 1"),
    ("concat._staircase_segments", "return None"): (
        "a staircase whose target or pivot leaves the overlap, which B-general reports as a "
        "search failure (exit 3); no built sequence gives one"),
    ("concat.distortion_budget", "continue"): (
        "a next box that the walk enters at its start or never; every chain built enters "
        "each later box after its first step"),
    ("lattice.Segment.index_of", "return None"): (
        "the verifier's failure path: a record whose entry or exit is off its segment"),
    ("lattice._ratio_parts", "return 0, math.inf"): (
        "a zero-mass bound against a region of positive mass; on the CLI's table without "
        "weight where chains run, the region's zero mass returns first"),
    ("lattice.first_translate_le", "t, down = t - 1, True"): (
        "a step down from the closed-form start, which only a check within MARGIN of a tie "
        "there takes; no CLI chain has one"),
    ("smooth.holder_constant_estimate", "return 0.0"): (
        "a one-point grid has no pair; the CLI scans 1025 points, and the oracle tests "
        "every grid from one point up"),
    ("walks._shared_cost", "return 0.0"): (
        "a walk of length 0 costs nothing; batch_certificates takes n = 0, and the CLI "
        "validates n_max >= 1"),
    **dict.fromkeys([
        *_in("cli._run_identity", "worst = max(worst, *map(abs, residuals))"),
        *_in("nilpotent._residuals", "two = Fraction(2)",
             "out.append(two ** (exponent(yv) - exponent(v)) * (1 - two ** tail))")],
        "the failing path of identity-residual-zero: the exact action leaves no residual on "
        "any word the kind draws"),
    **dict.fromkeys([
        *_in("boxes.SubdivisionTree.level", "return LevelInfo(tuple(chain), False)"),
        *_in("concat.stride_cascade_lambda",
             "best = max(best, mu * 2 ** (d - 1 - k) * a ** (3 * d - 5 - k) * lam_choice)"),
        *_in("concat.reach_vertical_section", "continue")],
        "only the benchmark's reach ops run the reach lemma, at admissible points of "
        "two-axis FF d=3 boxes whose section segments are all good (item 25 deletes it)"),
    **dict.fromkeys(_in(
        "smooth._domain_orbit", "for x, y in zip(pos_rows, pos_rows[1 : steps + 1]):",
        "np.minimum(np.maximum(g.f(x, out=y), g.a, out=y), g.b, out=y)"),
        "the clip of an orbit that rounding carries out of [a, b]: parabolic_map's image of "
        "[0, 1] stays inside for every c in (0, 4); item 11 owns this loop"),
    **dict.fromkeys([
        *_in("lattice.Axis._runs", "lo += -((lo - self.lo) // stride) * stride",
             "hi = self.hi", "return []", "lo = top + stride",
             "top = min(hi - (hi - lo) % stride, -1 - (-1 - lo) % stride)",
             "out.append((self.offset + self.rate * top, ratio, (top - lo) // stride + 1))"),
        *_in("lattice.Axis.log2_parts", "te, tf = log2_parts(c)",
             "top = max(out[0], e)",
             "e, f = top, log2_add(out[1] + (out[0] - top), f + (e - top))"),
        *_in("lattice.Axis.total_form", "return self.form(self.lo, self.hi)"),
        *_in("lattice._geometric_sum_log2", "return first_log2 + math.log2(count)"),
        *_in("lattice.ProductFamily.mass_log2_parts", "return None"),
        *_in("lattice.ProductFamily.range_power_log2", "return NEG_INF"),
        *_in("lattice._translate_ratios", "return 0, None")],
        "a product axis whose support has an end, reaches negative indices or has rate 0: "
        "Axis and ProductFamily take any such axis (the tests' uniform-box families do), but "
        "the CLI's two families have rate 1 on [0, inf) or Z, and every region a kind "
        "builds lies at coordinates >= 0"),
}


def package_statements() -> list[tuple[str, str, ast.stmt, str]]:
    """(qualified name of its def, file, node, first source line stripped) of
    every statement in a function body of the package; a nested def is a
    statement of its owner."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()

        def visit(node, prefix, owner):
            for child in ast.iter_child_nodes(node):
                if not isinstance(child, ast.stmt):
                    continue
                if owner and not (isinstance(child, ast.Expr)
                                  and isinstance(child.value, ast.Constant)):
                    out.append((owner, str(path), child, lines[child.lineno - 1].strip()))
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    visit(child, f"{prefix}{child.name}.", prefix + child.name)
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.", None)
                else:
                    visit(child, prefix, owner)

        visit(ast.parse(source), f"{path.stem}.", None)
    return out


def kind_runs(tmp: Path) -> list[tuple[str, int]]:
    """(argv line, expected exit code) of the config set, every kind at a
    small size, run in tmp, which holds REFUSAL_FILES."""
    files = {
        # a table of total mass below 1, where lemma 1's B takes its root branch
        "simplex.json": {f"{i},{j}": f"{1 + (3 * i + 5 * j) % 7}/{2 ** (i + j + 6)}"
                         for i in range(7) for j in range(7 - i)},
        "plane.json": {f"{i},{j}": f"{1 + (3 * i + 5 * j) % 7}/{2 ** (i + j)}"
                       for i in range(9) for j in range(9)},
        "lemma1.json": {"d": 2, "n_max": 4, "samples": 5, "seed": 3, "family_file": None},
    }
    for name, data in files.items():
        (tmp / name).write_text(json.dumps(data))
    return [
        ("lemma1 --config lemma1.json --out out", 0),
        ("lemma1 --d 2 --family symmetric-geometric --n-max 4 --samples 5", 0),
        ("lemma1 --d 2 --family custom-file --family-file simplex.json --n-max 6 --samples 5", 0),
        ("boxes --d 3 --variant FF --n-max 4", 0),
        ("boxes --d 2 --variant B-d2 --alpha 1/2,1/2 --n-max 6", 0),
        ("boxes --d 3 --n-max 4", 0),
        ("chain-b --d 2 --variant B-d2 --alpha 1/2,1/2 --n-max 6", 0),
        ("chain-b --d 2 --alpha 1/2,1/2 --family symmetric-geometric --n-max 5", 0),
        ("chain-b --d 2 --alpha 1/2,1/2 --family custom-file --family-file plane.json"
         " --n-max 4", 0),
        # a table without weight where the walk runs: every mass is zero
        ("chain-b --d 2 --alpha 1/2,1/2 --family custom-file --family-file"
         " far-block-table.json --n-max 6", 2),
        ("chain-b --d 3 --variant B-d3 --n-max 5", 0),
        ("chain-b --d 3 --variant B-general --n-max 5", 0),
        ("chain-ff --d 3 --n-max 6", 0),
        ("chain-ff --d 4 --n-max 7", 2),
        ("identity --d 2 --variant ff --samples 4", 0),
        ("identity --d 2 --samples 4", 0),
        ("dynamics --k-max 20", 0),
        ("report out/report.json", 0),
        ("chain-ff --d 3 --n-max 2 --out exit3", 3),
    ]


def direct_calls() -> None:
    """The two library calls the benchmark makes besides `cli.main`."""
    box = boxes.build_sequence("FF", d=3, n_max=2).box(2)
    a = boxes.minimal_round_constant(box)
    boxes.vertical_subdivision(box, a)
    concat.reach_vertical_section(lattice.geometric_family(2), box, a, (5, 170), Fraction(1, 2))


def fired_lines(tmp: Path) -> tuple[set[tuple[str, int]], list]:
    """(file, line) of every line event in the package while the runs go
    through `main()` as the `critreg` script calls it, in tmp, and each
    run's (argv line, expected, got) exit code."""
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("critreg"):
            for value in vars(module).values():
                if isinstance(value, functools._lru_cache_wrapper):
                    value.cache_clear()  # a cached call would not run its lines
    fired = set()
    files = {}  # a code's file name -> its resolved path in SRC, or None

    def local(frame, event, arg):
        if event == "line":
            fired.add((files[frame.f_code.co_filename], frame.f_lineno))
        return local

    def trace(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in files:
            path = Path(name).resolve()
            files[name] = str(path) if path.parent == SRC else None
        return local if files[name] else None

    for name, text in REFUSAL_FILES.items():
        (tmp / name).write_text(text)
    runs = [*kind_runs(tmp), *((line, 1) for line in REFUSALS)]
    codes = []
    here, argv = os.getcwd(), sys.argv
    os.chdir(tmp)
    sys.settrace(trace)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            for line, expected in runs:
                sys.argv = ["critreg", *shlex.split(line)]
                codes.append((line, expected, cli.main()))
            direct_calls()
    finally:
        sys.settrace(None)
        os.chdir(here)
        sys.argv = argv
    return fired, codes


def _covers(entry, name: str, text: str) -> bool:
    if isinstance(entry, tuple):
        return entry == (name, text)
    return name == entry or name.startswith(entry + ".")


def test_every_statement_is_reached_raised_or_allowlisted(tmp_path):
    fired, codes = fired_lines(tmp_path)
    assert [(line, want, got) for line, want, got in codes if got != want] == []
    unlisted, excused = [], set()
    for name, path, node, text in package_statements():
        if isinstance(node, ast.Raise) or any(
                (path, n) in fired for n in range(node.lineno, node.end_lineno + 1)):
            continue
        entries = {e for e in ALLOWLIST if _covers(e, name, text)}
        excused |= entries
        if not entries:
            unlisted.append(f"{Path(path).name}:{node.lineno} {name}: {text}")
    assert unlisted == [], "unreached statements; reach them, delete them or list them"
    # an entry that excuses nothing names statements that run or are gone
    assert [e for e in ALLOWLIST if e not in excused] == [], "stale ALLOWLIST entries"
    assert all(reason.strip() for reason in ALLOWLIST.values())
