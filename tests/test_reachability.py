"""Every statement in a function of src/critreg runs on some CLI or
benchmark input, or is a raise or listed with a reason; so does every arm
of an expression in a statement that runs.

The runs are ledger lines of every kind (`make_digests.REACH_LINES` and a
few lines of other groups, exit codes 0, 2 and 3, each expected to exit as
`tests/digests.json` pins it), the runs no ledger line can be (a config
file, and `critreg report`), every refusal of `make_digests.REFUSALS` and
the benchmark's two direct library calls, all in process under one
`sys.settrace` pass.  A
statement counts as reached when a line event fires on any line of its
span, so Python 3.10 and 3.11 agree.  Module and class bodies run at import
and are left out, and so are docstrings.

An arm is a part of an expression that its statement can run without:
either branch of `x if c else y`, each operand of an `and` or `or` after
the first, and each `if` filter of a comprehension.  On Python 3.11 and
later the tracer also takes opcode events (`frame.f_trace_opcodes`), and
an arm counts as evaluated when the `co_positions()` span of an executed
instruction lies inside the arm's source span.  Arms are checked only in
statements that ran, and not in `raise` statements.  Python 3.10 has no
`co_positions()`, so there the arm check skips.

Every unreached statement and unevaluated arm must be a `raise` or be on
ALLOWLIST, and every ALLOWLIST entry must name one of them.  Test oracles
live in tests/oracles.py, not in the package.
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
from typing import NamedTuple

import pytest

import critreg
from critreg import boxes, cli, concat, lattice

from make_digests import LEDGER, REACH_LINES, REFUSAL_BYTES, REFUSALS

SRC = Path(critreg.__file__).resolve().parent
# the arm check maps executed instructions to source spans with
# code.co_positions(), which Python 3.11 added
ARMS = sys.version_info >= (3, 11)


def _in(name: str, *texts: str) -> list[tuple[str, str]]:
    """ALLOWLIST keys of the statements of one def that start with these
    lines, or of its arms with these texts."""
    return [(name, text) for text in texts]


# A key is a def's qualified name (module.Class.function), which covers its
# nested defs too; or (qualified name, the first source line of a statement,
# stripped), which covers each statement of that def that starts with it; or
# (qualified name, an arm's source text on one line), which covers each such
# arm of that def.  The value is the reason the statements or arms stay.
ALLOWLIST = {
    **dict.fromkeys(["lattice.ProductFamily.weight",
                     ("lattice.weights_le", "family.weight(v) <= q")],
        "exact point weight for weights_le's fallback, which lemma1 reaches only on a "
        "terminal tie within 2^-40, and no built-in family has one"),
    ("concat._staircase_segments", "return None"): (
        "a staircase whose target or pivot leaves the overlap, which B-general reports as a "
        "search failure (exit 3); no built sequence gives one"),
    ("lattice._ratio_parts", "return 0, math.inf"): (
        "a zero-mass bound against a region of positive mass; on the CLI's table without "
        "weight where chains run, the region's zero mass returns first"),
    ("lattice.first_translate_le", "t, down = t - 1, True"): (
        "a step down from the closed-form start, which only a check within MARGIN of a tie "
        "there takes; no CLI chain has one"),
    ("smooth.fundamental_domain_check", "int(failing[0]) + 1"): (
        "the first failing k of iterate-growth-bound: no dynamics input fails it (13 values "
        "of c by 7 of alpha at k_max 300 were searched); item 14 owns a map that fails"),
    ("lattice._translate_ratios", "count"): (
        "a closed-form start past the scan's end, where no translate passes; no CLI chain "
        "fails a search there"),
    ("concat._build_ff_general", "None"): (
        "lambda past float range, which only `chain-ff --d 6 --n-max 180` reaches; traced "
        "with opcode events that line adds about 2.8 s, past the 3 s the whole gate may take"),
    **dict.fromkeys([
        *_in("cli._run_identity", "worst = max(worst, abs(residual))"),
        *_in("nilpotent._residual", "two = Fraction(2)",
             "return two ** (sum(map(abs, w)) - sum(map(abs, gw))) * (1 - two ** tail)")],
        "the failing path of identity-residual-zero: the kind's g = f(n,1) is central, so "
        "g^k commutes with every word it draws and the residual is zero by algebra"),
    **dict.fromkeys([
        *_in("boxes.SubdivisionTree.level", "return LevelInfo(tuple(chain), False)"),
        *_in("concat.stride_cascade_lambda",
             "best = max(best, mu * 2 ** (d - 1 - k) * a ** (3 * d - 5 - k) * lam_choice)"),
        *_in("concat.reach_vertical_section", "continue", "(lo, hi)", "frontier")],
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
             "out.append((self.offset + self.rate * top, ratio, (top - lo) // stride + 1))",
             "self.rate"),
        *_in("lattice.Axis.log2_parts", "te, tf = log2_parts(c)",
             "top = max(out[0], e)",
             "e, f = top, log2_add(out[1] + (out[0] - top), f + (e - top))", "None"),
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


def statements(source: str, stem: str) -> list[tuple[str, ast.stmt, str]]:
    """(qualified name of its def, node, first source line stripped) of
    every statement in a function body of the module `stem`; a nested def
    is a statement of its owner, and so is each statement of an except
    clause or a match case."""
    out = []
    lines = source.splitlines()

    def visit(node, prefix, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.excepthandler, ast.match_case)):
                visit(child, prefix, owner)
            if not isinstance(child, ast.stmt):
                continue
            if owner and not (isinstance(child, ast.Expr)
                              and isinstance(child.value, ast.Constant)):
                out.append((owner, child, lines[child.lineno - 1].strip()))
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{prefix}{child.name}.", prefix + child.name)
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.", None)
            else:
                visit(child, prefix, owner)

    visit(ast.parse(source), f"{stem}.", None)
    return out


def package_statements() -> list[tuple[str, str, ast.stmt, str]]:
    """(qualified name of its def, file, node, first source line stripped)
    of every statement in a function body of the package."""
    return [(name, str(path), node, text) for path in sorted(SRC.glob("*.py"))
            for name, node, text in statements(path.read_text(), path.stem)]


def arms(node: ast.stmt) -> list[ast.expr]:
    """The arms among a statement's own expressions, not those of the
    statements it holds: both branches of `x if c else y`, each operand of
    an `and` or `or` after the first and each `if` of a comprehension."""
    out = []
    todo = [child for child in ast.iter_child_nodes(node) if not isinstance(child, ast.stmt)]
    while todo:
        expr = todo.pop()
        if isinstance(expr, ast.IfExp):
            out += [expr.body, expr.orelse]
        elif isinstance(expr, ast.BoolOp):
            out += expr.values[1:]
        elif isinstance(expr, ast.comprehension):
            out += expr.ifs
        todo += ast.iter_child_nodes(expr)
    return sorted(out, key=lambda e: (e.lineno, e.col_offset))


def arm_text(lines: list[bytes], arm: ast.expr) -> str:
    """An arm's source text on one line, its ALLOWLIST key's text, from its
    source's lines as bytes (its columns count UTF-8 bytes)."""
    parts = lines[arm.lineno - 1 : arm.end_lineno]
    parts[-1] = parts[-1][: arm.end_col_offset]
    parts[0] = parts[0][arm.col_offset :]
    return " ".join(b"\n".join(parts).decode().split())


def _inside(position: tuple, node: ast.AST) -> bool:
    """Whether a `co_positions()` span lies in the node's source span."""
    line, end_line, col, end_col = position
    return (None not in position and (line, col) >= (node.lineno, node.col_offset)
            and (end_line, end_col) <= (node.end_lineno, node.end_col_offset))


def unreached_arms(source: str, stem: str, ran: set[tuple]) -> list[tuple[str, str, int]]:
    """(qualified name, source text, line) of every arm that no position of
    `ran` lies in, among the statements of the module `stem` that some
    position of `ran` lies in, raise statements left out; `ran` holds the
    `co_positions()` spans of the instructions that executed."""
    by_line = {}
    for position in ran:
        by_line.setdefault(position[0], []).append(position)

    def reached(node):
        return any(_inside(p, node) for n in range(node.lineno, node.end_lineno + 1)
                   for p in by_line.get(n, ()))

    lines = source.encode().splitlines()
    return [(name, arm_text(lines, arm), arm.lineno)
            for name, node, _ in statements(source, stem)
            if not isinstance(node, ast.Raise) and reached(node)
            for arm in arms(node) if not reached(arm)]


# the ledger lines the gate runs, each with the --out directory it writes
# or None: REACH_LINES, and these lines of other groups
GATE_LINES = {
    **dict.fromkeys(REACH_LINES),
    # the one walk ends on the heavy point (4, 0): no certified sample
    "lemma1 --d 2 --family custom-file --family-file heavy-endpoint-table.json --n-max 4"
    " --samples 1 --seed 6": None,
    "boxes --d 3 --variant FF --n-max 4": None,
    "boxes --d 2 --variant B-d2 --alpha 1/2,1/2 --n-max 6": None,
    "chain-b --d 2 --variant B-d2 --alpha 1/2,1/2 --n-max 6": None,
    # a table without weight where the walk runs: every mass is zero
    "chain-b --d 2 --alpha 1/2,1/2 --family custom-file --family-file far-block-table.json"
    " --n-max 6": None,
    "chain-b --d 3 --variant B-d3 --n-max 5": None,
    "chain-b --d 3 --variant B-general --n-max 5": None,
    # a chain too short for a fit (exit 2), whose report a `report` run reads
    "chain-b --d 2 --alpha 1/2,1/2 --n-max 2": "fit-empty",
    # a search failure's report
    "chain-ff --d 3 --n-max 2": "exit3",
}


def ledger_runs() -> list[tuple[str, int]]:
    """(argv line, pinned exit code) of each of GATE_LINES."""
    pins = json.loads(LEDGER.read_text())
    return [(line if out is None else f"{line} --out {out}", pins[line]["exit"])
            for line, out in GATE_LINES.items()]


def kind_runs(tmp: Path) -> list[tuple[str, int]]:
    """(argv line, expected exit code) of the runs that no ledger line can
    be, run in tmp after the ledger runs: a config file and a report in the
    working directory, and `critreg report` on two reports."""
    config = {"d": 2, "n_max": 4, "samples": 5, "seed": 3, "family_file": None}
    (tmp / "lemma1.json").write_text(json.dumps(config))
    return [
        ("lemma1 --config lemma1.json --out .", 0),
        ("report report.json", 0),
        ("report fit-empty/report.json", 2),
    ]


def direct_calls() -> None:
    """The two library calls the benchmark makes besides `cli.main`."""
    box = boxes.build_sequence("FF", d=3, n_max=2).box(2)
    a = boxes.minimal_round_constant(box)
    boxes.vertical_subdivision(box, a)
    concat.reach_vertical_section(lattice.geometric_family(2), box, a, (5, 170), Fraction(1, 2))


class Traffic(NamedTuple):
    """What the runs executed in the package: (file, line) of every line
    event, each file's `co_positions()` spans of the instructions that ran
    (none before Python 3.11) and each run's (argv line, expected, got)
    exit code."""

    lines: set[tuple[str, int]]
    positions: dict[str, set[tuple]]
    codes: list[tuple[str, int, int]]


def trace_runs(tmp: Path) -> Traffic:
    """Run every argv line through `main()` as the `critreg` script calls
    it, in tmp, and then the direct calls, under one tracer."""
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("critreg"):
            for value in vars(module).values():
                if isinstance(value, functools._lru_cache_wrapper):
                    value.cache_clear()  # a cached call would not run its lines
    fired, ran = set(), set()
    files = {}  # a code's file name -> its resolved path in SRC, or None

    def local(frame, event, arg):
        if event == "opcode":
            ran.add((frame.f_code, frame.f_lasti))
        elif event == "line":
            fired.add((files[frame.f_code.co_filename], frame.f_lineno))
        return local

    def trace(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in files:
            path = Path(name).resolve()
            files[name] = str(path) if path.parent == SRC else None
        if not files[name]:
            return None
        frame.f_trace_opcodes = ARMS
        return local

    for name, data in REFUSAL_BYTES.items():
        (tmp / name).write_bytes(data)
    runs = [*ledger_runs(), *kind_runs(tmp), *((line, 1) for line in REFUSALS)]
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
    positions = {}
    spans = {}  # code -> its co_positions, one per 2-byte code unit
    for code, offset in ran:
        if code not in spans:
            spans[code] = list(code.co_positions())
        positions.setdefault(files[code.co_filename], set()).add(spans[code][offset // 2])
    return Traffic(fired, positions, codes)


@pytest.fixture(scope="module")
def traffic(tmp_path_factory) -> Traffic:
    return trace_runs(tmp_path_factory.mktemp("runs"))


def _covers(entry, name: str, text: str) -> bool:
    if isinstance(entry, tuple):
        return entry == (name, text)
    return name == entry or name.startswith(entry + ".")


def _excused(misses: list[tuple[str, str, str]]) -> tuple[list[str], set]:
    """The (where, qualified name, key text) misses that no ALLOWLIST entry
    covers, and the entries that cover some miss."""
    unlisted, excused = [], set()
    for where, name, text in misses:
        entries = {e for e in ALLOWLIST if _covers(e, name, text)}
        excused |= entries
        if not entries:
            unlisted.append(f"{where} {name}: {text}")
    return unlisted, excused


def test_every_run_exits_as_expected(traffic):
    assert [(line, want, got) for line, want, got in traffic.codes if got != want] == []


def arm_keys() -> set[tuple[str, str]]:
    """(qualified name, source text) of every arm of the package: the
    ALLOWLIST keys that the arm check owns."""
    keys = set()
    for path in SRC.glob("*.py"):
        source = path.read_text()
        lines = source.encode().splitlines()
        keys |= {(name, arm_text(lines, arm)) for name, node, _ in statements(source, path.stem)
                 for arm in arms(node)}
    return keys


def test_every_statement_is_reached_raised_or_allowlisted(traffic):
    misses = [(f"{Path(path).name}:{node.lineno}", name, text)
              for name, path, node, text in package_statements()
              if not isinstance(node, ast.Raise) and not any(
                  (path, n) in traffic.lines for n in range(node.lineno, node.end_lineno + 1))]
    unlisted, excused = _excused(misses)
    assert unlisted == [], "unreached statements; reach them, delete them or list them"
    # an entry that excuses nothing names statements that run or are gone
    owned = arm_keys()
    assert [e for e in ALLOWLIST if e not in excused and e not in owned] == [], (
        "stale ALLOWLIST entries")
    assert all(reason.strip() for reason in ALLOWLIST.values())


def test_arm_check_reports_the_arms_that_never_ran():
    # every expression ran but the `or` operand b, the `else` arm [2] and
    # the arm 'none' of a raise statement that ran
    source = ("def f(a, b):\n"
              "    x = a or b\n"
              "    y = [1] if a else [2]\n"
              "    if not x:\n"
              "        raise ValueError('empty' if b else 'none')\n"
              "    return [v for v in y if v]\n")
    lines = source.encode().splitlines()
    exprs = [n for n in ast.walk(ast.parse(source)) if isinstance(n, ast.expr)]
    idle = [n for n in exprs if (n.lineno, arm_text(lines, n)) in {(2, "b"), (3, "[2]"),
                                                                   (5, "'none'")}]
    spans = [(n.lineno, n.end_lineno, n.col_offset, n.end_col_offset) for n in exprs]
    ran = {span for span in spans if not any(_inside(span, n) for n in idle)}
    assert len(idle) == 3
    assert unreached_arms(source, "m", ran) == [("m.f", "b", 2), ("m.f", "[2]", 3)]


@pytest.mark.skipif(not ARMS, reason="the arm check reads code.co_positions(), which "
                    "Python 3.11 added; the statement check runs on every version")
def test_every_arm_is_reached_raised_or_allowlisted(traffic):
    misses = [(f"{path.name}:{line}", name, text) for path in sorted(SRC.glob("*.py"))
              for name, text, line in unreached_arms(
                  path.read_text(), path.stem, traffic.positions.get(str(path), set()))]
    unlisted, excused = _excused(misses)
    assert unlisted == [], "unevaluated arms; reach them, delete them or list them"
    # an arm key that excuses nothing names an arm that runs or is gone
    assert [e for e in arm_keys() & ALLOWLIST.keys() if e not in excused] == [], (
        "stale ALLOWLIST arm entries")
