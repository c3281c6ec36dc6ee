"""Every function in src/critreg serves a CLI kind, or is listed with a reason.

A small config set of every kind (plus `report`, exit-1 and exit-3
runs, and the benchmark's two direct library calls) runs in process under
`sys.setprofile`.  Every `def` of the package that none of them calls must
be on ALLOWLIST, and no ALLOWLIST entry may be called or stop existing.
Test oracles live in tests/oracles.py, not in the package.
"""

import ast
import contextlib
import functools
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

import critreg
from critreg import boxes, cli, concat, lattice

SRC = Path(critreg.__file__).resolve().parent

# a def's qualified name (module.Class.function), or the name of a class or
# function whose methods and nested defs it covers, with the reason it stays
ALLOWLIST = {
    "lattice.ProductFamily.weight": (
        "exact point weight for weights_le's fallback, which lemma1 reaches only on a "
        "terminal tie within 2^-40, and no built-in family has one"
    ),
    "nilpotent.UnipotentMatrix.__new__": (
        "the validated constructor: the kinds build matrices through the trusted "
        "builders only, and a caller's own rows are checked here"
    ),
}


def _is_stub(node: ast.FunctionDef) -> bool:
    """An interface method whose body only raises NotImplementedError."""
    body = node.body
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]
    return (
        len(body) == 1
        and isinstance(body[0], ast.Raise)
        and "NotImplementedError" in ast.unparse(body[0])
    )


def package_defs() -> dict[tuple[str, int], str]:
    """(file, first line) -> qualified name of every def in the package.

    The first line is that of the first decorator, as in a code object's
    co_firstlineno; interface stubs are left out.
    """
    out = {}
    for path in sorted(SRC.glob("*.py")):

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    if not _is_stub(child):
                        out[(str(path), first)] = prefix + child.name
                    visit(child, f"{prefix}{child.name}.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")
                else:
                    visit(child, prefix)

        visit(ast.parse(path.read_text()), f"{path.stem}.")
    return out


def _write(path: Path, data) -> str:
    path.write_text(json.dumps(data))
    return str(path)


def kind_runs(tmp: Path) -> list[tuple[list[str], int]]:
    """(argv, expected exit code) of the config set, every kind at a small size."""
    out = tmp / "out"
    simplex = {f"{i},{j}": f"{1 + (3 * i + 5 * j) % 7}/{2 ** (i + j)}"
               for i in range(7) for j in range(7 - i)}
    plane = {f"{i},{j}": f"{1 + (3 * i + 5 * j) % 7}/{2 ** (i + j)}"
             for i in range(9) for j in range(9)}
    lemma1 = _write(tmp / "lemma1.json", {"d": 2, "n_max": 4, "samples": 5, "seed": 3})
    wrong_type = _write(tmp / "wrong.json", {"n_max": "5"})
    infinite = _write(tmp / "infinite.json", {"rows": [], "passed": float("inf")})
    return [
        (["lemma1", "--config", lemma1, "--out", str(out)], 0),
        (["lemma1", "--d", "2", "--family", "symmetric-geometric", "--n-max", "4",
          "--samples", "5"], 0),
        (["lemma1", "--d", "2", "--family", "custom-file", "--family-file",
          _write(tmp / "simplex.json", simplex), "--n-max", "6", "--samples", "5"], 0),
        (["boxes", "--d", "3", "--variant", "FF", "--n-max", "4"], 0),
        (["boxes", "--d", "2", "--variant", "B-d2", "--alpha", "1/2,1/2", "--n-max", "6"], 0),
        (["boxes", "--d", "3", "--n-max", "4"], 0),
        (["chain-b", "--d", "2", "--variant", "B-d2", "--alpha", "1/2,1/2", "--n-max", "6"], 0),
        (["chain-b", "--d", "2", "--alpha", "1/2,1/2", "--family", "symmetric-geometric",
          "--n-max", "5"], 0),
        (["chain-b", "--d", "2", "--alpha", "1/2,1/2", "--family", "custom-file",
          "--family-file", _write(tmp / "plane.json", plane), "--n-max", "4"], 0),
        (["chain-b", "--d", "3", "--variant", "B-d3", "--n-max", "5"], 0),
        (["chain-b", "--d", "3", "--variant", "B-general", "--n-max", "5"], 0),
        (["chain-ff", "--d", "3", "--n-max", "6"], 0),
        (["chain-ff", "--d", "4", "--n-max", "7"], 2),
        (["identity", "--d", "2", "--variant", "ff", "--samples", "4"], 0),
        (["identity", "--d", "2", "--samples", "4"], 0),
        (["dynamics", "--k-max", "20"], 0),
        (["report", str(out / "report.json")], 0),
        (["lemma1", "--config", wrong_type], 1),
        (["report", infinite], 1),
        (["dynamics", "--d", "3"], 1),
        (["chain-ff", "--d", "3", "--n-max", "2", "--out", str(tmp / "exit3")], 3),
    ]


def direct_calls() -> None:
    """The two library calls the benchmark makes besides `cli.main`."""
    box = boxes.build_sequence("FF", d=3, n_max=2).box(2)
    a = boxes.minimal_round_constant(box)
    boxes.vertical_subdivision(box, a)
    concat.reach_vertical_section(lattice.geometric_family(2), box, a, (5, 170), Fraction(1, 2))


def reached_defs(tmp: Path) -> tuple[set[tuple[str, int]], list]:
    """Code positions called by the config set, and its (argv, expected, got)."""
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("critreg"):
            for value in vars(module).values():
                if isinstance(value, functools._lru_cache_wrapper):
                    value.cache_clear()  # a cached call would not show up
    calls = set()

    def profile(frame, event, arg):
        if event == "call":
            calls.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    codes = []
    sink = io.StringIO()
    sys.setprofile(profile)
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            for argv, expected in kind_runs(tmp):
                codes.append((argv, expected, cli.main(argv)))
            direct_calls()
    finally:
        sys.setprofile(None)
    return {(str(Path(f).resolve()), line) for f, line in calls}, codes


def _covers(entry: str, name: str) -> bool:
    return name == entry or name.startswith(entry + ".")


def test_every_def_serves_a_kind_or_is_allowlisted(tmp_path):
    calls, codes = reached_defs(tmp_path)
    assert [(argv, want) for argv, want, got in codes if got != want] == []
    defs = package_defs()
    reached = {name for key, name in defs.items() if key in calls}
    unreached = {name for key, name in defs.items() if key not in calls}
    unlisted = sorted(n for n in unreached if not any(_covers(e, n) for e in ALLOWLIST))
    assert unlisted == [], "defs no kind reaches; delete them, move them to tests/oracles.py or list them"
    gone = sorted(e for e in ALLOWLIST if not any(_covers(e, n) for n in defs.values()))
    assert gone == [], "allowlisted defs that no longer exist"
    used = sorted(e for e in ALLOWLIST if any(_covers(e, n) for n in reached))
    assert used == [], "allowlisted defs that a kind now reaches"
    assert all(reason.strip() for reason in ALLOWLIST.values())
