"""Every line of the digest ledger writes the files it pins, byte for byte,
and its report keeps the report policy.

`tests/digests.json` holds, per argv line, the exit code and the sha256 of
every output file; `tests/make_digests.py` writes it and documents its
line groups.  These tests read only the ledger, that file's constants and
the README.
"""

import contextlib
import io
import json
import re
from pathlib import Path

import pytest

from critreg import cli
import make_digests
from make_digests import (
    CAP_LINES, FAR_TABLE_CHAIN, LEDGER, ROOT, TABLES, changes, run_line, write_tables,
)
from oracles import file_tree, within_5_s, write_report_rows

PINS = json.loads(LEDGER.read_text())
# each line runs in its own directory, named by its place in the ledger
INDEX = {line: i for i, line in enumerate(PINS)}

# the lines whose report.json is not strict JSON.  None is: a value past
# float range (B, FF-general's lambda) or a spread over an empty fit is null
NON_STRICT = ()


def _strict(text: str) -> bool:
    """Whether text parses as JSON with Infinity and NaN refused."""
    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    try:
        json.loads(text, parse_constant=refuse)
    except ValueError:
        return False
    return True


def _readme_lines() -> list[str]:
    """The argv lines of the README's usage block, without their --out and
    without `critreg report`."""
    text = (ROOT / "README.md").read_text()
    return re.findall(r"^critreg (?!report\b)(.+?)(?: --out \S+)?$", text, re.M)


def _policy_failure(line: str, pin: dict, here: Path, written: list) -> str | None:
    """The first check of the report policy that line fails, run in the
    directory here; None if it passes them all.  written collects the
    reports that `cli.write_report` is given."""
    first, again = here / "first", here / "again"
    written.clear()
    got = run_line(line, first)
    if got != pin:
        return changes({line: pin}, {line: got})[0]
    write_report_rows(written[0], here / "want")
    if file_tree(first) != file_tree(here / "want"):
        return "files differ from the row-by-row writer's"
    text = (first / "report.json").read_text()
    if _strict(text) != (line not in NON_STRICT):
        return "report.json is strict JSON" if line in NON_STRICT else "report.json holds Infinity"
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["report", str(first / "report.json")])
    if code != (2 if pin["exit"] == 3 else pin["exit"]):
        return f"critreg report exits {code}"
    report = json.loads(text)
    config = here / "config.json"
    config.write_text(json.dumps(report["config"]))
    kind = line.split()[0]
    if run_line(f"{kind} --config {config}", again)["exit"] != pin["exit"]:
        return "the config block, passed back as --config, exits otherwise"
    if (again / "report.json").read_text() != text:
        return "the config block, passed back as --config, writes another report"
    reverify = [r["passed"] for r in report["rows"] if r["check"] == "chain-reverify"]
    if kind.startswith("chain") and pin["exit"] != 3 and reverify != [True]:
        return f"chain-reverify is {reverify}"
    return None


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    """The reports that `cli.write_report` is given, in a working directory
    that holds the tables, which the lines name by relative paths."""
    here = tmp_path_factory.mktemp("ledger")
    write_tables(here)
    reports = []
    write_report = cli.write_report
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(here)
        patch.setattr(cli, "write_report",
                      lambda report, out: reports.append(report) or write_report(report, out))
        yield reports


@pytest.mark.parametrize("line", PINS)
def test_ledger_line(line, written):
    # the pinned exit code and digests, and the report policy: the files are
    # those the standard library's writer gives row by row; only the
    # NON_STRICT lines write Infinity; `critreg report` exits as the run
    # did, or 2 after a search failure (exit 3), whose report holds one
    # failing row; the config block, passed back as --config, rewrites the
    # same report; and a chain's flags, re-decided from the family, pass.
    # FAR_TABLE_CHAIN does all this within 5 s: walking every point of its
    # table's segments took 5 s at n_max 40
    args = (line, PINS[line], Path(str(INDEX[line])), written)
    if line == FAR_TABLE_CHAIN:
        assert within_5_s(_policy_failure, *args) is None
    else:
        assert _policy_failure(*args) is None


def test_ledger_covers_every_kind_exit_and_named_line():
    # so that no group of lines leaves the ledger unnoticed: every kind, the
    # exit codes of a report (a usage error writes none), every table, the
    # cap lines, the README lines and the NON_STRICT lines
    assert {line.split()[0] for line in PINS} == set(cli.RUNNERS)
    assert {pin["exit"] for pin in PINS.values()} == {0, 2, 3}
    for name in TABLES:
        assert any(f"--family-file {name}" in line for line in PINS), name
    readme = _readme_lines()
    assert len(readme) == 8
    missing = [line for line in (*CAP_LINES, *readme, *NON_STRICT) if line not in PINS]
    assert not missing, missing


def test_check_names_lines_missing_from_the_ledger_and_extra_to_it(tmp_path, monkeypatch, capsys):
    # `make_digests.py --check`, the CI step: 0 on the committed ledger, 1
    # and both kinds of line named on a ledger that has drifted
    assert make_digests.check() == 0
    drifted = dict(PINS)
    missing = next(iter(drifted))
    del drifted[missing]
    drifted["boxes --d 2 --n-max 3"] = {"exit": 0, "files": {}}
    monkeypatch.setattr(make_digests, "LEDGER", tmp_path / "digests.json")
    make_digests.LEDGER.write_text(json.dumps(drifted))
    capsys.readouterr()
    assert make_digests.check() == 1
    assert capsys.readouterr().out.splitlines() == [
        f"not in the ledger: {missing}",
        "in the ledger but not a ledger line: boxes --d 2 --n-max 3",
    ]
