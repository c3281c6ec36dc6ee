import contextlib
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from critreg import cli, concat, smooth
from critreg.cli import (
    KIND_FIELDS,
    KINDS,
    ConfigError,
    ExperimentConfig,
    _parse,
    _parser,
    _read_table,
    main,
    run,
    write_report,
)

from make_digests import LEDGER, REFUSAL_BYTES, REFUSALS, WRITE_REFUSALS, file_digests
from oracles import file_tree, within_5_s, write_report_rows


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    """A fresh directory holding REFUSAL_FILES, made the working directory."""
    for name, data in REFUSAL_BYTES.items():
        (tmp_path / name).write_bytes(data)
    monkeypatch.chdir(tmp_path)


def _refused(line: str, capsys) -> None:
    """Hold one REFUSALS line to the refusal contract, run in a working
    directory that holds REFUSAL_FILES (the `workdir` fixture): exit 1;
    stderr is the parser's usage message when the parser refuses the argv,
    then one error: line, the line's own, so no traceback and no value read
    as a flag; stdout is empty, but on WRITE_REFUSALS, where the write of
    the report fails after the run's rows: there it is the stdout of the run
    without its --out, so no "report written" line; and the working
    directory holds exactly REFUSAL_FILES afterwards, byte for byte."""
    argv = shlex.split(line)
    assert main(argv) == 1
    out, err = capsys.readouterr()
    _, _, usage = _parse_outcome(_parse, argv)
    rest = err.removeprefix(usage)
    assert err.startswith(usage) and rest.count("\n") == 1 and rest.endswith("\n"), err
    head, _, got = rest.removesuffix("\n").partition(" ")
    want = REFUSALS[line]
    assert head == "error:" and (
        re.fullmatch(want, got) if isinstance(want, re.Pattern) else got == want), got
    assert {str(f): None if f.is_dir() else f.read_bytes()
            for f in Path().rglob("*")} == REFUSAL_BYTES
    if line in WRITE_REFUSALS:
        assert argv[-2] == "--out" and main(argv[:-2]) in (0, 2)
        assert out == capsys.readouterr().out != ""
    else:
        assert out == ""


def _held(lines):
    """A refusal test whose inputs are REFUSALS lines, under its old name
    and ids: it checks that they are still REFUSALS lines, which
    `TestFlags::test_usage_errors_exit_one` holds to the refusal contract,
    so that none of them leaves the table unseen.  lines is a tuple of
    lines, or maps each id of the old test to its line."""
    if isinstance(lines, tuple):
        def test(self):
            assert set(lines) <= REFUSALS.keys()
        return test

    @pytest.mark.parametrize("line", list(lines.values()), ids=list(lines))
    def test(self, line):
        assert line in REFUSALS
    return test


_COST = ("lemma1 --d 2 --family custom-file --family-file cost-overflow-table.json --n-max 5"
         " --samples 5")


def _cfg(**kw):
    base = dict(kind="dynamics", k_max=200, seed=3, samples=50)
    base.update(kw)
    return ExperimentConfig(**base)


class TestRun:
    def test_dynamics(self):
        report = run(_cfg())
        assert report["passed"]
        assert [r["check"] for r in report["rows"]] == ["iterate-growth-bound"]
        assert report["constants"].keys() == {"holder_constant", "holder_sum", "wandering_sum"}
        assert 0 < report["constants"]["wandering_sum"] <= 1.0

    def test_lemma1(self):
        report = run(_cfg(kind="lemma1", d=2, n_max=50, samples=400, seed=42))
        assert report["passed"]
        assert report["constants"] == {"B": 3.0, "witness": 0}
        row = report["rows"][2]
        assert row["check"] == "walk-single-certificate"
        assert row["note"] == "sample 0 of the batch" and row["value"] <= row["bound"]

    def test_lemma1_without_a_certified_sample_fails(self, tmp_path, capsys):
        # d=2, n=5: weight 1/20 on every point of coordinate sum at most 5,
        # and 2 at (0, 5), where the one walk of seed 4 ends.  The total is
        # 3, so B = 9 and the terminal bound w * 6 <= 9 fails there only.
        table = {f"{i},{j}": "1/20" for i in range(6) for j in range(6 - i)}
        table["0,5"] = 2
        path = tmp_path / "spike.json"
        path.write_text(json.dumps(table))
        out = tmp_path / "rep"
        argv = ["lemma1", "--d", "2", "--family", "custom-file", "--family-file", str(path),
                "--n-max", "5", "--samples", "1", "--seed", "4", "--out", str(out)]
        assert main(argv) == 2
        report = json.loads((out / "report.json").read_text())
        rows = {r["check"]: r for r in report["rows"]}
        assert rows["walk-success-fraction"]["value"] == 0.0
        assert rows["walk-single-certificate"] == {
            "check": "walk-single-certificate", "passed": False, "value": None,
            "bound": rows["walk-single-certificate"]["bound"],
            "note": "no sample of the batch is certified",
        }
        assert report["constants"] == {"B": 9.0, "witness": None}
        assert "[FAIL] walk-single-certificate: value=None" in capsys.readouterr().out

    def test_boxes_planar(self):
        report = run(_cfg(kind="boxes", d=2, variant="B-d2",
                          alphas=("1/2", "1/2"), n_max=16))
        assert report["passed"]
        assert report["constants"]["multiplicity"] == 4

    def test_boxes_ff(self):
        report = run(_cfg(kind="boxes", d=3, variant="FF", n_max=12))
        assert report["passed"]
        # every FF box has a roundness constant; the largest is a value, not a row
        assert [r["check"] for r in report["rows"]] == ["box-multiplicity"]
        assert report["constants"]["max_min_roundness"] >= (1 + 4 ** 4) ** 2

    @pytest.mark.parametrize("cfg", [
        dict(kind="chain-b", d=2, variant="B-d2", alphas=("1/2", "1/2"), n_max=10),
        dict(kind="chain-b", d=3, variant="B-d3", n_max=8),
        dict(kind="chain-b", d=3, variant="B-general", n_max=8),
        dict(kind="chain-ff", d=3, family="symmetric-geometric", n_max=11),
        dict(kind="chain-ff", d=4, n_max=7),
    ], ids=["B-d2", "B-d3", "B-general", "FF-d3", "FF-general"])
    def test_chain_rows_and_record_count(self, cfg, monkeypatch):
        # every flag is decided against the bound its builder's scan accepted,
        # and chain-reverify re-decides it; the record count is a constant
        built = []
        build_chain = concat.build_chain
        monkeypatch.setattr(concat, "build_chain", lambda *a: built.append(build_chain(*a))
                            or built[-1])
        report = run(_cfg(**cfg))
        assert [r["check"] for r in report["rows"]] == ["chain-reverify", "budget-ratio-spread"]
        assert report["constants"]["records"] == len(built[0].records) > 0

    def test_chain_b(self):
        report = run(_cfg(kind="chain-b", d=2, variant="B-d2",
                          alphas=("1/2", "1/2"), n_max=10))
        assert report["passed"]

    def test_chain_b_plane_variant(self):
        report = run(_cfg(kind="chain-b", d=3, variant="B-d3", n_max=8))
        assert report["passed"]
        assert report["constants"]["K_d"] == 3.0

    def test_chain_ff(self):
        report = run(
            _cfg(kind="chain-ff", d=3, family="symmetric-geometric", n_max=11)
        )
        assert report["passed"]

    def test_identity_models(self):
        for d, variant in ((2, "translation"), (3, "translation"), (3, "ff")):
            report = run(_cfg(kind="identity", d=d, variant=variant, samples=40))
            assert report["passed"], (d, variant)

    def test_parabolic_cell_passes_on_the_fundamental_domain(self):
        # the grid maximum of Dg^k failed its bound here for k = 110..441:
        # near the parabolic point max Dg^k grows like k^2; the distortion
        # on J stays within the Holder sum, tightest at k = 1
        report = run(_cfg(c_param=0.5, alpha_holder="2/3", k_max=750))
        row = next(r for r in report["rows"] if r["check"] == "iterate-growth-bound")
        assert row["passed"] and report["passed"]
        assert abs(row["value"] - 0.0187) < 1e-4
        assert "first failing k: None" in row["note"]

    def test_growth_bound_row_reports_slack(self):
        report = run(_cfg())
        [row] = report["rows"]
        assert row["check"] == "iterate-growth-bound"
        assert row["passed"] and row["value"] >= row["bound"] == -1e-12
        assert "first failing k: None" in row["note"]
        assert "necessary condition" in row["note"]
        # the Holder sum at k_max and the last wandering partial sum are
        # measured values, the last point of the wandering table
        constants = report["constants"]
        assert constants["holder_sum"] >= row["value"] > 0
        assert constants["wandering_sum"] == report["tables"]["wandering"][-1][1]

    def test_small_holder_constant_fails_at_first_step(self, monkeypatch):
        estimate = smooth.holder_constant_estimate

        def scaled(g, alpha):
            return estimate(g, alpha) / 20

        monkeypatch.setattr(smooth, "holder_constant_estimate", scaled)
        report = run(_cfg(c_param=0.5, alpha_holder="2/3", k_max=750))
        row = next(r for r in report["rows"] if r["check"] == "iterate-growth-bound")
        assert not row["passed"] and not report["passed"]
        assert row["value"] < row["bound"]
        assert "first failing k: 1;" in row["note"]

    def test_validation_errors(self):
        with pytest.raises(ConfigError):
            run(_cfg(kind="nonsense"))
        with pytest.raises(ConfigError):
            run(_cfg(kind="lemma1", d=40))

    test_lemma1_mass_outside_float_range_exits_one = _held({
        f"{weight}-{size}": "lemma1 --d 2 --family custom-file --family-file"
        f" {size}-weight-table.json --n-max 5 --samples 5 --out rep"
        for weight, size in (("1e400", "large"), ("1e-400", "small"))})
    test_lemma1_cost_bound_past_float_range_exits_one = _held({
        "False": _COST, "True": f"{_COST} --out rep"})
    test_lemma1_family_file_of_another_dimension_exits_one = _held((
        "lemma1 --d 3 --family custom-file --family-file plane-table.json",
        "chain-b --d 3 --variant B-d3 --n-max 5 --family custom-file --family-file"
        " plane-table.json",
        "chain-b --d 2 --n-max 4 --family custom-file --family-file cube-table.json",
        "chain-ff --d 3 --n-max 6 --family custom-file --family-file cube-table.json"))
    test_family_file_without_custom_file_exits_one = _held({
        "flag": "lemma1 --d 2 --n-max 5 --samples 10 --family-file plane-table.json",
        "config": "lemma1 --d 2 --n-max 5 --samples 10 --config family-file-key.json"})


class TestDeterminism:
    def test_reports_byte_identical(self, tmp_path):
        cfg = dict(kind="dynamics", k_max=300, seed=9, samples=50)
        a = run(ExperimentConfig(**cfg))
        b = run(ExperimentConfig(**cfg))
        assert json.dumps(a, sort_keys=True, default=str) == json.dumps(
            b, sort_keys=True, default=str
        )
        pa = write_report(a, tmp_path / "one")
        pb = write_report(b, tmp_path / "two")
        assert pa.read_bytes() == pb.read_bytes()

    def test_seed_changes_stochastic_run(self):
        a = run(_cfg(kind="identity", d=2, variant="translation", samples=30, seed=1))
        b = run(_cfg(kind="identity", d=2, variant="translation", samples=30, seed=2))
        assert a["passed"] and b["passed"]  # both pass; inputs differ per seed

    @pytest.mark.parametrize("kind", ["lemma1", "identity"])
    def test_stochastic_kind_needs_a_seed(self, kind):
        # without a seed the run would draw from OS entropy and its report
        # would not be a function of the config
        with pytest.raises(ConfigError, match="need a seed"):
            run(ExperimentConfig(kind=kind, seed=None, samples=5, n_max=10))


# leaves of every kind json.dumps meets: ints past 2^64, floats of both
# zero signs, the non-finite ones and both sides of the exponent form,
# Fractions (written by default=str), strings with control, non-ASCII and
# bracket characters (one that looks like a table's row boundary)
LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(2 ** 64, 2 ** 200).flatmap(lambda v: st.sampled_from([v, -v])),
    st.floats(),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 1e16, 1e-5]),
    st.fractions(),
    st.text(),
    st.sampled_from(["", "[", "]", "],\n    [", "\x00\t\n\x1f\x7f", "é 😀"]),
)
# report tables: lists of nonempty rows of leaves
TABLES = st.lists(st.lists(LEAVES, min_size=1, max_size=3).map(tuple), min_size=1, max_size=5)
JSON_VALUES = st.recursive(
    LEAVES | TABLES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(), inner, max_size=4),
    ),
    max_leaves=40,
)


class TestReportText:
    @given(JSON_VALUES)
    @settings(max_examples=200, deadline=None)
    def test_json_text_is_the_indented_dump(self, value):
        # strict JSON: a NaN or an infinity raises a ValueError, as in the dump
        try:
            want = json.dumps(value, sort_keys=True, indent=2, default=str, allow_nan=False)
        except ValueError:
            with pytest.raises(ValueError, match="^Out of range float values"):
                cli._json_text(value)
        else:
            assert cli._json_text(value) == want

    @given(
        st.dictionaries(st.text(), JSON_VALUES, max_size=4),
        st.lists(st.fixed_dictionaries({k: LEAVES for k in ("check", "passed", "value",
                                                              "bound", "note")}), max_size=3),
        st.dictionaries(st.text("abcxyz_", min_size=1, max_size=6),
                        st.lists(st.tuples(LEAVES, LEAVES), max_size=4), max_size=3),
    )
    # most examples hold a NaN or an infinity, or a non-ASCII CSV or table
    # cell, which both writers refuse; the two file trees are compared
    # either way
    @settings(max_examples=150, deadline=None)
    def test_files_match_the_row_by_row_writer(self, extra, rows, tables):
        report = {**extra, "rows": rows, "tables": tables}
        with tempfile.TemporaryDirectory() as tmp:
            out, want = Path(tmp, "out"), Path(tmp, "want")
            try:
                write_report_rows(report, want)
            except ValueError as exc:
                # a NaN or an infinity: both writers refuse it before any
                # file; a non-ASCII CSV or table cell: both write the files
                # before its own and refuse that one
                with pytest.raises(type(exc)):
                    write_report(report, out)
                assert file_tree(out) == file_tree(want)
                if not isinstance(exc, UnicodeEncodeError):
                    assert file_tree(want) == {}
                return
            assert write_report(report, out) == out / "report.json"
            names = sorted(f.name for f in want.iterdir())
            assert sorted(f.name for f in out.iterdir()) == names
            for name in names:
                assert (out / name).read_bytes() == (want / name).read_bytes(), name

    @pytest.mark.parametrize("where", ["note", "table"])
    def test_non_ascii_cell_is_refused(self, tmp_path, where):
        # report.json escapes every string, so a non-ASCII cell reaches a
        # file only through checks.csv or a table: that file is not opened
        note, table = ("pi \u03c0", [(1, 2)]) if where == "note" else ("", [(1, "\u03c0")])
        report = {"rows": [cli._row("a", True, 1, None, note)], "tables": {"t": table}}
        with pytest.raises(ValueError):
            write_report(report, tmp_path)
        written = {"report.json"} | ({"checks.csv"} if where == "table" else set())
        assert {f.name for f in tmp_path.iterdir()} == written

    def test_file_formats(self, tmp_path):
        # the formats README states: the indented dump and a newline, CSV
        # rows in the default dialect (CRLF), and "a b" lines
        report = {"rows": [cli._row("a", True, 1.5, None, 'x, "y"')],
                  "tables": {"t": [(1, 0.5), (2, "s")]}, "constants": {"q": Fraction(1, 3)}}
        write_report(report, tmp_path)
        text = (tmp_path / "report.json").read_text()
        assert text == json.dumps(report, sort_keys=True, indent=2, default=str) + "\n"
        assert '"q": "1/3"' in text and '\n      [\n        1,\n        0.5\n      ],\n' in text
        assert (tmp_path / "checks.csv").read_bytes() == (
            b'check,passed,value,bound,note\r\na,True,1.5,,"x, ""y"""\r\n')
        assert (tmp_path / "t.dat").read_bytes() == b"1 0.5\n2 s\n"


@contextlib.contextmanager
def _umask(mask: int):
    old = os.umask(mask)
    try:
        yield
    finally:
        os.umask(old)


class TestWriter:
    """`write_report` writes each file with one open, write and close: the
    bytes, modes and errors of `Path.mkdir` and `Path.write_text`."""

    def test_overwrites_longer_files_with_exactly_the_new_bytes(self, tmp_path):
        report = run(_cfg(kind="dynamics", k_max=30))
        fresh, reused = tmp_path / "fresh", tmp_path / "reused"
        write_report(report, fresh)
        reused.mkdir()
        for f in fresh.iterdir():
            (reused / f.name).write_bytes(b"x" * (3 * f.stat().st_size + 100))
        assert write_report(report, reused) == reused / "report.json"
        assert file_tree(reused) == file_tree(fresh)

    @pytest.mark.parametrize("mask", [0o022, 0o002, 0o027, 0o077])
    def test_modes_are_those_of_write_text(self, mask, tmp_path):
        report = run(_cfg(kind="lemma1", d=2, n_max=20, samples=30))
        with _umask(mask):
            write_report(report, tmp_path / "a" / "b")
            write_report_rows(report, tmp_path / "c" / "b")
        assert file_tree(tmp_path / "a") == file_tree(tmp_path / "c")
        assert (tmp_path / "a").stat().st_mode == (tmp_path / "c").stat().st_mode

    @pytest.mark.parametrize("out", ["regular-file", "regular-file/sub",
                                     "regular-file/sub/deeper", "dir-report/",
                                     "./dir-checks", "dir-table", ".", "./"])
    def test_errors_are_those_of_write_text(self, out, workdir):
        # an --out that is a file, one or two levels under a file, or holds
        # a directory in place of report.json, checks.csv or a table
        for name in ("dir-report/report.json", "dir-checks/checks.csv",
                     "dir-table/wandering.dat", "report.json"):
            Path(name).mkdir(parents=True)
        report = run(_cfg(kind="dynamics", k_max=30))
        with pytest.raises(OSError) as got:
            write_report(report, out)
        with pytest.raises(OSError) as want:
            write_report_rows(report, Path(out))
        assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))

    @pytest.mark.parametrize("out", [".", "./"])
    def test_current_directory(self, out, workdir, capsys):
        # the files land in the working directory, and the path printed is
        # the one a Path join gives
        assert main(["dynamics", "--k-max", "30", "--out", out]) == 0
        assert capsys.readouterr().out.endswith("report written to report.json\n")
        assert Path("report.json").is_file() and Path("wandering.dat").is_file()


class TestMain:
    def test_exit_codes_and_output(self, tmp_path, capsys):
        out = tmp_path / "rep"
        code = main(
            ["dynamics", "--k-max", "100", "--c-param", "1.0", "--out", str(out)]
        )
        assert code == 0
        assert (out / "report.json").exists()
        assert (out / "checks.csv").exists()

    def test_thousandth_exponents_exit_without_a_traceback(self, tmp_path, capsys):
        # alpha = 1/1000 takes thousandth roots of numbers past float range
        # while the boxes are built: one box leaves no retention constant to
        # measure (a usage error); the chain runs report
        boxes_line = ["boxes", "--d", "2", "--variant", "B-d2", "--alpha", "1/1000,999/1000",
                      "--n-max", "1"]
        assert main([*boxes_line, "--out", str(tmp_path / "boxes")]) == 1
        err = capsys.readouterr().err
        assert err == "error: sequence too short to measure the retention constant\n"
        chain_line = ["chain-b", *boxes_line[1:], "--out", str(tmp_path / "chain")]
        assert main(chain_line) == 2
        assert (tmp_path / "chain" / "report.json").exists()

    def test_search_failure_exits_three(self, capsys):
        # FF d=3 up to n=2 has no stage with two strips to start a chain at;
        # the message ends with the number of stages the search examined
        assert main(["chain-ff", "--d", "3", "--n-max", "2"]) == 3
        assert capsys.readouterr().err == "error: no workable stage in range; stages: 3\n"

    def test_search_failure_report_prints_its_row(self, tmp_path, capsys):
        # the ledger pins the run's exit code and files, and its report exit
        out = tmp_path / "rep"
        main(["chain-ff", "--d", "3", "--n-max", "2", "--out", str(out)])
        capsys.readouterr()
        main(["report", str(out / "report.json")])
        assert "[FAIL] search: value=no workable stage in range" in capsys.readouterr().out

    @pytest.mark.parametrize("family", ["geometric", "symmetric-geometric"])
    def test_short_ff_ranges_are_search_failures(self, family, tmp_path, capsys):
        # a range too short to hold an FF-d3 chain exits 3 with a report,
        # whether it has no start stage (n_max <= 4) or too few stages past
        # it (n_max 5); n_max 6 builds a chain
        for n in range(1, 7):
            out = tmp_path / str(n)
            argv = ["chain-ff", "--d", "3", "--family", family, "--n-max", str(n)]
            code = main([*argv, "--out", str(out)])
            err = capsys.readouterr().err
            assert code == (3 if n <= 5 else 0)
            if n <= 4:
                assert err == f"error: no workable stage in range; stages: {n + 1}\n"
            elif n == 5:
                assert err == "error: sequence too short past the start stage; stages: 6\n"
            assert main(["report", str(out / "report.json")]) == (2 if n <= 5 else 0)
            capsys.readouterr()

    @pytest.mark.parametrize(
        "argv,shown",
        [(["dynamics", "--k-max", "20"], "[pass] iterate-growth-bound"),
         (["chain-ff", "--d", "3", "--n-max", "2"], "")],
        ids=["report", "exit-3-report"],
    )
    def test_unwritable_out_exits_one(self, tmp_path, capsys, argv, shown):
        # --out under a regular file: the rows (or the search error) come
        # first, then the failed write as error: <message>, exit 1
        blocker = tmp_path / "F"
        blocker.write_text("")
        assert main([*argv, "--out", str(blocker / "sub")]) == 1
        out, err = capsys.readouterr()
        assert out.startswith(shown) and "report written" not in out
        last = err.splitlines()[-1]
        assert last.startswith("error: ") and str(blocker / "sub") in last
        assert "Traceback" not in err

    def test_power_ratio_past_float_range_exits_two(self, tmp_path, capsys):
        # B-d2 (1/3, 2/3) at n_max 105 has a power ratio above 2^1024: B is
        # null, the run still writes its report, and budget-ratio-spread fails
        out = tmp_path / "rep"
        argv = ["chain-b", "--d", "2", "--variant", "B-d2", "--alpha", "1/3,2/3",
                "--n-max", "105", "--out", str(out)]
        assert main(argv) == 2
        report = json.loads((out / "report.json").read_text())
        assert report["constants"]["B"] is None
        assert "Traceback" not in capsys.readouterr().err

    def test_power_ratio_log2_reported_past_float_range(self, tmp_path):
        out = tmp_path / "rep"
        argv = ["chain-b", "--d", "2", "--variant", "B-d2", "--alpha", "1/3,2/3",
                "--n-max", "110", "--out", str(out)]
        assert main(argv) == 2
        constants = json.loads((out / "report.json").read_text())["constants"]
        assert constants["B"] is None
        assert 1024 <= constants["B_log2"] < float("inf")

    def test_power_ratio_log2_matches_finite_b(self):
        report = run(_cfg(kind="chain-b", d=2, variant="B-d2",
                          alphas=("1/2", "1/2"), n_max=10))
        constants = report["constants"]
        assert 1 < constants["B"] < float("inf")
        assert 2.0 ** constants["B_log2"] == constants["B"]

    def test_search_failure_message_ends_with_stats(self, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise concat.ChainSearchError("no good staircase", 3, {"candidates": 12})

        monkeypatch.setattr(concat, "build_chain", fail)
        assert main(["chain-b", "--d", "3", "--variant", "B-general", "--n-max", "6"]) == 3
        assert capsys.readouterr().err == "error: no good staircase; candidates: 12\n"

    def test_successive_calls_match_fresh_processes(self, workdir):
        # main reuses one parser: a flag or kind of one call must not leak
        # into the next, so in-process reports equal those of fresh
        # processes, and the fresh runs of ledger lines (one or more per
        # kind) write what the ledger pins
        calls = [
            "chain-ff --d 3 --family symmetric-geometric --n-max 9",
            "chain-ff --d 3 --n-max 9",
            "boxes --d 3 --variant FF --n-max 6",
            "chain-b --d 3 --variant B-d3 --n-max 6",
            "lemma1 --d 2 --family custom-file --family-file simplex-table.json --n-max 5"
            " --samples 50 --seed 3",
            "identity --d 2 --variant ff --samples 2 --seed 139525554",
            "dynamics --c-param 0.6 --alpha-holder 1/2 --k-max 40",
        ]
        pins = json.loads(LEDGER.read_text())
        assert {line.split()[0] for line in calls if line in pins} == set(KINDS)
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
        for k, line in enumerate(calls):
            main([*line.split(), "--out", f"in-{k}"])
        for k, line in enumerate(calls):
            proc = subprocess.run(
                [sys.executable, "-m", "critreg.cli", *line.split(), "--out", f"new-{k}"],
                env=env, capture_output=True, check=False,
            )
            names = sorted(f.name for f in Path(f"new-{k}").iterdir())
            assert names == sorted(f.name for f in Path(f"in-{k}").iterdir())
            for name in names:
                fresh = Path(f"new-{k}", name).read_bytes()
                assert Path(f"in-{k}", name).read_bytes() == fresh, (line, name)
            if line in pins:
                got = {"exit": proc.returncode, "files": file_digests(Path(f"new-{k}"))}
                assert got == pins[line], line

    def test_config_file_with_override(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"d": 2, "n_max": 30, "samples": 200, "seed": 5}))
        code = main(["lemma1", "--config", str(cfg), "--samples", "100"])
        assert code == 0

    def test_failed_report_exits_two(self, tmp_path):
        failed = {
            "rows": [{"check": "x", "passed": False, "value": 1, "bound": 0,
                      "note": ""}],
            "passed": False,
        }
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(failed))
        assert main(["report", str(p)]) == 2

    def test_report_subcommand(self, tmp_path, capsys):
        out = tmp_path / "rep"
        main(["boxes", "--d", "2", "--variant", "B-d2", "--alpha", "1/2,1/2",
              "--n-max", "8", "--out", str(out)])
        code = main(["report", str(out / "report.json")])
        assert code == 0
        assert "box-multiplicity" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["boxes", "--d", "2", "--variant", "B-d2", "--alpha", "1/100000,99999/100000",
         "--n-max", "200"],
        ["boxes", "--d", "3", "--variant", "B-general", "--alpha",
         "33333/100000,33333/100000,16667/50000", "--n-max", "24"],
    ], ids=["B-d2", "B-general"])
    def test_extreme_exponents_exit_one_promptly(self, capsys, argv):
        # exponents of denominator 10^5 ask for roots of radicands of
        # millions of bits: the first line ran past 60 s, the second 10 s
        code = within_5_s(main, argv)
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1 and "radicand past" in err

    def test_family_file_accepts_numbers_and_rationals(self, tmp_path):
        p = tmp_path / "family.json"
        p.write_text(json.dumps({"0,0": "1/2", "0,1": 0.25, "1, 0": 1}))
        assert _read_table(str(p)) == {
            (0, 0): Fraction(1, 2), (0, 1): Fraction(1, 4), (1, 0): Fraction(1)
        }

    @pytest.mark.parametrize("second", ['"0,0"', '"0, 0"', '" 0,0"', '"00,-0"'])
    def test_family_file_that_names_an_index_twice_is_refused(self, tmp_path, second):
        # the later weight would otherwise replace the earlier one unseen
        p = tmp_path / "family.json"
        p.write_text(f'{{"0,0": "1/2", "1,0": "1/8", {second}: "1/4"}}')
        key = json.loads(second)
        with pytest.raises(ConfigError) as info:
            _read_table(str(p))
        assert str(info.value) == f"{p}: index (0, 0) is named twice, again as key {key!r}"

    test_translation_names_its_dimension_limit = _held(("identity --d 6 --variant translation",))
    test_planar_takes_two_exponents = _held(("boxes --d 2 --variant B-d2 --alpha 1/3,1/3,1/3",))
    test_exponents_must_fit_the_dimension = _held({
        f"{form}-{case}-{REFUSALS[line]}": line
        for form, lines in (
            ("flag", ("chain-b --d 2 --variant B-general --alpha 1/3,1/3,1/3",
                      "chain-b --d 3 --variant B-d2 --alpha 1/2,1/2",
                      "boxes --d 5 --variant B-d2 --alpha 1/2,1/2",
                      "boxes --d 3 --variant FF --alpha 1/2,1/2")),
            ("config", ("chain-b --config b-general-d2.json", "chain-b --config b-d2-d3.json",
                        "boxes --config b-d2-d5.json", "boxes --config ff-alphas.json")))
        for case, line in zip(("chain-b-2-B-general-alphas0", "chain-b-3-B-d2-alphas1",
                               "boxes-5-B-d2-alphas2", "boxes-3-FF-alphas3"),
                              (f"{argv} --n-max 6 --out rep" for argv in lines))})
    test_general_sequence_message_comes_first = _held((
        "chain-b --d 3 --variant B-general --alpha 1/2,1/2",))
    test_chain_runners_name_their_variants = _held({
        f"argv{k}-{REFUSALS[line]}": line for k, line in enumerate(
            f"{argv} --n-max 8 --out rep" for argv in (
                "chain-ff --variant B-d2", "chain-ff --variant nope",
                "chain-ff --d 4 --variant FF-d3", "chain-b --d 3 --variant FF-d3",
                "chain-b --d 4 --variant B-d3"))})
    # the ids are the file contents the old tests wrote
    test_bad_report_file_exits_one = _held({
        key: f"report {name}" for key, name in (
            ("None", "missing.json"), ("not json {", "not-json.json"),
            ('{"rows": 3, "passed": true}', "number-rows-report.json"),
            ('{"rows": [1], "passed": true}', "number-row-report.json"),
            ('{"rows": [{"check": "x"}], "passed": true}', "short-row-report.json"),
            ('{"rows": []}', "no-verdict-report.json"), ("[]", "list-report.json"),
            ('{"rows": [{"check": "budget-ratio-spread", "passed": false, "value": 2.5,'
             ' "bound": 2.0}], "passed": true}', "contradicted-report.json"),
            ('{"rows": [], "passed": true}', "no-rows-report.json"),
            ('{"rows": [{"check": "x", "passed": "false", "value": 1, "bound": 0}],'
             ' "passed": true}', "string-verdict-report.json"))})
    test_report_that_is_not_strict_json_exits_one = _held({
        constant: f"report {name}-value-report.json" for constant, name in (
            ("Infinity", "infinity"), ("-Infinity", "minus-infinity"), ("NaN", "nan"))})
    test_bad_family_file_exits_one = _held({
        key: f"lemma1 --d 2 --family custom-file --family-file {name}" for key, name in (
            ("None", "missing.json"), ("not json {", "not-json.json"),
            ("[1, 2]", "number-list.json"), ('{"1,2": [1]}', "list-weight-table.json"),
            ('{"1,2": {"w": 1}}', "object-weight-table.json"),
            ('{"1,2": true}', "bool-weight-table.json"),
            ('{"1,2": null}', "null-weight-table.json"), ('{"a,2": 1}', "letter-key-table.json"),
            ('{"": 1}', "empty-key-table.json"), ('{"1,2": "abc"}', "word-weight-table.json"),
            ('{"1,2": "1/0"}', "zero-denominator-table.json"),
            ('{"1,2": Infinity}', "infinite-weight-table.json"),
            ('{"1,2": NaN}', "nan-weight-table.json"),
            ('{"1,2": 1, "1,2": 2}', "twice-key-table.json"),
            ('{"1,2": 1, " 1,2 ": 2}', "spaced-key-table.json"),
            ("underscore-key", "orthant-underscore-key-table.json"),
            ("full-width-key", "orthant-full-width-key-table.json"))})
    test_bad_config_file_exits_one = _held({
        key: f"{kind} --config {name}" for key, kind, name in (
            ("None", "lemma1", "missing.json"), ("not json {", "lemma1", "not-json.json"),
            ("[1, 2]", "lemma1", "number-list.json"), ('{"k_max": 5}', "lemma1", "k-max-key.json"),
            ('{"out": "x"}', "lemma1", "out-key.json"),
            ('{"kind": "boxes"}', "lemma1", "boxes-kind.json"),
            ('{"n_max": "5"}', "lemma1", "string-n-max.json"),
            ('{"d": 2.5}', "lemma1", "float-d.json"),
            ('{"c_param": "x"}', "dynamics", "string-c-param.json"),
            ('{"samples": true}', "lemma1", "bool-samples.json"),
            ('{"family": "cubic"}', "lemma1", "unknown-family.json"),
            ('{"alphas": "1/2,1/2"}', "boxes", "string-alphas.json"),
            ('{"alphas": ["1/0", "1/2"]}', "boxes", "zero-first-alpha.json"),
            ('{"alphas": ["1/2", "1/0"], "d": 2}', "chain-b", "zero-second-alpha.json"),
            ('{"alpha_holder": "1/0"}', "dynamics", "zero-alpha-holder.json"))})

SMALL = {
    "lemma1": ["--d", "2", "--n-max", "20", "--samples", "30", "--seed", "4"],
    "boxes": ["--d", "2", "--variant", "B-d2", "--alpha", "1/2,1/2", "--n-max", "8"],
    "chain-b": ["--d", "3", "--variant", "B-d3", "--n-max", "6"],
    "chain-ff": ["--d", "3", "--family", "symmetric-geometric", "--n-max", "9"],
    "identity": ["--d", "2", "--variant", "ff", "--samples", "5", "--seed", "2"],
    "dynamics": ["--c-param", "1.5", "--alpha-holder", "1/3", "--k-max", "40"],
}


# a flag of another kind, with its value, after a small run of each kind
UNREAD_FLAGS = {
    "lemma1": ["--alpha", "1/2,1/2"],
    "boxes": ["--family", "geometric"],
    "chain-b": ["--seed", "3"],
    "chain-ff": ["--alpha", "1/3,1/3,1/3"],
    "identity": ["--n-max", "5"],
    "dynamics": ["--d", "5"],
}


class TestFlags:
    # pytest numbers the first six lines argv0 to argv5 and names the others
    @pytest.mark.parametrize(
        "argv", [shlex.split(line) if k < 6 else pytest.param(shlex.split(line), id=line)
                 for k, line in enumerate(REFUSALS)]
    )
    def test_usage_errors_exit_one(self, argv, capsys, workdir):
        _refused(shlex.join(argv), capsys)

    test_unread_flag_exits_one = _held({
        kind: shlex.join([kind, *SMALL[kind], *UNREAD_FLAGS[kind], "--out", "rep"])
        for kind in KINDS})
    test_empty_path_exits_one_before_the_run = _held({
        flag: f"dynamics --k-max 20 {flag} ''" for flag in ("--out", "--config")})
    test_exponent_that_is_no_rational_exits_one = _held({
        f"argv{k}": line for k, line in enumerate((
            "boxes --d 2 --variant B-d2 --alpha 1/0,1/2", "chain-b --d 2 --alpha 1/2,1/0",
            "dynamics --alpha-holder 1/0", "dynamics --alpha-holder half"))})
    test_exponent_outside_the_unit_interval_exits_one = _held({
        alpha: f"dynamics --alpha-holder {alpha}" for alpha in ("2", "-1", "0", "1e400")})
    test_negative_value_in_exponent_notation_is_a_value = _held({
        f"argv{k}-{REFUSALS[line]}": line for k, line in enumerate((
            "dynamics --alpha-holder -1e-3", "dynamics --c-param -1e-3",
            "chain-b --d 2 --alpha -1e-1,1/2"))})
    test_size_that_cannot_be_allocated_exits_one = _held({
        "lemma1-samples": "lemma1 --d 2 --n-max 5 --samples 100000000000000000 --family"
        " custom-file --family-file simplex-table.json",
        "dynamics-k-max": "dynamics --k-max 100000000000000000"})

    def test_decided_lemma1_takes_any_sample_count(self, capsys):
        # an equal-rate product family is decided from one cost and one
        # endpoint, so 10^17 samples give the rows of 100 samples
        rows = []
        for samples in ("100", "10" + "0" * 16):
            assert main(["lemma1", "--d", "2", "--n-max", "5", "--samples", samples]) == 0
            rows.append(capsys.readouterr().out)
        assert rows[0] == rows[1]

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["dynamics", "--help"])
        assert exc.value.code == 0
        shown = capsys.readouterr().out
        assert "--k-max" in shown and "--d" not in shown and "--seed" not in shown

    @pytest.mark.parametrize("kind", KINDS)
    def test_flags_follow_the_table(self, kind):
        sub = next(a for a in _parser()._actions if a.dest == "command").choices[kind]
        dests = {a.dest for a in sub._actions} - {"help", "config", "out"}
        assert dests == set(KIND_FIELDS[kind])

    @pytest.mark.parametrize("kind", KINDS)
    def test_config_block_round_trips(self, kind, tmp_path):
        # the report's config block lists the fields the kind reads and its
        # kind; passed back as --config it reproduces the report byte for byte
        first, second = tmp_path / "first", tmp_path / "second"
        main([kind, *SMALL[kind], "--out", str(first)])
        config = json.loads((first / "report.json").read_text())["config"]
        assert config.keys() == {"kind", *KIND_FIELDS[kind]}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        main([kind, "--config", str(path), "--out", str(second)])
        assert (second / "report.json").read_bytes() == (first / "report.json").read_bytes()


def _parse_outcome(parse, argv: list[str]) -> tuple:
    """What parsing argv gives: the namespace, a SystemExit code or a usage
    error's message, and everything written to stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = ("namespace", parse(argv))
        except SystemExit as exc:
            result = ("exit", exc.code)
        except ConfigError as exc:
            result = ("usage error", str(exc))
    return result, out.getvalue(), err.getvalue()


# every ledger argv, with and without --out, every refusal line, and
# argvs at the edges of the kind parsers: unknown words and flags, help,
# "--", a flag without its value, and argvs the top parser takes
PARSE_LINES = [
    *(line.split() for line in json.loads(LEDGER.read_text())),
    *([*line.split(), "--out", "rep"] for line in json.loads(LEDGER.read_text())),
    *(shlex.split(line) for line in REFUSALS),
    *([kind, *SMALL[kind], *UNREAD_FLAGS[kind]] for kind in KINDS),
    ["lemma1", "--bogus"], ["lemma1", "extra"], ["lemma1", "--help"], ["lemma1", "--he"],
    ["lemma1", "-h", "--bogus"], ["lemma1", "--", "x"], ["lemma1", "--out"],
    ["lemma1", "--d=3", "--d", "2"], ["dynamics", "--help"], ["-h"], ["--help"], ["report"],
    ["report", "-h"], ["report", "a", "b"], ["report", "a.json"], ["-x"], ["--", "lemma1"], [],
]


class TestParse:
    """`_parse` sends an argv that starts with a kind to that kind's parser,
    and gives what the top parser gives."""

    def test_same_as_the_top_parser(self):
        # the namespace, or the exit code or usage error, and the full
        # stdout and stderr, argv by argv
        differ = [argv for argv in PARSE_LINES
                  if _parse_outcome(_parse, argv) != _parse_outcome(_parser().parse_args, argv)]
        assert len(PARSE_LINES) > 1600 and not differ, differ

    @pytest.mark.parametrize("argv", [["lemma1", "--bogus"], ["lemma1", "extra"],
                                      ["lemma1", "--help"], ["-h"], ["report"], []])
    def test_errors_and_help(self, argv):
        # the lines compared above fail or exit as they should: help exits
        # 0 with no stderr, a usage error prints a usage line first
        (what, value), out, err = _parse_outcome(_parse, argv)
        if "-h" in argv or "--help" in argv:
            assert (what, value, err) == ("exit", 0, "") and out.startswith("usage: critreg")
        else:
            assert what == "usage error" and not out and err.startswith("usage: critreg")

    def test_reads_sys_argv_when_given_none(self, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["critreg", "lemma1", "--d", "3"])
        assert _parse(None) == _parser().parse_args(["lemma1", "--d", "3"])


# Runs critreg.cli.main on each argv of sys.argv[1] (a JSON list) in one fresh
# interpreter and prints the exit codes, whether numpy was loaded after them
# and after a small lemma1 run, and the critreg modules loaded after
# `import critreg`, after `import critreg.cli` and after each argv.  With
# sys.argv[2] == "block", numpy cannot be imported at all.
FRESH_RUN = """
import contextlib, io, json, sys
calls, block = json.loads(sys.argv[1]), sys.argv[2] == "block"
if block:
    sys.modules["numpy"] = None
def ours():
    return sorted(name for name in sys.modules if name.startswith("critreg"))
import critreg
loaded = [ours()]
import critreg.cli
loaded.append(ours())
codes = []
with contextlib.redirect_stdout(io.StringIO()):
    for argv in calls:
        codes.append(critreg.cli.main(argv))
        loaded.append(ours())
    before = sys.modules.get("numpy") is not None
    if not block:
        critreg.cli.main(["lemma1", "--d", "2", "--n-max", "5", "--samples", "3"])
print(json.dumps([codes, before, sys.modules.get("numpy") is not None, loaded]))
"""

EXACT_KINDS = ("boxes", "chain-b", "chain-ff", "identity")

# Imports critreg, critreg.cli and the chain modules (which the CLI loads
# only for the kinds that run them) in a fresh interpreter and prints the
# late-loaded modules already present, the critreg classes that are
# dataclasses (by the field table `dataclasses.is_dataclass` reads, so the
# script itself leaves `dataclasses` unloaded) after the import and again
# after each run (argvs in sys.argv[1], a JSON list), their exit codes, and
# whether the runs left critreg.nilpotent and dataclasses loaded.
FRESH_IMPORT = """
import contextlib, io, json, sys
import critreg, critreg.cli, critreg.boxes, critreg.concat
late = ["numpy", "critreg.nilpotent", "critreg.walks", "critreg.smooth"]
loaded = [name for name in late if name in sys.modules]
def generated():
    return sorted(
        f"{name}.{cls.__name__}"
        for name, module in list(sys.modules.items()) if name.startswith("critreg")
        for cls in vars(module).values()
        if isinstance(cls, type) and cls.__module__ == name
        and "__dataclass_fields__" in vars(cls))
on_import = generated()
codes = []
with contextlib.redirect_stdout(io.StringIO()):
    for argv in json.loads(sys.argv[1]):
        codes.append(critreg.cli.main(argv))
print(json.dumps([loaded, on_import, generated(), codes,
                  "critreg.nilpotent" in sys.modules, "dataclasses" in sys.modules]))
"""


class TestStartup:
    """The exact kinds and `report` run without numpy; lemma1 loads it.
    Each kind loads only the critreg modules it runs."""

    def _fresh(self, tmp_path, mode, calls=None):
        out = tmp_path / mode
        if calls is None:
            calls = [[kind, *SMALL[kind], "--out", str(out / kind)] for kind in EXACT_KINDS]
            calls.append(["report", str(out / "boxes" / "report.json")])
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
        proc = subprocess.run(
            [sys.executable, "-c", FRESH_RUN, json.dumps(calls), mode],
            env=env, capture_output=True, text=True, check=False,
        )
        assert proc.returncode == 0, proc.stderr
        return out, json.loads(proc.stdout.splitlines()[-1])

    def test_exact_kinds_do_not_import_numpy(self, tmp_path):
        _, (codes, before, after, _) = self._fresh(tmp_path, "plain")
        assert all(code in (0, 2) for code in codes), codes
        assert not before and after

    @pytest.mark.parametrize("kind", [*KINDS, "report"])
    def test_each_kind_loads_only_the_modules_it_runs(self, tmp_path, kind):
        # a fresh interpreter per kind, as each `critreg` command is
        if kind == "report":
            report = tmp_path / "report.json"
            report.write_text('{"rows": [{"check": "x", "passed": true, "value": 1,'
                              ' "bound": 1, "note": ""}], "passed": true}')
            argv = ["report", str(report)]
        else:
            argv = [kind, *SMALL[kind]]
        _, (codes, _, _, loaded) = self._fresh(tmp_path, "plain", [argv])
        on_import, on_cli_import, after = loaded
        assert codes == [0]
        assert on_import == ["critreg"]
        assert on_cli_import == ["critreg", "critreg.cli", "critreg.lattice"]
        chain_code = {"critreg.boxes", "critreg.concat"}
        if kind in ("chain-b", "chain-ff"):
            assert chain_code <= set(after)
        elif kind == "boxes":
            assert "critreg.boxes" in after and "critreg.concat" not in after
        else:
            assert not chain_code & set(after), after

    def test_import_builds_no_dataclass_and_identity_loads_nilpotent(self, tmp_path):
        # a fresh interpreter, so that nothing pytest imported can mask a load
        # and one identity and one chain-b run generate none either
        argvs = [[kind, *SMALL[kind], "--out", str(tmp_path / kind)]
                 for kind in ("identity", "chain-b")]
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
        proc = subprocess.run(
            [sys.executable, "-c", FRESH_IMPORT, json.dumps(argvs)],
            env=env, capture_output=True, text=True, check=False,
        )
        assert proc.returncode == 0, proc.stderr
        loaded, on_import, after_runs, codes, nilpotent_after, dataclasses_after = (
            json.loads(proc.stdout.splitlines()[-1]))
        assert loaded == []
        assert on_import == after_runs == []
        assert codes == [0, 0] and nilpotent_after
        assert not dataclasses_after

    def test_exact_kinds_run_where_numpy_cannot_load(self, tmp_path):
        out, (codes, _, _, _) = self._fresh(tmp_path, "block")
        assert all(code in (0, 2) for code in codes), codes
        for kind in EXACT_KINDS:
            here = tmp_path / "here" / kind
            with contextlib.redirect_stdout(io.StringIO()):
                main([kind, *SMALL[kind], "--out", str(here)])
            names = sorted(f.name for f in here.iterdir())
            assert names == sorted(f.name for f in (out / kind).iterdir())
            for name in names:
                assert (out / kind / name).read_bytes() == (here / name).read_bytes(), name

