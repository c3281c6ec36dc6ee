import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
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

from make_digests import LEDGER
from oracles import write_report_rows


# config file contents that must exit 1, and the kind each is passed to;
# None leaves the file missing
BAD_CONFIGS = {
    None: "lemma1",
    "not json {": "lemma1",
    "[1, 2]": "lemma1",
    '{"k_max": 5}': "lemma1",
    '{"out": "x"}': "lemma1",
    '{"kind": "boxes"}': "lemma1",
    # values of the wrong type for their flag
    '{"n_max": "5"}': "lemma1",
    '{"d": 2.5}': "lemma1",
    '{"c_param": "x"}': "dynamics",
    '{"samples": true}': "lemma1",
    '{"family": "cubic"}': "lemma1",
    '{"alphas": "1/2,1/2"}': "boxes",
    # exponents with a zero denominator
    '{"alphas": ["1/0", "1/2"]}': "boxes",
    '{"alphas": ["1/2", "1/0"], "d": 2}': "chain-b",
    '{"alpha_holder": "1/0"}': "dynamics",
}


# files that lines of REPORTS and USAGE_ERRORS name by paths relative to the
# directory they run in, so that a report's config block does not depend on it
FILES = {
    # w(i, j) = 2^-(i+j+2) on a 6x6 square: B-d2 chain segments up to n = 8,
    # and lemma1 walks of length 7, can leave it
    "square-table.json": json.dumps(
        {f"{i},{j}": f"1/{2 ** (i + j + 2)}" for i in range(6) for j in range(6)}),
    # a weight that is not a function of |v|, on the points with i + j <= 5,
    # so every lemma1 walk of length 5 is stepped on it
    "simplex-table.json": json.dumps(
        {f"{i},{j}": f"{1 + (3 * i + 5 * j) % 7}/{2 ** (i + j)}"
         for i in range(6) for j in range(6 - i)}),
    "unread-key.json": '{"n_max": 5}',
    "string-n-max.json": '{"n_max": "5"}',
    "float-d.json": '{"d": 2.5}',
    "string-c-param.json": '{"c_param": "x"}',
    "zero-alpha.json": '{"d": 2, "alphas": ["1/0", "1/2"]}',
    "zero-alpha-holder.json": '{"alpha_holder": "1/0"}',
    "family-file-key.json": '{"family_file": "square-table.json"}',
    "regular-file": "",
}


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    """A fresh directory holding FILES, made the working directory."""
    for name, content in FILES.items():
        (tmp_path / name).write_text(content)
    monkeypatch.chdir(tmp_path)


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

    def test_lemma1_family_file_of_another_dimension_exits_one(self, tmp_path, capsys):
        path = tmp_path / "plane.json"
        path.write_text(json.dumps({f"{i},{j}": "1/64" for i in range(8) for j in range(8)}))
        argv = ["lemma1", "--d", "3", "--family", "custom-file", "--family-file", str(path)]
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: the family file's table is on Z^2, not Z^3\n"

    @pytest.mark.parametrize("form", ["flag", "config"])
    def test_family_file_without_custom_file_exits_one(self, tmp_path, capsys, form):
        # the file is a valid table: without --family custom-file it would be
        # ignored and the geometric family run instead
        path = tmp_path / "plane.json"
        path.write_text(json.dumps({f"{i},{j}": "1/64" for i in range(8) for j in range(8)}))
        argv = ["lemma1", "--d", "2", "--n-max", "5", "--samples", "10"]
        if form == "flag":
            argv += ["--family-file", str(path)]
        else:
            config = tmp_path / "config.json"
            config.write_text(json.dumps({"family_file": str(path)}))
            argv += ["--config", str(config)]
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: --family-file needs --family custom-file\n"

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

    def test_chain_b_on_a_table_its_segments_leave(self, tmp_path, capsys):
        # the B-d2 boxes up to n = 8 reach past a 6x6 table, w(i, j) =
        # 2^-(i+j+2); a segment counts only its points in the table, as a
        # box does, so the run reports instead of exiting 1
        table = {f"{i},{j}": f"1/{2 ** (i + j + 2)}" for i in range(6) for j in range(6)}
        path = tmp_path / "table.json"
        path.write_text(json.dumps(table))
        out = tmp_path / "rep"
        argv = ["chain-b", "--d", "2", "--variant", "B-d2", "--alpha", "1/2,1/2", "--n-max", "8",
                "--family", "custom-file", "--family-file", str(path), "--out", str(out)]
        assert main(argv) in (0, 2)
        assert "error" not in capsys.readouterr().err
        rows = json.loads((out / "report.json").read_text())["rows"]
        assert [r["passed"] for r in rows if r["check"] == "chain-reverify"] == [True]

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
            est = estimate(g, alpha)
            return dataclasses.replace(est, constant=est.constant / 20)

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
        assert cli._json_text(value) == json.dumps(value, sort_keys=True, indent=2, default=str)

    @given(
        st.dictionaries(st.text(), JSON_VALUES, max_size=4),
        st.lists(st.fixed_dictionaries({k: LEAVES for k in ("check", "passed", "value",
                                                              "bound", "note")}), max_size=3),
        st.dictionaries(st.text("abcxyz_", min_size=1, max_size=6),
                        st.lists(st.tuples(LEAVES, LEAVES), max_size=4), max_size=3),
    )
    @settings(max_examples=60, deadline=None)
    def test_files_match_the_row_by_row_writer(self, extra, rows, tables):
        report = {**extra, "rows": rows, "tables": tables}
        with tempfile.TemporaryDirectory() as tmp:
            out, want = Path(tmp, "out"), Path(tmp, "want")
            assert write_report(report, out) == out / "report.json"
            write_report_rows(report, want)
            names = sorted(f.name for f in want.iterdir())
            assert sorted(f.name for f in out.iterdir()) == names
            for name in names:
                assert (out / name).read_bytes() == (want / name).read_bytes(), name

    @given(st.lists(st.tuples(st.integers(-2 ** 70, 2 ** 70), st.integers(-2 ** 70, 2 ** 70)),
                    max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_intervals_text_is_their_dump(self, intervals):
        assert cli._intervals_text(tuple(intervals)) == json.dumps(tuple(intervals))

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


def _report_of(argv: list[str]) -> dict:
    """The report `main(argv)` writes with --out: the run's, or the search
    failure's."""
    args = _parse(argv)
    cfg = cli._config_from(args, args.command)
    try:
        return run(cfg)
    except concat.ChainSearchError as exc:
        return cli._search_failure_report(cfg, exc)


def _tree(root: Path) -> dict:
    """Each file and directory under root: its bytes (None for a directory)
    and its mode."""
    return {str(f.relative_to(root)): (None if f.is_dir() else f.read_bytes(), f.stat().st_mode)
            for f in sorted(root.rglob("*"))}


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
        assert _tree(reused) == _tree(fresh)

    @pytest.mark.parametrize("mask", [0o022, 0o002, 0o027, 0o077])
    def test_modes_are_those_of_write_text(self, mask, tmp_path):
        report = run(_cfg(kind="lemma1", d=2, n_max=20, samples=30))
        with _umask(mask):
            write_report(report, tmp_path / "a" / "b")
            write_report_rows(report, tmp_path / "c" / "b")
        assert _tree(tmp_path / "a") == _tree(tmp_path / "c")
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
        assert main(["lemma1", "--d", "40"]) == 1

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

    def test_search_failure_writes_a_report(self, tmp_path, capsys):
        out = tmp_path / "rep"
        assert main(["chain-ff", "--d", "3", "--n-max", "2", "--out", str(out)]) == 3
        assert capsys.readouterr().err == "error: no workable stage in range; stages: 3\n"
        report = json.loads((out / "report.json").read_text())
        assert report["passed"] is False and report["constants"] == {"stages": 3}
        assert report["rows"] == [{"check": "search", "passed": False, "bound": None,
                                   "value": "no workable stage in range", "note": "stages: 3"}]
        assert (out / "checks.csv").read_text().splitlines()[1] == (
            "search,False,no workable stage in range,,stages: 3"
        )
        assert main(["report", str(out / "report.json")]) == 2
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

    def test_translation_names_its_dimension_limit(self, capsys):
        assert main(["identity", "--d", "6", "--variant", "translation"]) == 1
        assert capsys.readouterr().err == (
            "error: translation needs d <= 5, since its packing lives on Z^(d+1); got d=6\n"
        )

    def test_power_ratio_past_float_range_exits_two(self, tmp_path, capsys):
        # B-d2 (1/3, 2/3) at n_max 105 has a power ratio above 2^1024: B is
        # inf, the run still writes its report, and budget-ratio-spread fails
        out = tmp_path / "rep"
        argv = ["chain-b", "--d", "2", "--variant", "B-d2", "--alpha", "1/3,2/3",
                "--n-max", "105", "--out", str(out)]
        assert main(argv) == 2
        report = json.loads((out / "report.json").read_text())
        assert report["constants"]["B"] == float("inf")
        assert "Traceback" not in capsys.readouterr().err

    def test_power_ratio_log2_reported_past_float_range(self, tmp_path):
        out = tmp_path / "rep"
        argv = ["chain-b", "--d", "2", "--variant", "B-d2", "--alpha", "1/3,2/3",
                "--n-max", "110", "--out", str(out)]
        assert main(argv) == 2
        constants = json.loads((out / "report.json").read_text())["constants"]
        assert constants["B"] == float("inf")
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

    def test_successive_calls_match_fresh_processes(self, tmp_path):
        # main reuses one parser: a flag or kind of one call must not leak
        # into the next, so in-process reports equal those of fresh processes
        calls = [
            ["chain-ff", "--d", "3", "--family", "symmetric-geometric", "--n-max", "9"],
            ["chain-ff", "--d", "3", "--n-max", "9"],
            ["boxes", "--d", "3", "--variant", "FF", "--n-max", "6"],
            ["chain-b", "--d", "3", "--variant", "B-d3", "--n-max", "6"],
        ]
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
        for k, argv in enumerate(calls):
            main([*argv, "--out", str(tmp_path / f"in-{k}")])
        for k, argv in enumerate(calls):
            subprocess.run(
                [sys.executable, "-m", "critreg.cli", *argv, "--out", str(tmp_path / f"new-{k}")],
                env=env, capture_output=True, check=False,
            )
            names = sorted(f.name for f in (tmp_path / f"new-{k}").iterdir())
            assert names == sorted(f.name for f in (tmp_path / f"in-{k}").iterdir())
            for name in names:
                fresh = (tmp_path / f"new-{k}" / name).read_bytes()
                assert (tmp_path / f"in-{k}" / name).read_bytes() == fresh, (argv, name)

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

    def test_planar_takes_two_exponents(self, capsys):
        argv = ["boxes", "--d", "2", "--variant", "B-d2", "--alpha", "1/3,1/3,1/3"]
        assert main(argv) == 1
        assert "error: B-d2 takes two exponents" in capsys.readouterr().err

    @pytest.mark.parametrize("kind,d,variant,alphas,shown", [
        ("chain-b", 2, "B-general", ["1/3"] * 3,
         "3 exponents give a 3-dimensional B-general sequence, not d = 2"),
        ("chain-b", 3, "B-d2", ["1/2"] * 2, "2 exponents give a 2-dimensional B-d2 sequence, not d = 3"),
        ("boxes", 5, "B-d2", ["1/2"] * 2, "2 exponents give a 2-dimensional B-d2 sequence, not d = 5"),
        ("boxes", 3, "FF", ["1/2"] * 2, "FF takes no exponents, got 2 at d = 3"),
    ])
    @pytest.mark.parametrize("form", ["flag", "config"])
    def test_exponents_must_fit_the_dimension(self, tmp_path, capsys, kind, d, variant, alphas,
                                              shown, form):
        # the sequence would be built on another lattice than the family, or
        # its report would name a d it does not have
        if form == "flag":
            argv = [kind, "--d", str(d), "--variant", variant, "--alpha", ",".join(alphas)]
        else:
            config = tmp_path / "config.json"
            config.write_text(json.dumps({"d": d, "variant": variant, "alphas": alphas}))
            argv = [kind, "--config", str(config)]
        assert main([*argv, "--n-max", "6", "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"error: {shown}\n"
        assert not (tmp_path / "out").exists()

    def test_general_sequence_message_comes_first(self, capsys):
        # two exponents do not fit d = 3 either, but the builder names them
        argv = ["chain-b", "--d", "3", "--variant", "B-general", "--alpha", "1/2,1/2"]
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: B-general needs d >= 3 (use B-d2 for two factors)\n"

    @pytest.mark.parametrize(
        "content",
        [None, "not json {", '{"rows": 3, "passed": true}', '{"rows": [1], "passed": true}',
         '{"rows": [{"check": "x"}], "passed": true}', '{"rows": []}', "[]",
         # a verdict that its rows contradict, no rows, and a row's verdict
         # that is not a bool
         '{"rows": [{"check": "budget-ratio-spread", "passed": false, "value": 2.5,'
         ' "bound": 2.0}], "passed": true}',
         '{"rows": [], "passed": true}',
         '{"rows": [{"check": "x", "passed": "false", "value": 1, "bound": 0}],'
         ' "passed": true}'],
    )
    def test_bad_report_file_exits_one(self, tmp_path, capsys, content):
        p = tmp_path / "report.json"
        if content is not None:
            p.write_text(content)
        assert main(["report", str(p)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize(
        "content",
        [None, "not json {", "[1, 2]", '{"1,2": [1]}', '{"1,2": {"w": 1}}', '{"1,2": true}',
         '{"1,2": null}', '{"a,2": 1}', '{"": 1}', '{"1,2": "abc"}', '{"1,2": "1/0"}',
         '{"1,2": Infinity}', '{"1,2": NaN}'],
    )
    def test_bad_family_file_exits_one(self, tmp_path, capsys, content):
        p = tmp_path / "family.json"
        if content is not None:
            p.write_text(content)
        argv = ["lemma1", "--d", "2", "--family", "custom-file", "--family-file", str(p)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_family_file_accepts_numbers_and_rationals(self, tmp_path):
        p = tmp_path / "family.json"
        p.write_text(json.dumps({"0,0": "1/2", "0,1": 0.25, "1, 0": 1}))
        assert _read_table(str(p)) == {
            (0, 0): Fraction(1, 2), (0, 1): Fraction(1, 4), (1, 0): Fraction(1)
        }

    @pytest.mark.parametrize("content", BAD_CONFIGS)
    def test_bad_config_file_exits_one(self, tmp_path, capsys, content):
        p = tmp_path / "c.json"
        if content is not None:
            p.write_text(content)
        assert main([BAD_CONFIGS[content], "--config", str(p)]) == 1
        assert capsys.readouterr().err.startswith("error: ")


# one flag of another kind per kind: each is a usage error, never a report key
UNREAD_FLAGS = {
    "lemma1": ["--alpha", "1/2,1/2"],
    "boxes": ["--family", "geometric"],
    "chain-b": ["--seed", "3"],
    "chain-ff": ["--alpha", "1/3,1/3,1/3"],
    "identity": ["--n-max", "5"],
    "dynamics": ["--d", "5"],
}

# usage errors: an unread flag, an unread config key, config values of the
# wrong type, exponents with a zero denominator (as flags and as config
# values) or past float range, negative values in exponent notation, a family
# file without --family custom-file (as a flag and as a config key), a
# translation model past Z^6, an --out under a regular file, a B-d2 sequence
# of one box at alpha 1/1000 (whose roots start past float range), a lemma1
# table that a walk can leave, a lemma1 batch or a dynamics orbit of 10^17
# floats (refused before anything is allocated), exponents whose count does
# not fit --d, and exponents on an FF sequence
USAGE_ERRORS = [
    "dynamics --d 3",
    "dynamics --config unread-key.json",
    "lemma1 --config string-n-max.json",
    "lemma1 --config float-d.json",
    "dynamics --config string-c-param.json",
    "chain-b --d 2 --alpha 1/0,1/2",
    "boxes --d 2 --variant B-d2 --alpha 1/0,1/2",
    "dynamics --alpha-holder 1/0",
    "dynamics --alpha-holder 1e400",
    "dynamics --alpha-holder -1e-3",
    "dynamics --c-param -1e-3",
    "chain-b --d 2 --alpha -1e-1,1/2",
    "chain-b --config zero-alpha.json",
    "boxes --config zero-alpha.json",
    "dynamics --config zero-alpha-holder.json",
    "lemma1 --d 2 --family-file square-table.json",
    "lemma1 --config family-file-key.json",
    "identity --d 6 --variant translation",
    "dynamics --k-max 20 --out regular-file/sub",
    "boxes --d 2 --variant B-d2 --alpha 1/1000,999/1000 --n-max 1",
    "lemma1 --d 2 --family custom-file --family-file square-table.json --n-max 7 --samples 3"
    " --seed 1",
    "lemma1 --d 2 --n-max 5 --samples 100000000000000000",
    "dynamics --k-max 100000000000000000",
    "chain-b --d 2 --variant B-general --alpha 1/3,1/3,1/3 --n-max 6",
    "chain-b --d 3 --variant B-d2 --alpha 1/2,1/2",
    "boxes --d 5 --variant B-d2 --alpha 1/2,1/2",
    "boxes --d 3 --variant FF --alpha 1/2,1/2",
]

# usage errors that need no file, among them an empty --out and --config
INLINE_USAGE_ERRORS = [["lemma1", "--bogus", "1"], [], ["lemma1", "--n-max", "x"], ["nonsense"],
                       ["dynamics", "--k-max", "20", "--out", ""], ["dynamics", "--config", ""]]

SMALL = {
    "lemma1": ["--d", "2", "--n-max", "20", "--samples", "30", "--seed", "4"],
    "boxes": ["--d", "2", "--variant", "B-d2", "--alpha", "1/2,1/2", "--n-max", "8"],
    "chain-b": ["--d", "3", "--variant", "B-d3", "--n-max", "6"],
    "chain-ff": ["--d", "3", "--family", "symmetric-geometric", "--n-max", "9"],
    "identity": ["--d", "2", "--variant", "ff", "--samples", "5", "--seed", "2"],
    "dynamics": ["--c-param", "1.5", "--alpha-holder", "1/3", "--k-max", "40"],
}


class TestFlags:
    @pytest.mark.parametrize("kind", KINDS)
    def test_unread_flag_exits_one(self, kind, tmp_path, capsys):
        out = tmp_path / "rep"
        argv = [kind, *SMALL[kind], *UNREAD_FLAGS[kind], "--out", str(out)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert f"error: unrecognized arguments: {' '.join(UNREAD_FLAGS[kind])}" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv", [*INLINE_USAGE_ERRORS,
                 *(pytest.param(line.split(), id=line) for line in USAGE_ERRORS)]
    )
    def test_usage_errors_exit_one(self, argv, capsys, workdir):
        # one error: line ends the output, never a traceback, and no value
        # is read as a flag
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.splitlines()[-1].startswith("error: ")
        assert "expected one argument" not in err

    @pytest.mark.parametrize("flag", ["--out", "--config"])
    def test_empty_path_exits_one_before_the_run(self, flag, capsys, tmp_path, monkeypatch):
        # an empty path names no file: the kind does not run, nothing is
        # written, and one error: line says which flag
        monkeypatch.chdir(tmp_path)
        assert main(["dynamics", "--k-max", "20", flag, ""]) == 1
        out, err = capsys.readouterr()
        assert not out and len(err.splitlines()) == 1
        assert err.startswith(f"error: {flag} needs a ")
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "argv",
        [["boxes", "--d", "2", "--variant", "B-d2", "--alpha", "1/0,1/2"],
         ["chain-b", "--d", "2", "--alpha", "1/2,1/0"],
         ["dynamics", "--alpha-holder", "1/0"],
         ["dynamics", "--alpha-holder", "half"]],
    )
    def test_exponent_that_is_no_rational_exits_one(self, argv, capsys):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "is not a rational" in err

    @pytest.mark.parametrize("alpha", ["2", "-1", "0", "1e400"])
    def test_exponent_outside_the_unit_interval_exits_one(self, alpha, capsys):
        # 1e400 is past float range; it gets the error of 2, not a traceback
        assert main(["dynamics", "--alpha-holder", alpha]) == 1
        assert capsys.readouterr().err == "error: exponent must lie in (0, 1]\n"

    @pytest.mark.parametrize(
        "argv, message",
        [(["dynamics", "--alpha-holder", "-1e-3"], "exponent must lie in (0, 1]"),
         (["dynamics", "--c-param", "-1e-3"], "parameter must lie in (0, 4)"),
         (["chain-b", "--d", "2", "--alpha", "-1e-1,1/2"], "exponents must lie in (0, 1]")],
    )
    def test_negative_value_in_exponent_notation_is_a_value(self, argv, message, capsys):
        # argparse alone reads -1e-3 as an option and stops with "expected
        # one argument"; the value's own check must answer, as for --flag=-1e-3
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "argv",
        [["lemma1", "--d", "2", "--n-max", "5", "--samples", "10" + "0" * 16],
         ["dynamics", "--k-max", "10" + "0" * 16]],
        ids=["lemma1-samples", "dynamics-k-max"],
    )
    def test_size_that_cannot_be_allocated_exits_one(self, argv, capsys):
        # the first array of each run holds 10^17 floats (8e17 bytes), past
        # the 2^57-byte user address space of any x86-64 or arm64 kernel, so
        # numpy is refused under any overcommit policy and nothing is
        # allocated; its MemoryError ends as error: <message>
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error: Unable to allocate")

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


# every ledger argv, with and without --out, every usage-error line, and
# argvs at the edges of the kind parsers: unknown words and flags, help,
# "--", a flag without its value, and argvs the top parser takes
PARSE_LINES = [
    *(line.split() for line in json.loads(LEDGER.read_text())),
    *([*line.split(), "--out", "rep"] for line in json.loads(LEDGER.read_text())),
    *(line.split() for line in USAGE_ERRORS),
    *([kind, *SMALL[kind], *UNREAD_FLAGS[kind]] for kind in KINDS),
    *INLINE_USAGE_ERRORS,
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
# interpreter and prints the exit codes and whether numpy was loaded after
# them, and after a small lemma1 run.  With sys.argv[2] == "block", numpy
# cannot be imported at all.
FRESH_RUN = """
import contextlib, io, json, sys
calls, block = json.loads(sys.argv[1]), sys.argv[2] == "block"
if block:
    sys.modules["numpy"] = None
import critreg, critreg.cli
with contextlib.redirect_stdout(io.StringIO()):
    codes = [critreg.cli.main(argv) for argv in calls]
    before = sys.modules.get("numpy") is not None
    if not block:
        critreg.cli.main(["lemma1", "--d", "2", "--n-max", "5", "--samples", "3"])
print(json.dumps([codes, before, sys.modules.get("numpy") is not None]))
"""

EXACT_KINDS = ("boxes", "chain-b", "chain-ff", "identity")


class TestStartup:
    """The exact kinds and `report` run without numpy; lemma1 loads it."""

    def _fresh(self, tmp_path, mode):
        out = tmp_path / mode
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
        _, (codes, before, after) = self._fresh(tmp_path, "plain")
        assert all(code in (0, 2) for code in codes), codes
        assert not before and after

    def test_exact_kinds_run_where_numpy_cannot_load(self, tmp_path):
        out, (codes, _, _) = self._fresh(tmp_path, "block")
        assert all(code in (0, 2) for code in codes), codes
        for kind in EXACT_KINDS:
            here = tmp_path / "here" / kind
            with contextlib.redirect_stdout(io.StringIO()):
                main([kind, *SMALL[kind], "--out", str(here)])
            names = sorted(f.name for f in here.iterdir())
            assert names == sorted(f.name for f in (out / kind).iterdir())
            for name in names:
                assert (out / kind / name).read_bytes() == (here / name).read_bytes(), name


# exit code and the sha256 of every file --out writes (report.json,
# checks.csv and one .dat per table) for each CLI line.  A changed float in
# a mass, a power sum, a walk cost, an orbit or a Holder estimate shows as a
# changed digest.  The boxes line at the n_max cap was pinned from the corner
# sweep that the run form replaced; checks.csv and the tables were pinned
# from the writer that wrote them row by row.
REPORTS = {
    # the eight README lines
    "lemma1 --d 3 --n-max 1000 --samples 10000 --seed 42":
        (0, {"report.json": "b522dc439d1eb652779fd53c9b1487f48b1e3dd9f5e78e7d2eacf93ddfd9994e",
             "checks.csv": "3aab62ee5aa2633cc0d5d59cc0ad43586288dc0d976bf3b99e1c1199f33f3c3b",
             "costs.dat": "e1f6c8ddd4c7fa81980034b7deda42d2a0d6c81e134285e7816f810b40ed0afe"}),
    "boxes --d 3 --variant FF --n-max 16":
        (0, {"report.json": "8b2eb5e4f89f1ac351ae0d6dc7a1e5bc8d747d314ff671873a02700c02f262bc",
             "checks.csv": "c660a1f1e34b236f97bd936bf0cc76875db021bd8cec265acdc5b223842ea829",
             "boxes.dat": "d964c6cf5207b53819da8ec35caff330deeddceeaa6559d60992c6200ce15fa0"}),
    "boxes --d 2 --variant B-d2 --alpha 1/2,1/2 --n-max 20":
        (0, {"report.json": "a615742000e5701ebf248682e16d0c1f55bd7563d968e1ad7d503e6990517350",
             "checks.csv": "d7a9acf9081952e2fe774415a014a99f51a9b26aed2220838229642424bd4d18",
             "boxes.dat": "d3c5df0fe00d0ffa0174b4ae1912272b768d1cc7b2bd074c7a960ea0989b7ed2"}),
    "chain-b --d 2 --variant B-d2 --alpha 1/2,1/2 --n-max 15":
        (0, {"report.json": "de5c4f666597d68315e96af5d0135da1f7fd4cc709777356af879c2fd5027031",
             "checks.csv": "194ba132912cc8a47be9a93a536a24b788f22693b845f817811c5624965b06f1",
             "budget.dat": "97e728895774955da1ab60c220bf861d5444c23cfa5cefe0ea6c1dba3c9ebefe",
             "entry_times.dat": "314f8e9b9cfa89a33ade18ce3c5ac7da77478e5f7f9c5424f49711a72895c546"}),
    "chain-b --d 3 --variant B-d3 --n-max 12":
        (0, {"report.json": "c781b45bfcfef280f39236285b3d41dcdfc45107e5d8ed940608eb225287abf0",
             "checks.csv": "eebe6a7e6917bf3054177f371417d2d390745c03941712f7c2880470fbe79d73",
             "budget.dat": "9d7201660b0688f3bfa9ad9e86b09ce56e496e24fe7e8ea4729a471d6b9b42b9",
             "entry_times.dat": "11d091c92a9ff7e184ab33b54be10bb556297982a1b3cf8e7e07c3c4b1e06da8"}),
    "chain-ff --d 3 --family symmetric-geometric --n-max 13":
        (0, {"report.json": "550eeed448e9378b28e4f64ccba0a2236ca817a1ae41ae61b26a7b362bca3547",
             "checks.csv": "e702e07147eb59d2eee387a787c97813b34405680a70dd4997d6816291fe5d21",
             "budget.dat": "c66ee1733a6706daa5d2c31699c4765e4935729f7986df58658799649608775f",
             "entry_times.dat": "02dadf45386c0cd1589c5491caf166c02d684ecfbe1d19b12474d98c77268c40"}),
    "identity --d 3 --variant ff --samples 1000 --seed 7":
        (0, {"report.json": "6a554d761fa8b163639b39cae9e7073f0d0f3fd7da4443bf808f31f405126ecb",
             "checks.csv": "5fbffaa65f3c56ff23946fa510357a7d2d8f9b835182c435f086981d1ff2abd1"}),
    "dynamics --c-param 1.0 --alpha-holder 1/2 --k-max 10000":
        (0, {"report.json": "3b3a3176258cb9c83ff48912e990266d1335aa635301973e8b6fb14bf15cf9b4",
             "checks.csv": "fcf14a99f07f583fcaff12d1e3f096dca3f850f26b447e86e233e3ccf5a4f5e8",
             "wandering.dat": "62965a20c50da9fd5fc1c6f46d99f9e7b32af0206bd064a477d1e743ec8352c9"}),
    # chains, and the boxes cap line: every builder, the symmetric family
    # and a table whose segments leave it, ties near 2^40 (n_max 100 and
    # 35), the n_max cap of 200, FF-general's lambda past float range, and
    # the search failures of FF-d3 short of a start stage (n_max <= 4) or of
    # stages past it (5)
    "chain-b --d 3 --variant B-general --n-max 40":
        (2, {"report.json": "40a655a4d7436dcae8efb2bf4bd07d9cdb6ff93e3877bb392fe6ddf29bce416b",
             "checks.csv": "901bbebde8e7e98010181ccadbf03fe4d0d30292290a4ccd7a0b7fcb9b0fc224",
             "budget.dat": "a6764a34fd4ce6d0ab32e069b91a58f94752b032f1dbab15aeb0cc2f9677a955",
             "entry_times.dat": "4f85f1b3c18748cba712c10649c3c6f8761c98dfc5f3d3e452450b9541069289"}),
    "chain-b --d 4 --variant B-general --n-max 18":
        (0, {"report.json": "346dd0e84dc18fa0cfa52c288366f75e475787ae3819b5bb8243807640986b46",
             "checks.csv": "22d829d4c7b192e79aed3899cbba20a219a3dec21d5b852626cac17e832dc849",
             "budget.dat": "4f62d762f6d990daf04adfe7b9207280f8b4b11775785705565b0324ebc778e3",
             "entry_times.dat": "cca932512e683e7d7ab932cbf7afe5b124fae9681b9ed8e7b9d62aec5d0d7184"}),
    "chain-ff --d 4 --n-max 10":
        (2, {"report.json": "f945cfa32ca708c4adcee27034897a799809de4ae5a3ee66699fa0346ed391ec",
             "checks.csv": "a1ff2ae1f198e356ed34a545715d0e9de0528f82992bfa04c4c4df26f09d4ffc",
             "budget.dat": "5b846fc65be9fb135b4fe56c4596c84d26fa24fef8be21a5c2551c151da582d1",
             "entry_times.dat": "655ddfce602997bcbf62f632598847fecceefdc4253ffc659b7ada9eb0eb0fc2"}),
    "chain-ff --d 5 --n-max 12":
        (2, {"report.json": "2cd906523c0a779c700885feb65a8e736923ef60a23979851b78d1a0dd3cf31e",
             "checks.csv": "e20cf09de55db229c38ec2fce81cf8313a09693cc17c205db280bd3c08e79548",
             "budget.dat": "a8aa1d564f922ddac9e98f00b00c02f276520343654edde8e03a9ca1ab4cc805",
             "entry_times.dat": "920d4277e02576639630df4659030629b8268795c452c491f722699a6a4fe29e"}),
    "chain-b --d 2 --alpha 1/2,1/2 --family symmetric-geometric --n-max 12":
        (0, {"report.json": "5c8d181b6a72e30ef11fc77a7fa4be0f490354813530ae141049b5dd7b8b2a95",
             "checks.csv": "e9235e0967c7567072f565cc1f608578614978a6ededc4404c74e33e7eabb3b6",
             "budget.dat": "7ecaecbb77575747569b2bff6a7b776ee9910ef1f08287f3ab04b96b0b6f1007",
             "entry_times.dat": "25501b5a92d431e516315683a142cd7173067d115c1a21a1d76598cc63b78a55"}),
    "chain-b --d 2 --variant B-d2 --alpha 1/2,1/2 --n-max 8"
    " --family custom-file --family-file square-table.json":
        (0, {"report.json": "9bb4545d11ea7d751892adb4980b77e0cd19393eb84f13c60e6dd9410fbc699a",
             "checks.csv": "f91d993b0cca86598065e6273bec30230e3c343b98f0cf53c4ff1202234c6abd",
             "budget.dat": "30eae364dcde71db40e7adbf7d6f900c0624e91f0a034608b32cd3d8ba4a8788",
             "entry_times.dat": "bc00b9b460ccd02de59c5932bbfd4234fd29e471a4e5e1344069f0f89fc5f9ab"}),
    "chain-b --d 2 --variant B-d2 --alpha 1/2,1/2 --n-max 100":
        (2, {"report.json": "716e593f894fb5cc07712b87cbddb162c520a55e27f971f30de4683404352cc3",
             "checks.csv": "06d228b79d6fe828eaa505fced5b3c86a3b7c7d482464ef4d8670f32d95eb8ec",
             "budget.dat": "01ac3197f8b22fb68169216689dcb92554f839427a2ff2401d9e05cf831a52c9",
             "entry_times.dat": "ba5e22362411ed828b408a0f47d8b1087d2f76abb9fe36ef0cd081c885404349"}),
    "chain-ff --d 3 --n-max 35":
        (2, {"report.json": "d6e4efaf16d99daaa97b9697d8aadc0645348eeb0bbf495fe09a5272d474209c",
             "checks.csv": "61de431885de5886112bb4290e2963075c330a7379807ed485b03aacf1c5c31a",
             "budget.dat": "3c7b760104b0eeb08ac0b6d323e285aa48961299f3832014c68452b133f4d0f3",
             "entry_times.dat": "3f70f0151cd12099e0c97665e077c94d4d8c318b295b355c7da40d1cde3525ae"}),
    "chain-ff --d 3 --n-max 200":
        (2, {"report.json": "829f7c5332cc0938b8f1ec0a887599b74598a741825a68ea92ff8f8385d4fce7",
             "checks.csv": "1849b3b543aa86ee69140ed4d1e0c6d1a4ba46a6aee99be03d743b67d9b96b12",
             "budget.dat": "5ebb33e8287b04e8912b98843064468c3a0d04716f68b494faeda032f5b15df9",
             "entry_times.dat": "1ad40e0c5f7e154d54599aff1b1c37ec0c0d4dabceae25f38281a22217b0a731"}),
    "chain-b --d 2 --variant B-d2 --alpha 1/2,1/2 --n-max 200":
        (2, {"report.json": "b8166e1cc42a4b2d0acacf0fb4e746920b6e18fd75683598def5b940da316436",
             "checks.csv": "59e94573d4a9251b45d27d46f706857d233e2b518f96b4431cfb9578bbd0aa7f",
             "budget.dat": "70d874175cf646e63c3ee1f12f5a0f04032eea7faf7d6648b000bbfab5e183c0",
             "entry_times.dat": "7c413dfe4d2cc515b97ef6089712b416de14636d123108c5e7bf7176c2c4b522"}),
    "chain-b --d 3 --variant B-general --n-max 200":
        (2, {"report.json": "536120fdaf8c21ee5b9275d5c1cf316b644cc00eeccfd93d1eb6da03572f663f",
             "checks.csv": "1b8de94dd16f9c98ae870ab4865987538bbd10ffcc4e127885123aeb692f9979",
             "budget.dat": "c29e7b44b36a765de9c5a1598b89773a9413a24dcfbd218df19210cb0b2e9809",
             "entry_times.dat": "c9ac5d648d56f3144a47a14d0e619d61322ea1f6e83d265405c24216a0effc8d"}),
    "chain-ff --d 6 --n-max 180":
        (2, {"report.json": "e259bec7ab6f9fdca1595925f76a2c90548f9852e138be06d848654a2b8985ff",
             "checks.csv": "d19d1679a827788e2c159f6cb05f352ca266a696f802aa4e6177ffe950a15e0d",
             "budget.dat": "ad5d5ffa269215d6a9e8f7080ecf52f8f34b9cec7cc4c4470660eb412401d975",
             "entry_times.dat": "16a79de4fb969d214d3948e42dd23afc10f9b55ee424448f0c3864f5cf12f6c0"}),
    "boxes --d 6 --variant FF --n-max 200":
        (0, {"report.json": "cab6fe3b632143b2d5d9fe049fd276c4225629ae94b67d02c5d2f93a7a475f0d",
             "checks.csv": "b29392809d1915f938d61be4bc3a076c6dd47e58ff54f22686367db7d67dec06",
             "boxes.dat": "ba73d8bb2a5eac2799b6a76c6d7a0cdf8684dd393187b1d853079e9462ef6ee0"}),
    "chain-ff --d 3 --n-max 2":
        (3, {"report.json": "dfa897a380ee888499edb5ad6a412eff886fdb660fa01b5b1e6720cb9fca0a06",
             "checks.csv": "e02bfdfeb08840f0b62ca81d0f6aa4f0f55d86028d7b46927093e53299311e47"}),
    "chain-ff --d 3 --n-max 3":
        (3, {"report.json": "66696384486ead650faaa9006b0eed7cbc721018c87fca3020b17ff8a3aec00e",
             "checks.csv": "7a5523bc190ff64138c0b0e3dfb9ddb68812bb9f03283dff0fe5d2d5b6350e15"}),
    "chain-ff --d 3 --n-max 4":
        (3, {"report.json": "fa207ac7ae6e39a94cd83412043157dc9b8892ceed6d8e9a931687532af7358a",
             "checks.csv": "cadeb32b8d49b0e40185913ae08085a637c3f5bfcdcf62eb871100fcbfa5045f"}),
    "chain-ff --d 3 --n-max 5":
        (3, {"report.json": "87a55335acf74e0165f809d4e30d5980417a6bf0f829107a045806e32317a039",
             "checks.csv": "1cf3efaaf8113edb3a51183e71b5ac3f1e470e71fbe2fdb45028e2d917097e35"}),
    # lemma1: the README line at another seed, which a built-in family
    # decides without a draw, so only the seed in the config block differs;
    # one line per built-in family, one d=2 and one d=4 line of the
    # 1000-sample walk-mc bench tail, and a table, which steps every walk
    "lemma1 --d 3 --n-max 1000 --samples 10000 --seed 43":
        (0, {"report.json": "2c06e642e698edb41d26a4890048f2f587556c44032d73d9cd9fc3a436d73c8b",
             "checks.csv": "3aab62ee5aa2633cc0d5d59cc0ad43586288dc0d976bf3b99e1c1199f33f3c3b",
             "costs.dat": "e1f6c8ddd4c7fa81980034b7deda42d2a0d6c81e134285e7816f810b40ed0afe"}),
    "lemma1 --d 3 --n-max 200 --samples 500 --seed 42":
        (0, {"report.json": "eecca368f6e65334d2aa3cbcb618e3740cf92d7a9147b1485ea1067a86aab7d6",
             "checks.csv": "81120add720d71e5db55777994c0ad662be4eed2486d06898e220bb45819d8b2",
             "costs.dat": "f28bced195ac7f49964c1af60c30aa2fd1cce947cb5984aec79733dc420f40e3"}),
    "lemma1 --d 3 --family symmetric-geometric --n-max 200 --samples 500 --seed 42":
        (0, {"report.json": "b8b2112811ed3b7829a891d288882fb9e618522c0441cd6575194f19b3be274f",
             "checks.csv": "b88a15b6cbe60960e1181d235cc8e86afa1b81f21caf168d08bd88fb6e95279b",
             "costs.dat": "fcc41ec504a8adfa919e26fee3c606d168c81d3993ba35766afdae1ba38500e2"}),
    "lemma1 --d 2 --n-max 700 --samples 1000 --seed 5":
        (0, {"report.json": "1dce5ffa74eb5e9384534d69db362342e2ecd8e400760d71a90745ef3af22784",
             "checks.csv": "808faad7fda0b72884ebf89e6484d3125f40a7138d9c40cabfcbb0cf756b7023",
             "costs.dat": "f0517e9c195d5288c8c098e701ec103db85944bf0486f2753354dcd23de93de0"}),
    "lemma1 --d 4 --n-max 480 --samples 1000 --seed 9":
        (0, {"report.json": "3020048ea0ffedba8a6ad864833af2331e505afb1065c01cb08d4bc6b14c53e1",
             "checks.csv": "8c7aa1274c6d1d999c0b256d41784a50acf3d165556978eac5c5ad342eeec571",
             "costs.dat": "a096d76a29e80a091003ac2d97b4f5d02e1b5a330b18ee9d4cd9de5052a5c568"}),
    "lemma1 --d 2 --family custom-file --family-file simplex-table.json"
    " --n-max 5 --samples 50 --seed 3":
        (0, {"report.json": "9c07a18a64ea99cd0e713206f3b664308ea36e7fd530bea76a3c559a870dd872",
             "checks.csv": "4866549f449a9e1a02ad56f8c7602e088fdd277df955780993f4a350203c3d76",
             "costs.dat": "8410d2261ac6431631cf15ca87af4673484ac482d29f8c2bdaf6afdc5052f937"}),
    # dynamics: k_max one below, at and one above smooth.ORBIT_BLOCK_STEPS
    # (128) and twice it, both ends of the c range and the Holder exponents
    # 1/10, 9/10 and 1
    "dynamics --c-param 1.0 --alpha-holder 1/2 --k-max 127":
        (0, {"report.json": "8896587ea3337a5a09c82101d7e959eb4737413cfdc7e20986fec79848525b88",
             "checks.csv": "9abfce8e66509334fbda764b32d67dd471dd6c5e4437bcee01d1191809e982ba",
             "wandering.dat": "4e1fd83b36c47cfffb58df12df43baa6d0906537801557a37920d1c2f7c8675c"}),
    "dynamics --c-param 1.0 --alpha-holder 1/2 --k-max 128":
        (0, {"report.json": "1c7f43fab3d6abdd2a3676acd01ca7f97b9a1a4c0b60191094442b59fecfb767",
             "checks.csv": "239f6480c57c26ae28dec74778ba609b52a95b9744e1c4d439706b948e01a974",
             "wandering.dat": "f7acbf1afa706ec3bf13d0e82f9ba6367afa385ef5cf80fb7fc69cd5e2524290"}),
    "dynamics --c-param 1.0 --alpha-holder 1/2 --k-max 129":
        (0, {"report.json": "41534b4ab90cd29db7b49ef1171f3e1b600980b951ae5f80944533f999707325",
             "checks.csv": "7e7ec10102dad38cdec8c57352f8baf74bd0c5eb4ace5fdda99c7ab97bcdf99f",
             "wandering.dat": "f946513ad575a4aa1cf1b67684af32c9691d3c4ab6c419fc5041cadc85133c66"}),
    "dynamics --c-param 1.0 --alpha-holder 1/2 --k-max 256":
        (0, {"report.json": "fdf8089d68515225c2ff194fbbae058673757e77d0d31cffd3c0d688f7a1995a",
             "checks.csv": "6f72e4c9852e3ab618506d7e0c4d92cbb569afb7b2d3735725685972216144f0",
             "wandering.dat": "62965a20c50da9fd5fc1c6f46d99f9e7b32af0206bd064a477d1e743ec8352c9"}),
    "dynamics --c-param 0.05 --alpha-holder 1/2 --k-max 750":
        (0, {"report.json": "3ec29e606983b105a93d43c1b2e29f0f28618f811b3bf660b082ef5da1932915",
             "checks.csv": "621940355639771f862d6aa9e4602a0d6c71a717f944a8c4dcc443c0db1bdaa4",
             "wandering.dat": "c8311a51b152a9c9e759d1bbfbadfc19934f54613c01cf91d1385b5f385c7c55"}),
    "dynamics --c-param 3.9 --alpha-holder 1/2 --k-max 750":
        (0, {"report.json": "66ce521de3fd18a4f3e89277137cf4b592abab614f593894d3d24953b2632c76",
             "checks.csv": "03dad50b5851fd603f4590a42b290fec78e6366c11ba13046b3577075430c4ba",
             "wandering.dat": "f378b96db06a5809055e56bdc37c0e5703c6351a18bc2f4789702fcc233cbd77"}),
    "dynamics --c-param 1.0 --alpha-holder 1/10 --k-max 750":
        (0, {"report.json": "5d07d19310b7a45bd80414dbc8bd192a6e90132c7036de42a2021295fb38dc3b",
             "checks.csv": "19b4a1c1388b9ba02040c322b0ecd89b39d7c95cfe7603e665fb3fba255975a3",
             "wandering.dat": "62965a20c50da9fd5fc1c6f46d99f9e7b32af0206bd064a477d1e743ec8352c9"}),
    "dynamics --c-param 1.0 --alpha-holder 9/10 --k-max 750":
        (0, {"report.json": "a2658ba861ee8c2b391a9db78e8656203eaf94cdc7c05b28ea6fbb238d1809fb",
             "checks.csv": "2605cbe68395e45b4dd18db8415cf458e5bf03213ca37e958b554841a2372562",
             "wandering.dat": "62965a20c50da9fd5fc1c6f46d99f9e7b32af0206bd064a477d1e743ec8352c9"}),
    "dynamics --c-param 1.0 --alpha-holder 1 --k-max 750":
        (0, {"report.json": "3dafc0275aa54a8f5606e5c38d28b7f980551c44556e7bfa45c6211d92a81352",
             "checks.csv": "f7f1121dc36793cba45340f1ac5dd47fdd1a1c2ed57adc5ab20d35c7f8da5015",
             "wandering.dat": "62965a20c50da9fd5fc1c6f46d99f9e7b32af0206bd064a477d1e743ec8352c9"}),
    # identity at every allowed (model, d) and three seeds, as written
    # before the kind moved from Fraction lengths to integer exponents
    "identity --d 1 --variant translation --samples 40 --seed 1":
        (0, {"report.json": "94672de1abcbdc8114bc8ab2bae55d7d5ce85903dd9db62c95a452f7efa61b46",
             "checks.csv": "0887df2e98bb13ecf02f3e1778f33a48e44c1909512c778e869047ae7f11b64b"}),
    "identity --d 1 --variant translation --samples 40 --seed 2":
        (0, {"report.json": "5b1ee837bd541c078638690b2ee1d4f1479b8a707fbe3c022792a8a41e791aa5",
             "checks.csv": "0887df2e98bb13ecf02f3e1778f33a48e44c1909512c778e869047ae7f11b64b"}),
    "identity --d 1 --variant translation --samples 40 --seed 3":
        (0, {"report.json": "e07c4ebe52a224f8d17f1cd1c95db52ee2a6e1ca31ae3536e719c3b4972a2c5d",
             "checks.csv": "0887df2e98bb13ecf02f3e1778f33a48e44c1909512c778e869047ae7f11b64b"}),
    "identity --d 2 --variant translation --samples 40 --seed 1":
        (0, {"report.json": "3d4c7ff08fdaafa75fc63420c7389e07687ee829185b179276ea9abcbeed522c",
             "checks.csv": "0887df2e98bb13ecf02f3e1778f33a48e44c1909512c778e869047ae7f11b64b"}),
    "identity --d 2 --variant translation --samples 40 --seed 2":
        (0, {"report.json": "942e05d8a0440950d8da18518e27733fd6dba78b2499536b74ec6cd1b899ca65",
             "checks.csv": "0887df2e98bb13ecf02f3e1778f33a48e44c1909512c778e869047ae7f11b64b"}),
    "identity --d 2 --variant translation --samples 40 --seed 3":
        (0, {"report.json": "15b680d2e9c5d1daa3c956647124f5f90d1604f740edad12487a9930a59a0f44",
             "checks.csv": "0887df2e98bb13ecf02f3e1778f33a48e44c1909512c778e869047ae7f11b64b"}),
    "identity --d 3 --variant translation --samples 40 --seed 1":
        (0, {"report.json": "5d8f37209637e94fb27aacacf3a754a4bd5fa1aaa0ac69af5476f39dfbbbbf02",
             "checks.csv": "0887df2e98bb13ecf02f3e1778f33a48e44c1909512c778e869047ae7f11b64b"}),
    "identity --d 3 --variant translation --samples 40 --seed 2":
        (0, {"report.json": "03321d11dabf0296aae004f57749e5ef5e423e88b4138e1d4832a1cf816711cf",
             "checks.csv": "0887df2e98bb13ecf02f3e1778f33a48e44c1909512c778e869047ae7f11b64b"}),
    "identity --d 3 --variant translation --samples 40 --seed 3":
        (0, {"report.json": "0d1fa02f13597c663d680efc827847ce987c3b4d794ee81a8743564ecb67aa77",
             "checks.csv": "0887df2e98bb13ecf02f3e1778f33a48e44c1909512c778e869047ae7f11b64b"}),
    "identity --d 4 --variant translation --samples 40 --seed 1":
        (0, {"report.json": "42411676c2d10b744d73af0eaebd1af9e891b8a83985a3aba54c0de75617e1f4",
             "checks.csv": "0887df2e98bb13ecf02f3e1778f33a48e44c1909512c778e869047ae7f11b64b"}),
    "identity --d 4 --variant translation --samples 40 --seed 2":
        (0, {"report.json": "f9e1b572e4d8782459770625816c48fce47f462590f6afb2d8da6701ad824533",
             "checks.csv": "0887df2e98bb13ecf02f3e1778f33a48e44c1909512c778e869047ae7f11b64b"}),
    "identity --d 4 --variant translation --samples 40 --seed 3":
        (0, {"report.json": "a563e492f87be913343f1837be29661717c91fe99362fbba38173772683abbc3",
             "checks.csv": "0887df2e98bb13ecf02f3e1778f33a48e44c1909512c778e869047ae7f11b64b"}),
    "identity --d 5 --variant translation --samples 40 --seed 1":
        (0, {"report.json": "b2be432e90694598be1b0036b3106564c81f902aee10d261bf9ed9d2231fa4d6",
             "checks.csv": "0887df2e98bb13ecf02f3e1778f33a48e44c1909512c778e869047ae7f11b64b"}),
    "identity --d 5 --variant translation --samples 40 --seed 2":
        (0, {"report.json": "d8a8312958aa9539274134f566c37fabde0b3bc611d8f496a389fe27170c10a1",
             "checks.csv": "0887df2e98bb13ecf02f3e1778f33a48e44c1909512c778e869047ae7f11b64b"}),
    "identity --d 5 --variant translation --samples 40 --seed 3":
        (0, {"report.json": "8671ba6ff123af4fad7fbf5b8b0def320269b59fedc6aeb4b059017a3c04acca",
             "checks.csv": "0887df2e98bb13ecf02f3e1778f33a48e44c1909512c778e869047ae7f11b64b"}),
    "identity --d 1 --variant ff --samples 40 --seed 1":
        (0, {"report.json": "4f44bd5415e5106179dbf8e6442e6628077b145bc63beea7728e431e74629123",
             "checks.csv": "0887df2e98bb13ecf02f3e1778f33a48e44c1909512c778e869047ae7f11b64b"}),
    "identity --d 1 --variant ff --samples 40 --seed 2":
        (0, {"report.json": "f21fe95e01f49837c7a3ee0bed147cae4de6cc384c9be9d4c0747db716eb259c",
             "checks.csv": "0887df2e98bb13ecf02f3e1778f33a48e44c1909512c778e869047ae7f11b64b"}),
    "identity --d 1 --variant ff --samples 40 --seed 3":
        (0, {"report.json": "0d6f026456e14a833606507e9204b3fe062f5b216ec0beaa944ea95af7a3ae10",
             "checks.csv": "0887df2e98bb13ecf02f3e1778f33a48e44c1909512c778e869047ae7f11b64b"}),
    "identity --d 2 --variant ff --samples 40 --seed 1":
        (0, {"report.json": "65ff8923bbb74d5a6c86b2998476513919056195b18d3aee0452163fea1182f3",
             "checks.csv": "0887df2e98bb13ecf02f3e1778f33a48e44c1909512c778e869047ae7f11b64b"}),
    "identity --d 2 --variant ff --samples 40 --seed 2":
        (0, {"report.json": "ae12c8d21daae796133f3d7faca85bad0442b07f580ab7b5c01be01e46d0c3fd",
             "checks.csv": "0887df2e98bb13ecf02f3e1778f33a48e44c1909512c778e869047ae7f11b64b"}),
    "identity --d 2 --variant ff --samples 40 --seed 3":
        (0, {"report.json": "b92645e58a55a3e8daa2e3d97201c09865766bedd424f7f954cd59fae7e17330",
             "checks.csv": "0887df2e98bb13ecf02f3e1778f33a48e44c1909512c778e869047ae7f11b64b"}),
    "identity --d 3 --variant ff --samples 40 --seed 1":
        (0, {"report.json": "b1557a074c205271a529e4838242fe545536e37d93c1f2c6559f4fd40f4e61dc",
             "checks.csv": "0887df2e98bb13ecf02f3e1778f33a48e44c1909512c778e869047ae7f11b64b"}),
    "identity --d 3 --variant ff --samples 40 --seed 2":
        (0, {"report.json": "58a46675903b832acca4aa153a63676a13ac8fbd4a261085c476b30caebb3015",
             "checks.csv": "0887df2e98bb13ecf02f3e1778f33a48e44c1909512c778e869047ae7f11b64b"}),
    "identity --d 3 --variant ff --samples 40 --seed 3":
        (0, {"report.json": "23be81ee3e8a0eedbc23bbeb1f9cd5571af7d09e34cd2915e74dbaddd0a31927",
             "checks.csv": "0887df2e98bb13ecf02f3e1778f33a48e44c1909512c778e869047ae7f11b64b"}),
    "identity --d 4 --variant ff --samples 40 --seed 1":
        (0, {"report.json": "d74f818928b52e6d94d5cf8e05d3c04497b88d193bd895e7e5e710dfe5c332c6",
             "checks.csv": "0887df2e98bb13ecf02f3e1778f33a48e44c1909512c778e869047ae7f11b64b"}),
    "identity --d 4 --variant ff --samples 40 --seed 2":
        (0, {"report.json": "dcd8cf43bb37d2af230a320c37181f719c73e375171e085e5a80255236531a54",
             "checks.csv": "0887df2e98bb13ecf02f3e1778f33a48e44c1909512c778e869047ae7f11b64b"}),
    "identity --d 4 --variant ff --samples 40 --seed 3":
        (0, {"report.json": "0a5078adc86f7645225d59fbb482347f385694c7cab4795a8de9fd62e37ac43d",
             "checks.csv": "0887df2e98bb13ecf02f3e1778f33a48e44c1909512c778e869047ae7f11b64b"}),
    "identity --d 5 --variant ff --samples 40 --seed 1":
        (0, {"report.json": "47490f0824be9943d1a795b4ca3adfaa3d24b6331220a317d900f5d8fa642439",
             "checks.csv": "0887df2e98bb13ecf02f3e1778f33a48e44c1909512c778e869047ae7f11b64b"}),
    "identity --d 5 --variant ff --samples 40 --seed 2":
        (0, {"report.json": "7f9bfbd11371b406fe62e9f6bc7a737ae9f05a99245a1d64598464d53b9e88ef",
             "checks.csv": "0887df2e98bb13ecf02f3e1778f33a48e44c1909512c778e869047ae7f11b64b"}),
    "identity --d 5 --variant ff --samples 40 --seed 3":
        (0, {"report.json": "1b4354d82ee385847962d3c1657a54b11c8ff433150a8338c212f2b2b7b10d55",
             "checks.csv": "0887df2e98bb13ecf02f3e1778f33a48e44c1909512c778e869047ae7f11b64b"}),
    "identity --d 6 --variant ff --samples 40 --seed 1":
        (0, {"report.json": "5261e5c352ef18c0cea5b0c0eb20174d3f5a80e6b4e98f41c5b89930da0f537c",
             "checks.csv": "0887df2e98bb13ecf02f3e1778f33a48e44c1909512c778e869047ae7f11b64b"}),
    "identity --d 6 --variant ff --samples 40 --seed 2":
        (0, {"report.json": "955b44a5058b23708d86de48cdec5f43b4cf875e9af7747ccba71818467435ac",
             "checks.csv": "0887df2e98bb13ecf02f3e1778f33a48e44c1909512c778e869047ae7f11b64b"}),
    "identity --d 6 --variant ff --samples 40 --seed 3":
        (0, {"report.json": "fda2637ef6eb96edf0802f18ac43bf0dd65d36d7b042e426164b2fa290a650ad",
             "checks.csv": "0887df2e98bb13ecf02f3e1778f33a48e44c1909512c778e869047ae7f11b64b"}),
}


@pytest.mark.parametrize("line", REPORTS)
def test_pinned_report(line, workdir):
    # the exit-code policy: `critreg report` exits as the run did, or 2 after
    # a search failure (exit 3), whose report holds one failing row; the
    # config block, passed back as --config, reproduces the report; and a
    # chain's flags, re-decided from the family, pass
    code, digests = REPORTS[line]
    kind, *flags = line.split()
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([kind, *flags, "--out", "first"]) == code
        first = Path("first/report.json").read_bytes()
        assert {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
                for f in Path("first").iterdir()} == digests
        assert main(["report", "first/report.json"]) == (2 if code == 3 else code)
        report = json.loads(first)
        Path("config.json").write_text(json.dumps(report["config"]))
        assert main([kind, "--config", "config.json", "--out", "again"]) == code
    assert Path("again/report.json").read_bytes() == first
    if kind.startswith("chain") and code != 3:
        assert [r["passed"] for r in report["rows"] if r["check"] == "chain-reverify"] == [True]


@pytest.mark.parametrize("line", REPORTS)
def test_pinned_report_equals_the_row_by_row_writer(line, workdir):
    # the bytes and modes of every file, against `Path.write_text` row by row
    report = _report_of(line.split())
    assert write_report(report, "first") == Path("first", "report.json")
    write_report_rows(report, Path("want"))
    assert _tree(Path("first")) == _tree(Path("want"))
