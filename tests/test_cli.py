import json

import pytest

from critreg.cli import ConfigError, ExperimentConfig, main, run, write_report


def _cfg(**kw):
    base = dict(kind="dynamics", k_max=200, seed=3, samples=50)
    base.update(kw)
    return ExperimentConfig(**base)


class TestRun:
    def test_dynamics(self):
        report = run(_cfg())
        assert report["passed"]
        assert {r["check"] for r in report["rows"]} >= {
            "iterate-growth-bound",
            "wandering-disjoint",
        }

    def test_lemma1(self):
        report = run(_cfg(kind="lemma1", d=2, n_max=50, samples=400, seed=42))
        assert report["passed"]
        assert report["constants"]["B"] == 3.0

    def test_boxes_planar(self):
        report = run(_cfg(kind="boxes", d=2, variant="B-d2",
                          alphas=("1/2", "1/2"), n_max=16))
        assert report["passed"]
        assert report["constants"]["multiplicity"] == 4

    def test_boxes_ff(self):
        report = run(_cfg(kind="boxes", d=3, variant="FF", n_max=12))
        assert report["passed"]

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

    def test_search_failure_exits_three(self, capsys):
        # FF d=3 up to n=2 has no stage with two strips to start a chain at
        assert main(["chain-ff", "--d", "3", "--n-max", "2"]) == 3
        assert "error: no workable stage in range" in capsys.readouterr().err

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
