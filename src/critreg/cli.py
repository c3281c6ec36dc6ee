"""Experiment driver: validated configs, seeded runs, diffable reports.

Every run is a pure function of (config, seed): reports carry no clocks or
machine identifiers, JSON is emitted with sorted keys, and all randomness
flows through the config's seed, so identical configs give byte-identical
files.  Exit codes: 0 all checked inequalities hold, 2 at least one fails,
1 for usage or validation errors, 3 when a search found no qualifying
object (a chain or path certificate search ran out of candidates).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import asdict, dataclass
from fractions import Fraction
from pathlib import Path

from . import boxes as boxmod
from . import concat, lattice, nilpotent, smooth, walks

KINDS = ("lemma1", "boxes", "chain-b", "chain-ff", "identity", "dynamics")


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    kind: str
    d: int = 2
    alphas: tuple[str, ...] = ()
    family: str = "geometric"
    family_file: str | None = None
    variant: str = ""  # sequence/builder/model selector inside a kind
    n_max: int = 10
    k_max: int = 1000
    seed: int = 1
    samples: int = 1000
    c_param: float = 1.0
    alpha_holder: str = "1/2"
    out: str | None = None

    def validate(self) -> None:
        if self.kind not in KINDS:
            raise ConfigError(f"kind must be one of {KINDS}")
        if not 1 <= self.d <= lattice.DIMENSION_CAP:
            raise ConfigError("d outside the supported range")
        if self.n_max < 1 or self.k_max < 1 or self.samples < 1:
            raise ConfigError("n_max, k_max and samples must be positive")
        if self.kind in ("lemma1",) and self.seed is None:
            raise ConfigError("stochastic kinds need a seed")

    def alpha_fractions(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(a) for a in self.alphas)


def _family(cfg: ExperimentConfig, d: int) -> lattice.LengthFamily:
    if cfg.family == "geometric":
        return lattice.geometric_family(d)
    if cfg.family == "symmetric-geometric":
        return lattice.symmetric_geometric_family(d)
    if cfg.family == "custom-file":
        if not cfg.family_file:
            raise ConfigError("custom-file family needs --family-file")
        raw = json.loads(Path(cfg.family_file).read_text())
        table = {
            tuple(int(t) for t in k.split(",")): Fraction(v) for k, v in raw.items()
        }
        return lattice.TableFamily(table)
    raise ConfigError(f"unknown family {cfg.family!r}")


def _row(check: str, passed: bool, value, bound, note: str = "") -> dict:
    return {
        "check": check,
        "passed": bool(passed),
        "value": value,
        "bound": bound,
        "note": note,
    }


# ---------------------------------------------------------------------------
# per-kind runners
# ---------------------------------------------------------------------------


def _run_lemma1(cfg: ExperimentConfig) -> dict:
    fam = _family(cfg, cfg.d)
    kernel = walks.WalkKernel(cfg.d)
    summary = walks.batch_certificates(
        kernel, fam, cfg.n_max, cfg.samples, cfg.seed
    )
    cert, attempts = walks.sample_and_certify(kernel, fam, cfg.n_max, cfg.seed)
    rows = [
        _row(
            "walk-success-fraction",
            summary.success_fraction >= 1 / 3,
            summary.success_fraction,
            1 / 3,
            "joint cost and terminal-weight certificates",
        ),
        _row(
            "walk-mean-cost",
            summary.mean_ok,
            summary.mean_cost,
            summary.mean_cost_bound,
            "mean Holder-power cost against the expectation bound",
        ),
        _row(
            "walk-single-certificate",
            cert.ok,
            cert.cost,
            summary.cost_bound,
            f"first certified path after {attempts} attempt(s)",
        ),
    ]
    curve = [(cfg.n_max, summary.mean_cost)]
    return {"rows": rows, "tables": {"costs": curve}, "constants": {
        "B": summary.bound_b, "attempts": attempts}}


def _seq_for(cfg: ExperimentConfig) -> boxmod.BoxSequence:
    variant = cfg.variant or ("B-d2" if cfg.d == 2 else "B-general")
    if variant == "FF":
        return boxmod.build_sequence("FF", d=cfg.d, n_max=cfg.n_max)
    alphas = cfg.alpha_fractions() or tuple(
        Fraction(1, cfg.d) for _ in range(cfg.d)
    )
    return boxmod.build_sequence(variant, alphas=alphas, n_max=cfg.n_max)


def _run_boxes(cfg: ExperimentConfig) -> dict:
    seq = _seq_for(cfg)
    mult = boxmod.sequence_multiplicity(seq)
    rows = []
    constants: dict = {"multiplicity": mult}
    if seq.kind == "B-d2":
        rows.append(_row("box-multiplicity", mult == 4, mult, 4, "planar sequence"))
    else:
        d = seq.d or len(seq.boxes[0].intervals)
        rows.append(_row("box-multiplicity", mult <= d + 2, mult, d + 2))
    if seq.kind in ("B-d2", "B-general"):
        d2 = boxmod.inocent_constant(seq)
        rows.append(_row("side-retention-positive", d2 > 0, float(d2), 0.0))
        constants["D2"] = float(d2)
    if seq.kind == "FF":
        c = boxmod.side_growth_bracket(seq)
        rows.append(_row("side-growth-bracket", math.isfinite(c), c, None))
        a_min = max(
            float(boxmod.minimal_round_constant(b) or math.inf) for b in seq.boxes
        )
        rows.append(_row("roundness-bounded", math.isfinite(a_min), a_min, None))
        constants.update({"growth_bracket": c, "max_min_roundness": a_min})
    table = [
        (n, json.dumps(seq.box(n).intervals)) for n in seq.indices()
    ]
    return {"rows": rows, "tables": {"boxes": table}, "constants": constants}


def _chain_common(cfg, kind: str, seq, fam) -> dict:
    cert = concat.build_chain(kind, fam, seq)
    ver = concat.verify_chain(cert, fam)
    rep = concat.distortion_budget(cert, fam, min_fit_n=max(2, 4 if kind == "FF-d3" else 2))
    rows = [
        _row("chain-flags", cert.all_flags_ok, sum(r.flag_ok for r in cert.records),
             len(cert.records), "per-segment goodness flags"),
        _row("chain-reverify", ver["all"], ver["all"], True,
             "all flags recomputed from the weight family"),
        _row("chain-power-bound", ver["power_bound"], cert.measured.get("B"),
             cert.measured.get("B"), "segment power sums against the measured constant"),
        _row("budget-ratio-spread", rep.ratio_spread < 2.0, rep.ratio_spread, 2.0,
             "cumulative Holder budget over (ln N)^(1-alpha)"),
    ]
    curve = [(r.n, r.budget) for r in rep.rows]
    entry = [(r.n, r.entry_index) for r in rep.rows]
    return {
        "rows": rows,
        "tables": {"budget": curve, "entry_times": entry},
        "constants": {**cert.measured, "A_prime": rep.a_prime,
                      "walk_points": rep.total_points},
        "notes": list(cert.notes),
    }


def _run_chain_b(cfg: ExperimentConfig) -> dict:
    kind = cfg.variant or ("B-d2" if cfg.d == 2 else "B-general")
    if kind not in ("B-d2", "B-d3", "B-general"):
        raise ConfigError("chain-b variants: B-d2, B-d3, B-general")
    alphas = cfg.alpha_fractions() or tuple(Fraction(1, cfg.d) for _ in range(cfg.d))
    seq_kind = "B-d2" if kind == "B-d2" else "B-general"
    seq = boxmod.build_sequence(seq_kind, alphas=alphas, n_max=cfg.n_max)
    fam = _family(cfg, cfg.d)
    return _chain_common(cfg, kind, seq, fam)


def _run_chain_ff(cfg: ExperimentConfig) -> dict:
    seq = boxmod.build_sequence("FF", d=cfg.d, n_max=cfg.n_max)
    fam = _family(cfg, cfg.d - 1)
    kind = cfg.variant or ("FF-d3" if cfg.d == 3 else "FF-general")
    return _chain_common(cfg, kind, seq, fam)


def _run_identity(cfg: ExperimentConfig) -> dict:
    import random

    rng = random.Random(cfg.seed)
    model = cfg.variant or "translation"
    if model == "translation":
        packing, letters = nilpotent.translation_model(cfg.d)
        lattice_d = cfg.d + 1
        gens = [(j + 1, 1) for j in range(1, lattice_d + 1)]
        g = nilpotent.UnipotentMatrix.generator(lattice_d + 1, lattice_d + 1, 1)
    elif model == "ff":
        packing = nilpotent.full_group_model(cfg.d)
        lattice_d = cfg.d
        gens = [
            (i, j) for i in range(2, lattice_d + 2) for j in range(1, i)
        ]
        g = nilpotent.UnipotentMatrix.generator(lattice_d + 1, lattice_d + 1, 1)
    else:
        raise ConfigError("identity variants: translation, ff")
    worst = Fraction(0)
    checked = 0
    for _ in range(cfg.samples):
        letters_w = []
        for _ in range(rng.randint(1, 6)):
            i, j = rng.choice(gens)
            letters_w.append((i, j, rng.choice((1, -1))))
        word = nilpotent.Word(tuple(letters_w), lattice_d + 1)
        k = rng.randint(1, 5)
        idx = tuple(rng.randint(-3, 3) for _ in range(lattice_d))
        rep = nilpotent.conjugacy_distortion_check(packing, word, g, k, [idx])
        worst = max(worst, rep.max_abs_residual)
        checked += 1
    rows = [
        _row("identity-residual-zero", worst == 0, str(worst), "0",
             f"{checked} random (word, power, interval) triples")
    ]
    return {"rows": rows, "tables": {}, "constants": {"checked": checked}}


def _run_dynamics(cfg: ExperimentConfig) -> dict:
    alpha = float(Fraction(cfg.alpha_holder))
    g = smooth.parabolic_map(cfg.c_param)
    rep = smooth.growth_bound_check(g, alpha, cfg.k_max)
    scan = smooth.blowup_scan(smooth.doubling_fixed_point_map(), min(cfg.k_max, 1000))
    wander = smooth.wandering_sum_check(g, 0.5, min(cfg.k_max, 1000))
    rows = [
        _row("iterate-growth-bound", rep.all_pass, rep.k_checked,
             rep.first_failure, f"log-slack min {rep.min_log_slack:.4f}"),
        _row("derivative-blowup-scan", len(scan) == min(cfg.k_max, 1000),
             len(scan), min(cfg.k_max, 1000),
             "doubling fixed point exceeds k at every step"),
        _row("wandering-disjoint", wander.disjoint, wander.disjoint, True),
        _row("wandering-sum", wander.within_interval, wander.final_sum,
             g.length, "partial sums of backward image lengths"),
    ]
    curve = [(k + 1, s) for k, s in enumerate(wander.partial_sums[:200])]
    return {
        "rows": rows,
        "tables": {"wandering": curve},
        "constants": {"holder_constant": rep.c_g},
    }


RUNNERS = {
    "lemma1": _run_lemma1,
    "boxes": _run_boxes,
    "chain-b": _run_chain_b,
    "chain-ff": _run_chain_ff,
    "identity": _run_identity,
    "dynamics": _run_dynamics,
}


def run(cfg: ExperimentConfig) -> dict:
    """Execute one experiment; deterministic given (config, seed)."""
    cfg.validate()
    body = RUNNERS[cfg.kind](cfg)
    passed = all(r["passed"] for r in body["rows"])
    shown = asdict(cfg)
    shown.pop("out")  # destination, not an experiment parameter
    return {
        "config": shown,
        "kind": cfg.kind,
        "rows": body["rows"],
        "constants": body.get("constants", {}),
        "tables": body.get("tables", {}),
        "notes": body.get("notes", []),
        "passed": passed,
    }


def write_report(report: dict, out_dir: str | Path) -> Path:
    """Emit report.json plus CSV tables and two-column growth data files."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "report.json"
    path.write_text(json.dumps(report, sort_keys=True, indent=2, default=str) + "\n")
    rows_path = out / "checks.csv"
    with rows_path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["check", "passed", "value", "bound", "note"])
        for r in report["rows"]:
            w.writerow([r["check"], r["passed"], r["value"], r["bound"], r["note"]])
    for name, table in report.get("tables", {}).items():
        with (out / f"{name}.dat").open("w") as fh:
            for a, b in table:
                fh.write(f"{a} {b}\n")
    return path


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file; flags override its fields")
    p.add_argument("--d", type=int)
    p.add_argument("--alpha", help="comma-separated exponents, e.g. 1/2,1/2")
    p.add_argument(
        "--family", choices=["geometric", "symmetric-geometric", "custom-file"]
    )
    p.add_argument("--family-file")
    p.add_argument("--variant")
    p.add_argument("--n-max", type=int)
    p.add_argument("--k-max", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--samples", type=int)
    p.add_argument("--c-param", type=float)
    p.add_argument("--alpha-holder")
    p.add_argument("--out")


def _config_from(args: argparse.Namespace, kind: str) -> ExperimentConfig:
    base: dict = {}
    if args.config:
        base = json.loads(Path(args.config).read_text())
    base["kind"] = kind
    mapping = {
        "d": args.d,
        "family": args.family,
        "family_file": args.family_file,
        "variant": args.variant,
        "n_max": args.n_max,
        "k_max": args.k_max,
        "seed": args.seed,
        "samples": args.samples,
        "c_param": args.c_param,
        "alpha_holder": args.alpha_holder,
        "out": args.out,
    }
    for k, v in mapping.items():
        if v is not None:
            base[k] = v
    if args.alpha is not None:
        base["alphas"] = tuple(args.alpha.split(","))
    if "alphas" in base:
        base["alphas"] = tuple(base["alphas"])
    try:
        return ExperimentConfig(**base)
    except TypeError as exc:
        raise ConfigError(str(exc)) from None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="critreg",
        description="run the chain, walk, action and dynamics verifiers",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for kind in KINDS:
        p = sub.add_parser(kind)
        _add_common(p)
    p = sub.add_parser("report", help="re-validate and summarize a saved report")
    p.add_argument("path")
    args = parser.parse_args(argv)
    if args.command == "report":
        report = json.loads(Path(args.path).read_text())
        for r in report["rows"]:
            status = "pass" if r["passed"] else "FAIL"
            print(f"[{status}] {r['check']}: value={r['value']} bound={r['bound']}")
        print("overall:", "pass" if report["passed"] else "FAIL")
        return 0 if report["passed"] else 2
    try:
        cfg = _config_from(args, args.command)
        report = run(cfg)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (concat.ChainSearchError, walks.CertificateSearchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    for r in report["rows"]:
        status = "pass" if r["passed"] else "FAIL"
        print(f"[{status}] {r['check']}: value={r['value']} bound={r['bound']}")
    if cfg.out:
        path = write_report(report, cfg.out)
        print(f"report written to {path}")
    return 0 if report["passed"] else 2


if __name__ == "__main__":
    raise SystemExit(main())
