"""Experiment driver: validated configs, seeded runs, diffable reports.

Every run is a pure function of (config, seed): reports carry no clocks or
machine identifiers, JSON is emitted with sorted keys, and all randomness
flows through the config's seed, so identical configs give byte-identical
files.  Exit codes: 0 all checked inequalities hold, 2 at least one fails,
1 for usage or validation errors (unreadable or malformed config and report
files, a report that cannot be written and a size that cannot be allocated,
among them), 3 when a chain
search found no qualifying object; with --out, that run still writes a
report, whose one failing row holds the error and its search stats.  A
lemma1 batch with no certified sample is a failing row (exit 2), not a
search failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import re
import sys
from fractions import Fraction
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

# each runner imports the modules it runs, so a kind loads no code it skips
from . import lattice

if TYPE_CHECKING:
    from .boxes import BoxSequence

# the config fields each kind reads: its flags, its accepted config keys
# and its report's config block (with "kind") all come from this table
KIND_FIELDS = {
    "lemma1": ("d", "family", "family_file", "n_max", "samples", "seed"),
    "boxes": ("d", "alphas", "variant", "n_max"),
    "chain-b": ("d", "alphas", "variant", "family", "family_file", "n_max"),
    "chain-ff": ("d", "variant", "family", "family_file", "n_max"),
    "identity": ("d", "variant", "samples", "seed"),
    "dynamics": ("c_param", "alpha_holder", "k_max"),
}
KINDS = tuple(KIND_FIELDS)


class ConfigError(ValueError):
    pass


class ExperimentConfig(NamedTuple):
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

    def validate(self) -> None:
        if self.kind not in KINDS:
            raise ConfigError(f"kind must be one of {KINDS}")
        if not 1 <= self.d <= lattice.DIMENSION_CAP:
            raise ConfigError("d outside the supported range")
        if self.n_max < 1 or self.k_max < 1 or self.samples < 1:
            raise ConfigError("n_max, k_max and samples must be positive")
        if "seed" in KIND_FIELDS[self.kind] and self.seed is None:
            raise ConfigError("stochastic kinds need a seed")

    def alpha_fractions(self) -> tuple[Fraction, ...]:
        return tuple(_rational("alpha", a) for a in self.alphas)


def _rational(field: str, text: str) -> Fraction:
    """The rational an exponent field holds, as "p/q" or a decimal;
    ConfigError for any other text, a zero denominator among them."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"{field} {text!r} is not a rational") from None


def _family(cfg: ExperimentConfig, d: int) -> lattice.LengthFamily:
    """The config's weight family on the kind's lattice Z^d; a family file
    whose table lives on another lattice is a ConfigError."""
    if cfg.family_file is not None and cfg.family != "custom-file":
        raise ConfigError("--family-file needs --family custom-file")
    if cfg.family == "geometric":
        return lattice.geometric_family(d)
    if cfg.family == "symmetric-geometric":
        return lattice.symmetric_geometric_family(d)
    if cfg.family == "custom-file":
        if not cfg.family_file:
            raise ConfigError("custom-file family needs --family-file")
        table = lattice.TableFamily(_read_table(cfg.family_file))
        if table.d != d:
            raise ConfigError(f"the family file's table is on Z^{table.d}, not Z^{d}")
        return table
    raise ConfigError(f"unknown family {cfg.family!r}")


def _read_json(path: str, **hooks):
    """The JSON document in the file at path, decoded with `json.loads`'
    hooks; ConfigError naming the path when it is no UTF-8 text or no JSON."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"), **hooks)
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path} is not UTF-8 text: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not JSON: {exc}") from None


def _read_table(path: str) -> dict[tuple[int, ...], Fraction]:
    """A weight table file: a JSON object mapping each "i,j,..." once to a
    number or a rational string, each index ASCII digits with an optional
    sign; ConfigError for any other content."""
    # every object as the tuple of its (key, value) pairs, repeats kept
    raw = _read_json(path, object_pairs_hook=tuple)
    if not isinstance(raw, tuple):
        raise ConfigError(f"{path} must hold a JSON object of index -> weight")
    table = {}
    for key, value in raw:
        # int() alone also reads "1_0" as 10, and digits outside ASCII
        if not re.fullmatch(r"\s*[+-]?[0-9]+\s*(,\s*[+-]?[0-9]+\s*)*", key):
            raise ConfigError(f"{path}: key {key!r} is not comma-separated integers")
        index = tuple(map(int, key.split(",")))
        if index in table:
            raise ConfigError(f"{path}: index {index} is named twice, again as key {key!r}")
        if isinstance(value, bool) or not isinstance(value, (int, float, str)):
            raise ConfigError(f"{path}: weight of {key!r} is not a number or a rational")
        try:
            table[index] = Fraction(value)
        except (ValueError, ZeroDivisionError, OverflowError):
            raise ConfigError(
                f"{path}: weight {value!r} of {key!r} is not a finite rational"
            ) from None
    return table


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
    from . import walks

    fam = _family(cfg, cfg.d)
    summary = walks.batch_certificates(fam, cfg.n_max, cfg.samples, cfg.seed)
    witness = summary.witness
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
            witness is not None,
            summary.witness_cost,
            summary.cost_bound,
            "no sample of the batch is certified" if witness is None
            else f"sample {witness} of the batch",
        ),
    ]
    curve = [(cfg.n_max, summary.mean_cost)]
    return {"rows": rows, "tables": {"costs": curve}, "constants": {
        "B": summary.bound_b, "witness": witness}}


def _variant(cfg: ExperimentConfig) -> str:
    """A boxes or chain-b config's variant: its own, or else B-d2 at d = 2
    and B-general above."""
    return cfg.variant or ("B-d2" if cfg.d == 2 else "B-general")


def _seq_for(cfg: ExperimentConfig, kind: str) -> BoxSequence:
    """The config's box sequence of one kind, which must fit the config's d.
    FF takes no exponents; a B sequence has one axis per exponent, and
    takes 1/d on every axis unless the config names its own."""
    from . import boxes as boxmod

    if kind == "FF":
        seq = boxmod.build_sequence("FF", d=cfg.d, n_max=cfg.n_max)
        if cfg.alphas:
            raise ConfigError(f"FF takes no exponents, got {len(cfg.alphas)} at d = {cfg.d}")
        return seq
    alphas = cfg.alpha_fractions() or (Fraction(1, cfg.d),) * cfg.d
    seq = boxmod.build_sequence(kind, alphas=alphas, n_max=cfg.n_max)
    if seq.d != cfg.d:
        raise ConfigError(
            f"{len(alphas)} exponents give a {seq.d}-dimensional {kind} sequence, not d = {cfg.d}")
    return seq


def _run_boxes(cfg: ExperimentConfig) -> dict:
    from . import boxes as boxmod

    seq = _seq_for(cfg, _variant(cfg))
    mult = boxmod.sequence_multiplicity(seq)
    rows = []
    constants: dict = {"multiplicity": mult}
    if seq.kind == "B-d2":
        rows.append(_row("box-multiplicity", mult == 4, mult, 4, "planar sequence"))
    else:
        rows.append(_row("box-multiplicity", mult <= seq.d + 2, mult, seq.d + 2))
    if seq.kind in ("B-d2", "B-general"):
        constants["D2"] = float(boxmod.inocent_constant(seq))
    if seq.kind == "FF":
        # FF lower endpoints start at 1, so every box has a roundness constant
        a_min = max(float(boxmod.minimal_round_constant(b)) for b in seq.boxes)
        constants.update({"growth_bracket": boxmod.side_growth_bracket(seq),
                          "max_min_roundness": a_min})
    table = [(n, json.dumps(box.intervals)) for n, box in zip(seq.indices(), seq.boxes)]
    return {"rows": rows, "tables": {"boxes": table}, "constants": constants}


def _chain_common(cfg: ExperimentConfig, kind: str) -> dict:
    """A chain-b or chain-ff run of one chain kind, which `concat.CHAINS`
    must walk on an FF sequence exactly when the runner is chain-ff."""
    from . import concat

    ff = cfg.kind == "chain-ff"
    variants = [k for k, (seq_kind, _, _) in concat.CHAINS.items() if (seq_kind == "FF") == ff]
    if kind not in variants:
        raise ConfigError(f"{cfg.kind} variants: {', '.join(variants)}")
    seq = _seq_for(cfg, concat.CHAINS[kind][0])
    fam = _family(cfg, seq.boxes[0].dim)
    cert = concat.build_chain(kind, fam, seq)
    ver = concat.verify_chain(cert, fam)
    rep = concat.distortion_budget(cert, fam)
    spread = rep.ratio_spread
    rows = [
        _row("chain-reverify", ver["all"], ver["all"], True,
             "all flags recomputed from the weight family"),
        _row("budget-ratio-spread", spread is not None and spread < 2.0, spread, 2.0,
             "cumulative Holder budget over (ln N)^(1-alpha)"
             + ("" if spread is not None else "; a fitted budget is zero" if rep.fitted
                else "; the fit is empty")),
    ]
    curve = [(r.n, r.budget) for r in rep.rows]
    entry = [(r.n, r.entry_index) for r in rep.rows]
    return {
        "rows": rows,
        "tables": {"budget": curve, "entry_times": entry},
        "constants": {**cert.levels, **concat.measured(cert, fam), "A_prime": rep.a_prime,
                      "records": len(cert.records), "walk_points": rep.total_points},
        "notes": list(cert.notes),
    }


def _run_chain_b(cfg: ExperimentConfig) -> dict:
    return _chain_common(cfg, _variant(cfg))


def _run_chain_ff(cfg: ExperimentConfig) -> dict:
    return _chain_common(cfg, cfg.variant or ("FF-d3" if cfg.d == 3 else "FF-general"))


def _run_identity(cfg: ExperimentConfig) -> dict:
    import random

    from . import nilpotent

    rng = random.Random(cfg.seed)
    model = cfg.variant or "translation"
    if model == "translation":
        if cfg.d >= lattice.DIMENSION_CAP:
            raise ConfigError(
                f"translation needs d <= {lattice.DIMENSION_CAP - 1}, since its packing "
                f"lives on Z^(d+1); got d={cfg.d}"
            )
        lattice_d = cfg.d + 1
        gens = [(j + 1, 1) for j in range(1, lattice_d + 1)]
    elif model == "ff":
        lattice_d = cfg.d
        gens = [
            (i, j) for i in range(2, lattice_d + 2) for j in range(1, i)
        ]
    else:
        raise ConfigError("identity variants: translation, ff")
    n = lattice_d + 1
    check = nilpotent.conjugacy_distortion_check(
        {k: nilpotent.generator(n, n, 1, k) for k in range(1, 6)}, gens)
    choice, randint = rng.choice, rng.randint
    worst = Fraction(0)
    for _ in range(cfg.samples):
        letters = [(*choice(gens), choice((1, -1))) for _ in range(randint(1, 6))]
        k = randint(1, 5)
        residual = check(letters, k, [randint(-3, 3) for _ in range(lattice_d)])
        if residual:
            worst = max(worst, abs(residual))
    rows = [
        _row("identity-residual-zero", worst == 0, str(worst), "0",
             f"{cfg.samples} random (word, power, interval) triples")
    ]
    return {"rows": rows, "tables": {}, "constants": {"checked": cfg.samples}}


def _run_dynamics(cfg: ExperimentConfig) -> dict:
    from . import smooth

    exponent = _rational("alpha-holder", cfg.alpha_holder)
    # decided on the rational, as `float` overflows past about 1.8e308
    if not 0 < exponent <= 1:
        raise ConfigError("exponent must lie in (0, 1]")
    alpha = float(exponent)
    if not alpha:
        raise ConfigError(f"exponent {cfg.alpha_holder} underflows to 0.0 as a float")
    g = smooth.parabolic_map(cfg.c_param)
    c = smooth.holder_constant_estimate(g, alpha)
    rep = smooth.fundamental_domain_check(g, alpha, c, cfg.k_max)
    rows = [
        _row("iterate-growth-bound", rep.distortion.passed, rep.distortion.least,
             -smooth.GROWTH_TOL,
             f"least slack of C*sum_(i<k)|g^i J|^alpha - var_J log Dg^k over k <= "
             f"{cfg.k_max}; first failing k: {rep.distortion.first_failure}; "
             "C is a grid estimate, so this is a necessary condition"),
    ]
    curve = [(k + 1, s) for k, s in enumerate(rep.partial_sums[:200])]
    return {
        "rows": rows,
        "tables": {"wandering": curve},
        "constants": {"holder_constant": c, "holder_sum": rep.distortion.last_bound,
                      "wandering_sum": rep.partial_sums[-1]},
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
    return _report(cfg, RUNNERS[cfg.kind](cfg))


def _report(cfg: ExperimentConfig, body: dict) -> dict:
    return {
        "config": {k: getattr(cfg, k) for k in ("kind", *KIND_FIELDS[cfg.kind])},
        "kind": cfg.kind,
        "rows": body["rows"],
        "constants": body.get("constants", {}),
        "tables": body.get("tables", {}),
        "notes": body.get("notes", []),
        "passed": all(r["passed"] for r in body["rows"]),
    }


def _stat_items(exc: lattice.ChainSearchError) -> list[str]:
    """A failed search's stats as "k: v" items, joined by "; " on stderr and in its row note."""
    return [f"{k}: {v}" for k, v in exc.stats.items()]


def _search_failure_report(cfg: ExperimentConfig, exc: lattice.ChainSearchError) -> dict:
    """The report of a run whose search found no qualifying object (exit 3):
    one failing row with the error message, and the search stats."""
    row = _row("search", False, str(exc), None, "; ".join(_stat_items(exc)))
    return _report(cfg, {"rows": [row], "constants": exc.stats})


_CONTAINERS = (dict, list, tuple)
_ROWS = (list, tuple)


@functools.cache
def _encoder(indent: str) -> json.JSONEncoder:
    """The C encoder of the items of a container whose items sit at
    `indent`: it puts each item on its own line."""
    return json.JSONEncoder(sort_keys=True, default=str, allow_nan=False,
                            separators=(",\n" + indent, ": "))


def _json_text(value, indent: str = "") -> str:
    """``json.dumps(value, sort_keys=True, indent=2, default=str,
    allow_nan=False)`` of a value with string keys that sits at `indent`, in
    few C encoder calls; the same ValueError on a NaN or an infinity.

    A container whose children are all leaves (non-containers) is one
    call, wrapped in its bracket lines.  So is a list of nonempty lists and
    tuples of leaves, such as a report table: in that call's text the rows
    meet where a separator follows "]" and precedes "[", which no leaf's
    text ends or starts with (a string keeps its brackets inside quotes and
    holds no raw newline), and each meeting gets the rows' bracket lines.
    Other containers recurse.
    """
    if not isinstance(value, _CONTAINERS):
        return _encoder(indent).encode(value)
    if not value:
        return "{}" if isinstance(value, dict) else "[]"
    inner = indent + "  "
    children = value.values() if isinstance(value, dict) else value
    if not any(map(isinstance, children, repeat(_CONTAINERS))):
        text = _encoder(inner).encode(value)
        return f"{text[0]}\n{inner}{text[1:-1]}\n{indent}{text[-1]}"
    if (isinstance(value, _ROWS) and all(map(isinstance, value, repeat(_ROWS))) and all(value)
            and not any(map(isinstance, chain.from_iterable(value), repeat(_CONTAINERS)))):
        cell = inner + "  "
        text = _encoder(cell).encode(value)[2:-2].replace(
            f"],\n{cell}[", f"\n{inner}],\n{inner}[\n{cell}")
        return f"[\n{inner}[\n{cell}{text}\n{inner}]\n{indent}]"
    if isinstance(value, dict):
        items = [f"{encode_basestring_ascii(k)}: {_json_text(v, inner)}"
                 for k, v in sorted(value.items())]
        brackets = "{}"
    else:
        items = [_json_text(v, inner) for v in value]
        brackets = "[]"
    return f"{brackets[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}{brackets[1]}"


_WRITE_FLAGS = os.O_WRONLY | os.O_CREAT | os.O_TRUNC


def _write_file(path: str, text: str) -> None:
    """``Path(path).write_text(text, newline="")`` of ASCII text as one
    open, write and close: the same bytes, mode and errors, without a
    text-mode file.  Other text raises UnicodeEncodeError (a ValueError)
    before the file is opened."""
    data = memoryview(text.encode("ascii"))
    fd = os.open(path, _WRITE_FLAGS, 0o666)
    try:
        while data:
            data = data[os.write(fd, data):]
    finally:
        os.close(fd)


def write_report(report: dict, out_dir: str | Path) -> Path:
    """Emit report.json plus CSV tables and two-column growth data files.

    report.json is ``json.dumps(report, sort_keys=True, indent=2,
    default=str, allow_nan=False)`` and a newline, so strict JSON: a NaN or
    an infinity raises ValueError before any file is written; checks.csv
    is in the csv module's default dialect (CRLF rows); each table's line
    is "a b".  Every file is ASCII, built as one string and written with one
    open/write/close, truncating any file of the same name; a non-ASCII CSV
    or table cell raises UnicodeEncodeError, a ValueError, before its file
    (not those before it) is opened.  The files, modes and errors are
    otherwise those of ``Path.write_text``.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    base = str(out)
    # `out / name` as a string: the same path, so the same error messages
    prefix = "" if base == "." else os.path.join(base, "")
    _write_file(prefix + "report.json", _json_text(report) + "\n")
    rows = io.StringIO()
    w = csv.writer(rows)
    w.writerow(["check", "passed", "value", "bound", "note"])
    w.writerows([r["check"], r["passed"], r["value"], r["bound"], r["note"]]
                for r in report["rows"])
    _write_file(prefix + "checks.csv", rows.getvalue())
    for name, table in report.get("tables", {}).items():
        _write_file(f"{prefix}{name}.dat", "".join([f"{a} {b}\n" for a, b in table]))
    return out / "report.json"


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Reports its usage errors as ConfigError, so they exit 1 like any
    other invalid input; --help still exits 0.

    A word that starts with "-" and a digit, or "-." and a digit, is a value
    (no flag looks like that), so `--alpha-holder -1e-3` and `--alpha
    -1/2,1/2` reach the value's own check; argparse alone takes only -N
    and -N.N as values.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d.*")

    def error(self, message: str):
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def _comma_list(text: str) -> list[str]:
    return text.split(",")


# (flag, add_argument options) of each config field
FLAGS = {
    "d": ("--d", {"type": int}),
    "alphas": ("--alpha", {"type": _comma_list, "metavar": "ALPHA",
                           "help": "comma-separated exponents, e.g. 1/2,1/2"}),
    "family": ("--family", {"choices": ["geometric", "symmetric-geometric", "custom-file"]}),
    "family_file": ("--family-file", {}),
    "variant": ("--variant", {}),
    "n_max": ("--n-max", {"type": int}),
    "k_max": ("--k-max", {"type": int}),
    "seed": ("--seed", {"type": int}),
    "samples": ("--samples", {"type": int}),
    "c_param": ("--c-param", {"type": float}),
    "alpha_holder": ("--alpha-holder", {}),
}


# the JSON type a --config value must have, by the type of its field's flag
CONFIG_TYPES = {
    int: (int, "an integer"),
    float: ((int, float), "a number"),
    str: (str, "a string"),
    _comma_list: (list, "a list of strings"),
}


def _check_config_value(field: str, value) -> None:
    """ConfigError unless a --config value has the type of its field's flag
    and is one of the flag's choices."""
    _, options = FLAGS[field]
    kind = options.get("type", str)
    json_type, what = CONFIG_TYPES[kind]
    if value is None and ExperimentConfig._field_defaults[field] is None:
        return
    if (
        isinstance(value, bool)
        or not isinstance(value, json_type)
        or kind is _comma_list and not all(isinstance(v, str) for v in value)
    ):
        raise ConfigError(f"config value {field}={json.dumps(value)} is not {what}")
    if value not in options.get("choices", (value,)):
        raise ConfigError(
            f"config value {field}={json.dumps(value)} is not one of "
            f"{', '.join(options['choices'])}"
        )


def _config_from(args: argparse.Namespace, kind: str) -> ExperimentConfig:
    fields = KIND_FIELDS[kind]
    base: dict = {}
    if args.config is not None:
        if not args.config:
            raise ConfigError("--config needs a file path, not an empty string")
        base = _read_json(args.config)
        if not isinstance(base, dict):
            raise ConfigError(f"the config file {args.config} must hold a JSON object")
        other = base.pop("kind", kind)
        if other != kind:
            raise ConfigError(f"the config file is for kind {other!r}, not {kind!r}")
        unread = sorted(base.keys() - set(fields))
        if unread:
            raise ConfigError(f"{kind} does not read config keys {', '.join(unread)}")
        for field, value in base.items():
            _check_config_value(field, value)
    for field in fields:
        value = getattr(args, field)
        if value is not None:
            base[field] = value
    if "alphas" in base:
        base["alphas"] = tuple(base["alphas"])
    return ExperimentConfig(kind=kind, **base)


def _load_report(path: str) -> dict:
    """Read a saved report.json; ConfigError unless it is strict JSON (no
    NaN or infinity, which no writer emits) with rows and a verdict that
    they agree with."""

    def refuse(name: str):
        raise ConfigError(f"{path} is not strict JSON: it holds {name}")

    report = _read_json(path, parse_constant=refuse)
    rows = report.get("rows") if isinstance(report, dict) else None
    keys = {"check", "passed", "value", "bound"}
    if (
        not isinstance(rows, list)
        or not rows
        or not all(isinstance(r, dict) and keys <= r.keys() and isinstance(r["passed"], bool)
                   for r in rows)
        or "passed" not in report
    ):
        raise ConfigError(
            f"{path} is not a report: needs 'passed' and 'rows', a nonempty list of "
            "objects with check, passed (true or false), value and bound"
        )
    if report["passed"] is not all(r["passed"] for r in rows):
        raise ConfigError(f"{path}: 'passed' is not the verdict of its rows")
    return report


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged and every call starts from a fresh namespace."""
    parser = _Parser(
        prog="critreg",
        description="run the chain, walk, action and dynamics verifiers",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # each kind's own parser, which `_parse` calls directly
    parser.kind_parsers = {}
    for kind, fields in KIND_FIELDS.items():
        p = parser.kind_parsers[kind] = sub.add_parser(kind)
        p.add_argument("--config", help="JSON config file; flags override its fields")
        for field in fields:
            flag, options = FLAGS[field]
            p.add_argument(flag, dest=field, **options)
        p.add_argument("--out", help="directory for report.json, checks.csv and tables")
    p = sub.add_parser("report", help="re-validate and summarize a saved report")
    p.add_argument("path")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        return _main(argv)
    except (ConfigError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _parse(argv: list[str] | None) -> argparse.Namespace:
    """``_parser().parse_args(argv)``: the same namespace, output, errors
    and exits.  An argv whose first word is a kind goes straight to that
    kind's parser, which is where the top parser would send all of it; a
    word that the kind does not read is the top parser's usage error, as
    there.  Any other argv takes the top parser."""
    parser = _parser()
    if argv is None:
        argv = sys.argv[1:]
    kind_parser = parser.kind_parsers.get(argv[0]) if argv else None
    if kind_parser is None:
        return parser.parse_args(argv)
    args, extra = kind_parser.parse_known_args(argv[1:])
    if extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    args.command = argv[0]
    return args


def _main(argv: list[str] | None) -> int:
    """One call's exit code; a usage, validation, I/O or allocation error,
    the report writes included, propagates to ``main``, which exits 1."""
    args = _parse(argv)
    if args.command == "report":
        report = _load_report(args.path)
    else:
        if args.out == "":
            raise ConfigError("--out needs a directory path, not an empty string")
        cfg = _config_from(args, args.command)
        try:
            report = run(cfg)
        except lattice.ChainSearchError as exc:
            print("; ".join([f"error: {exc}", *_stat_items(exc)]), file=sys.stderr)
            if args.out is not None:
                path = write_report(_search_failure_report(cfg, exc), args.out)
                print(f"report written to {path}")
            return 3
    for r in report["rows"]:
        status = "pass" if r["passed"] else "FAIL"
        print(f"[{status}] {r['check']}: value={r['value']} bound={r['bound']}")
    if args.command == "report":
        print("overall:", "pass" if report["passed"] else "FAIL")
    elif args.out is not None:
        path = write_report(report, args.out)
        print(f"report written to {path}")
    return 0 if report["passed"] else 2


if __name__ == "__main__":
    raise SystemExit(main())
