"""Self-test of the benchmark itself (about half a minute):

    python3 bench/selftest.py

Runs a handful of ops of every workload untraced and traced, checks that a
tampered report (a flipped ``chain-reverify`` row) and a raising op both
count as failed, that two seeds give different op orders and stochastic
seeds over the same config pools, that ``BENCHMARK.json`` names exactly the
metrics the runs print, and that ``run.py`` prints no result without the
critreg sources.  Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracing import LAYER_METRICS, Tracer  # noqa: E402
from worker import Program, run_op, run_pass  # noqa: E402

WORK = ROOT / ".bench_work" / "selftest"


def expect(cond: bool, what: str) -> None:
    if not cond:
        print(f"FAIL: {what}")
        raise SystemExit(1)
    print(f"ok: {what}")


def check_workloads(prog: Program) -> None:
    for w in workloads.WORKLOADS:
        ops = workloads.make_ops(w, 1)[:4] + [
            op for op in workloads.make_ops(w, 1) if op.call][:1]
        prog.make_inputs(ops)
        res = run_pass(prog, ops, 1e9, WORK / w)
        again = run_pass(prog, ops, 1e9, WORK / w)
        expect(len(res) == len(ops) and all(r.error is None for r in res)
               and [r.digest for r in res] == [r.digest for r in again],
               f"{w}: {len(ops)} ops pass, each byte-identical to a second run")
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_pass(prog, ops, 1e9, WORK / w, tracer=tracer)
        finally:
            tracer.uninstall()
        layers = tracer.layer_metrics()
        expect(not tracer.missing and tracer.spans and
               [r.digest for r in traced] == [r.digest for r in res],
               f"{w}: traced ops record spans and give the same reports")
        expect(set(layers) == {m for m, *_ in LAYER_METRICS},
               f"{w}: the trace yields every per-layer metric")


def check_failures(prog: Program) -> None:
    op = workloads.Op(argv=workloads._b_d2("1/2,1/2", 12))
    expect(run_op(prog, op, WORK / "plain").error is None, "an untouched chain op passes")

    original = prog.cli.write_report

    def tampered(report, out_dir):
        for row in report["rows"]:
            if row["check"] == "chain-reverify":
                row["passed"] = not row["passed"]
        return original(report, out_dir)

    prog.cli.write_report = tampered
    try:
        err = run_op(prog, op, WORK / "tampered").error
    finally:
        prog.cli.write_report = original
    expect(err is not None and "chain-reverify" in err,
           f"a flipped chain-reverify row fails the op ({err})")

    build = prog.concat.build_chain

    def raising(*args, **kwargs):
        raise prog.concat.ChainSearchError("forced by the self-test", None)

    prog.concat.build_chain = raising
    try:
        err = run_op(prog, op, WORK / "raising").error
    finally:
        prog.concat.build_chain = build
    expect(err is not None and err.startswith("ChainSearchError"),
           f"a raising op fails ({err})")


def check_seeds() -> None:
    for w in workloads.WORKLOADS:
        a, b = workloads.make_ops(w, 1), workloads.make_ops(w, 2)
        expect(Counter(o.config for o in a) == Counter(o.config for o in b),
               f"{w}: seeds 1 and 2 run the same config pool")
        expect([o.config for o in a] != [o.config for o in b], f"{w}: op orders differ")
        seeds_a = {o.config: o.seed for o in a if o.seed is not None}
        seeds_b = {o.config: o.seed for o in b if o.seed is not None}
        expect(all(seeds_a[c] != seeds_b[c] for c in seeds_a),
               f"{w}: every stochastic op gets another seed")
        expect(len({(o.config, o.seed) for o in a}) == len(a) == len({o.config for o in a}),
               f"{w}: no two ops of a run share an input")
        expect(len(a) >= 100, f"{w}: {len(a)} ops, so ten or more lie beyond p90")


def run_bench(root: Path, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli-short", "--seed", "3",
         "--seconds", "0.2", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=180)


def check_cli() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = run_bench(ROOT, trace)
        expect(proc.returncode == 0, f"run.py --trace {trace} exits 0 ({proc.stderr[-300:]})")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        expect(set(result) == {"correct", "attempted", "failed", "metrics"}
               and result["correct"] and result["attempted"] >= 1,
               f"run.py --trace {trace} prints a correct result line")
        expect(set(result["metrics"]) == {m["name"] for m in spec[key]},
               f"--trace {trace} prints exactly the {key} metrics of BENCHMARK.json")
    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run_bench(bare, 0)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           "without the critreg sources run.py exits non-zero and prints no result")


def main() -> int:
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    try:
        check_seeds()
        prog = Program()
        check_failures(prog)
        check_workloads(prog)
        check_cli()
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
