"""Benchmark worker: a fresh single-threaded process that runs one pass.

Each op is one in-process ``critreg`` command, ``critreg.cli.main(argv)``
with ``--out`` in the run's scratch directory and stdout captured, except
the vertical-section reach ops and the subdivision ladder rungs, which no
CLI kind reaches and which call ``critreg.concat`` / ``critreg.boxes``
directly.  Modes:

* ``setup``    import critreg and build the inputs, report the time, exit;
* ``untraced`` time the pool and keep a digest of every report;
* ``traced``   the same with spans around every layer call;
* ``extras``   time the README lines and the scaling ladders once.

Every timed op and the set-up are bracketed by the reference loop
(``reference``), whose time tracks the host's current speed; ``run.py``
scales each time by it.  The result is written as JSON to ``--result``;
``run.py`` aggregates it.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import platform
import resource
import shutil
import sys
import time
from fractions import Fraction
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# The iterations of the reference loop's three parts, and its time on a
# quiet 2-core Xeon host with Python 3.11.  ``run.py`` reports an op's time
# as wall time * REF_S / (reference time measured around the op).
REF_LOOPS = (3900, 33, 1160)
REF_S = 0.002
_BIG, _BIG_FACTOR = 3 ** 900, 7 ** 700

# Rows that hold on every input the workloads use; a false one fails the op.
# Other rows (budget-ratio-spread, ...) may fail and are only counted.
INVARIANT_ROWS = frozenset({
    "chain-reverify", "chain-flags", "box-multiplicity", "identity-residual-zero",
    "walk-single-certificate", "wandering-disjoint", "iterate-growth-bound",
})


class Program:
    """The critreg modules, imported from this checkout's ``src``."""

    def __init__(self) -> None:
        if not (SRC / "critreg" / "__init__.py").is_file():
            raise SystemExit(f"error: no critreg sources under {SRC}")
        sys.path.insert(0, str(SRC))
        import critreg
        from critreg import boxes, cli, concat, lattice

        if Path(critreg.__file__).resolve().parent != SRC / "critreg":
            raise SystemExit(f"error: critreg imported from {critreg.__file__}")
        self.boxes, self.cli, self.concat, self.lattice = boxes, cli, concat, lattice
        self.ff_boxes: dict[int, tuple] = {}

    def make_inputs(self, ops) -> None:
        """Build the FF d=3 boxes (and their roundness) that calls need."""
        ns = {op.call[1] for op in ops if op.call}
        if ns:
            seq = self.boxes.build_sequence("FF", d=3, n_max=max(ns))
            for n in ns:
                box = seq.box(n)
                self.ff_boxes[n] = (box, self.boxes.minimal_round_constant(box))


def reference() -> float:
    """Time a fixed pure-Python loop: the host's speed right now.

    The shared host switches between speed states for stretches of 0.1 s
    to minutes, and CPU time grows with wall time, so only a loop run beside
    an op can tell the states apart.  The loop mixes what the ops spend
    their time on: small-integer arithmetic, big-integer products and gcds,
    and dict, list and tuple allocation.  A loop of any one of these kinds
    slows by up to a fifth more or less than some ops do.  It calls nothing
    in critreg, so no change to critreg moves it.
    """
    ints, bigs, allocs = REF_LOOPS
    t0 = time.perf_counter()
    acc, x = 0, 1
    for i in range(ints):
        acc += i * i % 7
        x = (x * 1_000_003 + i) % 170141183460469231731687303715884105727
    y = _BIG
    for i in range(bigs):
        y = (y * _BIG_FACTOR + i) % (_BIG + 12345)
        acc += math.gcd(y, _BIG_FACTOR)
    table: dict = {}
    for i in range(allocs):
        k = i * 7919 % 1009
        table.setdefault(k, []).append((i, k & 7))
    return time.perf_counter() - t0


class Result:
    __slots__ = ("label", "time", "ref", "error", "digest", "rows_failed")

    def __init__(self, label: str) -> None:
        self.label = label
        self.time = 0.0
        self.ref = REF_S
        self.error: str | None = None
        self.digest: str | None = None
        self.rows_failed = 0

    def as_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__slots__}


def check_report(rc: int, out_dir: Path, res: Result) -> None:
    """Exit code, invariant rows and rc/row agreement of one CLI report."""
    if rc not in (0, 2):
        res.error = f"exit code {rc}"
        return
    data = (out_dir / "report.json").read_bytes()
    rows = json.loads(data)["rows"]
    bad = [r["check"] for r in rows if not r["passed"]]
    res.rows_failed = len(bad)
    res.digest = hashlib.sha256(data).hexdigest()
    broken = sorted(INVARIANT_ROWS.intersection(bad))
    if broken:
        res.error = "invariant rows failed: " + ", ".join(broken)
    elif (rc == 0) != (not bad):
        res.error = f"exit code {rc} disagrees with failing rows {bad}"


def check_reach(reach, box, point, kappa) -> str | None:
    """Structural checks of a vertical-section reach against its input."""
    lo, hi = box.intervals[-1]
    levels = sorted(reach.reachable)
    if levels and not lo <= levels[0] <= levels[-1] <= hi:
        return "reached level outside the section"
    if reach.fraction != Fraction(len(levels), hi - lo + 1):
        return "fraction disagrees with the reached levels"
    if reach.meets_target != (reach.fraction >= kappa):
        return "meets_target disagrees with the fraction"
    for v in levels:
        chain = reach.chains.get(v)
        if not chain or chain[-1].index_of(point[:-1] + (v,)) is None:
            return f"no chain ends at level {v}"
    return None


def reach_digest(reach) -> str:
    text = repr((sorted(reach.reachable), sorted(reach.chains.items()), reach.lam,
                 reach.mu, reach.d_prime, reach.fraction, reach.meets_target))
    return hashlib.sha256(text.encode()).hexdigest()


def run_op(prog: Program, op, out_dir: Path) -> Result:
    """Time one op; correctness checks run after the clock stops."""
    res = Result(op.label())
    sink = io.StringIO()
    if op.call:
        kind, n = op.call[:2]
        box, a = prog.ff_boxes[n]
        t0 = time.perf_counter()
        try:
            if kind == "reach":
                family = getattr(prog.lattice, op.call[2].replace("-", "_") + "_family")(2)
                kappa = Fraction(workloads.REACH_KAPPA)
                out = prog.concat.reach_vertical_section(family, box, a, op.call[3], kappa)
            else:
                out = prog.boxes.vertical_subdivision(box, a)
        except Exception as exc:  # noqa: BLE001 - a raising op is a failed op
            res.time = time.perf_counter() - t0
            res.error = f"{type(exc).__name__}: {exc}"
            return res
        res.time = time.perf_counter() - t0
        if kind == "reach":
            res.error = check_reach(out, box, op.call[3], kappa)
            res.digest = reach_digest(out)
        return res
    argv = op.cli_argv() + ["--out", str(out_dir)]
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = prog.cli.main(argv)
        res.time = time.perf_counter() - t0
        check_report(rc, out_dir, res)
    except SystemExit as exc:  # argparse usage errors
        res.time = time.perf_counter() - t0
        res.error = f"SystemExit({exc.code}): {sink.getvalue().strip()[-200:]}"
    except Exception as exc:  # noqa: BLE001 - a raising op or unreadable report fails
        res.time = res.time or time.perf_counter() - t0  # set unless main raised
        res.error = f"{type(exc).__name__}: {exc}"
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    return res


def run_pass(prog, ops, seconds: float, work: Path, tracer=None) -> list[Result]:
    """Run the ops in order until they are done or ``seconds`` of op time pass.

    The reference loop runs before the first op and after every op; an
    op's ``ref`` is the mean of the two loops around it.  A full garbage
    collection before each op, off the clock, starts every op from the same
    collector state, so a collection the previous ops left due does not
    land in whichever op comes next in the seeded order.
    """
    results = []
    spent = 0.0
    before = reference()
    for i, op in enumerate(ops):
        if spent >= seconds:
            break
        gc.collect()
        if tracer is not None:
            tracer.op = i
        res = run_op(prog, op, work / f"op{i}")
        if tracer is not None:
            tracer.op = None
        after = reference()
        res.ref = (before + after) / 2
        before = after
        spent += res.time
        results.append(res)
    return results


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--mode", required=True,
                   choices=["setup", "untraced", "traced", "extras"])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--workdir", type=Path, required=True)
    p.add_argument("--result", type=Path, required=True)
    args = p.parse_args(argv)

    ref_before = reference()
    t0 = time.perf_counter()
    prog = Program()
    if args.mode == "extras":
        named = workloads.extra_ops()
        ops = [op for _, op in named]
    else:
        ops = workloads.make_ops(args.workload, args.seed)
    prog.make_inputs(ops + workloads.warmup_ops(args.workload))
    setup_s = time.perf_counter() - t0
    setup_ref = (ref_before + reference()) / 2
    # the inputs live for the whole run: keep them out of every collection,
    # as they would be in a fresh ``critreg`` process that never built them
    gc.collect()
    gc.freeze()

    import numpy

    out: dict = {"setup_s": setup_s, "setup_ref": setup_ref,
                 "python": platform.python_version(),
                 "numpy": numpy.__version__}
    if args.mode != "setup":
        args.workdir.mkdir(parents=True, exist_ok=True)
        for i, op in enumerate(workloads.warmup_ops(args.workload)):
            run_op(prog, op, args.workdir / f"warmup{i}")
    if args.mode == "extras":
        results = run_pass(prog, ops, float("inf"), args.workdir)
        out["named"] = {name: r.as_dict() for (name, _), r in zip(named, results)}
    elif args.mode == "untraced":
        results = run_pass(prog, ops, args.seconds, args.workdir)
        out["ops"] = [r.as_dict() for r in results]
    elif args.mode == "traced":
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            results = run_pass(prog, ops, args.seconds, args.workdir, tracer=tracer)
        finally:
            tracer.uninstall()
        tracer.counters["cli.rows_failed"] = sum(r.rows_failed for r in results)
        tracer.maxima["boxes.vertical_subdivision.peak_mb"] = tracer.subdivision_peak_mb()
        out["ops"] = [r.as_dict() for r in results]
        out["layers"] = tracer.layer_metrics()
        out["missing"] = tracer.missing
        spans = args.result.with_name(args.result.stem + "-spans.jsonl")
        tracer.write(spans)
        out["spans"] = {"file": spans.name, "count": len(tracer.spans)}
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    args.result.write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
