"""critreg benchmark: a closed loop of verifier ops from one client.

    python3 bench/run.py --workload deep-chain --seed 1 --seconds 15 --trace 0

One client drives fresh single-threaded worker processes (``worker.py``)
one at a time; a worker waits for each op before sending the next.  Every
op time and set-up time is scaled to the host's quiet speed: wall time *
REF_S / the time of a reference loop run beside it (see ``scaled``).  With
``--trace 0`` three workers run the same ops, each op's time is the median
of its three scaled runs, and their reports must match byte for byte.  The
client reports ops per second, median and 90th percentile op time, the
workers' peak RSS, and set-up time (median of seven fresh interpreters).  With
``--trace 1`` one worker runs the ops untraced and one traced, a third
times the README lines and scaling ladders, and the client reports the
per-layer metrics.  Before the result it prints one
``stamp`` line with the machine and versions.  The last line of stdout is
the JSON result; a run that cannot start prints no result and exits 1.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracing import LAYER_METRICS  # noqa: E402
from worker import REF_S  # noqa: E402

DEADLINE_S = 165  # workers included, so the whole run ends within 180 s
RUNS_PER_OP = 3  # fresh workers that each run every op with --trace 0
SETUP_PROBES = 2  # fresh interpreters timed for set-up, besides those workers
THREAD_CAPS = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS",
                 "CRITREG_THREADS")
}


class RunError(RuntimeError):
    pass


def spawn(mode: str, args, work: Path, deadline: float) -> dict:
    result = work / f"{mode}-{time.perf_counter_ns()}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--mode", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--workdir", str(work / mode),
           "--result", str(result)]
    env = {**os.environ, **THREAD_CAPS}
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise RunError(f"{mode} worker passed the {DEADLINE_S} s deadline") from None
    if proc.returncode != 0:
        raise RunError(f"{mode} worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(result.read_text())


def scaled(wall: float, ref: float) -> float:
    """Wall time at the host's quiet speed.

    The host runs CPU-bound code 1.4 to 2 times slower for stretches of
    0.1 s to minutes, so raw wall times of one run can differ from the next
    by a third.  The reference loop run beside a measurement slows down with
    it; dividing by its time, and multiplying by its quiet time ``REF_S``,
    keeps the figure in seconds and cancels most of the host's state.
    """
    return wall * REF_S / ref


def ops_per_s(ops: list[dict]) -> float:
    done = sum(1 for o in ops if o["error"] is None)
    return done / sum(o["time"] for o in ops)


def timing(ops: list[dict]) -> dict:
    times = [o["time"] for o in ops]
    p90 = statistics.quantiles(times, n=10)[8] if len(times) >= 10 else max(times)
    return {"p50": statistics.median(times), "p90": p90, "samples": len(times),
            "beyond_p90": sum(1 for t in times if t > p90)}


def joined(runs: list[dict]) -> list[dict]:
    """Join several workers' runs of the same ops; each run checks the others.

    An op fails if any run failed or their reports differ byte for byte.
    Its time is the median of the runs' scaled times, which drops a run
    whose speed state changed between the op and its reference loops; its
    ``wall`` is the least raw time.  Fresh processes cannot share a memo.
    """
    ops = []
    for same in zip(*(r["ops"] for r in runs)):
        times = [scaled(o["time"], o["ref"]) for o in same]
        op = {**same[0], "time": statistics.median(times), "times": times,
              "walls": [o["time"] for o in same], "refs": [o["ref"] for o in same]}
        op["error"] = next((o["error"] for o in same if o["error"]), None)
        if op["error"] is None and len({o["digest"] for o in same}) > 1:
            op["error"] = "report differs from another run of the same argv"
        ops.append(op)
    return ops


def measure(args, work: Path, deadline: float) -> tuple[dict, list[dict], dict]:
    probes = [spawn("setup", args, work, deadline) for _ in range(SETUP_PROBES)]
    runs = [spawn("untraced", args, work, deadline) for _ in range(RUNS_PER_OP)]
    setups = [scaled(r["setup_s"], r["setup_ref"]) for r in probes + runs]
    ops = joined(runs)
    t = timing(ops)
    metrics = {
        "ops_per_s": (ops_per_s(ops), "1/s"),
        "op_s.p50": (t["p50"], "s"),
        "op_s.p90": (t["p90"], "s"),
        "peak_rss_mb": (max(r["peak_rss_mb"] for r in runs), "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    return metrics, ops, {**runs[0], "timing": t, "setups": setups}


def traced(args, work: Path, deadline: float) -> tuple[dict, list[dict], dict]:
    plain = spawn("untraced", args, work, deadline)
    spans = spawn("traced", args, work, deadline)
    extras = spawn("extras", args, work, deadline)
    ops = joined([plain, spans])
    n = len(ops)
    units = {name: unit for name, unit, *_ in LAYER_METRICS}
    metrics = {name: (value, units[name]) for name, value in spans["layers"].items()}
    for name, res in extras["named"].items():
        res = {**res, "time": scaled(res["time"], res["ref"]), "wall": res["time"]}
        metrics[name] = (res["time"], "s")
        ops.append(res)
    plain_ops, span_ops = (
        [{**o, "time": scaled(o["time"], o["ref"])} for o in r["ops"][:n]] for r in (plain, spans))
    metrics["trace.overhead"] = (ops_per_s(span_ops) / ops_per_s(plain_ops), "ratio")
    info = {**spans, "timing": timing(span_ops),
            "expected_moves": {m: w for m, _, _, w in LAYER_METRICS}}
    return metrics, ops, info


def stamp(args, info: dict) -> dict:
    try:
        nproc = int(subprocess.run(["nproc"], capture_output=True, text=True,
                                   timeout=5).stdout)
    except (OSError, ValueError, subprocess.TimeoutExpired):
        nproc = None
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "loop": "closed, 1 client, fresh single-threaded workers one at a time",
        "op_samples": info["timing"]["samples"], "beyond_p90": info["timing"]["beyond_p90"],
        "cores_affinity": len(os.sched_getaffinity(0)), "nproc": nproc,
        "cpu_model": cpu, "python": info["python"], "numpy": info["numpy"],
        "thread_caps": THREAD_CAPS,
        **{k: info[k] for k in ("setups", "missing", "expected_moves") if k in info},
    }


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description="critreg verifier benchmark")
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # on SIGTERM, unwind through subprocess.run, which kills the worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    deadline = time.monotonic() + DEADLINE_S
    base = ROOT / ".bench_work"
    work = base / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        run = traced if args.trace else measure
        metrics, ops, info = run(args, work, deadline)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        kept = base / f"last-{args.workload}-t{args.trace}-spans.jsonl"
        for spans in work.glob("*-spans.jsonl"):
            spans.replace(kept)
        shutil.rmtree(work, ignore_errors=True)
    failed = sum(1 for o in ops if o["error"] is not None)
    st = stamp(args, info)
    record = {"stamp": st, "metrics": metrics, "ops": ops}
    (base / f"last-{args.workload}-t{args.trace}.json").write_text(json.dumps(record, indent=1))
    for o in ops:
        if o["error"] is not None:
            print(f"failed op: {o['label']}: {o['error']}")
    print("stamp " + json.dumps(st))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
