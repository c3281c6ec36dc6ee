"""Spans around calls into each critreg module, recorded from outside.

The tracer replaces the public functions and methods that the benchmark's
ops reach with wrappers that record a span (name, start, end, parent span,
op id).  Spans are kept in memory and written out when the run ends.  A
layer's self time is its span duration minus the time its child spans
cover; calls are single-threaded, so children never overlap.

Only public names are wrapped, so the tracer keeps working while private
helpers are refactored; a name that no longer exists is skipped and listed
in ``missing``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from fractions import Fraction

# Per-layer metrics: (name, unit, better, end-to-end metric and workload it
# should move).  ``<span>.calls``, ``<span>.s`` and ``<span>.self_s`` come
# from the spans; every other name is a counter kept by the wrappers.
LAYER_METRICS = (
    ("lattice.exact_mass.calls", "count", "lower",
     "op_s.p90 and ops_per_s on deep-chain; must not push op_s.p50 up on cli-short"),
    ("lattice.exact_mass.s", "s", "lower",
     "op_s.p90 and ops_per_s on deep-chain; must not push op_s.p50 up on cli-short"),
    ("lattice.mass_bits.max", "bits", "lower",
     "op_s.p90 and ops_per_s on deep-chain; must not push op_s.p50 up on cli-short"),
    ("lattice.log2_mass.calls", "count", "lower", "section-reach and FF ops on deep-chain"),
    ("lattice.log2_mass.s", "s", "lower", "section-reach and FF ops on deep-chain"),
    ("walks.batch_certificates.s", "s", "lower",
     "ops_per_s and op_s.p50 on walk-mc; no other workload"),
    ("walks.batch_certificates.steps", "count", "higher",
     "ops_per_s and op_s.p50 on walk-mc; no other workload"),
    ("walks.sample_and_certify.s", "s", "lower",
     "ops_per_s and op_s.p50 on walk-mc; no other workload"),
    ("walks.sample_and_certify.attempts", "count", "lower",
     "ops_per_s and op_s.p50 on walk-mc; no other workload"),
    ("boxes.build_sequence.s", "s", "lower", "peak_rss_mb and op_s.p90 on deep-chain"),
    ("boxes.sequence_multiplicity.s", "s", "lower", "peak_rss_mb and op_s.p90 on deep-chain"),
    ("boxes.vertical_subdivision.calls", "count", "lower",
     "peak_rss_mb and op_s.p90 on deep-chain"),
    ("boxes.vertical_subdivision.s", "s", "lower", "peak_rss_mb and op_s.p90 on deep-chain"),
    ("boxes.vertical_subdivision.peak_mb", "MB", "lower",
     "peak_rss_mb and op_s.p90 on deep-chain"),
    ("concat.build_chain.self_s", "s", "lower", "ops_per_s and op_s.p50 on deep-chain"),
    ("concat.build_chain.records", "count", "lower", "ops_per_s and op_s.p50 on deep-chain"),
    ("concat.verify_chain.s", "s", "lower", "ops_per_s and op_s.p50 on deep-chain"),
    ("concat.distortion_budget.s", "s", "lower", "ops_per_s and op_s.p50 on deep-chain"),
    ("concat.distortion_budget.walk_points", "count", "lower",
     "ops_per_s and op_s.p50 on deep-chain"),
    ("concat.reach_vertical_section.self_s", "s", "lower",
     "ops_per_s and op_s.p50 on deep-chain"),
    ("nilpotent.matmul.calls", "count", "lower", "ops_per_s and op_s.p50 on action"),
    ("nilpotent.matmul.s", "s", "lower", "ops_per_s and op_s.p50 on action"),
    ("nilpotent.power.s", "s", "lower", "ops_per_s and op_s.p50 on action"),
    ("nilpotent.conjugacy_check.calls", "count", "lower", "ops_per_s and op_s.p50 on action"),
    ("nilpotent.conjugacy_check.self_s", "s", "lower", "ops_per_s and op_s.p50 on action"),
    ("smooth.growth_bound_check.s", "s", "lower", "op_s.p90 on action"),
    ("smooth.holder_constant_estimate.s", "s", "lower", "op_s.p90 on action"),
    ("smooth.blowup_scan.s", "s", "lower", "op_s.p90 on action"),
    ("smooth.wandering_sum_check.s", "s", "lower", "op_s.p90 on action"),
    ("smooth.sweep_points", "count", "lower", "op_s.p90 on action"),
    ("cli.self_s", "s", "lower", "op_s.p50 and ops_per_s on cli-short"),
    ("cli.write_report.s", "s", "lower", "op_s.p50 and ops_per_s on cli-short"),
    ("cli.report_bytes", "bytes", "lower", "op_s.p50 and ops_per_s on cli-short"),
    ("cli.rows_failed", "count", "lower",
     "no time metric: a flipped verdict shows here even when no op fails"),
)

SPAN_STATS = ("calls", "s", "self_s")  # metric suffixes derived from spans


def _bind(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _bits(out, tracer, *_) -> None:
    if isinstance(out, Fraction):
        bits = max(out.numerator.bit_length(), out.denominator.bit_length())
        tracer.maxima["lattice.mass_bits.max"] = max(
            tracer.maxima["lattice.mass_bits.max"], bits)


def _steps(out, tracer, fn, args, kwargs) -> None:
    a = _bind(fn, args, kwargs)
    tracer.counters["walks.batch_certificates.steps"] += a["samples"] * a["n"]


def _sweep(out, tracer, fn, args, kwargs) -> None:
    a = _bind(fn, args, kwargs)
    tracer.counters["smooth.sweep_points"] += a["grid"] * a["k_max"]


def _subdivision(out, tracer, fn, args, kwargs) -> None:
    tracer.subdivision_inputs.append((fn, args, kwargs))


def _count(name, value):
    def hook(out, tracer, *_):
        tracer.counters[name] += value(out)
    return hook


def _report_bytes(out, tracer, *_):
    with open(out, "rb") as fh:
        tracer.counters["cli.report_bytes"] += len(fh.read())


# (module, attribute or Class.method, span name, hook).  A hook receives
# the result, the tracer and the call (function, args, kwargs).
TARGETS = (
    ("critreg.lattice", "ProductFamily.box_mass", "lattice.exact_mass", _bits),
    ("critreg.lattice", "ProductFamily.segment_mass", "lattice.exact_mass", _bits),
    ("critreg.lattice", "TableFamily.box_mass", "lattice.exact_mass", _bits),
    ("critreg.lattice", "TableFamily.segment_mass", "lattice.exact_mass", _bits),
    ("critreg.lattice", "LengthFamily.box_mass_log2", "lattice.log2_mass", None),
    ("critreg.lattice", "ProductFamily.box_mass_log2", "lattice.log2_mass", None),
    ("critreg.lattice", "ProductFamily.segment_mass_log2", "lattice.log2_mass", None),
    ("critreg.lattice", "ProductFamily.segment_power_log2", "lattice.log2_mass", None),
    ("critreg.lattice", "TableFamily.segment_mass_log2", "lattice.log2_mass", None),
    ("critreg.lattice", "TableFamily.segment_power_log2", "lattice.log2_mass", None),
    ("critreg.walks", "batch_certificates", "walks.batch_certificates", _steps),
    ("critreg.walks", "sample_and_certify", "walks.sample_and_certify",
     _count("walks.sample_and_certify.attempts", lambda out: out[1])),
    ("critreg.boxes", "build_sequence", "boxes.build_sequence", None),
    ("critreg.boxes", "sequence_multiplicity", "boxes.sequence_multiplicity", None),
    ("critreg.boxes", "vertical_subdivision", "boxes.vertical_subdivision", _subdivision),
    ("critreg.concat", "build_chain", "concat.build_chain",
     _count("concat.build_chain.records", lambda out: len(out.records))),
    ("critreg.concat", "verify_chain", "concat.verify_chain", None),
    ("critreg.concat", "distortion_budget", "concat.distortion_budget",
     _count("concat.distortion_budget.walk_points", lambda out: out.total_points)),
    ("critreg.concat", "reach_vertical_section", "concat.reach_vertical_section", None),
    ("critreg.nilpotent", "UnipotentMatrix.__mul__", "nilpotent.matmul", None),
    ("critreg.nilpotent", "UnipotentMatrix.power", "nilpotent.power", None),
    ("critreg.nilpotent", "conjugacy_distortion_check", "nilpotent.conjugacy_check", None),
    ("critreg.smooth", "growth_bound_check", "smooth.growth_bound_check", _sweep),
    ("critreg.smooth", "holder_constant_estimate", "smooth.holder_constant_estimate", None),
    ("critreg.smooth", "blowup_scan", "smooth.blowup_scan", _sweep),
    ("critreg.smooth", "wandering_sum_check", "smooth.wandering_sum_check", None),
    ("critreg.cli", "main", "cli", None),
    ("critreg.cli", "write_report", "cli.write_report", _report_bytes),
)


class Tracer:
    """In-memory span recorder; ``install`` wraps the targets in place."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.stack: list[int] = []
        self.op: int | None = None
        self.counters: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)
        self.subdivision_inputs: list = []
        self.missing: list[str] = []
        self._undo: list = []

    def wrap(self, fn, name: str, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer.stack[-1] if tracer.stack else -1
            rec = [name, 0.0, 0.0, parent, tracer.op]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                tracer.stack.pop()
            if hook is not None:
                # a counter that no longer fits the program's API must not
                # turn into a failed op; it is reported as missing instead
                try:
                    hook(out, tracer, fn, args, kwargs)
                except Exception as exc:  # noqa: BLE001
                    note = f"{name} counter: {type(exc).__name__}: {exc}"
                    if note not in tracer.missing:
                        tracer.missing.append(note)
            return out

        return traced

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items() if k.startswith("critreg")]
        for mod_name, attr, name, hook in TARGETS:
            mod = importlib.import_module(mod_name)
            owner_name, _, leaf = attr.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            if owner is None or leaf not in vars(owner):
                self.missing.append(f"{mod_name}.{attr}")
                continue
            fn = vars(owner)[leaf]
            wrapped = self.wrap(fn, name, hook)
            if owner_name:
                self._patch(owner, leaf, wrapped)
                continue
            # module functions may be bound by name in sibling modules too
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        self._patch(m, key, wrapped)

    def _patch(self, owner, key, value) -> None:
        self._undo.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()

    def layer_metrics(self) -> dict[str, float]:
        child: dict[int, float] = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        stats: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            stats[f"{name}.calls"] += 1
            stats[f"{name}.s"] += end - start
            stats[f"{name}.self_s"] += end - start - child[i]
        out = {}
        for metric, *_ in LAYER_METRICS:
            if metric.rpartition(".")[2] in SPAN_STATS:
                out[metric] = stats[metric]
            else:
                out[metric] = self.maxima.get(metric, self.counters[metric])
        return out

    def subdivision_peak_mb(self) -> float:
        """tracemalloc peak of each distinct subdivision input, run again.

        The repeat keeps tracemalloc's own cost out of every timed span.
        """
        import tracemalloc

        peak = 0.0
        seen = set()
        for fn, args, kwargs in self.subdivision_inputs:
            key = repr((args, sorted(kwargs.items())))
            if key in seen:
                continue
            seen.add(key)
            tracemalloc.start()
            try:
                fn(*args, **kwargs)
                peak = max(peak, tracemalloc.get_traced_memory()[1] / 2 ** 20)
            finally:
                tracemalloc.stop()
        return peak

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")
