"""Acceptance suite: one test per criterion, each printing a verdict line.

Every tolerance is pinned here; nothing is deferred to later calibration.
Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
"""

import random
from fractions import Fraction

import numpy as np
import pytest

from critreg import smooth
from critreg.boxes import build_sequence, sequence_multiplicity
from critreg.cli import ExperimentConfig, run, write_report
from critreg.concat import build_chain, distortion_budget, measured, verify_chain
from critreg.lattice import geometric_family, mass_le, symmetric_geometric_family
from critreg.nilpotent import conjugacy_distortion_check, generator
from critreg.smooth import (
    fundamental_domain_check,
    holder_constant_estimate,
    parabolic_map,
)
from critreg.walks import batch_certificates

from oracles import (
    WalkKernel,
    arrival_distribution,
    identity_alphabet,
    identity_triples,
    renormalize,
    restrict,
)

HALF = Fraction(1, 2)
THIRD = Fraction(1, 3)


def _verdict(num: int, ok: bool, desc: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def test_01_exact_equidistribution():
    ok = True
    for d in (2, 3):
        kernel = WalkKernel(d)
        for n in range(0, 9):
            dist = arrival_distribution(kernel, n)
            size = len(dist)
            ok = ok and all(p == Fraction(1, size) for p in dist.values())
    _verdict(1, ok, "arrival laws uniform on spheres, exact rationals, d in {2,3}, n <= 8")


def test_02_walk_certificates():
    ok = True
    details = []
    for d in (2, 3):
        fam = geometric_family(d)
        for n in (10, 100, 1000):
            s = batch_certificates(fam, n, 10_000, seed=42)
            ok = ok and s.success_fraction >= 0.33 and s.mean_ok
            details.append(f"d={d},n={n}:{s.success_fraction:.2f}/{s.mean_cost:.3f}")
    _verdict(2, ok, "10^4 seeded attempts per cell; " + "; ".join(details))


def test_03_box_multiplicities():
    m_d2 = sequence_multiplicity(
        build_sequence("B-d2", alphas=(HALF, HALF), n_max=20)
    )
    m_g3 = sequence_multiplicity(
        build_sequence("B-general", alphas=(THIRD,) * 3, n_max=12)
    )
    m_ff = {
        d: sequence_multiplicity(build_sequence("FF", d=d, n_max=16)) for d in (3, 4)
    }
    ok = m_d2 == 4 and m_g3 <= 5 and m_ff[3] <= 5 and m_ff[4] <= 6
    _verdict(
        3, ok, f"multiplicities: planar={m_d2} (=4), general-d3={m_g3} (<=5), "
        f"orbit d3={m_ff[3]} (<=5), d4={m_ff[4]} (<=6)"
    )


def test_04_planar_chain():
    fam = geometric_family(2)
    seq = build_sequence("B-d2", alphas=(HALF, HALF), n_max=15)
    cert = build_chain("B-d2", fam, seq)
    flags = all(mass_le(fam, r.seg, r.bound) for r in cert.records)
    flags = flags and verify_chain(cert, fam)["all"]
    # consecutive segments share their recorded witness point
    witnesses = all(
        a.exit == b.entry for a, b in zip(cert.records, cert.records[1:])
    )
    constants = measured(cert, fam)
    d_meas = constants["D"]
    counts = all(
        max(r.points_between for r in cert.records if r.n == n)
        >= 2.0 ** (n / 2) / d_meas * (1 - 1e-12)
        for n in seq.indices()
    )
    # closed-form comparison for the measured power-bound constant
    a1 = a2 = 0.5
    d1 = max(
        max(2.0 ** (n * a2) / seq.box(n).side(1), 2.0 ** (n * a1) / seq.box(n).side(0))
        for n in seq.indices()
    )
    d2 = max(
        max(seq.box(n).side(0) / 2.0 ** (n * a1), seq.box(n).side(1) / 2.0 ** (n * a2))
        for n in seq.indices()
    )
    closed = max(d1 ** a1 * d2 ** a2, d1 ** a2 * d2 ** a1)
    b_ok = constants["B"] <= closed
    ok = flags and witnesses and counts and b_ok
    _verdict(
        4, ok, f"planar chain n<=15: flags={flags}, witnesses={witnesses}, "
        f"counts={counts}, B={constants['B']:.3f} <= closed form {closed:.3f}"
    )


def test_05_orbit_chain():
    fam = symmetric_geometric_family(2)
    seq = build_sequence("FF", d=3, n_max=13)
    cert = build_chain("FF-d3", fam, seq)
    flags = all(mass_le(fam, r.seg, r.bound) for r in cert.records if r.n <= 12)
    reverify = verify_chain(cert, fam)["all"]
    rep = distortion_budget(cert, fam)
    window = [r for r in rep.rows if 4 <= r.n <= 12]
    ratios = [r.ratio for r in window]
    spread = max(ratios) / min(ratios)
    ok = flags and reverify and spread < 2.0
    _verdict(
        5, ok, f"orbit chain: per-segment flags for n<=12 ({flags}), "
        f"budget/(ln N)^(2/3) spread {spread:.3f} < 2 over 4<=n<=12"
    )


def test_07_distortion_identity():
    rng = random.Random(7)
    ok = True
    total = 0
    for model, d in (("translation", 2), ("translation", 3), ("ff", 3)):
        gens, lattice_d = identity_alphabet(model, d)
        n = lattice_d + 1
        powers = {k: generator(n, n, 1, k) for k in range(1, 6)}
        check = conjugacy_distortion_check(powers, gens)
        residuals = [check(*t) for t in identity_triples(rng, gens, lattice_d, 1000)]
        ok = ok and not any(residuals)
        total += len(residuals)
    _verdict(7, ok, f"slope identity residual exactly zero on {total} random triples")


def _domain_rows(c, alpha, k_max):
    g = parabolic_map(c)
    return fundamental_domain_check(
        g, alpha, holder_constant_estimate(g, alpha), k_max
    )


def _image_lengths(c, k_max):
    """|g^k J| for k < k_max on the parabolic map, and whether the images
    form one rightward chain of shared endpoints (so are disjoint)."""
    _, ends = smooth._domain_orbit(parabolic_map(c), k_max)
    steps = ends[:, 1] - ends[:, 0]
    chain = np.array_equal(ends[1:, 0], ends[:-1, 1]) and bool((steps >= 0).all())
    return steps[:-1], chain


def test_08_growth_bound_suite():
    ok = True
    for c in (0.5, 1.0, 2.0):
        lengths, _ = _image_lengths(c, 10_000)
        ks = np.arange(1, 10_001)
        for alpha in (1 / 3, 1 / 2):
            rep = _domain_rows(c, alpha, 10_000)
            # |I| = 1
            closed_form = (np.cumsum(lengths ** alpha) <= ks ** (1 - alpha)).all()
            ok = ok and rep.distortion.passed and bool(closed_form)
    rng = random.Random(5)
    renorm_ok = True
    for _ in range(10):
        a = rng.uniform(0.0, 0.6)
        b = rng.uniform(a + 0.2, min(a + 0.7, 1.0))
        g = restrict(parabolic_map(1.0), a, b)
        c1 = holder_constant_estimate(g, 0.5)
        c2 = holder_constant_estimate(renormalize(g), 0.5)
        renorm_ok = renorm_ok and abs(c2 - c1 * (b - a) ** 0.5) < 1e-8
    ok = ok and renorm_ok
    _verdict(
        8, ok, "distortion on J within C*sum|g^i J|^alpha <= C|I|^alpha k^(1-alpha) "
        "for c in {0.5,1,2}, alpha in {1/3,1/2}, k<=10^4; rescaling identity to "
        f"1e-8 on 10 subintervals ({renorm_ok})"
    )


def test_09_wandering_images():
    _, chain = _image_lengths(1.0, 1000)
    ok = chain and _domain_rows(1.0, 0.5, 1000).partial_sums[-1] <= 1.0
    _verdict(
        9, ok, "forward images of J: sums <= |I| with exact disjointness, k<=1000"
    )


def test_10_deterministic_reports(tmp_path):
    cfg = dict(kind="lemma1", d=2, n_max=50, samples=500, seed=42)
    r1 = run(ExperimentConfig(**cfg))
    r2 = run(ExperimentConfig(**cfg))
    p1 = write_report(r1, tmp_path / "a")
    p2 = write_report(r2, tmp_path / "b")
    same = p1.read_bytes() == p2.read_bytes()
    cfg2 = dict(kind="chain-ff", d=3, family="symmetric-geometric", n_max=11, seed=1)
    q1 = write_report(run(ExperimentConfig(**cfg2)), tmp_path / "c")
    q2 = write_report(run(ExperimentConfig(**cfg2)), tmp_path / "d")
    same2 = q1.read_bytes() == q2.read_bytes()
    _verdict(10, same and same2, "identical (config, seed) gives byte-identical reports")
