"""Acceptance suite.

One test per criterion, each at its stated sample size, tolerance and time
budget, printing a single PASS/FAIL line (run pytest with -s or -v to see
them).
"""

import cmath
import math
import time

import numpy as np
import pytest

import boundarykit as bk
from boundarykit.cli import main as cli_main
from boundarykit.cochains import model_coboundary
from boundarykit.hyperbolic import (apply_isometry, cartan_invariant_batch,
                                    random_unitary_isometry)
from boundarykit.sampling import (chart_tuple_sampler, draw_tuples,
                                  random_boundary_point,
                                  random_complex_boundary_point,
                                  random_hyperbolic_point,
                                  random_mixed_cochain, random_smooth_cochain)


def _finish(number, name, elapsed, limit, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"[criterion {number:2d}] {name}: {status} ({elapsed:.2f}s / {limit}s)")
    assert not failures, f"criterion {number}: " + "; ".join(failures)
    assert elapsed < limit, f"criterion {number} exceeded {limit}s ({elapsed:.2f}s)"


def test_criterion_01_cross_ratio_moebius_invariance():
    start = time.time()
    rng = np.random.default_rng(101)
    failures = []
    worst = 0.0
    for _ in range(10_000):
        vals = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        pts = [bk.ProjectivePoint.from_value(v, "complex") for v in vals]
        m = bk.MoebiusMap.random(rng, "complex")
        before = bk.cross_ratio(*pts)
        after = bk.cross_ratio(*(bk.apply_moebius(m, p) for p in pts))
        worst = max(worst, abs(after - before) / max(1.0, abs(before)))
    if worst > 1e-9:
        failures.append(f"relative error {worst:.2e} > 1e-9")
    _finish(1, "cross-ratio Moebius invariance (10^4 pairs)",
            time.time() - start, 2, failures)


def test_criterion_02_coboundary_and_alternation():
    start = time.time()
    rng = np.random.default_rng(102)
    failures = []
    worst_dd = 0.0
    for arity in (1, 2, 3):
        f = random_smooth_cochain(arity, rng)
        ddf = bk.coboundary(bk.coboundary(f))
        for _ in range(334):
            pts = tuple(random_boundary_point(rng, 2) for _ in range(arity + 2))
            worst_dd = max(worst_dd, abs(ddf(*pts)))
    if worst_dd > 1e-10:
        failures.append(f"|delta delta f| = {worst_dd:.2e} > 1e-10")
    worst_proj = 0.0
    for arity in (2, 3):
        f = random_smooth_cochain(arity, rng)
        proj = bk.alternating_projection(f)
        proj2 = bk.alternating_projection(proj)
        for _ in range(500):
            pts = tuple(random_boundary_point(rng, 2) for _ in range(arity))
            worst_proj = max(worst_proj, abs(proj2(*pts) - proj(*pts)))
    if worst_proj > 1e-10:
        failures.append(f"projection idempotence residual {worst_proj:.2e} > 1e-10")
    _finish(2, "coboundary squares to zero; alternation projection idempotent",
            time.time() - start, 2, failures)


def test_criterion_03_cone_homotopy_identity():
    start = time.time()
    rng = np.random.default_rng(103)
    failures = []
    worst = 0.0
    for p in (1, 2, 3):
        f = random_mixed_cochain(p + 1, 3, rng)
        for _ in range(100):
            models = tuple(random_hyperbolic_point(rng, 2) for _ in range(p + 1))
            boundary = tuple(random_boundary_point(rng, 2) for _ in range(3))
            lhs = f(models, boundary)
            rhs = (bk.cone_homotopy(model_coboundary(f), boundary)(*models)
                   + model_coboundary(bk.cone_homotopy(f, boundary))(*models))
            worst = max(worst, abs(lhs - rhs))
    if worst > 1e-12:
        failures.append(f"identity residual {worst:.2e} > 1e-12")
    _finish(3, "cone homotopy identity f = H(df) + d(Hf), p in {1,2,3}",
            time.time() - start, 5, failures)


def test_criterion_04_vol3_cocycle_and_regular_tetrahedron():
    start = time.time()
    rng = np.random.default_rng(104)
    failures = []
    worst = 0.0
    for pts in draw_tuples(chart_tuple_sampler(5), rng, 1000):
        total = 0.0
        for i in range(5):
            total += (-1) ** i * bk.vol3(*(pts[:i] + pts[i + 1:]))
        worst = max(worst, abs(total))
    if worst > 1e-7:
        failures.append(f"cocycle defect {worst:.2e} > 1e-7")
    regular = bk.vol3(bk.ProjectivePoint.infinity("complex"),
                      bk.ProjectivePoint.from_value(0j),
                      bk.ProjectivePoint.from_value(1 + 0j),
                      bk.ProjectivePoint.from_value(cmath.exp(1j * math.pi / 3)))
    if abs(regular - 1.0149416064) > 1e-9:
        failures.append(f"regular tetrahedron volume {regular!r}")
    _finish(4, "Vol3 cocycle on 10^3 5-tuples; regular ideal tetrahedron",
            time.time() - start, 10, failures)


def test_criterion_05_cartan_invariant():
    start = time.time()
    rng = np.random.default_rng(105)
    failures = []
    n = 100_000
    w = rng.standard_normal((3, n, 2)) + 1j * rng.standard_normal((3, n, 2))
    w /= np.linalg.norm(w, axis=2, keepdims=True)
    lifts = np.concatenate([w, np.ones((3, n, 1))], axis=2) / math.sqrt(2)
    values = cartan_invariant_batch(lifts[0], lifts[1], lifts[2])
    if not np.all(np.abs(values) <= math.pi / 2 + 1e-10):
        failures.append("sampled value outside [-pi/2, pi/2] + 1e-10")

    def ball_point(w):
        return bk.ComplexBoundaryPoint.from_ball_direction(w)

    real_triple = [ball_point([math.cos(t), math.sin(t)]) for t in (0.3, 1.4, 2.9)]
    if abs(bk.cartan_invariant(*real_triple)) > 1e-10:
        failures.append("totally real triple has nonzero invariant")
    chain_triple = [ball_point([np.exp(1j * t), 0.0]) for t in (0.4, 1.5, 3.4)]
    chain_value = bk.cartan_invariant(*chain_triple)
    if abs(abs(chain_value) - math.pi / 2) > 1e-10:
        failures.append(f"chain triple invariant {chain_value!r} not +-pi/2")
    worst = 0.0
    for _ in range(100):
        triple = [random_complex_boundary_point(rng, 2) for _ in range(3)]
        g = random_unitary_isometry(rng, 2)
        a = bk.cartan_invariant(*triple)
        b = bk.cartan_invariant(*(apply_isometry(g, p) for p in triple))
        worst = max(worst, abs(a - b))
    if worst > 1e-9:
        failures.append(f"isometry invariance residual {worst:.2e} > 1e-9")
    _finish(5, "Cartan invariant: range on 10^5 triples, special values, invariance",
            time.time() - start, 10, failures)


def test_criterion_06_flag_genericity_and_triple_ratio():
    start = time.time()
    rng = np.random.default_rng(106)
    failures = []
    stats = bk.sampling_stats(bk.SamplerConfig(model="flags3", count=100_000,
                                               seed=106))
    if stats["acceptance_rate"] < 0.999:
        failures.append(f"acceptance rate {stats['acceptance_rate']:.5f} < 0.999")

    def random_sl3():
        while True:
            g = rng.standard_normal((3, 3))
            d = np.linalg.det(g)
            if abs(d) > 0.1:
                if d < 0:
                    g[0] = -g[0]
                    d = -d
                return g / d ** (1.0 / 3.0)

    worst_inv = worst_alg = 0.0
    checked = 0
    while checked < 200:
        triple = tuple(bk.random_flag(rng) for _ in range(3))
        if not bk.is_generic_triple(*triple):
            continue
        checked += 1
        t = bk.triple_ratio(*triple)
        g = random_sl3()
        t_g = bk.triple_ratio(*(f.apply(g) for f in triple))
        worst_inv = max(worst_inv, abs(t_g - t) / abs(t))
        inv = bk.triple_ratio(triple[1], triple[0], triple[2])
        cyc = bk.triple_ratio(triple[1], triple[2], triple[0])
        worst_alg = max(worst_alg, abs(t * inv - 1.0), abs(cyc - t) / abs(t))
    if worst_inv > 1e-9:
        failures.append(f"SL(3) invariance {worst_inv:.2e} > 1e-9")
    if worst_alg > 1e-12:
        failures.append(f"transposition/cyclicity residual {worst_alg:.2e} > 1e-12")
    _finish(6, "flags: genericity rate on 10^5; triple-ratio identities",
            time.time() - start, 10, failures)


def test_criterion_07_configuration_probes():
    start = time.time()
    failures = []
    _, s1 = bk.compactness_probe("orientation_class",
                                 bk.SamplerConfig(model="S1", count=10_000, seed=107))
    if s1["classes_observed"] != [-1.0, 1.0]:
        failures.append(f"orientation classes {s1['classes_observed']}")
    _, flags = bk.compactness_probe("triple_ratio",
                                    bk.SamplerConfig(model="flags3", count=100_000,
                                                     seed=108))
    if flags["verdict"] != "escape-detected":
        failures.append("flags3 probe did not detect escape")
    if not (flags["abs_max"] > 1e3 and flags["abs_min"] < 1e-3):
        failures.append(f"triple-ratio range [{flags['abs_min']:.1e}, "
                        f"{flags['abs_max']:.1e}] misses thresholds")
    _finish(7, "probes: 2 orientation classes on S^1; flags3 escape detection",
            time.time() - start, 10, failures)


def test_criterion_08_certifier_soundness():
    start = time.time()
    rng = np.random.default_rng(109)
    failures = []
    if bk.five_term_defect(bk.const_function(2.0), 0.35, 0.8) != 2.0:
        failures.append("five-term defect of a constant is not the constant")

    F = bk.vol3_slice()
    delta = 0.1
    cert = bk.certify_complex_region(F, delta=delta)
    if not math.isfinite(cert.certified_bound):
        failures.append("vol3-slice certificate is not finite")
    m = 316  # 10x the default grid point count on the target region
    sup = 0.0
    for r in np.linspace(1.0 - delta + 1e-9, 1.0, m):
        for t in np.linspace(-delta + 1e-9, delta - 1e-9, m):
            sup = max(sup, abs(F(cmath.rect(r, t))))
    if cert.certified_bound < sup - 1e-9:
        failures.append(f"certificate {cert.certified_bound:.6f} below "
                        f"empirical sup {sup:.6f}")

    try:
        bk.certify_interval(bk.pole_function(), delta=0.125)
        failures.append("pole function was not refused")
    except bk.UnboundedDefect:
        pass

    worst = 0.0
    smooth = bk.ScalarFunction(evaluator=lambda x: math.exp(-(x - 0.4) ** 2),
                               field_tag="real")
    for _ in range(200):
        x = rng.uniform(-2.0, 2.0)
        if min(abs(x), abs(x - 1.0), abs(x + 1.0)) < 1e-2:
            continue
        worst = max(worst, abs(bk.doubling_defect(smooth, x)
                               - bk.five_term_defect(smooth, x, x * x)))
    if worst > 1e-12:
        failures.append(f"doubling/five-term residual {worst:.2e} > 1e-12")

    c_value = cert.inputs["B_defect"] + 2.0 * cert.inputs["M_near2"]
    if cert.certified_bound != cert.inputs["M_base"] + 2.0 * c_value:
        failures.append("certified_bound is not M_base + 2C from its own fields")
    _finish(8, "certifier: exact constants, sound Vol3 bound, pole refusal",
            time.time() - start, 30, failures)


def test_criterion_09_restriction_preserves_gram_ratios():
    start = time.time()
    rng = np.random.default_rng(110)
    failures = []
    worst = 0.0
    for _ in range(1000):
        pts = tuple(random_boundary_point(rng, 5) for _ in range(4))
        out, _ = bk.restrict_to_h3(*pts)
        for idx in ((0, 1, 2, 3), (0, 2, 1, 3), (0, 3, 1, 2)):
            a = bk.gram_ratio(pts, *idx)
            b = bk.gram_ratio(out, *idx)
            worst = max(worst, abs(a - b) / max(1.0, abs(a)))
    if worst > 1e-9:
        failures.append(f"Gram-ratio drift {worst:.2e} > 1e-9")
    _finish(9, "restrict_to_h3 preserves Gram ratios on 10^3 tuples in dH^5",
            time.time() - start, 5, failures)


def test_criterion_10_cli_determinism(tmp_path):
    start = time.time()
    failures = []
    suite = [
        ("sample", ["sample", "--model", "S1", "--count", "1000"]),
        ("invariant", ["invariant", "--model", "complex_hyperbolic",
                       "--count", "1000"]),
        ("verify-cocycle", ["verify-cocycle", "--count", "1000"]),
        ("certify-bound", ["certify-bound", "--function", "vol3-slice"]),
        ("probe", ["probe-config-space", "--model", "flags3",
                   "--count", "10000"]),
    ]
    for name, argv in suite:
        paths = [tmp_path / f"{name}_{run}.json" for run in (1, 2)]
        codes = [cli_main(argv + ["--seed", "42", "--out", str(p)])
                 for p in paths]
        if any(c not in (0,) for c in codes):
            failures.append(f"{name} exited with {codes}")
        if paths[0].read_bytes() != paths[1].read_bytes():
            failures.append(f"{name} reports differ between runs")
    _finish(10, "CLI determinism: byte-identical reports per subcommand",
            time.time() - start, 30, failures)
