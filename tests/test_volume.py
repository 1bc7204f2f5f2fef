import cmath
import math

import numpy as np
import pytest

from boundarykit import (MAX_VOL3, DegenerateTuple, LobachevskyEvaluator,
                         MoebiusMap, ProjectivePoint, RealBoundaryPoint,
                         apply_moebius, lobachevsky, vol2, vol3,
                         vol3_from_cross_ratio)
from boundarykit.sampling import chart_tuple_sampler, draw_tuples
from boundarykit.volume import lobachevsky_batch, vol3_from_cross_ratio_batch

LOB_PI_6 = 0.5074708032048268  # frozen from the N = 10^6 truncated series


def circle_point(deg):
    a = math.radians(deg)
    return RealBoundaryPoint([math.cos(a), math.sin(a)])


def cp(value):
    return ProjectivePoint.from_value(value, "complex")


# ---------------------------------------------------------------------------
# Lobachevsky function


def test_lobachevsky_zeros_and_oddness():
    assert lobachevsky(0.0) == 0.0
    assert abs(lobachevsky(math.pi)) <= 1e-14
    for t in (0.3, 1.1, 2.7):
        assert lobachevsky(-t) == pytest.approx(-lobachevsky(t), abs=1e-14)
        assert lobachevsky(t + math.pi) == pytest.approx(lobachevsky(t), abs=1e-13)


def test_lobachevsky_value_at_pi_over_6():
    assert lobachevsky(math.pi / 6) == pytest.approx(LOB_PI_6, abs=1e-12)


def test_evaluator_matches_fast_route_within_tail_bound():
    ev = LobachevskyEvaluator(truncation=20_000)
    assert ev.tail_bound <= 1.0 / ev.truncation
    for t in np.linspace(0.05, math.pi - 0.05, 25):
        assert abs(ev(t) - lobachevsky(t)) <= ev.tail_bound


def test_evaluator_at_default_truncation():
    ev = LobachevskyEvaluator()  # N = 10^6
    assert ev(math.pi / 6) == pytest.approx(LOB_PI_6, abs=ev.tail_bound)


def test_duplication_identity():
    ev = LobachevskyEvaluator(truncation=50_000)
    for t in np.linspace(0.1, 1.4, 14):
        lhs = ev(2 * t)
        rhs = 2 * ev(t) + 2 * ev(t + math.pi / 2)
        assert abs(lhs - rhs) <= 4 * ev.tail_bound
        assert lobachevsky(2 * t) == pytest.approx(
            2 * lobachevsky(t) + 2 * lobachevsky(t + math.pi / 2), abs=1e-13)


# ---------------------------------------------------------------------------
# Vol_2


def test_vol2_counterclockwise_triple_is_plus_pi():
    assert vol2(circle_point(0), circle_point(120), circle_point(240)) == math.pi


def test_vol2_alternating():
    x, y, z = circle_point(10), circle_point(100), circle_point(260)
    assert vol2(x, y, z) == -vol2(y, x, z)
    assert vol2(x, y, z) == vol2(y, z, x)


def test_vol2_rejects_coincident_points():
    with pytest.raises(DegenerateTuple):
        vol2(circle_point(10), circle_point(10), circle_point(100))


def test_vol2_coboundary_vanishes_exactly():
    rng = np.random.default_rng(61)
    for _ in range(300):
        angles = rng.uniform(0, 360, 4)
        if np.min(np.abs(np.subtract.outer(angles, angles))
                  + np.eye(4) * 360) < 1.0:
            continue
        pts = [circle_point(a) for a in angles]
        total = 0.0
        for i in range(4):
            rest = pts[:i] + pts[i + 1:]
            total += (-1) ** i * vol2(*rest)
        assert total == 0.0


# ---------------------------------------------------------------------------
# Vol_3


def test_vol3_regular_ideal_tetrahedron():
    z = cmath.exp(1j * math.pi / 3)
    value = vol3(ProjectivePoint.infinity("complex"), cp(0), cp(1), cp(z))
    assert value == pytest.approx(1.0149416064, abs=1e-9)
    assert value == pytest.approx(MAX_VOL3, abs=1e-13)


def test_vol3_real_cross_ratio_is_flat():
    assert vol3(ProjectivePoint.infinity("complex"), cp(0), cp(1), cp(2.5)) == 0.0
    assert vol3_from_cross_ratio(-3.7) == 0.0


def test_vol3_alternating_under_transposition():
    rng = np.random.default_rng(62)
    for _ in range(100):
        vals = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        pts = [cp(v) for v in vals]
        a = vol3(*pts)
        assert vol3(pts[1], pts[0], pts[2], pts[3]) == pytest.approx(-a, abs=1e-12)
        assert vol3(pts[0], pts[2], pts[1], pts[3]) == pytest.approx(-a, abs=1e-12)


def test_vol3_moebius_invariance():
    rng = np.random.default_rng(63)
    for _ in range(200):
        vals = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        pts = [cp(v) for v in vals]
        m = MoebiusMap.random(rng, "complex")
        a = vol3(*pts)
        b = vol3(*(apply_moebius(m, p) for p in pts))
        assert b == pytest.approx(a, abs=1e-9)


def test_vol3_accepts_sphere_points_through_the_chart():
    rng = np.random.default_rng(64)
    sampler = chart_tuple_sampler(4)
    (pts,) = draw_tuples(sampler, rng, 1)
    assert isinstance(vol3(*pts), float)


def test_vol3_cocycle_identity_sample():
    rng = np.random.default_rng(65)
    sampler = chart_tuple_sampler(5)
    for pts in draw_tuples(sampler, rng, 200):
        total = 0.0
        for i in range(5):
            rest = pts[:i] + pts[i + 1:]
            total += (-1) ** i * vol3(*rest)
        assert abs(total) <= 1e-7


def test_vol3_maximality():
    rng = np.random.default_rng(66)
    best = 0.0
    for _ in range(10_000):
        z = complex(rng.standard_normal(), rng.standard_normal())
        if min(abs(z), abs(z - 1)) < 1e-6:
            continue
        v = abs(vol3_from_cross_ratio(z))
        assert v <= MAX_VOL3 + 1e-9
        best = max(best, v)
    assert best >= MAX_VOL3 - 0.05  # maximum approached near z = e^{+-i pi/3}


# ---------------------------------------------------------------------------
# array kernels


def test_lobachevsky_batch_matches_the_clausen_oracle():
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(71)
    theta = np.concatenate([[0.0, math.pi / 2, -math.pi / 2, math.pi, -math.pi],
                            rng.uniform(-math.pi, math.pi, 1995)])
    with mpmath.workdps(20):  # L(t) = Cl_2(2t)/2 at the float t, with guard digits
        oracle = np.array([float(mpmath.clsin(2, 2 * mpmath.mpf(t)) / 2) for t in theta])
    assert np.max(np.abs(lobachevsky_batch(theta) - oracle)) <= 1e-14


def test_lobachevsky_batch_refuses_angles_beyond_pi():
    with pytest.raises(ValueError, match="pi"):
        lobachevsky_batch(np.array([0.5, math.nextafter(math.pi, 4.0)]))


def test_vol3_batch_matches_the_scalar_route():
    rng = np.random.default_rng(72)
    n = 5000
    general = 2.0 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    # imaginary parts from 1e-3 down to 1e-300, of either sign
    near_real = 3.0 * rng.standard_normal(n) + 1j * (
        rng.choice([-1.0, 1.0], n) * 10.0 ** -rng.uniform(3, 300, n))
    near_0_and_1 = (rng.choice([0.0, 1.0], n)
                    + 1e-6 * (rng.standard_normal(n) + 1j * rng.standard_normal(n)))
    real = 5.0 * rng.standard_normal(n)
    z = np.concatenate([general, near_real, near_0_and_1, real])
    scalar = np.array([vol3_from_cross_ratio(w) for w in z.tolist()])
    batch = vol3_from_cross_ratio_batch(z)
    assert np.max(np.abs(batch - scalar)) <= 4e-15
    assert np.all(batch[-n:] == 0.0)  # real cross ratios span flat simplices


def test_vol3_batch_at_the_regular_tetrahedron():
    z = np.array([cmath.exp(1j * math.pi / 3), cmath.exp(-1j * math.pi / 3)])
    # the phases of e^{i pi/3}, 1/(1-z) and 1-1/z round to within an ulp of pi/3
    assert vol3_from_cross_ratio_batch(z) == pytest.approx([MAX_VOL3, -MAX_VOL3], abs=1e-15)


@pytest.mark.parametrize("bad", [0.0, 1.0, complex(math.inf, 0.0), complex(math.nan, 1.0)])
def test_vol3_batch_rejects_degenerate_cross_ratios(bad):
    with pytest.raises(DegenerateTuple):
        vol3_from_cross_ratio_batch(np.array([0.5 + 0.5j, bad]))


# ---------------------------------------------------------------------------
# the scalar routes are one-element calls of the array kernels


def test_lobachevsky_matches_the_clausen_oracle_beyond_pi():
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(73)
    # away from multiples of pi: the reduction is exact modulo the float pi,
    # which is off by 1.2e-16 times the multiple, where L has a log-singular slope
    theta = np.concatenate([[0.0, math.pi / 2, -math.pi / 2, 2.5 * math.pi],
                            rng.uniform(-3 * math.pi, 3 * math.pi, 1996)])
    assert np.sum(np.abs(theta) > math.pi) > 1000
    with mpmath.workdps(20):
        oracle = [float(mpmath.clsin(2, 2 * mpmath.mpf(t)) / 2) for t in theta.tolist()]
    scalar = [lobachevsky(t) for t in theta.tolist()]
    assert np.max(np.abs(np.subtract(scalar, oracle))) <= 1e-14


def test_vol3_from_cross_ratio_matches_the_bloch_wigner_oracle():
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(74)
    z = np.concatenate([3.0 * (rng.standard_normal(1000) + 1j * rng.standard_normal(1000)),
                        np.exp(1j * rng.uniform(-math.pi, math.pi, 200))])
    with mpmath.workdps(30):  # D(z) = Im Li2(z) + arg(1 - z) log|z|
        oracle = [float(mpmath.im(mpmath.polylog(2, w))
                        + mpmath.arg(1 - mpmath.mpc(w)) * mpmath.log(abs(mpmath.mpc(w))))
                  for w in z.tolist()]
    scalar = [vol3_from_cross_ratio(w) for w in z.tolist()]
    assert np.max(np.abs(np.subtract(scalar, oracle))) <= 1e-14
    assert np.all(np.sign(scalar) == np.sign(z.imag))  # positive on the upper half-plane


def bloch_wigner(z, mpmath):
    """D(z) = Im Li2(z) + arg(1 - z) log|z| at 40 digits, rounded to a float."""
    with mpmath.workdps(40):
        w = mpmath.mpc(z)
        return float(mpmath.im(mpmath.polylog(2, w)) + mpmath.arg(1 - w) * mpmath.log(abs(w)))


def test_vol3_from_cross_ratio_near_one_matches_the_bloch_wigner_oracle():
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(75)
    # 1 + r e^{i phi} for r from 1e-8 to 0.1, including phi near 0 and pi,
    # where one dihedral angle is near a multiple of pi
    r = 10.0 ** rng.uniform(-8.0, -1.0, 600)
    phi = np.concatenate([rng.uniform(-math.pi, math.pi, 400),
                          rng.choice([0.0, math.pi], 200) + rng.uniform(-1e-3, 1e-3, 200)])
    z = np.concatenate([[0.99980 - 0.00031j], 1.0 + r * np.exp(1j * phi)])
    oracle = np.array([bloch_wigner(w, mpmath) for w in z.tolist()])
    assert np.max(np.abs(vol3_from_cross_ratio_batch(z) - oracle)) <= 1e-15
    scalar = [vol3_from_cross_ratio(w) for w in z[:50].tolist()]
    assert np.max(np.abs(np.subtract(scalar, oracle[:50]))) <= 1e-15
