import math

import numpy as np
import pytest

from boundarykit import (ComplexBoundaryPoint, DegenerateTuple, MixedModels,
                         ProjectivePoint, RealBoundaryPoint, SignatureError,
                         barycenter_ideal_triangle, boundary_to_chart,
                         cartan_invariant, chart_to_boundary, cross_ratio,
                         gram_ratio, halfplane_to_hyperboloid,
                         hyperboloid_to_halfplane, is_generic_tuple,
                         restrict_to_h3)
from boundarykit.hyperbolic import (_canonical_positive_basis, apply_isometry,
                                    cartan_invariant_batch, lorentz_product,
                                    random_lorentz_isometry,
                                    random_unitary_isometry)
from boundarykit.sampling import (random_boundary_point,
                                  random_complex_boundary_point)


def circle_point(angle):
    return RealBoundaryPoint([math.cos(angle), math.sin(angle)])


def chain_point(angle):
    """Boundary point of the chain {(e^it, 0)} in the ball model of H^2_C."""
    return ComplexBoundaryPoint.from_ball_direction([np.exp(1j * angle), 0.0])


def real_lift_point(angle, n=2):
    w = np.zeros(n, dtype=complex)
    w[0], w[1] = math.cos(angle), math.sin(angle)
    return ComplexBoundaryPoint.from_ball_direction(w)


# ---------------------------------------------------------------------------
# genericity


def test_generic_antipodal_pair():
    assert is_generic_tuple([circle_point(0.0), circle_point(math.pi)])


def test_generic_rejects_repeats():
    p = circle_point(0.3)
    assert not is_generic_tuple([p, circle_point(1.0), p])


def test_generic_tolerance_semantics():
    tol = 1e-6
    p = circle_point(0.0)
    q = circle_point(tol / 2)  # chordal distance ~ tol/2 < tol
    assert not is_generic_tuple([p, q], tol)
    assert is_generic_tuple([p, circle_point(10 * tol)], tol)


def test_generic_rejects_mixed_models():
    with pytest.raises(MixedModels):
        is_generic_tuple([circle_point(0.0), chain_point(0.0)])
    with pytest.raises(MixedModels):
        is_generic_tuple([circle_point(0.0), random_boundary_point(
            np.random.default_rng(0), 3)])


# ---------------------------------------------------------------------------
# Cartan invariant


def test_cartan_totally_real_triple_vanishes():
    a = cartan_invariant(real_lift_point(0.3), real_lift_point(1.4),
                         real_lift_point(2.9))
    assert abs(a) <= 1e-10


def test_cartan_chain_triple_is_pm_half_pi():
    a = cartan_invariant(chain_point(0.4), chain_point(1.5), chain_point(3.4))
    assert abs(abs(a) - math.pi / 2) <= 1e-10


def test_cartan_alternation_and_cyclicity():
    rng = np.random.default_rng(21)
    for _ in range(100):
        x, y, z = (random_complex_boundary_point(rng, 2) for _ in range(3))
        a = cartan_invariant(x, y, z)
        assert cartan_invariant(y, x, z) == pytest.approx(-a, abs=1e-10)
        assert cartan_invariant(y, z, x) == pytest.approx(a, abs=1e-10)


def test_cartan_isometry_invariance():
    rng = np.random.default_rng(22)
    for _ in range(100):
        x, y, z = (random_complex_boundary_point(rng, 2) for _ in range(3))
        g = random_unitary_isometry(rng, 2)
        a = cartan_invariant(x, y, z)
        b = cartan_invariant(*(apply_isometry(g, p) for p in (x, y, z)))
        assert b == pytest.approx(a, abs=1e-9)


def test_cartan_rejects_degenerate_triple():
    p = chain_point(0.4)
    with pytest.raises(DegenerateTuple, match="points 0 and 1 coincide"):
        cartan_invariant(p, p, chain_point(2.0))


def test_cartan_range_and_coverage():
    rng = np.random.default_rng(23)
    n = 100_000
    w = rng.standard_normal((3, n, 2)) + 1j * rng.standard_normal((3, n, 2))
    w /= np.linalg.norm(w, axis=2, keepdims=True)
    lifts = np.concatenate([w, np.ones((3, n, 1))], axis=2) / math.sqrt(2)
    values = cartan_invariant_batch(lifts[0], lifts[1], lifts[2])
    assert np.all(np.abs(values) <= math.pi / 2 + 1e-10)
    assert values.min() < -math.pi / 2 + 0.05
    assert values.max() > math.pi / 2 - 0.05


def random_chain_lifts(rng, n, count):
    """Unit null lifts of `count` triples on the chain of a random isometry,
    the three points at least 0.3 apart on the chain's circle, in either
    order around it."""
    turn = rng.choice([-1.0, 1.0], (count, 1))
    angles = rng.uniform(0.0, 2 * math.pi, (count, 1)) + turn * np.cumsum(
        rng.uniform(0.3, 2.0, (count, 3)), axis=1)
    lifts = np.zeros((count, 3, n + 1), dtype=complex)
    lifts[:, :, 0] = np.exp(1j * angles)
    lifts[:, :, -1] = 1.0
    lifts = lifts @ random_unitary_isometry(rng, n).T
    return lifts / np.linalg.norm(lifts, axis=2, keepdims=True)


@pytest.mark.parametrize("n", [2, 3])
def test_cartan_batch_is_pm_half_pi_on_chains_and_never_beyond(n):
    rng = np.random.default_rng(25)
    lifts = np.concatenate([random_chain_lifts(rng, n, 100) for _ in range(50)])
    values = cartan_invariant_batch(lifts[:, 0], lifts[:, 1], lifts[:, 2])
    assert np.max(np.abs(np.abs(values) - math.pi / 2)) <= 1e-12
    assert np.all(np.abs(values) <= math.pi / 2)
    assert (values > 0).any() and (values < 0).any()


def test_cartan_batch_range_on_random_triples():
    rng = np.random.default_rng(26)
    w = rng.standard_normal((3, 20_000, 3)) + 1j * rng.standard_normal((3, 20_000, 3))
    w /= np.linalg.norm(w, axis=2, keepdims=True)
    lifts = np.concatenate([w, np.ones((3, 20_000, 1))], axis=2) / math.sqrt(2)
    values = cartan_invariant_batch(*lifts)
    assert np.all(np.abs(values) <= math.pi / 2)
    # a transposition conjugates the product, up to the order of rounding
    np.testing.assert_allclose(cartan_invariant_batch(lifts[1], lifts[0], lifts[2]),
                               -values, rtol=0, atol=1e-15)


def test_cartan_lift_choice_invariance():
    rng = np.random.default_rng(24)
    x, y, z = (random_complex_boundary_point(rng, 3) for _ in range(3))
    # rebuilding from a rephased lift must not change the invariant
    rephased = ComplexBoundaryPoint(np.exp(0.7j) * x.lift)
    assert cartan_invariant(rephased, y, z) == pytest.approx(
        cartan_invariant(x, y, z), abs=1e-12)


# ---------------------------------------------------------------------------
# barycenter


def test_barycenter_is_the_incenter_in_the_halfplane():
    triple = [chart_to_boundary(ProjectivePoint.from_value(v, "real"))
              for v in (0.0, 1.0, float("inf"))]
    center = hyperboloid_to_halfplane(barycenter_ideal_triangle(*triple))
    assert center == pytest.approx(0.5 + 0.8660254037844386j, abs=1e-12)


def test_barycenter_symmetric_in_arguments():
    rng = np.random.default_rng(25)
    x, y, z = (random_boundary_point(rng, 4) for _ in range(3))
    reference = barycenter_ideal_triangle(x, y, z).lift
    for triple in ((y, x, z), (z, x, y), (y, z, x)):
        assert np.allclose(barycenter_ideal_triangle(*triple).lift, reference,
                           atol=1e-12)


def test_barycenter_equivariance():
    rng = np.random.default_rng(26)
    for _ in range(50):
        x, y, z = (random_boundary_point(rng, 3) for _ in range(3))
        g = random_lorentz_isometry(rng, 3)
        moved = barycenter_ideal_triangle(*(apply_isometry(g, p) for p in (x, y, z)))
        direct = apply_isometry(g, barycenter_ideal_triangle(x, y, z))
        assert np.allclose(moved.lift, direct.lift, atol=1e-9)


def test_barycenter_lies_in_the_spanned_plane():
    rng = np.random.default_rng(27)
    x, y, z = (random_boundary_point(rng, 5) for _ in range(3))
    span = np.stack([x.lift(), y.lift(), z.lift()])
    center = barycenter_ideal_triangle(x, y, z).lift
    residual = center - span.T @ np.linalg.lstsq(span.T, center, rcond=None)[0]
    assert np.linalg.norm(residual) <= 1e-10


def test_barycenter_continuity():
    rng = np.random.default_rng(28)
    for _ in range(20):
        x, y, z = (random_boundary_point(rng, 3) for _ in range(3))
        if min(x.chordal_distance(y), y.chordal_distance(z),
               z.chordal_distance(x)) < 0.3:
            continue
        bump = rng.standard_normal(3)
        moved = RealBoundaryPoint(x.direction + 1e-6 * bump / np.linalg.norm(bump))
        d = barycenter_ideal_triangle(x, y, z).distance(
            barycenter_ideal_triangle(moved, y, z))
        assert d <= 1e-3


def test_barycenter_rejects_degenerate_triple():
    p = circle_point(0.1)
    with pytest.raises(DegenerateTuple, match="points 0 and 1 coincide"):
        barycenter_ideal_triangle(p, p, circle_point(2.0))


def test_restrict_to_h3_rejects_a_coincident_pair():
    p = RealBoundaryPoint([1.0, 0.0, 0.0, 0.0])
    others = [RealBoundaryPoint(v) for v in np.eye(4)[1:3]]
    with pytest.raises(DegenerateTuple, match="points 0 and 1 coincide"):
        restrict_to_h3(p, p, *others)


# ---------------------------------------------------------------------------
# charts


def test_chart_round_trip_circle_and_sphere():
    rng = np.random.default_rng(29)
    for dim in (2, 3):
        for _ in range(200):
            p = random_boundary_point(rng, dim)
            back = chart_to_boundary(boundary_to_chart(p))
            assert np.allclose(back.direction, p.direction, atol=1e-12)
    pole = RealBoundaryPoint([0.0, 0.0, 1.0])
    assert boundary_to_chart(pole).is_infinity


def test_halfplane_chart_round_trip():
    rng = np.random.default_rng(30)
    for _ in range(100):
        z = complex(rng.standard_normal(), abs(rng.standard_normal()) + 0.1)
        assert hyperboloid_to_halfplane(halfplane_to_hyperboloid(z)) == pytest.approx(z, abs=1e-12)


# ---------------------------------------------------------------------------
# restriction to the boundary of H^3


def test_restrict_identity_on_coordinate_h3():
    rng = np.random.default_rng(31)
    while True:
        base = [random_boundary_point(rng, 3) for _ in range(4)]
        z = cross_ratio(*(boundary_to_chart(p) for p in base))
        if z.imag > 0.1:  # orientation already canonical
            break
    lifted = [RealBoundaryPoint(np.append(p.direction, [0.0, 0.0])) for p in base]
    out, emb = restrict_to_h3(*lifted)
    assert emb.rank == 4
    for got, expected in zip(out, base):
        assert np.allclose(got.direction, expected.direction, atol=1e-9)


def test_restrict_preserves_gram_ratios():
    rng = np.random.default_rng(32)
    for _ in range(100):
        pts = tuple(random_boundary_point(rng, 5) for _ in range(4))
        out, _ = restrict_to_h3(*pts)
        for idx in ((0, 1, 2, 3), (0, 2, 1, 3), (0, 3, 1, 2)):
            assert gram_ratio(out, *idx) == pytest.approx(
                gram_ratio(pts, *idx), rel=1e-9, abs=1e-9)


def test_restrict_rank3_lands_in_equatorial_h2():
    rng = np.random.default_rng(33)
    # four points on a 2-dimensional sphere slice span only a rank-3 subspace
    angles = rng.uniform(0, 2 * math.pi, 4)
    pts = tuple(RealBoundaryPoint([math.cos(a), math.sin(a), 0.0, 0.0, 0.0])
                for a in angles)
    out, emb = restrict_to_h3(*pts)
    assert emb.rank == 3
    for p in out:
        assert abs(p.direction[2]) <= 1e-10
    z = cross_ratio(*(boundary_to_chart(p) for p in out))
    assert abs(z.imag) <= 1e-9  # coplanar tuple has real cross ratio


def test_restrict_chart_cross_ratio_is_embedding_invariant():
    rng = np.random.default_rng(34)
    for _ in range(50):
        pts = tuple(random_boundary_point(rng, 5) for _ in range(4))
        out, _ = restrict_to_h3(*pts)
        z = cross_ratio(*(boundary_to_chart(p) for p in out))
        g = random_lorentz_isometry(rng, 5)
        moved = tuple(apply_isometry(g, p) for p in pts)
        out_g, _ = restrict_to_h3(*moved)
        z_g = cross_ratio(*(boundary_to_chart(p) for p in out_g))
        assert abs(z_g - z) <= 1e-9 * max(1.0, abs(z))


def test_restrict_output_is_isometric_on_lifts():
    rng = np.random.default_rng(35)
    pts = tuple(random_boundary_point(rng, 6) for _ in range(4))
    out, emb = restrict_to_h3(*pts)
    for i in range(4):
        for j in range(4):
            mapped = emb.map_lift(pts[i].lift()), emb.map_lift(pts[j].lift())
            metric4 = np.diag([1.0, 1.0, 1.0, -1.0])
            got = mapped[0] @ metric4 @ mapped[1]
            assert got == pytest.approx(
                lorentz_product(pts[i].lift(), pts[j].lift()), rel=1e-10, abs=1e-10)


# the ways restrict_to_h3 can refuse a tuple of distinct points


def test_restrict_refuses_lifts_of_rank_two():
    # four points 1e-6 apart on a great circle: the lifts' third singular
    # value is about 1e-12, below the relative rank threshold
    pts = [RealBoundaryPoint([math.cos(1e-6 * k), math.sin(1e-6 * k), 0.0])
           for k in range(4)]
    with pytest.raises(SignatureError, match="dimension < 3"):
        restrict_to_h3(*pts)


def test_restrict_refuses_a_degenerate_restricted_form():
    # four points 1e-5 apart in general position: the lifts span four
    # dimensions, but the form on their span has an eigenvalue near zero
    offsets = [(1, 0, 0), (0, 1, 0), (-1, -1, 0), (1, -1, 1)]
    pts = [RealBoundaryPoint(np.array([0.0, 0.0, 1.0]) + 1e-5 * np.array(d, float))
           for d in offsets]
    with pytest.raises(SignatureError, match="degenerate or not Lorentzian"):
        restrict_to_h3(*pts)


def test_canonical_basis_refuses_a_rank_deficient_positive_part():
    metric = np.diag([1.0, 1.0, 1.0, -1.0])
    v = np.array([0.6, 0.8, 0.0, 0.0])
    with pytest.raises(SignatureError, match="canonical basis"):
        _canonical_positive_basis(np.column_stack([v, v]), metric)


def test_restrict_refuses_a_frame_that_is_not_future_pointing(monkeypatch):
    # a future timelike and a future null vector always have a negative
    # product, so only a wrong eigenvector, substituted here, reaches this
    eigh = np.linalg.eigh

    def spacelike_first(a):
        w, v = eigh(a)
        v = v.copy()
        v[:, 0] = 0.3 * v[:, 0] + math.sqrt(0.91) * v[:, 1]
        return w, v

    pts = tuple(RealBoundaryPoint(d) for d in np.eye(3)) + (
        RealBoundaryPoint([1.0, 1.0, 1.0]),)
    restrict_to_h3(*pts)
    monkeypatch.setattr(np.linalg, "eigh", spacelike_first)
    with pytest.raises(SignatureError, match="future-pointing"):
        restrict_to_h3(*pts)
