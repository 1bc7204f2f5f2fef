"""Point objects and batch kernels share one formula per quantity and one
distinctness rule: two points are distinct iff their chordal distance is
> tol, in every module and batch kernel."""

import itertools
import math

import mpmath
import numpy as np
import pytest

from boundarykit import (ComplexBoundaryPoint, DegenerateTuple, RealBoundaryPoint,
                         SamplerConfig, boundary_to_chart, cartan_invariant,
                         invariant_values, is_generic_tuple, sample_tuples,
                         sampling, vol2, vol3)
from boundarykit.hyperbolic import (ball_lifts, canonical_lifts, cartan_invariant_batch,
                                    chart_coords, complex_chordal_distance,
                                    real_chordal_distance)
from boundarykit.projective import (ProjectivePoint, _require_distinct, coincident_pair,
                                    is_infinite)
from boundarykit.sampling import ComplexTupleSampler, random_complex_boundary_point
from boundarykit.volume import vol3_batch


def circle_point(angle):
    return RealBoundaryPoint([math.cos(angle), math.sin(angle)])


def sphere_point(theta, phi):
    return RealBoundaryPoint([math.sin(theta) * math.cos(phi),
                              math.sin(theta) * math.sin(phi), math.cos(theta)])


def below(tol):
    return float(np.nextafter(tol, 0.0))


# ---------------------------------------------------------------------------
# one distinctness rule, at exactly tol


@pytest.mark.parametrize("gap", [1e-3, 0.37, 1.9])
def test_every_check_rejects_a_pair_at_exactly_tol(gap):
    # r sits opposite the pair's midpoint, farther than d from both
    p, q = circle_point(0.3), circle_point(0.3 + gap)
    r = circle_point(0.3 + gap / 2 + math.pi)
    d = p.chordal_distance(q)
    batch = np.array([[p.direction, q.direction, r.direction]])
    for tol, distinct in ((d, False), (below(d), True)):
        assert is_generic_tuple([p, q, r], tol) is distinct
        mask = sampling._mask_generic(batch, tol, real_chordal_distance)
        assert mask.tolist() == [distinct]
        for check in (lambda: vol2(p, q, r, tol=tol),
                      lambda: _require_distinct([p, q], tol)):
            if distinct:
                check()
            else:
                with pytest.raises(DegenerateTuple):
                    check()


@pytest.mark.parametrize("gap", [1e-4, 0.5])
def test_vol3_rejects_charted_points_at_exactly_tol(gap):
    points = [boundary_to_chart(p) for p in (
        sphere_point(1.0, 0.2), sphere_point(1.0 + gap, 0.2),
        sphere_point(2.0, 2.5), sphere_point(0.4, 4.0))]
    d = points[0].chordal_distance(points[1])
    with pytest.raises(DegenerateTuple):
        vol3(*points, tol=d)
    assert math.isfinite(vol3(*points, tol=below(d)))


def test_a_point_is_at_infinity_iff_it_coincides_with_infinity():
    infinity = ProjectivePoint.infinity()
    for b in (7.5e-10, 5e-10, 2.5e-10):  # chordal distances 1.5 tol, tol, tol / 2
        p = ProjectivePoint(1.0, b)
        coincident = coincident_pair([p, infinity]) is not None
        assert coincident is (b <= 5e-10)
        assert p.is_infinity is coincident
        assert is_infinite(p.value()) is coincident


def test_a_chart_point_is_as_far_from_another_as_their_sphere_points():
    rng = np.random.default_rng(23)
    u = rng.standard_normal((2000, 2, 3))
    u /= np.linalg.norm(u, axis=2, keepdims=True)
    u[:500, 1] = u[:500, 0] + 1e-8 * rng.standard_normal((500, 3))  # near pairs
    u /= np.linalg.norm(u, axis=2, keepdims=True)
    for p, q in (map(RealBoundaryPoint, row) for row in u):
        chord = p.chordal_distance(q)
        assert boundary_to_chart(p).chordal_distance(boundary_to_chart(q)) == pytest.approx(
            chord, rel=1e-6)


def test_a_tuple_generic_on_the_sphere_has_a_chart_volume():
    # points 0 and 1 are 1.5 tol apart on S^2: |det| of their chart points
    # is half that, under tol, and vol3 refused the tuple
    u = np.array([0.6, 0.0, 0.8])
    v = u + 1.5e-9 * np.array([0.0, 1.0, 0.0])
    points = [RealBoundaryPoint(x) for x in (u, v / np.linalg.norm(v), [1.0, 0.0, 0.0],
                                             [0.0, 1.0, 0.0])]
    assert is_generic_tuple(points)
    assert math.isfinite(vol3(*points))
    coords = chart_coords(np.array([[p.direction for p in points]]))
    assert vol3_batch(coords).tolist() == [vol3(*points)]


# ---------------------------------------------------------------------------
# the point methods and the batch kernels agree bit for bit


def test_complex_chordal_kernel_matches_the_point_method():
    rng = np.random.default_rng(5)
    pairs = [(random_complex_boundary_point(rng, 3),
              random_complex_boundary_point(rng, 3)) for _ in range(300)]
    z = np.stack([p.lift for p, _ in pairs])
    w = np.stack([q.lift for _, q in pairs])
    assert complex_chordal_distance(z, w).tolist() == [
        p.chordal_distance(q) for p, q in pairs]


def test_a_complex_pair_at_exactly_tol_is_rejected():
    rng = np.random.default_rng(9)
    for n, gap in ((2, 1e-3), (3, 0.4), (4, 1e-7)):
        p = random_complex_boundary_point(rng, n)
        w = p.lift[:-1] / p.lift[-1]  # its ball direction
        q = ComplexBoundaryPoint.from_ball_direction(w + gap * rng.standard_normal(n))
        d = p.chordal_distance(q)
        batch = np.array([[p.lift, q.lift]])
        for tol, distinct in ((d, False), (below(d), True)):
            assert is_generic_tuple([p, q], tol) is distinct
            assert sampling._mask_generic(batch, tol, complex_chordal_distance).tolist() == [
                distinct]


def test_complex_batch_mask_agrees_with_is_generic_tuple():
    tol = 0.5
    rng = np.random.default_rng(8)
    batch = ball_lifts(rng.standard_normal((400, 3, 2)) + 1j * rng.standard_normal((400, 3, 2)))
    points = [tuple(ComplexBoundaryPoint(lift) for lift in row) for row in batch]
    mask = sampling._mask_generic(batch, tol, complex_chordal_distance)
    assert mask.tolist() == [is_generic_tuple(t, tol) for t in points]
    assert 0 < mask.sum() < len(mask)


def test_cartan_invariant_equals_the_batch_kernel_exactly():
    rng = np.random.default_rng(12)
    triples = [tuple(random_complex_boundary_point(rng, 2) for _ in range(3))
               for _ in range(100)]
    lifts = [np.stack([t[k].lift for t in triples]) for k in range(3)]
    assert cartan_invariant_batch(*lifts).tolist() == [
        cartan_invariant(*t) for t in triples]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_canonical_lifts_are_the_point_lifts_bit_for_bit(n):
    rng = np.random.default_rng(70 + n)
    w = rng.standard_normal((3000, n)) + 1j * rng.standard_normal((3000, n))
    w /= np.linalg.norm(w, axis=1, keepdims=True)
    # one unit coordinate ties with the last one, and comes first
    w[:300] = np.eye(n)[rng.integers(0, n, 300)] * np.exp(1j * rng.uniform(0, 6.3, (300, 1)))
    scale = rng.uniform(0.1, 10.0, (3000, 1)) * np.exp(1j * rng.uniform(0, 6.3, (3000, 1)))
    z = np.concatenate([w, np.ones((3000, 1))], axis=1) * scale
    expected = np.array([ComplexBoundaryPoint(row).lift for row in z])
    assert canonical_lifts(z).tobytes() == expected.tobytes()


@pytest.mark.parametrize("n", [2, 3, 4])
def test_a_random_complex_point_is_a_one_point_tuple_of_the_sampler(n):
    scalar, batch = np.random.default_rng(80 + n), np.random.default_rng(80 + n)
    for _ in range(200):
        (point,) = ComplexTupleSampler(n, 1)(batch)
        assert random_complex_boundary_point(scalar, n).lift.tobytes() == point.lift.tobytes()


def first_maxima(z):
    """The first coordinate of largest np.hypot, and of largest np.abs, of each
    row of z, once each row is divided by its norm."""
    z = z / np.sqrt(np.vecdot(z.real, z.real) + np.vecdot(z.imag, z.imag))[:, None]
    return np.argmax(np.hypot(z.real, z.imag), axis=1), np.argmax(np.abs(z), axis=1)


@pytest.mark.parametrize("w", [
    # chain-triple lifts (e^{it}, 0, 1)/sqrt(2): coordinates 0 and 2 tie in modulus
    np.stack([np.exp(1j * np.linspace(0.0, 6.3, 400)), np.zeros(400)], axis=1),
    # the lift of (0, e^{it}, 0) at t = 6.1894, whose coordinates 1 and 3 np.abs
    # ranks 1 over 3 and np.hypot 3 over 1
    np.array([[0.0, np.exp(6.1894j), 0.0]])], ids=["chain", "ranked-apart"])
def test_every_complex_lift_pivots_at_the_first_hypot_maximum(w):
    lifts = ball_lifts(w)
    by_hypot, by_abs = first_maxima(lifts)
    assert (by_hypot != by_abs).any()  # the pivot of an np.abs ranking would differ
    canonical = canonical_lifts(lifts)
    draws = np.stack([w.real, w.imag])  # one tuple of the sampler's random numbers
    for points in ([ComplexBoundaryPoint(lift) for lift in lifts],
                   ComplexTupleSampler(w.shape[1], len(w)).points(draws)):
        assert np.array([p.lift for p in points]).tobytes() == canonical.tobytes()
    # made positive real up to the rounding of z * (|p| / p); where the pivots
    # differ, the np.abs pivot keeps an imaginary part of 3e-4 or more
    pivots = canonical[np.arange(len(w)), by_hypot]
    assert (np.abs(pivots.imag) <= 1e-16).all() and (pivots.real > 0.0).all()


@pytest.mark.parametrize("n", [2, 3])
def test_the_cartan_invariant_is_a_cocycle_on_sampled_tuples(n):
    # sum of (-1)^i A(x0..^xi..x3): 0 for the Cartan cocycle (Goldman 1999, 7.1)
    lifts = ComplexTupleSampler(n, 4).draw(np.random.default_rng(60 + n), 20_000)[1]
    assert len(lifts) == 20_000
    faces = [cartan_invariant_batch(*(lifts[:, j] for j in range(4) if j != i))
             for i in range(4)]
    assert np.abs(faces[0] - faces[1] + faces[2] - faces[3]).max() <= 4e-15


def test_orientation_class_equals_vol2_over_pi():
    config = SamplerConfig(model="S1", count=500, seed=4)
    values = invariant_values(config, "orientation_class")
    assert values.tolist() == [vol2(*t) / math.pi for t in sample_tuples(config)]


# ---------------------------------------------------------------------------
# the complex chordal distance against a 40-digit minor sum


def minor_sum(z, w):
    """sqrt(sum over a < b of |z_a w_b - z_b w_a|^2) of each row, to 40 digits."""
    with mpmath.workdps(40):
        exact = []
        for zs, ws in zip(z.tolist(), w.tolist()):
            zs, ws = [mpmath.mpc(x) for x in zs], [mpmath.mpc(x) for x in ws]
            total = mpmath.mpf(0)
            for a, b in itertools.combinations(range(len(zs)), 2):
                total += abs(zs[a] * ws[b] - zs[b] * ws[a]) ** 2
            exact.append(mpmath.sqrt(total))
        return exact


def relative_errors(values, exact):
    with mpmath.workdps(40):
        return np.array([float(abs(v - e) / e) for v, e in zip(values.tolist(), exact)])


def wedge_distance(z, w):
    """The Frobenius norm of the wedge z w^T - w z^T over sqrt(2)."""
    wedge = z[..., :, None] * w[..., None, :] - w[..., :, None] * z[..., None, :]
    return np.linalg.norm(wedge, axis=(-2, -1)) / math.sqrt(2.0)


def random_lifts(rng, count, n, near=None, scale=0.0):
    """Unit null lifts of random ball directions, or of `near`'s moved by `scale`."""
    re, im = rng.standard_normal((2, count, 1, n))
    if near is not None:
        re, im = near[0] + scale * re, near[1] + scale * im
    return ball_lifts(re + 1j * im)[:, 0], (re, im)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_complex_distance_is_within_4e_16_of_the_minor_sum(n):
    rng = np.random.default_rng(20 + n)
    z, _ = random_lifts(rng, 200, n)
    w, _ = random_lifts(rng, 200, n)
    errors = relative_errors(complex_chordal_distance(z, w), minor_sum(z, w))
    assert errors.max() <= 4e-16


@pytest.mark.parametrize("scale", [1e-8, 1e-12])
def test_complex_distance_of_nearly_equal_lines_is_as_accurate_as_the_wedge(scale):
    rng = np.random.default_rng(31)
    z, directions = random_lifts(rng, 400, 3)
    w, _ = random_lifts(rng, 400, 3, directions, scale)
    exact = minor_sum(z, w)
    errors = relative_errors(complex_chordal_distance(z, w), exact)
    wedge_errors = relative_errors(wedge_distance(z, w), exact)
    # the wedge cancels in its products, to about eps / scale
    assert np.quantile(errors, 0.99) <= 1.25 * np.quantile(wedge_errors, 0.99)
    assert errors.max() <= 1.25 * wedge_errors.max()
    assert errors.max() <= 4e-16
