"""Point objects and batch kernels share one formula per quantity and one
distinctness rule: two points are distinct iff their chordal distance is
> tol, in every module and batch kernel."""

import math

import numpy as np
import pytest

from boundarykit import (ComplexBoundaryPoint, DegenerateTuple, RealBoundaryPoint,
                         SamplerConfig, boundary_to_chart, cartan_invariant,
                         invariant_values, is_generic_tuple, reports,
                         sample_tuples, vol2, vol3)
from boundarykit.hyperbolic import (cartan_invariant_batch,
                                    complex_chordal_distance,
                                    real_chordal_distance)
from boundarykit.projective import _require_distinct
from boundarykit.sampling import random_complex_boundary_point


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
        mask = reports._mask_generic(batch, tol, real_chordal_distance)
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


def test_complex_batch_mask_agrees_with_is_generic_tuple():
    tol = 0.5
    rng = np.random.default_rng(8)
    batch = reports._complex_lifts(rng.standard_normal((400, 3, 2)),
                                   rng.standard_normal((400, 3, 2)))
    points = [tuple(ComplexBoundaryPoint(lift) for lift in row) for row in batch]
    mask = reports._mask_generic(batch, tol, complex_chordal_distance)
    assert mask.tolist() == [is_generic_tuple(t, tol) for t in points]
    assert 0 < mask.sum() < len(mask)


def test_cartan_invariant_equals_the_batch_kernel_exactly():
    rng = np.random.default_rng(12)
    triples = [tuple(random_complex_boundary_point(rng, 2) for _ in range(3))
               for _ in range(100)]
    lifts = [np.stack([t[k].lift for t in triples]) for k in range(3)]
    assert cartan_invariant_batch(*lifts).tolist() == [
        cartan_invariant(*t) for t in triples]


def test_orientation_class_equals_vol2_over_pi():
    config = SamplerConfig(model="S1", count=500, seed=4)
    values = invariant_values(config, "orientation_class")
    assert values.tolist() == [vol2(*t) / math.pi for t in sample_tuples(config)]
