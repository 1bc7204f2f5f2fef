import numpy as np
import pytest

from boundarykit import (DegenerateTuple, MoebiusMap, ProjectivePoint,
                         SingularMatrix, apply_moebius, cross_ratio,
                         is_infinite, normalize_to_standard)
from boundarykit.projective import pair_chordal_distance

INF_R = ProjectivePoint.infinity("real")


def rp(value):
    return ProjectivePoint.from_value(value, "real")


def cp(value):
    return ProjectivePoint.from_value(value, "complex")


def test_cross_ratio_normalization_identity():
    assert cross_ratio(INF_R, rp(0), rp(1), rp(5)) == pytest.approx(5.0, abs=1e-12)


def test_cross_ratio_direct_values():
    assert cross_ratio(rp(0), INF_R, rp(1), rp(2)) == pytest.approx(0.5, abs=1e-12)
    assert cross_ratio(rp(2), rp(0), rp(1), rp(3)) == pytest.approx(-3.0, abs=1e-11)


def test_cross_ratio_rejects_coincident_points():
    with pytest.raises(DegenerateTuple):
        cross_ratio(rp(2), rp(2), rp(1), rp(3))
    with pytest.raises(DegenerateTuple):
        cross_ratio(rp(2), rp(2 + 1e-12), rp(1), rp(3))


def test_normalization_identity_random():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        x = rng.standard_normal() * 10
        if min(abs(x), abs(x - 1)) < 1e-3:
            continue
        assert cross_ratio(INF_R, rp(0), rp(1), rp(x)) == pytest.approx(x, abs=1e-12, rel=1e-12)


def test_double_transposition_symmetry():
    rng = np.random.default_rng(12)
    for _ in range(200):
        vals = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        pts = [cp(v) for v in vals]
        a = cross_ratio(pts[0], pts[1], pts[2], pts[3])
        b = cross_ratio(pts[1], pts[0], pts[2], pts[3])
        assert a * b == pytest.approx(1.0, abs=1e-12, rel=1e-10)


def test_moebius_invariance():
    rng = np.random.default_rng(13)
    for _ in range(500):
        vals = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        pts = [cp(v) for v in vals]
        m = MoebiusMap.random(rng, "complex")
        before = cross_ratio(*pts)
        after = cross_ratio(*(apply_moebius(m, p) for p in pts))
        assert abs(after - before) <= 1e-9 * max(1.0, abs(before))


def test_apply_moebius_identity_and_inversion():
    assert apply_moebius(MoebiusMap.identity("real"), rp(2)).value() == pytest.approx(2.0)
    inv = MoebiusMap.from_coefficients(0, 1, 1, 0, "real")
    assert apply_moebius(inv, rp(2)).value() == pytest.approx(0.5)
    assert is_infinite(apply_moebius(inv, rp(0)).value())


def test_moebius_composition_consistency():
    rng = np.random.default_rng(14)
    for _ in range(200):
        m1 = MoebiusMap.random(rng, "complex")
        m2 = MoebiusMap.random(rng, "complex")
        x = cp(rng.standard_normal() + 1j * rng.standard_normal())
        seq = apply_moebius(m2, apply_moebius(m1, x))
        prod = apply_moebius(m2.compose(m1), x)
        assert seq.chordal_distance(prod) <= 1e-12


def test_moebius_group_law_associativity():
    rng = np.random.default_rng(15)
    for _ in range(100):
        a, b, c = (MoebiusMap.random(rng, "real") for _ in range(3))
        left = a.compose(b).compose(c)
        right = a.compose(b.compose(c))
        assert np.allclose(np.abs(left.matrix), np.abs(right.matrix), atol=1e-12)


def test_singular_matrix_rejected():
    with pytest.raises(SingularMatrix):
        MoebiusMap([[1.0, 2.0], [0.5, 1.0]], "real")


def test_normalize_to_standard_identity_triple():
    m = normalize_to_standard(INF_R, rp(0), rp(1))
    for p in (INF_R, rp(0), rp(1)):
        assert apply_moebius(m, p).chordal_distance(p) <= 1e-12


def test_normalize_to_standard_explicit_map():
    # (0, 1, inf) -> (inf, 0, 1) is z -> (z - 1)/z
    m = normalize_to_standard(rp(0), rp(1), INF_R)
    expected = MoebiusMap.from_coefficients(1, -1, 1, 0, "real")
    for v in (0.3, -2.0, 7.0):
        assert apply_moebius(m, rp(v)).chordal_distance(
            apply_moebius(expected, rp(v))) <= 1e-12


def test_normalize_to_standard_rejects_degenerate_triple():
    with pytest.raises(DegenerateTuple):
        normalize_to_standard(rp(2), rp(2), rp(3))


def test_normalize_to_standard_random_round_trip():
    rng = np.random.default_rng(16)
    targets = (ProjectivePoint.infinity("complex"), cp(0), cp(1))
    for _ in range(300):
        vals = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        pts = [cp(v) for v in vals]
        m = normalize_to_standard(*pts)
        for p, target in zip(pts, targets):
            assert apply_moebius(m, p).chordal_distance(target) <= 1e-10


def test_point_representative_is_stable():
    a = ProjectivePoint(2.0, 4.0, "real")
    b = ProjectivePoint(-1.0, -2.0, "real")
    assert a == b
    assert hash(a) == hash(b)
    assert ProjectivePoint.from_value(float("inf"), "real") == INF_R


def test_pair_distances_equal_the_point_distances_bit_for_bit():
    rng = np.random.default_rng(31)
    values = rng.standard_normal((2, 3000)) + 1j * rng.standard_normal((2, 3000))
    values[1, :1000] = values[0, :1000] * (1 + 1e-9 * rng.standard_normal(1000))  # near pairs
    p = [cp(v) for v in values[0]]
    q = [cp(v) for v in values[1]]
    batch = pair_chordal_distance(np.array([x.coords for x in p]), np.array([y.coords for y in q]))
    assert batch.tolist() == [float(x.chordal_distance(y)) for x, y in zip(p, q)]
