import ast
import itertools
import pathlib

import numpy as np
import pytest

from boundarykit import (DegenerateTuple, MoebiusMap, ProjectivePoint,
                         SingularMatrix, apply_moebius, cross_ratio,
                         is_infinite, normalize_to_standard)
from boundarykit import projective
from boundarykit.hyperbolic import chart_coords
from boundarykit.projective import _face_cross_ratios, coincident_pair
from boundarykit.sampling import SphereTupleSampler

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


@pytest.mark.parametrize("field", ["real", "complex"])
def test_equal_points_hash_alike_whatever_the_sign_of_a_zero(field):
    for (a, b), (c, d) in (((2.0, 0.0), (2.0, -0.0)), ((0.0, 3.0), (-0.0, 3.0))):
        p, q = ProjectivePoint(a, b, field), ProjectivePoint(c, d, field)
        assert p == q
        assert hash(p) == hash(q)
        assert len({p, q}) == 1


def pair_distance(coords, i, j):
    """The chordal distance of columns i and j of each tuple, from the pair table."""
    return _face_cross_ratios(coords[:, [i, j, i, j]], np.array([[0, 1, 2, 3]]))[2][0]


def test_pair_distances_equal_the_point_distances_bit_for_bit():
    rng = np.random.default_rng(31)
    values = rng.standard_normal((2, 3000)) + 1j * rng.standard_normal((2, 3000))
    values[1, :1000] = values[0, :1000] * (1 + 1e-9 * rng.standard_normal(1000))  # near pairs
    p = [cp(v) for v in values[0]]
    q = [cp(v) for v in values[1]]
    batch = pair_distance(np.array([[x.coords, y.coords] for x, y in zip(p, q)]), 0, 1)
    assert batch.tolist() == [float(x.chordal_distance(y)) for x, y in zip(p, q)]


# ---------------------------------------------------------------------------
# symmetries of the cross ratio on batches, near 0, 1 and infinity too


# point j moved to within about `gap` of point i makes the cross ratio
# [x0,x1,x2,x3] near 0 for {i, j} = {0, 2} or {1, 3}, near 1 for {0, 1} or
# {2, 3} and near infinity for {0, 3} or {1, 2}
CLOSE = {"random": None, "near-0": ((0, 2), 1e-6), "near-0-tight": ((1, 3), 1e-9),
         "near-1": ((0, 1), 1e-6), "near-1-tight": ((2, 3), 1e-9),
         "near-inf": ((0, 3), 1e-6), "near-inf-tight": ((1, 2), 1e-9)}


def chart_tuples(close, m=2000):
    """Unit pairs of m tuples of four points of P^1(C), drawn uniformly on S^2
    through the chart, or with `close` = ((i, j), gap) point j near point i."""
    rng = np.random.default_rng(17)
    u = rng.standard_normal((m, 4, 3))
    u /= np.linalg.norm(u, axis=2, keepdims=True)
    if close is not None:
        (i, j), gap = close
        u[:, j] = u[:, i] + gap * rng.standard_normal((m, 3))
        u /= np.linalg.norm(u, axis=2, keepdims=True)
    coords = chart_coords(u)
    z = batch_cross_ratios(coords)
    # a close pair puts every cross ratio within 1e-4 of 0, 1 or infinity
    assert close is None or (np.minimum.reduce([np.abs(z), np.abs(1 - z), 1 / np.abs(z)])
                             < 1e-4).all()
    return coords, z


def batch_cross_ratios(coords, order=(0, 1, 2, 3)):
    """[x_order[0], ..., x_order[3]] of each tuple, from the pair table."""
    return _face_cross_ratios(coords, np.array([order]))[0][0]


def rounding(coords):
    """2 eps times the sum of 1/d over the six pairs of each tuple: a determinant
    of unit pairs at chordal distance d = 2|det| is off by about eps absolutely,
    2 eps/d relatively, so a cross ratio, made of four of them, by at most this
    relatively."""
    eps = np.finfo(float).eps
    return 2.0 * eps * sum(1.0 / _face_cross_ratios(coords, np.array([[0, 1, 2, 3]]))[2])


@pytest.mark.parametrize("close", CLOSE.values(), ids=CLOSE.keys())
def test_batch_cross_ratio_is_invariant_under_the_klein_four_group(close):
    # exactly: the permutations reuse the determinants up to sign, and their
    # products are written in real arithmetic, which rounds a * b as b * a
    coords, z = chart_tuples(close)
    for order in ((1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)):
        assert batch_cross_ratios(coords, order).tolist() == z.tolist()


@pytest.mark.parametrize("close", CLOSE.values(), ids=CLOSE.keys())
def test_scalar_cross_ratio_is_the_batch_quotient_bit_for_bit(close):
    coords, _ = chart_tuples(close)
    points = [[ProjectivePoint(*pair) for pair in row] for row in coords]
    # cross_ratio refuses the rest: about seven in eight tuples of the 1e-9 cases
    points = [row for row in points if coincident_pair(row) is None]
    assert len(points) >= 200
    batch = batch_cross_ratios(np.array([[p.coords for p in row] for row in points]))
    assert [cross_ratio(*row) for row in points] == batch.tolist()


def test_real_points_keep_float_coordinates_and_the_batch_bits():
    sampler = SphereTupleSampler(2, 4, chart=True)
    rows, coords = sampler.draw(np.random.default_rng(18), 2000)
    points = [sampler.points(row) for row in rows]
    assert coords.dtype == np.float64
    assert all(p.coords.dtype == np.float64 for row in points for p in row)
    assert np.array_equal(np.array([[p.coords for p in row] for row in points]), coords)
    assert [cross_ratio(*row) for row in points] == batch_cross_ratios(coords).tolist()
    assert ([row[0].chordal_distance(row[1]) for row in points]
            == pair_distance(coords, 0, 1).tolist())


@pytest.mark.parametrize("close", CLOSE.values(), ids=CLOSE.keys())
def test_batch_cross_ratio_is_within_rounding_of_the_exact_one(close):
    mpmath = pytest.importorskip("mpmath")
    coords, z = chart_tuples(close)
    coords, z = coords[:300], z[:300]

    def det(p, q):
        return p[0] * q[1] - q[0] * p[1]

    with mpmath.workdps(40):  # the cross ratio of the same unit pairs
        exact = []
        for row in coords:
            c = [[mpmath.mpc(complex(v)) for v in pair] for pair in row]
            w = det(c[0], c[2]) * det(c[1], c[3]) / (det(c[0], c[3]) * det(c[1], c[2]))
            exact.append(complex(w))
    assert (np.abs(z - np.array(exact)) <= rounding(coords) * np.abs(z)).all()


def test_det_is_the_one_two_by_two_determinant_of_projective():
    # a difference of two products is a determinant; _mul's real part is a product
    tree = ast.parse(pathlib.Path(projective.__file__).read_text(encoding="utf-8"))
    owners = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
              for expr in ast.walk(node)
              if isinstance(expr, ast.BinOp) and isinstance(expr.op, ast.Sub)
              and isinstance(expr.left, ast.BinOp) and isinstance(expr.left.op, ast.Mult)
              and isinstance(expr.right, ast.BinOp) and isinstance(expr.right.op, ast.Mult)}
    assert owners == {"_det", "_mul"}


S3_ORBIT = {(0, 1, 3, 2): lambda z: 1 / z, (0, 2, 1, 3): lambda z: 1 - z,
            (0, 2, 3, 1): lambda z: 1 / (1 - z), (0, 3, 1, 2): lambda z: (z - 1) / z,
            (0, 3, 2, 1): lambda z: z / (z - 1)}


@pytest.mark.parametrize("close", CLOSE.values(), ids=CLOSE.keys())
def test_batch_cross_ratio_permutations_give_its_s3_orbit(close):
    # relative tolerance: rounding(coords) * (1 + (1 + |z|) / |1 - z|), the
    # second factor bounding 1 + the condition number of each f at z
    coords, z = chart_tuples(close)
    rtol = rounding(coords) * (1 + (1 + np.abs(z)) / np.abs(1 - z))
    for order, f in S3_ORBIT.items():
        expected = f(z)
        assert (np.abs(batch_cross_ratios(coords, order) - expected)
                <= rtol * np.abs(expected)).all()
