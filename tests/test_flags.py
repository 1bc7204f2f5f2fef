import warnings

import numpy as np
import pytest

from boundarykit import (Flag3, NotGeneric, NotOpposite, flat_boundary,
                         is_generic_triple, is_opposite, random_flag,
                         triple_ratio)
from boundarykit.flags import (batch_is_generic, batch_normalize_flags,
                               batch_random_flags, batch_triple_ratio)

E1, E2, E3 = np.eye(3)

F_12 = Flag3.from_basis(E1, E2)   # line <e1>, plane span(e1, e2) = ker dx3
F_32 = Flag3.from_basis(E3, E2)   # line <e3>, plane span(e3, e2) = ker dx1


def coordinate_flags():
    basis = (E1, E2, E3)
    return [Flag3.from_basis(basis[a], basis[b])
            for a in range(3) for b in range(3) if a != b]


def flags_close(f, g, tol=1e-9):
    return (np.linalg.norm(f.line - g.line) <= tol
            and np.linalg.norm(f.plane - g.plane) <= tol)


def same_flag_set(actual, expected, tol=1e-9):
    return all(any(flags_close(f, g, tol) for g in actual) for f in expected) \
        and len(actual) == len(expected)


def random_triple(rng):
    return tuple(random_flag(rng) for _ in range(3))


def random_sl3(rng):
    while True:
        g = rng.standard_normal((3, 3))
        d = np.linalg.det(g)
        if abs(d) > 0.1:
            if d < 0:
                g = g.copy()
                g[0] = -g[0]
                d = -d
            return g / d ** (1.0 / 3.0)


# ---------------------------------------------------------------------------
# opposition


def test_coordinate_pair_is_opposite():
    assert is_opposite(F_12, F_32)


def test_flag_is_not_opposite_to_itself():
    assert not is_opposite(F_12, F_12)


def test_line_inside_plane_is_not_opposite():
    f = Flag3.from_basis(E2, E3)  # line <e2> lies in span(e1, e2)
    assert not is_opposite(F_12, f)


def test_opposition_is_symmetric():
    rng = np.random.default_rng(41)
    for _ in range(300):
        f, g = random_flag(rng), random_flag(rng)
        assert is_opposite(f, g) == is_opposite(g, f)


# ---------------------------------------------------------------------------
# flat boundaries


def test_flat_boundary_of_coordinate_pair():
    fb = flat_boundary(F_12, F_32)
    assert same_flag_set(fb.flags, coordinate_flags())


def test_flat_boundary_contains_the_generating_pair():
    rng = np.random.default_rng(42)
    for _ in range(50):
        f, g = random_flag(rng), random_flag(rng)
        if not is_opposite(f, g):
            continue
        fb = flat_boundary(f, g)
        assert any(flags_close(f, h) for h in fb.flags)
        assert any(flags_close(g, h) for h in fb.flags)


def test_flat_boundary_symmetric_as_a_set():
    rng = np.random.default_rng(43)
    f, g = random_flag(rng), random_flag(rng)
    assert same_flag_set(flat_boundary(f, g).flags, flat_boundary(g, f).flags)


def test_flat_boundary_equivariance():
    rng = np.random.default_rng(44)
    for _ in range(30):
        f, g = random_flag(rng), random_flag(rng)
        if not is_opposite(f, g):
            continue
        h = random_sl3(rng)
        moved = flat_boundary(f.apply(h), g.apply(h)).flags
        direct = [flag.apply(h) for flag in flat_boundary(f, g).flags]
        assert same_flag_set(moved, direct, tol=1e-9)


def test_flat_boundary_requires_opposition():
    with pytest.raises(NotOpposite):
        flat_boundary(F_12, F_12)


# ---------------------------------------------------------------------------
# genericity


def test_coordinate_pair_plus_random_flag_is_usually_generic():
    rng = np.random.default_rng(45)
    hits = sum(is_generic_triple(F_12, F_32, random_flag(rng))
               for _ in range(2000))
    assert hits >= 1998  # full-measure set: acceptance rate ~ 1


def test_boundary_flag_makes_triple_non_generic():
    third = flat_boundary(F_12, F_32).flags[3]
    assert not is_generic_triple(F_12, F_32, third)


def test_third_line_on_u2_is_non_generic():
    # u2 spans the intersection of the two planes; here u2 = e2
    third = Flag3.from_basis(E2, E1 + E3)
    assert not is_generic_triple(F_12, F_32, third)


def test_pairwise_opposite_but_non_generic_triple():
    # plane of the third flag contains u2 = e2, so the third flag fails to be
    # opposite to the boundary flag (<e2>, span(e2, e1)) although it is
    # opposite to both generators
    third = Flag3.from_basis(E1 + E2 + E3, E2)
    assert is_opposite(F_12, third) and is_opposite(F_32, third)
    assert not is_generic_triple(F_12, F_32, third)


def test_genericity_is_permutation_invariant():
    rng = np.random.default_rng(46)
    for _ in range(50):
        t = random_triple(rng)
        expected = is_generic_triple(*t)
        assert is_generic_triple(t[1], t[2], t[0]) == expected
        assert is_generic_triple(t[2], t[1], t[0]) == expected


def generic_by_definition(f1, f2, f3):
    """Genericity from its definition: pairwise opposition, then each flag
    opposite to the six flags of the flat boundary of the other two."""
    triple = (f1, f2, f3)
    if not all(is_opposite(triple[i], triple[j]) for i, j in ((0, 1), (0, 2), (1, 2))):
        return False
    return all(is_opposite(triple[k], flag)
               for k in range(3)
               for flag in flat_boundary(*(triple[m] for m in range(3) if m != k)).flags)


def non_generic_triples(rng, pairs):
    """Triples that fail one flat-boundary condition each, the bad flag in every slot."""
    out = []
    for _ in range(pairs):
        f1, f2 = random_flag(rng), random_flag(rng)
        flat = flat_boundary(f1, f2)
        u1, u2, u3 = flat.basis.T
        v = rng.standard_normal(3)
        bad = list(flat.flags) + [
            f1,                              # a repeated flag
            Flag3.from_basis(u2, v),         # line on u2
            Flag3.from_basis(v, u2),         # plane through u2
            Flag3.from_basis(u1 + u3, v),    # line in span(u1, u3)
        ]
        for third in bad:
            out += [(f1, f2, third), (f1, third, f2), (third, f1, f2)]
    return out


def test_is_generic_triple_matches_the_flat_boundary_definition():
    rng = np.random.default_rng(57)
    random_triples = [random_triple(rng) for _ in range(2000)]
    expected = [generic_by_definition(*t) for t in random_triples]
    assert [is_generic_triple(*t) for t in random_triples] == expected
    assert sum(expected) >= 1990
    constructed = non_generic_triples(rng, 30)
    assert not any(generic_by_definition(*t) for t in constructed)
    assert not any(is_generic_triple(*t) for t in constructed)


def test_is_generic_triple_returns_false_on_parallel_planes_without_warning():
    same_plane = Flag3.from_basis(E2, E1)  # the plane of F_12, another line
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not is_generic_triple(F_12, same_plane, F_32)
        assert not is_generic_triple(F_12, F_12, F_12)


# ---------------------------------------------------------------------------
# triple ratio


def test_triple_ratio_transposition_inverts():
    rng = np.random.default_rng(47)
    for _ in range(200):
        t = random_triple(rng)
        if not is_generic_triple(*t):
            continue
        prod = triple_ratio(t[0], t[1], t[2]) * triple_ratio(t[1], t[0], t[2])
        assert prod == pytest.approx(1.0, rel=1e-12)


def test_triple_ratio_cyclic_invariance():
    rng = np.random.default_rng(48)
    for _ in range(200):
        t = random_triple(rng)
        if not is_generic_triple(*t):
            continue
        a = triple_ratio(t[0], t[1], t[2])
        assert triple_ratio(t[1], t[2], t[0]) == pytest.approx(a, rel=1e-12)


def test_triple_ratio_sl3_invariance():
    rng = np.random.default_rng(49)
    for _ in range(200):
        t = random_triple(rng)
        if not is_generic_triple(*t):
            continue
        g = random_sl3(rng)
        a = triple_ratio(*t)
        b = triple_ratio(*(f.apply(g) for f in t))
        assert b == pytest.approx(a, rel=1e-9)


def test_triple_ratio_sign_normalization_independence():
    rng = np.random.default_rng(50)
    t = random_triple(rng)
    flipped = (Flag3(-t[0].line, -t[0].plane), t[1], t[2])
    assert triple_ratio(*flipped) == pytest.approx(triple_ratio(*t), rel=1e-12)


def test_triple_ratio_rejects_non_generic():
    third = Flag3.from_basis(E2, E3)  # line inside the first plane
    with pytest.raises(NotGeneric):
        triple_ratio(F_12, F_32, third)


# ---------------------------------------------------------------------------
# batch kernels agree with the scalar path


def test_batch_matches_scalar():
    rng = np.random.default_rng(51)
    n = 200
    lines = np.empty((n, 3, 3))
    planes = np.empty((n, 3, 3))
    for i in range(3):
        lines[:, i], planes[:, i] = batch_random_flags(rng, n)
    mask = batch_is_generic(lines, planes)
    ratios = batch_triple_ratio(lines, planes)
    for k in range(n):
        triple = tuple(Flag3(lines[k, i], planes[k, i]) for i in range(3))
        assert is_generic_triple(*triple) == bool(mask[k])
        if mask[k]:
            assert triple_ratio(*triple) == pytest.approx(ratios[k], rel=1e-10)


def test_batch_mask_on_pairs_matches_is_opposite():
    rng = np.random.default_rng(53)
    n = 200
    lines = np.empty((n, 2, 3))
    planes = np.empty((n, 2, 3))
    for i in range(2):
        lines[:, i], planes[:, i] = batch_random_flags(rng, n)
    # every fourth row pairs a flag with itself
    lines[::4, 1], planes[::4, 1] = lines[::4, 0], planes[::4, 0]
    mask = batch_is_generic(lines, planes)
    for k in range(n):
        pair = tuple(Flag3(lines[k, i], planes[k, i]) for i in range(2))
        assert is_opposite(*pair) == bool(mask[k])
    assert not mask[::4].any() and mask[1::4].all()


def test_batch_mask_on_pairs_rejects_non_opposite_flags():
    third = Flag3.from_basis(E2, E3)  # line inside the plane of F_12
    pairs = [(F_12, F_12), (F_12, third), (F_12, F_32)]
    lines = np.array([[f.line for f in pair] for pair in pairs])
    planes = np.array([[f.plane for f in pair] for pair in pairs])
    assert batch_is_generic(lines, planes).tolist() == [False, False, True]


def test_batch_random_flags_are_valid():
    rng = np.random.default_rng(52)
    lines, planes = batch_random_flags(rng, 500)
    assert np.allclose(np.linalg.norm(lines, axis=1), 1.0, atol=1e-12)
    assert np.allclose(np.linalg.norm(planes, axis=1), 1.0, atol=1e-12)
    assert np.max(np.abs(np.einsum("ni,ni->n", lines, planes))) <= 1e-12


def test_batch_normalization_equals_flag3_bit_for_bit():
    rng = np.random.default_rng(54)
    lines, planes = batch_random_flags(rng, 3000)
    # off unit length and off the incidence condition, with exact ties in |.|
    lines = lines * rng.uniform(0.5, 2.0, (3000, 1))
    planes = planes + 0.3 * rng.standard_normal(planes.shape)
    lines[:20] = [1.0, -1.0, 0.5]
    lines[20:40] = [-0.0, -2.0, 2.0]
    e, phi = batch_normalize_flags(lines, planes)
    for k in range(3000):
        flag = Flag3(lines[k], planes[k])
        assert e[k].tobytes() == flag.line.tobytes()
        assert phi[k].tobytes() == flag.plane.tobytes()


def test_batch_normalization_refuses_what_flag3_refuses():
    with pytest.raises(ValueError, match="parallel"):
        batch_normalize_flags(np.array([E1, E2, E3]), np.array([E2, 2.0 * E2, E1]))
    with pytest.raises(ValueError, match="finite and nonzero"):
        batch_normalize_flags(np.array([E1, np.zeros(3)]), np.array([E2, E1]))
    with pytest.raises(ValueError, match="finite and nonzero"):
        batch_normalize_flags(np.array([E1]), np.array([[np.nan, 1.0, 0.0]]))
