import warnings

import numpy as np
import pytest

from boundarykit import (Flag3, NotGeneric, NotOpposite, SamplerConfig,
                         flat_boundary, is_generic_triple, is_opposite,
                         random_flag, sampling_stats, triple_ratio)
from boundarykit.flags import (PAIRING_TOL, batch_is_generic, batch_normalize_flags,
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


def test_equal_flags_hash_alike_whatever_the_sign_of_a_zero():
    a = Flag3([1.0, 0.0, 0.0], [0.0, 0.0, 1.0])
    b = Flag3([1.0, -0.0, 0.0], [0.0, 0.0, 1.0])
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


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


def test_flat_boundary_flags_are_the_one_flag_calls_bit_for_bit():
    rng = np.random.default_rng(45)
    for _ in range(30):
        f, g = random_flag(rng), random_flag(rng)
        if not is_opposite(f, g):
            continue
        fb = flat_boundary(f, g)
        basis = fb.basis.T  # u1, u2, u3
        pairs = [(a, b) for a in range(3) for b in range(3) if a != b]
        for flag, (a, b) in zip(fb.flags, pairs):
            one = Flag3.from_basis(basis[a], basis[b])
            assert np.array_equal(flag.line, one.line) and np.array_equal(flag.plane, one.plane)
            assert not (flag.line.flags.writeable or flag.plane.flags.writeable)


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


def sampled_generic_triples(seed, n):
    """The generic triples among n triples of batch_random_flags."""
    rng = np.random.default_rng(seed)
    lines = np.empty((n, 3, 3))
    planes = np.empty((n, 3, 3))
    for i in range(3):
        lines[:, i], planes[:, i] = batch_random_flags(rng, n)
    keep = batch_is_generic(lines, planes)
    assert keep.mean() > 0.99
    return lines[keep], planes[keep]


def test_batch_triple_ratio_cyclic_invariance_and_transposition():
    lines, planes = sampled_generic_triples(63, 20_000)
    t = batch_triple_ratio(lines, planes)
    # the same three pairings multiplied in another order: a few ulps apart
    cyclic = [1, 2, 0]
    np.testing.assert_allclose(batch_triple_ratio(lines[:, cyclic], planes[:, cyclic]),
                               t, rtol=1e-14, atol=0)
    swapped = [1, 0, 2]
    np.testing.assert_allclose(batch_triple_ratio(lines[:, swapped], planes[:, swapped]) * t,
                               1.0, rtol=1e-14, atol=0)


def test_batch_triple_ratio_sl3_invariance():
    lines, planes = sampled_generic_triples(64, 20_000)
    t = batch_triple_ratio(lines, planes)
    # each pairing phi_i(e_j) moves by about cond(g) eps relative to its own
    # size, so the ratio by cond(g) eps times the sum of their reciprocals
    inv_pairings = sum(1.0 / np.abs(np.einsum("ni,ni->n", planes[:, i], lines[:, j]))
                       for i in range(3) for j in range(3) if i != j)
    rng = np.random.default_rng(65)
    for _ in range(5):
        g = random_sl3(rng)
        moved = batch_triple_ratio(lines @ g.T, planes @ np.linalg.inv(g))
        bound = 8 * np.linalg.cond(g) * np.finfo(float).eps * inv_pairings
        assert np.all(np.abs(moved / t - 1.0) <= bound)


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
    triples = [tuple(Flag3(lines[k, i], planes[k, i]) for i in range(3)) for k in range(n)]
    # the kernels on the flags' own vectors
    ratios = batch_triple_ratio(np.array([[f.line for f in t] for t in triples]),
                                np.array([[f.plane for f in t] for t in triples]))
    for k, triple in enumerate(triples):
        assert is_generic_triple(*triple) == bool(mask[k])
        if mask[k]:
            assert triple_ratio(*triple) == ratios[k]
    # pairings just below, at and just above the tolerance: F_12's covector
    # dx3 takes the value t on the line (0, 1, t), a unit vector in floats
    for t in (np.nextafter(PAIRING_TOL, 0), PAIRING_TOL, np.nextafter(PAIRING_TOL, 1)):
        g = Flag3([0.0, 1.0, t], E1)
        assert F_12.pairing(g) == t and g.pairing(F_12) == 1.0
        for pair in ((F_12, g), (g, F_12)):
            pair_mask = batch_is_generic(np.array([[f.line for f in pair]]),
                                         np.array([[f.plane for f in pair]]))
            assert is_opposite(*pair) == bool(pair_mask[0]) == (t > PAIRING_TOL)


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
        # at a tolerance equal to the smaller pairing, and just below it, the
        # two agree on the flags' own vectors only if they pair them alike
        edge = min(abs(pair[0].pairing(pair[1])), abs(pair[1].pairing(pair[0])))
        own = np.array([[f.line for f in pair]]), np.array([[f.plane for f in pair]])
        for tol in (edge, np.nextafter(edge, 0)):
            assert is_opposite(*pair, tol) == bool(batch_is_generic(*own, tol)[0])
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


def qr_flags(frames):
    """Flags of the QR frames with R's diagonal made positive: the
    definition the sampler's closed form must match."""
    q, r = np.linalg.qr(frames)
    q = q * np.sign(np.einsum("nii->ni", r))[:, None, :]
    planes = np.cross(q[:, :, 0], q[:, :, 1])
    return q[:, :, 0], planes / np.linalg.norm(planes, axis=1, keepdims=True)


def exact_flags(frames):
    """The same flags in np.longdouble, as a reference."""
    a = frames[:, :, 0].astype(np.longdouble)
    c = np.cross(a, frames[:, :, 1].astype(np.longdouble))
    return (a / np.sqrt(np.sum(a * a, axis=1))[:, None],
            c / np.sqrt(np.sum(c * c, axis=1))[:, None])


def test_batch_random_flags_agree_with_the_qr_frame():
    n = 20_000
    frames = np.random.default_rng(60).standard_normal((n, 3, 3))
    lines, planes = batch_random_flags(np.random.default_rng(60), n)
    a, b = frames[:, :, 0], frames[:, :, 1]
    sine = np.linalg.norm(np.cross(a, b), axis=1) / (
        np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1))
    keep = sine > 1e-3  # columns not nearly parallel
    assert keep.mean() > 0.99
    q_lines, q_planes = qr_flags(frames)
    assert np.max(np.abs(lines - q_lines)[keep]) <= 1e-12
    assert np.max(np.abs(planes - q_planes)[keep]) <= 1e-12


def test_batch_random_flags_are_as_close_to_exact_as_the_qr_frame():
    if np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps:
        pytest.skip("np.longdouble is no wider than float64 here")
    n = 100_000
    frames = np.random.default_rng(61).standard_normal((n, 3, 3))
    exact_lines, exact_planes = exact_flags(frames)

    def errors(flags):
        lines, planes = flags
        return (np.max(np.abs(lines - exact_lines), axis=1).astype(np.float64),
                np.max(np.abs(planes - exact_planes), axis=1).astype(np.float64))

    line_err, plane_err = errors(batch_random_flags(np.random.default_rng(61), n))
    qr_line_err, qr_plane_err = errors(qr_flags(frames))
    assert line_err.max() <= qr_line_err.max()
    assert np.quantile(plane_err, 0.99) <= np.quantile(qr_plane_err, 0.99)
    assert plane_err.max() <= qr_plane_err.max()


def test_batch_random_flags_make_no_lapack_call(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the flag sampler factorized a matrix")

    monkeypatch.setattr(np.linalg, "qr", refuse)
    batch_random_flags(np.random.default_rng(62), 10)
    random_flag(np.random.default_rng(62))


def test_random_flag_is_one_row_of_the_batch_sampler():
    for seed in range(20):
        rng, rng2 = np.random.default_rng(seed), np.random.default_rng(seed)
        flag = random_flag(rng)
        lines, planes = batch_random_flags(rng2, 1)
        expected = Flag3(lines[0], planes[0])
        assert flag.line.tobytes() == expected.line.tobytes()
        assert flag.plane.tobytes() == expected.plane.tobytes()
        assert rng.bit_generator.state == rng2.bit_generator.state


# draws of 2,000-tuple flags3 samples, as recorded with the QR sampler;
# tolerances 0.05 and 0.2 force rejections, so a change to the random
# stream or to the accepted set shows here
FLAGS3_DRAWS = [
    (1, 2, 0.05, 2228), (1, 3, 0.05, 3027), (1, 3, 0.2, 12018),
    (2, 2, 0.2, 3006), (2, 3, 0.05, 2970), (2, 3, 0.2, 11698),
    (3, 2, 0.05, 2219), (3, 3, 0.2, 11741), (3, 3, 1e-9, 2000),
]


@pytest.mark.parametrize("seed, size, tol, draws", FLAGS3_DRAWS)
def test_flags3_sampler_draws_as_before(seed, size, tol, draws):
    config = SamplerConfig(model="flags3", tuple_size=size, count=2000, seed=seed,
                           tolerance=tol)
    stats = sampling_stats(config)
    assert (stats["draws"], stats["accepted"]) == (draws, 2000)


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


# ---------------------------------------------------------------------------
# the component kernels equal np.cross / np.einsum / np.linalg.norm kernels


def reference_is_generic(lines, planes, tol):
    """batch_is_generic written with np.cross, np.einsum and np.linalg.norm."""
    def pair(phi, e):
        return np.einsum("ni,ni->n", phi, e)

    def unit(v):
        return v / np.linalg.norm(v, axis=1, keepdims=True)

    size = lines.shape[1]
    e = [np.ascontiguousarray(lines[:, i]) for i in range(size)]
    phi = [np.ascontiguousarray(planes[:, i]) for i in range(size)]
    ok = np.ones(lines.shape[0], dtype=bool)
    for i in range(size):
        for j in range(size):
            if i != j:
                ok &= np.abs(pair(phi[i], e[j])) > tol
    if size == 3:
        for k in range(3):
            i, j = [m for m in range(3) if m != k]
            u = (e[i], unit(np.cross(phi[i], phi[j])), e[j])
            ok &= np.abs(pair(phi[k], u[1])) > tol
            for a, b in ((0, 1), (0, 2), (1, 2)):
                ok &= np.abs(pair(unit(np.cross(u[a], u[b])), e[k])) > tol
    return ok


def reference_triple_ratio(lines, planes):
    def pair(i, j):
        return np.einsum("ni,ni->n", planes[:, i], lines[:, j])
    return pair(0, 1) * pair(1, 2) * pair(2, 0) / (pair(0, 2) * pair(1, 0) * pair(2, 1))


def triples_at_tol(seed, n, tol):
    """n random flag triples, a quarter with phi_0(e_1) = +-tol up to rounding."""
    rng = np.random.default_rng(seed)
    lines = np.empty((n, 3, 3))
    planes = np.empty((n, 3, 3))
    for i in range(3):
        lines[:, i], planes[:, i] = batch_random_flags(rng, n)
    near = slice(0, n // 4)
    phi, e = planes[near, 0], lines[near, 1]
    v = e - np.vecdot(phi, e)[:, None] * phi
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    sign = rng.choice([-1.0, 1.0], size=(n // 4, 1))
    e = sign * tol * phi + np.sqrt(1.0 - tol * tol) * v
    lines[near, 1] = e
    # keep flag 1's plane through its moved line
    psi = planes[near, 1] - np.vecdot(planes[near, 1], e)[:, None] * e
    planes[near, 1] = psi / np.linalg.norm(psi, axis=1, keepdims=True)
    return lines, planes


def test_component_kernels_equal_the_numpy_kernels_bit_for_bit():
    tol = 0.05
    lines, planes = triples_at_tol(71, 200_000, tol)
    pairing = np.abs(np.einsum("ni,ni->n", planes[:50_000, 0], lines[:50_000, 1]))
    assert np.all(np.abs(pairing - tol) < 1e-13)
    assert (pairing <= tol).any() and (pairing > tol).any()
    # in blocks of 4,096 rows, as the sampler calls them
    for start in range(0, 200_000, 4096):
        e, phi = lines[start:start + 4096], planes[start:start + 4096]
        for size in (2, 3):
            assert np.array_equal(batch_is_generic(e[:, :size], phi[:, :size], tol),
                                  reference_is_generic(e[:, :size], phi[:, :size], tol))
    ratios = batch_triple_ratio(lines, planes)
    assert ratios.tobytes() == reference_triple_ratio(lines, planes).tobytes()
