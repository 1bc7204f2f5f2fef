import cmath
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from boundarykit import (DegenerateArguments, EvaluationError, GridConfig,
                         IterationOverflow, MissingAlternation, ScalarFunction,
                         UnboundedDefect, alternating_bump_function,
                         certify_complex_region, certify_interval, const_function,
                         doubling_defect, extend_by_symmetry, five_term_defect,
                         pole_function, vol3_slice)
from boundarykit.certifier import (BoundCertificate, RegionSpec, _base_sector_grids,
                                   _effective_depth, _in_sector, _linspace, _near2_disk_grid,
                                   _near2_radius, _polar_grid, _real_target_grid,
                                   _sector_grid, _squarings)
from boundarykit.sampling import ROW_BLOCK, _blocks

FAST_GRID = GridConfig(points_per_region=2000)


def target_points(delta, cfg=FAST_GRID):
    """The real target grid: its blocks, concatenated."""
    return np.concatenate(list(_real_target_grid(delta, cfg)))


def smooth_real():
    return ScalarFunction(evaluator=lambda x: math.exp(-(x - 0.5) ** 2),
                          field_tag="real")


def smooth_complex():
    return ScalarFunction(evaluator=lambda z: math.exp(-abs(complex(z) - 0.5) ** 2),
                          field_tag="complex")


# ---------------------------------------------------------------------------
# five-term and doubling defects


def test_five_term_of_constant_is_the_constant():
    F = const_function(2.5)
    assert five_term_defect(F, 0.4, 0.7) == 2.5
    assert five_term_defect(F, -3.0, 5.0) == 2.5


def test_five_term_of_vol3_slice_vanishes():
    F = vol3_slice()
    rng = np.random.default_rng(91)
    for _ in range(100):
        x = complex(rng.standard_normal(), rng.standard_normal())
        y = complex(rng.standard_normal(), rng.standard_normal())
        if min(abs(x), abs(x - 1), abs(y), abs(y - 1), abs(x - y)) < 1e-3:
            continue
        assert abs(five_term_defect(F, x, y)) <= 1e-7


def test_five_term_of_pole_grows_without_bound():
    F = pole_function()
    values = [abs(five_term_defect(F, 1.0 - 2.0 ** -m, (1.0 - 2.0 ** -m) ** 2))
              for m in range(3, 16)]
    assert all(b > a for a, b in zip(values, values[1:]))
    assert values[-1] > 1e3


def test_five_term_rejects_degenerate_arguments():
    F = const_function(1.0)
    with pytest.raises(DegenerateArguments):
        five_term_defect(F, 1.0, 0.5)
    with pytest.raises(DegenerateArguments):
        five_term_defect(F, 0.5, 0.5)


def test_doubling_examples():
    assert doubling_defect(const_function(3.0), 0.4) == 3.0
    F = ScalarFunction(evaluator=lambda x: x, field_tag="real")
    assert doubling_defect(F, 0.5) == pytest.approx(2.25, abs=1e-15)


def test_doubling_equals_five_term_at_squared_point():
    rng = np.random.default_rng(92)
    F = smooth_real()
    G = smooth_complex()
    for _ in range(200):
        x = rng.uniform(-2.0, 2.0)
        if min(abs(x), abs(x - 1), abs(x + 1)) < 1e-2:
            continue
        assert doubling_defect(F, x) == pytest.approx(
            five_term_defect(F, x, x * x), abs=1e-12)
        z = complex(x, rng.uniform(-1, 1))
        if min(abs(z), abs(z - 1), abs(z + 1), abs(z - z * z)) < 1e-2:
            continue
        assert doubling_defect(G, z) == pytest.approx(
            five_term_defect(G, z, z * z), abs=1e-12)


def test_doubling_rejects_minus_one():
    with pytest.raises(DegenerateArguments):
        doubling_defect(const_function(1.0), -1.0)


# ---------------------------------------------------------------------------
# interval certification


def test_certificate_with_zero_increments_reduces_to_m_base():
    cert = certify_interval(const_function(0.0), delta=0.125, grid=FAST_GRID,
                            overrides={"M_base": 4.0, "B_defect": 0.0,
                                       "M_near2": 0.0})
    assert cert.certified_bound == 4.0
    assert cert.provenance["M_base"] == "analytic"


def test_certificate_with_unit_constants():
    cert = certify_interval(const_function(0.0), delta=0.125, grid=FAST_GRID,
                            overrides={"M_base": 1.0, "B_defect": 1.0,
                                       "M_near2": 0.0})
    assert cert.certified_bound == pytest.approx(3.0, abs=1e-15)


def test_certificate_formula_reconstruction():
    cert = certify_interval(smooth_real(), delta=0.125, grid=FAST_GRID)
    c = cert.inputs["B_defect"] + 2.0 * cert.inputs["M_near2"]
    assert cert.certified_bound == cert.inputs["M_base"] + 2.0 * c
    assert set(cert.provenance.values()) == {"empirical"}
    assert cert.region.kind == "real_interval"
    assert cert.k_max < 60


def test_certificate_soundness_on_finer_grid():
    F = alternating_bump_function()
    delta = 0.125
    cert = certify_interval(F, delta=delta, grid=FAST_GRID)
    fine = np.linspace(1.0 - delta, 1.0 - 1e-9, 10 * FAST_GRID.points_per_region)
    emp = max(abs(F(x)) for x in fine)
    assert cert.certified_bound + 1e-9 >= emp


def test_certificate_monotonicity():
    base = dict(M_base=1.0, B_defect=0.5, M_near2=0.25)
    cert = certify_interval(const_function(0.0), delta=0.125, grid=FAST_GRID,
                            overrides=base)
    for key in base:
        bigger = dict(base)
        bigger[key] = base[key] + 1.0
        cert_b = certify_interval(const_function(0.0), delta=0.125,
                                  grid=FAST_GRID, overrides=bigger)
        assert cert_b.certified_bound >= cert.certified_bound


@pytest.mark.parametrize("certify, F, delta", [
    pytest.param(certify_interval, smooth_real(), 0.125, id="real"),
    pytest.param(certify_complex_region, smooth_complex(), 0.1, id="complex"),
])
def test_overrides_on_both_regions(certify, F, delta):
    def check(cert, analytic):
        assert cert.provenance == {key: "analytic" if key in analytic
                                   else "empirical" for key in cert.inputs}
        assert cert.certified_bound == cert.inputs["M_base"] + 2.0 * (
            cert.inputs["B_defect"] + 2.0 * cert.inputs["M_near2"])

    full = {"M_base": 1.25, "B_defect": 0.5, "M_near2": 0.375}
    cert = certify(F, delta=delta, grid=FAST_GRID, overrides=full)
    assert cert.inputs == full
    check(cert, full)
    check(certify(F, delta=delta, grid=FAST_GRID, overrides={"M_near2": 3.0}),
          {"M_near2"})
    with pytest.raises(ValueError, match="unknown override keys"):
        certify(F, delta=delta, grid=FAST_GRID, overrides={"M_nearby": 1.0})


def test_pole_is_refused():
    with pytest.raises(UnboundedDefect):
        certify_interval(pole_function(), delta=0.125, grid=FAST_GRID)
    with pytest.raises(UnboundedDefect):
        certify_interval(pole_function(), delta=0.02, grid=FAST_GRID)


def refused_point(refusal, before, after):
    """The point a refusal message names, parsed back from its plain repr."""
    message = str(refusal.value)
    return complex(message.split(before)[1].split(after)[0])


REGIONS = [
    pytest.param(certify_interval, "real", 0.125, id="real"),
    pytest.param(certify_complex_region, "complex", 0.1, id="complex"),
]


@pytest.mark.parametrize("certify, field, delta", REGIONS)
def test_nan_on_the_target_is_refused(certify, field, delta):
    F = ScalarFunction(lambda x: math.nan if 0.99 < abs(x) < 1 else 1.0, field)
    with pytest.raises(UnboundedDefect) as refusal:
        certify(F, delta=delta, grid=FAST_GRID)
    x = refused_point(refusal, "doubling defect nan at point ", " is not below")
    assert 0.99 < abs(x) < 1


@pytest.mark.parametrize("certify, field, delta", REGIONS)
def test_nan_only_near_2_is_refused(certify, field, delta):
    # with B_defect given, only the M_near2 sweep evaluates F near 2
    F = ScalarFunction(lambda x: math.nan if abs(x - 2) < 0.01 else 1.0, field)
    with pytest.raises(UnboundedDefect) as refusal:
        certify(F, delta=delta, grid=FAST_GRID, overrides={"B_defect": 0.0})
    x = refused_point(refusal, "|F| = nan at point ", " is not finite")
    assert abs(x - 2) < 0.01


@pytest.mark.parametrize("certify, field, delta", REGIONS)
def test_nan_on_the_compact_region_is_refused(certify, field, delta):
    cert = certify(const_function(1.0, field), delta=delta, grid=FAST_GRID)
    F = ScalarFunction(lambda x: math.nan if abs(x) < 0.6 else 1.0, field,
                       from_alternating=True)
    with pytest.raises(UnboundedDefect) as refusal:
        extend_by_symmetry(cert, F, grid=FAST_GRID)
    x = refused_point(refusal, "|F| = nan at point ", " is not finite")
    assert abs(x) < 0.6


@pytest.mark.parametrize("certify, field, delta", REGIONS)
def test_an_evaluator_failure_is_refused_with_its_point(certify, field, delta):
    F = ScalarFunction(lambda x: 1.0 / 0.0 if 0.99 < abs(x) < 1 else 1.0, field)
    with pytest.raises(EvaluationError) as refusal:
        certify(F, delta=delta, grid=FAST_GRID)
    assert isinstance(refusal.value.__cause__, ZeroDivisionError)
    message = str(refusal.value)
    assert message.startswith("evaluator raised ZeroDivisionError at point ")
    point = message.split(" at point ")[1]
    scalar = float if field == "real" else complex
    assert repr(scalar(point)) == point  # a plain repr, not a numpy scalar's
    assert 0.99 < abs(scalar(point)) < 1


@pytest.mark.parametrize("certify, field, delta", REGIONS)
def test_an_evaluator_failure_on_the_compact_region_is_refused(certify, field, delta):
    cert = certify(const_function(1.0, field), delta=delta, grid=FAST_GRID)
    F = ScalarFunction(lambda x: [][0] if abs(x) < 0.6 else 1.0, field,
                       from_alternating=True)
    with pytest.raises(EvaluationError, match="raised IndexError at point") as refusal:
        extend_by_symmetry(cert, F, grid=FAST_GRID)
    assert isinstance(refusal.value.__cause__, IndexError)
    assert abs(complex(str(refusal.value).split(" at point ")[1])) < 0.6


@pytest.mark.parametrize("points", [0, -3])
def test_an_empty_grid_issues_no_certificate(points):
    with pytest.raises(ValueError, match="points_per_region"):
        certify_interval(const_function(1.0),
                         grid=GridConfig(points_per_region=points))


def test_interval_rejects_bad_delta():
    with pytest.raises(ValueError):
        certify_interval(const_function(1.0), delta=1.5)


def test_certificate_reproducible():
    a = certify_interval(smooth_real(), delta=0.1, grid=FAST_GRID)
    b = certify_interval(smooth_real(), delta=0.1, grid=FAST_GRID)
    assert a == b


# ---------------------------------------------------------------------------
# symmetry extension


def _near_one_empirical_cert(F, delta, n=20_000):
    xs = np.concatenate([np.linspace(1.0 - delta, 1.0 - 1e-9, n),
                         np.linspace(1.0 + 1e-9, 1.0 / (1.0 - delta), n)])
    sup = max(abs(F(x)) for x in xs)
    region = RegionSpec(kind="real_interval", delta=delta,
                        target=f"[{1 - delta}, 1)", base="caller-supplied")
    return BoundCertificate(region=region, certified_bound=sup,
                            inputs={"M_base": sup, "B_defect": 0.0,
                                    "M_near2": 0.0},
                            k_max=0, provenance={"M_base": "empirical"})


def test_extension_requires_alternation_declaration():
    cert = certify_interval(smooth_real(), delta=0.125, grid=FAST_GRID)
    with pytest.raises(MissingAlternation):
        extend_by_symmetry(cert, smooth_real())


def test_extension_bounds_zero_and_infinity_neighborhoods():
    F = alternating_bump_function()
    delta = 0.125
    cert = certify_interval(F, delta=delta, grid=FAST_GRID)
    glob = extend_by_symmetry(cert, F, grid=FAST_GRID)
    rng = np.random.default_rng(93)
    for _ in range(500):
        x = rng.uniform(-delta, delta)
        if abs(x) < 1e-8:
            continue
        assert abs(F(x)) <= glob.certified_bound + 1e-12
        big = 1.0 / x
        assert abs(F(big)) <= glob.certified_bound + 1e-12


def test_extension_matches_brute_force_sup():
    F = alternating_bump_function()
    delta = 0.125
    cert = _near_one_empirical_cert(F, delta)
    glob = extend_by_symmetry(cert, F, grid=GridConfig(points_per_region=20_000))
    xs = np.linspace(-60.0, 60.0, 600_001)
    xs = xs[(np.abs(xs) > 1e-7) & (np.abs(xs - 1.0) > 1e-7)]
    brute = max(abs(F(x)) for x in xs)
    assert glob.certified_bound >= brute - 1e-12
    assert glob.certified_bound <= brute * 1.05
    assert glob.region.kind == "real_global"
    assert glob.provenance["compact_sup"] == "empirical"


# ---------------------------------------------------------------------------
# complex sector certification


def test_complex_real_points_iterate_like_the_interval():
    delta = 0.1
    x = 0.97

    def count_real(x):
        k = 0
        while x > 1.0 - delta:
            x = x * x
            k += 1
        return k

    k_real = count_real(x)
    z, k = complex(x, 0.0), 0
    while _in_sector(z, delta):
        z = z * z
        k += 1
    assert k == k_real


def test_complex_explicit_doubling_count():
    # oracle: minimal k with 2^k arg >= delta or modulus^(2^k) <= 1 - delta
    delta = 0.1

    def explicit_count(r, t):
        k = 0
        while r > 1.0 - delta and abs(t) < delta:
            r, t, k = r * r, 2.0 * t, k + 1
        return k

    for r, t in ((1.0 - delta / 2.0, 0.6 * delta), (1.0, 0.3 * delta),
                 (1.0 - delta / 3.0, 0.01 * delta), (0.92, 0.0),
                 (0.999, -0.45 * delta)):
        w, k = cmath.rect(r, t), 0
        while _in_sector(w, delta):
            w = w * w
            k += 1
        assert k == explicit_count(r, t)


def test_complex_certificate_for_vol3_slice_is_sound():
    F = vol3_slice()
    delta = 0.1
    cert = certify_complex_region(F, delta=delta, grid=FAST_GRID)
    assert cert.inputs["B_defect"] <= 1e-7  # cocycle slice: defect is quadrature noise
    assert cert.k_max < 60
    sup = 0.0
    for r in np.linspace(1.0 - delta + 1e-6, 1.0, 160):
        for t in np.linspace(-delta + 1e-6, delta - 1e-6, 160):
            sup = max(sup, abs(F(cmath.rect(r, t))))
    assert cert.certified_bound + 1e-9 >= sup
    assert cert.region.kind == "complex_sector"


def test_complex_pole_is_refused():
    with pytest.raises(UnboundedDefect):
        certify_complex_region(pole_function("complex"), delta=0.1, grid=FAST_GRID)


def test_complex_rejects_bad_inputs():
    with pytest.raises(ValueError):
        certify_complex_region(vol3_slice(), delta=0.3)
    with pytest.raises(ValueError):
        certify_complex_region(smooth_real(), delta=0.1)


def test_real_and_complex_certifiers_agree_on_smooth_function():
    delta = 0.1
    real_cert = certify_interval(smooth_real(), delta=delta, grid=FAST_GRID)
    cplx_cert = certify_complex_region(smooth_complex(), delta=delta,
                                       grid=FAST_GRID)
    rel = abs(real_cert.certified_bound - cplx_cert.certified_bound)
    assert rel <= 0.25 * real_cert.certified_bound


def test_complex_extension_global_bound():
    F = vol3_slice()
    cert = certify_complex_region(F, delta=0.1, grid=FAST_GRID)
    glob = extend_by_symmetry(cert, F, grid=FAST_GRID)
    rng = np.random.default_rng(94)
    for _ in range(300):
        z = complex(rng.standard_normal(), rng.standard_normal()) * 3.0
        if min(abs(z), abs(z - 1)) < 1e-3:
            continue
        assert abs(F(z)) <= glob.certified_bound + 1e-9
    assert glob.region.kind == "complex_global"


# ---------------------------------------------------------------------------
# block evaluation


def without_batch(F):
    return dataclasses.replace(F, batch=None)


@pytest.mark.parametrize("F, certify, delta, tol", [
    pytest.param(alternating_bump_function(), certify_interval, 0.125, 0.0, id="bump"),
    pytest.param(vol3_slice(), certify_complex_region, 0.1, 1e-14, id="vol3-slice"),
])
def test_batch_certificate_matches_the_point_by_point_one(F, certify, delta, tol):
    batch = certify(F, delta=delta, grid=FAST_GRID)
    scalar = certify(without_batch(F), delta=delta, grid=FAST_GRID)
    assert batch.k_max == scalar.k_max
    assert batch.inputs.keys() == scalar.inputs.keys()
    for key in scalar.inputs:  # tol 0.0: bit for bit
        assert abs(batch.inputs[key] - scalar.inputs[key]) <= tol
    glob = extend_by_symmetry(batch, F, grid=FAST_GRID)
    glob_scalar = extend_by_symmetry(scalar, without_batch(F), grid=FAST_GRID)
    assert abs(glob.inputs["compact_sup"] - glob_scalar.inputs["compact_sup"]) <= tol


def scalar_path_unused(x):
    pytest.fail(f"the evaluator ran at {x!r} although the batch succeeded")


@pytest.mark.parametrize("certify, field, delta", REGIONS)
def test_a_batch_nan_on_the_target_is_refused_at_its_first_point(certify, field, delta):
    def nan_part(x):
        return (0.99 < np.abs(x)) & (np.abs(x) < 1)

    F = ScalarFunction(scalar_path_unused, field,
                       batch=lambda x: np.where(nan_part(x), np.nan, 1.0))
    with pytest.raises(UnboundedDefect) as refusal:
        certify(F, delta=delta, grid=FAST_GRID)
    x = refused_point(refusal, "doubling defect nan at point ", " is not below")
    grid = target_points(delta) if field == "real" else _sector_grid(
        delta, FAST_GRID)
    assert x == grid[nan_part(grid)][0]  # the first such point in grid order


def test_bump_batch_equals_its_evaluator_bit_for_bit():
    F = alternating_bump_function()
    rng = np.random.default_rng(96)
    x = np.concatenate([rng.uniform(-10.0, 10.0, 50_000), rng.uniform(0.5, 1.0, 50_000),
                        rng.uniform(1.0, 2.6, 50_000)])
    assert F.batch(x).tolist() == [F(v) for v in x.tolist()]


@pytest.mark.parametrize("certify, field, delta", REGIONS)
def test_a_raising_batch_is_refused_at_the_failing_point(certify, field, delta):
    def batch(x):
        raise RuntimeError("the array path failed")

    F = ScalarFunction(lambda x: 1.0 / 0.0 if 0.99 < abs(x) < 1 else 1.0, field,
                       batch=batch)
    with pytest.raises(EvaluationError) as refusal:
        certify(F, delta=delta, grid=FAST_GRID)
    assert isinstance(refusal.value.__cause__, ZeroDivisionError)
    point = str(refusal.value).split(" at point ")[1]
    scalar = float if field == "real" else complex
    assert repr(scalar(point)) == point  # a plain repr, not a numpy scalar's
    assert 0.99 < abs(scalar(point)) < 1


@pytest.mark.parametrize("certify, field, delta", REGIONS)
def test_a_complex_valued_batch_is_not_certified_on_its_real_part(certify, field, delta):
    # without the batch F is refused: float() of a complex value raises TypeError
    F = ScalarFunction(lambda x: 0.5 + 1e9j, field,
                       batch=lambda x: np.full(x.shape, 0.5 + 1e9j))
    with pytest.raises(EvaluationError, match="evaluator raised TypeError at point"):
        certify(F, delta=delta, grid=GridConfig(100))


def test_sector_membership_on_its_boundary():
    delta = 0.1
    r = 1.0 - delta / 2.0
    cases = {
        complex(1.0, 0.0): False,                           # z = 1 is excluded
        cmath.rect(1.0, 0.5 * delta): True,                 # |z| = 1 is included
        cmath.rect(1.0, -0.5 * delta): True,
        complex(1.0 + 1e-12, 0.0): True,                    # the outer slack
        complex(math.nextafter(1.0 + 1e-12, 2.0), 0.0): False,
        complex(1.0 - delta, 0.0): False,                   # |z| = 1 - delta is excluded
        complex(math.nextafter(1.0 - delta, 1.0), 0.0): True,
        cmath.rect(r, delta * (1.0 - 1e-12)): True,         # arg z = +-delta is excluded
        cmath.rect(r, -delta * (1.0 - 1e-12)): True,
        cmath.rect(r, delta * (1.0 + 1e-12)): False,
        cmath.rect(r, -delta * (1.0 + 1e-12)): False,
    }
    points = np.array(list(cases))
    assert _in_sector(points, delta).tolist() == list(cases.values())
    assert [bool(_in_sector(z, delta)) for z in cases] == list(cases.values())


def test_sector_membership_agrees_with_python_scalars():
    delta = 0.1
    rng = np.random.default_rng(95)
    z = (1.0 + 2.0 * delta * (rng.random(20_000) - 0.5)) * np.exp(
        3j * delta * (rng.random(20_000) - 0.5))

    def definition(w):
        return w != 1 and 1.0 - delta < abs(w) <= 1.0 + 1e-12 and abs(cmath.phase(w)) < delta

    assert _in_sector(z, delta).tolist() == [definition(w) for w in z.tolist()]


@pytest.mark.parametrize("field", ["real", "complex"])
def test_squaring_count_and_its_cap(field):
    delta = 0.1
    if field == "real":
        points = target_points(delta)

        def inside(w):
            return w > 1.0 - delta
    else:
        points = _sector_grid(delta, FAST_GRID)

        def inside(w):
            return _in_sector(w, delta)

    def count(w):  # one point at a time, in Python scalars
        k = 0
        while inside(w):
            w, k = w * w, k + 1
        return k

    k_max = max(count(w) for w in points.tolist())
    assert _squarings(points, inside, cap=k_max) == k_max
    with pytest.raises(IterationOverflow, match=f"exceeded cap {k_max - 1}"):
        _squarings(points, inside, cap=k_max - 1)


# ---------------------------------------------------------------------------
# grids as outer products equal the point-by-point construction


def listed_sector_grid(delta, cfg):
    m = max(2, math.isqrt(cfg.points_per_region))
    m += m % 2
    moduli = 1.0 - delta + delta * np.arange(1, m + 1) / m
    args = -delta + 2.0 * delta * (np.arange(m) + 0.5) / m
    points = [complex(r * math.cos(t), r * math.sin(t)) for r in moduli for t in args]
    for j in range(1, _effective_depth(delta) + 1):
        eps = delta * 0.5 ** j
        points += [cmath.rect(1.0, eps), cmath.rect(1.0, -eps), complex(1.0 - eps, 0.0)]
    return np.array(points)


def listed_base_sector_grids(delta, cfg):
    m = max(2, math.isqrt(cfg.points_per_region // 2))
    points = [cmath.rect(r, t) for r in np.linspace((1.0 - delta) ** 2, 1.0 - delta, m)
              for t in np.linspace(-2.0 * delta, 2.0 * delta, m)]
    side_args = np.concatenate([np.linspace(-2.0 * delta, -delta, m // 2),
                                np.linspace(delta, 2.0 * delta, m // 2)])
    points += [cmath.rect(r, t) for r in np.linspace(1.0 - delta + delta / m, 1.0, m)
               for t in side_args]
    return np.array(points)


def listed_near2_disk_grid(delta, cfg):
    radius = _near2_radius(delta)
    m = max(2, math.isqrt(cfg.points_per_region))
    return np.array([complex(2.0, 0.0)] + [
        2.0 + cmath.rect(r, t) for r in np.linspace(radius / m, radius, m)
        for t in np.linspace(0.0, 2.0 * math.pi, m, endpoint=False)])


def listed_compact_region(delta, cfg):
    rho = delta / 2.0
    m = max(2, math.isqrt(cfg.points_per_region))
    points = [cmath.rect(r, t) for r in np.linspace(rho, 2.0 / delta, m)
              for t in np.linspace(0.0, 2.0 * math.pi, m, endpoint=False)]
    return np.array([z for z in points if abs(z - 1.0) >= rho])


@pytest.mark.parametrize("delta", [0.01, 0.05, 0.1, 0.144, 0.2, 0.249])
@pytest.mark.parametrize("n", [1, 3, 1001, 10_000])
def test_grids_equal_their_point_by_point_construction_bitwise(delta, n):
    cfg = GridConfig(points_per_region=n)
    pairs = [(_sector_grid, listed_sector_grid),
             (_base_sector_grids, listed_base_sector_grids),
             (_near2_disk_grid, listed_near2_disk_grid)]
    for grid, listed in pairs:
        got, want = grid(delta, cfg), listed(delta, cfg)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    seen = []

    def record(z):
        seen.append(z.copy())
        return np.zeros(z.shape)

    F = ScalarFunction(evaluator=lambda z: 0.0, field_tag="complex",
                       from_alternating=True, batch=record)
    near_1 = BoundCertificate(region=RegionSpec(kind="complex_sector", delta=delta,
                                                target="U", base="B"),
                              certified_bound=1.0, inputs={}, k_max=0)
    extend_by_symmetry(near_1, F, cfg)
    # F is read once at the compact grid and the near-1 grid with its two
    # images, then at the two images of every point but the near-1 grid's,
    # whose images are already among those points
    compact, sector = listed_compact_region(delta, cfg), listed_sector_grid(delta, cfg)
    points = np.concatenate([compact, sector, 1.0 / sector, 1.0 - sector])
    others = np.concatenate([compact, 1.0 / sector, 1.0 - sector])
    want = np.concatenate([points, 1.0 / others, 1.0 - others])
    assert np.concatenate(seen).tobytes() == want.tobytes()


def test_polar_grid_keeps_signed_zero_angles_as_cmath_rect_does():
    angles = [-0.0, 0.0, math.pi, -math.pi / 2]
    got = _polar_grid([0.0, 1.0, 2.5], angles)
    want = np.array([cmath.rect(r, t) for r in (0.0, 1.0, 2.5) for t in angles])
    assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# the extension checks the alternation it uses


def identity(field):
    """F(x) = Re x, declared alternating although it is not."""
    return ScalarFunction(lambda x: complex(x).real, field, from_alternating=True,
                          batch=np.real)


def spoiled_at(F, point):
    """F plus 1 at one point, so alternating everywhere else."""
    return dataclasses.replace(F, evaluator=lambda x: F.evaluator(x) + (x == point),
                               batch=lambda x: F.batch(x) + (x == point))


def test_the_declared_identity_is_refused_at_its_first_compact_point():
    F = identity("real")
    cert = certify_interval(F, 0.3)
    assert cert.certified_bound == pytest.approx(15.41, abs=0.01)
    with pytest.raises(MissingAlternation) as refusal:
        extend_by_symmetry(cert, F)
    assert str(refusal.value).startswith("|F(x) + F(1/x)| = 1.090e+00 max(1, |F(x)|) ")
    assert refused_point(refusal, " at point ", " exceeds") == -1.0 / 0.3


@pytest.mark.parametrize("certify, field, delta", REGIONS)
def test_a_declared_identity_is_refused_in_either_field(certify, field, delta):
    F = identity(field)
    cert = certify(F, delta=delta, grid=FAST_GRID)
    with pytest.raises(MissingAlternation, match="exceeds tolerance 1e-12") as refusal:
        extend_by_symmetry(cert, F, grid=FAST_GRID)
    first = -1.0 / delta if field == "real" else delta / 2.0  # the first compact point
    assert refused_point(refusal, " at point ", " exceeds") == first


@pytest.mark.parametrize("F, certify, delta, bound, compact_sup, defect", [
    pytest.param(alternating_bump_function(), certify_interval, 0.125,
                 "0x1.9d7e513a07f64p-3", "0x1.8d6f85f366c40p-5", "0x1.6000000000000p-51",
                 id="bump"),
    pytest.param(vol3_slice(), certify_complex_region, 0.1, "0x1.0382bdbe753c0p+0",
                 "0x1.0382bdbe753c0p+0", "0x1.1000000000000p-50", id="vol3-slice"),
])
def test_alternating_functions_extend_to_their_former_bound(F, certify, delta, bound,
                                                            compact_sup, defect):
    glob = extend_by_symmetry(certify(F, delta=delta, grid=FAST_GRID), F, grid=FAST_GRID)
    assert glob.certified_bound.hex() == bound
    assert glob.inputs["compact_sup"].hex() == compact_sup
    assert glob.inputs["alternation_defect"].hex() == defect
    assert glob.provenance["alternation_defect"] == "empirical"


@pytest.mark.parametrize("F, certify, delta, reads, compact_sup, defect", [
    pytest.param(alternating_bump_function(), certify_interval, 0.125, 160_203,
                 "0x1.8d6f8741a61b8p-5", "0x1.8000000000000p-51", id="bump"),
    pytest.param(vol3_slice(), certify_complex_region, 0.1, 100_693,
                 "0x1.03702e43459a5p+0", "0x1.0000000000000p-50", id="vol3-slice"),
])
def test_the_extension_reads_each_point_once_at_default_grids(F, certify, delta, reads,
                                                              compact_sup, defect):
    cert = certify(F, delta=delta)
    count = []

    def counted(x):
        count.append(x.size)
        return F.batch(x)

    glob = extend_by_symmetry(cert, dataclasses.replace(F, batch=counted))
    # the checked points plus the images of all but the near-1 grid's
    assert sum(count) == reads
    assert glob.inputs["compact_sup"].hex() == compact_sup
    assert glob.inputs["alternation_defect"].hex() == defect


def test_a_non_finite_value_at_an_image_is_refused_there():
    F = alternating_bump_function()
    cert = certify_interval(F, 0.125, FAST_GRID)
    G = ScalarFunction(lambda x: math.nan if x == 9.0 else F.evaluator(x), "real",
                       from_alternating=True)
    with pytest.raises(UnboundedDefect) as refusal:  # 9.0 is 1 - x at the compact point -8.0
        extend_by_symmetry(cert, G, FAST_GRID)
    assert str(refusal.value) == "|F| = nan at point 9.0 is not finite"


def test_a_certificate_of_the_other_field_is_not_extended():
    F = vol3_slice()
    cert = certify_interval(F, 0.125, FAST_GRID)  # evidence on [0.875, 1) only
    assert cert.certified_bound == 0.0
    with pytest.raises(ValueError, match="needs a complex_sector certificate, not real_interval"):
        extend_by_symmetry(cert, F, FAST_GRID)
    zero = ScalarFunction(lambda z: 0.0, "complex", from_alternating=True)
    bump = certify_interval(alternating_bump_function(), 0.125, FAST_GRID)
    with pytest.raises(ValueError, match="needs a complex_sector certificate, not real_interval"):
        extend_by_symmetry(bump, zero, FAST_GRID)


@pytest.mark.parametrize("F, certify, delta, near_kind, kind", [
    pytest.param(alternating_bump_function(), certify_interval, 0.125, "real_interval",
                 "real_global", id="bump"),
    pytest.param(vol3_slice(), certify_complex_region, 0.1, "complex_sector",
                 "complex_global", id="vol3-slice"),
])
def test_an_extended_certificate_is_not_extended_again(F, certify, delta, near_kind, kind):
    glob = extend_by_symmetry(certify(F, delta=delta, grid=FAST_GRID), F, grid=FAST_GRID)
    assert glob.region.kind == kind
    with pytest.raises(ValueError, match=f"needs a {near_kind} certificate, not {kind}"):
        extend_by_symmetry(glob, F, grid=FAST_GRID)


@pytest.mark.parametrize("F, certify, delta, spoil", [
    pytest.param(alternating_bump_function(), certify_interval, 0.125,
                 lambda delta: target_points(delta)[17], id="bump-target"),
    pytest.param(alternating_bump_function(), certify_interval, 0.125,
                 lambda delta: np.linspace(delta, 1.0 - delta, 2000)[666], id="bump-compact"),
    # a point of modulus below 1, so no earlier target point is its inverse
    pytest.param(vol3_slice(), certify_complex_region, 0.1,
                 lambda delta: _sector_grid(delta, FAST_GRID)[50], id="vol3-slice-target"),
])
def test_a_function_alternating_but_at_one_point_is_refused_there(F, certify, delta, spoil):
    point = spoil(delta)
    cert = certify(F, delta=delta, grid=FAST_GRID)
    with pytest.raises(MissingAlternation) as refusal:
        extend_by_symmetry(cert, spoiled_at(F, point), grid=FAST_GRID)
    assert refused_point(refusal, " at point ", " exceeds") == point


# ---------------------------------------------------------------------------
# the bump evaluator and the target grid keep their bits


def listed_bump_function(center=0.3):
    """The bump evaluator as one expression of new values."""

    def bump(t):
        d = t - center
        return 1.0 / (1.0 + d * d)

    return lambda x: (bump(x) - bump(1.0 / x) - bump(1.0 - x)
                      + bump(1.0 / (1.0 - x)) + bump((x - 1.0) / x)
                      - bump(x / (x - 1.0)))


def bump_points():
    rng = np.random.default_rng(2408)
    sign = rng.choice([-1.0, 1.0], (3, 20_000))
    return np.concatenate([
        rng.uniform(-10.0, 10.0, 40_000),
        sign[0] * 10.0 ** rng.uniform(-300.0, -1.0, 20_000),        # near 0
        1.0 + sign[1] * 10.0 ** rng.uniform(-15.0, -1.0, 20_000),   # near 1
        0.3 + sign[2] * 10.0 ** rng.uniform(-16.0, -1.0, 20_000)])  # near the center


def test_the_bump_evaluator_keeps_its_bits_on_arrays_and_floats():
    F, listed = alternating_bump_function(), listed_bump_function()
    x = bump_points()
    assert x.size >= 100_000 and not np.any((x == 0.0) | (x == 1.0))
    with np.errstate(over="ignore"):  # d * d is inf beyond 1e154
        assert F.batch(x).tobytes() == listed(x).tobytes()
    floats = [F.evaluator(v) for v in x.tolist()]
    assert all(type(v) is float for v in floats)
    assert np.array(floats).tobytes() == np.array([listed(v) for v in x.tolist()]).tobytes()


@pytest.mark.parametrize("writeable", [True, False])
def test_the_bump_evaluator_never_writes_its_argument(writeable):
    x = bump_points()[40_000:60_000].copy()
    x.setflags(write=writeable)
    before = x.copy()
    with np.errstate(over="ignore"):
        values = alternating_bump_function().batch(x)
        assert values.tobytes() == listed_bump_function()(before).tobytes()
    assert x.tobytes() == before.tobytes() and x.flags.writeable == writeable


# at 1e-13 neighboring uniform points round to one float, also across blocks
@pytest.mark.parametrize("delta", [0.05, 0.125, 0.3, 0.5, 0.9, 1e-13])
@pytest.mark.parametrize("n", [1, 2, 7, 1000, 60_000, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1])
def test_the_target_grid_is_the_sorted_union_of_its_parts(delta, n):
    uniform = 1.0 - delta + delta * np.arange(n) / n
    dyadic = 1.0 - delta * 0.5 ** np.arange(1, _effective_depth(delta) + 1)
    if (delta, n) == (0.5, 2):  # the dyadic point 0.75 is a uniform point
        assert 0.75 in uniform and 0.75 in dyadic
    want = np.unique(np.concatenate([uniform, dyadic]))
    blocks = list(_real_target_grid(delta, GridConfig(points_per_region=n)))
    got = np.concatenate(blocks)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    # the `_blocks` slices of the whole grid, so a refusal does not move
    assert [len(block) for block in blocks] == [rows.stop - rows.start for rows in _blocks(want.size)]


# at 0.43 the last near-2 point k * step + start misses stop, which numpy sets
@pytest.mark.parametrize("delta", [0.05, 0.125, 0.3, 0.43, 0.5, 0.9])
@pytest.mark.parametrize("n", [1, 2, 7, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1, 60_000])
def test_the_base_and_near2_blocks_are_np_linspace(delta, n):
    for start, stop in [((1.0 - delta) ** 2, 1.0 - delta),
                        (2.0 - delta, max(2.0 + delta, 2.0 / (1.0 - delta)))]:
        blocks = list(_linspace(start, stop, n))
        assert np.concatenate(blocks).tobytes() == np.linspace(start, stop, n).tobytes()
        assert [len(block) for block in blocks] == [rows.stop - rows.start for rows in _blocks(n)]


def test_a_real_certificate_runs_in_constant_memory():
    F = alternating_bump_function()
    tracemalloc.start()
    try:
        certify_interval(F, 0.3, GridConfig(points_per_region=200_000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000  # whole grids of 200,000 points took about 8 MB
