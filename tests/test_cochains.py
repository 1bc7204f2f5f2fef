import numpy as np
import pytest

from boundarykit import (ArityTooLarge, Cochain, DegenerateTuple, EvaluationError,
                         MixedModels, SamplerExhausted, alternate, alternating_projection,
                         alternation_spot_check, coboundary, cone_homotopy,
                         empirical_sup_defect, model_coboundary, vol2, vol3)
from boundarykit.hyperbolic import (apply_isometry, boundary_to_chart, is_generic_tuple,
                                    random_lorentz_isometry)
from boundarykit.sampling import rejection_loop
from boundarykit.volume import vol2_batch, vol3_batch
from boundarykit.sampling import (SphereTupleSampler, chart_tuple_sampler,
                                  circle_tuple_sampler, coordinate_cochain, draw_tuples,
                                  random_boundary_point,
                                  random_hyperbolic_point,
                                  random_mixed_cochain, random_smooth_cochain)


def sphere_tuple(rng, size, dim=2):
    return tuple(random_boundary_point(rng, dim) for _ in range(size))


# ---------------------------------------------------------------------------
# coboundary


def test_coboundary_of_constant_vanishes():
    f = Cochain(arity=1, evaluator=lambda p: 4.25)
    df = coboundary(f)
    rng = np.random.default_rng(71)
    x, y = sphere_tuple(rng, 2)
    assert df(x, y) == 0.0


def test_coboundary_of_coordinate_function():
    f = coordinate_cochain(0)
    df = coboundary(f)
    rng = np.random.default_rng(72)
    x, y = sphere_tuple(rng, 2)
    assert df(x, y) == pytest.approx(y.direction[0] - x.direction[0], abs=1e-15)


@pytest.mark.parametrize("arity", [1, 2, 3])
def test_coboundary_squares_to_zero(arity):
    rng = np.random.default_rng(73 + arity)
    f = random_smooth_cochain(arity, rng)
    ddf = coboundary(coboundary(f))
    for _ in range(200):
        pts = sphere_tuple(rng, arity + 2)
        assert abs(ddf(*pts)) <= 1e-10


# ---------------------------------------------------------------------------
# alternation


def test_alternate_two_slots():
    f = Cochain(arity=2, evaluator=lambda x, y: float(x.direction[0]))
    alt = alternate(f)
    rng = np.random.default_rng(75)
    x, y = sphere_tuple(rng, 2)
    assert alt(x, y) == pytest.approx(x.direction[0] - y.direction[0], abs=1e-15)


def test_alternate_kills_symmetric_functions():
    f = Cochain(arity=2, evaluator=lambda x, y: float(x.direction @ y.direction))
    alt = alternate(f)
    rng = np.random.default_rng(76)
    x, y = sphere_tuple(rng, 2)
    assert abs(alt(x, y)) <= 1e-14


def test_alternate_scaling_identity():
    rng = np.random.default_rng(77)
    f = random_smooth_cochain(3, rng)
    alt = alternate(f)
    alt2 = alternate(alt)
    for _ in range(50):
        pts = sphere_tuple(rng, 3)
        assert alt2(*pts) == pytest.approx(6.0 * alt(*pts), abs=1e-10, rel=1e-10)


def test_alternating_projection_idempotent_and_fixes_alternating():
    rng = np.random.default_rng(78)
    f = random_smooth_cochain(3, rng)
    proj = alternating_projection(f)
    proj2 = alternating_projection(proj)
    vol2_cochain = Cochain(arity=3, evaluator=vol2, alternating=True)
    proj_vol2 = alternating_projection(vol2_cochain)
    for _ in range(50):
        pts = sphere_tuple(rng, 3)
        assert proj2(*pts) == pytest.approx(proj(*pts), abs=1e-10)
        assert proj_vol2(*pts) == pytest.approx(vol2_cochain(*pts), abs=1e-10)


def test_splitting_completeness():
    rng = np.random.default_rng(79)
    f = random_smooth_cochain(3, rng)
    proj = alternating_projection(f)
    remainder = Cochain(arity=3,
                        evaluator=lambda *pts: f(*pts) - proj(*pts))
    alt_rem = alternate(remainder)
    for _ in range(50):
        pts = sphere_tuple(rng, 3)
        assert abs(alt_rem(*pts)) <= 1e-10


def test_alternate_arity_guard():
    f = Cochain(arity=7, evaluator=lambda *pts: 0.0)
    with pytest.raises(ArityTooLarge):
        alternate(f)


def test_declared_alternating_cochains_pass_spot_checks():
    rng = np.random.default_rng(70)
    vol2_cochain = Cochain(arity=3, evaluator=vol2, alternating=True)
    tuples = [sphere_tuple(rng, 3) for _ in range(50)]
    assert alternation_spot_check(vol2_cochain, tuples)
    not_alternating = random_smooth_cochain(3, rng)
    assert not alternation_spot_check(not_alternating, tuples)


# ---------------------------------------------------------------------------
# cone homotopy


@pytest.mark.parametrize("p", [1, 2, 3])
def test_cone_homotopy_identity(p):
    rng = np.random.default_rng(80 + p)
    f = random_mixed_cochain(p + 1, 3, rng, dim=2)
    for _ in range(30):
        models = tuple(random_hyperbolic_point(rng, 2) for _ in range(p + 1))
        boundary = sphere_tuple(rng, 3)
        lhs = f(models, boundary)
        rhs = (cone_homotopy(model_coboundary(f), boundary)(*models)
               + model_coboundary(cone_homotopy(f, boundary))(*models))
        assert abs(lhs - rhs) <= 1e-12


def test_cone_homotopy_constant_model_case():
    # p = 0: one model slot, constant in it
    rng = np.random.default_rng(84)
    base = random_smooth_cochain(3, rng)
    f = Cochain(arity=3, model_arity=1,
                evaluator=lambda models, boundary: base(*boundary))
    boundary = sphere_tuple(rng, 3)
    m0 = random_hyperbolic_point(rng, 2)
    lhs = f((m0,), boundary)
    rhs = (cone_homotopy(model_coboundary(f), boundary)(m0)
           + model_coboundary(cone_homotopy(f, boundary))(m0))
    assert rhs == pytest.approx(lhs, abs=1e-14)


def test_cone_homotopy_equivariance():
    rng = np.random.default_rng(85)
    f = random_mixed_cochain(2, 3, rng, dim=3, invariant=True)
    for _ in range(20):
        models = tuple(random_hyperbolic_point(rng, 3) for _ in range(2))
        boundary = sphere_tuple(rng, 3, dim=3)
        g = random_lorentz_isometry(rng, 3)
        hf = cone_homotopy(f, boundary)
        hf_moved = cone_homotopy(f, tuple(apply_isometry(g, b) for b in boundary))
        value = hf(*models)
        moved = hf_moved(*(apply_isometry(g, m) for m in models))
        assert moved == pytest.approx(value, abs=1e-9)


def test_cone_homotopy_rejects_degenerate_triple():
    rng = np.random.default_rng(86)
    f = random_mixed_cochain(1, 3, rng)
    p = random_boundary_point(rng, 2)
    with pytest.raises(DegenerateTuple):
        cone_homotopy(f, (p, p, random_boundary_point(rng, 2)))


def test_cone_homotopy_needs_model_slots_and_boundary_triple():
    rng = np.random.default_rng(87)
    with pytest.raises(ValueError):
        cone_homotopy(random_smooth_cochain(3, rng), sphere_tuple(rng, 3))
    f = random_mixed_cochain(1, 2, rng)
    with pytest.raises(ValueError):
        cone_homotopy(f, sphere_tuple(rng, 2))


# ---------------------------------------------------------------------------
# empirical defect measurement


def test_sup_defect_of_vol3_is_quadrature_limited():
    f = Cochain(arity=4, evaluator=vol3, alternating=True)
    report = empirical_sup_defect(f, chart_tuple_sampler(5), 200, seed=5)
    assert report.sup_abs <= 1e-7
    assert report.samples == 200


def test_sup_defect_of_a_coboundary_vanishes():
    rng = np.random.default_rng(88)
    g = random_smooth_cochain(2, rng)
    f = coboundary(g)
    report = empirical_sup_defect(f, circle_tuple_sampler(4), 150, seed=6)
    assert report.sup_abs <= 1e-10


def test_sup_defect_deterministic_and_witness_reproduces():
    f = Cochain(arity=3, evaluator=vol2, alternating=True)
    r1 = empirical_sup_defect(f, circle_tuple_sampler(4), 100, seed=9)
    r2 = empirical_sup_defect(f, circle_tuple_sampler(4), 100, seed=9)
    assert r1.sup_abs == r2.sup_abs
    assert all(np.array_equal(a.direction, b.direction)
               for a, b in zip(r1.argmax_tuple, r2.argmax_tuple))
    df = coboundary(f)
    assert abs(df(*r1.argmax_tuple)) == r1.sup_abs


def test_sup_defect_budget_exhaustion():
    f = coordinate_cochain(0)

    def rejecting_sampler(rng):
        return None

    with pytest.raises(SamplerExhausted):
        empirical_sup_defect(f, rejecting_sampler, 5, seed=1)


def test_draw_tuples_budget():
    with pytest.raises(SamplerExhausted):
        draw_tuples(lambda rng: None, np.random.default_rng(0), 3)


# ---------------------------------------------------------------------------
# the batch path: the same tuples, drawn and evaluated as arrays

VOL2 = Cochain(arity=3, evaluator=vol2, batch=vol2_batch)
VOL3 = Cochain(arity=4, evaluator=vol3, batch=vol3_batch)
SAMPLERS = {"circle": circle_tuple_sampler(4), "chart": chart_tuple_sampler(5),
            "circle-rejecting": SphereTupleSampler(2, 4, tol=0.9)}


def batch_draws(sampler, seed, n):
    """The accepted (normals, coords) of n tuples through the batch form."""
    rng = np.random.default_rng(seed)
    normals, coords = [], []

    def draw(m):
        gaussians, points = sampler.draw(rng, m)
        normals.append(gaussians)
        coords.append(points)
        return len(points)

    draws = rejection_loop(draw, n)
    return np.concatenate(normals), np.concatenate(coords), draws


def coordinates(points):
    return [p.coords if hasattr(p, "coords") else p.direction for p in points]


def one_point_at_a_time(sampler):
    """The sampler as point objects alone build it: one unit vector per point."""

    def sample(rng):
        points = tuple(random_boundary_point(rng, sampler.dim) for _ in range(sampler.size))
        if not is_generic_tuple(points, sampler.tol):
            return None
        return tuple(map(boundary_to_chart, points)) if sampler.chart else points

    return sample


@pytest.mark.parametrize("seed", [1, 6, 77, 12345])
@pytest.mark.parametrize("name", sorted(SAMPLERS))
def test_batch_draws_are_the_per_tuple_draws_bit_for_bit(name, seed):
    sampler = SAMPLERS[name]
    reference = draw_tuples(one_point_at_a_time(sampler), np.random.default_rng(seed), 1000)
    normals, coords, draws = batch_draws(sampler, seed, 1000)
    assert np.array_equal(coords, [coordinates(t) for t in reference])
    tuples = draw_tuples(sampler, np.random.default_rng(seed), 1000)  # one tuple per call
    assert all(np.array_equal(coordinates(a), coordinates(b)) for a, b in zip(tuples, reference))
    for i in (0, 999):  # point objects rebuilt from a tuple's draws
        assert np.array_equal(coordinates(sampler.points(normals[i])), coordinates(reference[i]))
    assert (draws > 1000) == (name == "circle-rejecting")


@pytest.mark.parametrize("seed", [1, 6, 77, 12345])
def test_batched_coboundaries_match_the_scalar_ones(seed):
    for f, sampler, tol in ((VOL2, SAMPLERS["circle"], 0.0), (VOL3, SAMPLERS["chart"], 1e-14)):
        tuples = draw_tuples(sampler, np.random.default_rng(seed), 300)
        coords = batch_draws(sampler, seed, 300)[1]
        df = coboundary(f)
        scalar = np.array([df(*t) for t in tuples])
        assert np.max(np.abs(df.batch(coords) - scalar)) <= tol
        per_tuple = empirical_sup_defect(Cochain(f.arity, f.evaluator), sampler, 300, seed)
        batched = empirical_sup_defect(f, sampler, 300, seed)
        assert batched.samples == per_tuple.samples == 300
        assert abs(batched.sup_abs - per_tuple.sup_abs) <= tol
        assert (batched.sup_abs <= 1e-7) == (per_tuple.sup_abs <= 1e-7)
        assert batched.sup_abs == abs(df.batch(coords)).max()
        assert abs(df(*batched.argmax_tuple)) == pytest.approx(batched.sup_abs, abs=tol)


def test_batched_coboundary_of_a_non_cocycle_is_the_scalar_one():
    f = Cochain(arity=2,
                evaluator=lambda x, y: (x.direction[0] - 2.0 * y.direction[1]
                                        + x.direction[1] * y.direction[0]),
                batch=lambda p: p[:, 0, 0] - 2.0 * p[:, 1, 1] + p[:, 0, 1] * p[:, 1, 0])
    df = coboundary(f)
    tuples = draw_tuples(circle_tuple_sampler(3), np.random.default_rng(8), 200)
    expected = [df(*t) for t in tuples]
    assert max(map(abs, expected)) > 0.5
    assert df.batch(np.array([coordinates(t) for t in tuples])).tolist() == expected


def test_batch_witness_is_the_first_maximizing_tuple():
    # vol2's coboundary is exactly 0 on every tuple, so the first tuple wins
    report = empirical_sup_defect(VOL2, SAMPLERS["circle"], 50, seed=4)
    first = draw_tuples(SAMPLERS["circle"], np.random.default_rng(4), 1)[0]
    assert report.sup_abs == 0.0
    assert np.array_equal(coordinates(report.argmax_tuple), coordinates(first))


def test_batch_vol3_refuses_chart_coincident_points():
    p, q, r, s = (np.array(cp.coords) for cp in draw_tuples(
        chart_tuple_sampler(4), np.random.default_rng(5), 1)[0])
    good = np.stack([p, q, r, s])
    bad = np.stack([p, q, q * np.exp(0.3j), s])  # one projective point, twice
    with pytest.raises(DegenerateTuple, match="points 1 and 2 of tuple 1 coincide"):
        vol3_batch(np.stack([good, bad]))
    five = np.stack([good, bad])[:, [0, 1, 2, 3, 3]]  # through the coboundary
    with pytest.raises(DegenerateTuple):
        coboundary(VOL3).batch(five)


def test_batch_vol2_refuses_points_off_the_circle():
    with pytest.raises(MixedModels):
        vol2_batch(np.ones((2, 3, 3)) / np.sqrt(3.0))


def test_batch_path_exhausts_at_the_draw_budget():
    never_generic = SphereTupleSampler(2, 4, tol=3.0)  # chords are at most 2
    with pytest.raises(SamplerExhausted, match="700 draws produced only 0/7"):
        empirical_sup_defect(VOL2, never_generic, 7, seed=1)


class RecordingSampler(SphereTupleSampler):
    """Records the size of every batch it draws."""

    def __init__(self, *args):
        super().__init__(*args)
        self.sizes = []

    def draw(self, rng, m):
        self.sizes.append(m)
        return super().draw(rng, m)


def test_a_cochain_without_batch_takes_the_per_tuple_path():
    sampler = RecordingSampler(2, 4)
    report = empirical_sup_defect(Cochain(arity=3, evaluator=vol2), sampler, 20, seed=3)
    assert report.samples == 20 and report.sup_abs == 0.0
    assert sampler.sizes == [1] * 20  # one tuple per sampler call
    sampler.sizes.clear()
    assert empirical_sup_defect(VOL2, sampler, 20, seed=3).sup_abs == 0.0
    assert sampler.sizes == [20]
    # a batched cochain with a plain sampler function also runs tuple by tuple
    plain = one_point_at_a_time(sampler)
    assert empirical_sup_defect(VOL2, plain, 20, seed=3).sup_abs == 0.0


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_a_non_finite_coboundary_value_is_refused_at_its_sample(bad):
    # bad wherever the first point is near (1, 0), 0 elsewhere
    f = Cochain(arity=3, evaluator=lambda x, y, z: bad if x.direction[0] > 0.999 else 0.0,
                batch=lambda p: np.where(p[:, 0, 0] > 0.999, bad, 0.0))
    sampler = SAMPLERS["circle"]
    df = coboundary(f)
    values = [df(*t) for t in draw_tuples(sampler, np.random.default_rng(11), 400)]
    first = next(i for i, v in enumerate(values) if not np.isfinite(v))
    assert 10 < first < 300
    message = f"coboundary value {values[first]!r} at sample {first} is not finite"
    with pytest.raises(EvaluationError, match=message), np.errstate(invalid="ignore"):
        empirical_sup_defect(f, sampler, 400, seed=11)  # inf - inf is NaN
    with pytest.raises(EvaluationError, match=message):
        empirical_sup_defect(Cochain(3, f.evaluator), sampler, 400, seed=11)
