"""Boundedness certification for one-variable reductions of 4-point cochains.

For an invariant alternating 4-point cochain f, F(x) = f(inf, 0, 1, x) turns
the coboundary of f into the five-term expression

    F(x) - F(y) + F(y/x) - F((1-y)/(1-x)) + F(x(1-y)/(y(1-x))).

Substituting y = x^2 gives the doubling defect

    2F(x) - F(x^2) - F(1+x) + F((1+x)/x),

whose boundedness yields |F(x) - F(x^2)/2| <= C/2 near 1 with
C = B_defect + 2 M_near2.  Squaring k+1 times walks any x in [1-delta, 1)
down to the base interval [(1-delta)^2, 1-delta], the geometric series of
increments stays below C, and the certificate reports the (slightly rounder)
bound |F| <= M_base + 2C on the target region.  The same
recursion runs on a complex sector at 1 inside the closed unit disc, and
the alternation relations F(x) = -F(1/x) = -F(1-x) extend a bound near 1 to
neighborhoods of 0 and infinity and hence, with a compact-set supremum, to
a global bound.

`certify_interval` and `certify_complex_region` only build their region
(grids, target-membership test, squaring cap); one core, `_certify`, runs
the recursion on either, over numpy blocks of `sampling.ROW_BLOCK` grid
points.  Suprema are measured on grids and labeled `empirical`; callers
may supply `analytic` values instead.  Target grids include a dyadic
tail toward their open endpoint so divergent inputs are refused, naming
the offending point, rather than certified.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import (DegenerateArguments, EvaluationError, IterationOverflow,
                     MissingAlternation, UnboundedDefect)
from .sampling import _blocks

ARG_TOL = 1e-12            # distance to the excluded points 0, 1
BLOWUP_THRESHOLD = 1e6     # defect level at which certification is refused
DYADIC_DEPTH = 48          # halvings of delta in each target grid's tail
DEFAULT_DELTA = {"real": 0.125, "complex": 0.1}


@dataclass(frozen=True)
class ScalarFunction:
    """Real-valued function on the field (R or C) minus {0, 1}.

    `from_alternating` declares that the function is induced by an
    alternating invariant 4-point cochain, which licenses the symmetry
    extension F(x) = -F(1/x) = -F(1-x).  `batch`, if given, maps a 1-D
    float64 or complex128 array of points to the float64 array of their
    values; the certifier then evaluates each block of grid points with
    one call, and falls back to `evaluator` point by point on a block
    where `batch` raises or returns values that are not real numbers.
    """

    evaluator: Callable[..., float]
    field_tag: str = "real"
    from_alternating: bool = False
    batch: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __call__(self, x) -> float:
        try:
            return float(self.evaluator(x))
        except Exception as exc:
            raise EvaluationError(
                f"evaluator raised {type(exc).__name__} at point {x!r}") from exc


@dataclass(frozen=True)
class RegionSpec:
    """Certified region: its kind, the delta parameter, and set descriptions.

    `near2` records the concrete neighborhood of 2 used for M_near2, since
    the recursion only needs *some* compact set catching 1+x and (1+x)/x.
    """

    kind: str            # real_interval | complex_sector | annulus | real_global | complex_global
    delta: float
    target: str
    base: str
    near2: str = ""


@dataclass(frozen=True)
class BoundCertificate:
    """Output of the doubling recursion.

    For certificates produced by `certify_interval` and
    `certify_complex_region`, certified_bound = M_base + 2 C with
    C = B_defect + 2 M_near2, reconstructible exactly from `inputs`.
    Symmetry-extended certificates instead record the near-1 bound and the
    compact-complement supremum they combine.
    """

    region: RegionSpec
    certified_bound: float
    inputs: dict
    k_max: int
    provenance: dict = field(default_factory=dict)


@dataclass(frozen=True)
class GridConfig:
    """Resolution of the empirical grids."""

    points_per_region: int = 10_000

    def __post_init__(self):
        # an empty grid would certify suprema of 0 without evaluating F
        if self.points_per_region < 1:
            raise ValueError("points_per_region must be at least 1")


def _check_away_from(values, excluded, tol=ARG_TOL):
    """Refuse the first of `values` (a scalar or 1-D array) near an excluded point."""
    values = np.atleast_1d(values)
    near = np.array([np.abs(values - bad) <= tol for bad in excluded])
    if near.any():
        i = int(np.argmax(near.any(axis=0)))
        bad = excluded[int(np.argmax(near[:, i]))]
        raise DegenerateArguments(
            f"argument {values[i].item()!r} too close to excluded point {bad!r}")


def _values(F: ScalarFunction, points: np.ndarray) -> np.ndarray:
    """F at each of `points` (a 1-D array), as a float64 array.

    Uses `F.batch` when it is set and returns one real number per point;
    otherwise, or where it raises, calls F on each point as a plain Python
    scalar, so an EvaluationError names the point in its plain repr.
    """
    if F.batch is not None:
        try:
            values = np.asarray(F.batch(points))
        except Exception:
            pass
        else:
            if values.shape == points.shape and values.dtype.kind in "biuf":
                return values.astype(np.float64, copy=False)
    return np.array([F(x) for x in points.tolist()], dtype=np.float64)


def five_term_defect(F: ScalarFunction, x, y) -> float:
    """F(x) - F(y) + F(y/x) - F((1-y)/(1-x)) + F(x(1-y)/(y(1-x))).

    Equals the coboundary of the inducing 4-point cochain evaluated at
    (inf, 0, 1, x, y); identically the constant c for F = c.
    """
    _check_away_from(x, (0.0, 1.0))
    _check_away_from(y, (0.0, 1.0))
    if abs(x - y) <= ARG_TOL:
        raise DegenerateArguments("five-term defect needs x != y")
    return (F(x) - F(y) + F(y / x) - F((1 - y) / (1 - x))
            + F(x * (1 - y) / (y * (1 - x))))


def _doubling_defects(F: ScalarFunction, x: np.ndarray) -> np.ndarray:
    """The doubling defect at each of the points `x` (a 1-D array)."""
    _check_away_from(x, (0.0, 1.0, -1.0))
    return (2.0 * _values(F, x) - _values(F, x * x) - _values(F, 1.0 + x)
            + _values(F, (1.0 + x) / x))


def doubling_defect(F: ScalarFunction, x) -> float:
    """2F(x) - F(x^2) - F(1+x) + F((1+x)/x); equals five_term_defect(F, x, x^2)."""
    points = np.array([x], dtype=complex if isinstance(x, complex) else float)
    return float(_doubling_defects(F, points)[0])


# ---------------------------------------------------------------------------
# grids


def _effective_depth(delta: float) -> int:
    """Dyadic depth clamped so tail points stay clear of the excluded point 1."""
    return min(DYADIC_DEPTH, int(math.log2(delta / (8.0 * ARG_TOL))))


def _real_target_grid(delta: float, cfg: GridConfig) -> np.ndarray:
    """Grid on [1-delta, 1): uniform plus a dyadic tail toward the open end."""
    uniform = 1.0 - delta + delta * np.arange(cfg.points_per_region) / cfg.points_per_region
    dyadic = 1.0 - delta * 0.5 ** np.arange(1, _effective_depth(delta) + 1)
    return np.unique(np.concatenate([uniform, dyadic]))


def _sup_abs(F: ScalarFunction, points: np.ndarray) -> float:
    """max |F| over `points`; refuses the first point where |F| is not finite."""
    sup = 0.0
    for block in (points[rows] for rows in _blocks(len(points))):
        values = np.abs(_values(F, block))
        bad = ~np.isfinite(values)
        if bad.any():
            i = int(np.argmax(bad))  # the first bad point in grid order
            raise UnboundedDefect(f"|F| = {values[i].item()!r} at point "
                                  f"{block[i].item()!r} is not finite")
        sup = max(sup, float(values.max()))
    return sup


def _squarings(points: np.ndarray, in_target, cap: int) -> int:
    """Most squarings any of `points` needs to leave the target, at most `cap`."""
    w = points[in_target(points)]
    k = 0
    while w.size:
        k += 1
        if k > cap:
            raise IterationOverflow(f"squaring iteration exceeded cap {cap}")
        w = w * w
        w = w[in_target(w)]
    return k


def _certify(F: ScalarFunction, target, base, near2, in_target, cap: int,
             region: RegionSpec, overrides: Optional[dict]) -> BoundCertificate:
    """Run the doubling recursion on one region and assemble its certificate.

    The grids are 1-D arrays, walked in blocks of ROW_BLOCK points.  Squaring
    each `target` point until the array test `in_target` fails gives k_max
    (at most `cap` squarings; a block is counted before F is evaluated on
    it).  B_defect is the defect supremum over the same points, M_base and
    M_near2 the suprema of |F| over the `base` and `near2` grids; the first
    blow-up in grid order, NaN included, is refused.  Each is replaced by
    its `overrides` value, if given, labeled `analytic`.
    """
    overrides = {key: float(value) for key, value in (overrides or {}).items()}
    unknown = set(overrides) - {"B_defect", "M_base", "M_near2"}
    if unknown:
        raise ValueError(f"unknown override keys: {sorted(unknown)}")
    k_max = 0
    worst = 0.0
    for block in (target[rows] for rows in _blocks(len(target))):
        k_max = max(k_max, _squarings(block, in_target, cap))
        if "B_defect" not in overrides:
            d = np.abs(_doubling_defects(F, block))
            bad = ~(d <= BLOWUP_THRESHOLD)  # NaN fails this test too
            if bad.any():
                i = int(np.argmax(bad))  # the first bad point in grid order
                relation = "exceeds" if d[i] > BLOWUP_THRESHOLD else "is not below"
                raise UnboundedDefect(
                    f"doubling defect {d[i]:.3e} at point {block[i].item()!r} "
                    f"{relation} threshold {BLOWUP_THRESHOLD:.1e}")
            worst = max(worst, float(d.max()))
    inputs = {"B_defect": worst}
    for key, points in (("M_base", base), ("M_near2", near2)):
        inputs[key] = overrides[key] if key in overrides else _sup_abs(F, points)
    inputs.update(overrides)
    provenance = {key: "analytic" if key in overrides else "empirical"
                  for key in inputs}
    bound = inputs["M_base"] + 2.0 * (inputs["B_defect"] + 2.0 * inputs["M_near2"])
    return BoundCertificate(region=region, certified_bound=bound,
                            inputs=inputs, k_max=k_max, provenance=provenance)


def certify_interval(F: ScalarFunction, delta: float = DEFAULT_DELTA["real"],
                     grid: Optional[GridConfig] = None,
                     overrides: Optional[dict] = None) -> BoundCertificate:
    """Certify |F| on [1-delta, 1) by the doubling recursion.

    M_base bounds |F| on the base interval [(1-delta)^2, 1-delta]; M_near2
    bounds it on [2-delta, max(2+delta, 2/(1-delta))], where 1+x and
    (1+x)/x land for x in the target; B_defect bounds the doubling defect
    on the target.  All three come from grids unless overridden with
    analytic values.  Raises UnboundedDefect when the grid defect is not
    below BLOWUP_THRESHOLD (a NaN defect included) or when |F| is not
    finite at a base or near-2 grid point, and EvaluationError when F
    raises at a grid point.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    cfg = grid or GridConfig()
    n = cfg.points_per_region
    edge = 1.0 - delta
    base_lo = (1.0 - delta) ** 2
    near2_hi = max(2.0 + delta, 2.0 / (1.0 - delta))
    cap = DYADIC_DEPTH + 16 + max(0, math.ceil(math.log2(1.0 / delta)))
    region = RegionSpec(kind="real_interval", delta=delta,
                        target=f"[{1 - delta}, 1)",
                        base=f"[{base_lo}, {1 - delta}]",
                        near2=f"[{2 - delta}, {near2_hi}]")
    return _certify(F, _real_target_grid(delta, cfg), np.linspace(base_lo, edge, n),
                    np.linspace(2.0 - delta, near2_hi, n),
                    lambda x: x > edge, cap, region, overrides)


# ---------------------------------------------------------------------------
# complex sector at 1


def _in_sector(z, delta: float):
    """Membership in U = {z != 1 : 1-delta < |z| <= 1, |arg z| < delta}, elementwise."""
    r = np.hypot(z.real, z.imag)  # equals abs(complex) bit for bit; np.abs does not
    return ((z != 1.0) & (1.0 - delta < r) & (r <= 1.0 + 1e-12)
            & (np.abs(np.angle(z)) < delta))


def _polar_grid(moduli, angles) -> np.ndarray:
    """cmath.rect(r, t) for r in moduli for t in angles, bit for bit, as a 1-D array."""
    moduli = np.asarray(moduli, dtype=np.float64)[:, None]
    points = np.empty((moduli.shape[0], len(angles)), dtype=np.complex128)
    # cmath.rect is (r cos t, r sin t) with the C library's cos and sin;
    # setting the parts one by one keeps signed zeros that complex
    # arithmetic such as r*c + 1j*(r*s) would change
    points.real = moduli * np.array([math.cos(t) for t in angles])
    points.imag = moduli * np.array([math.sin(t) for t in angles])
    return points.ravel()


def _sector_grid(delta: float, cfg: GridConfig) -> np.ndarray:
    """Grid on U: uniform polar plus dyadic tails toward z = 1."""
    m = max(2, math.isqrt(cfg.points_per_region))
    m += m % 2  # even angular count keeps arg = 0 off the uniform grid
    moduli = 1.0 - delta + delta * np.arange(1, m + 1) / m
    args = -delta + 2.0 * delta * (np.arange(m) + 0.5) / m
    tails = []
    for j in range(1, _effective_depth(delta) + 1):
        eps = delta * 0.5 ** j
        tails.append(cmath.rect(1.0, eps))       # unit modulus, small arg
        tails.append(cmath.rect(1.0, -eps))
        tails.append(complex(1.0 - eps, 0.0))    # real approach to 1
    return np.concatenate([_polar_grid(moduli, args), np.array(tails)])


def _base_sector_grids(delta: float, cfg: GridConfig) -> np.ndarray:
    """Closure of {(1-delta)^2 < |w| <= 1, |arg w| < 2 delta} minus U."""
    m = max(2, math.isqrt(cfg.points_per_region // 2))
    inner_moduli = np.linspace((1.0 - delta) ** 2, 1.0 - delta, m)
    wide_args = np.linspace(-2.0 * delta, 2.0 * delta, m)
    outer_moduli = np.linspace(1.0 - delta + delta / m, 1.0, m)
    side_args = np.concatenate([np.linspace(-2.0 * delta, -delta, m // 2),
                                np.linspace(delta, 2.0 * delta, m // 2)])
    return np.concatenate([_polar_grid(inner_moduli, wide_args),
                           _polar_grid(outer_moduli, side_args)])


def _near2_radius(delta: float) -> float:
    """Radius around 2 covering 1+z and (1+z)/z for all z in the sector."""
    corner = 1.0 - (1.0 - delta) * cmath.exp(1j * delta)
    return abs(corner) / (1.0 - delta)


def _near2_disk_grid(delta: float, cfg: GridConfig) -> np.ndarray:
    """Polar grid on the disk around 2 where 1+z and (1+z)/z land for z in U."""
    radius = _near2_radius(delta)
    m = max(2, math.isqrt(cfg.points_per_region))
    circle = _polar_grid(np.linspace(radius / m, radius, m),
                         np.linspace(0.0, 2.0 * math.pi, m, endpoint=False))
    return np.concatenate([[2.0 + 0j], 2.0 + circle])


def certify_complex_region(F: ScalarFunction, delta: float = DEFAULT_DELTA["complex"],
                           grid: Optional[GridConfig] = None,
                           overrides: Optional[dict] = None) -> BoundCertificate:
    """Certify |F| on the sector U = {1-delta < |z| <= 1, |arg z| < delta}.

    Repeated squaring sends each grid point of U into the closure of the
    doubled sector {(1-delta)^2 < |w| <= 1, |arg w| < 2 delta} minus U (in
    at most k_max steps, recorded); the recursion then gives
    certified_bound = M_base + 2 C and refuses with UnboundedDefect or
    EvaluationError exactly as in the real case.
    """
    if not 0.0 < delta < 0.25:
        raise ValueError("delta must lie in (0, 1/4)")
    if F.field_tag != "complex":
        raise ValueError("complex certification needs a complex-field function")
    cfg = grid or GridConfig()
    # tail arg delta / 2**DYADIC_DEPTH reaches 2 delta after DYADIC_DEPTH + 1 doublings
    cap = 2 * DYADIC_DEPTH + 17 + max(0, math.ceil(math.log2(1.0 / delta)))
    region = RegionSpec(kind="complex_sector", delta=delta,
                        target=f"{{1-{delta} < |z| <= 1, |arg z| < {delta}}}",
                        base="closure of doubled sector minus target",
                        near2=f"disk(2, {_near2_radius(delta):.6g})")
    return _certify(F, _sector_grid(delta, cfg), _base_sector_grids(delta, cfg),
                    _near2_disk_grid(delta, cfg),
                    lambda z: _in_sector(z, delta), cap, region, overrides)


# ---------------------------------------------------------------------------
# symmetry extension


def extend_by_symmetry(cert_near_1: BoundCertificate, F: ScalarFunction,
                       grid: Optional[GridConfig] = None) -> BoundCertificate:
    """Globalize a near-1 bound using F(x) = -F(1/x) and F(x) = -F(1-x).

    The reflections transport the near-1 bound to punctured neighborhoods
    of 0 and infinity with the same constant; a grid supremum over the
    remaining compact region completes a bound on the whole punctured
    domain.  Requires the caller to have declared alternating provenance.
    Raises UnboundedDefect when |F| is not finite at a compact-region grid
    point, and EvaluationError when F raises at one.
    """
    if not F.from_alternating:
        raise MissingAlternation(
            "symmetry extension needs a function declared as induced by an "
            "alternating cochain")
    cfg = grid or GridConfig()
    delta = cert_near_1.region.delta
    near_bound = cert_near_1.certified_bound
    n = cfg.points_per_region

    if F.field_tag == "real":
        pieces = [np.linspace(-1.0 / delta, -delta, n),
                  np.linspace(delta, 1.0 - delta, n),
                  np.linspace(1.0 / (1.0 - delta), 1.0 / delta, n)]
        compact_sup = max(_sup_abs(F, piece) for piece in pieces)
        kind, target = "real_global", "R minus {0, 1}"
    else:
        rho = delta / 2.0
        m = max(2, math.isqrt(n))
        points = _polar_grid(np.linspace(rho, 2.0 / delta, m),
                             np.linspace(0.0, 2.0 * math.pi, m, endpoint=False))
        # np.hypot is abs(complex) bit for bit
        compact_sup = _sup_abs(F, points[np.hypot(points.real - 1.0, points.imag) >= rho])
        kind, target = "complex_global", "C minus {0, 1}"

    inputs = dict(cert_near_1.inputs)
    inputs["near_1_bound"] = near_bound
    inputs["compact_sup"] = compact_sup
    provenance = dict(cert_near_1.provenance)
    provenance["near_1_bound"] = "inherited"
    provenance["compact_sup"] = "empirical"
    region = RegionSpec(kind=kind, delta=delta, target=target,
                        base=cert_near_1.region.target)
    return BoundCertificate(region=region,
                            certified_bound=max(near_bound, compact_sup),
                            inputs=inputs, k_max=cert_near_1.k_max,
                            provenance=provenance)


# ---------------------------------------------------------------------------
# named test functions


def const_function(c: float = 1.0, field_tag: str = "real") -> ScalarFunction:
    return ScalarFunction(evaluator=lambda x: c, field_tag=field_tag, from_alternating=False,
                          batch=lambda x: np.full(x.shape, float(c)))


def pole_function(field_tag: str = "real") -> ScalarFunction:
    """F(x) = Re(1/(1-x)): continuous on the punctured domain but unbounded."""

    def ev(x):
        return complex(1.0 / (1.0 - x)).real

    return ScalarFunction(evaluator=ev, field_tag=field_tag,
                          batch=lambda x: np.real(1.0 / (1.0 - x)))


def vol3_slice() -> ScalarFunction:
    """F(z) = Vol_3(inf, 0, 1, z): a bounded cocycle slice on C minus {0,1}."""
    from .volume import vol3_from_cross_ratio, vol3_from_cross_ratio_batch
    return ScalarFunction(evaluator=vol3_from_cross_ratio, field_tag="complex",
                          from_alternating=True, batch=vol3_from_cross_ratio_batch)


def alternating_bump_function(center: float = 0.3) -> ScalarFunction:
    """Bounded real function with the full six-fold alternation symmetry.

    Antisymmetrizes a rational bump over the cross-ratio orbit
    {x, 1/x, 1-x, 1/(1-x), (x-1)/x, x/(x-1)} with the sign of the inducing
    permutation, so F(x) = -F(1/x) = -F(1-x) holds identically.
    """

    def bump(t):
        d = t - center  # d * d rounds alike on floats and arrays; ** 2 need not
        return 1.0 / (1.0 + d * d)

    def ev(x):  # a float, or a float64 array elementwise
        return (bump(x) - bump(1.0 / x) - bump(1.0 - x)
                + bump(1.0 / (1.0 - x)) + bump((x - 1.0) / x)
                - bump(x / (x - 1.0)))

    return ScalarFunction(evaluator=ev, field_tag="real",
                          from_alternating=True, batch=ev)
