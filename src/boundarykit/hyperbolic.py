"""Ideal boundaries of real and complex hyperbolic space.

Conventions, fixed once for the whole package:

* the Lorentz form on R^{n+1} and the Hermitian form on C^{n+1} are both
  diag(1, ..., 1, -1);
* a real boundary point is a unit direction u in R^n, with null lift (u, 1);
* a hyperbolic point is a lift p in R^{n+1} with q(p) = -1 and positive last
  coordinate (hyperboloid model);
* the boundary sphere S^{n-1} of H^n is identified with the projective line
  by stereographic projection from the north pole:  u -> u_1/(1 - u_2) for
  n = 2 (real line) and u -> (u_1 + i u_2)/(1 - u_3) for n = 3 (complex
  line).  Vol_3 and the bound certifier share this chart.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import MixedModels, SignatureError
from .projective import (EPS_DIST, ProjectivePoint, Value, _normalize_pair, _require_distinct,
                         _where, coincident_pair, cross_ratio)

RANK_TOL = 1e-10  # relative singular-value threshold for subspace detection


# ---------------------------------------------------------------------------
# point types


class RealBoundaryPoint(Value):
    """An ideal point of the boundary sphere of H^n, n >= 2."""

    __slots__ = ("direction",)

    def __init__(self, direction):
        d = np.asarray(direction, dtype=np.float64)
        if d.ndim != 1 or d.shape[0] < 2:
            raise ValueError("direction must be a vector in R^n, n >= 2")
        norm = float(np.linalg.norm(d))
        if not (norm > 0.0) or not math.isfinite(norm):
            raise ValueError("direction must be finite and nonzero")
        self._hold(d / norm)

    @property
    def dim(self) -> int:
        """Dimension n of the ambient hyperbolic space H^n."""
        return self.direction.shape[0]

    def lift(self) -> np.ndarray:
        """Null lift (direction, 1) for the form diag(1,...,1,-1)."""
        return np.append(self.direction, 1.0)

    def chordal_distance(self, other: "RealBoundaryPoint") -> float:
        return float(real_chordal_distance(self.direction, other.direction))

    def __repr__(self):
        return f"RealBoundaryPoint({self.direction.tolist()})"


class ComplexBoundaryPoint(Value):
    """An ideal point of the boundary of complex hyperbolic space H^n_C.

    Stored as its row of `canonical_lifts`, a null lift in C^{n+1} of unit
    norm whose largest-modulus coordinate is positive real.
    """

    __slots__ = ("lift",)

    def __init__(self, lift):
        z = np.asarray(lift, dtype=np.complex128)
        if z.ndim != 1 or z.shape[0] < 3:
            raise ValueError("lift must be a vector in C^{n+1}, n >= 2")
        z = canonical_lifts(z[None])[0]
        if abs(hermitian_product(z, z)) > 1e-10:
            raise ValueError("lift is not null for the form diag(1,...,1,-1)")
        if abs(z[-1]) < 1e-12:
            raise ValueError("null line meets the hyperplane at infinity")
        self._hold(z)

    @classmethod
    def from_ball_direction(cls, w) -> "ComplexBoundaryPoint":
        """Boundary point of the unit-ball chart in the direction of w in C^n."""
        return cls(ball_lifts(np.asarray(w, dtype=np.complex128)))

    @property
    def dim(self) -> int:
        return self.lift.shape[0] - 1

    def chordal_distance(self, other: "ComplexBoundaryPoint") -> float:
        """sin of the Hermitian angle between the two null lines."""
        return float(complex_chordal_distance(self.lift, other.lift))

    def __repr__(self):
        return f"ComplexBoundaryPoint({self.lift.tolist()})"


def canonical_lifts(z) -> np.ndarray:
    """ComplexBoundaryPoint(row).lift of each row of the (m, n + 1) lifts z: unit
    norm, and the first coordinate p of largest modulus made positive real by
    the factor |p| / p.  Raises ValueError on a row that is not finite and nonzero."""
    norm = np.sqrt(np.vecdot(z.real, z.real) + np.vecdot(z.imag, z.imag))
    if not (np.isfinite(norm) & (norm > 0.0)).all():
        raise ValueError("lift must be finite and nonzero")
    z = z / norm[:, None]
    # one modulus for the pivot and the factor: np.hypot, as _normalize_pair
    # takes it; np.abs of a complex array is not always np.hypot
    modulus = np.hypot(z.real, z.imag)
    lead = np.arange(len(z)), np.argmax(modulus, axis=1)
    return z * (modulus[lead] / z[lead])[:, None]


def ball_lifts(w) -> np.ndarray:
    """Unit null lifts (w/|w|, 1)/sqrt(2) of ball-chart directions w, over the last axis."""
    w = w / np.linalg.norm(w, axis=-1, keepdims=True)
    return np.concatenate([w, np.ones(w.shape[:-1] + (1,))], axis=-1) / math.sqrt(2.0)


class HyperbolicPoint(Value):
    """A point of H^n in the hyperboloid model: q(lift) = -1, last coord > 0.

    Timelike lifts are rescaled onto the hyperboloid; non-timelike input is
    rejected.
    """

    __slots__ = ("lift",)

    def __init__(self, lift):
        p = np.asarray(lift, dtype=np.float64)
        q = lorentz_product(p, p)
        scale = max(1.0, float(p @ p))
        if q >= -1e-12 * scale:
            raise ValueError(f"lift has q(p) = {q:.3e}, not timelike")
        if p[-1] <= 0.0:
            raise ValueError("lift must be future-pointing (last coordinate > 0)")
        self._hold(p / math.sqrt(-q))

    @property
    def dim(self) -> int:
        return self.lift.shape[0] - 1

    def distance(self, other: "HyperbolicPoint") -> float:
        return math.acosh(max(1.0, -lorentz_product(self.lift, other.lift)))

    def __repr__(self):
        return f"HyperbolicPoint({self.lift.tolist()})"


# ---------------------------------------------------------------------------
# the two bilinear forms


def lorentz_product(u, v) -> float:
    """<u, v> for the form diag(1, ..., 1, -1) on R^{n+1}."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    return float(u[:-1] @ v[:-1] - u[-1] * v[-1])


def hermitian_product(z, w):
    """<z, w> for diag(1, ..., 1, -1) on C^{n+1} over the last axis; antilinear in w."""
    z = np.asarray(z, dtype=np.complex128)
    w = np.asarray(w, dtype=np.complex128)
    return (np.einsum("...i,...i->...", z[..., :-1], w[..., :-1].conj())
            - z[..., -1] * w[..., -1].conj())


# ---------------------------------------------------------------------------
# chordal distances and genericity


def real_chordal_distance(u, v):
    """Euclidean chord |u - v| between unit directions, over the last axis."""
    d = u - v
    return np.sqrt(np.vecdot(d, d))


def complex_chordal_distance(z, w):
    """sin of the Hermitian angle between null lines, over the last axis.

    The norm of the wedge of the unit lifts, sqrt(sum over a < b of
    |z_a w_b - z_b w_a|^2), in real arithmetic.  Each minor is taken as
    z_a d_b - z_b d_a with d = w - z: nearly equal lifts cancel in d
    (exactly, where coordinates are within a factor 2), not in products,
    and their distance keeps a relative error of a few ulps down to zero.
    """
    d = w - z
    zr, zi, dr, di = (np.moveaxis(x, -1, 0) for x in (z.real, z.imag, d.real, d.imag))
    total = 0.0
    for a, b in itertools.combinations(range(zr.shape[0]), 2):
        re = (zr[a] * dr[b] - zi[a] * di[b]) - (zr[b] * dr[a] - zi[b] * di[a])
        im = (zr[a] * di[b] + zi[a] * dr[b]) - (zr[b] * di[a] + zi[b] * dr[a])
        total = total + (re * re + im * im)
    return np.sqrt(total)


def is_generic_tuple(points, tol: float = EPS_DIST) -> bool:
    """True iff all pairwise chordal distances exceed tol.

    In rank one, generic tuples are exactly the pairwise-distinct ones.
    Raises MixedModels when the points do not share one boundary model.
    """
    points = list(points)
    if not points:
        return True
    first = points[0]
    if not isinstance(first, (RealBoundaryPoint, ComplexBoundaryPoint)):
        raise MixedModels(f"not a boundary point: {type(first).__name__}")
    for p in points[1:]:
        if type(p) is not type(first) or p.dim != first.dim:
            raise MixedModels("points come from different boundary models")
    return coincident_pair(points, tol) is None


def _require_generic(points, tol=EPS_DIST):
    if not is_generic_tuple(points, tol):  # the model check
        _require_distinct(points, tol)  # names the first close pair


# ---------------------------------------------------------------------------
# Cartan angular invariant


def cartan_invariant(x: ComplexBoundaryPoint, y: ComplexBoundaryPoint,
                     z: ComplexBoundaryPoint) -> float:
    """Angular invariant arg(-<x,y><y,z><z,x>) in [-pi/2, pi/2].

    Independent of the choice of null lifts (the triple product changes by
    positive reals) and invariant under the isometry group.  Vanishes on
    totally real triples; equals +-pi/2 exactly on chain triples.
    """
    _require_generic((x, y, z))
    # one-row arrays round the complex product as the batch kernel does
    return float(cartan_invariant_batch(x.lift[None], y.lift[None], z.lift[None])[0])


def cartan_invariant_batch(lifts_x, lifts_y, lifts_z) -> np.ndarray:
    """Vectorized Cartan invariant for stacked unit null lifts (rows)."""
    prod = -(hermitian_product(lifts_x, lifts_y) * hermitian_product(lifts_y, lifts_z)
             * hermitian_product(lifts_z, lifts_x))
    # Re(prod) >= 0 exactly; on chains it is 0 and rounding can make it
    # negative, which would put the angle past +-pi/2
    return np.clip(np.angle(prod), -math.pi / 2, math.pi / 2)


# ---------------------------------------------------------------------------
# barycenter of an ideal triangle


def barycenter_ideal_triangle(x: RealBoundaryPoint, y: RealBoundaryPoint,
                              z: RealBoundaryPoint,
                              tol: float = EPS_DIST) -> HyperbolicPoint:
    """Incenter of the ideal triangle spanned by three distinct ideal points.

    The null lifts are rescaled so all pairwise Lorentz products equal -1;
    their sum is then a negative vector fixed by every symmetry of the
    configuration, and normalizing it gives the incenter.  The construction
    is symmetric, equivariant and continuous, and lies in the totally
    geodesic plane through the triple.
    """
    _require_generic((x, y, z), tol)
    lx, ly, lz = x.lift(), y.lift(), z.lift()
    a = lorentz_product(lx, ly)
    b = lorentz_product(ly, lz)
    c = lorentz_product(lz, lx)
    # pairwise products of distinct null lifts (u,1), (v,1) equal u.v - 1 < 0
    lam = math.sqrt(-b / (a * c))
    mu = math.sqrt(-c / (a * b))
    nu = math.sqrt(-a / (b * c))
    m = lam * lx + mu * ly + nu * lz
    return HyperbolicPoint(m / math.sqrt(6.0))


# ---------------------------------------------------------------------------
# charts shared with the projective and volume layers


def boundary_to_chart(p: RealBoundaryPoint) -> ProjectivePoint:
    """Stereographic chart from the north pole.

    dim 2: S^1 -> P^1(R); dim 3: S^2 -> P^1(C).  The north pole itself maps
    to the point at infinity.  Near the pole the equivalent homogeneous
    representative (1 + u_last, conj-numerator) is used, so the chart is
    defined everywhere.
    """
    if p.dim not in (2, 3):
        raise MixedModels(f"no projective chart in dimension {p.dim}")
    (ar, ai), (br, bi) = _chart_pair(p.direction)
    a, b = (ar, br) if p.dim == 2 else (complex(ar, ai), complex(br, bi))
    return ProjectivePoint(a, b, "real" if p.dim == 2 else "complex")


def chart_coords(u) -> np.ndarray:
    """`boundary_to_chart(p).coords` for an (..., dim) array u of unit directions."""
    (ar, ai), (br, bi) = _normalize_pair(*_chart_pair(np.moveaxis(u, -1, 0)))
    if u.shape[-1] == 2:
        return np.stack([ar, br], axis=-1)
    return np.stack([ar, ai, br, bi], axis=-1).view(np.complex128)


def _chart_pair(u):
    """Homogeneous chart pair (a, b) ~ a/b as (re, im) planes; coordinates along the first axis."""
    away = 1.0 - u[-1] >= 0.5  # far from the north pole
    y, conj_y = (u[1], 0.0 - u[1]) if len(u) == 3 else (0.0, 0.0)  # Im(u0 - 1j*u1), +0.0 at 0
    return ((_where(away, u[0], 1.0 + u[-1]), _where(away, y, 0.0)),
            (_where(away, 1.0 - u[-1], u[0]), _where(away, 0.0, conj_y)))


def chart_to_boundary(p: ProjectivePoint) -> RealBoundaryPoint:
    """Inverse stereographic chart; complex points land on S^2, real on S^1."""
    a, b = p.coords  # homogeneous (a, b) ~ value a/b
    t2 = (a * a.conjugate()).real
    b2 = (b * b.conjugate()).real
    w = a * b.conjugate()
    plane = [2 * w.real] if p.field_tag == "real" else [2 * w.real, 2 * w.imag]
    return RealBoundaryPoint(np.array(plane + [t2 - b2]) / (t2 + b2))


def halfplane_to_hyperboloid(z: complex) -> HyperbolicPoint:
    """Upper half-plane chart of H^2 into the hyperboloid in R^{2,1}."""
    x, y = z.real, z.imag
    if y <= 0:
        raise ValueError("point must lie in the open upper half-plane")
    r2 = x * x + y * y
    return HyperbolicPoint(np.array([2 * x, r2 - 1.0, r2 + 1.0]) / (2 * y))


def hyperboloid_to_halfplane(p: HyperbolicPoint) -> complex:
    """Inverse of halfplane_to_hyperboloid (dimension 2 only)."""
    if p.dim != 2:
        raise ValueError("half-plane chart is only defined for H^2")
    u = p.lift
    return complex(u[0], 1.0) / (u[2] - u[1])


# ---------------------------------------------------------------------------
# reduction of 4-tuples to the boundary of H^3


class H3Embedding(Value):
    """Isometric identification of the span of four null lifts with R^{3,1}.

    `matrix` maps ambient lifts (length n+1) to R^4 coordinates for the form
    diag(1,1,1,-1); `rank` is the dimension of the span (3 or 4).
    """

    __slots__ = ("matrix", "rank")

    def __init__(self, matrix, rank):
        self._hold(np.array(matrix, dtype=np.float64), int(rank))  # copied: _hold freezes it

    def map_lift(self, lift) -> np.ndarray:
        return self.matrix @ np.asarray(lift, dtype=np.float64)


def _canonical_positive_basis(pos_vectors, metric):
    """Deterministic q-orthonormal basis of the positive-definite subspace.

    Euclidean projections of the ambient coordinate axes are q-Gram-Schmidted
    in axis order, so a subspace already spanned by coordinate axes gets
    exactly those axes back.
    """
    proj = pos_vectors / np.linalg.norm(pos_vectors, axis=0)
    ambient_dim, k = proj.shape
    basis = []
    for axis in range(ambient_dim):
        if len(basis) == k:
            break
        v = proj @ proj[axis]  # Euclidean projection of e_axis onto the subspace
        for u in basis:
            v = v - (u @ metric @ v) * u
        if np.linalg.norm(v) > 1e-6:
            basis.append(v / math.sqrt(v @ metric @ v))
    if len(basis) < k:
        raise SignatureError("failed to build a canonical basis of the positive part")
    return np.column_stack(basis)


def restrict_to_h3(x0: RealBoundaryPoint, x1: RealBoundaryPoint,
                   x2: RealBoundaryPoint, x3: RealBoundaryPoint,
                   tol: float = EPS_DIST):
    """Realize a 4-tuple of ideal points of H^n (n >= 4) inside the boundary of H^3.

    The four null lifts span a subspace of dimension at most 4 on which the
    Lorentz form has signature (rank-1, 1); an isometry onto a coordinate
    R^{3,1} then recoordinatizes the tuple.  Individual lifts only change by
    positive factors, so all Gram ratios
    <xi,xj><xk,xl> / (<xi,xk><xj,xl>) are preserved.

    The chart orientation is canonicalized so the cross ratio of the four
    output points (in the P^1(C) chart) has nonnegative imaginary part,
    making chart quantities independent of the embedding choice.

    Returns (points, embedding) with four RealBoundaryPoint of dimension 3.
    """
    points = (x0, x1, x2, x3)
    _require_generic(points, tol)
    n = x0.dim
    lifts = np.stack([p.lift() for p in points])  # 4 x (n+1)

    u_svd, s, vt = np.linalg.svd(lifts, full_matrices=False)
    rank = int(np.sum(s > RANK_TOL * s[0]))
    if rank < 3:
        raise SignatureError("lifts span a subspace of dimension < 3")
    span = vt[:rank].T  # (n+1) x rank, Euclidean-orthonormal columns

    metric = np.diag(np.append(np.ones(n), -1.0))
    gram = span.T @ metric @ span
    eigvals, eigvecs = np.linalg.eigh(gram)  # ascending
    # Lorentzian: one eigenvalue negative, the others positive, none within
    # 1e-10 of zero
    if not (eigvals[0] <= -1e-10 and eigvals[1] >= 1e-10):
        raise SignatureError("restricted form is degenerate or not Lorentzian")

    # ambient vectors diagonalizing the restricted form
    neg_vec = span @ eigvecs[:, 0] / math.sqrt(-eigvals[0])
    pos_raw = span @ eigvecs[:, 1:]
    if neg_vec[-1] < 0:
        neg_vec = -neg_vec
    pos = _canonical_positive_basis(pos_raw, metric)

    # rows: positive coordinates (padded to 3), then the time coordinate
    rows = [pos[:, i] @ metric for i in range(rank - 1)]
    while len(rows) < 3:
        rows.append(np.zeros(n + 1))
    rows.append(-(neg_vec @ metric))
    embed = np.stack(rows)

    imgs = lifts @ embed.T
    if np.any(imgs[:, -1] <= 0):
        raise SignatureError("lifts are not future-pointing in the restricted frame")
    out = [RealBoundaryPoint(img[:3] / img[3]) for img in imgs]

    # orientation canonicalization via the chart cross ratio
    z = cross_ratio(*[boundary_to_chart(p) for p in out])
    if not isinstance(z, float) and z.imag < -1e-12:
        embed = embed.copy()
        embed[2] = -embed[2]
        imgs = lifts @ embed.T
        out = [RealBoundaryPoint(img[:3] / img[3]) for img in imgs]

    return tuple(out), H3Embedding(embed, rank)


def gram_ratio(points, i, j, k, l) -> float:
    """<xi,xj><xk,xl> / (<xi,xk><xj,xl>) on null lifts; rescaling-invariant."""
    lifts = [p.lift() for p in points]
    num = lorentz_product(lifts[i], lifts[j]) * lorentz_product(lifts[k], lifts[l])
    den = lorentz_product(lifts[i], lifts[k]) * lorentz_product(lifts[j], lifts[l])
    return num / den


# ---------------------------------------------------------------------------
# random isometries (for invariance tests and probes)


def random_lorentz_isometry(rng, n: int) -> np.ndarray:
    """Random element of O+(n,1) via a compact-boost-compact decomposition."""

    def random_orthogonal():
        q, r = np.linalg.qr(rng.standard_normal((n, n)))
        q = q * np.sign(np.diag(r))
        block = np.eye(n + 1)
        block[:n, :n] = q
        return block

    t = rng.uniform(0.0, 2.0)
    boost = np.eye(n + 1)
    boost[0, 0] = boost[n, n] = math.cosh(t)
    boost[0, n] = boost[n, 0] = math.sinh(t)
    return random_orthogonal() @ boost @ random_orthogonal()


def random_unitary_isometry(rng, n: int) -> np.ndarray:
    """Random element of U(n,1) (preserves diag(1,...,1,-1) on C^{n+1})."""

    def random_unitary_block():
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        q, r = np.linalg.qr(m)
        q = q * (np.abs(np.diag(r)) / np.diag(r))
        block = np.eye(n + 1, dtype=np.complex128)
        block[:n, :n] = q
        block[n, n] = np.exp(1j * rng.uniform(0, 2 * math.pi))
        return block

    t = rng.uniform(0.0, 2.0)
    boost = np.eye(n + 1, dtype=np.complex128)
    boost[0, 0] = boost[n, n] = math.cosh(t)
    boost[0, n] = boost[n, 0] = math.sinh(t)
    return random_unitary_block() @ boost @ random_unitary_block()


def apply_isometry(g: np.ndarray, p):
    """Apply an ambient-form isometry to a boundary or hyperbolic point."""
    if isinstance(p, RealBoundaryPoint):
        image = g @ p.lift()
        return RealBoundaryPoint(image[:-1] / image[-1])
    if isinstance(p, ComplexBoundaryPoint):
        return ComplexBoundaryPoint(g @ p.lift)
    if isinstance(p, HyperbolicPoint):
        return HyperbolicPoint(g @ p.lift)
    raise TypeError(f"cannot apply isometry to {type(p).__name__}")
