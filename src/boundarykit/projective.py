"""Points and Moebius maps on the real and complex projective lines.

Points are stored in normalized homogeneous coordinates so that equality,
hashing and distance tests are stable; all cross-ratio arithmetic happens
projectively (on homogeneous pairs) and never divides by a coordinate that
may vanish.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import DegenerateTuple, SingularMatrix

EPS_DIST = 1e-9   # chordal distinctness tolerance
EPS_DET = 1e-12   # matrix singularity tolerance

INFINITY = float("inf")


def is_infinite(value) -> bool:
    """True for the extended-scalar infinity (real or complex)."""
    return not bool(np.isfinite(value))


def _normalize_pair(coords):
    """Unit-normalize homogeneous pairs and fix a deterministic phase.

    The coordinate of largest modulus is made positive real, so each
    projective point has exactly one representative.  Pairs run along the
    first axis; np.hypot is abs() of a complex scalar bit for bit.
    """
    c = np.asarray(coords)
    re, im = c.real, c.imag
    norm = np.sqrt(re[0] * re[0] + im[0] * im[0] + re[1] * re[1] + im[1] * im[1])
    if not ((norm > 0.0) & (norm < math.inf)).all():
        raise ValueError("homogeneous pair must be finite and nonzero")
    c = c / norm
    modulus = np.hypot(c.real, c.imag)
    pivot = np.where(modulus[1] > modulus[0], c[1], c[0])
    c = c * (np.maximum(modulus[0], modulus[1]) / pivot)
    c.flags.writeable = False
    return c


class ProjectivePoint:
    """A point of P^1 over the reals or complexes, in canonical coordinates."""

    __slots__ = ("coords", "field_tag")

    def __init__(self, a, b, field_tag: str = "complex"):
        if field_tag not in ("real", "complex"):
            raise ValueError(f"unknown field tag {field_tag!r}")
        dtype = np.float64 if field_tag == "real" else np.complex128
        object.__setattr__(self, "coords", _normalize_pair(np.array([a, b], dtype=dtype)))
        object.__setattr__(self, "field_tag", field_tag)

    def __setattr__(self, name, value):
        raise AttributeError("ProjectivePoint is immutable")

    @classmethod
    def from_value(cls, value, field_tag: str = "complex") -> "ProjectivePoint":
        """Build the point for a finite value, or the point at infinity."""
        if is_infinite(value):
            return cls(1.0, 0.0, field_tag)
        return cls(value, 1.0, field_tag)

    @classmethod
    def infinity(cls, field_tag: str = "complex") -> "ProjectivePoint":
        return cls(1.0, 0.0, field_tag)

    @property
    def is_infinity(self) -> bool:
        return abs(self.coords[1]) < EPS_DIST

    def value(self):
        """Extended-scalar value (field element, or inf for the point (1,0))."""
        a, b = self.coords
        if abs(b) < EPS_DIST * abs(a):
            return INFINITY
        v = a / b
        return float(np.real(v)) if self.field_tag == "real" else complex(v)

    def chordal_distance(self, other: "ProjectivePoint") -> float:
        """|det| of the two unit representatives; scale- and chart-free."""
        return abs(_det(self.coords, other.coords))

    def __eq__(self, other):
        if not isinstance(other, ProjectivePoint):
            return NotImplemented
        return (self.field_tag == other.field_tag
                and bool(np.array_equal(self.coords, other.coords)))

    def __hash__(self):
        return hash((self.field_tag, self.coords.tobytes()))

    def __repr__(self):
        v = self.value()
        return f"ProjectivePoint({v!r}, field={self.field_tag})"


def coincident_pair(points, tol: float = EPS_DIST):
    """First pair (i, j), i < j, at chordal distance <= tol, else None.

    The package's one distinctness rule: two points of any model (anything
    with a `chordal_distance`) are distinct iff their distance exceeds tol.
    """
    n = len(points)
    for i in range(n):
        for j in range(i + 1, n):
            if points[i].chordal_distance(points[j]) <= tol:
                return i, j
    return None


def _require_distinct(points, tol=EPS_DIST):
    pair = coincident_pair(points, tol)
    if pair is not None:
        raise DegenerateTuple(
            f"points {pair[0]} and {pair[1]} coincide within tolerance {tol:g}")


def _distinct_rows(batch, tol, distance):
    """Mask of the tuples of an (m, size, k) batch whose points are pairwise > tol apart."""
    ok = np.ones(batch.shape[0], dtype=bool)
    for i, j in itertools.combinations(range(batch.shape[1]), 2):
        ok &= distance(batch[:, i], batch[:, j]) > tol
    return ok


def _require_distinct_rows(batch, tol, distance):
    """_require_distinct for each tuple of an (m, size, k) batch: the refusal
    names the first failing tuple and its first close pair."""
    ok = _distinct_rows(batch, tol, distance)
    if not ok.all():
        k = int(np.argmin(ok))
        i, j = next(pair for pair in itertools.combinations(range(batch.shape[1]), 2)
                    if not _distinct_rows(batch[k:k + 1, pair], tol, distance)[0])
        raise DegenerateTuple(f"points {i} and {j} of tuple {k} coincide within tolerance {tol:g}")


def _det(p, q):
    """a_p b_q - a_q b_p of homogeneous pairs; coordinates along the first axis."""
    d = p * q[::-1]  # an array product rounds alike for one pair or many; a scalar one need not
    return d[0] - d[1]


def pair_chordal_distance(p, q):
    """`ProjectivePoint.chordal_distance` row by row, for (m, 2) arrays of unit pairs."""
    d = _det(p.T, q.T)
    return np.hypot(np.real(d), np.imag(d))


def _cross_ratio_terms(c0, c1, c2, c3):
    """Numerator and denominator of the cross ratio of four homogeneous pairs."""
    return _det(c0, c2) * _det(c1, c3), _det(c0, c3) * _det(c1, c2)


def cross_ratio(x0: ProjectivePoint, x1: ProjectivePoint,
                x2: ProjectivePoint, x3: ProjectivePoint):
    """Cross ratio [x0,x1,x2,x3] = (x0-x2)/(x0-x3) * (x1-x3)/(x1-x2).

    Normalized so that [inf,0,1,x] = x.  Computed on homogeneous pairs, so
    points at infinity need no special casing.  Raises DegenerateTuple when
    two inputs coincide within EPS_DIST.
    """
    _require_distinct((x0, x1, x2, x3))
    num, den = _cross_ratio_terms(x0.coords, x1.coords, x2.coords, x3.coords)
    if abs(den) == 0.0:
        return INFINITY
    v = num / den
    return float(np.real(v)) if x0.field_tag == "real" else complex(v)


class MoebiusMap:
    """Projective transformation of P^1, stored as a 2x2 matrix with |det| = 1."""

    __slots__ = ("matrix", "field_tag")

    def __init__(self, matrix, field_tag: str = "complex"):
        dtype = np.float64 if field_tag == "real" else np.complex128
        m = np.array(matrix, dtype=dtype).reshape(2, 2)
        det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        scale = math.sqrt(abs(det))
        if scale < EPS_DET:
            raise SingularMatrix(f"matrix determinant {abs(det):.3e} below tolerance")
        m = m / scale
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "field_tag", field_tag)

    def __setattr__(self, name, value):
        raise AttributeError("MoebiusMap is immutable")

    @classmethod
    def identity(cls, field_tag: str = "complex") -> "MoebiusMap":
        return cls(np.eye(2), field_tag)

    @classmethod
    def from_coefficients(cls, a, b, c, d, field_tag: str = "complex") -> "MoebiusMap":
        """The map z -> (a z + b) / (c z + d)."""
        return cls([[a, b], [c, d]], field_tag)

    @classmethod
    def random(cls, rng, field_tag: str = "complex") -> "MoebiusMap":
        """Random invertible map with Gaussian matrix entries."""
        while True:
            m = rng.standard_normal((2, 2))
            if field_tag == "complex":
                m = m + 1j * rng.standard_normal((2, 2))
            det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
            if abs(det) > 1e-3:
                return cls(m, field_tag)

    def compose(self, other: "MoebiusMap") -> "MoebiusMap":
        """self after other (matrix product)."""
        return MoebiusMap(self.matrix @ other.matrix, self.field_tag)

    def __call__(self, x: ProjectivePoint) -> ProjectivePoint:
        return apply_moebius(self, x)

    def __repr__(self):
        return f"MoebiusMap({self.matrix.tolist()!r}, field={self.field_tag})"


def apply_moebius(m: MoebiusMap, x: ProjectivePoint) -> ProjectivePoint:
    """Projective action of the matrix on homogeneous coordinates."""
    a, b = m.matrix @ x.coords
    return ProjectivePoint(a, b, x.field_tag)


def normalize_to_standard(x0: ProjectivePoint, x1: ProjectivePoint,
                          x2: ProjectivePoint) -> MoebiusMap:
    """The Moebius map sending (x0, x1, x2) to (inf, 0, 1).

    Built from the projective frame: the inverse of [x0 | x1] sends x0, x1
    to the standard basis directions, and a diagonal rescaling then fixes
    the image of x2 at (1, 1).
    """
    _require_distinct((x0, x1, x2))
    (a0, b0), (a1, b1) = x0.coords, x1.coords
    det = _det(x0.coords, x1.coords)
    if abs(det) < EPS_DET:
        raise DegenerateTuple("first two points coincide projectively")
    inv = np.array([[b1, -a1], [-b0, a0]]) / det
    w = inv @ x2.coords
    if min(abs(w[0]), abs(w[1])) < EPS_DET:
        raise DegenerateTuple("third point coincides with one of the first two")
    return MoebiusMap(np.diag([1.0 / w[0], 1.0 / w[1]]) @ inv, x0.field_tag)
