"""Points and Moebius maps on the real and complex projective lines.

Points are stored in normalized homogeneous coordinates so that equality,
hashing and distance tests are stable; all cross-ratio arithmetic happens
projectively (on homogeneous pairs) and never divides by a coordinate that
may vanish.
"""

from __future__ import annotations

import cmath
import itertools
import math

import numpy as np

from .errors import DegenerateTuple, SingularMatrix

EPS_DIST = 1e-9   # chordal distinctness tolerance
EPS_DET = 1e-12   # matrix singularity tolerance

INFINITY = float("inf")


def is_infinite(value) -> bool:
    """True for the extended-scalar infinity (real or complex)."""
    return not cmath.isfinite(value)


def _mul(x, y):
    """x * y for two scalars or two arrays of one field.  Python's and numpy's
    scalar complex products round as this real arithmetic does; numpy's complex
    array loop rounds some products otherwise."""
    if isinstance(x, np.ndarray) and x.dtype.kind == "c":
        return (x.real * y.real - x.imag * y.imag) + 1j * (x.real * y.imag + x.imag * y.real)
    return x * y


def _modulus(z):
    """np.hypot(Re z, Im z).  abs() of a scalar is the same libm hypot, without
    a numpy call's microsecond; numpy's abs of a complex array rounds otherwise."""
    return np.hypot(z.real, z.imag) if isinstance(z, np.ndarray) else abs(z)


def _where(cond, x, y):
    """np.where, or on a scalar cond the plain choice, which costs no numpy call."""
    return np.where(cond, x, y) if isinstance(cond, np.ndarray) else (x if cond else y)


def _all(mask):
    """mask.all(), or bool(mask) on a scalar mask, where the method costs a microsecond."""
    return mask.all() if isinstance(mask, np.ndarray) else bool(mask)


def _normalize_pair(a, b):
    """Unit-normalize homogeneous pairs (a, b), scalars or arrays, and fix a
    deterministic phase: the first coordinate p of largest modulus is made
    positive real by the factor conj(p) / |p|, so each projective point has
    exactly one representative.
    """
    norm = np.sqrt(a.real * a.real + a.imag * a.imag + b.real * b.real + b.imag * b.imag)
    if not _all((norm > 0.0) & (norm < math.inf)):
        raise ValueError("homogeneous pair must be finite and nonzero")
    a, b = a * (1.0 / norm), b * (1.0 / norm)  # numpy's complex / norm, as Python's is not
    modulus_a, modulus_b = _modulus(a), _modulus(b)
    lead = modulus_b > modulus_a
    phase = _where(lead, b, a).conjugate() * (1.0 / _where(lead, modulus_b, modulus_a))
    return _mul(a, phase), _mul(b, phase)


class ProjectivePoint:
    """A point of P^1 over the reals or complexes, in canonical coordinates."""

    __slots__ = ("coords", "field_tag")

    def __init__(self, a, b, field_tag: str = "complex"):
        if field_tag not in ("real", "complex"):
            raise ValueError(f"unknown field tag {field_tag!r}")
        scalar = float if field_tag == "real" else complex
        coords = np.array(_normalize_pair(scalar(a), scalar(b)))
        coords.setflags(write=False)
        object.__setattr__(self, "coords", coords)
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
        return _modulus(_det(self.coords.tolist(), other.coords.tolist()))

    def __eq__(self, other):
        if not isinstance(other, ProjectivePoint):
            return NotImplemented
        return (self.field_tag == other.field_tag
                and bool(np.array_equal(self.coords, other.coords)))

    def __hash__(self):
        return hash((self.field_tag, (self.coords + 0.0).tobytes()))  # -0.0 + 0.0 is 0.0

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
    """a_p b_q - a_q b_p of homogeneous pairs; coordinates along the first axis.
    Exactly antisymmetric, and the same bits on scalars and on arrays."""
    (a, b), (c, d) = p, q
    if not (isinstance(a, np.ndarray) and a.dtype.kind == "c"):
        return a * d - c * b
    det = np.empty(a.shape, np.complex128)  # _mul's products, with one complex result
    det.real = (a.real * d.real - a.imag * d.imag) - (c.real * b.real - c.imag * b.imag)
    det.imag = (a.real * d.imag + a.imag * d.real) - (c.real * b.imag + c.imag * b.real)
    return det


def pair_chordal_distance(p, q):
    """`ProjectivePoint.chordal_distance` row by row, for (m, 2) arrays of unit pairs."""
    return _modulus(_det(p.T, q.T))


def _cross_ratio_terms(c):
    """Numerator and denominator of the cross ratio of four homogeneous pairs c,
    and the determinants of all six pairs, whose moduli are their chordal distances."""
    c0, c1, c2, c3 = c
    d02, d13, d03, d12 = _det(c0, c2), _det(c1, c3), _det(c0, c3), _det(c1, c2)
    return _mul(d02, d13), _mul(d03, d12), (_det(c0, c1), d02, d03, d12, d13, _det(c2, c3))


def cross_ratio(x0: ProjectivePoint, x1: ProjectivePoint,
                x2: ProjectivePoint, x3: ProjectivePoint):
    """Cross ratio [x0,x1,x2,x3] = (x0-x2)/(x0-x3) * (x1-x3)/(x1-x2).

    Normalized so that [inf,0,1,x] = x.  Computed on homogeneous pairs, so
    points at infinity need no special casing.  Raises DegenerateTuple when
    two inputs coincide within EPS_DIST.
    """
    return _cross_ratio((x0, x1, x2, x3), EPS_DIST)


def _cross_ratio(points, tol):
    num, den, dets = _cross_ratio_terms([x.coords.tolist() for x in points])
    if min(map(abs, dets)) <= tol:  # abs is _modulus on scalars: the chordal distances
        _require_distinct(points, tol)  # names the first close pair
    if abs(den) == 0.0:
        return INFINITY
    if points[0].field_tag == "real":
        return float(num / den)
    return complex(np.complex128(num) / den)  # numpy's division, as on arrays


class MoebiusMap:
    """Projective transformation of P^1, stored as a 2x2 matrix with |det| = 1."""

    __slots__ = ("matrix", "field_tag")

    def __init__(self, matrix, field_tag: str = "complex"):
        dtype = np.float64 if field_tag == "real" else np.complex128
        m = np.array(matrix, dtype=dtype).reshape(2, 2)
        det = _det(*m.T.tolist())
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
            if abs(_det(*m.T.tolist())) > 1e-3:
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
    (m00, m01), (m10, m11) = m.matrix.tolist()
    a, b = x.coords.tolist()  # Python scalars, whose products are _mul's
    return ProjectivePoint(m00 * a + m01 * b, m10 * a + m11 * b, x.field_tag)


def normalize_to_standard(x0: ProjectivePoint, x1: ProjectivePoint,
                          x2: ProjectivePoint) -> MoebiusMap:
    """The Moebius map sending (x0, x1, x2) to (inf, 0, 1).

    Its rows are the covectors (b1, -a1) and (-b0, a0), which vanish at x1
    and at x0, each divided by its value at x2, so x2 goes to (1, 1).  Both
    values are determinants of distinct points, so neither vanishes.
    """
    _require_distinct((x0, x1, x2))
    (a0, b0), (a1, b1) = x0.coords, x1.coords
    d21, d02 = _det(x2.coords, x1.coords), _det(x0.coords, x2.coords)
    return MoebiusMap([[b1 / d21, -a1 / d21], [-b0 / d02, a0 / d02]], x0.field_tag)
