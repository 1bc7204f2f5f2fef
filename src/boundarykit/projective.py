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
    """x * y of two scalars, or of two complex values held as (re, im) planes.
    Python's and numpy's scalar complex products round as this real arithmetic
    does; numpy's complex array loop rounds some products otherwise."""
    if isinstance(x, tuple):
        (xr, xi), (yr, yi) = x, y
        return xr * yr - xi * yi, xr * yi + xi * yr
    return x * y


def _modulus(re, im):
    """np.hypot(re, im).  On floats, abs() of a Python complex is the same libm
    hypot, without a numpy call's microsecond."""
    return np.hypot(re, im) if isinstance(re, np.ndarray) else abs(complex(re, im))


def _where(cond, x, y):
    """np.where, or on a scalar cond the plain choice, which costs no numpy call."""
    return np.where(cond, x, y) if isinstance(cond, np.ndarray) else (x if cond else y)


def _all(mask):
    """mask.all(), or bool(mask) on a scalar mask, where the method costs a microsecond."""
    return mask.all() if isinstance(mask, np.ndarray) else bool(mask)


def _normalize_pair(a, b):
    """Unit-normalize homogeneous pairs (a, b), each the (re, im) planes of
    scalars or arrays, and fix a deterministic phase: the first coordinate p
    of largest modulus is made positive real by the factor conj(p) / |p|, so
    each projective point has exactly one representative.  Returns planes.
    """
    (ar, ai), (br, bi) = a, b
    sqrt = np.sqrt if isinstance(ar, np.ndarray) else math.sqrt  # np.sqrt's bits at float speed
    norm = sqrt(ar * ar + ai * ai + br * br + bi * bi)
    if not _all((norm > 0.0) & (norm < math.inf)):
        raise ValueError("homogeneous pair must be finite and nonzero")
    scale = 1.0 / norm  # one reciprocal, then products
    a, b = (ar * scale, ai * scale), (br * scale, bi * scale)
    modulus_a, modulus_b = _modulus(*a), _modulus(*b)
    lead = modulus_b > modulus_a
    scale = 1.0 / _where(lead, modulus_b, modulus_a)
    phase = _where(lead, b[0], a[0]) * scale, -_where(lead, b[1], a[1]) * scale
    return _mul(a, phase), _mul(b, phase)


class Value:
    """Base of the geometric value types: immutable, holding read-only arrays."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _hold(self, *values):
        """Set the class's __slots__, in order, to `values`, making arrays read-only."""
        for name, value in zip(self.__slots__, values):
            if isinstance(value, np.ndarray):
                value.setflags(write=False)  # cheaper than setting .flags.writeable
            object.__setattr__(self, name, value)
        return self


class ProjectivePoint(Value):
    """A point of P^1 over the reals or complexes, in canonical coordinates."""

    __slots__ = ("coords", "field_tag")

    def __init__(self, a, b, field_tag: str = "complex"):
        if field_tag not in ("real", "complex"):
            raise ValueError(f"unknown field tag {field_tag!r}")
        scalar = float if field_tag == "real" else complex
        (ar, ai), (br, bi) = _normalize_pair(*((z.real, z.imag) for z in map(scalar, (a, b))))
        coords = [ar, br] if field_tag == "real" else [complex(ar, ai), complex(br, bi)]
        self._hold(np.array(coords), field_tag)

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
        return bool(2.0 * abs(self.coords[1]) <= EPS_DIST)  # 2|b|: chordal distance to (1, 0)

    def value(self):
        """Extended-scalar value (field element, or inf for the point (1,0))."""
        if self.is_infinity:
            return INFINITY
        a, b = self.coords
        v = a / b
        return float(np.real(v)) if self.field_tag == "real" else complex(v)

    def chordal_distance(self, other: "ProjectivePoint") -> float:
        """2|det| of the unit representatives: the chord of the sphere points they chart."""
        return 2.0 * abs(_det(self.coords.tolist(), other.coords.tolist()))

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


def _require_apart(pairs, ok, tol):
    """_require_distinct for a batch, from the (P, m) mask `ok` of the pairs
    (i, j) of `pairs` that are apart in each tuple: the refusal names the
    first failing tuple and its first close pair in the order of `pairs`."""
    if not ok.all():
        k = int(np.argmin(ok.all(axis=0)))
        i, j = pairs[int(np.argmin(ok[:, k]))]
        raise DegenerateTuple(f"points {i} and {j} of tuple {k} coincide within tolerance {tol:g}")


def _face_pairs(faces):
    """The pairs (i, j), i < j, of columns that faces, rows of an integer array, hold, in order."""
    return sorted({tuple(sorted(pair)) for face in faces.tolist()
                   for pair in itertools.combinations(face, 2)})


def _det(p, q):
    """a_p b_q - a_q b_p of homogeneous pairs of scalars, real arrays or (re, im)
    planes.  Exactly antisymmetric, and the same bits on scalars and arrays."""
    (a, b), (c, d) = p, q
    if not isinstance(a, tuple):
        return a * d - c * b
    (adr, adi), (cbr, cbi) = _mul(a, d), _mul(c, b)
    return adr - cbr, adi - cbi


_TERMS = [(0, 2), (1, 3), (0, 3), (1, 2)]  # the pairs of a cross ratio's numerator and denominator


def _cross_ratio_terms(d02, d13, d03, d12):
    """Numerator and denominator of a cross ratio from the determinants of its _TERMS."""
    return _mul(d02, d13), _mul(d03, d12)


def _face_cross_ratios(coords, faces):
    """(z, pairs, distances): the (F, m) cross ratios of the faces, rows of four
    columns, of an (m, n, 2) array of unit pairs; the pairs the faces hold and
    their (P, m) chordal distances.  Each determinant is taken once, on real
    planes; a face holding a pair out of order reads its exact negative."""
    pairs = _face_pairs(faces)
    ends = np.moveaxis(faces[:, _TERMS], 1, 0).tolist()  # (4, F, 2)
    index = [[pairs.index(tuple(sorted(pair))) for pair in term] for term in ends]
    sign = np.array([[1.0 if i < j else -1.0 for i, j in term] for term in ends])[..., None]
    planes = np.asarray(coords, np.complex128).view(np.float64).transpose(1, 2, 0)
    planes = np.ascontiguousarray(planes)  # (n, 4, m): Re a, Im a, Re b, Im b
    re, im = table = np.empty((2, len(pairs), planes.shape[-1]))
    for k, (i, j) in enumerate(pairs):  # on views: gathered rows would cost more than they save
        (ar, ai, br, bi), (cr, ci, dr, di) = planes[i], planes[j]
        table[:, k] = _det(((ar, ai), (br, bi)), ((cr, ci), (dr, di)))
    num, den = _cross_ratio_terms(*zip(re[index] * sign, im[index] * sign))
    # real pairs divide as reals: numpy's complex division rounds otherwise
    num, den = (np.stack(t, axis=-1).view(np.complex128)[..., 0] if coords.dtype.kind == "c"
                else t[0] for t in (num, den))
    return num / den, pairs, 2.0 * _modulus(re, im)


def cross_ratio(x0: ProjectivePoint, x1: ProjectivePoint,
                x2: ProjectivePoint, x3: ProjectivePoint):
    """Cross ratio [x0,x1,x2,x3] = (x0-x2)/(x0-x3) * (x1-x3)/(x1-x2).

    Normalized so that [inf,0,1,x] = x.  Computed on homogeneous pairs, so
    points at infinity need no special casing.  Raises DegenerateTuple when
    two inputs coincide within EPS_DIST.
    """
    return _cross_ratio((x0, x1, x2, x3), EPS_DIST)


def _cross_ratio(points, tol):
    c = [x.coords.tolist() for x in points]
    dets = {(i, j): _det(c[i], c[j]) for i, j in itertools.combinations(range(4), 2)}
    num, den = _cross_ratio_terms(*(dets[pair] for pair in _TERMS))
    if 2.0 * min(map(abs, dets.values())) <= tol:  # the chordal distances
        _require_distinct(points, tol)  # names the first close pair
    if abs(den) == 0.0:
        return INFINITY
    if points[0].field_tag == "real":
        return float(num / den)
    return complex(np.complex128(num) / den)  # numpy's division, as on arrays


class MoebiusMap(Value):
    """Projective transformation of P^1, stored as a 2x2 matrix with |det| = 1."""

    __slots__ = ("matrix", "field_tag")

    def __init__(self, matrix, field_tag: str = "complex"):
        dtype = np.float64 if field_tag == "real" else np.complex128
        m = np.array(matrix, dtype=dtype).reshape(2, 2)
        det = _det(*m.T.tolist())
        scale = math.sqrt(abs(det))
        if scale < EPS_DET:
            raise SingularMatrix(f"matrix determinant {abs(det):.3e} below tolerance")
        self._hold(m / scale, field_tag)

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
