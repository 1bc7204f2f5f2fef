"""Full flags in R^3: opposition, flat boundaries, genericity, triple ratio.

This is the one higher-rank boundary implemented concretely.  A full flag is
a line inside a plane; the plane is stored as a unit covector.  A pair of
flags is opposite when line and plane are mutually transverse, and a triple
is generic when each flag is opposite to all six coordinate flags of the
flat spanned by the other two.

Each quantity has one array kernel, as the configuration-space probes
evaluate 10^5 triples: `Flag3` is a one-row call of `batch_normalize_flags`,
and the pairings and triple ratio of Flag3 objects apply the component
kernels `_dot` and `_triple_ratio` to the flags' own vectors.
"""

from __future__ import annotations

import numpy as np

from .errors import NotGeneric, NotOpposite
from .projective import Value

PAIRING_TOL = 1e-9  # transversality tolerance on unit-normalized pairings


def _sign_normalize_rows(v):
    """Unit rows of `v`, each with its first largest-modulus component made positive."""
    # sqrt(vecdot), not einsum, whose sums round differently: it keeps the bits
    # of the flags3 sample reports
    norm = np.sqrt(np.vecdot(v, v))
    if not (np.isfinite(norm) & (norm > 0.0)).all():
        raise ValueError("vector must be finite and nonzero")
    v = v / norm[:, None]
    lead = v[np.arange(len(v)), np.argmax(np.abs(v), axis=1)]
    return np.where(lead[:, None] < 0, -v, v)


def batch_normalize_flags(lines, planes):
    """(line, plane) of Flag3(lines[i], planes[i]) for each row i.

    `lines` and `planes` are float arrays of shape (n, 3).  Raises
    ValueError where a covector is parallel to its line.
    """
    e = _sign_normalize_rows(lines)
    # project out any numerical drift off the incidence condition
    phi = planes - np.vecdot(planes, e)[:, None] * e
    if (np.sqrt(np.vecdot(phi, phi)) < 1e-9).any():
        raise ValueError("plane covector is parallel to the line")
    return e, _sign_normalize_rows(phi)


class Flag3(Value):
    """A full flag in R^3: a sign-normalized unit line vector inside the
    kernel of a sign-normalized unit covector."""

    __slots__ = ("line", "plane")

    def __init__(self, line, plane):
        (e,), (phi,) = batch_normalize_flags(np.asarray(line, dtype=np.float64)[None],
                                             np.asarray(plane, dtype=np.float64)[None])
        self._hold(e, phi)

    @classmethod
    def from_basis(cls, u, v) -> "Flag3":
        """Flag with line <u> and plane span(u, v)."""
        return cls(u, np.cross(u, v))

    def pairing(self, other: "Flag3") -> float:
        """phi_self(e_other), the transversality pairing, as the masks take it."""
        return float(_dot(self.plane, other.line))

    def apply(self, g) -> "Flag3":
        """Image under g in GL(3,R): line by g, covector by inverse transpose."""
        g = np.asarray(g, dtype=np.float64)
        return Flag3(g @ self.line, np.linalg.solve(g.T, self.plane))

    def __eq__(self, other):
        if not isinstance(other, Flag3):
            return NotImplemented
        return (np.array_equal(self.line, other.line)
                and np.array_equal(self.plane, other.plane))

    def __hash__(self):
        # -0.0 + 0.0 is 0.0, so flags equal under == hash alike
        return hash(((self.line + 0.0).tobytes(), (self.plane + 0.0).tobytes()))

    def __repr__(self):
        return f"Flag3(line={self.line.tolist()}, plane={self.plane.tolist()})"


class FlatBoundary(Value):
    """The six coordinate flags of the maximal flat of an opposite pair.

    `basis` is the adapted basis (u1, u2, u3): u1 on the first flag's line,
    u3 on the second's, u2 spanning the intersection of the two planes.
    `flags` are the coordinate flags (<u_a>, span(u_a, u_b)) for all ordered
    pairs a != b, one per Weyl-group element.
    """

    __slots__ = ("flags", "basis")

    def __init__(self, flags, basis):
        self._hold(tuple(flags), np.array(basis, dtype=np.float64))  # copied: _hold freezes it

    def __repr__(self):
        return f"FlatBoundary({len(self.flags)} flags)"


def is_opposite(f1: Flag3, f2: Flag3, tol: float = PAIRING_TOL) -> bool:
    """Mutual transversality: |phi_1(e_2)| > tol and |phi_2(e_1)| > tol."""
    return abs(f1.pairing(f2)) > tol and abs(f2.pairing(f1)) > tol


def flat_boundary(f1: Flag3, f2: Flag3, tol: float = PAIRING_TOL) -> FlatBoundary:
    """Weyl-orbit flags of the maximal flat determined by an opposite pair."""
    if not is_opposite(f1, f2, tol):
        raise NotOpposite("flat boundaries are only defined for opposite flags")
    u2 = _sign_normalize_rows(np.cross(f1.plane, f2.plane)[None])[0]
    basis = np.stack((f1.line, u2, f2.line))
    a, b = np.array([(a, b) for a in range(3) for b in range(3) if a != b]).T
    # the six Flag3.from_basis(basis[a], basis[b]) in one normalization
    lines, planes = batch_normalize_flags(basis[a], np.cross(basis[a], basis[b]))
    return FlatBoundary([Flag3.__new__(Flag3)._hold(*row) for row in zip(lines, planes)], basis.T)


def is_generic_triple(f1: Flag3, f2: Flag3, f3: Flag3,
                      tol: float = PAIRING_TOL) -> bool:
    """Genericity of a flag triple: `batch_is_generic` on one triple.

    Requires pairwise opposition, and for each pair the remaining flag must
    be opposite to every flag in the pair's flat boundary.  Returns False
    (never raises) on failures.
    """
    triple = (f1, f2, f3)
    lines = np.array([[f.line for f in triple]])
    planes = np.array([[f.plane for f in triple]])
    return bool(batch_is_generic(lines, planes, tol)[0])


def triple_ratio(f1: Flag3, f2: Flag3, f3: Flag3,
                 tol: float = PAIRING_TOL) -> float:
    """Projective invariant of a generic flag triple.

    T = phi1(e2) phi2(e3) phi3(e1) / (phi1(e3) phi2(e1) phi3(e2)); invariant
    under SL(3,R), cyclic-invariant, inverted by transpositions, and
    independent of the sign normalization of the representatives.  Raises
    NotGeneric where a pairing of the denominator is at most tol.
    """
    for name, value in (("phi1(e3)", f1.pairing(f3)), ("phi2(e1)", f2.pairing(f1)),
                        ("phi3(e2)", f3.pairing(f2))):
        if abs(value) <= tol:
            raise NotGeneric(f"pairing {name} = {value:.3e} below tolerance")
    return float(_triple_ratio((f1.line, f2.line, f3.line), (f1.plane, f2.plane, f3.plane)))


def random_flag(rng) -> Flag3:
    """Flag of a Haar-random orthonormal frame: one row of batch_random_flags."""
    lines, planes = batch_random_flags(rng, 1)
    return Flag3(lines[0], planes[0])


# ---------------------------------------------------------------------------
# vectorized kernels for large probes


def batch_random_flags(rng, count: int):
    """(lines, covectors) arrays of `count` Haar-random flags, rows normalized.

    The flag of the orthonormal frame Q of a Gaussian matrix with columns
    (a, b, c), Q taken from the QR factorization with R's diagonal made
    positive (Mezzadri 2007), is spanned by Q's first two columns, which
    Gram-Schmidt gives in closed form: the line is a / |a| and the plane
    has covector (a x b) / |a x b|.  No factorization is needed.
    """
    frames = rng.standard_normal((count, 3, 3))
    a, b = frames[:, :, 0], frames[:, :, 1]
    lines = a / np.sqrt(np.vecdot(a, a))[:, None]
    planes = np.cross(a, b)
    planes /= np.sqrt(np.vecdot(planes, planes))[:, None]
    return lines, planes


def _cross(a, b):
    """a x b of two vectors given as their three components, as np.cross computes it."""
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def _unit(v):
    """v / |v| of a vector given as its components, as np.linalg.norm sums them."""
    norm = np.sqrt(v[0] * v[0] + v[1] * v[1] + v[2] * v[2])
    return (v[0] / norm, v[1] / norm, v[2] / norm)


def _dot(phi, e):
    """phi(e) of a covector and a vector given as their components."""
    # the order in which np.einsum("ni,ni->n") sums three products, so the
    # mask and triple ratio keep the bits of an einsum kernel; summed left
    # to right, 30% of pairings differ in the last bit
    return (phi[0] * e[0] + phi[2] * e[2]) + phi[1] * e[1]


def batch_is_generic(lines, planes, tol: float = PAIRING_TOL) -> np.ndarray:
    """Vectorized genericity mask for stacked pairs or triples.

    `lines` and `planes` have shape (count, size, 3) with size 2 or 3;
    index 1 runs over the flags of each tuple.  A pair is generic when it
    is opposite; a triple also needs the flat-boundary conditions.  A row
    whose conditions come out NaN (parallel planes) is not generic.

    Flag k of a triple must be opposite to the six flags
    (<u_a>, span(u_a, u_b)) of the flat of the other two, whose adapted
    basis is (u_1, u_2, u_3) = (e_i, unit(phi_i x phi_j), e_j).  Each
    distinct condition is evaluated once: phi_k(u_a) for a = 1, 3 is a
    pairwise condition, leaving phi_k(u_2), and psi_ba = -psi_ab exactly,
    leaving one psi_ab(e_k) per unordered pair {a, b}.
    """
    size = lines.shape[1]
    e, phi = lines.transpose(1, 2, 0), planes.transpose(1, 2, 0)
    ok = np.ones(lines.shape[0], dtype=bool)
    with np.errstate(invalid="ignore", divide="ignore"):
        for i in range(size):
            for j in range(size):
                if i != j:
                    ok &= np.abs(_dot(phi[i], e[j])) > tol
        if size == 3:
            for k in range(3):
                i, j = [m for m in range(3) if m != k]
                u = (e[i], _unit(_cross(phi[i], phi[j])), e[j])
                ok &= np.abs(_dot(phi[k], u[1])) > tol
                for a, b in ((0, 1), (0, 2), (1, 2)):
                    ok &= np.abs(_dot(_unit(_cross(u[a], u[b])), e[k])) > tol  # psi_ab(e_k)
    return ok


def _triple_ratio(e, phi):
    """Triple ratio of the flags (e[k], phi[k]), k < 3, given as their components."""
    num = _dot(phi[0], e[1]) * _dot(phi[1], e[2]) * _dot(phi[2], e[0])
    den = _dot(phi[0], e[2]) * _dot(phi[1], e[0]) * _dot(phi[2], e[1])
    return num / den


def batch_triple_ratio(lines, planes) -> np.ndarray:
    """Vectorized triple ratio for stacked triples (no genericity check)."""
    return _triple_ratio(lines.transpose(1, 2, 0), planes.transpose(1, 2, 0))
