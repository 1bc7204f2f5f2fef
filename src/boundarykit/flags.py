"""Full flags in R^3: opposition, flat boundaries, genericity, triple ratio.

This is the one higher-rank boundary implemented concretely.  A full flag is
a line inside a plane; the plane is stored as a unit covector.  A pair of
flags is opposite when line and plane are mutually transverse, and a triple
is generic when each flag is opposite to all six coordinate flags of the
flat spanned by the other two.

Scalar operations work on Flag3 objects; `batch_*` functions operate on
stacked coordinate arrays and exist because the configuration-space probes
evaluate 10^5 triples.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NotGeneric, NotOpposite

PAIRING_TOL = 1e-9  # transversality tolerance on unit-normalized pairings


def _sign_normalize(v):
    """Unit vector with the largest-modulus component made positive."""
    v = np.asarray(v, dtype=np.float64)
    norm = float(np.linalg.norm(v))
    if not (norm > 0.0) or not math.isfinite(norm):
        raise ValueError("vector must be finite and nonzero")
    v = v / norm
    lead = int(np.argmax(np.abs(v)))
    if v[lead] < 0:
        v = -v
    v.flags.writeable = False
    return v


def _sign_normalize_rows(v):
    """_sign_normalize of each row of `v`, bit for bit."""
    # sqrt(vecdot) is the 1-D np.linalg.norm bit for bit; einsum is not
    norm = np.sqrt(np.vecdot(v, v))
    if not np.all(np.isfinite(norm) & (norm > 0.0)):
        raise ValueError("vector must be finite and nonzero")
    v = v / norm[:, None]
    lead = np.take_along_axis(v, np.argmax(np.abs(v), axis=1)[:, None], axis=1)
    return np.where(lead < 0, -v, v)


def batch_normalize_flags(lines, planes):
    """(line, plane) of Flag3(lines[i], planes[i]) for each row i, bit for bit.

    `lines` and `planes` are float arrays of shape (n, 3).  Raises
    ValueError, as Flag3 does, where a covector is parallel to its line.
    """
    e = _sign_normalize_rows(lines)
    phi = planes - np.vecdot(planes, e)[:, None] * e  # vecdot is `@` bit for bit
    if np.any(np.sqrt(np.vecdot(phi, phi)) < 1e-9):
        raise ValueError("plane covector is parallel to the line")
    return e, _sign_normalize_rows(phi)


class Flag3:
    """A full flag in R^3: a sign-normalized unit line vector inside the
    kernel of a sign-normalized unit covector."""

    __slots__ = ("line", "plane")

    def __init__(self, line, plane):
        e = _sign_normalize(line)
        phi = np.asarray(plane, dtype=np.float64)
        # project out any numerical drift off the incidence condition
        phi = phi - (phi @ e) * e
        if np.linalg.norm(phi) < 1e-9:
            raise ValueError("plane covector is parallel to the line")
        phi = _sign_normalize(phi)
        object.__setattr__(self, "line", e)
        object.__setattr__(self, "plane", phi)

    def __setattr__(self, name, value):
        raise AttributeError("Flag3 is immutable")

    @classmethod
    def from_basis(cls, u, v) -> "Flag3":
        """Flag with line <u> and plane span(u, v)."""
        return cls(u, np.cross(u, v))

    def pairing(self, other: "Flag3") -> float:
        """phi_self(e_other), the transversality pairing."""
        return float(self.plane @ other.line)

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
        return hash((self.line.tobytes(), self.plane.tobytes()))

    def __repr__(self):
        return f"Flag3(line={self.line.tolist()}, plane={self.plane.tolist()})"


class FlatBoundary:
    """The six coordinate flags of the maximal flat of an opposite pair.

    `basis` is the adapted basis (u1, u2, u3): u1 on the first flag's line,
    u3 on the second's, u2 spanning the intersection of the two planes.
    `flags` are the coordinate flags (<u_a>, span(u_a, u_b)) for all ordered
    pairs a != b, one per Weyl-group element.
    """

    __slots__ = ("flags", "basis")

    def __init__(self, flags, basis):
        object.__setattr__(self, "flags", tuple(flags))
        object.__setattr__(self, "basis", np.asarray(basis, dtype=np.float64))

    def __setattr__(self, name, value):
        raise AttributeError("FlatBoundary is immutable")

    def __repr__(self):
        return f"FlatBoundary({len(self.flags)} flags)"


def is_opposite(f1: Flag3, f2: Flag3, tol: float = PAIRING_TOL) -> bool:
    """Mutual transversality: |phi_1(e_2)| > tol and |phi_2(e_1)| > tol."""
    return abs(f1.pairing(f2)) > tol and abs(f2.pairing(f1)) > tol


def flat_boundary(f1: Flag3, f2: Flag3, tol: float = PAIRING_TOL) -> FlatBoundary:
    """Weyl-orbit flags of the maximal flat determined by an opposite pair."""
    if not is_opposite(f1, f2, tol):
        raise NotOpposite("flat boundaries are only defined for opposite flags")
    u1 = f1.line
    u3 = f2.line
    u2 = _sign_normalize(np.cross(f1.plane, f2.plane))
    basis = (u1, u2, u3)
    flags = tuple(Flag3.from_basis(basis[a], basis[b])
                  for a in range(3) for b in range(3) if a != b)
    return FlatBoundary(flags, np.column_stack(basis))


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
    independent of the sign normalization of the representatives.
    """
    num = f1.pairing(f2) * f2.pairing(f3) * f3.pairing(f1)
    den = f1.pairing(f3) * f2.pairing(f1) * f3.pairing(f2)
    for name, value in (("phi1(e3)", f1.pairing(f3)), ("phi2(e1)", f2.pairing(f1)),
                        ("phi3(e2)", f3.pairing(f2))):
        if abs(value) <= tol:
            raise NotGeneric(f"pairing {name} = {value:.3e} below tolerance")
    return num / den


def random_flag(rng) -> Flag3:
    """Flag of a Haar-random orthonormal frame (QR of a Gaussian matrix)."""
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    return Flag3.from_basis(q[:, 0], q[:, 1])


# ---------------------------------------------------------------------------
# vectorized kernels for large probes


def batch_random_flags(rng, count: int):
    """(lines, covectors) arrays of `count` random flags, rows normalized."""
    frames = rng.standard_normal((count, 3, 3))
    # the flag needs two frame columns; Householder QR of those two gives
    # the same Q columns and R diagonal as the QR of the whole frame
    q, r = np.linalg.qr(frames[:, :, :2])
    q = q * np.sign(np.einsum("nii->ni", r))[:, None, :]
    lines = q[:, :, 0]
    planes = np.cross(q[:, :, 0], q[:, :, 1])
    planes /= np.linalg.norm(planes, axis=1, keepdims=True)
    return lines, planes


def _rows_unit(v):
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _pair(phi, e):
    return np.einsum("ni,ni->n", phi, e)


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
    e = [lines[:, i] for i in range(size)]
    phi = [planes[:, i] for i in range(size)]
    ok = np.ones(lines.shape[0], dtype=bool)
    with np.errstate(invalid="ignore", divide="ignore"):
        for i in range(size):
            for j in range(size):
                if i != j:
                    ok &= np.abs(_pair(phi[i], e[j])) > tol
        if size == 3:
            for k in range(3):
                i, j = [m for m in range(3) if m != k]
                u = (e[i], _rows_unit(np.cross(phi[i], phi[j])), e[j])
                ok &= np.abs(_pair(phi[k], u[1])) > tol
                for a, b in ((0, 1), (0, 2), (1, 2)):
                    psi = _rows_unit(np.cross(u[a], u[b]))
                    ok &= np.abs(_pair(psi, e[k])) > tol
    return ok


def batch_triple_ratio(lines, planes) -> np.ndarray:
    """Vectorized triple ratio for stacked triples (no genericity check)."""
    e = [lines[:, i] for i in range(3)]
    phi = [planes[:, i] for i in range(3)]
    num = _pair(phi[0], e[1]) * _pair(phi[1], e[2]) * _pair(phi[2], e[0])
    den = _pair(phi[0], e[2]) * _pair(phi[1], e[0]) * _pair(phi[2], e[1])
    return num / den
