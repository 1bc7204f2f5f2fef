"""Hyperbolic volume cocycles in dimensions 2 and 3.

Vol_2 is the orientation cocycle on the circle (values +-pi).  Vol_3 sends
four points of the boundary of H^3, read in the P^1(C) chart, to the signed
volume of the ideal tetrahedron they span; it is computed from the cross
ratio z as the sum of Lobachevsky values at the three dihedral angles

    Vol_3 = L(arg z) + L(arg 1/(1-z)) + L(arg (1-1/z)),

with sign convention sign(Im z) and value 0 for real z (flat simplex).
Since L is pi-periodic, each angle is taken modulo pi, as arctan(Im u / Re u)
of u = z, 1/(1-z) and (z-1)/z, so the kernel never shifts by the float pi.

One series evaluates the Lobachevsky function, a zeta-accelerated expansion
exact to machine precision, and one function the three angles; `lobachevsky`
and `vol3_from_cross_ratio` run them on floats, bit for bit as their batch
forms run them on arrays, and `vol2` runs `circle_orientation` on one triple.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import DegenerateTuple, MixedModels
from .hyperbolic import RealBoundaryPoint, boundary_to_chart, real_chordal_distance
from .projective import (EPS_DIST, ProjectivePoint, _cross_ratio, _face_cross_ratios, _face_pairs,
                         _require_apart, _require_distinct)

# zeta(2n) for the accelerated expansion; exact powers of pi for the first
# three, rapidly converging direct sums beyond
_ZETA_EVEN = ([0.0, math.pi ** 2 / 6, math.pi ** 4 / 90, math.pi ** 6 / 945]
              + [float(np.sum(np.arange(1.0, 4097.0) ** (-2.0 * n))) for n in range(4, 44)])
# series coefficients, highest degree first for Horner's rule
_COEFF = [_ZETA_EVEN[n] / (n * (2 * n + 1)) for n in range(43, 0, -1)]


def lobachevsky(theta: float) -> float:
    """Lobachevsky function L(theta) = 1/2 sum sin(2 n theta)/n^2.

    Odd and pi-periodic: the series of `lobachevsky_batch` after reduction
    mod pi, on a float.
    """
    if not math.isfinite(theta):
        raise ValueError("lobachevsky needs a finite angle")
    return float(_lobachevsky_series(math.remainder(theta, math.pi)))


def lobachevsky_batch(theta: np.ndarray) -> np.ndarray:
    """Lobachevsky function over an array of angles with |theta| <= pi.

    The reduction to [-pi/2, pi/2] is an exact shift by +-pi (Sterbenz).
    """
    x = np.asarray(theta, dtype=np.float64)
    if not np.all(np.abs(x) <= math.pi):  # NaN fails this too
        raise ValueError("lobachevsky_batch needs |theta| <= pi")
    return _lobachevsky_series(
        np.where(x > math.pi / 2, x - math.pi, np.where(x < -math.pi / 2, x + math.pi, x)))


def _lobachevsky_series(x):
    """L(x) for |x| <= pi/2, on a float or an array, from the expansion
    L(x) = x - x log|2x| + x sum_{n>=1} zeta(2n)/(n(2n+1)) (x/pi)^{2n},
    which converges geometrically there, summed by Horner's rule in place."""
    q = x / math.pi
    r = q * q
    series = _COEFF[0] * r
    for c in _COEFF[1:]:
        series += c
        series *= r
    # L(0) = 0: every term carries a factor x, so log(1) stands in for log(0)
    return x - x * np.log(abs(2.0 * x) + (x == 0.0)) + x * series


def circle_orientation(u, v, w):
    """Twice the signed area of triangle u, v, w (> 0 counterclockwise).

    Coordinates run along the first axis, so (2, m) arrays give m values.
    """
    return (v[0] - u[0]) * (w[1] - u[1]) - (v[1] - u[1]) * (w[0] - u[0])


def vol2(x: RealBoundaryPoint, y: RealBoundaryPoint, z: RealBoundaryPoint,
         tol: float = EPS_DIST) -> float:
    """Signed area of the ideal triangle in H^2: +-pi by cyclic orientation.

    Counterclockwise triples on the circle give +pi.  Alternating, and a
    cocycle: the coboundary vanishes exactly on distinct 4-tuples.
    """
    if any(p.dim != 2 for p in (x, y, z)):
        raise MixedModels("vol2 expects points on the circle (dim 2)")
    _require_distinct((x, y, z), tol)
    return math.pi if circle_orientation(x.direction, y.direction, z.direction) > 0 else -math.pi


def vol2_batch(points: np.ndarray, faces: np.ndarray | None = None,
               tol: float = EPS_DIST) -> np.ndarray:
    """`vol2` over an (m, 3, 2) array of circle directions, one triple per row;
    or, given an (F, 3) integer array `faces` of columns of an (m, n, 2) array,
    (F, m) values, one row per face, each pair of columns tested once."""
    if points.shape[-1] != 2:
        raise MixedModels("vol2 expects points on the circle (dim 2)")
    if faces is None:
        return vol2_batch(points, np.arange(3)[None], tol)[0]
    pairs = _face_pairs(faces)
    _require_apart(pairs, np.array([real_chordal_distance(points[:, i], points[:, j]) > tol
                                    for i, j in pairs]), tol)
    turn = np.array([circle_orientation(*(points[:, c].T for c in face))
                     for face in faces.tolist()])
    return np.where(turn > 0, math.pi, -math.pi)


def vol3_from_cross_ratio(z) -> float:
    """Ideal-tetrahedron volume as a function of the cross ratio."""
    w = np.complex128(z)  # numpy's divisions, as on arrays
    if not (cmath.isfinite(w) and w != 0 and w != 1):
        raise DegenerateTuple("cross ratio degenerated to 0, 1 or infinity")
    if w.imag == 0.0:
        return 0.0
    t0, t1, t2 = map(float, _dihedral_angles(w))  # the series runs faster on floats
    return float(_lobachevsky_series(t0) + _lobachevsky_series(t1) + _lobachevsky_series(t2))


def vol3_from_cross_ratio_batch(z: np.ndarray) -> np.ndarray:
    """`vol3_from_cross_ratio` over an array of finite cross ratios."""
    z = np.asarray(z, dtype=np.complex128)
    if not np.all(np.isfinite(z) & (z != 0) & (z != 1)):
        raise DegenerateTuple("cross ratio degenerated to 0, 1 or infinity")
    volume = np.zeros(z.shape)
    nonreal = z.imag != 0.0
    # the three dihedral angles in one series call, so a block costs one
    angles = _lobachevsky_series(np.stack(_dihedral_angles(z[nonreal])))
    volume[nonreal] = angles[0] + angles[1] + angles[2]
    return volume


def _dihedral_angles(w):
    """The three angles arctan(Im u / Re u) above, of non-real cross ratios w,
    numpy scalars or arrays: the float pi is off by 1.2e-16 where L has a
    log-singular slope, and (w-1)/w is 1-1/w without its cancellation near 1."""
    with np.errstate(divide="ignore"):  # Re u = 0 gives arctan(+-inf) = +-pi/2
        return [np.arctan(u.imag / u.real) for u in (w, 1.0 / (1.0 - w), (w - 1.0) / w)]


def vol3(x0, x1, x2, x3, tol: float = EPS_DIST) -> float:
    """Signed volume of the ideal simplex on four boundary points of H^3.

    Accepts ProjectivePoint values in the P^1(C) chart or RealBoundaryPoint
    values on S^2 (converted through the package chart).  Alternating,
    Moebius-invariant, continuous on distinct tuples, zero when the cross
    ratio is real, and maximal at the regular ideal tetrahedron.
    """
    points = [boundary_to_chart(p) if isinstance(p, RealBoundaryPoint) else p
              for p in (x0, x1, x2, x3)]
    for p in points:
        if not isinstance(p, ProjectivePoint):
            raise TypeError(f"vol3 expects boundary points, got {type(p).__name__}")
    return vol3_from_cross_ratio(_cross_ratio(points, tol))


def vol3_batch(points: np.ndarray, faces: np.ndarray | None = None,
               tol: float = EPS_DIST) -> np.ndarray:
    """`vol3` over an (m, 4, 2) array of P^1(C) chart coordinates, one tuple per
    row; or, given an (F, 4) integer array `faces` of columns of an (m, n, 2)
    array, (F, m) values, one row per face, from one table of pair determinants."""
    if faces is None:
        return vol3_batch(points, np.arange(4)[None], tol)[0]
    z, pairs, distances = _face_cross_ratios(points, faces)
    _require_apart(pairs, distances > tol, tol)
    return vol3_from_cross_ratio_batch(z)


MAX_VOL3 = 3 * lobachevsky(math.pi / 3)  # volume of the regular ideal tetrahedron
