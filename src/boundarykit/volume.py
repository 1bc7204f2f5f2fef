"""Hyperbolic volume cocycles in dimensions 2 and 3.

Vol_2 is the orientation cocycle on the circle (values +-pi).  Vol_3 sends
four points of the boundary of H^3, read in the P^1(C) chart, to the signed
volume of the ideal tetrahedron they span; it is computed from the cross
ratio z as the sum of Lobachevsky values at the three dihedral angles

    Vol_3 = L(arg z) + L(arg 1/(1-z)) + L(arg (1-1/z)),

with sign convention sign(Im z) and value 0 for real z (flat simplex).
Since L is pi-periodic, each angle is taken modulo pi, as arctan(Im u / Re u)
of u = z, 1/(1-z) and (z-1)/z, so the kernel never shifts by the float pi.

One kernel evaluates the Lobachevsky function: `lobachevsky_batch`, a
zeta-accelerated expansion exact to machine precision.  Each scalar
function (`lobachevsky`, `vol3_from_cross_ratio`, `vol2`, `vol3`) is a
one-element call of its array form.  LobachevskyEvaluator, the truncated
Fourier series with an explicit tail bound, checks the kernel in the tests.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateTuple, MixedModels
from .hyperbolic import RealBoundaryPoint, boundary_to_chart, real_chordal_distance
from .projective import (EPS_DIST, ProjectivePoint, _cross_ratio_terms, _require_distinct_rows,
                         pair_chordal_distance)

# zeta(2n) for the accelerated expansion; exact powers of pi for the first
# three, rapidly converging direct sums beyond
_ZETA_EVEN = ([0.0, math.pi ** 2 / 6, math.pi ** 4 / 90, math.pi ** 6 / 945]
              + [float(np.sum(np.arange(1.0, 4097.0) ** (-2.0 * n))) for n in range(4, 44)])
# series coefficients, highest degree first for Horner's rule
_COEFF = [_ZETA_EVEN[n] / (n * (2 * n + 1)) for n in range(43, 0, -1)]


def lobachevsky(theta: float) -> float:
    """Lobachevsky function L(theta) = 1/2 sum sin(2 n theta)/n^2.

    Odd and pi-periodic: `lobachevsky_batch` after reduction mod pi.
    """
    return float(lobachevsky_batch(np.array([math.remainder(theta, math.pi)]))[0])


def lobachevsky_batch(theta: np.ndarray) -> np.ndarray:
    """Lobachevsky function over an array of angles with |theta| <= pi.

    Uses the expansion
    L(x) = x - x log|2x| + x sum_{n>=1} zeta(2n)/(n(2n+1)) (x/pi)^{2n},
    which converges geometrically for |x| <= pi/2.  The reduction to that
    range is an exact shift by +-pi (Sterbenz), and the series is summed by
    Horner's rule, so no power matrix is built.
    """
    x = np.asarray(theta, dtype=np.float64)
    if np.any(np.abs(x) > math.pi):
        raise ValueError("lobachevsky_batch needs |theta| <= pi")
    x = np.where(x > math.pi / 2, x - math.pi, np.where(x < -math.pi / 2, x + math.pi, x))
    r = (x / math.pi) ** 2
    series = np.zeros_like(r)
    for c in _COEFF:
        series = (series + c) * r
    # L(0) = 0: every term carries a factor x, so log(2) stands in for log(0)
    safe = np.where(x == 0.0, 1.0, x)
    return x - x * np.log(np.abs(2.0 * safe)) + x * series


class LobachevskyEvaluator:
    """Truncated-series evaluation with a guaranteed absolute error bound.

    The tail of 1/2 sum sin(2n theta)/n^2 beyond N is at most 1/(2N) in
    absolute value, which `tail_bound` records.
    """

    def __init__(self, truncation: int = 10 ** 6):
        if truncation < 1:
            raise ValueError("truncation must be positive")
        self.truncation = int(truncation)
        self.tail_bound = 0.5 / self.truncation
        n = np.arange(1, self.truncation + 1, dtype=np.float64)
        self._n = n
        self._inv_n2 = 1.0 / n ** 2

    def __call__(self, theta: float) -> float:
        return 0.5 * float(np.sin(2.0 * theta * self._n) @ self._inv_n2)


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
    return float(vol2_batch(np.array([[x.direction, y.direction, z.direction]]), tol)[0])


def vol2_batch(points: np.ndarray, tol: float = EPS_DIST) -> np.ndarray:
    """`vol2` over an (m, 3, 2) array of circle directions, one triple per row."""
    if points.shape[-1] != 2:
        raise MixedModels("vol2 expects points on the circle (dim 2)")
    _require_distinct_rows(points, real_chordal_distance, tol)
    turn = circle_orientation(*points.transpose(1, 2, 0))
    return np.where(turn > 0, math.pi, -math.pi)


def vol3_from_cross_ratio(z) -> float:
    """Ideal-tetrahedron volume as a function of the cross ratio."""
    return float(vol3_from_cross_ratio_batch(np.array([complex(z)]))[0])


def vol3_from_cross_ratio_batch(z: np.ndarray) -> np.ndarray:
    """`vol3_from_cross_ratio` over an array of finite cross ratios."""
    z = np.asarray(z, dtype=np.complex128)
    if not np.all(np.isfinite(z) & (z != 0) & (z != 1)):
        raise DegenerateTuple("cross ratio degenerated to 0, 1 or infinity")
    volume = np.zeros(z.shape)
    nonreal = z.imag != 0.0
    w = z[nonreal]
    # the three dihedral angles in one kernel call, so a single z costs one;
    # (w - 1) / w is 1 - 1/w without its cancellation near w = 1
    u = np.stack([w, 1.0 / (1.0 - w), (w - 1.0) / w])
    # L is pi-periodic, so L(arg u) = L(arctan(Im u / Re u)), an angle in
    # [-pi/2, pi/2]: no shift by the float pi, which is off by 1.2e-16 where
    # L has a log-singular slope
    with np.errstate(divide="ignore"):  # Re u = 0 gives arctan(+-inf) = +-pi/2
        angles = lobachevsky_batch(np.arctan(u.imag / u.real))
    volume[nonreal] = angles[0] + angles[1] + angles[2]
    return volume


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
    return float(vol3_batch(np.array([[p.coords for p in points]]), tol)[0])


def vol3_batch(points: np.ndarray, tol: float = EPS_DIST) -> np.ndarray:
    """`vol3` over an (m, 4, 2) array of ProjectivePoint coords in the P^1(C) chart."""
    _require_distinct_rows(points, pair_chordal_distance, tol)
    num, den = _cross_ratio_terms(*points.transpose(1, 2, 0))
    return vol3_from_cross_ratio_batch(num / den)


MAX_VOL3 = 3 * lobachevsky(math.pi / 3)  # volume of the regular ideal tetrahedron
