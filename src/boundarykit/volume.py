"""Hyperbolic volume cocycles in dimensions 2 and 3.

Vol_2 is the orientation cocycle on the circle (values +-pi).  Vol_3 sends
four points of the boundary of H^3, read in the P^1(C) chart, to the signed
volume of the ideal tetrahedron they span; it is computed from the cross
ratio z as the sum of Lobachevsky values at the three dihedral angles

    Vol_3 = L(arg z) + L(arg 1/(1-z)) + L(arg (1-1/z)),

with sign convention sign(Im z) and value 0 for real z (flat simplex).

Two evaluation routes for the Lobachevsky function are provided: the
truncated Fourier series with an explicit tail bound (LobachevskyEvaluator)
and a fast zeta-accelerated expansion (`lobachevsky`) exact to machine
precision, which the volume functions use.  The two are cross-checked in
the test suite.  `lobachevsky_batch` and `vol3_from_cross_ratio_batch` run
the same expansion over arrays, for callers that evaluate whole grids.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import DegenerateTuple, MixedModels
from .hyperbolic import RealBoundaryPoint, boundary_to_chart
from .projective import (EPS_DIST, ProjectivePoint, _cross_ratio, _require_distinct,
                         is_infinite)

# zeta(2n) for the accelerated expansion; exact powers of pi for the first
# three, rapidly converging direct sums beyond
_ZETA_EVEN = [0.0, math.pi ** 2 / 6, math.pi ** 4 / 90, math.pi ** 6 / 945]
_k = np.arange(1.0, 4097.0)
for _n in range(4, 44):
    _ZETA_EVEN.append(float(np.sum(_k ** (-2.0 * _n))))
del _k, _n

_COEFF = np.array([_ZETA_EVEN[n] / (n * (2 * n + 1)) for n in range(1, 44)])


def lobachevsky(theta: float) -> float:
    """Lobachevsky function L(theta) = 1/2 sum sin(2 n theta)/n^2.

    Odd and pi-periodic.  Evaluated through the expansion
    L(x) = x - x log|2x| + x sum_{n>=1} zeta(2n)/(n(2n+1)) (x/pi)^{2n}
    after reduction to |x| <= pi/2, where it converges geometrically;
    absolute error is below 1e-14.
    """
    x = math.remainder(theta, math.pi)
    if x == 0.0:
        return 0.0
    r = (x / math.pi) ** 2
    powers = r ** np.arange(1, 44)
    return x - x * math.log(abs(2.0 * x)) + x * float(_COEFF @ powers)


def lobachevsky_batch(theta: np.ndarray) -> np.ndarray:
    """`lobachevsky` over an array of angles with |theta| <= pi.

    The reduction to |x| <= pi/2 is an exact shift by +-pi (Sterbenz), and
    the series is summed by Horner's rule, so no power matrix is built.
    """
    x = np.asarray(theta, dtype=np.float64)
    if np.any(np.abs(x) > math.pi):
        raise ValueError("lobachevsky_batch needs |theta| <= pi")
    x = np.where(x > math.pi / 2, x - math.pi, np.where(x < -math.pi / 2, x + math.pi, x))
    r = (x / math.pi) ** 2
    series = np.zeros_like(r)
    for c in _COEFF[::-1]:
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
    for p in (x, y, z):
        if p.dim != 2:
            raise MixedModels("vol2 expects points on the circle (dim 2)")
    _require_distinct((x, y, z), tol)
    turn = circle_orientation(x.direction, y.direction, z.direction)
    return math.pi if turn > 0 else -math.pi


def vol3_from_cross_ratio(z) -> float:
    """Ideal-tetrahedron volume as a function of the cross ratio."""
    if is_infinite(z) or z == 0 or z == 1:
        raise DegenerateTuple("cross ratio degenerated to 0, 1 or infinity")
    z = complex(z)
    if z.imag == 0.0:
        return 0.0
    return (lobachevsky(cmath.phase(z))
            + lobachevsky(cmath.phase(1.0 / (1.0 - z)))
            + lobachevsky(cmath.phase(1.0 - 1.0 / z)))


def vol3_from_cross_ratio_batch(z: np.ndarray) -> np.ndarray:
    """`vol3_from_cross_ratio` over an array of finite cross ratios."""
    z = np.asarray(z, dtype=np.complex128)
    if not np.all(np.isfinite(z) & (z != 0) & (z != 1)):
        raise DegenerateTuple("cross ratio degenerated to 0, 1 or infinity")
    volume = np.zeros(z.shape)
    nonreal = z.imag != 0.0
    w = z[nonreal]
    volume[nonreal] = (lobachevsky_batch(np.angle(w))
                       + lobachevsky_batch(np.angle(1.0 / (1.0 - w)))
                       + lobachevsky_batch(np.angle(1.0 - 1.0 / w)))
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
    _require_distinct(points, tol)
    return vol3_from_cross_ratio(_cross_ratio(*points))


MAX_VOL3 = 3 * lobachevsky(math.pi / 3)  # volume of the regular ideal tetrahedron
