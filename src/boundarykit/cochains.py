"""Operator layer for cochains on boundary tuples.

A cochain wraps a pure evaluator over tuples of boundary points and,
optionally, model-space (hyperboloid) points.  Calling conventions:

* boundary-only cochain:   c(x0, x1, ...)
* model-only cochain:      c(m0, m1, ...)
* mixed cochain:           c((m0, ..., mp), (x0, ..., xq))

The homogeneous coboundary acts on the boundary slots; `model_coboundary`
is the same signed sum over the model slots.  `cone_homotopy` inserts the
barycenter of the first three boundary points as an extra model argument;
together they satisfy f = H(d f) + d(H f) pointwise.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ArityTooLarge, EvaluationError
from .hyperbolic import barycenter_ideal_triangle
from .projective import EPS_DIST

ALT_ARITY_GUARD = 6

_PERM_CACHE: dict[int, list[tuple[tuple[int, ...], int]]] = {}


def _parity(perm) -> int:
    inversions = sum(1 for i in range(len(perm)) for j in range(i + 1, len(perm))
                     if perm[i] > perm[j])
    return -1 if inversions % 2 else 1


def _signed_permutations(p: int):
    """All permutations of range(p) with their signs, cached."""
    if p not in _PERM_CACHE:
        _PERM_CACHE[p] = [(perm, _parity(perm))
                          for perm in itertools.permutations(range(p))]
    return _PERM_CACHE[p]


@dataclass(frozen=True)
class Cochain:
    """Arity-tagged real-valued function object on tuples of points."""

    arity: int
    evaluator: Callable[..., float]
    model_arity: int = 0
    alternating: bool = False
    batch: Callable[[np.ndarray], np.ndarray] | None = None  # (m, arity, k) coords -> m values

    def __post_init__(self):
        if self.arity < 0 or self.model_arity < 0:
            raise ValueError("arities must be nonnegative")

    def __call__(self, *args):
        return float(self.evaluator(*args))


def _eval(f: Cochain, models, boundary) -> float:
    """Dispatch a (models, boundary) pair onto f's calling convention."""
    if f.model_arity > 0 and f.arity > 0:
        return f(tuple(models), tuple(boundary))
    if f.model_arity > 0:
        return f(*models)
    if f.arity > 0:
        return f(*boundary)
    return f()


def coboundary(f: Cochain) -> Cochain:
    """Homogeneous coboundary on the boundary slots.

    (delta f)(x_0, ..., x_q) = sum_i (-1)^i f(..., x_i omitted, ...);
    satisfies delta(delta f) = 0 identically.
    """
    if f.arity < 1:
        raise ValueError("coboundary needs at least one boundary slot")

    def ev(*args):
        if f.model_arity > 0:
            models, boundary = args
        else:
            models, boundary = (), args
        total = 0.0
        for i in range(len(boundary)):
            omitted = boundary[:i] + boundary[i + 1:]
            total += (-1) ** i * _eval(f, models, omitted)
        return total

    batch = None
    if f.batch is not None and f.model_arity == 0:
        def batch(points):  # the same signed sum, over slices of the tuple axis
            return sum((-1) ** i * f.batch(np.delete(points, i, axis=1))
                       for i in range(points.shape[1]))

    return Cochain(arity=f.arity + 1, evaluator=ev, model_arity=f.model_arity, batch=batch)


def model_coboundary(f: Cochain) -> Cochain:
    """Homogeneous coboundary on the model-space slots."""

    def ev(*args):
        if f.arity > 0:
            models, boundary = args
        else:
            models, boundary = args, ()
        total = 0.0
        for i in range(len(models)):
            omitted = models[:i] + models[i + 1:]
            total += (-1) ** i * _eval(f, omitted, boundary)
        return total

    return Cochain(arity=f.arity, evaluator=ev, model_arity=f.model_arity + 1)


def alternate(f: Cochain) -> Cochain:
    """Signed symmetrization over the boundary slots.

    Alt(f) = sum_sigma sgn(sigma) f o sigma.  The output is alternating and
    Alt(Alt f) = p! Alt f, so Alt/p! is the projection onto alternating
    cochains.
    """
    if f.model_arity > 0:
        raise ValueError("alternation is defined for boundary-only cochains")
    p = f.arity
    if p > ALT_ARITY_GUARD:
        raise ArityTooLarge(f"arity {p} exceeds the guard {ALT_ARITY_GUARD}")
    perms = _signed_permutations(p)

    def ev(*points):
        return sum(sign * f.evaluator(*(points[i] for i in perm))
                   for perm, sign in perms)

    return Cochain(arity=p, evaluator=ev, alternating=True)


def alternating_projection(f: Cochain) -> Cochain:
    """Alt f / p!, the idempotent projection fixing alternating cochains."""
    alt = alternate(f)
    factorial = len(_signed_permutations(f.arity))

    def ev(*points):
        return alt.evaluator(*points) / factorial

    return Cochain(arity=f.arity, evaluator=ev, alternating=True)


def cone_homotopy(f: Cochain, boundary_points, tol: float = EPS_DIST) -> Cochain:
    """Barycentric cone operator at a fixed generic boundary tuple.

    (H f)(m_0, ..., m_{p-1}) = f((bar(b_1, b_2, b_3), m_0, ..., m_{p-1}), b)
    where b is the bound boundary tuple and bar the ideal-triangle
    barycenter of its first three points.  Raises DegenerateTuple when that
    triple is not generic.  Satisfies f = H(d f) + d(H f) with d the model
    coboundary.
    """
    if f.model_arity < 1:
        raise ValueError("cone homotopy needs at least one model slot")
    if f.arity < 3:
        raise ValueError("cone homotopy needs at least three boundary slots")
    boundary = tuple(boundary_points)
    if len(boundary) != f.arity:
        raise ValueError(f"expected {f.arity} boundary points, got {len(boundary)}")
    apex = barycenter_ideal_triangle(boundary[0], boundary[1], boundary[2], tol)

    def ev(*models):
        return _eval(f, (apex,) + models, boundary)

    return Cochain(arity=0, evaluator=ev, model_arity=f.model_arity - 1)


def alternation_spot_check(f: Cochain, tuples, tol: float = 1e-10) -> bool:
    """Check the declared-alternating invariant on sample tuples.

    For each tuple, a transposition must flip the value and a 3-cycle must
    preserve it, both within tol.
    """
    for points in tuples:
        points = tuple(points)
        value = f(*points)
        swapped = (points[1], points[0]) + points[2:]
        if abs(f(*swapped) + value) > tol:
            return False
        if len(points) >= 3:
            cycled = (points[1], points[2], points[0]) + points[3:]
            if abs(f(*cycled) - value) > tol:
                return False
    return True


@dataclass(frozen=True)
class DefectReport:
    """Empirical supremum of |delta f| over sampled generic tuples."""

    sup_abs: float
    samples: int
    argmax_tuple: tuple = field(repr=False)
    seed: int = 0


def empirical_sup_defect(f: Cochain, sampler, n: int, seed: int = 0) -> DefectReport:
    """Estimate sup |delta f| over n sampled generic tuples.

    `sampler(rng)` must return a tuple of f.arity + 1 points, or None for a
    rejected (non-generic) draw.  Deterministic for a fixed seed; raises
    SamplerExhausted when rejections push the total draw count past
    sampling.DRAW_BUDGET * n, and EvaluationError, naming the sample's
    index, at the first value of delta f that is NaN or infinite.  With
    f.batch and a batch sampler (one with `draw`, as `SphereTupleSampler`),
    the same tuples are handled as arrays.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    from .sampling import for_each_tuple, rejection_loop  # sampling imports this module

    def refuse(index, value):
        raise EvaluationError(f"coboundary value {value!r} at sample {index} is not finite")

    g = coboundary(f)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    if g.batch is not None and hasattr(sampler, "draw"):
        chunks = []

        def draw(m):
            normals, coords = sampler.draw(rng, m)
            chunks.append((normals, g.batch(coords)))
            return len(coords)

        rejection_loop(draw, n)
        normals, values = map(np.concatenate, zip(*chunks))
        finite = np.isfinite(values)
        if not finite.all():
            i = int(np.argmin(finite))
            refuse(i, float(values[i]))
        defect = np.abs(values)
        i = int(np.argmax(defect))  # the first maximum, as below
        return DefectReport(sup_abs=float(defect[i]), samples=n,
                            argmax_tuple=sampler.points(normals[i]), seed=seed)

    sup_abs = -1.0
    witness = None
    visited = 0

    def visit(candidate):
        nonlocal sup_abs, witness, visited
        value = g(*candidate)
        if not math.isfinite(value):
            refuse(visited, value)
        visited += 1
        if abs(value) > sup_abs:
            sup_abs = abs(value)
            witness = tuple(candidate)

    for_each_tuple(sampler, rng, n, visit)
    return DefectReport(sup_abs=sup_abs, samples=n, argmax_tuple=witness, seed=seed)
