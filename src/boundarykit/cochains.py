"""Operator layer for cochains on boundary tuples.

A cochain wraps a pure evaluator over tuples of boundary points and,
optionally, model-space (hyperboloid) points.  Calling conventions:

* boundary-only cochain:   c(x0, x1, ...)
* model-only cochain:      c(m0, m1, ...)
* mixed cochain:           c((m0, ..., mp), (x0, ..., xq))

The homogeneous coboundary acts on the boundary slots; `model_coboundary`
is the same signed sum over the model slots.  `cone_homotopy` inserts the
barycenter of the first three boundary points as an extra model argument;
together they satisfy f = H(d f) + d(H f) pointwise.  `empirical_sup_defect`
measures |delta f| on tuples drawn by `sampling.draw_batches`.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ArityTooLarge, EvaluationError
from .hyperbolic import barycenter_ideal_triangle
from .projective import EPS_DIST

ALT_ARITY_GUARD = 6


def _parity(perm) -> int:
    inversions = sum(1 for i in range(len(perm)) for j in range(i + 1, len(perm))
                     if perm[i] > perm[j])
    return -1 if inversions % 2 else 1


@functools.cache
def _signed_permutations(p: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """All permutations of range(p) with their signs, cached."""
    return tuple((perm, _parity(perm)) for perm in itertools.permutations(range(p)))


@dataclass(frozen=True)
class Cochain:
    """Arity-tagged real-valued function object on tuples of points."""

    arity: int
    evaluator: Callable[..., float]
    model_arity: int = 0
    # (m, n, k) coordinates of m tuples, (F, arity) columns of F faces -> (F, m) values
    batch: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if self.arity < 0 or self.model_arity < 0:
            raise ValueError("arities must be nonnegative")

    def __call__(self, *args):
        return float(self.evaluator(*args))


def _eval(f: Cochain, models, boundary) -> float:
    """Dispatch a (models, boundary) pair onto f's calling convention."""
    if f.model_arity > 0 and f.arity > 0:
        return f(tuple(models), tuple(boundary))
    return f(*models, *boundary)  # the unused part is empty


def _evaluator(ev: Callable, model_arity: int, arity: int) -> Callable[..., float]:
    """The inverse of `_eval`: ev(models, boundary) in the calling convention
    of a cochain with these arities."""
    if model_arity > 0 and arity > 0:
        return ev
    if model_arity > 0:
        return lambda *models: ev(models, ())
    return lambda *boundary: ev((), boundary)


def coboundary(f: Cochain) -> Cochain:
    """Homogeneous coboundary on the boundary slots.

    (delta f)(x_0, ..., x_q) = sum_i (-1)^i f(..., x_i omitted, ...);
    satisfies delta(delta f) = 0 identically.
    """
    if f.arity < 1:
        raise ValueError("coboundary needs at least one boundary slot")

    def ev(models, boundary):  # a loop: from Python 3.12, sum() compensates float sums
        total = 0.0
        for i in range(len(boundary)):
            total += (-1) ** i * _eval(f, models, boundary[:i] + boundary[i + 1:])
        return total

    batch = None
    if f.batch is not None and f.model_arity == 0:
        def batch(points, faces):  # the same signed sum, one call on all sub-faces
            q = faces.shape[1]
            sub = faces[:, [[k for k in range(q) if k != i] for i in range(q)]]
            values = f.batch(points, sub.reshape(-1, q - 1)).reshape(len(faces), q, len(points))
            return sum((-1) ** i * values[:, i] for i in range(q))

    return Cochain(arity=f.arity + 1, evaluator=_evaluator(ev, f.model_arity, f.arity + 1),
                   model_arity=f.model_arity, batch=batch)


def model_coboundary(f: Cochain) -> Cochain:
    """Homogeneous coboundary on the model-space slots."""

    def ev(models, boundary):  # a loop, as in `coboundary`
        total = 0.0
        for i in range(len(models)):
            total += (-1) ** i * _eval(f, models[:i] + models[i + 1:], boundary)
        return total

    return Cochain(arity=f.arity, evaluator=_evaluator(ev, f.model_arity + 1, f.arity),
                   model_arity=f.model_arity + 1)


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

    def ev(*points):  # a loop, as in `coboundary`
        total = 0.0
        for perm, sign in perms:
            total += sign * f.evaluator(*(points[i] for i in perm))
        return total

    return Cochain(arity=p, evaluator=ev)


def alternating_projection(f: Cochain) -> Cochain:
    """Alt f / p!, the idempotent projection fixing alternating cochains."""
    alt = alternate(f)
    factorial = len(_signed_permutations(f.arity))

    def ev(*points):
        return alt.evaluator(*points) / factorial

    return Cochain(arity=f.arity, evaluator=ev)


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

    For each tuple of p points, (0 1) must flip the value and the p-cycle,
    which with it generates S_p, multiply it by (-1)^(p-1), both within tol.
    """
    for points in tuples:
        points = tuple(points)
        value = f(*points)
        swapped = (points[1], points[0]) + points[2:]
        if abs(f(*swapped) + value) > tol:
            return False
        if len(points) >= 3:
            cycled = points[1:] + points[:1]
            if abs(f(*cycled) - (-1) ** (len(points) - 1) * value) > tol:
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
    rejected (non-generic) draw.  With f.batch and a sampler that gives
    coordinates (a `TupleSampler`), delta f is evaluated on arrays, else
    tuple by tuple; the witness is the first maximizing tuple.  Deterministic
    for a fixed seed; raises SamplerExhausted past sampling.DRAW_BUDGET * n
    draws, and EvaluationError, naming the sample's index, at the first
    value of delta f that is NaN or infinite.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    from .sampling import draw_batches  # sampling imports this module

    g = coboundary(f)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    batches, points, _ = draw_batches(sampler, rng, n)
    if g.batch is not None and batches[0][1] is not None:
        whole = np.arange(g.arity)[None]  # the one face of the whole tuple
        values = np.concatenate([g.batch(coords, whole)[0] for _, coords in batches])
    else:
        values = np.array([g(*points(row)) for rows, _ in batches for row in rows])
    bad = ~np.isfinite(values)
    if bad.any():
        i = int(np.argmax(bad))
        raise EvaluationError(f"coboundary value {float(values[i])!r} at sample {i} is not finite")
    i = int(np.argmax(np.abs(values)))  # the first maximum
    sup_abs = abs(float(values[i]))
    for rows, _ in batches:  # the witness's batch, by offset
        if i < len(rows):
            break
        i -= len(rows)
    return DefectReport(sup_abs=sup_abs, samples=n, argmax_tuple=points(rows[i]), seed=seed)
