"""Seeded samplers for boundary tuples, model points and test cochains.

A tuple sampler is a callable `sampler(rng) -> tuple | None`; None marks a
rejected (non-generic) draw.  A batch sampler (SphereTupleSampler) adds
`draw(rng, m)`, the accepted (rows, coords) of m candidates, and
`points(row)`; `batch_sampler` gives any sampler that form, so
`rejection_loop`, allowed DRAW_BUDGET draws per tuple, is the one loop:
`draw_batches` runs it over `draw`, as the bulk sampler in `reports` does.
`task_seed` splits a master seed into independent per-task seeds,
counter-based, so tasks stay deterministic whatever order they run in.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .cochains import Cochain
from .errors import SamplerExhausted
from .hyperbolic import (ComplexBoundaryPoint, HyperbolicPoint,
                         RealBoundaryPoint, boundary_to_chart, chart_coords,
                         lorentz_product, real_chordal_distance)
from .projective import EPS_DIST

DRAW_BUDGET = 100  # draws allowed per requested tuple before SamplerExhausted


def task_seed(master: int, index: int) -> int:
    """Counter-based substream seed for task `index` under a master seed."""
    return int(np.random.SeedSequence(master, spawn_key=(index,)).generate_state(1)[0])


def rejection_loop(draw, n: int) -> int:
    """Call draw(m) until n candidates are accepted; return the draw count.

    `draw(m)` draws m candidates and returns how many it accepted.  m is
    at most the number still needed, so the loop stops at the n-th
    acceptance, and at most the rest of the budget of DRAW_BUDGET * n
    draws; SamplerExhausted is raised once that budget is spent.
    """
    budget = DRAW_BUDGET * n
    draws = accepted = 0
    while accepted < n:
        m = min(n - accepted, budget - draws)
        if m <= 0:
            raise SamplerExhausted(
                f"{draws} draws produced only {accepted}/{n} generic tuples")
        accepted += draw(m)
        draws += m
    return draws


def batch_sampler(sampler):
    """(draw, points): a SphereTupleSampler's own, or for a plain `sampler(rng)`
    a `draw(rng, m)` that makes m calls and returns the accepted tuples as its
    rows, with coordinates None, and `tuple`.
    """
    if isinstance(sampler, SphereTupleSampler):
        return sampler.draw, sampler.points

    def draw(rng, m):
        return [c for c in (sampler(rng) for _ in range(m)) if c is not None], None

    return draw, tuple


def draw_batches(sampler, rng, n: int):
    """(batches, points): the accepted (rows, coords) of each `draw` for n tuples."""
    draw, points = batch_sampler(sampler)
    batches = []

    def take(m):
        batches.append(draw(rng, m))
        return len(batches[-1][0])

    rejection_loop(take, n)
    return batches, points


def draw_tuples(sampler, rng, n: int) -> list:
    """Collect n accepted tuples; raise SamplerExhausted past the budget."""
    batches, points = draw_batches(sampler, rng, n)
    return [points(row) for rows, _ in batches for row in rows]


# ---------------------------------------------------------------------------
# point and tuple samplers


def unit_vector(rng, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_boundary_point(rng, dim: int) -> RealBoundaryPoint:
    return RealBoundaryPoint(unit_vector(rng, dim))


def random_complex_boundary_point(rng, n: int) -> ComplexBoundaryPoint:
    w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return ComplexBoundaryPoint.from_ball_direction(w / np.linalg.norm(w))


def random_hyperbolic_point(rng, dim: int, spread: float = 1.0) -> HyperbolicPoint:
    v = spread * rng.standard_normal(dim)
    return HyperbolicPoint(np.append(v, math.sqrt(1.0 + v @ v)))


class SphereTupleSampler:
    """Tuples of `size` pairwise-distinct points on the boundary sphere of H^dim.

    `sampler(rng)` draws one tuple of RealBoundaryPoint, or with `chart` of
    their P^1(C) chart images, or None for a non-generic draw.  `draw(rng, m)`
    draws m candidates with the same random numbers as m such calls and
    returns the accepted ones' Gaussian draws, (m', size, dim), and their
    points' `direction`s or `coords`, the input of Cochain.batch; `points`
    rebuilds one tuple's point objects from its draws.
    """

    def __init__(self, dim: int, size: int, tol: float = EPS_DIST, chart: bool = False):
        self.dim, self.size, self.tol, self.chart = dim, size, tol, chart

    def __call__(self, rng):
        normals = self.draw(rng, 1)[0]
        return self.points(normals[0]) if len(normals) else None

    def points(self, normals) -> tuple:
        points = tuple(RealBoundaryPoint(v / np.linalg.norm(v)) for v in normals)
        return tuple(map(boundary_to_chart, points)) if self.chart else points

    def draw(self, rng, m: int):
        normals = rng.standard_normal((m, self.size, self.dim))
        # normalized twice, as unit_vector and then RealBoundaryPoint do
        u = normals / np.sqrt(np.vecdot(normals, normals))[..., None]
        u = u / np.sqrt(np.vecdot(u, u))[..., None]
        keep = _mask_generic(u, self.tol, real_chordal_distance)
        return normals[keep], chart_coords(u[keep]) if self.chart else u[keep]


def _mask_generic(batch, tol, distance):
    """Rows of (m, size, k) `batch` whose points are pairwise > tol apart."""
    m = np.ones(batch.shape[0], dtype=bool)
    for i, j in itertools.combinations(range(batch.shape[1]), 2):
        m &= distance(batch[:, i], batch[:, j]) > tol
    return m


def circle_tuple_sampler(size: int, tol: float = EPS_DIST) -> SphereTupleSampler:
    return SphereTupleSampler(2, size, tol)


def chart_tuple_sampler(size: int, tol: float = EPS_DIST) -> SphereTupleSampler:
    """Tuples of P^1(C) points drawn uniformly on S^2 through the chart."""
    return SphereTupleSampler(3, size, tol, chart=True)


# ---------------------------------------------------------------------------
# random test cochains


def random_smooth_cochain(arity: int, rng, dim: int = 2) -> Cochain:
    """Smooth boundary cochain: random combination of pairwise-dot features."""
    pairs = [(i, j) for i in range(arity) for j in range(i + 1, arity)]
    weights = rng.standard_normal(len(pairs))
    scales = rng.uniform(0.5, 1.5, len(pairs))
    anchors = [unit_vector(rng, dim) for _ in range(arity)]
    linear = rng.standard_normal(arity)

    def ev(*points):
        total = 0.0
        for w, s, (i, j) in zip(weights, scales, pairs):
            total += w * math.exp(s * float(points[i].direction @ points[j].direction))
        for c, anchor, p in zip(linear, anchors, points):
            total += c * float(anchor @ p.direction)
        return total

    return Cochain(arity=arity, evaluator=ev)


def coordinate_cochain(index: int = 0) -> Cochain:
    """f(x) = coordinate `index` of the single boundary argument."""
    return Cochain(arity=1, evaluator=lambda p: float(p.direction[index]))


def random_mixed_cochain(model_arity: int, boundary_arity: int, rng,
                         invariant: bool = False) -> Cochain:
    """Smooth cochain with model and boundary slots.

    Built from radial-basis terms in the pairwise hyperbolic distances of
    the model points and from model-boundary Lorentz pairings.  With
    `invariant=True` only isometry-invariant features (distances and pairing
    ratios) are used, so the cochain is invariant under the ambient group.
    The features work in every dimension.
    """
    mm_pairs = [(i, j) for i in range(model_arity) for j in range(i + 1, model_arity)]
    mm_w = rng.standard_normal(len(mm_pairs))
    mm_s = rng.uniform(0.2, 0.8, len(mm_pairs))
    mb_pairs = [(i, k) for i in range(model_arity) for k in range(boundary_arity)]
    mb_w = rng.standard_normal(len(mb_pairs))
    mb_s = rng.uniform(0.2, 0.8, len(mb_pairs))
    ratio_w = rng.standard_normal(boundary_arity)

    def ev(models, boundary):
        total = 0.0
        for w, s, (i, j) in zip(mm_w, mm_s, mm_pairs):
            total += w * math.exp(-s * models[i].distance(models[j]))
        if invariant:
            if model_arity >= 2:
                for w, k in zip(ratio_w, range(boundary_arity)):
                    lift = boundary[k].lift()
                    r = (lorentz_product(models[0].lift, lift)
                         / lorentz_product(models[1].lift, lift))
                    total += w * math.log(r)
        else:
            for w, s, (i, k) in zip(mb_w, mb_s, mb_pairs):
                pairing = -lorentz_product(models[i].lift, boundary[k].lift())
                total += w * math.exp(-s * pairing)
        return total

    if model_arity > 0 and boundary_arity > 0:
        evaluator = ev
    elif model_arity > 0:
        evaluator = lambda *models: ev(models, ())
    else:
        evaluator = lambda *boundary: ev((), boundary)
    return Cochain(arity=boundary_arity, evaluator=evaluator,
                   model_arity=model_arity)
