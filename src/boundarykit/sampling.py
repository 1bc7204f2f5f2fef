"""Seeded samplers for boundary tuples, model points and test cochains.

A tuple sampler is a callable `sampler(rng) -> tuple | None`; None marks a
rejected (non-generic) draw.  The model samplers (TupleSampler: the real
sphere, with or without its P^1 chart, the complex ball and flags in R^3)
add `draw(rng, m)`, the accepted (rows, coords) of m candidates, and
`points(row)`.  `rejection_loop`, allowed DRAW_BUDGET draws per tuple, is
the one loop: `draw_batches` runs it over either kind of sampler, for
`verify-cocycle` and the bulk verbs alike.  `task_seed` splits a master
seed into independent per-task seeds, counter-based, so tasks stay
deterministic whatever order they run in.
"""

from __future__ import annotations

import math

import numpy as np

from . import flags as flags_mod
from .cochains import Cochain
from .errors import SamplerExhausted
from .flags import Flag3
from .hyperbolic import (ComplexBoundaryPoint, HyperbolicPoint,
                         RealBoundaryPoint, ball_lifts, boundary_to_chart, chart_coords,
                         complex_chordal_distance, lorentz_product,
                         real_chordal_distance)
from .projective import EPS_DIST, _distinct_rows as _mask_generic  # the name tests patch

DRAW_BUDGET = 100  # draws allowed per requested tuple before SamplerExhausted
ROW_BLOCK = 4096  # rows per block of the model samplers, bulk kernels and report writer


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


def draw_batches(sampler, rng, n: int):
    """(batches, points, draws): the accepted (rows, coords) of each draw for
    n tuples, `points(row)` and the number of candidates drawn.

    A TupleSampler draws with its own `draw` and `points`; a plain
    `sampler(rng)` with m calls, its rows the accepted tuples, with
    coordinates None, and `points` `tuple`.
    """
    if isinstance(sampler, TupleSampler):
        draw, points = sampler.draw, sampler.points
    else:
        def draw(rng, m):
            return [c for c in (sampler(rng) for _ in range(m)) if c is not None], None
        points = tuple
    batches = []

    def take(m):
        batches.append(draw(rng, m))
        return len(batches[-1][0])

    return batches, points, rejection_loop(take, n)


def draw_tuples(sampler, rng, n: int) -> list:
    """Collect n accepted tuples; raise SamplerExhausted past the budget."""
    batches, points, _ = draw_batches(sampler, rng, n)
    return [points(row) for rows, _ in batches for row in rows]


# ---------------------------------------------------------------------------
# point and tuple samplers


def unit_vector(rng, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_boundary_point(rng, dim: int) -> RealBoundaryPoint:
    return RealBoundaryPoint(unit_vector(rng, dim))


def random_complex_boundary_point(rng, n: int) -> ComplexBoundaryPoint:
    """One point of ComplexTupleSampler(n, 1): the same random numbers and lift."""
    return ComplexBoundaryPoint.from_ball_direction(rng.standard_normal(n)
                                                    + 1j * rng.standard_normal(n))


def random_hyperbolic_point(rng, dim: int, spread: float = 1.0) -> HyperbolicPoint:
    v = spread * rng.standard_normal(dim)
    return HyperbolicPoint(np.append(v, math.sqrt(1.0 + v @ v)))


def _blocks(n: int):
    """Slices of at most ROW_BLOCK consecutive rows, covering range(n) in order."""
    return (slice(start, min(start + ROW_BLOCK, n)) for start in range(0, n, ROW_BLOCK))


class TupleSampler:
    """Generic tuples of `size` points of one model in dimension `dim`.

    `sampler(rng)` draws one tuple of point objects, or None for a
    non-generic draw.  `draw(rng, m)` makes the random-number calls of m
    candidates, then block by block of ROW_BLOCK rows takes their
    coordinates and genericity mask from the model's `_coords(draws)`
    (coordinates None: the draws themselves).  It returns the accepted
    candidates' draws, moved forward in place, and their coordinates, the
    input of Cochain.batch and of the bulk kernels; `points(row)` rebuilds
    one tuple's point objects from its draws.
    """

    def __init__(self, dim: int, size: int, tol: float = EPS_DIST):
        self.dim, self.size, self.tol = dim, size, tol

    def __call__(self, rng):
        rows = self.draw(rng, 1)[0]
        return self.points(rows[0]) if len(rows) else None

    def draw(self, rng, m: int):
        rows = self._draws(rng, m)
        coords, n = None, 0
        for block in _blocks(m):
            c, keep = self._coords(rows[block])
            hits = int(np.count_nonzero(keep))
            if c is not None:
                if coords is None:
                    coords = np.empty((m, *c.shape[1:]), c.dtype)
                coords[n:n + hits] = c[keep]
            if hits < len(keep) or n < block.start:  # else the block is in place
                rows[n:n + hits] = rows[block][keep]
            n += hits
        rows = rows[:n]
        return rows, rows if coords is None else coords[:n]


class SphereTupleSampler(TupleSampler):
    """Points of the boundary sphere of H^dim, or with `chart` their P^1 chart
    images: the draws are Gaussian, (m, size, dim), the same random numbers
    as m calls `sampler(rng)`, and the coordinates the points' `direction`s
    or `coords`."""

    def __init__(self, dim: int, size: int, tol: float = EPS_DIST, chart: bool = False):
        super().__init__(dim, size, tol)
        self.chart = chart

    def points(self, normals) -> tuple:
        points = tuple(RealBoundaryPoint(v / np.linalg.norm(v)) for v in normals)
        return tuple(map(boundary_to_chart, points)) if self.chart else points

    def _draws(self, rng, m):
        return rng.standard_normal((m, self.size, self.dim))

    def _coords(self, normals):
        # normalized twice, as unit_vector and then RealBoundaryPoint do
        u = normals / np.sqrt(np.vecdot(normals, normals))[..., None]
        u = u / np.sqrt(np.vecdot(u, u))[..., None]
        keep = _mask_generic(u, self.tol, real_chordal_distance)
        return chart_coords(u) if self.chart else u, keep


class ComplexTupleSampler(TupleSampler):
    """Points of the boundary of H^dim_C, uniform on the sphere of the ball
    chart: the draws are the Gaussian real and imaginary parts, (m, 2, size,
    dim), and the coordinates the unit null lifts (w, 1)/sqrt(2)."""

    def points(self, row) -> tuple:
        return tuple(map(ComplexBoundaryPoint, ball_lifts(row[0] + 1j * row[1])))

    def _draws(self, rng, m):
        return np.moveaxis(rng.standard_normal((2, m, self.size, self.dim)), 0, 1)

    def _coords(self, draws):
        lifts = ball_lifts(draws[:, 0] + 1j * draws[:, 1])
        return lifts, _mask_generic(lifts, self.tol, complex_chordal_distance)


class FlagTupleSampler(TupleSampler):
    """Haar-random full flags in R^3: the draws, (m, 2, size, 3), are each
    tuple's unit lines and then its planes' unit covectors, and are the
    coordinates too."""

    def __init__(self, size: int, tol: float = EPS_DIST):
        super().__init__(3, size, tol)

    def points(self, row) -> tuple:
        return tuple(map(Flag3, *row))

    def _draws(self, rng, m):
        return _batch_flags(rng, m, self.size)

    def _coords(self, flags):
        return None, flags_mod.batch_is_generic(flags[:, 0], flags[:, 1], self.tol)


def _batch_flags(rng, m: int, size: int):
    """(m, 2, size, 3) lines and covectors of m tuples of Haar-random flags,
    a view of a (2, m, size, 3) array: all lines are one contiguous array."""
    flags = np.empty((2, m, size, 3))
    for i in range(size):
        flags[0, :, i], flags[1, :, i] = flags_mod.batch_random_flags(rng, m)
    return np.moveaxis(flags, 0, 1)


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
