"""The shared rejection loop and the three samplers that run through it."""

import numpy as np
import pytest

from boundarykit import (Cochain, SamplerConfig, SamplerExhausted,
                         empirical_sup_defect, sampling, sampling_stats)
from boundarykit.sampling import (ROW_BLOCK, ComplexTupleSampler, FlagTupleSampler,
                                  SphereTupleSampler, draw_tuples, rejection_loop, task_seed)

N = 7


class EveryOther:
    """Tuple sampler that accepts draws 1, 3, 5, ... and counts its calls."""

    def __init__(self):
        self.calls = 0

    def __call__(self, rng):
        self.calls += 1
        return (float(self.calls), 0.5) if self.calls % 2 else None


def test_loop_never_asks_for_more_than_still_needed():
    drawn = accepted = 0

    def draw(m):  # accepts the draws with an even index
        nonlocal drawn, accepted
        assert m <= N - accepted
        hits = sum(1 for i in range(drawn, drawn + m) if i % 2 == 0)
        drawn += m
        accepted += hits
        return hits

    assert rejection_loop(draw, N) == 2 * N - 1
    assert accepted == N


def test_draw_tuples_stops_at_the_nth_acceptance():
    sampler = EveryOther()
    tuples = draw_tuples(sampler, np.random.default_rng(0), N)
    assert len(tuples) == N
    assert sampler.calls == 2 * N - 1


def test_sup_defect_stops_at_the_nth_acceptance():
    sampler = EveryOther()
    f = Cochain(arity=1, evaluator=lambda x: x)
    report = empirical_sup_defect(f, sampler, N, seed=3)
    assert sampler.calls == 2 * N - 1
    assert report.samples == N
    assert report.sup_abs == 2 * N - 1.5  # |0.5 - (2N - 1)|, the last draw
    assert report.argmax_tuple == (2 * N - 1.0, 0.5)


def test_sampling_stats_stops_at_the_nth_acceptance(monkeypatch):
    seen = 0

    def mask(batch, tol, distance):  # accepts the draws with an even index
        nonlocal seen
        index = seen + np.arange(batch.shape[0])
        seen += batch.shape[0]
        return index % 2 == 0

    monkeypatch.setattr(sampling, "_mask_generic", mask)
    stats = sampling_stats(SamplerConfig(model="S1", count=N, seed=3))
    assert stats["draws"] == 2 * N - 1
    assert stats["accepted"] == N


def test_all_three_exhaust_alike_at_the_budget(monkeypatch):
    expected = f"{100 * N} draws produced only 0/{N} generic tuples"
    calls = []

    def rejecting(rng):
        calls.append(1)
        return None

    with pytest.raises(SamplerExhausted) as per_tuple:
        draw_tuples(rejecting, np.random.default_rng(0), N)
    assert len(calls) == 100 * N
    with pytest.raises(SamplerExhausted) as defect:
        empirical_sup_defect(Cochain(arity=1, evaluator=lambda x: x),
                             rejecting, N, seed=3)
    assert len(calls) == 200 * N
    monkeypatch.setattr(sampling, "_mask_generic",
                        lambda batch, tol, distance: np.zeros(batch.shape[0], dtype=bool))
    with pytest.raises(SamplerExhausted) as batch:
        sampling_stats(SamplerConfig(model="S1", count=N, seed=3))
    assert {str(e.value) for e in (per_tuple, defect, batch)} == {expected}


@pytest.mark.parametrize("sampler", [
    SphereTupleSampler(2, 3, 0.5), SphereTupleSampler(3, 4, 0.3, chart=True),
    ComplexTupleSampler(2, 3, 0.5), FlagTupleSampler(3, 0.2)],
    ids=["sphere", "chart", "complex", "flags"])
def test_draw_keeps_the_accepted_rows_of_every_block_in_order(sampler):
    m = 2 * ROW_BLOCK + 5
    rows, coords = sampler.draw(np.random.default_rng(4), m)
    draws = sampler._draws(np.random.default_rng(4), m)  # the same candidates, whole
    all_coords, keep = sampler._coords(draws)
    assert 0 < len(rows) < m
    assert np.array_equal(rows, draws[keep])
    assert np.array_equal(coords, draws[keep] if all_coords is None else all_coords[keep])


def test_task_seeds_are_pinned():
    # verify-cocycle draws its two checks from these; they must not move
    assert task_seed(7, 0) == 1201125462
    assert task_seed(7, 1) == 3618983171
