"""The benchmark's tracer (perfbench/tracing.py) finds every function and
method it wraps, so a renamed or removed target fails here instead of
leaving its per-layer counters at 0."""

import importlib.util
import pathlib

import numpy as np

import boundarykit.cli  # noqa: F401  (loads every module the tracer patches)
from boundarykit import flags, reports, sampling

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_every_target_and_restores_them():
    original = flags.batch_random_flags
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        assert flags.batch_random_flags is not original
        # the sampler reaches the flag sampler through the module attribute
        sampling._batch_flags(np.random.default_rng(0), 5, 3)
    finally:
        tracer.uninstall()
    assert flags.batch_random_flags is original
    calls, _, elements = tracer.stats["flags.batch_random_flags"]
    assert (calls, elements) == (3, 15)


def test_the_bulk_kernels_are_reached_through_their_traced_names():
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        flag_config = reports.SamplerConfig(model="flags3", count=50, seed=4)
        reports.invariant_values(flag_config, "triple_ratio")
        complex_config = reports.SamplerConfig(model="complex_hyperbolic", count=50, seed=4,
                                               dim=3)
        reports.invariant_values(complex_config, "cartan")
    finally:
        tracer.uninstall()
    # the mask sees every candidate row, as many as the sampler draws
    draws = reports.sampling_stats(flag_config)["draws"]
    expected = {"flags.batch_is_generic": draws, "flags.batch_triple_ratio": 50,
                "hyperbolic.cartan_invariant_batch": 50}
    for name, rows in expected.items():
        calls, _, elements = tracer.stats[name]
        assert calls > 0 and elements == rows, name
