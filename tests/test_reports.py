import io
import json
import math

import numpy as np
import pytest

from boundarykit import (SamplerConfig, UnknownInvariant, compactness_probe,
                         emit_report, invariant_values, read_report_csv,
                         read_report_json, sample_tuples, sampling_stats)
from boundarykit.reports import ReportEnvelope, _write_report


def test_config_validation():
    with pytest.raises(ValueError):
        SamplerConfig(model="mystery")
    with pytest.raises(ValueError):
        SamplerConfig(model="S1", count=0)
    with pytest.raises(ValueError):
        SamplerConfig(model="S1", tolerance=0.0)
    with pytest.raises(ValueError):
        SamplerConfig(model="flags3", tuple_size=4)
    with pytest.raises(ValueError):
        SamplerConfig(model="Sn", dim=1)


def test_sample_is_deterministic():
    config = SamplerConfig(model="S1", tuple_size=3, count=50, seed=12)
    a = sample_tuples(config)
    b = sample_tuples(config)
    for ta, tb in zip(a, b):
        for pa, pb in zip(ta, tb):
            assert np.array_equal(pa.direction, pb.direction)


def test_sampled_tuples_are_generic():
    config = SamplerConfig(model="S1", tuple_size=3, count=200, seed=13,
                           tolerance=1e-6)
    for tup in sample_tuples(config):
        for i in range(3):
            for j in range(i + 1, 3):
                assert tup[i].chordal_distance(tup[j]) > 1e-6


def test_sample_models_materialize_correct_types():
    flags = sample_tuples(SamplerConfig(model="flags3", count=5, seed=1))
    assert all(len(t) == 3 for t in flags)
    cplx = sample_tuples(SamplerConfig(model="complex_hyperbolic", count=5,
                                       seed=1, dim=3))
    assert all(p.dim == 3 for t in cplx for p in t)
    spheres = sample_tuples(SamplerConfig(model="Sn", count=5, seed=1, dim=5,
                                          tuple_size=4))
    assert all(p.dim == 5 for t in spheres for p in t)


def test_flag_sampling_acceptance_rate():
    stats = sampling_stats(SamplerConfig(model="flags3", count=10_000, seed=2))
    assert stats["acceptance_rate"] >= 0.999


def test_sampler_budget_exhaustion():
    from boundarykit import SamplerExhausted
    config = SamplerConfig(model="S1", tuple_size=3, count=20, seed=14,
                           tolerance=1.99)  # nearly no triple is that spread out
    with pytest.raises(SamplerExhausted):
        sample_tuples(config)


def test_invariant_values_validation():
    with pytest.raises(UnknownInvariant):
        invariant_values(SamplerConfig(model="S1", count=5), "cartan")
    with pytest.raises(UnknownInvariant):
        invariant_values(SamplerConfig(model="flags3", count=5), "nonsense")


def test_probe_orientation_classes():
    env = compactness_probe("S1", "orientation_class",
                            SamplerConfig(model="S1", count=4000, seed=3))
    assert env.summary["classes_observed"] == [-1.0, 1.0]
    assert env.summary["verdict"] == "bounded-range"


def test_probe_cartan_bounded_range():
    env = compactness_probe("complex_hyperbolic", "cartan",
                            SamplerConfig(model="complex_hyperbolic",
                                          count=5000, seed=4))
    assert env.summary["verdict"] == "bounded-range"
    assert env.summary["min"] >= -math.pi / 2 - 1e-10
    assert env.summary["max"] <= math.pi / 2 + 1e-10


def test_probe_triple_ratio_escape():
    env = compactness_probe("flags3", "triple_ratio",
                            SamplerConfig(model="flags3", count=50_000, seed=5))
    assert env.summary["verdict"] == "escape-detected"
    assert env.summary["abs_max"] > 1e3
    assert env.summary["abs_min"] < 1e-3
    assert env.summary["escape_hi"] == 1e3
    assert env.summary["escape_lo"] == 1e-3


def test_envelope_has_seed_and_tolerances():
    env = compactness_probe("S1", "orientation_class",
                            SamplerConfig(model="S1", count=100, seed=6))
    assert env.seed == 6
    assert env.config["tolerance"] > 0
    payload = env.to_dict()
    assert set(payload) == {"command", "seed", "config", "results", "summary",
                            "version"}


def test_json_round_trip(tmp_path):
    env = compactness_probe("S1", "orientation_class",
                            SamplerConfig(model="S1", count=50, seed=7))
    path = tmp_path / "report.json"
    emit_report(env, "json", path)
    assert read_report_json(path) == env


def test_json_emission_is_byte_stable(tmp_path):
    env = compactness_probe("flags3", "triple_ratio",
                            SamplerConfig(model="flags3", count=500, seed=8))
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    emit_report(env, "json", p1)
    env2 = compactness_probe("flags3", "triple_ratio",
                             SamplerConfig(model="flags3", count=500, seed=8))
    emit_report(env2, "json", p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_csv_round_trip(tmp_path):
    env = compactness_probe("S1", "orientation_class",
                            SamplerConfig(model="S1", count=20, seed=9))
    path = tmp_path / "report.csv"
    emit_report(env, "csv", path)
    header, rows = read_report_csv(path)
    assert header == ["index", "value"]
    assert len(rows) == 20
    for row, result in zip(rows, env.results):
        assert int(row["index"]) == result["index"]
        assert float(row["value"]) == result["value"]


def test_csv_requires_rows(tmp_path):
    env = ReportEnvelope(command="x", seed=0, config={}, results=[], summary={})
    with pytest.raises(ValueError):
        emit_report(env, "csv", tmp_path / "empty.csv")
    with pytest.raises(ValueError):
        emit_report(env, "yaml", tmp_path / "bad.yaml")


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_json_refuses_non_finite_numbers(tmp_path, value):
    env = ReportEnvelope(command="x", seed=0, config={}, results=[{"value": 1.0}],
                         summary={"sup_abs": value})
    with pytest.raises(ValueError, match="not JSON compliant"):
        _write_report(env, "json", io.StringIO())
    with pytest.raises(ValueError, match="not JSON compliant"):
        emit_report(env, "json", tmp_path / "report.json")
