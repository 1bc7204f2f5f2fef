import csv
import io
import json
import math
import subprocess
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest

from boundarykit import (ResultColumns, SamplerConfig, UnencodableReport,
                         UnknownInvariant, compactness_probe, emit_report,
                         invariant_values, read_report_csv, read_report_json,
                         sample_tuples, sampling_stats)
from boundarykit.reports import (ReportEnvelope, _write_report, sample_columns,
                                summarize_invariant)


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


def json_oracle(env):
    buffer = io.StringIO()
    json.dump(env.to_dict(), buffer, sort_keys=True, indent=2, allow_nan=False)
    return buffer.getvalue() + "\n"


ODD_STRINGS = ["plain", "é ∞ 𝔽", 'say "hi"', "back\\slash", "tab\tnew\nline", "", "%s %%"]

ORACLE_ENVELOPES = [
    # columns of every scalar kind, arrays among them
    ReportEnvelope(command="x", seed=3, config={"tolerance": 1e-9, "name": "é"},
                   results=ResultColumns({
                       "index": range(7),
                       "count": np.arange(7) * 10 ** 12,
                       "value": np.array([-0.0, 5e-324, 1e308, 0.1, -2.5, 1.0, 3e-7]),
                       "label": ODD_STRINGS,
                       "passed": [True, False, True, True, False, False, True],
                       "mixed": [None, 1, 2.5, "s", True, 0.5, -0.0],
                       "zé \"%d\"": [0.0] * 7}),
                   summary={"nested": {"histogram": {"counts": [1, 2], "edges": [0.0, 0.5]},
                                       "none": None, "flag": False},
                            "empty": [], "deep": [[{"a": []}]]}),
    ReportEnvelope(command="x", seed=0, config={}, results=ResultColumns({}),
                   summary={"count": 0}),
    ReportEnvelope(command="x", seed=0, config={},
                   results=ResultColumns({"only": [1.5]}), summary={}),
    # refusal rows and rows with differing key sets take the row path
    ReportEnvelope(command="certify-bound", seed=1, config={"delta": 0.1},
                   results=[{"function": "pole", "refused": True,
                             "reason": "doubling defect 1.2e+06 at point (0.9+0.01j)"}],
                   summary={"refused": True, "reason": "r"}),
    ReportEnvelope(command="x", seed=2, config={},
                   results=[{"a": 1, "b": [1, 2]}, {"c": None}, {"a": -0.0, "d": {"e": "é"}}],
                   summary={}),
]


@pytest.mark.parametrize("env", ORACLE_ENVELOPES)
def test_writer_equals_json_dump(env, tmp_path):
    stream = io.StringIO()
    _write_report(env, "json", stream)
    assert stream.getvalue() == json_oracle(env)
    emit_report(env, "json", tmp_path / "r.json")
    assert (tmp_path / "r.json").read_text(encoding="utf-8") == json_oracle(env)
    assert read_report_json(tmp_path / "r.json") == env


def dictwriter_csv(rows):
    """CSV as written row by row with csv.DictWriter, floats by repr."""
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: repr(v) if isinstance(v, float) else v for k, v in row.items()})
    return buffer.getvalue()


@pytest.mark.parametrize("env", [e for e in ORACLE_ENVELOPES if e.results][:-1])
def test_csv_writer_equals_dictwriter(env):
    stream = io.StringIO()
    _write_report(env, "csv", stream)
    assert stream.getvalue() == dictwriter_csv(list(env.results))


def test_csv_refuses_rows_with_keys_beyond_the_header(tmp_path):
    env = ORACLE_ENVELOPES[-1]
    with pytest.raises(ValueError, match="not in fieldnames"):
        dictwriter_csv(list(env.results))
    with pytest.raises(ValueError, match="not in fieldnames"):
        emit_report(env, "csv", tmp_path / "r.csv")
    assert not (tmp_path / "r.csv").exists()


def test_numpy_scalars_in_list_columns_are_written_as_python_numbers():
    env = ReportEnvelope(command="x", seed=0, config={}, summary={},
                         results=ResultColumns({"a": [np.float64(0.5), 2]}))
    stream = io.StringIO()
    _write_report(env, "json", stream)
    assert stream.getvalue() == json_oracle(env)
    stream = io.StringIO()
    _write_report(env, "csv", stream)
    assert stream.getvalue() == "a\n0.5\n2\n"


def test_result_columns_read_as_rows():
    values = np.array([0.5, -1.25, 3.0])
    results = ResultColumns({"index": range(3), "value": values})
    assert len(results) == 3
    assert results[1] == {"index": 1, "value": -1.25}
    assert type(results[1]["value"]) is float
    assert results == [{"index": i, "value": float(v)} for i, v in enumerate(values)]
    assert results != [{"index": 0, "value": 0.5}]
    with pytest.raises(IndexError):
        results[3]
    with pytest.raises(ValueError):
        ResultColumns({"a": [1, 2], "b": [1]})


@pytest.mark.parametrize("where", ["column", "summary"])
def test_a_refused_report_leaves_no_file(tmp_path, where):
    values = np.linspace(0.0, 1.0, 10_000)
    summary = {"count": 10_000}
    if where == "column":
        values[5_000] = math.nan
    else:
        summary["max"] = math.inf
    env = ReportEnvelope(command="x", seed=0, config={}, summary=summary,
                         results=ResultColumns({"index": range(10_000), "value": values}))
    path = tmp_path / "report.json"
    with pytest.raises(UnencodableReport, match="not JSON compliant"):
        emit_report(env, "json", path)
    assert not path.exists()
    stream = io.StringIO()
    with pytest.raises(UnencodableReport):
        _write_report(env, "json", stream)
    assert stream.getvalue() == ""


@pytest.mark.parametrize("seed", [1, 2, 77])
@pytest.mark.parametrize("size", [2, 3])
def test_batch_sample_cells_equal_the_flag3_path(seed, size):
    config = SamplerConfig(model="flags3", tuple_size=size, count=1500, seed=seed)
    results, _ = sample_columns(config)
    flags = [flag for tup in sample_tuples(config) for flag in tup]
    assert results.columns["line"] == [";".join(map(repr, f.line.tolist())) for f in flags]
    assert results.columns["plane"] == [";".join(map(repr, f.plane.tolist())) for f in flags]


def test_a_non_finite_invariant_is_refused_at_its_index():
    values = np.linspace(-1.0, 1.0, 10_000)
    values[5_000] = math.nan
    values[7_000] = math.inf
    with pytest.raises(UnencodableReport, match="nan at index 5000 is not finite"):
        summarize_invariant("cartan", values)


def test_a_write_that_fails_part_way_leaves_no_file(tmp_path):
    # RLIMIT_FSIZE is set in the child only: its writes past 100,000 bytes fail
    child = textwrap.dedent("""
        import resource, sys
        import numpy as np
        from boundarykit.reports import ReportEnvelope, ResultColumns, emit_report
        resource.setrlimit(resource.RLIMIT_FSIZE, (100_000, 100_000))
        values = np.linspace(0.0, 1.0, 20_000)
        env = ReportEnvelope(command="x", seed=0, config={}, summary={},
                             results=ResultColumns({"index": range(20_000), "value": values}))
        try:
            emit_report(env, sys.argv[2], sys.argv[1])
        except OSError as exc:
            print(exc.errno)
    """)
    for fmt in ("json", "csv"):
        target = tmp_path / f"report.{fmt}"
        done = subprocess.run([sys.executable, "-c", child, str(target), fmt],
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "27"  # EFBIG: File too large
        assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("results", [
    ResultColumns({"note": ["fine", "carriage\rreturn"]}),
    ResultColumns({"a\rb": [1, 2]}),
    [{"note": "fine"}, {"note": "carriage\rreturn"}],
])
def test_csv_refuses_a_carriage_return(tmp_path, results):
    # written unquoted with "\n" line ends, a reader would take it for a line end
    env = ReportEnvelope(command="x", seed=0, config={}, results=results, summary={})
    with pytest.raises(UnencodableReport, match="carriage return"):
        emit_report(env, "csv", tmp_path / "r.csv")
    assert list(tmp_path.iterdir()) == []
    stream = io.StringIO()
    with pytest.raises(UnencodableReport, match="carriage return"):
        _write_report(env, "csv", stream)
    assert stream.getvalue() == ""
    emit_report(env, "json", tmp_path / "r.json")  # JSON escapes it
    assert read_report_json(tmp_path / "r.json").results == list(results)


# ---------------------------------------------------------------------------
# the working set of a bulk report does not grow with its rows


def traced_peak_mb(fn):
    """Peak traced allocation of fn() in MB; numpy arrays are traced too."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def test_emitting_a_100k_row_report_stays_below_4_mb(tmp_path):
    values = np.random.default_rng(3).uniform(-1.5, 1.5, 100_000)
    results, summary = summarize_invariant("cartan", values)
    env = ReportEnvelope(command="invariant", seed=3, config={}, results=results,
                         summary=summary)
    # the text alone is 7 MB
    assert traced_peak_mb(lambda: emit_report(env, "json", tmp_path / "r.json")) < 4.0
    assert (tmp_path / "r.json").stat().st_size > 6_000_000


def test_sampling_100k_complex_triples_stays_below_40_mb():
    config = SamplerConfig(model="complex_hyperbolic", count=100_000, seed=3, dim=3)
    # the two Gaussian draws take 14.4 MB and the accepted lifts 19.2 MB
    assert traced_peak_mb(lambda: invariant_values(config, "cartan")) < 40.0
