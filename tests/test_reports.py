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
from boundarykit import reports
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


@pytest.mark.parametrize("model", ["S1", "flags3"])
def test_a_model_without_a_dimension_refuses_any_but_dim_2(model):
    assert SamplerConfig(model=model).echo()["dim"] == 2
    for dim in (1, 3, 7):
        with pytest.raises(ValueError, match="no dimension to choose"):
            SamplerConfig(model=model, dim=dim)


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


def probe_envelope(name, config):
    """The probe-config-space report of `compactness_probe`'s results and summary."""
    return ReportEnvelope("probe-config-space", config.seed,
                          {**config.echo(), "invariant": name},
                          *compactness_probe(name, config))


def test_probe_orientation_classes():
    env = probe_envelope("orientation_class",
                         SamplerConfig(model="S1", count=4000, seed=3))
    assert env.summary["classes_observed"] == [-1.0, 1.0]
    assert env.summary["verdict"] == "bounded-range"


def test_probe_cartan_bounded_range():
    env = probe_envelope("cartan",
                         SamplerConfig(model="complex_hyperbolic",
                                       count=5000, seed=4))
    assert env.summary["verdict"] == "bounded-range"
    assert env.summary["min"] >= -math.pi / 2 - 1e-10
    assert env.summary["max"] <= math.pi / 2 + 1e-10


def test_probe_triple_ratio_escape():
    env = probe_envelope("triple_ratio",
                         SamplerConfig(model="flags3", count=50_000, seed=5))
    assert env.summary["verdict"] == "escape-detected"
    assert env.summary["abs_max"] > 1e3
    assert env.summary["abs_min"] < 1e-3
    assert env.summary["escape_hi"] == 1e3
    assert env.summary["escape_lo"] == 1e-3


def test_the_triple_ratio_probe_makes_only_its_log_histogram(monkeypatch):
    config = SamplerConfig(model="flags3", count=2000, seed=5)
    values = invariant_values(config, "triple_ratio")
    calls = []
    histogram = reports.histogram_summary
    monkeypatch.setattr(reports, "histogram_summary",
                        lambda v, *args: calls.append(v) or histogram(v, *args))
    env = probe_envelope("triple_ratio", config)
    assert len(calls) == 1
    assert env.summary["histogram"] == histogram(np.log10(np.abs(values)))
    assert env.summary["histogram_scale"] == "log10(|T|)"
    # the invariant report histograms the values themselves
    assert summarize_invariant("triple_ratio", values)[1]["histogram"] == histogram(values)


def test_envelope_has_seed_and_tolerances():
    env = probe_envelope("orientation_class",
                         SamplerConfig(model="S1", count=100, seed=6))
    assert env.seed == 6
    assert env.config["tolerance"] > 0
    payload = env.to_dict()
    assert set(payload) == {"command", "seed", "config", "results", "summary",
                            "version"}


def test_json_round_trip(tmp_path):
    env = probe_envelope("orientation_class",
                         SamplerConfig(model="S1", count=50, seed=7))
    path = tmp_path / "report.json"
    emit_report(env, "json", path)
    assert read_report_json(path) == env


def test_json_emission_is_byte_stable(tmp_path):
    env = probe_envelope("triple_ratio",
                         SamplerConfig(model="flags3", count=500, seed=8))
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    emit_report(env, "json", p1)
    env2 = probe_envelope("triple_ratio",
                          SamplerConfig(model="flags3", count=500, seed=8))
    emit_report(env2, "json", p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_csv_round_trip(tmp_path):
    env = probe_envelope("orientation_class",
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
    # a list of row dicts is written as its columns
    ReportEnvelope(command="certify-bound", seed=1, config={"delta": 0.1},
                   results=[{"function": "pole", "refused": True,
                             "reason": "doubling defect 1.2e+06 at point (0.9+0.01j)"}],
                   summary={"refused": True, "reason": "r"}),
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


@pytest.mark.parametrize("env", [e for e in ORACLE_ENVELOPES if e.results])
def test_csv_writer_equals_dictwriter(env):
    stream = io.StringIO()
    _write_report(env, "csv", stream)
    assert stream.getvalue() == dictwriter_csv(list(env.results))


DIFFERING_KEYS = ReportEnvelope(
    command="x", seed=2, config={}, summary={},
    results=[{"a": 1, "b": [1, 2]}, {"c": None}, {"a": -0.0, "d": {"e": "é"}}])


def assert_refused_before_writing(env, format, tmp_path, error, match):
    stream = io.StringIO()
    with pytest.raises(error, match=match):
        _write_report(env, format, stream)
    assert stream.getvalue() == ""
    with pytest.raises(error, match=match):
        emit_report(env, format, tmp_path / f"r.{format}")
    assert list(tmp_path.iterdir()) == []  # neither the report nor its .tmp file


def test_csv_refuses_rows_with_keys_beyond_the_header(tmp_path):
    with pytest.raises(ValueError, match="not in fieldnames"):
        dictwriter_csv(list(DIFFERING_KEYS.results))
    assert_refused_before_writing(DIFFERING_KEYS, "csv", tmp_path, ValueError,
                                  "not in fieldnames")


def test_json_refuses_rows_with_differing_keys_or_nested_cells(tmp_path):
    assert_refused_before_writing(DIFFERING_KEYS, "json", tmp_path, ValueError,
                                  "not in fieldnames")
    nested = ReportEnvelope(command="x", seed=2, config={}, summary={},
                            results=[{"a": 1, "b": [1, 2]}, {"a": 2, "b": None}])
    assert_refused_before_writing(nested, "json", tmp_path, TypeError, "JSON scalars only")


@pytest.mark.parametrize("format", ["json", "csv"])
def test_both_formats_refuse_list_and_dict_cells(tmp_path, format):
    nested = ReportEnvelope(command="x", seed=2, config={}, summary={},
                            results=[{"a": 1, "b": [1, 2]}, {"a": 2, "b": {"c": None}}])
    assert_refused_before_writing(nested, format, tmp_path, TypeError, "JSON scalars only")


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
    assert [row["line"] for row in results] == [";".join(map(repr, f.line.tolist())) for f in flags]
    assert [row["plane"] for row in results] == [";".join(map(repr, f.plane.tolist())) for f in flags]


@pytest.mark.parametrize("model, dim", [("S1", 2), ("Sn", 3), ("Sn", 4),
                                        ("complex_hyperbolic", 2), ("complex_hyperbolic", 3)])
def test_sample_cells_are_the_point_objects_bit_for_bit(model, dim):
    config = SamplerConfig(model=model, count=3000, seed=dim, dim=dim)
    columns = sample_columns(config)[0].columns
    if model == "complex_hyperbolic":
        column, points = columns["lift"], [p.lift for t in sample_tuples(config) for p in t]
    else:
        column, points = columns["coords"], [p.direction for t in sample_tuples(config) for p in t]
    assert column.tobytes() == np.array(points).tobytes()


# draws of 2,000-tuple samples, as recorded before the bulk sampler moved into
# `sampling`; each tolerance forces rejections, so a change to the random
# stream or to the accepted set shows here
MODEL_DRAWS = [
    ("S1", 2, 3, 0.5, 1, 3448), ("S1", 2, 3, 0.5, 2, 3539),
    ("Sn", 3, 3, 0.5, 1, 2442), ("Sn", 3, 3, 0.5, 2, 2409),
    ("Sn", 4, 2, 0.9, 1, 2319), ("Sn", 4, 2, 0.9, 2, 2363),
    ("complex_hyperbolic", 2, 3, 0.5, 1, 2906), ("complex_hyperbolic", 2, 3, 0.5, 2, 2859),
    ("complex_hyperbolic", 3, 3, 0.5, 1, 2271), ("complex_hyperbolic", 3, 3, 0.5, 2, 2276),
    ("flags3", 2, 3, 0.2, 1, 12018), ("flags3", 2, 2, 0.2, 2, 3006),
]


@pytest.mark.parametrize("model, dim, size, tol, seed, draws", MODEL_DRAWS)
def test_every_model_draws_as_before(model, dim, size, tol, seed, draws):
    config = SamplerConfig(model=model, tuple_size=size, count=2000, seed=seed, dim=dim,
                           tolerance=tol)
    stats = sampling_stats(config)
    assert (stats["draws"], stats["accepted"]) == (draws, 2000)


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


def point_rows(config):
    """`sample` rows as written before vector columns: each point's ;-joined reprs."""
    def join(v, scalar=float):
        return ";".join(repr(scalar(x)) for x in v)

    rows = []
    for t, tup in enumerate(sample_tuples(config)):
        for i, p in enumerate(tup):
            row = {"tuple_index": t, "point_index": i}
            if config.model == "flags3":
                row.update(line=join(p.line), plane=join(p.plane))
            elif config.model == "complex_hyperbolic":
                row["lift"] = join(p.lift, complex)
            else:
                row["coords"] = join(p.direction)
            rows.append(row)
    return rows


@pytest.mark.parametrize("model, dim, size, tol", [
    ("S1", 2, 3, 0.5), ("Sn", 4, 2, 1e-9), ("complex_hyperbolic", 3, 3, 0.5),
    ("complex_hyperbolic", 2, 2, 1e-9), ("flags3", 2, 3, 0.05), ("flags3", 2, 2, 1e-9)])
def test_sample_bytes_equal_the_per_point_join(model, dim, size, tol):
    config = SamplerConfig(model=model, tuple_size=size, count=1500, seed=6, dim=dim,
                           tolerance=tol)
    results, stats = sample_columns(config)
    env = ReportEnvelope(command="sample", seed=6, config=config.echo(), results=results,
                         summary={"tuples": config.count, **stats})
    rows = point_rows(config)
    stream = io.StringIO()
    _write_report(env, "json", stream)
    assert stream.getvalue() == json.dumps({**vars(env), "results": rows}, sort_keys=True,
                                           indent=2) + "\n"
    expected = io.StringIO()
    writer = csv.DictWriter(expected, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    stream = io.StringIO()
    _write_report(env, "csv", stream)
    assert stream.getvalue() == expected.getvalue()
