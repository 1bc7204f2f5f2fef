import argparse
import csv
import io
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import boundarykit
from boundarykit import reports, sampling_stats
from boundarykit.certifier import DEFAULT_DELTA
from boundarykit.cli import build_parser, main
from boundarykit.projective import EPS_DIST

COMMON = ["--seed", "11"]


def run_to_file(tmp_path, name, argv):
    out = tmp_path / name
    code = main(argv + ["--out", str(out)])
    return code, out


def test_sample_command_writes_report(tmp_path):
    code, out = run_to_file(tmp_path, "s.json",
                            ["sample", "--model", "S1", "--count", "20"] + COMMON)
    assert code == 0
    data = json.loads(out.read_text())
    assert data["command"] == "sample"
    assert data["seed"] == 11
    assert data["summary"]["tuples"] == 20
    assert len(data["results"]) == 60  # three points per tuple


def test_sample_csv_format(tmp_path):
    code, out = run_to_file(tmp_path, "s.csv",
                            ["sample", "--model", "flags3", "--count", "5",
                             "--format", "csv"] + COMMON)
    assert code == 0
    header = out.read_text().splitlines()[0]
    assert header == "tuple_index,point_index,line,plane"


def test_invariant_command_defaults_per_model(tmp_path):
    code, out = run_to_file(tmp_path, "i.json",
                            ["invariant", "--model", "complex_hyperbolic",
                             "--count", "50"] + COMMON)
    assert code == 0
    data = json.loads(out.read_text())
    assert data["config"]["invariant"] == "cartan"
    assert len(data["results"]) == 50


def test_verify_cocycle_passes(tmp_path):
    code, out = run_to_file(tmp_path, "v.json",
                            ["verify-cocycle", "--count", "100"] + COMMON)
    assert code == 0
    data = json.loads(out.read_text())
    assert data["summary"]["all_passed"] is True
    checks = {row["check"] for row in data["results"]}
    assert checks == {"vol2_coboundary", "vol3_coboundary"}


def test_verify_cocycle_fails_on_impossible_tolerance(tmp_path):
    code, _ = run_to_file(tmp_path, "v.json",
                          ["verify-cocycle", "--count", "100",
                           "--tol", "1e-30"] + COMMON)
    assert code == 1


def test_certify_bound_vol3_slice(tmp_path):
    code, out = run_to_file(tmp_path, "c.json",
                            ["certify-bound", "--function", "vol3-slice",
                             "--grid", "2000"] + COMMON)
    assert code == 0
    data = json.loads(out.read_text())
    cert = data["summary"]["certificate"]
    assert cert["certified_bound"] > 0
    assert cert["provenance"] == {"B_defect": "empirical", "M_base": "empirical",
                                  "M_near2": "empirical"}
    assert cert["region"]["kind"] == "complex_sector"


def test_certify_bound_pole_refused(tmp_path):
    code, out = run_to_file(tmp_path, "p.json",
                            ["certify-bound", "--function", "pole",
                             "--field", "real", "--grid", "2000"] + COMMON)
    assert code == 1
    data = json.loads(out.read_text())
    assert data["summary"]["refused"] is True


@pytest.mark.parametrize("field, scalar", [("real", float), ("complex", complex)])
def test_refusal_names_the_point_as_a_plain_repr(tmp_path, field, scalar):
    code, out = run_to_file(tmp_path, "p.json",
                            ["certify-bound", "--function", "pole",
                             "--field", field, "--grid", "2000"] + COMMON)
    assert code == 1
    reason = json.loads(out.read_text())["summary"]["reason"]
    assert "np.float64" not in reason
    point = reason.split(" at point ")[1].split(" exceeds ")[0]
    assert repr(scalar(point)) == point


def test_sample_runs_the_sampler_once(tmp_path, monkeypatch):
    runs = []
    batches = reports._accepted_batches

    def counted(config, *args):
        runs.append(config)
        return batches(config, *args)

    monkeypatch.setattr(reports, "_accepted_batches", counted)
    code, out = run_to_file(tmp_path, "s.json",
                            ["sample", "--model", "flags3", "--count", "50"] + COMMON)
    assert code == 0
    assert len(runs) == 1
    summary = json.loads(out.read_text())["summary"]
    assert summary == {"tuples": 50, **sampling_stats(runs[0])}


def test_invariant_and_probe_share_rows_and_summary(tmp_path):
    argv = ["--model", "complex_hyperbolic", "--count", "300"] + COMMON
    _, inv = run_to_file(tmp_path, "i.json", ["invariant"] + argv)
    _, probe = run_to_file(tmp_path, "p.json", ["probe-config-space"] + argv)
    inv, probe = json.loads(inv.read_text()), json.loads(probe.read_text())
    assert inv["results"] == probe["results"]
    assert inv["summary"] == {key: probe["summary"][key] for key in inv["summary"]}


def test_probe_command(tmp_path):
    code, out = run_to_file(tmp_path, "pr.json",
                            ["probe-config-space", "--model", "flags3",
                             "--count", "20000"] + COMMON)
    assert code == 0
    data = json.loads(out.read_text())
    assert data["summary"]["verdict"] == "escape-detected"


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sample", "--model", "not-a-model"])
    assert exc.value.code == 2


def test_config_error_exit_code(tmp_path):
    code = main(["sample", "--model", "flags3", "--size", "5",
                 "--out", str(tmp_path / "x.json")] + COMMON)
    assert code == 2


@pytest.mark.parametrize("field", ["real", "complex"])
def test_certify_bound_on_an_empty_grid_is_a_config_error(tmp_path, field):
    out = tmp_path / "x.json"
    code = main(["certify-bound", "--function", "const", "--field", field,
                 "--grid", "0", "--out", str(out)] + COMMON)
    assert code == 2
    assert not out.exists()


def test_model_without_default_invariant_is_a_config_error(tmp_path):
    code = main(["invariant", "--model", "Sn", "--n", "4", "--count", "5",
                 "--out", str(tmp_path / "x.json")] + COMMON)
    assert code == 2


@pytest.mark.parametrize("model", ["S1", "flags3"])
def test_n_on_a_model_without_a_dimension_is_a_config_error(tmp_path, capsys, model):
    out = tmp_path / "s.json"
    code = main(["sample", "--model", model, "--n", "7", "--count", "5",
                 "--out", str(out)] + COMMON)
    assert code == 2
    assert not out.exists()
    assert "no dimension to choose" in capsys.readouterr().err


@pytest.mark.parametrize("model", reports.MODELS)
def test_the_cli_and_the_library_resolve_one_default_dim(tmp_path, model):
    code, out = run_to_file(tmp_path, "s.json",
                            ["sample", "--model", model, "--count", "5"] + COMMON)
    assert code == 0
    dim = json.loads(out.read_text())["config"]["dim"]
    assert dim == reports.SamplerConfig(model=model).echo()["dim"]
    assert dim == (3 if model == "complex_hyperbolic" else 2)


def test_a_bad_env_seed_is_a_config_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("BOUNDARYKIT_SEED", "x")
    out = tmp_path / "s.json"
    assert main(["sample", "--count", "5", "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err.startswith("config error: ")


def test_the_parser_is_built_once(tmp_path, monkeypatch):
    from boundarykit import cli

    def rebuilt():
        raise AssertionError("build_parser ran again")

    monkeypatch.setattr(cli, "build_parser", rebuilt)
    code, out = run_to_file(tmp_path, "v.json", ["verify-cocycle", "--count", "50"] + COMMON)
    assert code == 0
    assert json.loads(out.read_text()) == {
        "command": "verify-cocycle", "config": {"count": 50, "tolerance": 1e-07},
        "results": [{"check": "vol2_coboundary", "passed": True, "samples": 50,
                     "sup_abs": 0.0, "tolerance": 1e-07},
                    {"check": "vol3_coboundary", "passed": True, "samples": 50,
                     "sup_abs": 9.992007221626409e-16, "tolerance": 1e-07}],
        "seed": 11,
        "summary": {"all_passed": True, "max_sup_abs": 9.992007221626409e-16,
                    "tolerance": 1e-07},
        "version": boundarykit.__version__}
    code, out = run_to_file(tmp_path, "c.json", ["certify-bound", "--function", "const",
                                                 "--grid", "100"] + COMMON)
    assert code == 0
    data = json.loads(out.read_text())
    assert data["config"] == {"delta": 0.1, "field": "complex", "function": "const",
                              "grid": 100}
    assert data["results"] == [{
        "B_defect": 1.0, "C": 3.0, "M_base": 1.0, "M_near2": 1.0, "certified_bound": 7.0,
        "delta": 0.1, "field": "complex", "function": "const", "k_max": 34,
        "kind": "complex_sector", "provenance_B_defect": "empirical",
        "provenance_M_base": "empirical", "provenance_M_near2": "empirical"}]


def test_env_var_supplies_default_seed(tmp_path, monkeypatch):
    monkeypatch.setenv("BOUNDARYKIT_SEED", "11")
    code, via_env = run_to_file(tmp_path, "env.json",
                                ["sample", "--model", "S1", "--count", "10"])
    assert code == 0
    monkeypatch.delenv("BOUNDARYKIT_SEED")
    _, via_flag = run_to_file(tmp_path, "flag.json",
                              ["sample", "--model", "S1", "--count", "10",
                               "--seed", "11"])
    assert via_env.read_bytes() == via_flag.read_bytes()


@pytest.mark.parametrize("argv", [
    ["sample", "--model", "Sn", "--n", "4", "--count", "30"],
    ["invariant", "--model", "flags3", "--count", "200"],
    ["verify-cocycle", "--count", "60"],
    ["certify-bound", "--function", "bump", "--field", "real", "--grid", "1500"],
    ["probe-config-space", "--model", "complex_hyperbolic", "--count", "300"],
])
def test_every_subcommand_is_byte_deterministic(tmp_path, argv):
    _, first = run_to_file(tmp_path, "first.out", argv + COMMON)
    _, second = run_to_file(tmp_path, "second.out", argv + COMMON)
    assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_stdout_report_matches_the_file_report(tmp_path, capsys, fmt):
    argv = ["sample", "--model", "S1", "--count", "2", "--format", fmt] + COMMON
    _, out = run_to_file(tmp_path, f"s.{fmt}", argv)
    capsys.readouterr()
    assert main(argv) == 0
    assert capsys.readouterr().out.encode("utf-8") == out.read_bytes()


# the CSV column order of the row-list reports, as README "Report formats" gives it
VERIFY_COLUMNS = ["check", "samples", "sup_abs", "tolerance", "passed"]
CERTIFICATE_COLUMNS = ["function", "field", "kind", "delta", "certified_bound", "C", "k_max",
                       "B_defect", "M_base", "M_near2", "provenance_B_defect",
                       "provenance_M_base", "provenance_M_near2"]
REFUSAL_COLUMNS = ["function", "refused", "reason"]


@pytest.mark.parametrize("argv, code, columns", [
    (["verify-cocycle", "--count", "300"], 0, VERIFY_COLUMNS),
    (["verify-cocycle", "--count", "300", "--tol", "1e-30"], 1, VERIFY_COLUMNS),
    (["certify-bound", "--function", "bump", "--field", "real", "--grid", "1500"], 0,
     CERTIFICATE_COLUMNS),
    (["certify-bound", "--function", "vol3-slice", "--grid", "1500"], 0, CERTIFICATE_COLUMNS),
    (["certify-bound", "--function", "pole", "--field", "complex", "--grid", "1500"], 1,
     REFUSAL_COLUMNS),
], ids=["verify-passed", "verify-failed", "bump-real", "vol3-slice-complex", "pole-refused"])
def test_row_list_reports_are_the_bytes_of_json_dump_and_dictwriter(tmp_path, argv, code,
                                                                    columns):
    assert run_to_file(tmp_path, "r.json", argv + COMMON)[0] == code
    data = json.loads((tmp_path / "r.json").read_text(encoding="utf-8"))
    buffer = io.StringIO()
    json.dump(data, buffer, sort_keys=True, indent=2)
    assert (tmp_path / "r.json").read_bytes() == (buffer.getvalue() + "\n").encode("utf-8")
    assert run_to_file(tmp_path, "r.csv", argv + COMMON + ["--format", "csv"])[0] == code
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=columns, lineterminator="\n")
    writer.writeheader()
    writer.writerows(data["results"])
    assert (tmp_path / "r.csv").read_bytes() == buffer.getvalue().encode("utf-8")


@pytest.mark.parametrize("field", ["real", "complex"])
def test_certify_bound_default_delta_is_the_library_default(tmp_path, field):
    code, out = run_to_file(tmp_path, "c.json",
                            ["certify-bound", "--function", "const", "--field", field,
                             "--grid", "100"] + COMMON)
    assert code == 0
    assert json.loads(out.read_text())["config"]["delta"] == DEFAULT_DELTA[field]


def verb_parser(verb):
    """The argparse parser of one subcommand."""
    actions = build_parser()._actions
    return next(a for a in actions if isinstance(a, argparse._SubParsersAction)).choices[verb]


def test_cli_defaults_and_choices_are_the_library_values():
    for verb in ("sample", "invariant", "probe-config-space"):
        parser = verb_parser(verb)
        assert tuple(parser._option_string_actions["--model"].choices) == reports.MODELS
        assert parser.get_default("tol") == EPS_DIST
    probe = verb_parser("probe-config-space")
    assert probe.get_default("escape_hi") == reports.ESCAPE_HI_DEFAULT
    assert probe.get_default("escape_lo") == reports.ESCAPE_LO_DEFAULT
    assert reports.SamplerConfig(model="S1").tolerance == EPS_DIST


def test_certify_bound_takes_no_count():
    with pytest.raises(SystemExit) as exc:
        main(["certify-bound", "--count", "5"])
    assert exc.value.code == 2


def test_certify_bound_takes_no_tol(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["certify-bound", "--tol", "1e-3"])
    assert exc.value.code == 2
    code, out = run_to_file(tmp_path, "c.json", ["certify-bound", "--function", "const",
                                                 "--grid", "100"] + COMMON)
    assert code == 0
    assert sorted(json.loads(out.read_text())["config"]) == ["delta", "field", "function", "grid"]


def test_a_closed_stdout_pipe_ends_without_a_traceback():
    # the report (about 0.5 MB) outgrows the pipe buffer, so the CLI is still
    # writing when the reader closes its end, as `| head -1` does
    src = str(pathlib.Path(boundarykit.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.Popen(
        [sys.executable, "-m", "boundarykit.cli", "sample", "--model", "S1",
         "--count", "2000", "--seed", "1"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    stderr = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert stderr == ""


@pytest.mark.parametrize("where", ["row", "summary"])
def test_a_non_finite_report_is_refused_and_leaves_no_file(tmp_path, monkeypatch, capsys,
                                                           where):
    from boundarykit import cli

    def summarize_with_nan(name, values):
        values = values.copy()
        summary = {"count": len(values)}
        if where == "row":
            values[5_000] = np.nan
        else:
            summary["max"] = np.inf
        return reports.ResultColumns({"index": range(len(values)), "value": values}), summary

    monkeypatch.setattr(cli, "summarize_invariant", summarize_with_nan)
    out = tmp_path / "i.json"
    code = main(["invariant", "--model", "complex_hyperbolic", "--count", "10000",
                 "--out", str(out)] + COMMON)
    assert code == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("refused: ") and "not JSON compliant" in err


def test_a_non_finite_invariant_value_is_refused(tmp_path, monkeypatch, capsys):
    from boundarykit import cli

    def values_with_nan(config, name):
        values = np.linspace(-1.0, 1.0, config.count)
        values[5_000] = np.nan
        return values

    monkeypatch.setattr(cli, "invariant_values", values_with_nan)
    out = tmp_path / "i.json"
    code = main(["invariant", "--model", "complex_hyperbolic", "--count", "10000",
                 "--out", str(out)] + COMMON)
    assert code == 1
    assert not out.exists()
    assert capsys.readouterr().err == "refused: cartan value nan at index 5000 is not finite\n"
