"""Command-line front end: exit codes, file contracts, determinism."""
import csv
import json
import math

import numpy as np
import pytest
from dataclasses import replace

from diracbvp import cli, eigensolver, integrator, inverse, weyl
from diracbvp.errors import ConfigError, MissingRootError
from diracbvp.model import PotentialSpec, config_to_dict, save_config

from conftest import reference_config, run_python


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "config.json"
    save_config(reference_config(grid_points=1024), path)
    return path


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# eigs
# ---------------------------------------------------------------------------

def test_eigs_writes_manifest_table_and_dataset(tmp_path, config_path):
    out = tmp_path / "out"
    assert cli.main(["eigs", "--config", str(config_path),
                     "--n-min", "-2", "--n-max", "2", "--out", str(out)]) == 0
    manifest = read_json(out / "manifest.json")
    assert manifest["command"] == "eigs"
    assert manifest["parameters"]["n_min"] == -2
    rows = read_csv(out / "eigs.csv")
    assert rows[0] == ["n", "lambda", "alpha", "beta", "delta_dot",
                       "seed", "seed_gap"]
    assert len(rows) == 6
    data = eigensolver.SpectralDataSet.load(out / "spectral_data.json")
    assert len(data) == 5
    assert float(rows[3][1]) == data.by_index(0).lambda_n


def test_eigs_runs_are_byte_identical(tmp_path, config_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert cli.main(["eigs", "--config", str(config_path),
                         "--n-min", "-1", "--n-max", "1",
                         "--out", str(out)]) == 0
    assert (out1 / "eigs.csv").read_bytes() == (out2 / "eigs.csv").read_bytes()


def test_eigs_rejects_reversed_range(tmp_path, config_path):
    assert cli.main(["eigs", "--config", str(config_path),
                     "--n-min", "3", "--n-max", "1",
                     "--out", str(tmp_path / "o")]) == cli.EXIT_USAGE


def test_eigs_partial_results_on_missing_roots(tmp_path, config_path,
                                               monkeypatch):
    real = eigensolver.find_eigenvalues

    def flaky(config, n_min, n_max):
        partial = real(config, 0, 1)
        raise MissingRootError([n_max], partial=partial)

    monkeypatch.setattr(cli.eigensolver, "find_eigenvalues", flaky)
    out = tmp_path / "out"
    code = cli.main(["eigs", "--config", str(config_path),
                     "--n-min", "0", "--n-max", "9", "--out", str(out)])
    assert code == cli.EXIT_PARTIAL
    assert (out / "manifest.json").exists()     # manifest precedes the failure
    assert len(read_csv(out / "eigs.csv")) == 3  # header + the recovered rows


def test_eigs_with_no_certified_root_writes_only_the_manifest(tmp_path, monkeypatch,
                                                             capsys):
    # one scan step per window at one level certifies no root count
    monkeypatch.setattr(eigensolver, "_SCAN_STEPS", 1)
    monkeypatch.setattr(eigensolver, "_SCAN_LEVELS", 1)
    path = tmp_path / "config.json"
    save_config(reference_config(1.0, 256), path)
    out = tmp_path / "out"
    code = cli.main(["eigs", "--config", str(path),
                     "--n-min", "-3", "--n-max", "3", "--out", str(out)])
    assert code == cli.EXIT_PARTIAL
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]
    assert "[-3, -2, -1, 0, 1, 2, 3]" in capsys.readouterr().err


def test_missing_config_file_is_io_error(tmp_path):
    assert cli.main(["eigs", "--config", str(tmp_path / "nope.json"),
                     "--n-min", "0", "--n-max", "1",
                     "--out", str(tmp_path / "o")]) == cli.EXIT_IO


def test_malformed_config_is_io_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["eigs", "--config", str(bad), "--n-min", "0",
                     "--n-max", "1", "--out", str(tmp_path / "o")]) == cli.EXIT_IO


@pytest.mark.parametrize("flag", ["--config", "--data", "--inverse-config"])
def test_a_file_that_is_not_utf8_is_io_error(tmp_path, flag):
    argv = _invert_argv(tmp_path, _DATA_DOC, _INVERSE_DOC)
    path = argv[argv.index(flag) + 1]
    with open(path, "wb") as fh:
        fh.write(b"\xff\xfe{}")
    proc = run_python("-m", "diracbvp.cli", *argv)
    assert proc.returncode == cli.EXIT_IO, proc.stderr
    assert proc.stderr.startswith("diracbvp: ") and proc.stderr.count("\n") == 1, proc.stderr
    assert "UTF-8" in proc.stderr


def test_unknown_command_is_usage_error(capsys):
    assert cli.main(["frobnicate"]) == cli.EXIT_USAGE


def _eigs_on_document(tmp_path, doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return cli.main(["eigs", "--config", str(path), "--n-min", "0",
                     "--n-max", "1", "--out", str(tmp_path / "o")])


def test_config_with_nonpositive_k1_is_io_error(tmp_path):
    doc = config_to_dict(reference_config())
    doc["boundary"]["b2"] = 1.0     # k1 = b1 b4 - b2 b3 = -1
    assert _eigs_on_document(tmp_path, doc) == cli.EXIT_IO


def test_config_without_boundary_is_io_error(tmp_path):
    doc = config_to_dict(reference_config())
    del doc["boundary"]
    assert _eigs_on_document(tmp_path, doc) == cli.EXIT_IO


@pytest.mark.parametrize("section, key, value", [
    ("boundary", "b1", "many"), ("weight", "alpha", "many"), (None, "grid_points", "many"),
    # json reads NaN and Infinity as floats
    ("boundary", "b1", math.nan), ("weight", "alpha", math.inf),
    ("potential", "p_params", [math.nan]),
    # an integer field takes a JSON integer only, never truncated or parsed
    (None, "grid_points", 256.9), (None, "grid_points", "300"), (None, "grid_points", True),
    # a real field takes a JSON number only, and an array field a JSON array
    ("boundary", "b2", "-0.5"), ("weight", "alpha", True), ("weight", "a", "1.5"),
    ("potential", "p_params", "37"), ("potential", "q_params", [0.1, "0.2"]),
    ("potential", "p_params", [False]), ("boundary", "b1", 10 ** 400),
    (None, "boundary", "x"),
], ids=["boundary-b1", "weight-alpha", "None-grid_points",
        "boundary-b1-NaN", "weight-alpha-Infinity", "potential-p_params-NaN",
        "None-grid_points-fraction", "None-grid_points-string", "None-grid_points-true",
        "boundary-b2-string", "weight-alpha-true", "weight-a-string",
        "potential-p_params-string", "potential-q_params-string-entry",
        "potential-p_params-false", "boundary-b1-beyond-float", "None-boundary-string"])
def test_config_with_a_non_number_is_io_error(tmp_path, capsys, section, key, value):
    doc = config_to_dict(reference_config())
    (doc[section] if section else doc)[key] = value
    assert _eigs_on_document(tmp_path, doc) == cli.EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("diracbvp: malformed configuration") and err.count("\n") == 1, err
    assert not (tmp_path / "o" / "manifest.json").exists()


def test_module_entry_point_rejects_unknown_command():
    proc = run_python("-m", "diracbvp.cli", "frobnicate")
    assert proc.returncode == cli.EXIT_USAGE, proc.stderr


def _instance(kind):
    return kind("stub", "{", 0) if kind is json.JSONDecodeError else kind("stub")


@pytest.mark.parametrize("kind, code", list(cli._EXIT_CODES.items()),
                         ids=lambda v: getattr(v, "__name__", str(v)))
def test_exit_code_table_row(kind, code, tmp_path, monkeypatch, capsys):
    def stub(args):
        raise _instance(kind)

    monkeypatch.setattr(cli, "cmd_selfcheck", stub)
    assert cli.main(["selfcheck", "--out", str(tmp_path / "o")]) == code
    assert capsys.readouterr().err.startswith("diracbvp: stub")


def test_errors_of_no_row_propagate(tmp_path, monkeypatch):
    def stub(args):
        raise RuntimeError("bug")

    monkeypatch.setattr(cli, "cmd_selfcheck", stub)
    with pytest.raises(RuntimeError):
        cli.main(["selfcheck", "--out", str(tmp_path / "o")])


@pytest.mark.parametrize("argv", [
    ["weyl", "--re-steps", "-1"],
    ["weyl", "--re-steps", "0"],
    ["weyl", "--im-steps", "0"],
    ["weyl", "--n-terms", "-1"],
    ["weyl", "--im-steps", "two"],
    ["expand", "--n-max", "-1"],
], ids=" ".join)
def test_count_flags_reject_bad_values(argv, tmp_path, config_path, capsys):
    assert cli.main([*argv, "--config", str(config_path),
                     "--out", str(tmp_path / "o")]) == cli.EXIT_USAGE
    assert "error: argument" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv", [
    ["resolvent", "--re-lambda", "inf"],
    ["resolvent", "--re-lambda", "nan"],
    ["resolvent", "--im-lambda=-inf"],
    ["resolvent", "--im-lambda", "one"],
    ["weyl", "--re-min", "nan"],
    ["weyl", "--re-max", "inf"],
    ["weyl", "--im-min=-inf"],
    ["weyl", "--im-max", "nan"],
    ["weyl", "--margin", "nan"],
    ["weyl", "--margin", "inf"],
], ids=" ".join)
def test_float_flags_reject_non_finite_values(argv, tmp_path, config_path, capsys):
    assert cli.main([*argv, "--config", str(config_path),
                     "--out", str(tmp_path / "o")]) == cli.EXIT_USAGE
    assert "expected a finite number" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_infinite_lambda_exits_before_any_runtime_warning(tmp_path, config_path):
    proc = run_python("-W", "error::RuntimeWarning", "-m", "diracbvp.cli",
                      "resolvent", "--config", str(config_path),
                      "--re-lambda", "inf", "--out", str(tmp_path / "o"))
    assert proc.returncode == cli.EXIT_USAGE, proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "o").exists()


# ---------------------------------------------------------------------------
# weyl
# ---------------------------------------------------------------------------

def test_weyl_samples_the_upper_half_plane(tmp_path, config_path):
    out = tmp_path / "out"
    assert cli.main(["weyl", "--config", str(config_path),
                     "--n-terms", "8", "--out", str(out)]) == 0
    rows = read_csv(out / "weyl.csv")
    assert rows[0] == ["re_lambda", "im_lambda", "re_m", "im_m", "series_defect"]
    assert len(rows) == 2   # default grid is the single point lambda = i
    assert float(rows[1][2]) == pytest.approx(0.0, abs=1e-8)
    assert float(rows[1][3]) == pytest.approx(-0.5, abs=1e-8)
    assert float(rows[1][4]) < 1e-2


def test_weyl_grid_keeps_the_bits_of_its_points(tmp_path, config_path):
    out = tmp_path / "out"
    assert cli.main(["weyl", "--config", str(config_path), "--re-min", "-1",
                     "--re-max", "1", "--re-steps", "5", "--im-min", "-1",
                     "--im-max", "2", "--im-steps", "2", "--n-terms", "2",
                     "--out", str(out)]) == 0
    res, ims = np.linspace(-1.0, 1.0, 5), np.linspace(-1.0, 2.0, 2)
    assert 0.0 in res
    want = np.array([complex(r, i) for i in ims for r in res])
    rows = read_csv(out / "weyl.csv")[1:]
    got = np.array([[float(r[0]), float(r[1])] for r in rows])
    assert got.view(np.int64).tolist() == np.c_[want.real, want.imag].view(np.int64).tolist()


def test_weyl_that_overflows_writes_no_table(tmp_path, config_path, capsys):
    out = tmp_path / "out"
    assert cli.main(["weyl", "--config", str(config_path), "--im-min", "400",
                     "--im-max", "400", "--out", str(out)]) == cli.EXIT_PARTIAL
    err = capsys.readouterr().err
    assert err.startswith("diracbvp: ") and err.count("\n") == 1, err
    assert not (out / "weyl.csv").exists()


def test_weyl_rejects_bad_margin(tmp_path, config_path):
    assert cli.main(["weyl", "--config", str(config_path), "--margin", "0",
                     "--out", str(tmp_path / "o")]) == cli.EXIT_USAGE
    assert cli.main(["weyl", "--config", str(config_path),
                     "--im-min", "0.01", "--im-max", "1.0", "--im-steps", "3",
                     "--out", str(tmp_path / "o")]) == cli.EXIT_USAGE


# ---------------------------------------------------------------------------
# expand / resolvent
# ---------------------------------------------------------------------------

def test_expand_reports_parseval_defect(tmp_path, config_path):
    out = tmp_path / "out"
    assert cli.main(["expand", "--config", str(config_path),
                     "--n-max", "6", "--out", str(out)]) == 0
    summary = read_json(out / "expand_summary.json")
    assert summary["N"] == 6
    assert 0.0 <= summary["parseval_defect"] < 0.05
    rows = read_csv(out / "expand.csv")
    assert rows[0] == ["x", "f1", "f2", "s1", "s2"]
    assert len(rows) > 1000


def test_expand_propagates_its_eigen_elements_once(tmp_path, config_path, monkeypatch):
    integrator.build_grid.cache_clear()     # no lambda held by an earlier command
    calls = []
    core = integrator.propagate_many

    def counted(*args, **kwargs):
        calls.append(len(args[1]))
        return core(*args, **kwargs)

    monkeypatch.setattr(integrator, "propagate_many", counted)
    assert cli.main(["expand", "--config", str(config_path),
                     "--n-max", "3", "--out", str(tmp_path / "out")]) == 0
    assert calls == [7]


def test_resolvent_writes_solution_and_residuals(tmp_path):
    path = tmp_path / "config.json"
    save_config(reference_config(grid_points=2048), path)
    out = tmp_path / "out"
    assert cli.main(["resolvent", "--config", str(path),
                     "--im-lambda", "1.0", "--out", str(out)]) == 0
    summary = read_json(out / "resolvent_summary.json")
    assert summary["ode_residual"] < 1e-5
    assert summary["bc_residual"] < 1e-8
    rows = read_csv(out / "resolvent.csv")
    assert rows[0] == ["x", "re_y1", "im_y1", "re_y2", "im_y2"]


def test_resolvent_at_eigenvalue_is_partial(tmp_path, config_path):
    assert cli.main(["resolvent", "--config", str(config_path),
                     "--im-lambda", "0.0",
                     "--out", str(tmp_path / "o")]) == cli.EXIT_PARTIAL


# ---------------------------------------------------------------------------
# invert
# ---------------------------------------------------------------------------

def test_invert_improves_on_the_initial_guess(tmp_path):
    geom = reference_config(grid_points=256)
    truth = replace(geom, potential=PotentialSpec.constant(0.1, -0.1))
    data = inverse.synthesize_data(truth, 3)

    config_path = tmp_path / "config.json"
    save_config(geom, config_path)
    data_path = tmp_path / "data.json"
    data.save(data_path)
    ic_path = tmp_path / "inverse.json"
    ic_path.write_text(json.dumps({"basis": {"kind": "piecewise", "m": 1},
                                   "init": [0.0, 0.0], "budget": 150}))

    out = tmp_path / "out"
    assert cli.main(["invert", "--config", str(config_path),
                     "--data", str(data_path),
                     "--inverse-config", str(ic_path),
                     "--out", str(out)]) == 0
    rec = read_json(out / "reconstruction.json")
    assert abs(rec["parameters"][0] - 0.1) < 5e-2
    assert abs(rec["parameters"][1] + 0.1) < 5e-2
    trace = read_csv(out / "trace.csv")
    assert trace[0] == ["iteration", "misfit"]
    assert rec["iterations"] <= 150


# three hand-made data with increasing lambda: enough for a two-parameter basis
_DATA_DOC = {"fingerprint": "hand-made", "data": [
    {"n": n, "lambda": float(n), "alpha": 1.0, "beta": 1.0, "delta_dot": 1.0,
     "seed_gap": 0.0} for n in (-1, 0, 1)]}
_INVERSE_DOC = {"basis": {"kind": "piecewise", "m": 1}, "init": [0.0, 0.0]}


def _invert_argv(tmp_path, data_doc, inverse_doc):
    save_config(reference_config(grid_points=256), tmp_path / "config.json")
    (tmp_path / "data.json").write_text(json.dumps(data_doc))
    (tmp_path / "inverse.json").write_text(json.dumps(inverse_doc))
    return ["invert", "--config", str(tmp_path / "config.json"),
            "--data", str(tmp_path / "data.json"),
            "--inverse-config", str(tmp_path / "inverse.json"),
            "--out", str(tmp_path / "out")]


@pytest.mark.parametrize("data_doc, inverse_doc", [
    (_DATA_DOC, {"init": [0, 0]}),
    (_DATA_DOC, {"basis": {"kind": "piecewise", "m": 1}, "init": [0]}),
    (_DATA_DOC, {"basis": {"kind": "piecewise", "m": "one"}, "init": [0, 0]}),
    (_DATA_DOC, {"basis": {"kind": "piecewise", "m": 1}, "init": 0}),
    (_DATA_DOC, ["basis"]),
    ({"fingerprint": "x"}, _INVERSE_DOC),
    ({"fingerprint": "x", "data": [{"n": 0}]}, _INVERSE_DOC),
    ({"fingerprint": "x", "data": [{**_DATA_DOC["data"][0], "lambda": "low"}]},
     _INVERSE_DOC),
    ({"fingerprint": "x", "data": _DATA_DOC["data"][::-1]}, _INVERSE_DOC),
    (_DATA_DOC, {**_INVERSE_DOC, "budget": 0}),
    ({"fingerprint": "x", "data": [{**_DATA_DOC["data"][0], "alpha": -1.0}]},
     _INVERSE_DOC),
    ({"fingerprint": "x", "data": [{**_DATA_DOC["data"][0], "alpha": math.nan}]},
     _INVERSE_DOC),
    ({"fingerprint": "x", "data": [{**_DATA_DOC["data"][0], "lambda": math.inf}]},
     _INVERSE_DOC),
    (_DATA_DOC, {**_INVERSE_DOC, "budget": 2.5}),
    (_DATA_DOC, {**_INVERSE_DOC, "budget": True}),
    (_DATA_DOC, {"basis": {"kind": "piecewise", "m": 1.0}, "init": [0, 0]}),
    ({"fingerprint": "x", "data": [{**_DATA_DOC["data"][0], "n": -0.5}]}, _INVERSE_DOC),
    ({"fingerprint": "x", "data": [{**_DATA_DOC["data"][0], "lambda": "1.5"}]},
     _INVERSE_DOC),
    ({"fingerprint": "x", "data": [{**_DATA_DOC["data"][0], "beta": True}]}, _INVERSE_DOC),
    (_DATA_DOC, {**_INVERSE_DOC, "init": "12"}),
    (_DATA_DOC, {**_INVERSE_DOC, "init": [0.0, "0"]}),
    ({**_DATA_DOC, "fingerprint": ["x"]}, _INVERSE_DOC),
], ids=["no-basis", "short-init", "bad-m", "scalar-init", "list-document",
        "no-data", "no-lambda", "bad-lambda", "decreasing", "zero-budget",
        "negative-alpha", "nan-alpha", "infinite-lambda", "fractional-budget",
        "true-budget", "float-m", "fractional-n", "string-lambda", "true-beta",
        "string-init", "string-init-entry", "list-fingerprint"])
def test_malformed_invert_inputs_are_io_errors(data_doc, inverse_doc, tmp_path,
                                               capsys):
    assert cli.main(_invert_argv(tmp_path, data_doc, inverse_doc)) == cli.EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("diracbvp: ") and err.count("\n") == 1, err
    # no manifest of a run that never happened
    assert not (tmp_path / "out" / "manifest.json").exists()


def test_zero_budget_message_names_the_budget_key(tmp_path, capsys):
    argv = _invert_argv(tmp_path, _DATA_DOC, {**_INVERSE_DOC, "budget": 0})
    assert cli.main(argv) == cli.EXIT_IO
    assert "budget" in capsys.readouterr().err


def test_malformed_inverse_config_prints_no_traceback(tmp_path):
    proc = run_python("-m", "diracbvp.cli",
                      *_invert_argv(tmp_path, _DATA_DOC, {"init": [0, 0]}))
    assert proc.returncode == cli.EXIT_IO, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "malformed inverse configuration" in proc.stderr


def test_shape_errors_of_the_inverse_are_config_errors():
    basis = inverse.PotentialBasis("piecewise", 1)
    with pytest.raises(ConfigError):
        basis.to_potential([0.0])
    problem = inverse.InverseProblem(
        target=eigensolver.SpectralDataSet.from_dict(_DATA_DOC), basis=basis,
        boundary=reference_config().boundary, weight=reference_config().weight)
    with pytest.raises(ConfigError):
        inverse.reconstruct(problem, [0.0, 0.0, 0.0])
    for budget in (0, -1):
        with pytest.raises(ConfigError):
            inverse.reconstruct(problem, [0.0, 0.0], max_evals=budget)


# ---------------------------------------------------------------------------
# selfcheck
# ---------------------------------------------------------------------------

def test_selfcheck_passes_and_prints_table(tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main(["selfcheck", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "PASS" in printed and "FAIL" not in printed
    rows = read_csv(out / "selfcheck.csv")
    assert rows[0] == ["check", "config", "value", "threshold", "status"]
    assert all(r[4] == "pass" for r in rows[1:])


def test_selfcheck_detects_injected_failure(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(weyl, "residue_check", lambda config, datum: 1.0)
    out = tmp_path / "out"
    assert cli.main(["selfcheck", "--out", str(out)]) == cli.EXIT_SELFCHECK
    assert "FAIL" in capsys.readouterr().out
    rows = {r[0]: r for r in read_csv(out / "selfcheck.csv")[1:]}
    assert rows["residue_at_ground"][2:] == ["1.0", "0.001", "fail"]
