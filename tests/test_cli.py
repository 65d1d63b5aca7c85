import csv
import json
import re

import numpy as np
import pytest

from dcreg.cli import (EXIT_DATA, EXIT_OK, EXIT_SOLVER, EXIT_USAGE, main)
from dcreg.data import apply_scaling, load_csv
from dcreg.fit import FitConfig, fit_dcf
from dcreg.model import eval_model
from dcreg.serialize import load_bundle, save_model


@pytest.fixture()
def csv_file(tmp_path):
    rng = np.random.default_rng(0)
    X = rng.uniform(0, 6, 150)
    y = X * np.sin(X) + 0.1 * rng.standard_normal(150)
    path = tmp_path / "train.csv"
    path.write_text("x,y\n" + "\n".join(f"{float(a)!r},{float(b)!r}"
                                        for a, b in zip(X, y)) + "\n")
    return path


def test_fit_predict_inspect_round_trip(tmp_path, csv_file, capsys):
    model_path = tmp_path / "model.json"
    code = main(["fit", "--data", str(csv_file), "--variant", "symmetric",
                 "--scaling", "std", "--seed", "1", "--out", str(model_path)])
    assert code == EXIT_OK
    assert model_path.exists()
    # one piece count per component, as inspect reports them
    fit_pieces = re.search(r"pieces=(\[\d+, \d+\]) ", capsys.readouterr().out).group(1)

    preds_path = tmp_path / "preds.csv"
    code = main(["predict", "--model", str(model_path), "--data", str(csv_file),
                 "--out", str(preds_path)])
    assert code == EXIT_OK
    lines = preds_path.read_text().splitlines()
    assert lines[0] == "prediction"
    assert len(lines) == 151

    code = main(["inspect", "--model", str(model_path)])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "variant=symmetric" in out
    assert f"pieces={fit_pieces}\n" in out
    assert "lip_stat=" in out


def test_fit_missing_file(tmp_path):
    code = main(["fit", "--data", str(tmp_path / "none.csv"),
                 "--out", str(tmp_path / "m.json")])
    assert code == EXIT_DATA


def test_predict_feature_count_mismatch(tmp_path, csv_file):
    model_path = tmp_path / "model.json"
    assert main(["fit", "--data", str(csv_file), "--out", str(model_path)]) == EXIT_OK
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b,c,d\n1,2,3,4\n5,6,7,8\n")
    code = main(["predict", "--model", str(model_path), "--data", str(bad),
                 "--out", str(tmp_path / "p.csv")])
    assert code == EXIT_DATA


def test_usage_error_exit_code():
    assert main(["fit"]) == EXIT_USAGE          # missing required args
    assert main(["unknown-command"]) == EXIT_USAGE


def test_bench_synthetic_and_determinism(tmp_path):
    args = ["bench", "--target", "xsinx", "--sizes", "48", "--reps", "2",
            "--estimators", "knn", "ols", "--seed", "7"]
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    assert main(args + ["--out", str(out1)]) == EXIT_OK
    assert main(args + ["--out", str(out2)]) == EXIT_OK
    assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()


def test_bench_scaling_applies_to_the_baselines_and_not_to_dcf_fits(tmp_path):
    # A dcf fit takes the raw rows and standardizes them itself, as `dcreg fit` does.
    results = {}
    for scaling in ("mm", "std"):
        out = tmp_path / scaling
        assert main(["bench", "--target", "xsinx", "--sizes", "128", "--reps", "1",
                     "--estimators", "dcf_symmetric", "nw_gaussian", "--seed", "3",
                     "--scaling", scaling, "--out", str(out)]) == EXIT_OK
        with open(out / "results.csv") as fh:
            results[scaling] = {r["estimator"]: r["test_mse"] for r in csv.DictReader(fh)}
    assert results["mm"]["dcf_symmetric"] == results["std"]["dcf_symmetric"]
    assert results["mm"]["nw_gaussian"] != results["std"]["nw_gaussian"]


def test_bench_spec_json(tmp_path):
    spec = {
        "train_sizes": [48],
        "repetitions": 1,
        "estimators": ["ols"],
        "seed": 1,
        "synthetic": {"target": "xsinx", "noise_sigma": 0.1},
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    assert main(["bench", "--spec", str(spec_path), "--out", str(tmp_path / "o")]) == EXIT_OK
    assert (tmp_path / "o" / "results.csv").exists()


# Well-typed field values that ExperimentSpec or SyntheticGen reject.
_INVALID_SPEC_FIELDS = {
    "kind": {"kind": "bogus"},
    "scaling": {"scaling": "bogus"},
    "theta2-mode": {"theta2_mode": "bogus"},
    "test-size": {"test_size": 0},
    "train-size": {"train_sizes": [48, 0]},
    "synthetic-d": {"synthetic": {"target": "normsq", "d": 0}},
    "repetitions": {"repetitions": 0},
    "train-sizes-str": {"train_sizes": ["a"]},
    "noise-sigma": {"synthetic": {"target": "normsq", "noise_sigma": -1}},
}


@pytest.mark.parametrize("spec", [
    {"train_sizes": [48], "repetitons": 1, "estimators": ["ols"],
     "synthetic": {"target": "xsinx"}},
    [1, 2],
    {"train_sizes": [48], "estimators": ["ols"], "synthetic": {"target": "xsinx", "dim": 2}},
    {"train_sizes": 50, "estimators": ["ols"], "synthetic": {"target": "xsinx"}},
    *({"train_sizes": [48], "estimators": ["dcf", "ols"], "synthetic": {"target": "normsq"},
       **field} for field in _INVALID_SPEC_FIELDS.values()),
], ids=["misspelled-key", "list", "unknown-synthetic-key", "scalar-train-sizes",
        *_INVALID_SPEC_FIELDS])
def test_bench_malformed_spec_is_a_data_error(tmp_path, capsys, monkeypatch, spec):
    # Checked when the spec is built: no cell runs, and no file is written.
    monkeypatch.setattr("dcreg.experiment._run_cell", lambda *a: pytest.fail("a cell ran"))
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    assert main(["bench", "--spec", str(spec_path), "--out", str(tmp_path / "o")]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error: malformed spec ") and err.count("\n") == 1, err
    assert not (tmp_path / "o").exists()


def test_bench_csv_without_test_rows_is_a_data_error(tmp_path, capsys, monkeypatch):
    # Checked once the CSV is loaded: no cell runs, and no file is written.
    monkeypatch.setattr("dcreg.experiment._run_cell", lambda *a: pytest.fail("a cell ran"))
    data = tmp_path / "small.csv"
    data.write_text("".join(f"{i}.0,{i}.5\n" for i in range(20)))
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"train_sizes": [10, 50], "estimators": ["ols"],
                                     "csv_path": str(data)}))
    assert main(["bench", "--spec", str(spec_path), "--out", str(tmp_path / "o")]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err == f"data error: train size 50 leaves no test rows ({data} has 20)\n", err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("flag", [["--d", "0"], ["--sizes", "0"], ["--reps", "0"]],
                         ids=lambda flag: " ".join(flag))
def test_bench_invalid_flag_value_is_a_usage_error(tmp_path, capsys, monkeypatch, flag):
    # The same values as a spec file's fields are data errors; on the command line
    # the command is at fault.
    monkeypatch.setattr("dcreg.experiment._run_cell", lambda *a: pytest.fail("a cell ran"))
    assert main(["bench", "--target", "normsq", "--estimators", "ols", *flag,
                 "--out", str(tmp_path / "o")]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("usage error: ")
    assert not (tmp_path / "o").exists()


def test_fit_one_row_is_a_data_error(tmp_path, capsys):
    data = tmp_path / "one.csv"
    data.write_text("x,y\n1.0,2.0\n")
    assert main(["fit", "--data", str(data), "--out", str(tmp_path / "m.json")]) == EXIT_DATA
    assert capsys.readouterr().err == "data error: need at least two samples\n"


def test_bench_requires_source(tmp_path):
    assert main(["bench", "--out", str(tmp_path / "o")]) == EXIT_DATA


def test_demo_command(tmp_path):
    # n_grid default is 1000; run through the CLI for the smoke path
    code = main(["demo", "--out", str(tmp_path / "demo")])
    assert code == EXIT_OK
    assert (tmp_path / "demo" / "summary.csv").exists()


def test_predict_ignores_trailing_response_column(tmp_path, csv_file):
    model_path = tmp_path / "model.json"
    assert main(["fit", "--data", str(csv_file), "--out", str(model_path)]) == EXIT_OK
    feats = tmp_path / "grid.csv"
    # (x, dummy-response) rows: predict uses x only
    feats.write_text("\n".join(f"{float(v)!r},0.0" for v in np.linspace(0, 6, 20)) + "\n")
    out = tmp_path / "p.csv"
    code = main(["predict", "--model", str(model_path), "--data", str(feats),
                 "--out", str(out)])
    assert code == EXIT_OK
    assert len(out.read_text().splitlines()) == 21


def test_solver_abort_exit_code(tmp_path, csv_file, monkeypatch):
    import dcreg.cli as cli
    from dcreg.solver import SolverAbort

    def boom(*args, **kwargs):
        raise SolverAbort("forced")

    monkeypatch.setattr(cli, "fit_dcf", boom)
    code = main(["fit", "--data", str(csv_file), "--out", str(tmp_path / "m.json")])
    assert code == EXIT_SOLVER


def test_fit_predict_multifeature(tmp_path):
    rng = np.random.default_rng(3)
    X = rng.uniform(-1, 1, (120, 2))
    y = X[:, 0] - np.abs(X[:, 1])
    rows = "\n".join(f"{a!r},{b!r},{c!r}" for (a, b), c in zip(X.tolist(), y.tolist()))
    data = tmp_path / "d2.csv"
    data.write_text(rows + "\n")
    model_path = tmp_path / "m.json"
    assert main(["fit", "--data", str(data), "--variant", "single", "--kind", "l2",
                 "--out", str(model_path)]) == EXIT_OK
    out = tmp_path / "p.csv"
    assert main(["predict", "--model", str(model_path), "--data", str(data),
                 "--out", str(out)]) == EXIT_OK
    preds = [float(v) for v in out.read_text().splitlines()[1:]]
    assert len(preds) == 120
    mse = float(np.mean((np.asarray(preds) - y) ** 2))
    assert mse < np.var(y)  # better than the mean predictor in original units


def test_verbose_logging_smoke(tmp_path, csv_file, caplog):
    import logging
    model_path = tmp_path / "m.json"
    with caplog.at_level(logging.INFO, logger="dcreg.fit"):
        code = main(["--verbose", "fit", "--data", str(csv_file),
                     "--out", str(model_path)])
    assert code == EXIT_OK
    assert any("fit_initial" in r.message for r in caplog.records)


def _expected_predictions(model_path, X):
    """The model on X; in a two-map file, inside its outer scaling as well."""
    model, scaling = load_bundle(model_path)
    if scaling is None:
        return eval_model(model, X)
    return scaling.invert_y(eval_model(model, scaling.transform_x(X)))


def test_fit_scaling_flag_has_no_effect(tmp_path, csv_file):
    # Every fit standardizes its rows, and the file holds that one map.
    written = []
    for mode in ("mm", "std", "nofs"):
        path = tmp_path / f"{mode}.json"
        assert main(["fit", "--data", str(csv_file), "--scaling", mode,
                     "--out", str(path)]) == EXIT_OK
        written.append(path.read_bytes())
    assert written[0] == written[1] == written[2]
    payload = json.loads(written[0])
    assert "scaling_spec" not in payload and "standardization" in payload


def test_predict_one_column_features_for_1d_model(tmp_path, csv_file):
    model_path = tmp_path / "model.json"
    assert main(["fit", "--data", str(csv_file), "--out", str(model_path)]) == EXIT_OK
    X = np.linspace(0, 6, 25)[:, None]
    feats = tmp_path / "x.csv"
    feats.write_text("".join(f"{v!r}\n" for v in X[:, 0].tolist()))
    out = tmp_path / "p.csv"
    code = main(["predict", "--model", str(model_path), "--data", str(feats),
                 "--out", str(out)])
    assert code == EXIT_OK
    preds = np.array([float(v) for v in out.read_text().splitlines()[1:]])
    assert np.array_equal(preds, _expected_predictions(model_path, X))


def test_predict_output_bytes(tmp_path):
    rng = np.random.default_rng(4)
    X = rng.uniform(-1, 1, (60, 3))
    y = np.abs(X[:, 0]) - X[:, 1] + X[:, 2] ** 2
    data = tmp_path / "d.csv"
    data.write_text("".join(",".join(map(repr, row)) + "\n"
                            for row in np.column_stack([X, y]).tolist()))
    model_path = tmp_path / "m.json"
    assert main(["fit", "--data", str(data), "--variant", "single",
                 "--out", str(model_path)]) == EXIT_OK
    feats = tmp_path / "features.csv"
    feats.write_text("u,v,w\n" + "".join(",".join(map(repr, row)) + "\n"
                                         for row in X.tolist()))
    # header "prediction", then one repr per line; eval_model's bits do not
    # depend on the memory layout, so column-major X gives those of predict's
    # row-major rows
    preds = _expected_predictions(model_path, np.asfortranarray(X))
    expected = "prediction\n" + "".join(f"{p!r}\n" for p in preds.tolist())
    for source in (data, feats):
        out = tmp_path / f"p_{source.stem}.csv"
        assert main(["predict", "--model", str(model_path), "--data", str(source),
                     "--out", str(out)]) == EXIT_OK
        assert out.read_bytes() == expected.encode()


def test_bench_failed_cell_exits_nonzero(tmp_path, monkeypatch, caplog):
    import logging

    import dcreg.experiment as experiment

    def broken_ols(*args, **kwargs):
        raise RuntimeError("forced ols failure")

    monkeypatch.setattr(experiment.baselines, "ols_fit", broken_ols)
    out = tmp_path / "o"
    with caplog.at_level(logging.DEBUG, logger="dcreg.experiment"):
        code = main(["bench", "--target", "xsinx", "--sizes", "48", "--reps", "1",
                     "--estimators", "knn", "ols", "--seed", "7", "--out", str(out)])
    assert code == EXIT_SOLVER
    statuses = [line.split(",")[3] for line in
                (out / "results.csv").read_text().splitlines()[1:]]
    assert statuses == ["ok", "failed: forced ols failure"]
    assert any(r.levelno == logging.DEBUG and r.exc_info for r in caplog.records)


# ---------------------------------------------------------------------------
# dcreg predict rejects malformed model files (exit 3)

@pytest.fixture(scope="module")
def saved_3d_models(tmp_path_factory):
    """Payloads of a `single` and a `mma` d=3 model saved by `dcreg fit`, and of a
    two-map `single` model fitted on min-max scaled rows, as older files are;
    then a features file, and the two-map model and its scaling."""
    tmp = tmp_path_factory.mktemp("models3d")
    rng = np.random.default_rng(11)
    X = rng.uniform(-1, 1, (60, 3))
    y = np.abs(X[:, 0]) - X[:, 1] + 0.5 * X[:, 2] ** 2
    data = tmp / "d.csv"
    data.write_text("".join(",".join(map(repr, row)) + "\n"
                            for row in np.column_stack([X, y]).tolist()))
    payloads = {}
    for variant in ("single", "mma"):
        path = tmp / f"{variant}.json"
        assert main(["fit", "--data", str(data), "--variant", variant, "--kind", "linf",
                     "--out", str(path)]) == EXIT_OK
        payloads[variant] = json.loads(path.read_text())
    ds = load_csv(data)
    scaled, spec = apply_scaling(ds, "mm")
    model = fit_dcf(scaled, FitConfig(variant="single", kind="linf")).final_model
    save_model(model, tmp / "two_map.json", spec)
    payloads["two_map"] = json.loads((tmp / "two_map.json").read_text())
    return payloads, data, (model, spec)


def _set_x_shift_one_element(p):
    p["standardization"]["x_shift"] = p["standardization"]["x_shift"][:1]


def _set_x_scale_zero(p):
    p["standardization"]["x_scale"][1] = 0.0


def _set_y_scale_nan(p):
    p["standardization"]["y_scale"] = float("nan")


def _set_weight_inf(p):
    p["pieces"][0]["w"][0] = float("inf")


def _set_center_index_fraction(p):
    p["pieces"][0]["c"] = 1.5


def _set_scaling_shift_one_element(p):
    p["scaling_spec"]["shift"] = p["scaling_spec"]["shift"][:1]


def _set_scaling_y_std_inf(p):
    p["scaling_spec"]["y_std"] = float("inf")


def _set_mma_slopes_wrong_dimension(p):
    p["mma"]["slopes"] = [[s[:2] for s in block] for block in p["mma"]["slopes"]]


def _set_mma_norm_coefficient_positive(p):
    p["pieces"][0]["w"][3] = 0.5


@pytest.mark.parametrize("variant,corrupt", [
    ("single", _set_x_shift_one_element),
    ("single", _set_x_scale_zero),
    ("single", _set_y_scale_nan),
    ("single", _set_weight_inf),
    ("single", _set_center_index_fraction),
    ("single", _set_scaling_shift_one_element),
    ("single", _set_scaling_y_std_inf),
    ("mma", _set_mma_slopes_wrong_dimension),
    ("mma", _set_mma_norm_coefficient_positive),
])
def test_predict_rejects_malformed_model(tmp_path, saved_3d_models, variant, corrupt, capsys):
    payloads, data, _ = saved_3d_models
    # the outer scaling spec is in the two-map file only
    source = "two_map" if corrupt.__name__.startswith("_set_scaling") else variant
    payload = json.loads(json.dumps(payloads[source]))
    corrupt(payload)
    model_path = tmp_path / "bad.json"
    model_path.write_text(json.dumps(payload))
    out = tmp_path / "p.csv"
    code = main(["predict", "--model", str(model_path), "--data", str(data),
                 "--out", str(out)])
    assert code == EXIT_DATA
    assert "data error" in capsys.readouterr().err
    assert not out.exists()


def test_predict_accepts_the_unmodified_models(tmp_path, saved_3d_models):
    payloads, data, _ = saved_3d_models
    for variant, payload in payloads.items():
        model_path = tmp_path / f"{variant}.json"
        model_path.write_text(json.dumps(payload))
        assert main(["predict", "--model", str(model_path), "--data", str(data),
                     "--out", str(tmp_path / "p.csv")]) == EXIT_OK


def test_predict_two_map_file_bit_for_bit(tmp_path, saved_3d_models):
    payloads, data, (model, spec) = saved_3d_models
    model_path = tmp_path / "two_map.json"
    model_path.write_text(json.dumps(payloads["two_map"]))
    out = tmp_path / "p.csv"
    assert main(["predict", "--model", str(model_path), "--data", str(data),
                 "--out", str(out)]) == EXIT_OK
    preds = np.array([float(v) for v in out.read_text().splitlines()[1:]])
    X = np.asfortranarray(load_csv(data).X)
    assert np.array_equal(preds, spec.invert_y(eval_model(model, spec.transform_x(X))))


def test_inspect_reports_the_map_a_file_holds(tmp_path, saved_3d_models, capsys):
    payloads, _, _ = saved_3d_models
    for source, mode in (("single", "std"), ("two_map", "mm")):
        model_path = tmp_path / f"{source}.json"
        model_path.write_text(json.dumps(payloads[source]))
        assert main(["inspect", "--model", str(model_path)]) == EXIT_OK
        assert f"scaling={mode}\n" in capsys.readouterr().out
