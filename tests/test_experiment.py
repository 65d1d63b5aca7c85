import numpy as np
import pytest

from dcreg.data import SyntheticGen
from dcreg.experiment import (ExperimentSpec, aggregate_rows, demo_figures,
                              run_experiment, write_bench_outputs, write_csv)


def _spec(**kw):
    base = dict(
        train_sizes=(64,),
        synthetic=SyntheticGen(target="xsinx", noise_sigma=0.1),
        repetitions=2,
        estimators=("knn", "ols"),
        seed=3,
    )
    base.update(kw)
    return ExperimentSpec(**base)


def test_run_experiment_rows_and_aggregate():
    rows = run_experiment(_spec())
    assert len(rows) == 4
    assert all(r["status"] == "ok" for r in rows)
    assert all(np.isfinite(r["test_mse"]) for r in rows)
    agg = aggregate_rows(rows)
    assert {(a["estimator"], a["n"]) for a in agg} == {("knn", 64), ("ols", 64)}
    assert all(a["cells"] == 2 for a in agg)


def test_run_experiment_repeats_same_seed_identical():
    rows1 = run_experiment(_spec())
    rows2 = run_experiment(_spec())
    for r1, r2 in zip(rows1, rows2):
        assert r1["test_mse"] == r2["test_mse"]


def test_run_experiment_dcf_reports_partition_stats():
    spec = _spec(estimators=("dcf",), train_sizes=(80,), repetitions=1)
    rows = run_experiment(spec)
    row = rows[0]
    assert row["status"] == "ok"
    n, d = 80, 1
    assert row["n_centers"] <= int(np.ceil(n ** (d / (2.0 + d))))
    assert row["params_after"] <= row["params_before"]
    assert row["cell_size_min"] >= 1


def test_run_experiment_noise_floor_constant_target():
    # nearly-constant target: any sane estimator's test MSE sits at the noise
    # floor sigma^2, within 3 standard deviations of the chi-square band
    sigma = 0.05
    gen = SyntheticGen(target="random_lipschitz", d=1, noise_sigma=sigma,
                       lipschitz=0.01)
    spec = _spec(synthetic=gen, estimators=("ols", "knn"), train_sizes=(256,),
                 repetitions=3, test_size=2000)
    rows = run_experiment(spec)
    band = 3.0 * sigma ** 2 * np.sqrt(2.0 / 2000)
    for row in rows:
        assert abs(row["test_mse"] - sigma ** 2) <= band + 0.2 * sigma ** 2


def test_run_experiment_marks_failed_cells(tmp_path):
    # a train size consuming all csv rows fails that cell but not the run
    path = tmp_path / "small.csv"
    path.write_text("\n".join(f"{i}.0,{i}.5" for i in range(10)) + "\n")
    spec = ExperimentSpec(train_sizes=(5, 20), csv_path=str(path),
                          repetitions=1, estimators=("ols",), seed=0)
    rows = run_experiment(spec)
    by_n = {r["n"]: r for r in rows}
    assert by_n[5]["status"] == "ok"
    assert by_n[20]["status"].startswith("failed")
    assert "test_mse" not in by_n[20]


def test_run_experiment_workers_match_serial():
    spec = _spec()
    serial = run_experiment(spec, workers=1)
    threaded = run_experiment(spec, workers=3)
    for a, b in zip(serial, threaded):
        assert a["estimator"] == b["estimator"]
        assert a["test_mse"] == b["test_mse"]


def test_spec_validation():
    with pytest.raises(ValueError):
        ExperimentSpec(train_sizes=(10,))  # no source
    with pytest.raises(ValueError):
        _spec(estimators=("nope",))
    with pytest.raises(ValueError):
        _spec(repetitions=0)


def test_write_bench_outputs_deterministic(tmp_path):
    rows = run_experiment(_spec())
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    write_bench_outputs(rows, out1)
    write_bench_outputs(run_experiment(_spec()), out2)
    assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()
    assert (out1 / "summary.csv").read_bytes() == (out2 / "summary.csv").read_bytes()
    assert not (out1 / "timings.csv").exists()
    write_bench_outputs(rows, out1, timings=True)
    assert (out1 / "timings.csv").exists()


def test_demo_figures(tmp_path):
    out = demo_figures(tmp_path / "demo", n_grid=200)
    expected = ["bands_norm_xsinx.csv", "bands_quad_xsinx.csv",
                "bands_smooth_xsinx.csv", "bands_norm_pw_linear.csv",
                "bands_quad_pw_linear.csv", "fits_xsinx.csv",
                "fits_pw_linear.csv", "summary.csv"]
    for name in expected:
        assert (out / name).exists(), name
    band_lines = (out / "bands_norm_xsinx.csv").read_text().splitlines()
    assert len(band_lines) == 201  # header + rows
    header = band_lines[0].split(",")
    assert header == ["x", "f", "fhat", "fcheck", "band_lo", "band_hi", "fvu"]
    # band columns hold row-wise
    rows = [line.split(",") for line in band_lines[1:]]
    for row in rows:
        x, f, fhat, fcheck, lo, hi, _ = map(float, row)
        assert lo - 1e-9 <= f - fhat <= hi + 1e-9
    # FVU of a perfect fit is zero
    summary = (out / "summary.csv").read_text().splitlines()
    assert summary[0] == "target,construction,fvu"
    fvus = {(r.split(",")[0], r.split(",")[1]): float(r.split(",")[2])
            for r in summary[1:]}
    assert fvus[("xsinx", "fit_symmetric")] < fvus[("xsinx", "norm_lower")]


def test_demo_figures_full_grid_row_count(tmp_path):
    out = demo_figures(tmp_path / "demo", n_grid=1000)
    lines = (out / "bands_quad_pw_linear.csv").read_text().splitlines()
    assert len(lines) == 1001


def test_demo_figures_bit_reproducible(tmp_path):
    out1 = demo_figures(tmp_path / "a", n_grid=150, seed=2)
    out2 = demo_figures(tmp_path / "b", n_grid=150, seed=2)
    for path in sorted(out1.iterdir()):
        assert path.read_bytes() == (out2 / path.name).read_bytes(), path.name


def test_write_csv_cell_format(tmp_path):
    rows = [{"a": 0.1 + 0.2, "b": None, "c": "x,y"},
            {"a": np.float64(1e-5), "b": 3, "c": True},
            [-0.0, 5e-324, np.float64(2.0) ** 60]]
    path = tmp_path / "t.csv"
    write_csv(path, ["a", "b", "c"], rows)
    assert path.read_bytes() == (b'a,b,c\n0.30000000000000004,,"x,y"\n1e-05,3,True\n'
                                 b'-0.0,5e-324,1.152921504606847e+18\n')


def test_write_csv_float_column_matches_the_csv_writer_bytes(tmp_path):
    rng = np.random.default_rng(6)
    values = np.array([0.0, -0.0, 5e-324, -2.2250738585072e-310, 1e300, -1e300, 1e-300,
                       -1e-300, 0.1, 1.0 / 3.0, -2.718281828459045, 123456789.01234567,
                       np.nan, np.inf, -np.inf])
    for vals in (values, rng.standard_normal(300) * 10.0 ** rng.integers(-20, 20, 300),
                 np.empty(0)):
        fast, ref = tmp_path / "fast.csv", tmp_path / "ref.csv"
        write_csv(fast, ["prediction"], vals)
        write_csv(ref, ["prediction"], vals[:, None].tolist())
        assert fast.read_bytes() == ref.read_bytes()
    assert ref.read_bytes() == b"prediction\n"
