"""Self-tests of the benchmark: tiny workloads, and every check against a perturbed output.

Run from the root of the repository:

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402

import dcreg.model  # noqa: E402

TINY = worker.Sizes(n_1d_symmetric=96, n_1d_mma=96, n_8d=128, n_cli_fit=128, n_test=500,
                    n_predict=1000, n_pairs=200, min_eval_s=0.01, datasets=2)


@pytest.fixture
def workdir():
    run.RESULTS.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.RESULTS))
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.mark.parametrize("workload", worker.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_workload_passes_every_check(workload, trace, workdir):
    res = worker.run(workload, 3, 0, workdir, trace=trace, sizes=TINY,
                     spans_path=workdir / "spans.json" if trace else None)
    assert res["errors"] == []
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert set(res["end_to_end"]) == set(worker.E2E_UNITS)
    assert all(m["value"] > 0 for m in res["end_to_end"].values())
    if trace:
        assert set(res["per_layer"]) == set(tracing.PER_LAYER_UNITS)
        timed = [name for name in res["per_layer"] if name.endswith("_s")]
        assert all(res["per_layer"][name]["value"] > 0 for name in timed)
        spans = json.loads((workdir / "spans.json").read_text())
        assert {"setup", "round", "afpc", "stage1", "stage2", "finalize", "lbfgs",
                "eval_model", "save", "load", "load_csv", "write_csv"} <= {s["name"] for s in spans}
    else:
        assert res["per_layer"] is None


@pytest.mark.parametrize("workload", ["fit_1d", "predict_cli"])
def test_perturbed_eval_model_fails_the_run(workload, workdir, monkeypatch):
    original = dcreg.model.eval_model
    monkeypatch.setattr(dcreg.model, "eval_model", lambda m, x: original(m, x) * (1 + 1e-7))
    res = worker.run(workload, 3, 0, workdir, sizes=TINY)
    assert not res["correct"]
    assert res["failed"] == res["attempted"]


@pytest.fixture(scope="module")
def convex_fit():
    """A tiny convex_max_affine fit and the predictions the checks look at."""
    rng = np.random.default_rng(5)
    X = rng.uniform(-1, 1, (96, 8))
    y = worker.normsq(X) + 0.1 * rng.standard_normal(96)
    result = dcreg.fit.fit_dcf(dcreg.data.Dataset(X, y), dcreg.fit.FitConfig(
        variant="convex_max_affine", kind="linf", seed=5))
    test_X = rng.uniform(-1, 1, (400, 8))
    return result, X, y, test_X


def bumped(values, index=0, by=1e-6):
    out = np.array(values, float)
    out[index] += by
    return out


def test_own_evaluation_check(convex_fit):
    result, _, _, test_X = convex_fit
    model = result.final_model
    preds = dcreg.model.eval_model(model, test_X)
    ref = checks.evaluate(checks.fields_from_model(model), test_X)
    assert checks.check_matches(ref, preds) is None
    assert checks.check_matches(ref, bumped(preds)) is not None


def test_own_evaluation_from_model_file(convex_fit, workdir):
    result, _, _, test_X = convex_fit
    path = workdir / "model.json"
    dcreg.serialize.save_model(result.final_model, path)
    fields = checks.fields_from_payload(json.loads(path.read_text()))
    preds = dcreg.model.eval_model(result.final_model, test_X)
    assert checks.check_matches(checks.evaluate(fields, test_X), preds) is None
    assert checks.check_matches(checks.evaluate(fields, test_X), bumped(preds)) is not None


def test_save_load_check(convex_fit):
    result, _, _, test_X = convex_fit
    preds = dcreg.model.eval_model(result.final_model, test_X)
    assert checks.check_identical(preds, preds.copy(), "round trip") is None
    nudged = preds.copy()
    nudged[0] = np.nextafter(nudged[0], np.inf)
    assert checks.check_identical(preds, nudged, "round trip") is not None


def test_affine_check(convex_fit):
    result, _, _, test_X = convex_fit
    clean = worker.normsq(test_X)
    preds = dcreg.model.eval_model(result.final_model, test_X)
    assert checks.check_beats_affine(test_X, clean, preds) is None
    noise = np.random.default_rng(0).standard_normal(len(preds))
    assert checks.check_beats_affine(test_X, clean, preds + noise) is not None


def test_centering_check(convex_fit):
    result, X, y, _ = convex_fit
    train_preds = dcreg.model.eval_model(result.final_model, X)
    assert checks.check_centering(train_preds, y) is None
    assert checks.check_centering(bumped(train_preds, by=1e-4), y) is not None


def test_chain_check(convex_fit):
    result, _, _, _ = convex_fit
    rr, lip, theta3 = result.risk_reg_chain, result.lip_chain, result.reg.theta3
    assert checks.check_chains(rr, lip, theta3) is None
    assert checks.check_chains(bumped(rr, 2, rr[1] - rr[2] + 1e-6), lip, theta3) is not None
    assert checks.check_chains(rr, bumped(lip, 2, lip[1] - lip[2] + 1e-6), theta3) is not None
    lip_over_cap = bumped(lip, 1, (1 + theta3) * lip[0] - lip[1] + 1e-6)
    assert checks.check_chains(rr, lip_over_cap, theta3) is not None


def test_midpoint_convexity_check(convex_fit):
    result, _, _, test_X = convex_fit
    A, B = test_X[:200], test_X[200:]
    ev = dcreg.model.eval_model
    f_a, f_b, f_mid = ev(result.final_model, A), ev(result.final_model, B), \
        ev(result.final_model, 0.5 * (A + B))
    assert checks.check_midpoint_convex(f_a, f_b, f_mid) is None
    gap = 0.5 * (f_a + f_b) - f_mid
    j = int(np.argmin(gap))
    assert checks.check_midpoint_convex(f_a, f_b, bumped(f_mid, j, gap[j] + 1e-6)) is not None


def test_layer_metrics_take_rounds_before_setup():
    tracer = tracing.Tracer()
    with tracer.span("setup"):
        with tracer.span("load_csv", rows=10):
            pass
        with tracer.span("save", bytes=100):
            pass
    for _ in range(2):
        with tracer.span("round"):
            with tracer.span("load_csv", rows=1000):
                pass
    metrics = tracing.layer_metrics(tracer.spans)
    round_loads = [s for s in tracer.spans if s["name"] == "load_csv" and s["rows"] == 1000]
    per_round = sum(s["end"] - s["start"] for s in round_loads) / 2
    assert metrics["load_csv_s"]["value"] == pytest.approx(per_round)
    assert metrics["model_bytes"]["value"] == 100
    assert set(metrics) == set(tracing.PER_LAYER_UNITS)


def test_compare_prints_deltas(workdir, capsys):
    record = {"workload": "fit_1d", "seed": 0, "trace": 0, "per_layer": None,
              "end_to_end": {"wall_s": {"value": 10.0, "unit": "s"},
                             "predict_rows_per_s": {"value": 100.0, "unit": "rows/s"}}}
    slower = json.loads(json.dumps(record))
    slower["end_to_end"]["wall_s"]["value"] = 11.0
    a, b = workdir / "a.json", workdir / "b.json"
    a.write_text(json.dumps(record))
    b.write_text(json.dumps(slower))
    run.compare(a, b)
    lines = {line.split()[0]: line for line in capsys.readouterr().out.splitlines()}
    assert "+10.00%" in lines["wall_s"] and "worse" in lines["wall_s"]
    assert "+0.00%" in lines["predict_rows_per_s"]


def test_without_the_program_exits_nonzero_and_prints_no_result(workdir):
    bare = workdir / "bare"
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "fit_1d",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(worker.WORKLOADS) == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == worker.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER_UNITS
