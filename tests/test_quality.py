"""Self-test of tools/quality.py at tiny sizes."""

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import at_scale  # noqa: E402
import quality  # noqa: E402
from dcreg.solver import STOP_REASONS  # noqa: E402

TINY = quality.worker.Sizes(n_1d_symmetric=64, n_1d_mma=64, n_8d=64, n_cli_fit=64,
                            n_test=300, n_predict=300, n_pairs=10, min_eval_s=0.0,
                            datasets=1)


def test_ulp_scales_are_exact_and_distinct():
    scales = [quality.ulp_scale(k) for k in quality.KS]
    assert len(set(scales)) == len(quality.KS) and quality.ulp_scale(0) == 1.0
    assert all((s - 1.0) / 2.0 ** -52 == k for s, k in zip(scales, quality.KS))


@pytest.mark.parametrize("workload", quality.WORKLOADS)
def test_measurement_is_deterministic_and_compares_equal_to_itself(workload, tmp_path):
    first = quality.measure(workload, TINY, ks=(0, 1))
    second = quality.measure(workload, TINY, ks=(0, 1))
    assert first == second
    sets = 1 if workload == "predict_cli" else TINY.datasets * 2
    assert len(first["records"]) == 2 * sets
    for r in first["records"]:
        assert r["excess_mse"] > 0.0 and np.isfinite(r["excess_mse"])
        assert r["stage1"][1] and r["stage2"][1] in ("", *STOP_REASONS)
        assert r["pieces"] >= 1
        # one working-set size per stage-2 solve, one solve per width
        solves = len(quality.dcreg.fit.MUS) if r["stage2"][1] else 0
        assert len(r["stage2_pieces"]) == solves and all(p >= 1 for p in r["stage2_pieces"])
    text, passed = quality.compare(first, second)
    assert passed and text.endswith("PASS")
    for label in quality.groups(first["records"]):
        assert label in quality.report(first)
    path = tmp_path / "m.json"
    path.write_text(json.dumps(first))
    assert quality.main(["--compare", str(path), str(path)]) == 0


def test_excess_mse_is_the_mean_squared_gap_to_the_clean_target(tmp_path):
    # k = 0 is the benchmark's own fit: the same model as perfbench's fit of that set
    m = quality.measure("fit_1d", TINY, ks=(0,))
    state = quality.worker.setup_fits("fit_1d", quality.TEST_SEED, TINY, tmp_path)
    op = quality.worker.fit_op(state, 0, "symmetric", TINY)
    rec, = (r for r in m["records"] if r["variant"] == "symmetric")
    assert rec["excess_mse"] == pytest.approx(op["mse"], rel=1e-9)


def test_at_scale_prints_a_row_per_size(capsys):
    # The tool reads the stage1/stage2 log lines through quality.solve_lines.
    assert at_scale.main(["--sizes", "64"]) == 0
    row = capsys.readouterr().out.splitlines()[-1]
    m = re.fullmatch(r"\| 64 \| (\d+) \| (\S+) s \| (\S+) s, (\d+) steps \| (\S+) s \| (\S+) s \|",
                     row)
    assert m, row
    K, fit_s, stage1_s, steps, stage2_s, first_mu_s = m.groups()
    assert int(K) >= 1 and int(steps) >= 1
    assert min(float(t) for t in (fit_s, stage1_s, stage2_s, first_mu_s)) > 0.0


def test_compare_flags_a_worse_pooled_median():
    before = {"workload": "fit_1d", "records": [
        {"variant": "v", "set": s, "k": k, "excess_mse": 1.0 + 0.1 * k + s}
        for s in (0, 1) for k in (0, 1, 2, 3)]}
    worse = {**before, "records": [{**r, "excess_mse": r["excess_mse"] + 0.2}
                                   for r in before["records"]]}
    better = {**before, "records": [{**r, "excess_mse": r["excess_mse"] - 0.2}
                                    for r in before["records"]]}
    assert quality.compare(before, better)[1]
    text, passed = quality.compare(before, worse)
    assert not passed and "FAIL" in text
    with pytest.raises(ValueError):
        quality.compare(before, {**before, "records": before["records"][1:]})
