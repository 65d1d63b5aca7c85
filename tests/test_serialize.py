import json

import numpy as np
import pytest

from dcreg import features
from dcreg.data import Dataset, apply_scaling
from dcreg.fit import FitConfig, fit_dcf
from dcreg.model import (COMPLEMENT, CONVEX_NORM, CONVEX_PLUS, MAX_MIN_AFFINE, SINGLE,
                         SYMMETRIC, DcComponent, DcModel, eval_model)
from dcreg.serialize import (FORMAT_VERSION, ModelFormatError, load_bundle,
                             load_model, save_model)


def _dataset(seed=0, n=120):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0, 6, (n, 1))
    y = X[:, 0] * np.sin(X[:, 0]) + 0.05 * rng.standard_normal(n)
    return Dataset(X, y)


@pytest.mark.parametrize("cfg", [
    FitConfig(variant=SINGLE, kind=features.L2, seed=1),
    FitConfig(variant=SYMMETRIC, kind=features.LINF, seed=2),
    FitConfig(variant=MAX_MIN_AFFINE, kind=features.LINF, seed=3),
], ids=["fit_dcf-cfg0", "fit_symmetric-cfg1", "fit_max_min_affine-cfg2"])
def test_round_trip_bitexact_eval(tmp_path, cfg):
    ds = _dataset()
    result = fit_dcf(ds, cfg)
    path = tmp_path / "model.json"
    save_model(result.final_model, path)
    loaded = load_model(path)
    grid = np.linspace(-1, 7, 500)[:, None]
    a = eval_model(result.final_model, grid)
    b = eval_model(loaded, grid)
    assert np.max(np.abs(a - b)) <= 1e-15
    # shortest-repr doubles round-trip exactly
    assert np.array_equal(result.final_model.component.weights,
                          loaded.component.weights)


def test_round_trip_scaling_spec(tmp_path):
    ds = _dataset(seed=5)
    scaled, spec = apply_scaling(ds, "mm")
    result = fit_dcf(scaled, FitConfig(seed=4))
    path = tmp_path / "model.json"
    save_model(result.final_model, path, scaling_spec=spec)
    model, loaded_spec = load_bundle(path)
    assert loaded_spec.mode == "mm"
    assert np.array_equal(loaded_spec.shift, spec.shift)
    assert loaded_spec.y_std == spec.y_std


def test_unknown_format_version(tmp_path):
    ds = _dataset(seed=6, n=60)
    result = fit_dcf(ds, FitConfig(seed=5))
    path = tmp_path / "model.json"
    save_model(result.final_model, path)
    payload = json.loads(path.read_text())
    payload["format_version"] = FORMAT_VERSION + 1
    path.write_text(json.dumps(payload))
    with pytest.raises(ModelFormatError, match="format_version"):
        load_model(path)


def test_truncated_file(tmp_path):
    ds = _dataset(seed=7, n=60)
    result = fit_dcf(ds, FitConfig(seed=6))
    path = tmp_path / "model.json"
    save_model(result.final_model, path)
    text = path.read_text()
    path.write_text(text[:len(text) // 2])
    with pytest.raises(ModelFormatError):
        load_model(path)


def test_schema_violation(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"format_version": 1, "variant": "single"}))
    with pytest.raises(ModelFormatError, match="malformed"):
        load_model(path)


def test_missing_file():
    with pytest.raises(ModelFormatError):
        load_model("/nonexistent/model.json")


def test_non_object_payload(tmp_path):
    path = tmp_path / "model.json"
    path.write_text("[1, 2, 3]")
    with pytest.raises(ModelFormatError):
        load_model(path)


def test_pruned_symmetric_components_survive_round_trip(tmp_path):
    # components referencing different center subsets via per-piece indices
    centers = np.array([[0.0], [1.0], [2.0]])
    comp1 = DcComponent(features.L2, centers, np.array([0.0]),
                        np.array([[1.0, 0.0]]), np.array([1]))
    comp2 = DcComponent(features.L2, centers, np.array([0.0, 0.5]),
                        np.array([[0.0, -1.0], [0.2, 0.0]]), np.array([0, 2]))
    model = DcModel(SYMMETRIC, comp1, second=comp2, offset=0.25)
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    assert np.array_equal(loaded.component.center_idx, [1])
    assert np.array_equal(loaded.second.center_idx, [0, 2])
    grid = np.linspace(-1, 3, 100)[:, None]
    assert np.array_equal(eval_model(model, grid), eval_model(loaded, grid))


def test_round_trip_complement_and_convex(tmp_path):
    ds = _dataset(seed=8)
    comp_result = fit_dcf(ds, FitConfig(variant=COMPLEMENT, seed=9))
    rng = np.random.default_rng(10)
    X2 = rng.uniform(-1, 1, (150, 2))
    ds2 = Dataset(X2, np.sum(X2 * X2, axis=1))
    cvx_result = fit_dcf(ds2, FitConfig(variant=CONVEX_NORM, kind=features.L2, seed=10))
    plus_result = fit_dcf(ds2, FitConfig(variant=CONVEX_PLUS, kind=features.PLUS, seed=11))
    for i, (result, X) in enumerate([(comp_result, ds.X), (cvx_result, X2),
                                     (plus_result, X2)]):
        path = tmp_path / f"m{i}.json"
        save_model(result.final_model, path)
        loaded = load_model(path)
        assert loaded.variant == result.final_model.variant
        assert np.array_equal(eval_model(result.final_model, X),
                              eval_model(loaded, X))
