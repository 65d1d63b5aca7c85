"""The variant table: what each row accepts, and properties of models built through it."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from dcreg import features
from dcreg.data import Dataset
from dcreg.fit import FitConfig, fit_dcf
from dcreg.model import (VARIANT_TABLE, VARIANTS, DcComponent, DcModel, eval_max,
                         eval_mma, eval_model, prune, to_max_min_affine,
                         variant_spec)
from dcreg.serialize import ModelFormatError, load_model, save_model
from dcreg.solver import SolverConfig

NORM_KINDS = (features.L1, features.L2, features.LINF)
EXPECTED_KINDS = {
    "single": features.FEATURE_KINDS,
    "complement": features.FEATURE_KINDS,
    "symmetric": features.FEATURE_KINDS,
    "max_min_affine": (features.LINF,),
    "convex_max_affine": NORM_KINDS,
    "convex_norm": NORM_KINDS,
    "convex_plus": (features.PLUS,),
}

PROPERTY = settings(max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])


def test_table_has_one_row_per_variant():
    assert tuple(VARIANT_TABLE) == VARIANTS
    assert {name: spec.kinds for name, spec in VARIANT_TABLE.items()} == EXPECTED_KINDS
    assert sum(len(kinds) for kinds in EXPECTED_KINDS.values()) == 20


@pytest.mark.parametrize("kind", features.FEATURE_KINDS)
@pytest.mark.parametrize("variant", VARIANTS)
def test_fit_config_accepts_exactly_the_table_kinds(variant, kind):
    if kind in EXPECTED_KINDS[variant]:
        assert FitConfig(variant=variant, kind=kind).kind == kind
    else:
        with pytest.raises(ValueError):
            FitConfig(variant=variant, kind=kind)


def test_unknown_variant_is_rejected():
    with pytest.raises(ValueError, match="unknown variant"):
        variant_spec("double")
    with pytest.raises(ValueError, match="unknown variant"):
        FitConfig(variant="double")


@st.composite
def models(draw, variants=VARIANTS):
    """A random model of any variant, cone-feasible by construction through its row."""
    variant = draw(st.sampled_from(variants))
    spec = variant_spec(variant)
    kind = draw(st.sampled_from(spec.kinds))
    d = draw(st.integers(1, 3))
    n_centers = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    centers = rng.standard_normal((n_centers, d))
    comps = []
    for _ in spec.signs:
        comp = spec.component_from(kind, centers, rng.standard_normal(n_centers),
                                   rng.standard_normal((n_centers, spec.slope_dim(kind, d))))
        keep = np.flatnonzero(rng.random(n_centers) < 0.7)
        comps.append(comp.take(keep if keep.size else [0]))
    return DcModel(variant, *comps, offset=float(rng.standard_normal()),
                   mma=to_max_min_affine(comps[0]) if spec.mma else None,
                   x_shift=rng.standard_normal(d), x_scale=rng.uniform(0.5, 2.0, d),
                   y_shift=float(rng.standard_normal()), y_scale=float(rng.uniform(0.5, 2.0)))


def _inputs(model, n=64, seed=0):
    return np.random.default_rng(seed).uniform(-3.0, 3.0, (n, model.d))


@PROPERTY
@given(model=models())
def test_save_load_round_trip_is_bit_exact(tmp_path, model):
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.variant == model.variant
    assert loaded.offset == model.offset
    for a, b in zip(model.components(), loaded.components()):
        assert a.kind == b.kind
        for field in ("centers", "biases", "weights", "center_idx"):
            assert np.array_equal(getattr(a, field), getattr(b, field))
    if model.mma is not None:
        assert np.array_equal(model.mma.biases, loaded.mma.biases)
        assert np.array_equal(model.mma.slopes, loaded.mma.slopes)
    X = _inputs(model)
    assert np.array_equal(eval_model(model, X), eval_model(loaded, X))


CONE_VARIANTS = tuple(name for name, spec in VARIANT_TABLE.items()
                      if spec.cone.columns(1) or not spec.norm_column)


@PROPERTY
@given(model=models(CONE_VARIANTS), data=st.data())
def test_a_cone_violation_is_rejected_at_load(tmp_path, model, data):
    spec, d = model.spec, model.d
    comp = model.component
    k = data.draw(st.integers(0, comp.n_pieces - 1))
    W = comp.weights.copy()
    if not spec.norm_column:
        W[k, d] = 0.25                       # the pinned norm coefficient
    else:
        excess = spec.cone.residuals(W, d).reshape(len(W), -1)   # one column per constraint
        j = data.draw(st.integers(0, excess.shape[1] - 1))
        col = spec.cone.columns(d)[0]
        col = col if isinstance(col, int) else col.start + j
        W[k, col] += spec.cone.sign * (0.25 - excess[k, j])
        assert spec.cone.residuals(W, d).max() > 0.0
    # The component alone leaves the cone: max-min-affine blocks exist only inside it.
    bad = replace(model, component=DcComponent(comp.kind, comp.centers, comp.biases, W,
                                               comp.center_idx))
    path = tmp_path / "model.json"
    save_model(bad, path)
    with pytest.raises(ModelFormatError):
        load_model(path)


@pytest.mark.parametrize("variant", CONE_VARIANTS)
def test_projected_slopes_pass_the_load_check(variant):
    # The shares of the pair projection round, and the load check is strict.
    spec = variant_spec(variant)
    rng = np.random.default_rng(5)
    for d in (1, 2, 3):
        kind = spec.kinds[0]
        W = 10.0 ** rng.uniform(-3, 3, (50, spec.slope_dim(kind, d)))
        W *= rng.choice([-1.0, 1.0], W.shape)
        comp = spec.component_from(kind, np.zeros((50, d)), np.zeros(50), W)
        spec.cone.check(comp.weights, d, variant)
        assert np.all(comp.weights[:, d] == 0.0) or spec.norm_column


@PROPERTY
@given(model=models(), seed=st.integers(0, 1000))
def test_prune_keeps_every_training_prediction(model, seed):
    X = _inputs(model, n=40, seed=seed)
    Xc = model.transform_x(X)
    pruned = model.with_components([prune(c, Xc) for c in model.components()])
    assert np.array_equal(eval_model(pruned, X), eval_model(model, X))


@PROPERTY
@given(model=models(("max_min_affine",)))
def test_max_min_affine_form_matches_the_max_form_on_a_grid(model):
    comp = model.component
    axes = [np.linspace(-3.0, 3.0, 9)] * comp.d
    grid = np.stack([a.ravel() for a in np.meshgrid(*axes)], axis=1)
    want = eval_max(comp, grid)
    got = eval_mma(to_max_min_affine(comp), grid)
    scale = 1.0 + np.max(np.abs(want))
    assert np.max(np.abs(got - want)) <= 1e-12 * scale
    assert np.array_equal(eval_mma(model.mma, grid), got)


@pytest.mark.parametrize("variant", VARIANTS)
@settings(max_examples=4, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_final_prediction_mean_is_the_training_mean(variant, data, seed):
    # The centering identity holds for any stage-1 and stage-2 outcome, so short
    # solves keep each example fast.
    kind = data.draw(st.sampled_from(variant_spec(variant).kinds))
    n, d = data.draw(st.integers(2, 30)), data.draw(st.integers(1, 3))
    rng = np.random.default_rng(seed)
    X = rng.uniform(-2.0, 2.0, (n, d)) * rng.uniform(0.01, 100.0, d)
    y = np.sin(X @ rng.standard_normal(d)) * rng.uniform(0.01, 10.0) + rng.uniform(-50.0, 50.0)
    result = fit_dcf(Dataset(X, y), FitConfig(variant=variant, kind=kind, seed=seed % 1000,
                                              solver=SolverConfig(max_iters=50)))
    ybar = float(np.mean(y))
    assert abs(float(np.mean(eval_model(result.final_model, X))) - ybar) <= 1e-9 * (1.0 + abs(ybar))
