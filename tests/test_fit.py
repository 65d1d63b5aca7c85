import numpy as np
import pytest

from _helpers import assert_fit_invariants, assert_gradient_matches
from dcreg import features
from dcreg.data import Dataset
from dcreg.fit import (FitConfig, RegParams, STRONG, WEAK,
                       build_initial_objective, build_refine_objective,
                       default_reg_params, finalize, fit_complement,
                       fit_convex, fit_dcf, fit_initial, fit_max_min_affine,
                       fit_symmetric, refine, reg_n_value, theta_fn_value,
                       training_risk_std)
from dcreg.model import (COMPLEMENT, CONVEX_MAX_AFFINE, CONVEX_NORM, CONVEX_PLUS,
                         MAX_MIN_AFFINE, SINGLE, SYMMETRIC, DcModel,
                         eval_max, eval_mma, eval_model, lip_stat,
                         validate_model)
from dcreg.partition import afpc
from dcreg.solver import STOP_REASONS, SolverConfig, penalty_objective
from dcreg.approx import fvu


def _xsinx_dataset(n, sigma=0.1, seed=0, lo=0.0, hi=6.0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(lo, hi, (n, 1))
    y = X[:, 0] * np.sin(X[:, 0])
    if sigma > 0:
        y = y + sigma * rng.standard_normal(n)
    return Dataset(X, y)


def _random_dataset(n, d, seed):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1, 1, (n, d))
    y = np.max(X, axis=1) - 0.5 * np.abs(X[:, 0]) + 0.05 * rng.standard_normal(n)
    return Dataset(X, y)


# ---------------------------------------------------------------------------
# regularization parameters

def test_default_reg_params_formulas():
    n = float(np.exp(2.0))
    reg = default_reg_params(1.0, 2.0, int(round(n)), 1, 2, WEAK)
    # ln(round(e^2)) = ln 7; evaluate with the integer n actually used
    logn = np.log(7)
    assert reg.theta0 == pytest.approx(2.0 * logn, rel=1e-12)
    assert reg.theta3 == pytest.approx(logn, rel=1e-12)
    assert reg.theta1 == pytest.approx(1.0 * 1 * 2 / 7.0, rel=1e-12)


def test_default_reg_params_zero_ry():
    reg = default_reg_params(1.0, 0.0, 100, 2, 3)
    assert reg.theta0 == 0.0


def test_default_reg_params_strong_mode():
    reg = default_reg_params(1.0, 1.0, 100, 1, 4, STRONG)
    assert reg.theta2 == pytest.approx(1.0 / 100.0, abs=0)


def test_default_reg_params_clamp():
    # theta2 never exceeds theta1 / K
    for n, d, K, rx in ((10, 1, 3, 5.0), (50, 2, 7, 0.2), (200, 4, 40, 3.0)):
        for mode in (WEAK, STRONG):
            reg = default_reg_params(rx, 1.0, n, d, K, mode)
            assert reg.theta2 <= reg.theta1 / K + 1e-15


def test_reg_params_validation():
    with pytest.raises(ValueError):
        RegParams(-1.0, 1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        RegParams(0.0, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        RegParams(0.0, 1.0, 0.0, 0.5)


# ---------------------------------------------------------------------------
# stage-1 objective

def test_initial_objective_constant_data_certificate():
    # z=0, b_k=c, w=0 is feasible with zero objective for constant responses
    X = np.linspace(0, 1, 30)[:, None]
    ds = Dataset(X, np.full(30, 4.2))
    part = afpc(X, seed=0)
    reg = default_reg_params(*(0.5, 0.0), 30, 1, part.n_centers)
    obj, cons, layout = build_initial_objective(ds, part, features.L2, reg)
    params = layout.pack(0.0, np.full(part.n_centers, 4.2),
                         np.zeros((part.n_centers, 2)))
    value, _ = obj.evaluate(params)
    assert value == pytest.approx(0.0, abs=1e-24)
    assert cons.max_violation(params) == 0.0


def test_initial_objective_k1_single_norm_constraint():
    X = np.full((5, 1), 2.0)
    ds = Dataset(X, np.arange(5.0))
    part = afpc(X, seed=0)
    assert part.n_centers == 1
    reg = RegParams(0.1, 1.0, 0.01, 2.0)
    _, cons, layout = build_initial_objective(ds, part, features.L2, reg)
    res = cons.residuals(layout.pack(0.0, np.zeros(1), np.zeros((1, 2))))
    # one (trivial) pairwise residual and one norm residual
    assert res.shape == (2,)
    assert res[0] == 0.0


def test_initial_gradient_matches_finite_differences():
    rng = np.random.default_rng(1)
    ds = _random_dataset(60, 2, seed=2)
    part = afpc(ds.X, seed=3)
    reg = default_reg_params(1.0, 1.0, ds.n, ds.d, part.n_centers)
    for kind in (features.L2, features.PLUS):
        obj, cons, layout = build_initial_objective(ds, part, kind, reg)
        pen = penalty_objective(obj, cons, 100.0)
        points = [rng.standard_normal(layout.dim) * 0.5 for _ in range(5)]
        assert_gradient_matches(pen, points)


def test_initial_gradient_symmetric_and_cones():
    rng = np.random.default_rng(4)
    ds = _random_dataset(50, 2, seed=5)
    part = afpc(ds.X, seed=6)
    reg = default_reg_params(1.0, 1.0, ds.n, ds.d, part.n_centers)
    cases = [(SYMMETRIC, features.LINF), (MAX_MIN_AFFINE, features.LINF),
             (CONVEX_MAX_AFFINE, features.L2), (CONVEX_NORM, features.L2),
             (CONVEX_PLUS, features.PLUS)]
    for variant, kind in cases:
        obj, cons, layout = build_initial_objective(ds, part, kind, reg, variant)
        pen = penalty_objective(obj, cons, 50.0)
        points = [rng.standard_normal(layout.dim) * 0.4 for _ in range(3)]
        assert_gradient_matches(pen, points)


def test_fit_initial_constant_data():
    X = np.linspace(0, 2, 40)[:, None]
    ds = Dataset(X, np.full(40, 1.5))
    part = afpc(X, seed=0)
    reg = default_reg_params(1.0, 0.0, 40, 1, part.n_centers)
    model, info = fit_initial(ds, part, features.L2, reg)
    preds = eval_model(model, X)
    assert np.allclose(preds, 1.5, atol=1e-6)
    assert lip_stat(model) <= 1e-6


def test_fit_initial_certificate_inequality():
    for seed in range(5):
        ds = _random_dataset(120, 2, seed=seed)
        part = afpc(ds.X, seed=seed)
        reg = default_reg_params(*_radii(ds), ds.n, ds.d, part.n_centers)
        model, info = fit_initial(ds, part, features.LINF, reg)
        cert = float(np.mean((ds.y - ds.y.mean()) ** 2))
        assert info["penalized_objective"] <= cert + 1e-12
        assert info["certificate"] == pytest.approx(cert, rel=1e-12)
        assert info["violation"] <= 1e-4


def _radii(ds):
    from dcreg.partition import data_radii
    return data_radii(ds)


def test_fit_initial_complement_fits_the_negated_max_form():
    # A concave target: the complement's one component enters with sign -1.
    X = np.linspace(-1, 1, 120)[:, None]
    ds = Dataset(X, 1.0 - 2.0 * np.abs(X[:, 0]))
    part = afpc(X, seed=2)
    reg = default_reg_params(*_radii(ds), ds.n, 1, part.n_centers, WEAK)
    model, info = fit_initial(ds, part, features.L2, reg, variant=COMPLEMENT)
    assert model.variant == COMPLEMENT
    cert = float(np.mean((ds.y - ds.y.mean()) ** 2))
    assert info["certificate"] == pytest.approx(cert, rel=1e-12)
    assert info["violation"] <= 1e-4
    mse = float(np.mean((eval_model(model, X) - ds.y) ** 2))
    assert mse <= 1e-3 * cert


def test_fit_initial_noiseless_linear():
    X = np.linspace(-1, 3, 200)[:, None]
    ds = Dataset(X, 2.0 * X[:, 0] + 1.0)
    part = afpc(X, seed=1)
    assert part.n_centers >= 2
    reg = default_reg_params(*_radii(ds), ds.n, 1, part.n_centers, WEAK)
    model, info = fit_initial(ds, part, features.L2, reg)
    mse = float(np.mean((eval_model(model, X) - ds.y) ** 2))
    assert mse <= 1e-4


# ---------------------------------------------------------------------------
# refinement regularizer

def _toy_model(weights):
    comp_centers = np.zeros((len(weights), 1))
    comp_centers[:, 0] = np.arange(len(weights))
    from dcreg.model import DcComponent
    comp = DcComponent(features.L2, comp_centers,
                       np.zeros(len(weights)), np.asarray(weights, float))
    return DcModel(SINGLE, comp)


def test_reg_n_value_at_initial_is_ridge_only():
    model = _toy_model([[1.0, 0.0], [0.5, 0.5]])
    reg = RegParams(0.0, 1.0, 0.1, 2.0)
    value = reg_n_value(model, model, reg, risk_initial=0.3)
    assert value == pytest.approx(0.1 * (1.0 + 0.5), rel=1e-12)


def test_reg_n_value_degenerate_zero_slopes():
    model = _toy_model([[0.0, 0.0]])
    reg = RegParams(0.0, 1.0, 0.25, 1.5)
    assert theta_fn_value(model, reg, 1.0) == 0.0
    other = _toy_model([[3.0, 4.0]])
    assert reg_n_value(other, model, reg, 1.0) == pytest.approx(0.25 * 25.0, rel=1e-12)


def test_reg_n_value_hinge_active():
    initial = _toy_model([[1.0, 0.0]])
    reg = RegParams(0.0, 1.0, 0.0, 1.0)
    doubled = _toy_model([[3.0, 0.0]])
    theta = theta_fn_value(initial, reg, risk_initial=0.5)
    assert theta == pytest.approx(0.5, rel=1e-12)   # (0.5 + 0) / 1
    value = reg_n_value(doubled, initial, reg, 0.5)
    assert value == pytest.approx(0.5 * (3.0 - 1.0) ** 2, rel=1e-12)


# ---------------------------------------------------------------------------
# refinement

def test_refine_zero_slope_initial_returns_unchanged():
    X = np.linspace(0, 1, 20)[:, None]
    ds = Dataset(X, np.full(20, 2.0))
    model = _toy_model([[0.0, 0.0]])
    reg = RegParams(0.0, 1.0, 0.1, 2.0)
    refined, report, accepted = refine(model, ds, reg)
    assert refined is model
    assert not accepted


def test_refine_never_increases_criterion():
    ds = _xsinx_dataset(150, sigma=0.1, seed=7)
    part = afpc(ds.X, seed=8)
    reg = default_reg_params(*_radii(ds), ds.n, 1, part.n_centers)
    initial, _ = fit_initial(ds, part, features.LINF, reg)
    risk0 = training_risk_std(initial, ds.X, ds.y)
    rr0 = risk0 + reg_n_value(initial, initial, reg, risk0)
    refined, _, accepted = refine(initial, ds, reg)
    rr1 = (training_risk_std(refined, ds.X, ds.y)
           + reg_n_value(refined, initial, reg, risk0))
    assert rr1 <= rr0 + 1e-10


def test_refine_gradient_matches_finite_differences():
    rng = np.random.default_rng(9)
    ds = _random_dataset(70, 2, seed=10)
    part = afpc(ds.X, seed=11)
    reg = default_reg_params(*_radii(ds), ds.n, 2, part.n_centers)
    for variant, kind in ((SINGLE, features.L2), (SYMMETRIC, features.LINF),
                          (MAX_MIN_AFFINE, features.LINF), (SINGLE, features.PLUS),
                          (CONVEX_PLUS, features.PLUS), (CONVEX_MAX_AFFINE, features.LINF)):
        initial, _ = fit_initial(ds, part, kind, reg, variant=variant)
        obj, x0 = build_refine_objective(initial, ds, reg)
        points = [x0 + 0.3 * rng.standard_normal(x0.size) for _ in range(3)]
        # also exercise the hinge branch with inflated parameters
        points.append(x0 * (reg.theta3 + 2.0) + 0.1 * rng.standard_normal(x0.size))
        assert_gradient_matches(obj, points)


def test_refine_improves_noiseless_grid_fvu():
    grid = np.linspace(0, 6, 400)[:, None]
    truth = grid[:, 0] * np.sin(grid[:, 0])
    ds = Dataset(grid, truth)
    part = afpc(ds.X, seed=0)
    reg = default_reg_params(*_radii(ds), ds.n, 1, part.n_centers, WEAK)
    initial, _ = fit_initial(ds, part, features.LINF, reg)
    refined, _, accepted = refine(initial, ds, reg)
    assert accepted
    fvu_initial = fvu(eval_model(initial, grid), truth)
    fvu_refined = fvu(eval_model(refined, grid), truth)
    assert fvu_refined < fvu_initial


# ---------------------------------------------------------------------------
# finalization

def test_finalize_prunes_and_centers():
    ds = _xsinx_dataset(120, sigma=0.05, seed=12)
    part = afpc(ds.X, seed=13)
    reg = default_reg_params(*_radii(ds), ds.n, 1, part.n_centers)
    initial, _ = fit_initial(ds, part, features.L2, reg)
    refined, _, _ = refine(initial, ds, reg)
    final = finalize(refined, ds)
    assert final.component.n_pieces <= refined.component.n_pieces
    assert np.mean(eval_model(final, ds.X)) == pytest.approx(np.mean(ds.y), abs=1e-10)
    risk_refined = float(np.mean((eval_model(refined, ds.X) - ds.y) ** 2))
    risk_final = float(np.mean((eval_model(final, ds.X) - ds.y) ** 2))
    assert risk_final <= risk_refined + 1e-12


# ---------------------------------------------------------------------------
# full pipeline, all variants

def test_fit_dcf_constant_data():
    X = np.linspace(0, 1, 25)[:, None]
    ds = Dataset(X, np.full(25, -3.0))
    result = fit_dcf(ds, FitConfig(seed=0))
    assert np.allclose(eval_model(result.final_model, X), -3.0, atol=1e-8)


def test_fit_dcf_invariants_single():
    ds = _xsinx_dataset(200, seed=14)
    result = fit_dcf(ds, FitConfig(variant=SINGLE, kind=features.LINF, seed=3))
    assert_fit_invariants(result, ds)
    validate_model(result.final_model)


def test_fit_dcf_deterministic():
    ds = _xsinx_dataset(150, seed=15)
    cfg = FitConfig(variant=SYMMETRIC, seed=21)
    r1 = fit_dcf(ds, cfg)
    r2 = fit_dcf(ds, cfg)
    assert np.array_equal(r1.final_model.component.biases,
                          r2.final_model.component.biases)
    assert np.array_equal(r1.final_model.component.weights,
                          r2.final_model.component.weights)
    assert r1.risk_reg_chain == r2.risk_reg_chain
    assert r1.initial_report == r2.initial_report


def test_fit_dcf_noiseless_grid_symmetric_fvu():
    grid = np.linspace(0, 6, 1000)[:, None]
    truth = grid[:, 0] * np.sin(grid[:, 0])
    result = fit_dcf(Dataset(grid, truth),
                     FitConfig(variant=SYMMETRIC, kind=features.LINF, seed=0))
    preds = eval_model(result.final_model, grid)
    assert fvu(preds, truth) < 0.05


def test_fit_complement_identities():
    ds = _xsinx_dataset(150, seed=16)
    cfg = FitConfig(variant=SINGLE, kind=features.LINF, seed=5)
    direct = fit_dcf(Dataset(ds.X, -ds.y), cfg)
    comp = fit_complement(ds, cfg)
    grid = np.linspace(0, 6, 200)[:, None]
    assert np.allclose(eval_model(comp.final_model, grid),
                       -eval_model(direct.final_model, grid), atol=1e-12)
    assert np.mean(eval_model(comp.final_model, ds.X)) == pytest.approx(
        np.mean(ds.y), abs=1e-10)
    assert_fit_invariants(comp, ds)


def test_fit_complement_constant_data():
    X = np.linspace(0, 1, 30)[:, None]
    ds = Dataset(X, np.full(30, 2.5))
    result = fit_complement(ds, FitConfig(seed=1))
    assert np.allclose(eval_model(result.final_model, X), 2.5, atol=1e-8)


def test_fit_symmetric_bias_identity_and_invariants():
    ds = _xsinx_dataset(200, seed=17)
    result = fit_symmetric(ds, FitConfig(variant=SYMMETRIC, kind=features.LINF, seed=6))
    b1 = result.final_model.component.biases.mean()
    b2 = result.final_model.second.biases.mean()
    assert abs(b1 + b2) <= 1e-10
    assert_fit_invariants(result, ds)


def test_fit_symmetric_constant_data():
    X = np.linspace(0, 1, 20)[:, None]
    ds = Dataset(X, np.full(20, 7.0))
    result = fit_symmetric(ds, FitConfig(variant=SYMMETRIC, seed=2))
    assert np.allclose(eval_model(result.final_model, X), 7.0, atol=1e-8)


def test_fit_symmetric_beats_single_on_grid():
    grid = np.linspace(0, 6, 500)[:, None]
    truth = grid[:, 0] * np.sin(grid[:, 0])
    ds = Dataset(grid, truth)
    single = fit_dcf(ds, FitConfig(variant=SINGLE, kind=features.LINF, seed=0))
    sym = fit_dcf(ds, FitConfig(variant=SYMMETRIC, kind=features.LINF, seed=0))
    fvu_single = fvu(eval_model(single.final_model, grid), truth)
    fvu_sym = fvu(eval_model(sym.final_model, grid), truth)
    assert fvu_sym <= fvu_single


def test_fit_max_min_affine():
    ds = _xsinx_dataset(150, seed=18)
    result = fit_max_min_affine(ds, FitConfig(seed=7))
    assert result.final_model.variant == MAX_MIN_AFFINE
    # converted initial equals the source max-norm component pointwise
    comp = result.initial_model.component
    assert np.all(comp.weights[:, comp.d] <= 0.0)
    grid = np.linspace(0, 6, 300)[:, None]
    Xs = result.initial_model.transform_x(grid)
    from dcreg.model import to_max_min_affine
    diff = eval_mma(to_max_min_affine(comp), Xs) - eval_max(comp, Xs)
    assert np.max(np.abs(diff)) < 1e-10
    assert np.allclose(eval_mma(result.initial_model.mma, Xs),
                       eval_max(comp, Xs), atol=1e-10)
    assert result.cone_violation_max <= 1e-6
    assert result.constraint_violation_max <= 1e-4
    assert_fit_invariants(result, ds)


def test_fit_convex_variants_on_affine_target():
    rng = np.random.default_rng(19)
    X = rng.uniform(-1, 1, (150, 2))
    y = 1.0 + X @ np.array([2.0, -1.0])
    ds = Dataset(X, y)
    for variant, kind in ((CONVEX_MAX_AFFINE, features.L2),
                          (CONVEX_NORM, features.LINF),
                          (CONVEX_PLUS, features.PLUS)):
        result = fit_convex(ds, FitConfig(variant=variant, kind=kind, seed=8,
                                          theta2_mode=WEAK))
        mse = float(np.mean((eval_model(result.final_model, X) - y) ** 2))
        assert mse <= 1e-3, f"{variant}: affine target mse {mse}"
        validate_model(result.final_model)


def test_fit_convex_midpoint_convexity():
    rng = np.random.default_rng(20)
    X = rng.uniform(-1, 1, (300, 2))
    y = np.sum(X * X, axis=1)
    ds = Dataset(X, y)
    for variant, kind in ((CONVEX_MAX_AFFINE, features.L2),
                          (CONVEX_NORM, features.L2),
                          (CONVEX_PLUS, features.PLUS)):
        result = fit_convex(ds, FitConfig(variant=variant, kind=kind, seed=9))
        a = rng.uniform(-1, 1, (2000, 2))
        b = rng.uniform(-1, 1, (2000, 2))
        mid = eval_model(result.final_model, 0.5 * (a + b))
        avg = 0.5 * (eval_model(result.final_model, a)
                     + eval_model(result.final_model, b))
        assert np.max(mid - avg) <= 1e-10, variant
        assert result.cone_violation_max <= 1e-6
        assert result.constraint_violation_max <= 1e-4


def test_fit_convex_requires_convex_variant():
    ds = _xsinx_dataset(30, seed=21)
    with pytest.raises(ValueError):
        fit_convex(ds, FitConfig(variant=SINGLE))


def test_fit_config_validation():
    with pytest.raises(ValueError):
        FitConfig(variant=MAX_MIN_AFFINE, kind=features.L2)
    with pytest.raises(ValueError):
        FitConfig(variant=CONVEX_PLUS, kind=features.L2)
    with pytest.raises(ValueError):
        FitConfig(variant=CONVEX_MAX_AFFINE, kind=features.PLUS)


def test_fit_requires_two_samples():
    with pytest.raises(ValueError):
        fit_dcf(Dataset(np.zeros((1, 1)), np.zeros(1)), FitConfig())


def test_bias_separation_arithmetic_property():
    # with mean(a) + mean(b) = 0 and |a_i - b_j - c| <= beta for all pairs:
    # |a_i - c/2| and |b_j + c/2| are at most 3*beta/2
    rng = np.random.default_rng(22)
    for _ in range(10_000):
        na, nb = rng.integers(1, 6, size=2)
        a = rng.standard_normal(na) * rng.uniform(0.1, 10)
        b = rng.standard_normal(nb) * rng.uniform(0.1, 10)
        shift = 0.5 * (a.mean() + b.mean())
        a -= shift
        b -= shift
        c = float(rng.standard_normal() * 3)
        beta = float(np.max(np.abs(a[:, None] - b[None, :] - c)))
        lhs = max(np.max(np.abs(a - c / 2.0)), np.max(np.abs(b + c / 2.0)))
        assert lhs <= 1.5 * beta + 1e-12


def test_fit_diagnostics_report():
    from dcreg.fit import fit_diagnostics
    ds = _xsinx_dataset(150, seed=24)
    result = fit_dcf(ds, FitConfig(variant=SINGLE, kind=features.LINF, seed=5))
    report = fit_diagnostics(result, ds)
    assert abs(report["mean_prediction"] - report["y_mean"]) <= 1e-10
    assert report["partition_gap_min"] >= -1e-12
    assert report["partition_gap_max"] <= report["partition_gap_bound"] + 1e-9


@pytest.mark.parametrize("kind", [features.L1, features.L2, features.LINF,
                                  features.PLUS])
@pytest.mark.parametrize("variant", [SINGLE, SYMMETRIC])
def test_fit_kind_variant_matrix(kind, variant):
    ds = _random_dataset(120, 2, seed=30)
    result = fit_dcf(ds, FitConfig(variant=variant, kind=kind, seed=6))
    assert_fit_invariants(result, ds)
    validate_model(result.final_model)


def test_fit_constant_covariates():
    # all-identical covariates: one cell, zero slopes, constant prediction
    rng = np.random.default_rng(31)
    X = np.ones((50, 2)) * 1.7
    y = 3.0 + 0.5 * rng.standard_normal(50)
    result = fit_dcf(Dataset(X, y), FitConfig(variant=SINGLE, seed=7))
    assert result.partition.n_centers == 1
    assert result.partition.eps_n == 0.0
    preds = eval_model(result.final_model, X)
    assert np.allclose(preds, np.mean(y), atol=1e-8)
    assert result.lip_chain[2] <= 1e-8


def _dense_max_form_objective(initial, ds, reg, variant):
    """The stage-2 max-form objective on the dense (n, K, slope_dim) feature tensor."""
    from dcreg.fit import _RefineProblem, _reg_terms
    cfg = SolverConfig()
    risk0 = training_risk_std(initial, ds.X, ds.y)
    problem = _RefineProblem(initial, ds.X, ds.y, reg, cfg,
                             theta_fn_value(initial, reg, risk0), lip_stat(initial), variant)
    layout, n, K = problem.layout, ds.n, problem.layout.n_pieces
    phi = features.phi_tensor(problem.kind, ds.X, problem.centers)[:, :, :problem.slope_dim]

    def softmax_rows(A):
        E = np.exp((A - A.max(axis=1, keepdims=True)) / cfg.mu)
        return E / E.sum(axis=1, keepdims=True)

    def evaluate(params):
        _, blocks = layout.unpack(params)
        (b1, W1), (b2, W2) = blocks[0], (blocks[1:] or [(None, None)])[0]
        A1 = b1[None, :] + np.einsum("nkj,kj->nk", phi, W1)
        r = A1.max(axis=1) - ds.y
        if layout.n_components == 2:
            A2 = b2[None, :] + np.einsum("nkj,kj->nk", phi, W2)
            r = r - A2.max(axis=1)
        value = float(np.mean(r * r))
        coef1 = (2.0 / n) * r[:, None] * softmax_rows(A1)
        gW1 = np.einsum("nk,nkj->kj", coef1, phi)
        rv, rg = _reg_terms(np.vstack([W1] if W2 is None else [W1, W2]),
                            problem.theta, problem.c0, reg.theta2, cfg.mu)
        value += rv
        gW1 += rg[:K]
        value += problem.cone.penalty(W1, problem.d, cfg.rho_pen, gW1)
        parts = [coef1.sum(axis=0), gW1.ravel()]
        if layout.n_components == 2:
            coef2 = -(2.0 / n) * r[:, None] * softmax_rows(A2)
            parts += [coef2.sum(axis=0),
                      (np.einsum("nk,nkj->kj", coef2, phi) + rg[K:]).ravel()]
        return value, np.concatenate(parts)

    return problem.objective(), evaluate, problem.x0


def test_refine_objective_matches_dense_tensor_reference():
    rng = np.random.default_rng(32)
    for d in (1, 3):
        ds = _random_dataset(90, d, seed=33 + d)
        part = afpc(ds.X, seed=34)
        reg = default_reg_params(*_radii(ds), ds.n, d, part.n_centers)
        for kind in features.FEATURE_KINDS:
            convex = [CONVEX_PLUS] if kind == features.PLUS else [CONVEX_MAX_AFFINE, CONVEX_NORM]
            for variant in [SINGLE, SYMMETRIC, *convex]:
                initial, _ = fit_initial(ds, part, kind, reg, SolverConfig(max_iters=50),
                                         variant)
                obj, dense, x0 = _dense_max_form_objective(initial, ds, reg, variant)
                # the second point also exercises the hinge branch
                for x in (x0, x0 * (reg.theta3 + 2.0) + 0.1 * rng.standard_normal(x0.size)):
                    value, grad = obj.evaluate(x)
                    ref_value, ref_grad = dense(x)
                    assert value == pytest.approx(ref_value, rel=1e-12)
                    tol = 1e-12 * (1.0 + np.max(np.abs(ref_grad)))
                    assert np.max(np.abs(grad - ref_grad)) <= tol


def test_fit_does_not_depend_on_input_layout():
    rng = np.random.default_rng(35)
    X = rng.uniform(-1, 1, (150, 2))
    y = np.max(X, axis=1) - 0.5 * np.abs(X[:, 0]) + 0.05 * rng.standard_normal(150)
    c_order = Dataset(np.ascontiguousarray(X), y)
    f_order = Dataset(np.asfortranarray(X), y)
    assert c_order.X.flags.f_contiguous and np.array_equal(c_order.X, X)
    for variant, kind in ((SINGLE, features.L2), (SYMMETRIC, features.LINF)):
        config = FitConfig(variant=variant, kind=kind, seed=3)
        a = fit_dcf(c_order, config).final_model
        b = fit_dcf(f_order, config).final_model
        assert a.offset == b.offset
        for ca, cb in zip(a.components(), b.components()):
            assert np.array_equal(ca.biases, cb.biases)
            assert np.array_equal(ca.weights, cb.weights)
            assert np.array_equal(ca.center_idx, cb.center_idx)


def test_solve_diagnostics_reach_the_fit_log(caplog):
    ds = _xsinx_dataset(80, seed=36)
    with caplog.at_level("INFO", logger="dcreg.fit"):
        result = fit_dcf(ds, FitConfig(variant=SINGLE, kind=features.LINF, seed=1))
    for stage, report in (("fit_initial", result.initial_report),
                          ("refine", result.refine_report)):
        assert report.stop_reason in STOP_REASONS
        assert report.evaluations > report.iterations
        line = next(r.getMessage() for r in caplog.records if r.getMessage().startswith(stage))
        assert f"evals={report.evaluations} stop={report.stop_reason}" in line
