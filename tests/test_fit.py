import dataclasses
import itertools
import sys
from pathlib import Path

import numpy as np
import pytest

from _helpers import (assert_fit_invariants, assert_gradient_matches, assert_same_bits,
                      assert_thunk_survives_a_rejected_trial, build_initial_objective,
                      build_refine_objective, dense_generalized_hessian, dense_initial_objective,
                      fit_diagnostics, phi_tensor, reference_cone_penalty,
                      reference_initial_objective, recording_solves,
                      reference_max_form_objective, reference_refine_hessian,
                      reference_reg_terms, scipy_initial_minimum,
                      softmax_smooth, value_and_gradient)
from dcreg import features, fit
from dcreg.data import Dataset
from dcreg.fit import (MUS, RHO_PEN, FitConfig, ParamLayout, RegParams, STRONG, WEAK,
                       _InitialProblem, _PieceKernel, _RefineProblem, _reg_terms,
                       default_reg_params, finalize, fit_dcf, fit_initial, refine)
from dcreg.model import (COMPLEMENT, CONVEX_MAX_AFFINE, CONVEX_NORM, CONVEX_PLUS,
                         MAX_MIN_AFFINE, NO_CONE, SINGLE, SYMMETRIC, VARIANT_TABLE, DcModel,
                         eval_max, eval_mma, eval_model, lip_stat, slope_rows,
                         validate_model)
from dcreg.partition import afpc
from dcreg.serialize import load_model, save_model
from dcreg.solver import (_EXP_FLOOR, GRAD_NORM_TOL, NEWTON_SHIFT, STOP_REASONS, SolverConfig,
                          newton_minimize, softmax_columns)
from dcreg.approx import fvu

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from worker import dma_target, normsq  # noqa: E402


def _xsinx_dataset(n, sigma=0.1, seed=0, lo=0.0, hi=6.0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(lo, hi, (n, 1))
    y = X[:, 0] * np.sin(X[:, 0])
    if sigma > 0:
        y = y + sigma * rng.standard_normal(n)
    return Dataset(X, y)


def _linf_target(X):
    """|x|_inf - 0.5 |x_1|, a piecewise-linear target."""
    return np.max(np.abs(X), axis=1) - 0.5 * np.abs(X[:, 0])


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
    value, _ = value_and_gradient(obj, params)
    assert value == pytest.approx(0.0, abs=1e-24)
    assert cons.max_violation(params) == 0.0


def test_param_layout_pack_is_the_inverse_of_stack():
    x = np.random.default_rng(71).standard_normal(1 + 2 * 5 * (1 + 3))
    for m, with_z in itertools.product((1, 2), (True, False)):
        layout = ParamLayout(5, 3, m, with_z)
        v = x[:layout.dim]
        assert_same_bits(layout.pack(*layout.stack(v)), v, (m, with_z))


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
        pen, _, layout = build_initial_objective(ds, part, kind, reg, rho=100.0)
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
        pen, _, layout = build_initial_objective(ds, part, kind, reg, variant, rho=50.0)
        points = [rng.standard_normal(layout.dim) * 0.4 for _ in range(3)]
        assert_gradient_matches(pen, points)


_PAIRS = [(v, k) for v, spec in VARIANT_TABLE.items() for k in spec.kinds]


@pytest.mark.parametrize("d", [1, 3, 8])
def test_initial_objective_matches_dense_reference(d):
    # Per-cell statistics and the piece kernel against the row-wise least squares
    # and the dense (K, K, slope_dim) tensor, for every (variant, kind) pair.
    rng = np.random.default_rng(50 + d)
    # The isolated last row becomes a center whose cell holds only that row.
    X = np.vstack([rng.uniform(-1, 1, (60, d)), np.full((1, d), 4.0)])
    noisy = np.max(X, axis=1) - 0.5 * np.abs(X[:, 0]) + 0.05 * rng.standard_normal(61)
    for y in (noisy, np.full(61, 2.5)):
        ds = Dataset(X, y)
        part = afpc(ds.X, seed=51)
        assert part.cell_sizes().min() == 1 and part.n_centers >= 2
        reg = default_reg_params(*_radii(ds), ds.n, d, part.n_centers)
        assert len(_PAIRS) == 20
        # At rho = 1 and small parameters the least-squares term dominates.
        for (variant, kind), rho in itertools.product(_PAIRS, (RHO_PEN, 1.0)):
            pen, cons, layout = build_initial_objective(ds, part, kind, reg, variant, rho)
            dense, dense_residuals = dense_initial_objective(ds, part, kind, reg, variant, rho)
            for scale in (0.5, 1e-3):
                x = scale * rng.standard_normal(layout.dim)
                x[0] = abs(x[0])
                value, grad = value_and_gradient(pen, x)
                ref_value, ref_grad = dense(x)
                assert value == pytest.approx(ref_value, rel=1e-12), (variant, kind)
                tol = 1e-12 * (1.0 + np.max(np.abs(ref_grad)))
                assert np.max(np.abs(grad - ref_grad)) <= tol, (variant, kind)
                res, ref_res = cons.residuals(x), dense_residuals(x)
                assert res.shape == ref_res.shape
                assert np.max(np.abs(res - ref_res)) <= 1e-12 * (1.0 + np.max(np.abs(ref_res)))


@pytest.mark.parametrize("d", [1, 3, 8])
def test_stacked_initial_objective_is_bit_identical_to_the_split_reference(d):
    # The one-pass objective over all components against the split base + penalty
    # form it replaced: the same floating-point operations, so the same bits.
    rng = np.random.default_rng(60 + d)
    ds = _random_dataset(70, d, seed=61 + d)
    part = afpc(ds.X, seed=62)
    reg = default_reg_params(*_radii(ds), ds.n, d, part.n_centers)
    for (variant, kind), rho in itertools.product(_PAIRS, (RHO_PEN, 1.0)):
        obj, problem, layout = build_initial_objective(ds, part, kind, reg, variant, rho)
        ref = reference_initial_objective(problem, rho)
        lsq = np.zeros(layout.dim)          # the per-cell least-squares point, first component
        _, B, W = layout.stack(lsq)
        B[0], W[0] = problem.beta[:, 0], problem.beta[:, 1:]
        points = [lsq, problem.certificate_point(),
                  0.5 * rng.standard_normal(layout.dim), 1e-3 * rng.standard_normal(layout.dim)]
        for x, rejected in zip(points, points[1:] + points[:1]):
            value, grad = value_and_gradient(obj, x)
            ref_value, ref_grad = ref(x)
            assert value == ref_value, (variant, kind, rho)
            assert_same_bits(grad, ref_grad, (variant, kind, rho))
            assert_thunk_survives_a_rejected_trial(obj, x, rejected, (variant, kind, rho))


@pytest.mark.parametrize("kind", features.FEATURE_KINDS)
def test_initial_pair_residuals_have_an_exactly_zero_diagonal(kind):
    rng = np.random.default_rng(52)
    for d in (1, 3, 8):
        ds = _random_dataset(80, d, seed=53 + d)
        ds = Dataset(ds.X * rng.uniform(0.1, 100.0, d), ds.y)
        part = afpc(ds.X, seed=54)
        _, cons, layout = build_initial_objective(ds, part, kind, RegParams(0.1, 1.0, 0.01, 2.0))
        K, s = layout.n_pieces, layout.slope_dim
        R = cons.pair_residuals(rng.standard_normal((2, K)) * 10.0,
                                rng.standard_normal((2, K, s)))
        assert R.shape == (2, K, K)
        for component in R:
            assert np.array_equal(np.diag(component), np.zeros(K))


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
        assert info["report"].final_value <= cert + 1e-12
        assert info["certificate"] == pytest.approx(cert, rel=1e-12)
        assert info["violation"] <= 1e-4


def test_stage1_ignores_the_configured_gradient_tolerance():
    # SolverConfig.grad_tol is stage 2's: every stage-1 Newton solve still runs to
    # GRAD_NORM_TOL, bit for bit as under the default configuration.
    ds = _random_dataset(120, 2, seed=4)
    part = afpc(ds.X, seed=4)
    reg = default_reg_params(*_radii(ds), ds.n, ds.d, part.n_centers)
    runs = [fit_initial(ds, part, features.LINF, reg, solver_cfg=cfg)
            for cfg in (SolverConfig(), SolverConfig(grad_tol=1e-2))]
    (a, info_a), (b, info_b) = runs
    assert info_a["report"] == info_b["report"] and info_a["report"].converged
    assert info_a["report"].final_grad_norm <= GRAD_NORM_TOL
    for ca, cb in zip(a.components(), b.components()):
        assert_same_bits(ca.biases, cb.biases)
        assert_same_bits(ca.weights, cb.weights)


@pytest.mark.parametrize("variant,kind", _PAIRS)
def test_fit_initial_reaches_the_minimum_of_an_independent_scipy_solve(variant, kind):
    # Small instances (K <= 10, d <= 2): the stage-1 penalized objective at the
    # returned point against SLSQP on the same penalized problem, written smooth.
    index = _PAIRS.index((variant, kind))
    d = 1 + index % 2
    rng = np.random.default_rng(80 + index)
    X = rng.uniform(-1, 1, (40, d))
    ds = Dataset(X, np.max(X, axis=1) - 0.7 * np.abs(X[:, 0]) + 0.1 * rng.standard_normal(40))
    part = afpc(X, seed=index)
    assert part.n_centers <= 10
    reg = default_reg_params(*_radii(ds), ds.n, d, part.n_centers)
    _, info = fit_initial(ds, part, kind, reg, variant=variant)
    oracle = scipy_initial_minimum(ds, part, kind, reg, variant, RHO_PEN)
    assert info["report"].final_value == pytest.approx(oracle, rel=1e-6)


def _radii(ds):
    from dcreg.partition import data_radii
    return data_radii(ds)


def _point_off_the_kinks(layout, residuals, reg, rng, margin=1e-3):
    """A point where every residual but the identically zero pair diagonals lies at
    least ``margin`` from zero, and where pairs and slope caps are both active and
    inactive: there the penalized objective is twice differentiable."""
    m, K = layout.n_components, layout.n_pieces
    for _ in range(100):
        x = rng.standard_normal(layout.dim)
        z, _, W = layout.stack(x)
        x[0] = abs(z) * 0.1
        W *= (reg.theta0 * rng.uniform(0.5, 1.5, (m, K)) / np.linalg.norm(W, axis=2))[..., None]
        res = residuals(x)
        caps = np.linalg.norm(W, axis=2) - x[0] - reg.theta0
        if (np.count_nonzero(res == 0.0) == m * K and np.abs(res[res != 0.0]).min() > margin
                and (caps > 0.0).any() and (caps < 0.0).any()):
            return x
    raise AssertionError("no point off the kinks drawn")


_DIRECTION_RTOL = 1e-6    # relative residual of (H + shift I) d = -g, H by central differences


@pytest.mark.parametrize("rho", [1.0, 1e3])
@pytest.mark.parametrize("variant,kind", _PAIRS)
def test_newton_direction_solves_the_shifted_generalized_hessian_system(variant, kind, rho):
    # H is the Jacobian of the dense reference gradient by central differences, at
    # a point off the kinks, so that no step of the differences crosses one.
    index = _PAIRS.index((variant, kind))
    d = 1 + index % 2
    rng = np.random.default_rng(90 + index)
    X = rng.uniform(-1, 1, (40, d))
    ds = Dataset(X, np.max(X, axis=1) - 0.7 * np.abs(X[:, 0]) + 0.1 * rng.standard_normal(40))
    part = afpc(X, seed=index)
    assert part.n_centers <= 10
    reg = default_reg_params(*_radii(ds), ds.n, d, part.n_centers)
    problem = _InitialProblem(ds.X, ds.y, part, kind, reg, variant)
    evaluate, residuals = dense_initial_objective(ds, part, kind, reg, variant, rho)
    x = _point_off_the_kinks(problem.layout, residuals, reg, rng)
    g = evaluate(x)[1]
    h = 1e-6
    H = np.column_stack([(evaluate(x + h * e)[1] - evaluate(x - h * e)[1]) / (2.0 * h)
                         for e in np.eye(x.size)])
    shift = NEWTON_SHIFT * np.abs(g).max()
    handle, direction = problem.penalty(rho)
    handle.evaluate(x)[1]()    # the step is taken at the last point differentiated
    step = direction(x, g, shift)
    residual = H @ step + shift * step + g
    assert np.linalg.norm(residual) <= _DIRECTION_RTOL * np.linalg.norm(g)


@pytest.mark.parametrize("rho", [1.0, RHO_PEN])
@pytest.mark.parametrize("variant,kind", _PAIRS)
def test_newton_direction_matches_the_dense_shifted_generalized_hessian_solve(
        variant, kind, rho, monkeypatch):
    # K = 35 at d = 3.  Piece 0 lies far above the others, so it is active against
    # every other piece; piece 1 far below, so it has no active partner; five pieces'
    # slope caps are active.  The Schur products take each of their routes: the
    # default grouping, all blocks dense, and all sparse in as many groups as pay.
    index = _PAIRS.index((variant, kind))
    rng = np.random.default_rng(110 + index)
    X = rng.uniform(-1, 1, (360, 3))
    ds = Dataset(X, np.max(X, axis=1) - 0.7 * np.abs(X[:, 0]) + 0.1 * rng.standard_normal(360))
    part = afpc(X, seed=index)
    reg = default_reg_params(*_radii(ds), ds.n, 3, part.n_centers)
    problem = _InitialProblem(ds.X, ds.y, part, kind, reg, variant)
    layout = problem.layout
    m, K = layout.n_components, layout.n_pieces
    assert 30 <= K <= 40
    x = 0.3 * rng.standard_normal(layout.dim)
    x[0] = abs(x[0])
    _, B, W = layout.stack(x)
    B[:, 0] += 50.0
    B[:, 1] -= 50.0
    W[:, 2:7] *= 10.0 * reg.theta0 / np.linalg.norm(W[:, 2:7], axis=2, keepdims=True)
    partners = (problem.pair_residuals(B, W) > 0.0).sum(axis=2)
    assert (partners[:, 0] == K - 1).all() and (partners[:, 1] == 0).all()
    handle, direction = problem.penalty(rho)
    grad = value_and_gradient(handle, x)[1]
    shift = NEWTON_SHIFT * np.abs(grad).max()
    H = dense_generalized_hessian(problem, x, rho) + shift * np.eye(layout.dim)
    expected = np.linalg.solve(H, -grad)
    for dense_ratio, group_cost in ((fit._DENSE_RATIO, fit._GROUP_COST), (np.inf, 0), (0.0, 0)):
        monkeypatch.setattr(fit, "_DENSE_RATIO", dense_ratio)
        monkeypatch.setattr(fit, "_GROUP_COST", group_cost)
        step = direction(x, grad, shift)
        assert np.linalg.norm(step - expected) <= 1e-9 * np.linalg.norm(expected), \
            (dense_ratio, group_cost)


def test_a_stage1_rung_computes_the_pair_residuals_once_per_evaluation(monkeypatch):
    # Each Newton step reads the active pairs of the evaluation it follows.
    ds = _random_dataset(120, 2, seed=4)
    part = afpc(ds.X, seed=4)
    reg = default_reg_params(*_radii(ds), ds.n, ds.d, part.n_centers)
    problem = _InitialProblem(ds.X, ds.y, part, features.LINF, reg, SINGLE)
    calls, pair_residuals = [], problem.pair_residuals
    monkeypatch.setattr(problem, "pair_residuals",
                        lambda B, W: calls.append(1) or pair_residuals(B, W))
    _, report = newton_minimize(*problem.penalty(1.0), problem.certificate_point(),
                                SolverConfig(max_iters=100))
    assert report.converged and report.iterations > 5
    assert len(calls) == report.evaluations


def test_the_newton_step_is_taken_only_at_the_last_point_differentiated():
    ds = _random_dataset(120, 2, seed=4)
    part = afpc(ds.X, seed=4)
    reg = default_reg_params(*_radii(ds), ds.n, ds.d, part.n_centers)
    problem = _InitialProblem(ds.X, ds.y, part, features.LINF, reg, SINGLE)
    handle, direction = problem.penalty(RHO_PEN)
    x = problem.certificate_point()
    y = x + 0.1 * np.random.default_rng(5).standard_normal(x.size)
    with pytest.raises(ValueError, match="last point differentiated"):
        direction(x, np.ones(x.size), 1.0)     # no point differentiated yet
    g = value_and_gradient(handle, x)[1]
    handle.evaluate(y)                         # a trial whose gradient is not taken
    step = direction(x, g, 1.0)
    assert np.isfinite(step).all() and g.dot(step) < 0.0
    g_y = value_and_gradient(handle, y)[1]
    with pytest.raises(ValueError, match="last point differentiated"):
        direction(x, g, 1.0)
    assert np.isfinite(direction(y, g_y, 1.0)).all()


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


def _toy_problem(initial, reg, risk):
    """The stage-2 problem of a toy model on ten rows at the origin, where every
    toy model is 0, with responses whose mean square, the initial risk, is ``risk``."""
    y = (np.arange(10) < round(10 * risk)).astype(float)
    problem = _RefineProblem(initial, Dataset(np.zeros((10, 1)), y), reg)
    assert problem.risk(initial) == risk
    return problem


def test_reg_n_value_at_initial_is_ridge_only():
    model = _toy_model([[1.0, 0.0], [0.5, 0.5]])
    reg = RegParams(0.0, 1.0, 0.1, 2.0)
    value = _toy_problem(model, reg, risk=0.3).reg_n(model)
    assert value == pytest.approx(0.1 * (1.0 + 0.5), rel=1e-12)


def test_reg_n_value_degenerate_zero_slopes():
    model = _toy_model([[0.0, 0.0]])
    reg = RegParams(0.0, 1.0, 0.25, 1.5)
    problem = _toy_problem(model, reg, risk=1.0)
    assert problem.theta == 0.0
    other = _toy_model([[3.0, 4.0]])
    assert problem.reg_n(other) == pytest.approx(0.25 * 25.0, rel=1e-12)


def test_reg_n_value_hinge_active():
    initial = _toy_model([[1.0, 0.0]])
    reg = RegParams(0.0, 1.0, 0.0, 1.0)
    doubled = _toy_model([[3.0, 0.0]])
    problem = _toy_problem(initial, reg, risk=0.5)
    assert problem.theta == pytest.approx(0.5, rel=1e-12)   # (0.5 + 0) / 1
    value = problem.reg_n(doubled)
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
    problem = _RefineProblem(initial, ds, reg)
    rr0 = problem.criterion(initial)
    refined, _, accepted = refine(initial, ds, reg)
    rr1 = problem.criterion(refined)
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


def test_refine_gradient_matches_finite_differences_at_every_mu():
    # Each max-form objective is one smooth function, its gradient the exact
    # derivative of its value, at every smoothing width refine solves at.
    rng = np.random.default_rng(71)
    ds = _random_dataset(70, 2, seed=10)
    part = afpc(ds.X, seed=11)
    reg = default_reg_params(*_radii(ds), ds.n, 2, part.n_centers)
    for variant, kind in ((SINGLE, features.L2), (COMPLEMENT, features.L1),
                          (SYMMETRIC, features.LINF), (SINGLE, features.PLUS),
                          (CONVEX_PLUS, features.PLUS), (CONVEX_MAX_AFFINE, features.LINF),
                          (CONVEX_NORM, features.L2), (MAX_MIN_AFFINE, features.LINF)):
        initial, _ = fit_initial(ds, part, kind, reg, variant=variant)
        for mu in MUS:
            obj, x0 = build_refine_objective(initial, ds, reg, mu)
            # next to the start, where pieces nearly tie (the convex starts lie on the
            # cone penalty's kink), farther out, and the hinge branch
            points = [x0 + scale * rng.standard_normal(x0.size) for scale in (1e-3, 0.3, 0.3)]
            points.append(x0 * (reg.theta3 + 2.0) + 0.1 * rng.standard_normal(x0.size))
            assert_gradient_matches(obj, points, rtol=1e-6)


def _hessian_at(handle, hessian, x):
    """hessian(x) after the evaluation and gradient at x that it reads."""
    value_and_gradient(handle, x)
    return hessian(x)


def _refine_hessian_points(problem, reg, rng):
    """Next to the start, where pieces nearly tie; on the hinge branch; and farther out,
    where the convex variants' slopes leave their cones."""
    x0 = problem.x0
    return [x0 + 1e-3 * rng.standard_normal(x0.size),
            x0 * (reg.theta3 + 2.0) + 0.05 * rng.standard_normal(x0.size),
            x0 + 0.3 * rng.standard_normal(x0.size)]


@pytest.mark.parametrize("variant,kind", _PAIRS)
def test_refine_hessian_matches_central_differences_of_the_gradient(variant, kind):
    # The Newton widths' Hessian is the exact derivative of the gradient, for every
    # (variant, kind) pair at every width of MUS: the risk's Gauss-Newton and soft-max
    # terms, a difference's cross block, the hinge and the cones.
    ds = _random_dataset(50, 2, seed=12)
    part = afpc(ds.X, seed=13)
    reg = default_reg_params(*_radii(ds), ds.n, 2, part.n_centers)
    initial, _ = fit_initial(ds, part, kind, reg, variant=variant)
    problem = _RefineProblem(initial, ds, reg)
    assert problem.theta > 0.0
    rng = np.random.default_rng(14)
    comp = np.arange(problem.layout.dim) // (problem.layout.dim // problem.layout.n_components)
    for mu in MUS:
        handle, hessian = problem.smoothed(mu)
        for at, x in enumerate(_refine_hessian_points(problem, reg, rng)):
            H = _hessian_at(handle, hessian, x)
            num = np.empty_like(H)
            for j in range(x.size):
                step = np.zeros(x.size)
                step[j] = 1e-3 * mu
                num[:, j] = (value_and_gradient(handle, x + step)[1]
                             - value_and_gradient(handle, x - step)[1]) / (2e-3 * mu)
            what = (variant, kind, mu, at)
            assert np.max(np.abs(H - num)) <= 1e-6 * np.max(np.abs(num)), what
            if problem.layout.n_components == 2:
                assert np.any(H[comp == 0][:, comp == 1] != 0.0), what
            if at == 2 and problem.cone is not NO_CONE:
                W = problem.layout.stack(x)[2]
                assert np.any(problem.cone.residuals(W, problem.d) > 0.0), what


@pytest.mark.parametrize("variant,kind", _PAIRS)
def test_refine_hessian_tied_row_assembly_equals_the_dense_all_rows_form(variant, kind):
    # The blocks between pieces come from the tied rows alone, where two or more
    # pieces weigh more than the clip; the dense form sums every row.  Both add
    # terms of size |r| / mu that cancel, so they agree relative to those terms.
    ds = _random_dataset(80, 2, seed=15)
    part = afpc(ds.X, seed=16)
    reg = default_reg_params(*_radii(ds), ds.n, 2, part.n_centers)
    initial, _ = fit_initial(ds, part, kind, reg, variant=variant)
    problem = _RefineProblem(initial, ds, reg)
    rng = np.random.default_rng(17)
    n, partly_tied = ds.n, 0
    for mu in MUS:
        handle, hessian = problem.smoothed(mu)
        for at, x in enumerate(_refine_hessian_points(problem, reg, rng)):
            H = _hessian_at(handle, hessian, x)
            ref, scale = reference_refine_hessian(problem, mu, x)
            assert np.max(np.abs(H - ref)) <= 1e-12 * scale, (variant, mu, at)
            _, B, W = problem.layout.stack(x)
            A = _PieceKernel(kind, ds.X, problem.centers, problem.slope_dim).values(B, W)
            tied = (softmax_columns(A, mu, A.max(axis=1))[1] > np.exp(_EXP_FLOOR)).sum(1) > 1
            partly_tied += bool(0 < tied.sum() < tied.size)
    assert partly_tied > 0


def test_the_stage2_hessian_is_taken_only_at_the_last_point_differentiated():
    ds = _random_dataset(60, 2, seed=18)
    part = afpc(ds.X, seed=19)
    reg = default_reg_params(*_radii(ds), ds.n, 2, part.n_centers)
    initial, _ = fit_initial(ds, part, features.LINF, reg, variant=SYMMETRIC)
    problem = _RefineProblem(initial, ds, reg)
    handle, hessian = problem.smoothed(MUS[1])
    x = problem.x0
    y = x + 0.1 * np.random.default_rng(20).standard_normal(x.size)
    with pytest.raises(ValueError, match="last point differentiated"):
        hessian(x)                                  # no point differentiated yet
    H = _hessian_at(handle, hessian, x)
    handle.evaluate(y)                              # a trial: it overwrites the weights
    with pytest.raises(ValueError, match="last point differentiated"):
        hessian(x)
    value_and_gradient(handle, y)
    with pytest.raises(ValueError, match="last point differentiated"):
        hessian(x)
    assert_same_bits(_hessian_at(handle, hessian, x), H)


def test_newton_step_solves_the_shifted_hessian_and_reuses_it_across_retries():
    # fit._newton_step: (H + shift I) d = -g, a LinAlgError where H + shift I is
    # indefinite, and one Hessian per point however many shifts are tried there.
    H = np.array([[2.0, 0.0], [0.0, -1.0]])
    calls = []

    def hessian(x):
        calls.append(x)
        return H * (1.0 + x[0])

    direction = fit._newton_step(hessian)
    x, g = np.zeros(2), np.array([1.0, -2.0])
    with pytest.raises(np.linalg.LinAlgError):
        direction(x, g, 0.5)
    assert np.allclose(direction(x, g, 5.0), [-1.0 / 7.0, 2.0 / 4.0], rtol=1e-14)
    assert len(calls) == 1
    y = np.ones(2)
    assert np.allclose(direction(y, g, 5.0), [-1.0 / 9.0, 2.0 / 3.0], rtol=1e-14)
    assert len(calls) == 2 and calls[1] is y


def _piece_positions(layout, idx):
    """Where the parameters of pieces ``idx`` sit in ``layout``'s vector, in its order."""
    _, b_at, w_at = layout.stack(np.arange(layout.dim))
    return np.concatenate([np.concatenate([b[idx], w[idx].ravel()]) for b, w in zip(b_at, w_at)])


@pytest.mark.parametrize("variant,kind", [(SINGLE, features.LINF), (SYMMETRIC, features.L2)])
def test_refine_working_set_drops_only_fully_clipped_pieces(variant, kind, monkeypatch):
    # The working set only shrinks, and a dropped piece leaves the problem: at
    # each restriction the restricted objective is the full one with every
    # piece off the working set switched off (zero slopes, biases of -1e6).
    ds = _random_dataset(200, 2, seed=75)
    part = afpc(ds.X, seed=76)
    reg = default_reg_params(*_radii(ds), ds.n, 2, part.n_centers)
    initial, _ = fit_initial(ds, part, kind, reg, variant=variant)
    full = _RefineProblem(initial, ds, reg)
    restrictions, restricted = [], _RefineProblem.restricted

    def recording(problem, params, mu):
        out = restricted(problem, params, mu)
        restrictions.append((problem, params, mu, *out))
        return out

    monkeypatch.setattr(_RefineProblem, "restricted", recording)
    refined, _, accepted = refine(initial, ds, reg)
    assert accepted and [r[2] for r in restrictions] == list(MUS[1:])
    layout = full.layout
    for problem, params, mu, kept, x in restrictions:
        # The kept pieces are a subset of the working set, and x holds their parameters.
        assert set(kept.pieces) <= set(problem.pieces)
        inner = np.flatnonzero(np.isin(problem.pieces, kept.pieces))
        assert np.array_equal(x, params[_piece_positions(problem.layout, inner)])
        # No piece with an exponent above the clip is dropped, and some pieces are.
        _, B, W = problem.layout.stack(params)
        A = _PieceKernel(kind, ds.X, full.centers[problem.pieces], layout.slope_dim).values(B, W)
        _, E, _ = softmax_columns(A, mu, A.max(axis=1))
        live = problem.pieces[(E > np.exp(_EXP_FLOOR)).any(axis=(0, 2))]
        assert set(live) <= set(kept.pieces) and kept.pieces.size < layout.n_pieces
        x_full = np.zeros(layout.dim)
        _, B, W = layout.stack(x_full)
        B[...] = -1e6
        _, B[:, kept.pieces], W[:, kept.pieces] = kept.layout.stack(x)
        at = _piece_positions(layout, kept.pieces)
        value, grad = value_and_gradient(kept.objective(mu), x)
        full_value, full_grad = value_and_gradient(full.objective(mu), x_full)
        assert value == pytest.approx(full_value, rel=1e-15, abs=0.0)
        assert np.max(np.abs(grad - full_grad[at])) <= 1e-15 * np.max(np.abs(full_grad[at]))
    for comp, first in zip(refined.components(), initial.components()):
        assert comp.n_pieces < first.n_pieces
        assert set(comp.center_idx) <= set(first.center_idx)


def test_refine_cone_penalty_is_the_envelope_of_the_cone_at_mu():
    # The stage-2 cone term is dist(W, cone)^2 / (2 mu): the cone's indicator
    # smoothed at the width of the maxima (its Moreau envelope).
    rng = np.random.default_rng(72)
    ds = _random_dataset(70, 2, seed=73)
    part = afpc(ds.X, seed=74)
    reg = default_reg_params(*_radii(ds), ds.n, 2, part.n_centers)
    for variant, kind in ((CONVEX_NORM, features.L2), (CONVEX_PLUS, features.PLUS)):
        initial, _ = fit_initial(ds, part, kind, reg, SolverConfig(max_iters=50), variant)
        problem = _RefineProblem(initial, ds, reg)
        _, _, W = problem.layout.stack(rng.standard_normal(problem.layout.dim))
        dist2 = float(np.sum((W[0] - problem.cone.project(W[0], problem.d)) ** 2))
        assert dist2 > 0.0
        for mu in MUS:
            [value], _ = problem.cone.penalty(W, problem.d, problem.cone_weight(mu))
            assert value == pytest.approx(dist2 / (2.0 * mu), rel=1e-12)


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
    # The complement runs through its own table row, sign -1; since IEEE
    # negation is exact, it equals single fitted on -y and negated, bit for bit.
    ds = _xsinx_dataset(150, seed=16)
    grid = np.linspace(0, 6, 200)[:, None]
    solver = SolverConfig(max_iters=300)
    for kind in features.FEATURE_KINDS:
        comp = fit_dcf(ds, FitConfig(variant=COMPLEMENT, kind=kind, seed=5, solver=solver))
        mirror = fit_dcf(Dataset(ds.X, -ds.y),
                         FitConfig(variant=SINGLE, kind=kind, seed=5, solver=solver))
        assert comp.final_model.variant == COMPLEMENT
        for a, b in ((comp.initial_model, mirror.initial_model),
                     (comp.final_model, mirror.final_model)):
            assert np.array_equal(eval_model(a, grid), -eval_model(b, grid))
        assert comp.risk_reg_chain == mirror.risk_reg_chain
        assert comp.lip_chain == mirror.lip_chain
        assert comp.initial_report == mirror.initial_report
        assert comp.refine_report == mirror.refine_report
        assert np.mean(eval_model(comp.final_model, ds.X)) == pytest.approx(
            np.mean(ds.y), abs=1e-10)
        assert_fit_invariants(comp, ds)


def test_fit_complement_constant_data():
    X = np.linspace(0, 1, 30)[:, None]
    ds = Dataset(X, np.full(30, 2.5))
    result = fit_dcf(ds, FitConfig(variant=COMPLEMENT, seed=1))
    assert np.allclose(eval_model(result.final_model, X), 2.5, atol=1e-8)


def test_fit_symmetric_bias_identity_and_invariants():
    ds = _xsinx_dataset(200, seed=17)
    result = fit_dcf(ds, FitConfig(variant=SYMMETRIC, kind=features.LINF, seed=6))
    b1 = result.final_model.component.biases.mean()
    b2 = result.final_model.second.biases.mean()
    assert abs(b1 + b2) <= 1e-10
    assert_fit_invariants(result, ds)


def test_fit_symmetric_constant_data():
    X = np.linspace(0, 1, 20)[:, None]
    ds = Dataset(X, np.full(20, 7.0))
    result = fit_dcf(ds, FitConfig(variant=SYMMETRIC, seed=2))
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
    result = fit_dcf(ds, FitConfig(variant=MAX_MIN_AFFINE, kind=features.LINF, seed=7))
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


def test_max_min_affine_model_file_blocks_are_the_rewrite_of_its_pieces(tmp_path):
    # Stage 2 refines the max-form component and the blocks are its rewrite, so a
    # saved model's pieces and blocks are one function, within criterion 08's bound.
    ds = _xsinx_dataset(300, seed=19)
    result = fit_dcf(ds, FitConfig(variant=MAX_MIN_AFFINE, kind=features.LINF, seed=7))
    assert result.refine_accepted
    path = tmp_path / "model.json"
    save_model(result.final_model, path)
    model = load_model(path)
    grid = model.transform_x(np.linspace(0.0, 6.0, 2001)[:, None])
    assert np.max(np.abs(eval_max(model.component, grid) - eval_mma(model.mma, grid))) < 1e-10


def test_fit_convex_variants_on_affine_target():
    rng = np.random.default_rng(19)
    X = rng.uniform(-1, 1, (150, 2))
    y = 1.0 + X @ np.array([2.0, -1.0])
    ds = Dataset(X, y)
    for variant, kind in ((CONVEX_MAX_AFFINE, features.L2),
                          (CONVEX_NORM, features.LINF),
                          (CONVEX_PLUS, features.PLUS)):
        result = fit_dcf(ds, FitConfig(variant=variant, kind=kind, seed=8, theta2_mode=WEAK))
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
        result = fit_dcf(ds, FitConfig(variant=variant, kind=kind, seed=9))
        a = rng.uniform(-1, 1, (2000, 2))
        b = rng.uniform(-1, 1, (2000, 2))
        mid = eval_model(result.final_model, 0.5 * (a + b))
        avg = 0.5 * (eval_model(result.final_model, a)
                     + eval_model(result.final_model, b))
        assert np.max(mid - avg) <= 1e-10, variant
        assert result.cone_violation_max <= 1e-6
        assert result.constraint_violation_max <= 1e-4


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


def _edge_dataset(case):
    rng = np.random.default_rng(40)
    if case == "constant column":
        X = np.column_stack([rng.uniform(-1, 1, 40), np.full(40, 0.5)])
    elif case == "d > n":
        X = rng.uniform(-1, 1, (5, 12))
    elif case == "rows duplicated 4x":
        X = np.repeat(rng.uniform(-1, 1, (15, 2)), 4, axis=0)
    elif case == "n = 2":
        X = rng.uniform(-1, 1, (2, 1))
    elif case == "constant y":
        return Dataset(rng.uniform(-1, 1, (30, 2)), np.full(30, 1.5))
    else:                                       # identical X rows
        X = np.full((20, 3), 0.3)
    y = np.sin(3.0 * X[:, 0]) + 0.1 * rng.standard_normal(X.shape[0])
    if case == "rows duplicated 4x":
        y = np.repeat(y[::4], 4)
    return Dataset(X, y)


@pytest.mark.parametrize("case", ["constant column", "d > n", "rows duplicated 4x", "n = 2",
                                  "constant y", "identical X rows"])
def test_fit_edge_inputs(case):
    ds = _edge_dataset(case)
    result = fit_dcf(ds, FitConfig())
    assert np.isfinite(eval_model(result.final_model, ds.X)).all()
    assert np.isfinite(eval_model(result.final_model, ds.X + 0.25)).all()
    assert result.initial_report.stop_reason in STOP_REASONS
    if result.lip_chain[0] == 0.0:              # zero slopes: no refinement solve runs
        assert result.refine_report.stop_reason == "" and result.refine_report.iterations == 0
        assert not result.refine_report.converged and not result.refine_report.aborted
    else:
        assert result.refine_report.stop_reason in STOP_REASONS


def _dense_max_form_objective(initial, ds, reg, variant, mu):
    """The stage-2 max-form objective at ``mu`` on the dense (n, K, slope_dim) feature
    tensor; the soft maxima of the rows with no floor on their exponents."""
    problem = _RefineProblem(initial, ds, reg)
    assert problem.spec.name == variant
    layout, n, K = problem.layout, ds.n, problem.layout.n_pieces
    phi = phi_tensor(problem.kind, ds.X, problem.centers)[:, :, :problem.slope_dim]

    def softmax_rows(A):
        top = A.max(axis=1, keepdims=True)
        E = np.exp((A - top) / mu)
        total = E.sum(axis=1, keepdims=True)
        return (top + mu * np.log(total))[:, 0], E / total

    def evaluate(params):
        _, B, W = layout.stack(params)
        (b1, W1), (b2, W2) = (B[0], W[0]), ((B[1], W[1]) if len(B) > 1 else (None, None))
        soft1, w1 = softmax_rows(b1[None, :] + np.einsum("nkj,kj->nk", phi, W1))
        r = soft1 - ds.y
        if layout.n_components == 2:
            soft2, w2 = softmax_rows(b2[None, :] + np.einsum("nkj,kj->nk", phi, W2))
            r = r - soft2
        value = float(np.mean(r * r))
        coef1 = (2.0 / n) * r[:, None] * w1
        gW1 = np.einsum("nk,nkj->kj", coef1, phi)
        norms = np.linalg.norm(np.vstack([W1] if W2 is None else [W1, W2]), axis=1)
        hinge = max(softmax_smooth(norms, mu) - problem.c0, 0.0)
        rv = problem.theta * hinge * hinge + reg.theta2 * float(np.sum(norms * norms))
        _, rg = reference_reg_terms(np.vstack([W1] if W2 is None else [W1, W2]),
                                    problem.theta, problem.c0, reg.theta2, mu)
        value += rv
        gW1 += rg[:K]
        value += reference_cone_penalty(problem.cone, W1, problem.d, problem.cone_weight(mu), gW1)
        parts = [coef1.sum(axis=0), gW1.ravel()]
        if layout.n_components == 2:
            coef2 = -(2.0 / n) * r[:, None] * w2
            parts += [coef2.sum(axis=0),
                      (np.einsum("nk,nkj->kj", coef2, phi) + rg[K:]).ravel()]
        return value, np.concatenate(parts)

    return problem.objective(mu), evaluate, problem.x0


def test_refine_objective_matches_dense_tensor_reference():
    rng = np.random.default_rng(32)
    for d in (1, 3):
        ds = _random_dataset(90, d, seed=33 + d)
        part = afpc(ds.X, seed=34)
        reg = default_reg_params(*_radii(ds), ds.n, d, part.n_centers)
        for kind in features.FEATURE_KINDS:
            convex = [CONVEX_PLUS] if kind == features.PLUS else [CONVEX_MAX_AFFINE, CONVEX_NORM]
            mma = [MAX_MIN_AFFINE] if kind == features.LINF else []
            for variant in [SINGLE, SYMMETRIC, *convex, *mma]:
                initial, _ = fit_initial(ds, part, kind, reg, SolverConfig(max_iters=50),
                                         variant)
                for mu in MUS:
                    obj, dense, x0 = _dense_max_form_objective(initial, ds, reg, variant, mu)
                    # the second point also exercises the hinge branch
                    for x in (x0, x0 * (reg.theta3 + 2.0) + 0.1 * rng.standard_normal(x0.size)):
                        value, grad = value_and_gradient(obj, x)
                        ref_value, ref_grad = dense(x)
                        assert value == pytest.approx(ref_value, rel=1e-12)
                        tol = 1e-12 * (1.0 + np.max(np.abs(ref_grad)))
                        assert np.max(np.abs(grad - ref_grad)) <= tol


@pytest.mark.parametrize("d", [1, 3, 8])
def test_stacked_max_form_objective_is_bit_identical_to_the_per_component_reference(d):
    # Stage 2 of every (variant, kind) pair, components stacked, against the
    # per-component form it replaced; max_min_affine's max form has no cone term.
    rng = np.random.default_rng(63 + d)
    ds = _random_dataset(70, d, seed=64 + d)
    part = afpc(ds.X, seed=65)
    reg = default_reg_params(*_radii(ds), ds.n, d, part.n_centers)
    for variant, kind in _PAIRS:
        initial, _ = fit_initial(ds, part, kind, reg, SolverConfig(max_iters=50), variant)
        problem = _RefineProblem(initial, ds, reg)
        spec = VARIANT_TABLE[variant]
        assert problem.cone is (NO_CONE if spec.mma else spec.cone)
        for mu in MUS:
            ref = reference_max_form_objective(problem, mu)
            obj, x0 = problem.objective(mu), problem.x0
            # the second point also exercises the hinge branch, the third the cones
            points = [x0, x0 * (reg.theta3 + 2.0) + 0.1 * rng.standard_normal(x0.size),
                      0.5 * rng.standard_normal(x0.size)]
            what = (variant, kind, mu)
            for x, rejected in zip(points, points[1:] + points[:1]):
                value, grad = value_and_gradient(obj, x)
                ref_value, ref_grad = ref(x)
                assert value == ref_value, what
                assert_same_bits(grad, ref_grad, what)
                assert_thunk_survives_a_rejected_trial(obj, x, rejected, what)


def test_reg_terms_hinge_weights_match_the_dense_reference():
    # The hinge branch, which no benchmark fit reaches: slope rows whose largest
    # norms tie, exactly or spread over 60 mu, at every smoothing width.  Both forms
    # sum the floored exponents of the norms as one 1-d array, so every bit matches.
    rng = np.random.default_rng(70)
    theta, c0, theta2 = 0.7, 0.5, 0.01
    for rows, s, spread in itertools.product((1, 2, 3, 5, 7, 8, 9, 16, 40), (1, 3), (0.0, 60.0)):
        for ties, mu in itertools.product(range(1, min(rows, 12) + 1), MUS):
            W = rng.standard_normal((rows, s))
            norms = np.linalg.norm(W, axis=1)
            tied = rng.choice(rows, ties, replace=False)
            gaps = np.concatenate([[0.0], rng.uniform(0.0, spread, ties - 1)]) * mu
            W[tied] *= ((norms.max() + 1.0 - gaps) / norms[tied])[:, None]
            value, gradient, _ = _reg_terms(W, theta, c0, theta2, mu)
            ref_value, ref_grad = reference_reg_terms(W, theta, c0, theta2, mu)
            grad = gradient()
            what = (rows, s, spread, ties, mu)
            assert value == ref_value, what
            assert not np.array_equal(grad, 2.0 * theta2 * W), what    # the hinge branch ran
            assert_same_bits(grad, ref_grad, what)


def test_reg_terms_lie_between_the_exact_regularizer_and_its_soft_max_bound():
    # The soft maximum of K slope norms lies in [top, top + mu log K], so the smoothed
    # regularizer lies between the exact reg_n of the same rows, with the true maximum,
    # and theta (hinge + mu log K)^2 plus the ridge, up to rounding.
    rng = np.random.default_rng(72)
    ds = _random_dataset(70, 2, seed=73)
    part = afpc(ds.X, seed=74)
    reg = default_reg_params(*_radii(ds), ds.n, 2, part.n_centers)
    binds = 0
    for variant, kind in ((SINGLE, features.L2), (SYMMETRIC, features.LINF)):
        initial, _ = fit_initial(ds, part, kind, reg, variant=variant)
        problem = _RefineProblem(initial, ds, reg)
        theta, c0, s = problem.theta, problem.c0, problem.slope_dim
        assert theta > 0.0
        for scale, mu in itertools.product((0.25, 0.5, 1.0, 2.0), MUS):
            x = problem.x0.copy()
            W = problem.layout.stack(x)[2]
            W[:] = rng.standard_normal(W.shape) * (scale * c0 / np.sqrt(s))
            rows = W.reshape(-1, s)
            model = problem.extract(x, initial)
            assert np.array_equal(slope_rows(model), rows)
            value = _reg_terms(rows, theta, c0, reg.theta2, mu)[0]
            hinge = max(float(np.linalg.norm(rows, axis=1).max()) - c0, 0.0)
            upper = (theta * (hinge + mu * np.log(len(rows))) ** 2
                     + reg.theta2 * float(np.sum(rows * rows)))
            what = (variant, scale, mu)
            assert problem.reg_n(model) * (1.0 - 1e-12) <= value <= upper * (1.0 + 1e-12), what
            binds += hinge > 0.0
    assert 0 < binds < 2 * 4 * len(MUS), binds


def test_reg_terms_skip_the_soft_max_only_where_the_hinge_cannot_bind(monkeypatch):
    # c0 on both sides of the skip bound top + mu log K, and of the soft maximum itself,
    # which equals the bound when the norms tie: the value and gradient are the soft-max
    # path's, bit for bit, whether the soft max was skipped or not, and it is skipped
    # only where c0 exceeds the bound.
    soft_max_calls = []

    def counted(*args, **kwargs):
        soft_max_calls.append(1)
        return softmax_columns(*args, **kwargs)

    monkeypatch.setattr(fit, "softmax_columns", counted)
    rng = np.random.default_rng(71)
    theta, theta2 = 0.7, 0.01
    skipped = ran = 0
    for rows, s, mu, tied in itertools.product((1, 2, 7, 40, 300), (1, 3), MUS, (False, True)):
        W = rng.standard_normal((rows, s))
        if tied:        # equal norms: the soft maximum is the bound itself
            W[:] = W[0]
        norms = np.linalg.norm(W, axis=1)
        bound = norms.max() + mu * np.log(rows)
        soft = reference_reg_terms(W, 0.0, 0.0, theta2, mu)    # theta 0: the ridge alone
        soft_max = float(np.log(np.sum(np.exp((norms - norms.max()) / mu)))) * mu + norms.max()
        for c0 in (bound * (1.0 + 1e-6), bound * (1.0 + 1e-11), bound, bound * (1.0 - 1e-11),
                   soft_max * (1.0 + 1e-14), soft_max, soft_max * (1.0 - 1e-9), 0.5 * soft_max):
            soft_max_calls.clear()
            value, gradient, _ = _reg_terms(W, theta, c0, theta2, mu)
            ref_value, ref_grad = reference_reg_terms(W, theta, c0, theta2, mu)
            what = (rows, s, mu, c0)
            assert value == ref_value, what
            assert np.array_equal(gradient(), ref_grad), what
            if soft_max_calls:
                ran += 1
                assert c0 * (1.0 - 1e-12) <= bound + 1e-9 * mu, what
            else:
                skipped += 1
                assert c0 > bound and value == soft[0], what
    assert skipped >= 60 and ran >= 120, (skipped, ran)


def test_refine_mma_extract_returns_the_initial_blocks():
    # At the start, extract gives back the initial component and its blocks bit for
    # bit: the stage-1 slopes lie in the cone, so the projection leaves them be.
    for d in (1, 3):
        ds = _random_dataset(90, d, seed=38 + d)
        part = afpc(ds.X, seed=39)
        reg = default_reg_params(*_radii(ds), ds.n, d, part.n_centers)
        initial, _ = fit_initial(ds, part, features.LINF, reg, SolverConfig(max_iters=50),
                                 MAX_MIN_AFFINE)
        problem = _RefineProblem(initial, ds, reg)
        model = problem.extract(problem.x0, initial)
        for field in ("biases", "weights", "center_idx"):
            assert np.array_equal(getattr(model.component, field),
                                  getattr(initial.component, field))
        assert np.array_equal(model.mma.biases, initial.mma.biases)
        assert np.array_equal(model.mma.slopes, initial.mma.slopes)


@pytest.mark.parametrize("variant,kind,d,n", [(SYMMETRIC, features.LINF, 1, 200),
                                               (SINGLE, features.LINF, 2, 200),
                                               (SYMMETRIC, features.L2, 2, 200),
                                               (CONVEX_MAX_AFFINE, features.L2, 2, 200),
                                               (SINGLE, features.LINF, 8, 256),
                                               (CONVEX_MAX_AFFINE, features.LINF, 8, 256),
                                               (MAX_MIN_AFFINE, features.LINF, 4, 400)])
def test_fit_predictions_barely_move_under_a_one_ulp_rescale_of_x(variant, kind, d, n):
    # Stage 1 converges to the minimum of a convex problem, so an ulp-level change
    # of the inputs barely moves its point, nor the stage-2 solve that starts there.
    # The largest move measured on the eight fits at d <= 2 is 1.7e-8; a stage 1
    # stopped at its iteration cap moved four of them by 0.023-0.105.  At d = 8
    # (the benchmark's difference of max-affine target for single, ||x||^2 for
    # convex) the largest moves measured are 3.2e-5 to 7.4e-5.  Max-min-affine at
    # d = 4, on |x|_inf - 0.5 |x_1|, moves by 1.9e-5 and 3.3e-5, and no stage-2
    # solve reaches max_iters; refined through its own hard-max objective, it
    # moved by 1.8e-3 and 3.8e-3, and one solve reached the cap.
    solves = []
    for seed in (1, 2):
        rng = np.random.default_rng(300 + seed)
        if d == 1:
            X = rng.uniform(0, 6, (n, 1))
            y = X[:, 0] * np.sin(X[:, 0]) + 0.1 * rng.standard_normal(n)
            grid = np.linspace(0, 6, 400)[:, None]
        else:
            X = rng.uniform(-1, 1, (n, d))
            if variant == MAX_MIN_AFFINE:
                target = _linf_target
            else:
                target = dma_target(8) if d == 8 and variant == SINGLE else normsq
            y = target(X) + 0.1 * rng.standard_normal(n)
            grid = rng.uniform(-1, 1, (400, d))
        config = FitConfig(variant=variant, kind=kind, seed=1)
        with recording_solves(solves):
            preds = [eval_model(fit_dcf(Dataset(X * scale, y), config).final_model, grid)
                     for scale in (1.0, 1.0 + 1e-15)]
        assert np.max(np.abs(preds[1] - preds[0])) <= 1e-3, (variant, seed)
    assert all(s["stop"] != "max_iters" for s in solves if s["stage"] == "stage2"), solves


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
        assert report.wall_s > 0.0 and f"wall={report.wall_s:.3f}s" in line


def _compared_fields_equal(a, b):
    """Dataclasses equal field by field where the field takes part in comparisons;
    arrays as raw bytes."""
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(
            _compared_fields_equal(getattr(a, f.name), getattr(b, f.name))
            for f in dataclasses.fields(a) if f.compare)
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    if isinstance(a, tuple):
        return len(a) == len(b) and all(map(_compared_fields_equal, a, b))
    return a == b


def test_fit_timings_are_reported_and_not_compared(caplog):
    ds = _xsinx_dataset(60, seed=37)
    config = FitConfig(variant=SYMMETRIC, kind=features.L2, seed=2,
                       solver=SolverConfig(max_iters=100))
    with caplog.at_level("INFO", logger="dcreg.fit"):
        first = fit_dcf(ds, config)
    second = fit_dcf(ds, config)
    for result in (first, second):
        assert set(result.timings) == {"afpc", "stage1", "stage2", "finalize"}
        assert all(seconds >= 0.0 for seconds in result.timings.values())
    timings_field, = (f for f in dataclasses.fields(first) if f.name == "timings")
    assert not timings_field.compare and _compared_fields_equal(first, second)
    line = next(r.getMessage() for r in caplog.records if r.getMessage().startswith("fit_dcf"))
    for layer, seconds in first.timings.items():
        assert f"{layer}={seconds:.3f}s" in line
