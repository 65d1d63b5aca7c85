"""Acceptance gate: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Criteria involving fits share module-scoped fixtures so
the expensive solves run once.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from _helpers import (assert_gradient_matches, build_initial_objective, build_refine_objective,
                      recording_solves)
from dcreg import features
from dcreg.approx import (LIPSCHITZ, SMOOTH, eval_min_convex, fvu, grid_cover,
                          mcshane_lower, min_convex_upper, quad_lower,
                          quad_taylor_max_affine, smooth_lower,
                          weakly_and_delta_max_affine)
from dcreg.baselines import (GAUSSIAN_KERNEL, KnnModel, NwModel, kfold_cv,
                             knn_predict, nw_cv_fold, nw_cv_grid, nw_predict)
from dcreg.data import Dataset, SyntheticGen
from dcreg.experiment import ExperimentSpec, run_experiment, write_bench_outputs
from dcreg.fit import (GAMMA, MUS, RHOS, FitConfig, STRONG, default_reg_params, fit_dcf,
                       fit_initial)
from dcreg.model import (CONVEX_MAX_AFFINE, CONVEX_NORM, CONVEX_PLUS,
                         MAX_MIN_AFFINE, SINGLE, SYMMETRIC, DcComponent,
                         eval_max, eval_mma, eval_model, eval_model_std, prune,
                         to_max_min_affine)
from dcreg.partition import afpc, data_radii, khat
from dcreg.serialize import load_model, save_model
from dcreg.solver import GRAD_NORM_TOL
from dcreg.targets import empirical_lipschitz, pw_linear_target, xsinx_target

GRID = np.linspace(0.0, 6.0, 1000)[:, None]
COVER = grid_cover(0.0, 6.0, 10)   # eps = 1/3


def _report(criterion, detail, t0):
    print(f"[PASS] criterion {criterion}: {detail} ({time.perf_counter() - t0:.2f}s)")


def _sampled_target(make):
    target = make()
    vals = target(GRID)
    lam = empirical_lipschitz(vals, GRID) * 1.01
    return replace(target, lipschitz=lam), vals, lam


# ---------------------------------------------------------------------------
# shared fits

@pytest.fixture(scope="module")
def logged_solves():
    """Every stage-1 and stage-2 solve of the shared fits, as ``recording_solves`` logs them."""
    return []


@pytest.fixture(scope="module")
def variant_fits(logged_solves):
    """One full fit per variant on a moderate 1-d problem (plus convex 2-d)."""
    gen = SyntheticGen(target="xsinx", noise_sigma=0.1)
    ds, _ = gen.sample(300, seed=101)
    fits = []
    with recording_solves(logged_solves):
        for variant, kind in ((SINGLE, features.LINF), (SYMMETRIC, features.LINF),
                              (MAX_MIN_AFFINE, features.LINF)):
            cfg = FitConfig(variant=variant, kind=kind, seed=11)
            fits.append((fit_dcf(ds, cfg), ds))
        rng = np.random.default_rng(55)
        X2 = rng.uniform(-1, 1, (400, 2))
        ds2 = Dataset(X2, np.sum(X2 * X2, axis=1) + 0.05 * rng.standard_normal(400))
        for variant, kind in ((CONVEX_MAX_AFFINE, features.L2),
                              (CONVEX_NORM, features.L2),
                              (CONVEX_PLUS, features.PLUS)):
            cfg = FitConfig(variant=variant, kind=kind, seed=12)
            fits.append((fit_dcf(ds2, cfg), ds2))
    return fits


@pytest.fixture(scope="module")
def trend_results(logged_solves):
    """Criterion 10 sweep: symmetric fits over n in {256, 1024, 4096}, 5 reps."""
    gen = SyntheticGen(target="xsinx", d=1, noise_sigma=0.1)
    sizes = (256, 1024, 4096)
    reps = 5
    t0 = time.perf_counter()
    # held-out noisy responses, as with real test data
    test_ds, _ = gen.sample(2000, seed=900)
    mse = {n: [] for n in sizes}
    fits = []
    for i, n in enumerate(sizes):
        for rep in range(reps):
            train, _ = gen.sample(n, seed=1000 + 17 * i + rep)
            cfg = FitConfig(variant=SYMMETRIC, kind=features.LINF,
                            theta2_mode=STRONG, seed=rep)
            with recording_solves(logged_solves):
                result = fit_dcf(train, cfg)
            preds = eval_model(result.final_model, test_ds.X)
            mse[n].append(float(np.mean((preds - test_ds.y) ** 2)))
            fits.append((result, train))
    # CV-tuned Nadaraya-Watson (Gaussian) on one n=4096 training set
    train, _ = gen.sample(4096, seed=1000 + 17 * 2)
    r_x, r_y = data_radii(train)
    grid = nw_cv_grid(r_x, r_y, train.n, train.d)
    h_star = kfold_cv(train, grid, nw_cv_fold(GAUSSIAN_KERNEL), seed=0)
    nw_preds = nw_predict(NwModel(train, GAUSSIAN_KERNEL, h_star), test_ds.X)
    nw_mse = float(np.mean((nw_preds - test_ds.y) ** 2))
    elapsed = time.perf_counter() - t0
    return {"mse": mse, "nw_mse": nw_mse, "fits": fits, "elapsed": elapsed,
            "sizes": sizes}


# ---------------------------------------------------------------------------

def test_criterion_01_norm_feature_bands():
    t0 = time.perf_counter()
    lam_eps = []
    for make in (xsinx_target, pw_linear_target):
        target, vals, lam = _sampled_target(make)
        lower = mcshane_lower(target, COVER, features.L2)
        fhat = eval_max(lower, GRID)
        gap = vals - fhat
        assert np.all(gap >= 0.0 - 1e-12)
        assert np.all(gap <= 2.0 * lam * COVER.eps + 1e-12)
        centers_equal = eval_max(lower, COVER.centers) - target(COVER.centers)
        assert np.max(np.abs(centers_equal)) <= 1e-12
        upper = min_convex_upper(target, COVER, features.L2)
        fcheck = eval_min_convex(upper, GRID)
        gap_u = fcheck - vals
        assert np.all(gap_u >= 0.0 - 1e-12)
        assert np.all(gap_u <= 2.0 * lam * COVER.eps + 1e-12)
        assert np.max(np.abs(eval_min_convex(upper, COVER.centers)
                             - target(COVER.centers))) <= 1e-12
        lam_eps.append(lam * COVER.eps)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(1, f"lower/upper bands 2*lam*eps={lam_eps[0]:.3f}/{lam_eps[1]:.3f} "
               "hold on both targets, center equality <= 1e-12", t0)


def test_criterion_02_quadratic_bands_and_weak_delta():
    t0 = time.perf_counter()
    # smooth construction on the smooth target
    target, vals, lam = _sampled_target(xsinx_target)
    nu = target.smoothness
    tilde1 = smooth_lower(target, COVER)(GRID)
    gap1 = vals - tilde1
    assert np.all(gap1 >= -1e-12)
    assert np.all(gap1 <= 2.0 * nu * COVER.eps ** 2 + 1e-12)
    # quadratic-feature construction on both targets
    for make in (xsinx_target, pw_linear_target):
        tgt, tvals, tlam = _sampled_target(make)
        tilde0 = quad_lower(tgt, COVER)(GRID)
        gap0 = tvals - tilde0
        assert np.all(gap0 >= -tlam * COVER.eps / 4.0 - 1e-12)
        assert np.all(gap0 <= 2.0 * tlam * COVER.eps + 1e-12)
    # Taylor max of the quadratic: q - mhat in [0, eps^2]
    mhat = quad_taylor_max_affine(COVER)
    qgap = np.sum(GRID * GRID, axis=1) - mhat(GRID)
    assert np.all(qgap >= -1e-12)
    assert np.all(qgap <= COVER.eps ** 2 + 1e-12)
    # weakly / delta max-affine bands: 2*eps*delta and 3*eps*delta
    checks = [(xsinx_target, SMOOTH), (xsinx_target, LIPSCHITZ),
              (pw_linear_target, LIPSCHITZ)]
    for make, mode in checks:
        tgt, tvals, tlam = _sampled_target(make)
        res = weakly_and_delta_max_affine(tgt, COVER, mode)
        delta = tlam if mode == LIPSCHITZ else tgt.smoothness * COVER.eps
        assert np.max(np.abs(res.weak_values(GRID) - tvals)) <= \
            2.0 * COVER.eps * delta + 1e-10
        assert np.max(np.abs(res.delta_values(GRID) - tvals)) <= \
            3.0 * COVER.eps * delta + 1e-10
    elapsed = time.perf_counter() - t0
    assert elapsed < 2.0  # < 1 s per construction family
    _report(2, "gradient/quadratic bands, q-mhat window, weak/delta bands hold", t0)


def test_criterion_03_clustering_invariants():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    checked = 0
    for trial in range(200):
        n = int(np.exp(rng.uniform(np.log(2), np.log(5000))))
        d = int(rng.integers(1, 11))
        X = rng.standard_normal((n, d)) * float(rng.uniform(0.2, 5.0))
        p = afpc(X, seed=trial)
        # stopping window, trajectory-exact (see ledger: the two bounds come
        # from the final and the last-passed condition checks respectively)
        if p.eps_n > 0.0:
            assert khat(n, d, p.eps_n, p.r_x) <= p.n_centers
            if p.n_centers > 1:
                assert p.n_centers - 1 < khat(n, d, p.eps_prev, p.r_x)
        assert p.n_centers <= int(np.ceil(n ** (d / (2.0 + d))))
        diff = X[:, None, :] - p.centers[None, :, :]
        sq = np.sum(diff * diff, axis=2)
        assert np.all(np.sqrt(sq.min(axis=1)) <= p.eps_n)
        p2 = afpc(X, seed=trial)
        assert np.array_equal(p.centers, p2.centers)
        assert np.array_equal(p.assignment, p2.assignment)
        assert p.eps_n == p2.eps_n
        checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(3, f"window/cover/cap/determinism exact on {checked} random datasets", t0)


@pytest.fixture(scope="module")
def criterion4_solves():
    """Criterion 4's 50 stage-1 solves: their info dicts, responses, logged rungs and time."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(13)
    kinds = (features.L1, features.L2, features.LINF, features.PLUS)
    infos, rungs = [], []
    with recording_solves(rungs):
        for trial in range(50):
            n = int(rng.integers(20, 501))
            d = int(rng.integers(1, 4))
            X = rng.uniform(-1, 1, (n, d))
            y = (np.max(X, axis=1) - 0.7 * np.abs(X[:, 0])
                 + 0.1 * rng.standard_normal(n))
            ds = Dataset(X, y)
            part = afpc(X, seed=trial)
            r_x, r_y = data_radii(ds)
            reg = default_reg_params(r_x, r_y, n, d, part.n_centers)
            model, info = fit_initial(ds, part, kinds[trial % 4], reg)
            infos.append((info, y))
    return {"infos": infos, "rungs": rungs, "elapsed": time.perf_counter() - t0}


def test_criterion_04_stage1_solve_quality(criterion4_solves):
    t0 = time.perf_counter()
    worst_viol = 0.0
    for trial, (info, y) in enumerate(criterion4_solves["infos"]):
        cert = float(np.mean((y - y.mean()) ** 2))
        assert info["violation"] <= 1e-4, f"trial {trial}: {info['violation']}"
        assert info["penalized_objective"] <= cert + 1e-12
        worst_viol = max(worst_viol, info["violation"])
    assert criterion4_solves["elapsed"] < 60.0
    _report(4, f"50 solves: max violation {worst_viol:.2e} <= 1e-4, "
               "penalized objective <= constant certificate", t0)


def test_criterion_05_improvement_and_slope_chains(variant_fits, trend_results):
    t0 = time.perf_counter()
    pool = list(variant_fits) + list(trend_results["fits"])
    for result, ds in pool:
        rr0, rr1, rr2 = result.risk_reg_chain
        assert rr1 <= rr0 + 1e-8
        assert rr2 <= rr1 + 1e-8
        lip0, lip1, lip2 = result.lip_chain
        assert lip2 <= lip1 + 1e-8
        assert lip1 <= (1.0 + result.reg.theta3) * lip0 + 1e-8
    _report(5, f"risk+reg and slope chains hold on all {len(pool)} fits", t0)


def test_criterion_06_centering_and_pruning(variant_fits, trend_results):
    t0 = time.perf_counter()
    pool = list(variant_fits) + list(trend_results["fits"])
    for result, ds in pool:
        mean_pred = float(np.mean(eval_model(result.final_model, ds.X)))
        assert abs(mean_pred - float(np.mean(ds.y))) <= 1e-10
        # pruning alone preserves training values (hence risk) exactly
        refined = result.refined_model
        Xs = refined.transform_x(ds.X)
        before = eval_model_std(refined, Xs)
        pruned = refined.with_components([prune(c, Xs) for c in refined.components()])
        after = eval_model_std(pruned, Xs)
        y_std = (ds.y - refined.y_shift) / refined.y_scale
        risk_gap = abs(float(np.mean((before - y_std) ** 2))
                       - float(np.mean((after - y_std) ** 2)))
        assert risk_gap <= 1e-12
    _report(6, f"mean-prediction identity <= 1e-10 and pruning risk "
               f"preservation <= 1e-12 on all {len(pool)} fits", t0)


def test_criterion_07_gradient_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(23)
    X = rng.uniform(-1, 1, (60, 2))
    y = np.max(X, axis=1) + 0.1 * rng.standard_normal(60)
    ds = Dataset(X, y)
    part = afpc(X, seed=5)
    r_x, r_y = data_radii(ds)
    reg = default_reg_params(r_x, r_y, ds.n, ds.d, part.n_centers)
    n_checked = 0
    initial_cases = [(SINGLE, features.L2), (SYMMETRIC, features.LINF),
                     (MAX_MIN_AFFINE, features.LINF), (CONVEX_PLUS, features.PLUS),
                     (CONVEX_NORM, features.L2)]
    for variant, kind in initial_cases:
        pen, _, layout = build_initial_objective(ds, part, kind, reg, variant, rho=100.0)
        points = [rng.standard_normal(layout.dim) * 0.5 for _ in range(20)]
        assert_gradient_matches(pen, points)
        n_checked += 1
    refine_cases = [(SINGLE, features.L2), (SYMMETRIC, features.LINF),
                    (MAX_MIN_AFFINE, features.LINF), (CONVEX_NORM, features.L2)]
    for variant, kind in refine_cases:
        initial, _ = fit_initial(ds, part, kind, reg, variant=variant)
        obj, x0 = build_refine_objective(initial, ds, reg)
        points = [x0 + 0.3 * rng.standard_normal(x0.size) for _ in range(18)]
        points += [x0 * (reg.theta3 + 2.0) + 0.05 * rng.standard_normal(x0.size)
                   for _ in range(2)]
        assert_gradient_matches(obj, points)
        n_checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report(7, f"{n_checked} assembled objectives match central differences "
               "(rel 1e-4, 20 points each)", t0)


def test_criterion_08_max_min_affine_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(29)
    worst = 0.0
    for trial in range(100):
        d = int(rng.integers(1, 4))
        k = int(rng.integers(1, 6))
        centers = rng.standard_normal((k, d))
        biases = rng.standard_normal(k)
        weights = rng.standard_normal((k, d + 1))
        weights[:, d] = -np.abs(weights[:, d])
        comp = DcComponent(features.LINF, centers, biases, weights)
        mma = to_max_min_affine(comp)
        X = rng.uniform(-2.0, 2.0, (1000, d))
        gap = float(np.max(np.abs(eval_mma(mma, X) - eval_max(comp, X))))
        worst = max(worst, gap)
        assert gap < 1e-10
    _report(8, f"100 random conversions grid-equal, worst gap {worst:.2e}", t0)


def test_criterion_09_symmetric_biases_and_separation(variant_fits):
    t0 = time.perf_counter()
    n_sym = 0
    for result, ds in variant_fits:
        if result.final_model.variant != SYMMETRIC:
            continue
        b1 = float(np.mean(result.final_model.component.biases))
        b2 = float(np.mean(result.final_model.second.biases))
        assert abs(b1 + b2) <= 1e-10
        n_sym += 1
    assert n_sym >= 1
    rng = np.random.default_rng(31)
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
    _report(9, "mean-bias identity <= 1e-10; separation bound holds on 10^4 "
               "random instances", t0)


def test_criterion_10_convergence_trend(trend_results):
    t0 = time.perf_counter()
    sizes = trend_results["sizes"]
    med = {n: float(np.median(trend_results["mse"][n])) for n in sizes}
    assert med[1024] < med[256], f"medians {med}"
    assert med[4096] < med[1024], f"medians {med}"
    assert med[4096] <= 0.5 * med[256], f"medians {med}"
    nw_mse = trend_results["nw_mse"]
    assert med[4096] <= 3.0 * nw_mse, f"dcf {med[4096]} vs nw {nw_mse}"
    assert trend_results["elapsed"] < 600.0
    _report(10, f"median MSE {med[256]:.4f} -> {med[1024]:.4f} -> {med[4096]:.4f}, "
                f"NW-G baseline {nw_mse:.4f} (sweep {trend_results['elapsed']:.0f}s)", t0)


def test_max_form_stage2_solves_stop_before_the_iteration_cap(variant_fits, trend_results,
                                                              logged_solves):
    # Each stage 2 is one smooth solve of the max form per mu (max-min-affine's too):
    # none runs to max_iters.
    t0 = time.perf_counter()
    max_form = [s for s in logged_solves if s["stage"] == "stage2"]
    fits = [r for r, _ in list(variant_fits) + list(trend_results["fits"])
            if r.lip_chain[0] > 0.0]
    assert len(max_form) == 3 * len(fits) == 63
    stops = [s["stop"] for s in max_form]
    assert "max_iters" not in stops, stops
    _report("5b", f"{len(max_form)} max-form stage-2 solves stop before the cap "
                  f"({', '.join(f'{r} {stops.count(r)}' for r in sorted(set(stops)))})", t0)


def test_early_width_stage2_solves_stop_at_gamma_mu(variant_fits, trend_results, logged_solves):
    # Every max-form width but the last is solved to gradient max-norm GAMMA * mu, the
    # last to GRAD_NORM_TOL.  Every first-width solve reaches its tolerance, and every
    # early solve that stops at grad_tol is within it.
    t0 = time.perf_counter()
    max_form = [s for s in logged_solves if s["stage"] == "stage2"]
    early = [s for s in max_form if float(s["mu"]) != MUS[-1]]
    assert len(early) == 2 * len(max_form) // 3 == 42
    for s in max_form:
        mu = float(s["mu"])
        tol = GRAD_NORM_TOL if mu == MUS[-1] else max(GRAD_NORM_TOL, GAMMA * mu)
        assert float(s["tol"]) == pytest.approx(tol, rel=1e-5), s
    at_tol = [s for s in early if s["stop"] == "grad_tol"]
    assert all(float(s["gnorm"]) <= float(s["tol"]) for s in at_tol), at_tol
    assert all(s in at_tol for s in early if float(s["mu"]) == MUS[0])
    _report("5b", f"{len(at_tol)} of {len(early)} early-width stage-2 solves stop at "
                  f"grad_tol, within GAMMA * mu", t0)


def test_stage1_solves_stop_before_the_iteration_cap(criterion4_solves, variant_fits,
                                                     trend_results, logged_solves):
    # Stage 1 is one Newton solve per penalty weight of RHOS: each converges, so none
    # runs to max_iters or stalls.
    t0 = time.perf_counter()
    rungs = criterion4_solves["rungs"] + [s for s in logged_solves if s["stage"] == "stage1"]
    fits = 50 + len(variant_fits) + len(trend_results["fits"])
    assert len(rungs) == len(RHOS) * fits == 7 * 71
    stops = [s["stop"] for s in rungs]
    assert set(stops) == {"grad_tol"}, stops
    reports = [info["report"] for info, _ in criterion4_solves["infos"]] + [
        r.initial_report for r, _ in list(variant_fits) + list(trend_results["fits"])]
    assert all(r.stop_reason != "max_iters" for r in reports)
    steps = [r.iterations for r in reports]
    _report("4b", f"{len(rungs)} stage-1 solves of {fits} fits stop before the cap "
                  f"({', '.join(f'{r} {stops.count(r)}' for r in sorted(set(stops)))}), "
                  f"{min(steps)}-{max(steps)} Newton steps per fit", t0)


def test_criterion_11_convex_regression():
    t0 = time.perf_counter()
    rng = np.random.default_rng(37)
    X = rng.uniform(-1, 1, (2000, 2))
    y = np.sum(X * X, axis=1)
    result = fit_dcf(Dataset(X, y),
                     FitConfig(variant=CONVEX_MAX_AFFINE, kind=features.L2, seed=3))
    test_X = rng.uniform(-1, 1, (4000, 2))
    test_fvu = fvu(eval_model(result.final_model, test_X),
                   np.sum(test_X * test_X, axis=1))
    assert test_fvu < 0.05
    a = rng.uniform(-1, 1, (10_000, 2))
    b = rng.uniform(-1, 1, (10_000, 2))
    mid = eval_model(result.final_model, 0.5 * (a + b))
    avg = 0.5 * (eval_model(result.final_model, a) + eval_model(result.final_model, b))
    assert np.max(mid - avg) <= 1e-10
    _report(11, f"noiseless quadratic: FVU {test_fvu:.4f} < 0.05, midpoint "
                "convexity on 10^4 triples", t0)


def test_criterion_12_baseline_sanity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(41)
    X = rng.standard_normal((200, 3))
    y = rng.standard_normal(200)
    ds = Dataset(X, y)
    one_nn = KnnModel(ds, 1)
    assert np.array_equal(knn_predict(one_nn, X), y)
    for h in (0.01, 0.3, 10.0):
        preds = nw_predict(NwModel(ds, GAUSSIAN_KERNEL, h),
                           rng.standard_normal((500, 3)) * 2)
        assert np.all(preds >= y.min()) and np.all(preds <= y.max())
    grid = nw_cv_grid(1.0, 1.0, 1024, 8)
    assert abs(grid[-1] - 0.8705505632961241) <= 1e-12
    _report(12, "1-NN interpolation, NW range bound, bandwidth cap spot value", t0)


def test_criterion_13_determinism_and_persistence(tmp_path, variant_fits):
    t0 = time.perf_counter()
    spec = ExperimentSpec(train_sizes=(48, 96),
                          synthetic=SyntheticGen(target="xsinx", noise_sigma=0.1),
                          repetitions=2, estimators=("dcf", "knn"), seed=5)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    write_bench_outputs(run_experiment(spec), out1)
    write_bench_outputs(run_experiment(spec), out2)
    for name in ("results.csv", "summary.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    worst = 0.0
    grid = np.linspace(-1, 7, 500)[:, None]
    for i, (result, ds) in enumerate(variant_fits):
        path = tmp_path / f"model_{i}.json"
        save_model(result.final_model, path)
        loaded = load_model(path)
        pts = grid if ds.d == 1 else np.hstack([grid / 7.0, -grid / 7.0])
        gap = float(np.max(np.abs(eval_model(result.final_model, pts)
                                  - eval_model(loaded, pts))))
        worst = max(worst, gap)
        assert gap <= 1e-15
    _report(13, f"bench byte-identical across runs; round-trip eval gap {worst:.1e}",
            t0)
