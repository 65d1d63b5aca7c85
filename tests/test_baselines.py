import numpy as np
import pytest

from dcreg.baselines import (GAUSSIAN_KERNEL, TRIWEIGHT_KERNEL, KnnModel,
                             NwModel, kfold_cv, knn_cv_fold, knn_cv_grid, knn_predict,
                             nw_cv_fold, nw_cv_grid, nw_predict, ols_fit, ols_predict)
from dcreg.data import Dataset


def _line_dataset():
    X = np.array([[0.0], [1.0], [2.0]])
    return Dataset(X, np.array([0.0, 1.0, 2.0]))


def test_knn_k1_interpolates():
    ds = _line_dataset()
    model = KnnModel(ds, 1)
    for i in range(ds.n):
        assert knn_predict(model, ds.X[i]) == ds.y[i]


def test_knn_k_equals_n_gives_mean():
    ds = _line_dataset()
    model = KnnModel(ds, 3)
    assert knn_predict(model, np.array([10.0])) == pytest.approx(1.0, abs=0)


def test_knn_hand_sort():
    ds = _line_dataset()
    model = KnnModel(ds, 2)
    assert knn_predict(model, np.array([0.9])) == pytest.approx(0.5, abs=0)


def test_knn_distance_tie_smaller_index():
    X = np.array([[0.0], [2.0]])
    ds = Dataset(X, np.array([5.0, 7.0]))
    assert knn_predict(KnnModel(ds, 1), np.array([1.0])) == 5.0


def test_knn_model_validation():
    ds = _line_dataset()
    with pytest.raises(ValueError):
        KnnModel(ds, 0)
    with pytest.raises(ValueError):
        KnnModel(ds, 4)


def test_knn_cv_grid():
    assert knn_cv_grid(1024, 8) == list(range(1, 28))  # floor(6.931*4.0) = 27
    assert knn_cv_grid(2, 1) == [1]
    for n, d in ((50, 1), (700, 2), (5000, 3)):
        grid = knn_cv_grid(n, d)
        assert max(grid) <= n - 1
        assert min(grid) == 1
        assert len(grid) <= 50
        assert grid == sorted(set(grid))


def test_nw_large_bandwidth_gives_mean():
    ds = _line_dataset()
    model = NwModel(ds, GAUSSIAN_KERNEL, 1e9)
    assert nw_predict(model, np.array([0.3])) == pytest.approx(1.0, abs=1e-6)


def test_nw_triweight_outside_support_falls_back_to_1nn():
    ds = _line_dataset()
    model = NwModel(ds, TRIWEIGHT_KERNEL, 0.5)
    assert nw_predict(model, np.array([50.0])) == 2.0
    assert nw_predict(model, np.array([-50.0])) == 0.0


def test_nw_single_training_point():
    ds = Dataset(np.array([[1.0]]), np.array([4.0]))
    for kernel in (GAUSSIAN_KERNEL, TRIWEIGHT_KERNEL):
        model = NwModel(ds, kernel, 0.7)
        for x in (-10.0, 1.0, 10.0):
            assert nw_predict(model, np.array([x])) == 4.0


def test_nw_prediction_is_convex_combination():
    rng = np.random.default_rng(0)
    ds = Dataset(rng.standard_normal((100, 2)), rng.standard_normal(100))
    for kernel in (GAUSSIAN_KERNEL, TRIWEIGHT_KERNEL):
        for h in (0.05, 0.5, 5.0):
            model = NwModel(ds, kernel, h)
            preds = nw_predict(model, rng.standard_normal((300, 2)) * 3)
            assert np.all(preds >= ds.y.min() - 1e-12)
            assert np.all(preds <= ds.y.max() + 1e-12)


def test_nw_cv_grid_cap():
    grid = nw_cv_grid(1.0, 1.0, 1024, 8)
    assert len(grid) == 100
    assert grid[-1] == pytest.approx(0.8705505632961241, abs=1e-12)  # 2^{-0.2}
    assert grid[0] == pytest.approx(grid[-1] / 100.0, abs=1e-15)
    assert all(a < b for a, b in zip(grid, grid[1:]))
    assert grid[0] > 0


def test_nw_cv_grid_rejects_zero_radius():
    with pytest.raises(ValueError):
        nw_cv_grid(0.0, 1.0, 10, 1)


def test_ols_exact_affine():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((50, 3))
    y = 2.0 + X @ np.array([1.0, -2.0, 0.5])
    model = ols_fit(Dataset(X, y))
    assert np.allclose(ols_predict(model, X), y, atol=1e-9)


def test_ols_constant_data():
    ds = Dataset(np.random.default_rng(2).standard_normal((20, 2)),
                 np.full(20, 3.25))
    model = ols_fit(ds)
    assert model.intercept == pytest.approx(3.25, abs=1e-9)
    assert np.allclose(model.slopes, 0.0, atol=1e-9)


def test_ols_rank_deficient_matches_normal_equations_oracle():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((30, 2))
    X = np.hstack([X, X[:, :1]])  # duplicated column: rank deficient
    y = X[:, 0] + 2.0
    model = ols_fit(Dataset(X, y))
    # oracle: ridge-regularized normal equations solved independently
    A = np.hstack([np.ones((30, 1)), X])
    gram = A.T @ A
    gram[1:, 1:] += 1e-10 * np.eye(3)
    beta = np.linalg.solve(gram, A.T @ y)
    assert model.intercept == pytest.approx(beta[0], abs=1e-8)
    assert np.allclose(model.slopes, beta[1:], atol=1e-8)
    assert np.allclose(ols_predict(model, X), y, atol=1e-6)


def _mean_fold(Xtr, ytr, Xva):
    return lambda k: np.full(Xva.shape[0], float(np.mean(ytr)))


def test_kfold_cv_single_grid_value():
    ds = _line_dataset()
    assert kfold_cv(ds, [7], _mean_fold, folds=3, seed=0) == 7


def test_kfold_cv_duplicate_entries_first_wins():
    rng = np.random.default_rng(4)
    ds = Dataset(rng.standard_normal((20, 1)), rng.standard_normal(20))
    best, scores = kfold_cv(ds, [3, 3, 3], _mean_fold, folds=5, seed=0,
                            return_scores=True)
    assert best == 3
    assert np.allclose(scores, scores[0])


def test_kfold_cv_planted_optimum():
    # noiseless 1-NN-friendly data: k=1 is clearly optimal for k-NN
    rng = np.random.default_rng(5)
    X = np.sort(rng.uniform(0, 1, 200))[:, None]
    y = np.sin(20 * X[:, 0])
    ds = Dataset(X, y)
    best = kfold_cv(ds, [1, 20, 60], knn_cv_fold, seed=1)
    assert best == 1


def test_kfold_cv_deterministic():
    rng = np.random.default_rng(6)
    ds = Dataset(rng.standard_normal((40, 2)), rng.standard_normal(40))
    a = kfold_cv(ds, [1, 2, 5], knn_cv_fold, seed=3, return_scores=True)
    b = kfold_cv(ds, [1, 2, 5], knn_cv_fold, seed=3, return_scores=True)
    assert a[0] == b[0]
    assert np.array_equal(a[1], b[1])


def test_kfold_cv_fold_steps_give_the_scores_of_a_fit_per_grid_value():
    # The fold steps compute each fold's distances (and, for k-NN, its sort) once;
    # the scores are those of predicting afresh at every grid value, bit for bit.
    # The k grid runs past a fold's 96 training rows, where the fold caps k.
    rng = np.random.default_rng(8)
    ds = Dataset(rng.uniform(-1, 1, (120, 2)), rng.standard_normal(120))
    perm = np.random.default_rng(2).permutation(ds.n)
    cases = [(knn_cv_fold, [1, 2, 7, 30, 96, 119],
              lambda tr, k: KnnModel(tr, min(k, tr.n)), knn_predict)]
    for kernel in (GAUSSIAN_KERNEL, TRIWEIGHT_KERNEL):
        cases.append((nw_cv_fold(kernel), [0.01, 0.1, 0.3, 1.0, 5.0],
                      lambda tr, h, kernel=kernel: NwModel(tr, kernel, h), nw_predict))
    for fold_fit, grid, model, predict in cases:
        expected = np.zeros(len(grid))
        for part in np.array_split(perm, 5):
            holdout = np.isin(np.arange(ds.n), part)
            train = Dataset(ds.X[~holdout], ds.y[~holdout])
            for j, value in enumerate(grid):
                pred = predict(model(train, value), ds.X[holdout])
                expected[j] += float(np.mean((pred - ds.y[holdout]) ** 2))
        best, scores = kfold_cv(ds, grid, fold_fit, seed=2, return_scores=True)
        assert np.array_equal(scores, expected / 5)
        assert best == grid[int(np.argmin(scores))]


def test_kfold_cv_validation():
    ds = _line_dataset()
    with pytest.raises(ValueError):
        kfold_cv(ds, [], _mean_fold)
    with pytest.raises(ValueError):
        kfold_cv(ds, [1], _mean_fold, folds=5)
