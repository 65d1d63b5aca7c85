"""Theoretically matched competitors: k-NN, Nadaraya-Watson, OLS, and k-fold CV."""

from dataclasses import dataclass

import numpy as np

from .data import Dataset

GAUSSIAN_KERNEL = "gaussian"
TRIWEIGHT_KERNEL = "triweight"


@dataclass(frozen=True)
class KnnModel:
    train: Dataset
    k: int

    def __post_init__(self):
        if not 1 <= self.k <= self.train.n:
            raise ValueError(f"k must lie in [1, {self.train.n}], got {self.k}")


@dataclass(frozen=True)
class NwModel:
    train: Dataset
    kernel: str
    bandwidth: float

    def __post_init__(self):
        if self.kernel not in (GAUSSIAN_KERNEL, TRIWEIGHT_KERNEL):
            raise ValueError(f"unknown kernel {self.kernel!r}")
        if self.bandwidth <= 0:
            raise ValueError("bandwidth must be positive")


@dataclass(frozen=True)
class OlsModel:
    intercept: float
    slopes: np.ndarray


def _distances(X, queries):
    queries = np.atleast_2d(np.asarray(queries, dtype=float))
    sq = (
        np.sum(queries * queries, axis=1)[:, None]
        - 2.0 * queries @ X.T
        + np.sum(X * X, axis=1)[None, :]
    )
    return np.sqrt(np.maximum(sq, 0.0))


def knn_cv_fold(X_tr, y_tr, X_va):
    """k-NN's fold step for ``kfold_cv``: predict(k), each query's mean response
    over its k nearest training rows, k capped at the rows.  One stable sort of
    the distances serves every k, and ties go to the smaller index."""
    order = np.argsort(_distances(X_tr, X_va), axis=1, kind="stable")
    return lambda k: y_tr[order[:, :min(int(k), len(y_tr))]].mean(axis=1)


def knn_predict(model: KnnModel, x):
    """Mean response of the k nearest rows; distance ties go to smaller index."""
    single = np.asarray(x).ndim == 1
    vals = knn_cv_fold(model.train.X, model.train.y, x)(model.k)
    return float(vals[0]) if single else vals


def knn_cv_grid(n: int, d: int, max_values: int = 50):
    """Candidate neighbor counts 1..floor(ln(n) n^(2/(2+d))), capped at n-1.

    Large ranges are subsampled to at most ``max_values`` log-spaced integers.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    cap = int(np.floor(np.log(n) * n ** (2.0 / (2.0 + d))))
    cap = max(1, min(cap, n - 1))
    if cap <= max_values:
        return list(range(1, cap + 1))
    ks = np.unique(np.round(np.geomspace(1, cap, max_values)).astype(int))
    return [int(k) for k in ks]


def nw_cv_fold(kernel):
    """Nadaraya-Watson's fold step for ``kfold_cv`` with ``kernel``:
    fold(X_tr, y_tr, X_va) -> predict(h), the kernel-weighted mean responses at
    bandwidth h.  The distances are computed once and serve every h; zero
    total weight falls back to the nearest row."""
    def fold(X_tr, y_tr, X_va):
        dist = _distances(X_tr, X_va)

        def predict(bandwidth):
            u = dist / bandwidth
            if kernel == GAUSSIAN_KERNEL:
                w = np.exp(-0.5 * u * u)
            else:
                w = np.where(u <= 1.0, (1.0 - np.minimum(u, 1.0) ** 2) ** 3, 0.0)
            denom = w.sum(axis=1)
            vals = np.empty(dist.shape[0])
            ok = denom > 0.0
            if ok.any():
                vals[ok] = (w[ok] @ y_tr) / denom[ok]
            if (~ok).any():
                nearest = np.argmin(dist[~ok], axis=1)  # first occurrence = smaller index
                vals[~ok] = y_tr[nearest]
            return vals

        return predict
    return fold


def nw_predict(model: NwModel, x):
    """Kernel-weighted mean response; zero total weight falls back to 1-NN."""
    single = np.asarray(x).ndim == 1
    vals = nw_cv_fold(model.kernel)(model.train.X, model.train.y, x)(model.bandwidth)
    return float(vals[0]) if single else vals


def nw_cv_grid(r_x: float, r_y: float, n: int, d: int):
    """100 equidistant bandwidths up to (2 r_x)^(d/(2+d)) (r_y^2 / n)^(1/(2+d))."""
    if r_x <= 0 or r_y <= 0:
        raise ValueError("r_x and r_y must be positive")
    cap = (2.0 * r_x) ** (d / (2.0 + d)) * (r_y * r_y / n) ** (1.0 / (2.0 + d))
    return [(j / 100.0) * cap for j in range(1, 101)]


def ols_fit(dataset: Dataset, ridge: float = 1e-10) -> OlsModel:
    """Affine least-squares fit; a tiny slope ridge handles rank deficiency."""
    A = np.hstack([np.ones((dataset.n, 1)), dataset.X])
    gram = A.T @ A
    gram[1:, 1:] += ridge * np.eye(dataset.d)
    rhs = A.T @ dataset.y
    try:
        beta = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError:
        beta = np.linalg.lstsq(gram, rhs, rcond=None)[0]
    return OlsModel(float(beta[0]), beta[1:])


def ols_predict(model: OlsModel, x):
    single = np.asarray(x).ndim == 1
    X = np.atleast_2d(np.asarray(x, dtype=float))
    vals = model.intercept + X @ model.slopes
    return float(vals[0]) if single else vals


def kfold_cv(dataset: Dataset, grid, fold_fit, folds: int = 5, seed: int = 0,
             return_scores: bool = False):
    """Pick the grid value with the lowest mean validation MSE.

    ``fold_fit(train_X, train_y, eval_X)`` runs once per fold and returns
    ``predict(value)``, the predictions for eval_X at one grid value, so the
    work the grid values share (``knn_cv_fold``'s sort, ``nw_cv_fold``'s
    distances) is done once per fold.  Rows are shuffled once with the seed
    and split into contiguous folds; ties (including duplicate grid entries)
    resolve to the first index.
    """
    grid = list(grid)
    if not grid:
        raise ValueError("empty hyperparameter grid")
    if dataset.n < folds:
        raise ValueError(f"need at least {folds} rows for {folds}-fold CV")
    perm = np.random.default_rng(seed).permutation(dataset.n)
    parts = np.array_split(perm, folds)
    scores = np.zeros(len(grid))
    for part in parts:
        holdout = np.zeros(dataset.n, dtype=bool)
        holdout[part] = True
        X_tr, y_tr = dataset.X[~holdout], dataset.y[~holdout]
        X_va, y_va = dataset.X[holdout], dataset.y[holdout]
        predict = fold_fit(X_tr, y_tr, X_va)
        for j, value in enumerate(grid):
            scores[j] += float(np.mean((predict(value) - y_va) ** 2))
    scores /= folds
    best = grid[int(np.argmin(scores))]
    return (best, scores) if return_scores else best
