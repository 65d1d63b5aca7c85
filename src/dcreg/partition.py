"""Adaptive farthest-point clustering and its Voronoi cells.

The clustering grows greedily from a random seed row and stops once the
center count reaches the data-driven limit min{n (eps/r_x)^2, n^(d/(2+d))},
where eps is the current cover radius.  This balances cover accuracy against
the number of cells without any tuning parameter.
"""

from dataclasses import dataclass

import numpy as np

from .data import Dataset


@dataclass(frozen=True)
class Partition:
    """Centers drawn from the data, cell labels, and the cover radius.

    ``assignment[i]`` is the smallest center index attaining the minimum
    distance from row i; ``eps_n`` is the largest such minimum distance.
    """

    centers: np.ndarray
    center_source_rows: np.ndarray
    assignment: np.ndarray
    eps_n: float
    r_x: float
    r_y: float = 0.0
    # Cover radius just before the last center was added: the value the
    # stopping rule tested when it decided to insert.  Equals eps_n for K=1.
    eps_prev: float = 0.0

    @property
    def n_centers(self) -> int:
        return self.centers.shape[0]

    def cell_sizes(self) -> np.ndarray:
        return np.bincount(self.assignment, minlength=self.n_centers)


def data_radii(dataset: Dataset):
    """Max Euclidean deviation of X from its mean, and of y from its mean."""
    if dataset.n < 1:
        raise ValueError("empty dataset")
    xbar = dataset.X.mean(axis=0)
    r_x = float(np.max(np.linalg.norm(dataset.X - xbar, axis=1)))
    r_y = float(np.max(np.abs(dataset.y - np.mean(dataset.y))))
    return r_x, r_y


def khat(n: int, d: int, eps: float, r_x: float) -> float:
    """Partition size limit min{n (eps/r_x)^2, n^(d/(2+d))}.

    Returns 0 when eps = 0, and also when r_x = 0 (all covariates identical),
    so the clustering stops at a single center in degenerate cases.
    """
    if n < 1 or d < 1:
        raise ValueError("n and d must be >= 1")
    if eps < 0 or r_x < 0:
        raise ValueError("eps and r_x must be >= 0")
    if eps == 0.0 or r_x == 0.0:
        return 0.0
    return float(min(n * (eps / r_x) ** 2, n ** (d / (2.0 + d))))


def afpc(X: np.ndarray, seed: int, y=None) -> Partition:
    """Greedy farthest-point clustering with the adaptive stopping rule.

    The first center is a uniformly random row of X under the given seed;
    every subsequent center is the row farthest from the current centers
    (ties to the smallest row index).  The loop runs while the center count
    is below the adaptive limit, and stops immediately once the cover radius
    hits zero, so the returned centers are always distinct.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    n, d = X.shape
    if n < 1:
        raise ValueError("empty covariate matrix")
    xbar = X.mean(axis=0)
    r_x = float(np.max(np.linalg.norm(X - xbar, axis=1)))

    rng = np.random.default_rng(seed)
    first = int(rng.integers(n))
    rows = [first]
    # Minimum squared distance of every row to the chosen centers, and the
    # center attaining it; a later center takes a row only when strictly
    # nearer, so ties go to the smaller index.
    dmin = np.sum((X - X[first]) ** 2, axis=1)
    labels = np.zeros(n, dtype=np.int64)
    eps = float(np.sqrt(np.max(dmin)))
    eps_prev = eps
    while len(rows) < khat(n, d, eps, r_x):
        eps_prev = eps
        cand = int(np.argmax(dmin))  # first occurrence = smallest row index
        new = np.sum((X - X[cand]) ** 2, axis=1)
        labels[new < dmin] = len(rows)
        rows.append(cand)
        np.minimum(dmin, new, out=dmin)
        eps = float(np.sqrt(np.max(dmin)))

    source = np.asarray(rows, dtype=np.int64)
    centers = X[source].copy()
    r_y = 0.0
    if y is not None:
        y = np.asarray(y, dtype=float).ravel()
        r_y = float(np.max(np.abs(y - np.mean(y))))
    return Partition(centers, source, labels, eps, r_x, r_y, eps_prev)
