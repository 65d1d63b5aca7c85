import numpy as np
import pytest

from _helpers import assign_cells
from dcreg.data import Dataset
from dcreg.partition import afpc, data_radii, khat


def test_data_radii_1d():
    r_x, r_y = data_radii(Dataset(np.array([[0.0], [2.0]]), np.array([1.0, 1.0])))
    assert r_x == 1.0
    assert r_y == 0.0


def test_data_radii_constant_y():
    _, r_y = data_radii(Dataset(np.zeros((3, 1)), np.array([5.0, 5.0, 5.0])))
    assert r_y == 0.0


def test_data_radii_square():
    X = np.array([[0.0, 0.0], [0.0, 4.0], [4.0, 0.0], [4.0, 4.0]])
    r_x, _ = data_radii(Dataset(X, np.zeros(4)))
    assert r_x == pytest.approx(2.8284271247461903, abs=1e-14)  # 2*sqrt(2)


def test_khat_values():
    assert khat(2, 1, 2.0, 1.0) == pytest.approx(1.2599210498948732, abs=1e-14)
    assert khat(2, 1, 0.0, 1.0) == 0.0
    assert khat(100, 3, 0.0, 5.0) == 0.0
    assert khat(4096, 8, 1.0, 1.0) == pytest.approx(776.0468820533241, rel=1e-14)
    # all-identical covariates
    assert khat(50, 2, 0.5, 0.0) == 0.0


def test_afpc_two_points():
    p = afpc(np.array([[0.0], [2.0]]), seed=0)
    assert sorted(p.centers.ravel().tolist()) == [0.0, 2.0]
    assert p.eps_n == 0.0
    assert p.n_centers == 2


def test_afpc_duplicate_points():
    X = np.ones((40, 2)) * 3.7
    p = afpc(X, seed=5)
    assert p.n_centers == 1
    assert p.eps_n == 0.0
    assert np.all(p.assignment == 0)


def test_afpc_single_point():
    X = np.array([[1.5, -2.0]])
    p = afpc(X, seed=9)
    assert p.n_centers == 1
    assert np.array_equal(p.centers, X)


def test_afpc_duplicates_mixed_with_distinct():
    # duplicated rows coexist with distinct ones; centers stay distinct
    X = np.array([[0.0], [0.0], [0.0], [1.0], [1.0], [5.0]])
    p = afpc(X, seed=3)
    uniq = np.unique(p.centers, axis=0)
    assert uniq.shape[0] == p.n_centers


def test_assign_cells_tie_breaks_to_smaller_index():
    centers = np.array([[0.0], [2.0]])
    labels, eps = assign_cells(centers, np.array([[1.0]]))
    assert labels[0] == 0
    assert eps == 1.0


def test_assign_cells_single_center():
    X = np.array([[0.0], [3.0], [-1.0]])
    labels, eps = assign_cells(np.array([[0.0]]), X)
    assert np.all(labels == 0)
    assert eps == 3.0


def test_assign_cells_subset_of_centers():
    centers = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0]])
    labels, eps = assign_cells(centers, centers)
    assert eps == 0.0
    assert np.array_equal(labels, [0, 1, 2])


def test_afpc_labels_match_the_direct_assignment_on_exact_ties():
    # Integer-grid rows, many duplicated, lie at exactly equal distances from
    # several centers: the loop's labels must still be the smallest-index argmin.
    rng = np.random.default_rng(13)
    for trial in range(30):
        n, d = int(rng.integers(2, 300)), int(rng.integers(1, 5))
        X = rng.integers(-3, 4, (n, d)).astype(float)
        X = np.vstack([X, X[rng.integers(0, n, n // 2)]])
        p = afpc(X, seed=trial)
        labels, eps = assign_cells(p.centers, X)
        assert np.array_equal(p.assignment, labels)
        assert p.eps_n == eps


def test_afpc_determinism():
    rng = np.random.default_rng(11)
    X = rng.standard_normal((300, 4))
    p1 = afpc(X, seed=42)
    p2 = afpc(X, seed=42)
    assert np.array_equal(p1.centers, p2.centers)
    assert np.array_equal(p1.assignment, p2.assignment)
    assert p1.eps_n == p2.eps_n
    assert np.array_equal(p1.center_source_rows, p2.center_source_rows)


def _check_invariants(X, p):
    n, d = X.shape
    # centers are data rows
    assert np.array_equal(p.centers, X[p.center_source_rows])
    # Stopping window, exactly as the loop's condition checks imply: the
    # final radius satisfies the upper bound, the radius the last passed
    # check used satisfies the lower bound.
    if p.eps_n > 0.0:
        assert khat(n, d, p.eps_n, p.r_x) <= p.n_centers
        if p.n_centers > 1:
            assert p.n_centers - 1 < khat(n, d, p.eps_prev, p.r_x)
    # cardinality cap
    assert p.n_centers <= int(np.ceil(n ** (d / (2.0 + d))))
    # exact cover property (direct-difference distances, no tolerance)
    diff = X[:, None, :] - p.centers[None, :, :]
    sq = np.sum(diff * diff, axis=2)
    assert np.all(np.sqrt(sq.min(axis=1)) <= p.eps_n)
    # assignment is the smallest-index argmin
    assert np.array_equal(p.assignment, np.argmin(sq, axis=1))


def test_afpc_invariants_random_instances():
    rng = np.random.default_rng(7)
    for trial in range(25):
        n = int(rng.integers(2, 400))
        d = int(rng.integers(1, 6))
        X = rng.standard_normal((n, d)) * float(rng.uniform(0.1, 10))
        p = afpc(X, seed=trial)
        _check_invariants(X, p)


def test_afpc_fills_r_y():
    X = np.arange(10, dtype=float)[:, None]
    y = np.arange(10, dtype=float)
    p = afpc(X, seed=0, y=y)
    assert p.r_y == 4.5
