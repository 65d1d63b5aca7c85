"""Nonlinear feature maps that lift affine pieces into delta-convex functions.

Each piece of a fitted function is affine in the feature vector
``phi(kind, x, center)``.  For the norm kinds ("l1", "l2", "linf") the
feature is the difference vector followed by its norm; for "plus" it is
the positive and negative parts of the difference (a ReLU pair).
"""

from dataclasses import dataclass

import numpy as np

L1 = "l1"
L2 = "l2"
LINF = "linf"
PLUS = "plus"

FEATURE_KINDS = (L1, L2, LINF, PLUS)

_NORM_ORD = {L1: 1, L2: 2, LINF: np.inf}


@dataclass(frozen=True)
class FeatureConstants:
    """Norm constants of a feature map at dimension d.

    c_phi bounds the feature norm by c_phi * ||x - center||, lip_phi is the
    Lipschitz factor of the map in its center argument, and (t0, t1) satisfy
    t0 * ||.||_kind <= ||.||_2 <= t1 * ||.||_kind.
    """

    c_phi: float
    lip_phi: float
    t0: float
    t1: float
    d_feat: int


def check_kind(kind: str) -> str:
    if kind not in FEATURE_KINDS:
        raise ValueError(f"unknown feature kind {kind!r}; expected one of {FEATURE_KINDS}")
    return kind


def feature_dim(kind: str, d: int) -> int:
    """Length of the feature vector: d+1 for norm kinds, 2d for 'plus'."""
    check_kind(kind)
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    return 2 * d if kind == PLUS else d + 1


def constants(kind: str, d: int) -> FeatureConstants:
    """Norm constants of the feature map ``kind`` in dimension ``d``."""
    d_feat = feature_dim(kind, d)
    c_phi = np.sqrt(1.0 + (kind in (L2, LINF)) + d * (kind == L1))
    lip_phi = 1.0 + (kind != L1) + np.sqrt(d) * (kind == L1)
    # "plus" inherits (t0, t1) from the l1 case.
    if kind in (L2, LINF):
        t0 = 1.0
    else:
        t0 = 1.0 / np.sqrt(d)
    t1 = np.sqrt(d) if kind == LINF else 1.0
    return FeatureConstants(float(c_phi), float(lip_phi), float(t0), float(t1), d_feat)


def phi(kind: str, x: np.ndarray, xhat: np.ndarray) -> np.ndarray:
    """Feature vector of a single point against a single center."""
    x = np.asarray(x, dtype=float)
    xhat = np.asarray(xhat, dtype=float)
    if x.shape != xhat.shape or x.ndim != 1:
        raise ValueError(f"point/center shape mismatch: {x.shape} vs {xhat.shape}")
    return phi_rows(kind, x[None, :], xhat[None, :])[0]


def phi_rows(kind: str, X: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Row-wise features: row i is phi(kind, X[i], centers[i]).

    X and centers must both be (n, d); returns (n, d_feat).
    """
    check_kind(kind)
    diff = X - centers
    if kind == PLUS:
        return np.hstack([np.maximum(diff, 0.0), np.maximum(-diff, 0.0)])
    norms = np.linalg.norm(diff, ord=_NORM_ORD[kind], axis=1)
    return np.hstack([diff, norms[:, None]])


def norm_plane(kind: str, X: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Piece-major norms: out[k, i] = ||X[i] - centers[k]||_kind, shape (K, n).

    Built from the explicit differences x_ij - c_kj one coordinate at a time,
    elementwise, so the bits do not depend on the memory layout of X and the
    norm at a piece's own center is exactly zero.
    """
    if kind not in _NORM_ORD:
        raise ValueError(f"{kind!r} is not a norm kind")
    norm, diff, scratch = (np.empty((centers.shape[0], X.shape[0])) for _ in range(3))
    for j in range(X.shape[1]):
        np.subtract(X[:, j], centers[:, j, None], out=diff)
        fold_norm(kind, j, diff, norm, scratch)
    return np.sqrt(norm, out=norm) if kind == L2 else norm


def fold_norm(kind, j, diff, norm, scratch):
    """Fold coordinate j's differences x_ij - c_kj into the running norm plane ``norm``.

    |diff| is summed (l1) or maximized (linf), and diff^2 summed (l2, whose
    square root the caller takes last); coordinate 0 starts ``norm``.
    """
    term = norm if j == 0 else scratch
    if kind == L2:
        np.multiply(diff, diff, out=term)
    else:
        np.abs(diff, out=term)
    if j > 0:
        (np.maximum if kind == LINF else np.add)(norm, scratch, out=norm)
