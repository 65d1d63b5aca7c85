"""Fitted-function representations: max-form components, variants, max-min-affine.

A component is a collection of pieces (b_k, w_k) over shared centers; its
value is the max over pieces of b_k + w_k . phi(x, center_k).  A model wraps
one or two components (or a max-min-affine block structure), an additive
offset, and the affine standardization maps that let it act on raw inputs.
"""

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import features
from .data import Dataset

SINGLE = "single"
COMPLEMENT = "complement"
SYMMETRIC = "symmetric"
MAX_MIN_AFFINE = "max_min_affine"
CONVEX_MAX_AFFINE = "convex_max_affine"
CONVEX_NORM = "convex_norm"
CONVEX_PLUS = "convex_plus"

VARIANTS = (SINGLE, COMPLEMENT, SYMMETRIC, MAX_MIN_AFFINE,
            CONVEX_MAX_AFFINE, CONVEX_NORM, CONVEX_PLUS)
CONVEX_VARIANTS = (CONVEX_MAX_AFFINE, CONVEX_NORM, CONVEX_PLUS)

_CHUNK = 4096


@dataclass(frozen=True)
class DcComponent:
    """K pieces (b_k, w_k) over centers; pieces reference centers by index."""

    kind: str
    centers: np.ndarray        # (K_all, d) shared center table
    biases: np.ndarray         # (K,)
    weights: np.ndarray        # (K, d_feat)
    center_idx: np.ndarray = None  # (K,) indices into centers; default arange

    def __post_init__(self):
        features.check_kind(self.kind)
        centers = np.atleast_2d(np.asarray(self.centers, dtype=float))
        biases = np.asarray(self.biases, dtype=float).ravel()
        weights = np.atleast_2d(np.asarray(self.weights, dtype=float))
        if self.center_idx is None:
            idx = np.arange(biases.shape[0], dtype=np.int64)
        else:
            idx = np.asarray(self.center_idx, dtype=np.int64).ravel()
        if biases.shape[0] < 1:
            raise ValueError("a component needs at least one piece")
        if weights.shape != (biases.shape[0], features.feature_dim(self.kind, centers.shape[1])):
            raise ValueError(
                f"weights shape {weights.shape} does not match "
                f"{biases.shape[0]} pieces of dim {features.feature_dim(self.kind, centers.shape[1])}")
        if idx.shape[0] != biases.shape[0] or idx.min() < 0 or idx.max() >= centers.shape[0]:
            raise ValueError("center_idx does not match the pieces/centers")
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "biases", biases)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "center_idx", idx)

    @property
    def n_pieces(self) -> int:
        return self.biases.shape[0]

    @property
    def d(self) -> int:
        return self.centers.shape[1]

    def used_centers(self) -> np.ndarray:
        return self.centers[self.center_idx]


@dataclass(frozen=True)
class MaxMinAffine:
    """Outer-max blocks of inner-min affine pieces, in absolute coordinates."""

    biases: np.ndarray   # (K, L)
    slopes: np.ndarray   # (K, L, d)

    def __post_init__(self):
        biases = np.atleast_2d(np.asarray(self.biases, dtype=float))
        slopes = np.asarray(self.slopes, dtype=float)
        if slopes.ndim != 3 or slopes.shape[:2] != biases.shape:
            raise ValueError(f"slopes shape {slopes.shape} does not match biases {biases.shape}")
        object.__setattr__(self, "biases", biases)
        object.__setattr__(self, "slopes", slopes)

    @property
    def n_blocks(self) -> int:
        return self.biases.shape[0]

    @property
    def d(self) -> int:
        return self.slopes.shape[2]


@dataclass(frozen=True)
class DcModel:
    """A fitted function: variant tag, component(s), offset, input/output maps."""

    variant: str
    component: DcComponent
    second: Optional[DcComponent] = None
    offset: float = 0.0
    mma: Optional[MaxMinAffine] = None
    x_shift: Optional[np.ndarray] = None
    x_scale: Optional[np.ndarray] = None
    y_shift: float = 0.0
    y_scale: float = 1.0

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if (self.second is not None) != (self.variant == SYMMETRIC):
            raise ValueError("a second component is present iff the variant is symmetric")
        if (self.mma is not None) != (self.variant == MAX_MIN_AFFINE):
            raise ValueError("mma parameters are present iff the variant is max_min_affine")

    @property
    def d(self) -> int:
        return self.component.d

    def components(self):
        return (self.component,) if self.second is None else (self.component, self.second)

    def transform_x(self, X) -> np.ndarray:
        """Map raw inputs into the model's internal coordinates."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if self.x_shift is None:
            return X
        return (X - self.x_shift) / self.x_scale


def validate_model(model: DcModel) -> None:
    """Check the variant-specific parameter cone conditions."""
    d = model.d
    if model.variant == CONVEX_MAX_AFFINE:
        if np.any(model.component.weights[:, d] != 0.0):
            raise ValueError("convex_max_affine requires a zero norm coefficient")
    elif model.variant == CONVEX_NORM:
        if np.any(model.component.weights[:, d] < 0.0):
            raise ValueError("convex_norm requires nonnegative norm coefficients")
    elif model.variant == CONVEX_PLUS:
        w = model.component.weights
        if np.any(w[:, :d] + w[:, d:] < 0.0):
            raise ValueError("convex_plus requires u >= -v elementwise")


def _piece_block(comp: DcComponent, X: np.ndarray) -> np.ndarray:
    """Piece-major values of one row block: out[k, i] = b_k + w_k . phi(X[i], c_k).

    Built from the explicit differences x_ij - c_kj one coordinate at a time,
    elementwise: a piece at its own center is exactly b_k, and the bits do not
    depend on the memory layout of X.  The norm plane is skipped when every
    norm coefficient is zero (convex_max_affine).
    """
    centers, W, d = comp.used_centers(), comp.weights, comp.d
    out = np.repeat(comp.biases[:, None], X.shape[0], axis=1)
    for j in range(d):
        diff = X[:, j] - centers[:, j, None]
        if comp.kind == features.PLUS:
            out += W[:, j, None] * np.maximum(diff, 0.0)
            diff = np.maximum(-diff, 0.0, out=diff)
            diff *= W[:, d + j, None]
        else:
            diff *= W[:, j, None]
        out += diff
    if comp.kind != features.PLUS and np.any(W[:, d]):
        out += W[:, d, None] * features.norm_plane(comp.kind, X, centers)
    return out


def _row_blocks(X):
    """(lo, hi, rows) blocks of at most _CHUNK rows, each copied column-major."""
    n = X.shape[0]
    for lo in range(0, n, _CHUNK):
        hi = min(lo + _CHUNK, n)
        yield lo, hi, np.asfortranarray(X[lo:hi])


def _check_dim(X, d, what):
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != d:
        raise ValueError(f"input dimension {X.shape[1]} != {what} dimension {d}")
    return X


def piece_values(comp: DcComponent, X: np.ndarray) -> np.ndarray:
    """Piece-major (K, n) matrix of per-piece affine-in-feature values."""
    X = _check_dim(X, comp.d, "component")
    out = np.empty((comp.n_pieces, X.shape[0]))
    for lo, hi, rows in _row_blocks(X):
        out[:, lo:hi] = _piece_block(comp, rows)
    return out


def eval_max(comp: DcComponent, x):
    """Max over pieces; accepts a single point (d,) or a batch (n, d)."""
    single = np.asarray(x).ndim == 1
    X = _check_dim(x, comp.d, "component")
    vals = np.empty(X.shape[0])
    for lo, hi, rows in _row_blocks(X):
        vals[lo:hi] = _piece_block(comp, rows).max(axis=0)
    return float(vals[0]) if single else vals


def eval_partitioned(comp: DcComponent, x, label):
    """Value of the piece(s) selected by cell label instead of the max.

    Dominated by eval_max everywhere; equals it at each piece's own center.
    """
    single = np.asarray(x).ndim == 1
    X = np.atleast_2d(np.asarray(x, dtype=float))
    labels = np.atleast_1d(np.asarray(label, dtype=np.int64))
    if single and labels.shape[0] == 1:
        labels = np.repeat(labels, X.shape[0])
    if labels.shape[0] != X.shape[0]:
        raise ValueError("one label per row is required")
    if labels.min() < 0 or labels.max() >= comp.n_pieces:
        raise ValueError(f"label out of range [0, {comp.n_pieces})")
    centers = comp.used_centers()[labels]
    rows = features.phi_rows(comp.kind, X, centers)
    vals = comp.biases[labels] + np.einsum("nj,nj->n", rows, comp.weights[labels])
    return float(vals[0]) if single else vals


def _mma_block(mma: MaxMinAffine, X: np.ndarray) -> np.ndarray:
    """Block-major (K, rows) inner minima of one row block, one coordinate at a time."""
    S = mma.slopes
    inner = S[:, :, 0, None] * X[:, 0]
    for j in range(1, mma.d):
        inner += S[:, :, j, None] * X[:, j]
    inner += mma.biases[:, :, None]
    return inner.min(axis=1)


def eval_mma(mma: MaxMinAffine, x):
    """Nested max-over-blocks of min-over-inner-pieces affine values."""
    single = np.asarray(x).ndim == 1
    X = _check_dim(x, mma.d, "mma")
    out = np.empty(X.shape[0])
    for lo, hi, rows in _row_blocks(X):
        out[lo:hi] = _mma_block(mma, rows).max(axis=0)
    return float(out[0]) if single else out


def eval_model_std(model: DcModel, X) -> np.ndarray:
    """Model value in internal (standardized) coordinates, before the y map."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if model.variant == COMPLEMENT:
        return model.offset - eval_max(model.component, X)
    if model.variant == SYMMETRIC:
        return model.offset + eval_max(model.component, X) - eval_max(model.second, X)
    if model.variant == MAX_MIN_AFFINE:
        return model.offset + eval_mma(model.mma, X)
    return model.offset + eval_max(model.component, X)


def eval_model(model: DcModel, x):
    """Model prediction on raw inputs; accepts (d,) or (n, d)."""
    single = np.asarray(x).ndim == 1
    vals = model.y_shift + model.y_scale * eval_model_std(model, model.transform_x(x))
    return float(vals[0]) if single else vals


def lip_stat(model: DcModel) -> float:
    """Largest slope-parameter norm across all pieces (both components)."""
    if model.variant == MAX_MIN_AFFINE:
        return float(np.max(np.linalg.norm(model.mma.slopes, axis=2)))
    return max(float(np.max(np.linalg.norm(c.weights, axis=1))) for c in model.components())


def _attaining(block_fn, n_blocks, X):
    """Mask of the blocks (pieces) within the relative band of the max at some row.

    The band is 1e-9 * (1 + |max value|) per row.
    """
    keep = np.zeros(n_blocks, dtype=bool)
    for _, _, rows in _row_blocks(X):
        vals = block_fn(rows)
        top = vals.max(axis=0)
        keep |= (vals >= top - 1e-9 * (1.0 + np.abs(top))).any(axis=1)
    return np.where(keep)[0]


def prune(comp: DcComponent, X, return_indices=False):
    """Drop pieces that never attain the max on the given inputs.

    Attainment uses a relative band 1e-9 * (1 + |max value|); all pieces in
    the band at some row are kept, so evaluation at every row is unchanged.
    """
    X = _check_dim(X, comp.d, "component")
    keep = _attaining(lambda rows: _piece_block(comp, rows), comp.n_pieces, X)
    pruned = replace(comp, biases=comp.biases[keep], weights=comp.weights[keep],
                     center_idx=comp.center_idx[keep])
    return (pruned, keep) if return_indices else pruned


def prune_mma(mma: MaxMinAffine, X, return_indices=False):
    """Drop outer blocks whose min never attains the outer max on the inputs."""
    X = _check_dim(X, mma.d, "mma")
    keep = _attaining(lambda rows: _mma_block(mma, rows), mma.n_blocks, X)
    pruned = MaxMinAffine(mma.biases[keep], mma.slopes[keep])
    return (pruned, keep) if return_indices else pruned


def center(model: DcModel, dataset: Dataset) -> DcModel:
    """Shift the offset so the mean prediction over the data equals mean(y)."""
    mean_pred = float(np.mean(eval_model(model, dataset.X)))
    shift = (float(np.mean(dataset.y)) - mean_pred) / model.y_scale
    return replace(model, offset=model.offset + shift)


def to_max_min_affine(comp: DcComponent) -> MaxMinAffine:
    """Rewrite a max-norm component with nonpositive norm coefficients.

    Piece k becomes a block of 2d inner affine pieces with slopes
    u_k + v_k*s*e_j over (j, s) in [d] x {+1, -1}; the norm term turns into
    the inner min because v_k <= 0.  Biases absorb -slope . center so the
    result is center-free.
    """
    if comp.kind != features.LINF:
        raise ValueError("max-min-affine conversion requires the max-norm kind")
    d = comp.d
    u = comp.weights[:, :d]
    v = comp.weights[:, d]
    if np.any(v > 0.0):
        raise ValueError("conversion requires nonpositive norm coefficients")
    signed_basis = np.vstack([np.eye(d), -np.eye(d)])            # (2d, d)
    slopes = u[:, None, :] + v[:, None, None] * signed_basis[None, :, :]
    centers = comp.used_centers()
    biases = comp.biases[:, None] - np.einsum("kld,kd->kl", slopes, centers)
    return MaxMinAffine(biases, slopes)


def symmetric_bias_center(model: DcModel) -> DcModel:
    """Shift both components' biases so their mean biases sum to zero.

    The same constant is subtracted from every bias of both components, so
    the difference (and hence the model value) is unchanged.
    """
    if model.variant != SYMMETRIC:
        raise ValueError("bias centering applies to symmetric models only")
    c_delta = 0.5 * (float(np.mean(model.component.biases))
                     + float(np.mean(model.second.biases)))
    comp1 = replace(model.component, biases=model.component.biases - c_delta)
    comp2 = replace(model.second, biases=model.second.biases - c_delta)
    return replace(model, component=comp1, second=comp2)


def n_parameters(model: DcModel, include_centers=False) -> int:
    """Number of free parameters (optionally counting center coordinates)."""
    if model.variant == MAX_MIN_AFFINE:
        total = model.mma.biases.size + model.mma.slopes.size
    else:
        total = sum(c.biases.size + c.weights.size for c in model.components())
    total += 1  # offset
    if include_centers and model.variant != MAX_MIN_AFFINE:
        used = {int(i) for c in model.components() for i in c.center_idx}
        total += len(used) * model.d
    return int(total)
