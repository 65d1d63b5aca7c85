"""Fitted-function representations: max-form components, variants, max-min-affine.

A component is a collection of pieces (b_k, w_k) over shared centers; its
value is the max over pieces of b_k + w_k . phi(x, center_k).  A model wraps
one or two components (or a max-min-affine block structure), an additive
offset, and the affine standardization maps that let it act on raw inputs.

Every variant is the same construction; ``VARIANT_TABLE`` holds the few facts
that set each one apart.
"""

import functools
from dataclasses import dataclass, replace
from typing import Callable, Optional

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
class Cone:
    """A linear cone on a component's slope rows W: sign * q(W) <= 0 per entry.

    q sums the slope columns listed by ``columns(d)``: the norm coefficient
    alone, or the two halves u and v of the ReLU pairs.  With no columns the
    cone is the whole space.
    """

    condition: str
    sign: float = 0.0
    columns: Callable = lambda d: ()

    def residuals(self, W, d):
        """sign * q(W) of slope rows W (..., K, s); positive entries lie outside the cone."""
        cols = self.columns(d)
        if not cols:
            return np.empty((*W.shape[:-1], 0))
        q = functools.reduce(np.add, [W[..., c] for c in cols])
        return q if self.sign > 0 else -q

    def penalty(self, W, d, rho):
        """rho * ||max(residuals, 0)||^2 of each component of stacked slopes W (m, K, s).

        Returns (the m values, add_gradient); add_gradient(gW) adds the
        gradient to gW.
        """
        cols = self.columns(d)
        if not cols:
            return [0.0] * len(W), lambda gW: None
        pos = np.maximum(self.residuals(W, d), 0.0)

        def add_gradient(gW):
            step = self.sign * 2.0 * rho * pos
            for c in cols:
                np.add(gW[..., c], step, out=gW[..., c])

        return ([rho * v for v in np.add.reduce((pos * pos).reshape(len(W), -1), 1).tolist()],
                add_gradient)

    def project(self, W, d):
        """Nearest cone point: one column is clipped at 0, more share the deficit of q."""
        cols = self.columns(d)
        W = W.copy()
        clip, deficit_of = (np.minimum, np.maximum) if self.sign > 0 else (np.maximum, np.minimum)
        if len(cols) == 1:
            W[:, cols[0]] = clip(W[:, cols[0]], 0.0)
        elif cols:  # sign * residuals is q
            deficit = deficit_of(self.sign * self.residuals(W, d), 0.0)
            for c in cols:
                W[:, c] -= deficit / len(cols)
            # The shares round: where q stays an ulp outside, the last column cancels the rest.
            rest = functools.reduce(np.add, [W[:, c] for c in cols[:-1]])
            W[:, cols[-1]] = np.where(self.residuals(W, d) > 0.0, -rest, W[:, cols[-1]])
        return W

    def check(self, W, d, variant):
        if np.any(self.residuals(W, d) > 0.0):
            raise ValueError(f"{variant} requires {self.condition}")


NO_CONE = Cone("no cone")
NORM_NONPOS = Cone("nonpositive norm coefficients", 1.0, lambda d: (d,))
NORM_NONNEG = Cone("nonnegative norm coefficients", -1.0, lambda d: (d,))
RELU_SUM_NONNEG = Cone("u >= -v elementwise", -1.0, lambda d: (slice(0, d), slice(d, 2 * d)))


@dataclass(frozen=True)
class Variant:
    """The facts that set one variant apart; all else is the shared construction.

    The model value is offset + sum_i signs[i] * max-form_i(x), or the
    max-min-affine form of the one component when ``mma`` is set.
    """

    name: str
    kinds: tuple                # the feature kinds it accepts
    signs: tuple = (1.0,)       # one sign per component
    norm_column: bool = True    # False: the norm coefficient is pinned at 0, not fitted
    cone: Cone = NO_CONE        # on each component's fitted slope rows
    mma: bool = False           # evaluated as the max-min-affine rewrite of its component

    def slope_dim(self, kind, d):
        """Length of a fitted slope row."""
        return features.feature_dim(kind, d) if self.norm_column else d

    def component_from(self, kind, centers, b, W, center_idx=None):
        """A component of fitted slopes W: cone-projected, pinned norm column restored."""
        W = self.cone.project(np.asarray(W, float), centers.shape[1])
        if not self.norm_column:
            W = np.hstack([W, np.zeros((W.shape[0], 1))])
        return DcComponent(kind, centers, np.asarray(b, float).copy(), W, center_idx)


_NORM_KINDS = (features.L1, features.L2, features.LINF)

VARIANT_TABLE = {v.name: v for v in (
    Variant(SINGLE, features.FEATURE_KINDS),
    Variant(COMPLEMENT, features.FEATURE_KINDS, signs=(-1.0,)),
    Variant(SYMMETRIC, features.FEATURE_KINDS, signs=(1.0, -1.0)),
    Variant(MAX_MIN_AFFINE, (features.LINF,), cone=NORM_NONPOS, mma=True),
    Variant(CONVEX_MAX_AFFINE, _NORM_KINDS, norm_column=False),
    Variant(CONVEX_NORM, _NORM_KINDS, cone=NORM_NONNEG),
    Variant(CONVEX_PLUS, (features.PLUS,), cone=RELU_SUM_NONNEG),
)}


def variant_spec(variant: str) -> Variant:
    """The table row of a variant name."""
    if variant not in VARIANT_TABLE:
        raise ValueError(f"unknown variant {variant!r}")
    return VARIANT_TABLE[variant]


def signed_sum(signs, terms):
    """sum_i signs[i] * terms[i] for signs of +-1: added or subtracted left to right."""
    total = terms[0] if signs[0] > 0 else -terms[0]
    for s, t in zip(signs[1:], terms[1:]):
        total = total + t if s > 0 else total - t
    return total


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

    def take(self, keep) -> "DcComponent":
        """The component restricted to the pieces ``keep``."""
        return replace(self, biases=self.biases[keep], weights=self.weights[keep],
                       center_idx=self.center_idx[keep])


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
        spec = variant_spec(self.variant)
        if len(self.components()) != len(spec.signs):
            raise ValueError(f"a {self.variant} model has {len(spec.signs)} component(s)")
        if (self.mma is not None) != spec.mma:
            raise ValueError("mma parameters are present iff the variant is max_min_affine")
        dims = {c.d for c in self.components()} | ({self.mma.d} if spec.mma else set())
        if len(dims) != 1:
            raise ValueError(f"components and mma blocks disagree on d: {sorted(dims)}")

    @property
    def spec(self) -> Variant:
        return VARIANT_TABLE[self.variant]

    @property
    def d(self) -> int:
        return self.component.d

    @classmethod
    def of(cls, variant, comps) -> "DcModel":
        """The ``variant`` model of ``comps``; max-min-affine blocks are their rewrite."""
        return cls(variant, *comps,
                   mma=to_max_min_affine(comps[0]) if variant_spec(variant).mma else None)

    def components(self):
        return (self.component,) if self.second is None else (self.component, self.second)

    def with_components(self, comps) -> "DcModel":
        """This model on components ``comps``; max-min-affine blocks are their rewrite."""
        return replace(self, component=comps[0], second=comps[1] if len(comps) > 1 else None,
                       mma=to_max_min_affine(comps[0]) if self.spec.mma else None)

    def transform_x(self, X) -> np.ndarray:
        """Map raw inputs into the model's internal coordinates."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if self.x_shift is None:
            return X
        Z = X - self.x_shift
        Z /= self.x_scale
        return Z


def validate_model(model: DcModel) -> None:
    """Check what a model file can get wrong beyond its shapes.

    Every number finite; the input maps of length d with positive scales;
    the variant's feature kinds, pinned norm column and cone.
    """
    spec, d = model.spec, model.d
    arrays = [a for c in model.components() for a in (c.centers, c.biases, c.weights)]
    arrays += [model.offset, *((model.mma.biases, model.mma.slopes) if spec.mma else ())]
    if not all(np.isfinite(a).all() for a in arrays):
        raise ValueError("model parameters must be finite")
    check_map(model.x_shift, model.x_scale, model.y_shift, model.y_scale, d, "standardization")
    for comp in model.components():
        if comp.kind not in spec.kinds:
            raise ValueError(f"{model.variant} does not accept the {comp.kind!r} kind")
        if not spec.norm_column and np.any(comp.weights[:, d] != 0.0):
            raise ValueError(f"{model.variant} requires a zero norm coefficient")
        spec.cone.check(comp.weights, d, model.variant)


def check_map(shift, scale, y_shift, y_scale, d, what):
    """An affine input/output map: finite, shift and scale of length d, scales > 0."""
    if not all(np.isfinite(a).all() for a in (shift, scale, y_shift, y_scale) if a is not None):
        raise ValueError(f"{what} numbers must be finite")
    if shift is not None and (np.shape(shift) != (d,) or np.shape(scale) != (d,)):
        raise ValueError(f"{what} vectors must have length d={d}")
    if (shift is not None and not np.all(scale > 0.0)) or not y_scale > 0.0:
        raise ValueError(f"{what} scales must be positive")


def _row_blocks(X):
    """(lo, hi, rows) blocks of at most _CHUNK rows, each copied column-major."""
    n = X.shape[0]
    for lo in range(0, n, _CHUNK):
        hi = min(lo + _CHUNK, n)
        yield lo, hi, np.asfortranarray(X[lo:hi])


def _buffers(count, shape, n):
    """``count`` buffers of ``shape`` + (rows,), big enough for every row block of n rows."""
    return [np.empty((*shape, min(n, _CHUNK))) for _ in range(count)]


def _piece_blocks(comp: DcComponent, X: np.ndarray):
    """(lo, hi, values) per row block: values[k, i] = b_k + w_k . phi(X[lo + i], c_k).

    Built from the explicit differences x_ij - c_kj one coordinate at a time,
    elementwise: a piece at its own center is exactly b_k, and the bits do not
    depend on the memory layout of X.  The norm plane reuses each difference,
    and is skipped when every norm coefficient is zero (convex_max_affine).
    Every block is written into the same (K, rows) buffers, so a block's
    values are overwritten by the next one.
    """
    centers, W, d, kind = comp.used_centers(), comp.weights, comp.d, comp.kind
    with_norm = kind != features.PLUS and bool(np.any(W[:, d]))
    bufs = _buffers(4 if with_norm else 3, (comp.n_pieces,), X.shape[0])
    for lo, hi, rows in _row_blocks(X):
        out, diff, tmp, *norm = (buf[:, :hi - lo] for buf in bufs)
        out[...] = comp.biases[:, None]
        for j in range(d):
            np.subtract(rows[:, j], centers[:, j, None], out=diff)
            if kind == features.PLUS:
                np.maximum(diff, 0.0, out=tmp)
                tmp *= W[:, j, None]
                out += tmp
                np.negative(diff, out=diff)
                np.maximum(diff, 0.0, out=diff)
                diff *= W[:, d + j, None]
            else:
                if with_norm:
                    features.fold_norm(kind, j, diff, norm[0], tmp)
                diff *= W[:, j, None]
            out += diff
        if with_norm:
            if kind == features.L2:
                np.sqrt(norm[0], out=norm[0])
            norm[0] *= W[:, d, None]
            out += norm[0]
        yield lo, hi, out


def _check_dim(X, d, what):
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != d:
        raise ValueError(f"input dimension {X.shape[1]} != {what} dimension {d}")
    return X


def eval_max(comp: DcComponent, x):
    """Max over pieces; accepts a single point (d,) or a batch (n, d)."""
    single = np.asarray(x).ndim == 1
    X = _check_dim(x, comp.d, "component")
    vals = np.empty(X.shape[0])
    for lo, hi, block in _piece_blocks(comp, X):
        block.max(axis=0, out=vals[lo:hi])
    return float(vals[0]) if single else vals


def _mma_blocks(mma: MaxMinAffine, X: np.ndarray):
    """(lo, hi, minima) per row block: block-major (K, rows) inner minima.

    The (K, L, rows) inner values B[k, l] + S[k, l] . x_i are summed one
    coordinate at a time, from the columns of the rows, so the bits do not
    depend on the memory layout of X.  Every block is written into the same
    buffers, as in ``_piece_blocks``; only d > 1 needs the second, scratch one.
    """
    B, S = mma.biases, mma.slopes
    bufs = _buffers(2 if mma.d > 1 else 1, B.shape, X.shape[0])
    min_buf, = _buffers(1, (mma.n_blocks,), X.shape[0])
    for lo, hi, rows in _row_blocks(X):
        r, columns = hi - lo, rows.T
        inner = np.multiply(S[:, :, 0, None], columns[0], out=bufs[0][:, :, :r])
        for j in range(1, mma.d):
            inner += np.multiply(S[:, :, j, None], columns[j], out=bufs[1][:, :, :r])
        inner += B[:, :, None]
        yield lo, hi, inner.min(axis=1, out=min_buf[:, :r])


def eval_mma(mma: MaxMinAffine, x):
    """Nested max-over-blocks of min-over-inner-pieces affine values."""
    single = np.asarray(x).ndim == 1
    X = _check_dim(x, mma.d, "mma")
    out = np.empty(X.shape[0])
    for lo, hi, block in _mma_blocks(mma, X):
        block.max(axis=0, out=out[lo:hi])
    return float(out[0]) if single else out


def eval_model_std(model: DcModel, X) -> np.ndarray:
    """Model value in internal (standardized) coordinates, before the y map."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    values = ((eval_mma(model.mma, X),) if model.spec.mma
              else (eval_max(c, X) for c in model.components()))
    out = model.offset
    for sign, m in zip(model.spec.signs, values):
        # Each form's fresh array takes the running sum: no (n,) temporaries.
        out = (np.add if sign > 0 else np.subtract)(out, m, out=m)
    return out


def eval_model(model: DcModel, x):
    """Model prediction on raw inputs; accepts (d,) or (n, d)."""
    single = np.asarray(x).ndim == 1
    vals = eval_model_std(model, model.transform_x(x))
    vals *= model.y_scale
    vals += model.y_shift
    return float(vals[0]) if single else vals


def slope_rows(model: DcModel) -> np.ndarray:
    """All slope vectors of a model's components as rows; a max-min-affine model's
    are its component's (u, v), which stage 2 regularizes, not its blocks'."""
    return np.vstack([c.weights for c in model.components()])


def lip_stat(model: DcModel) -> float:
    """Largest slope-parameter norm across all pieces (both components)."""
    return float(np.max(np.linalg.norm(slope_rows(model), axis=1)))


def prune(comp: DcComponent, X) -> DcComponent:
    """Drop pieces that never attain the max on the given inputs.

    Attainment uses a relative band 1e-9 * (1 + |max value|); all pieces in
    the band at some row are kept, so evaluation at every row is unchanged.
    The kept pieces' centers are in ``center_idx``.
    """
    X = _check_dim(X, comp.d, "component")
    keep = np.zeros(comp.n_pieces, dtype=bool)
    for _, _, vals in _piece_blocks(comp, X):
        top = vals.max(axis=0)
        keep |= (vals >= top - 1e-9 * (1.0 + np.abs(top))).any(axis=1)
    return comp.take(np.where(keep)[0])


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
    if model.spec.signs != (1.0, -1.0):
        raise ValueError("bias centering applies to a difference of two components only")
    c_delta = 0.5 * (float(np.mean(model.component.biases))
                     + float(np.mean(model.second.biases)))
    return model.with_components([replace(c, biases=c.biases - c_delta)
                                  for c in model.components()])


def n_parameters(model: DcModel, include_centers=False) -> int:
    """Number of free parameters (optionally counting center coordinates)."""
    if model.spec.mma:
        return int(model.mma.biases.size + model.mma.slopes.size + 1)  # + offset
    total = sum(c.biases.size + c.weights.size for c in model.components()) + 1
    if include_centers:
        used = {int(i) for c in model.components() for i in c.center_idx}
        total += len(used) * model.d
    return int(total)
