"""Constructive approximations of Lipschitz/smooth/convex functions on covers.

These closed-form constructions carry uniform error bands proportional to the
cover radius.  They serve as quality baselines and as independent oracles for
testing the fitted models: the norm-feature construction is itself a valid
component, so the band checks exercise the same evaluation path the estimator
uses.
"""

from dataclasses import dataclass

import numpy as np

from . import features
from .model import DcComponent, eval_max
from .targets import TargetFunction


@dataclass(frozen=True)
class CoverSpec:
    """A finite point set together with its cover radius."""

    centers: np.ndarray
    eps: float

    def __post_init__(self):
        centers = np.atleast_2d(np.asarray(self.centers, dtype=float))
        if self.eps < 0:
            raise ValueError("eps must be >= 0")
        object.__setattr__(self, "centers", centers)

    @property
    def d(self) -> int:
        return self.centers.shape[1]


def grid_cover(lo: float, hi: float, k: int) -> CoverSpec:
    """k equidistant points on [lo, hi]; cover radius = half the spacing."""
    centers = np.linspace(lo, hi, k)[:, None]
    eps = (hi - lo) / (2.0 * (k - 1)) if k > 1 else (hi - lo) / 2.0
    return CoverSpec(centers, eps)


@dataclass(frozen=True)
class MaxAffine:
    """Max of affine functions in absolute coordinates: max_k b_k + s_k . x."""

    biases: np.ndarray   # (K,)
    slopes: np.ndarray   # (K, d)

    def __call__(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return np.max(self.biases + X @ self.slopes.T, axis=1)


@dataclass(frozen=True)
class QuadraticMax:
    """Max over centers of affine-minus-quadratic local models.

    max_k b_k + s_k . (x - c_k) - curvature * ||x - c_k||^2.
    """

    centers: np.ndarray
    biases: np.ndarray
    slopes: np.ndarray
    curvature: float

    def __call__(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        diff = X[:, None, :] - self.centers[None, :, :]
        vals = (self.biases[None, :]
                + np.einsum("nkd,kd->nk", diff, self.slopes))
        sq = np.sum(diff * diff, axis=2)
        return np.max(vals - self.curvature * sq, axis=1)


def mcshane_lower(target: TargetFunction, cover: CoverSpec, kind: str) -> DcComponent:
    """Finite-cover version of the McShane extension, as a component.

    Pieces are b_k = f(center_k) with slope -t1*lambda on the norm feature
    (for the ReLU kind: -lambda on every coordinate, which reproduces the
    l1 norm).  The result lower-bounds f, matches it at the centers, and is
    within (1 + t1/t0)*lambda*eps of f on the covered set.
    """
    centers = cover.centers
    k, d = centers.shape
    cons = features.constants(kind, d)
    biases = target(centers)
    weights = np.zeros((k, cons.d_feat))
    if kind == features.PLUS:
        weights[:, :] = -target.lipschitz
    else:
        weights[:, d] = -cons.t1 * target.lipschitz
    return DcComponent(kind, centers, biases, weights)


def min_convex_upper(target: TargetFunction, cover: CoverSpec, kind: str) -> DcComponent:
    """Min-convex upper approximation, returned as the component of -f.

    The upper approximation of f is the negation of the lower approximation
    of -f; evaluate it as -eval_max(component, x) (see eval_min_convex).
    """
    return mcshane_lower(target.negate(), cover, kind)


def eval_min_convex(comp: DcComponent, X):
    """Value of an upper approximation produced by min_convex_upper."""
    return -eval_max(comp, X)


def smooth_lower(target: TargetFunction, cover: CoverSpec) -> QuadraticMax:
    """Gradient-based lower approximation for smooth targets.

    max_k f(c_k) + grad f(c_k).(x - c_k) - nu ||x - c_k||^2; the error on a
    convex covered set lies in [0, 2 nu eps^2].
    """
    if target.grad is None or target.smoothness is None:
        raise ValueError("smooth approximation needs a gradient and a smoothness constant")
    centers = cover.centers
    return QuadraticMax(centers, target(centers), target.gradient(centers),
                        float(target.smoothness))


def smooth_upper(target: TargetFunction, cover: CoverSpec):
    """Gradient-based upper companion of smooth_lower: the negated lower one of -f."""
    lower = smooth_lower(target.negate(), cover)
    # Exact, as the min form; 0.0 - v, unlike -v, keeps a zero of it +0.0.
    return lambda X: 0.0 - lower(X)


def quad_lower(target: TargetFunction, cover: CoverSpec) -> QuadraticMax:
    """Quadratic-feature lower approximation for Lipschitz targets.

    max_k f(c_k) - (lambda/eps) ||x - c_k||^2; the error on the covered set
    lies in [-lambda eps / 4, 2 lambda eps].
    """
    if cover.eps <= 0:
        raise ValueError("a positive cover radius is required")
    centers = cover.centers
    zero = np.zeros_like(centers)
    return QuadraticMax(centers, target(centers), zero, target.lipschitz / cover.eps)


def quad_upper(target: TargetFunction, cover: CoverSpec):
    """Quadratic-feature upper companion of quad_lower: the negated lower one of -f."""
    lower = quad_lower(target.negate(), cover)
    return lambda X: 0.0 - lower(X)    # as in smooth_upper


def quad_taylor_max_affine(cover: CoverSpec) -> MaxAffine:
    """Max of first-order Taylor models of ||x||^2 at the cover points.

    Underestimates ||x||^2 by at most eps^2 on the covered set.
    """
    centers = cover.centers
    biases = -np.sum(centers * centers, axis=1)
    slopes = 2.0 * centers
    return MaxAffine(biases, slopes)


LIPSCHITZ = "lipschitz"
SMOOTH = "smooth"


@dataclass(frozen=True)
class WeaklyDeltaApprox:
    """A weakly-max-affine approximation and its delta-max-affine companion.

    weak(x) = max_affine(x) - curvature * ||x||^2;
    delta(x) = max_affine(x) - quad_part(x), a difference of two max-affine
    functions obtained by replacing the quadratic with its Taylor max.
    """

    max_affine: MaxAffine
    curvature: float
    quad_part: MaxAffine

    def weak_values(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return self.max_affine(X) - self.curvature * np.sum(X * X, axis=1)

    def delta_values(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return self.max_affine(X) - self.quad_part(X)


def weakly_and_delta_max_affine(target: TargetFunction, cover: CoverSpec,
                                mode: str) -> WeaklyDeltaApprox:
    """Weakly/delta max-affine approximations built on a cover.

    LIPSCHITZ mode expands the quadratic-feature construction (quad_lower,
    curvature lambda/eps); SMOOTH mode expands the gradient-based one
    (smooth_lower, curvature nu).  b + s.(x - c) - q ||x - c||^2 is
    (b - s.c - q ||c||^2) + (s + 2 q c).x - q ||x||^2, so the weak form
    equals that QuadraticMax pointwise; the delta form replaces the quadratic
    by its Taylor max, losing at most curvature * eps^2 uniformly.
    """
    if cover.eps <= 0:
        raise ValueError("a positive cover radius is required")
    if mode not in (LIPSCHITZ, SMOOTH):
        raise ValueError(f"unknown mode {mode!r}")
    quad = (quad_lower if mode == LIPSCHITZ else smooth_lower)(target, cover)
    centers, s = quad.centers, quad.curvature
    biases = (quad.biases - np.einsum("kd,kd->k", quad.slopes, centers)
              - s * np.sum(centers * centers, axis=1))
    slopes = quad.slopes + 2.0 * s * centers
    mhat = quad_taylor_max_affine(cover)
    quad_part = MaxAffine(s * mhat.biases, s * mhat.slopes)
    return WeaklyDeltaApprox(MaxAffine(biases, slopes), s, quad_part)


def convex_taylor(target: TargetFunction, cover: CoverSpec) -> MaxAffine:
    """Max of first-order Taylor models of a convex target at the cover points.

    Exact at the centers; underestimates f by at most 2 lambda eps on the
    covered set.  The target's gradient supplies a fixed subgradient
    selection at kinks.
    """
    if target.grad is None:
        raise ValueError("a (sub)gradient selector is required")
    centers = cover.centers
    grads = target.gradient(centers)
    biases = target(centers) - np.einsum("kd,kd->k", grads, centers)
    return MaxAffine(biases, grads)


def fvu(predictions, targets) -> float:
    """Fraction of variance unexplained: sum((y-yhat)^2) / sum((y-ybar)^2)."""
    predictions = np.asarray(predictions, dtype=float).ravel()
    targets = np.asarray(targets, dtype=float).ravel()
    if predictions.shape != targets.shape or targets.size < 2:
        raise ValueError("predictions and targets must have equal length >= 2")
    denom = float(np.sum((targets - np.mean(targets)) ** 2))
    if denom <= 0.0:
        raise ValueError("FVU is undefined for constant targets")
    return float(np.sum((targets - predictions) ** 2)) / denom
