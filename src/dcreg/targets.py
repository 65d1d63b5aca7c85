"""Benchmark regression functions with known Lipschitz/smoothness constants."""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


@dataclass(frozen=True)
class TargetFunction:
    """A regression function with the constants the constructions need.

    ``fn`` maps an (n, d) array to (n,) values.  ``grad`` (when available)
    maps (n, d) to (n, d) gradients, using a fixed subgradient selection at
    kinks.  ``lipschitz`` bounds |f(x)-f(x')| / ||x-x'|| on the domain and
    ``smoothness`` (when set) bounds the gradient's Lipschitz constant.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    lipschitz: float
    grad: Optional[Callable[[np.ndarray], np.ndarray]] = None
    smoothness: Optional[float] = None

    def __post_init__(self):
        if self.lipschitz <= 0:
            raise ValueError("lipschitz must be positive")
        if self.smoothness is not None and self.grad is None:
            raise ValueError("a smoothness constant requires a gradient")

    def __call__(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return np.asarray(self.fn(X), dtype=float)

    def gradient(self, X):
        if self.grad is None:
            raise ValueError("target has no gradient")
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return np.asarray(self.grad(X), dtype=float)

    def negate(self) -> "TargetFunction":
        grad = None if self.grad is None else (lambda X: -self.grad(X))
        return TargetFunction(lambda X: -self.fn(X), self.lipschitz, grad, self.smoothness)


def _dense_sup(fn, lo, hi, num=200_001):
    grid = np.linspace(lo, hi, num)
    return float(np.max(np.abs(fn(grid))))


def xsinx_target(lo=0.0, hi=6.0) -> TargetFunction:
    """f(x) = x sin(x); constants from dense sampling of f' and f''."""
    lam = _dense_sup(lambda t: np.sin(t) + t * np.cos(t), lo, hi)
    nu = _dense_sup(lambda t: 2.0 * np.cos(t) - t * np.sin(t), lo, hi)
    return TargetFunction(
        fn=lambda X: X[:, 0] * np.sin(X[:, 0]),
        grad=lambda X: (np.sin(X[:, 0]) + X[:, 0] * np.cos(X[:, 0]))[:, None],
        lipschitz=lam,
        smoothness=nu,
    )


def pw_linear_target() -> TargetFunction:
    """The three-spike piecewise-linear function max{1-|x-1|, 2-|x-3|, 1-|x-5|/2}."""

    def fn(X):
        x = X[:, 0]
        return np.maximum.reduce([
            1.0 - np.abs(x - 1.0),
            2.0 - np.abs(x - 3.0),
            1.0 - np.abs(x - 5.0) / 2.0,
        ])

    return TargetFunction(fn=fn, lipschitz=1.0)


def normsq_target(d: int, radius: float = 1.0) -> TargetFunction:
    """f(x) = ||x||^2 on the cube [-radius, radius]^d; convex, 2-smooth."""
    lam = 2.0 * radius * np.sqrt(d)
    return TargetFunction(
        fn=lambda X: np.sum(X * X, axis=1),
        grad=lambda X: 2.0 * X,
        lipschitz=float(lam),
        smoothness=2.0,
    )


def random_delta_max_affine_target(d: int, lipschitz: float, seed: int,
                                   pieces: int = 6) -> TargetFunction:
    """Random piecewise-linear Lipschitz target: difference of two max-affine parts.

    Each part uses slopes of Euclidean norm at most lipschitz/2, so the
    difference is lipschitz-Lipschitz.
    """
    rng = np.random.default_rng(seed)

    def draw_part():
        raw = rng.standard_normal((pieces, d))
        norms = np.maximum(np.linalg.norm(raw, axis=1), 1e-12)
        scales = rng.uniform(0.0, 0.5 * lipschitz, size=pieces)
        slopes = raw * (scales / norms)[:, None]
        biases = rng.uniform(-1.0, 1.0, size=pieces)
        return biases, slopes

    b1, s1 = draw_part()
    b2, s2 = draw_part()

    def fn(X):
        return (np.max(b1 + X @ s1.T, axis=1) - np.max(b2 + X @ s2.T, axis=1))

    return TargetFunction(fn=fn, lipschitz=float(lipschitz))


def empirical_lipschitz(values: np.ndarray, points: np.ndarray) -> float:
    """Largest difference quotient of sampled values over sampled points.

    For 1-d points the max over adjacent sorted pairs equals the max over all
    pairs; otherwise all pairs are scanned.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    values = np.asarray(values, dtype=float)
    if points.shape[1] == 1:
        order = np.argsort(points[:, 0], kind="stable")
        x = points[order, 0]
        v = values[order]
        dx = np.diff(x)
        dv = np.abs(np.diff(v))
        ok = dx > 0
        return float(np.max(dv[ok] / dx[ok]))
    diff = points[:, None, :] - points[None, :, :]
    dist = np.linalg.norm(diff, axis=2)
    gap = np.abs(values[:, None] - values[None, :])
    mask = dist > 0
    return float(np.max(gap[mask] / dist[mask]))
