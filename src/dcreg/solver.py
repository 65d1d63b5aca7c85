"""The soft maximum of matrix columns, a deterministic L-BFGS and a damped Newton method.

Both optimizers run one descent loop, with Armijo-only backtracking that
tests each trial on its value, one set of stop rules and one report; they
differ only in the rule that proposes each direction.  Stage 2 runs L-BFGS,
whose direction is the compact form of the inverse Hessian over the last
``LBFGS_MEMORY`` curvature pairs.
Stage 1 runs the Newton method: its penalty objective has a gradient that is
only piecewise smooth, and each step solves with a generalized Hessian of it,
shifted in proportion to the gradient.
"""

import logging
from collections import deque
from dataclasses import dataclass, field
from math import isfinite, sqrt
from time import perf_counter
from typing import Callable

import numpy as np

log = logging.getLogger(__name__)


class SolverAbort(RuntimeError):
    """Raised by callers when a solve produced unusable (non-finite) output."""


@dataclass(frozen=True)
class ObjectiveHandle:
    """A differentiable objective: evaluate(x) -> (value, gradient thunk).

    The value is computed at once and the gradient deferred to the thunk.
    The thunk is called at most once, and is valid until the handle's next
    evaluation.  The line search calls it only at the trials it accepts.
    """

    dim: int
    evaluate: Callable[[np.ndarray], tuple]


GRAD_TOL = "grad_tol"        # gradient max-norm reached the solve's tolerance
MAX_ITERS = "max_iters"      # iteration cap reached first
LINE_SEARCH = "line_search"  # the line search found no acceptable step
NONFINITE = "nonfinite"      # an accepted step had a non-finite gradient
STALLED = "stalled"          # the value stopped falling over the stall window
STOP_REASONS = (GRAD_TOL, MAX_ITERS, LINE_SEARCH, NONFINITE, STALLED)

# Stall rule: stop once the last STALL_WINDOW accepted steps lowered the value
# by at most STALL_RTOL * max(1, |value|) in total.
STALL_WINDOW = 50
STALL_RTOL = 1e-8
# Convergence: the gradient's max-norm at most GRAD_NORM_TOL, unless a solve's
# SolverConfig.grad_tol says otherwise.  Armijo backtracking: at most
# LS_MAX_STEPS trials, each LS_SHRINK times the last, accepted at a decrease
# of LS_C1 * t * slope.
GRAD_NORM_TOL = 1e-6
LS_SHRINK = 0.5
LS_C1 = 1e-4
LS_MAX_STEPS = 40
LBFGS_MEMORY = 30   # L-BFGS keeps the curvature pairs of this many last steps
# Newton's Levenberg-Marquardt shift: NEWTON_SHIFT times the gradient's max-norm.
NEWTON_SHIFT = 0.1
# The soft-max exponents are clipped at _EXP_FLOOR.  exp(-60) = 8.8e-27: a
# column of fewer than 1e10 entries sums to the same double as unclipped, exp
# stays off numpy's per-element path (below -707.7), and no weight is subnormal.
_EXP_FLOOR = -60.0


@dataclass(frozen=True)
class SolverConfig:
    """The iteration cap of a solve (of all stage-1 Newton solves together), and
    the gradient max-norm at which an L-BFGS solve converges."""

    max_iters: int = 2000
    grad_tol: float = GRAD_NORM_TOL

    def __post_init__(self):
        if self.max_iters < 0:
            raise ValueError("max_iters must be >= 0")
        if not self.grad_tol >= 0.0:
            raise ValueError("grad_tol must be >= 0")


@dataclass(frozen=True)
class SolveReport:
    """Outcome of one solve.

    ``evaluations`` counts objective calls, line-search trials included;
    ``stop_reason`` is one of ``STOP_REASONS``, or empty when no solve ran;
    ``converged`` and ``aborted`` read it.  ``wall_s`` is the solve's wall
    time; it takes no part in comparisons, so two reports of the same solve
    are equal.
    """

    iterations: int
    final_value: float
    final_grad_norm: float
    line_search_failures: int
    evaluations: int = 0
    stop_reason: str = ""
    wall_s: float = field(default=0.0, compare=False)

    @property
    def converged(self) -> bool:
        return self.stop_reason == GRAD_TOL

    @property
    def aborted(self) -> bool:
        return self.stop_reason == NONFINITE


def softmax_columns(A: np.ndarray, mu: float, top: np.ndarray, out=None):
    """Soft maximum of each column of (K, n) matrices, and its weights unnormalized.

    A is one (K, n) matrix or a stack of them, and ``top`` its column maxima,
    A.max(axis=-2).  Returns (value, E, sums): E = exp((A - top) / mu), its
    exponents clipped at ``_EXP_FLOOR``, its column sums, and
    value = top + mu log sums, which lies in [top, top + mu log K].  The weights E / sums are the value's gradient in
    A; callers fold the division into their own scale.  E is written into
    ``out`` when given, which may be A itself.
    """
    E = np.subtract(A, top[..., None, :], out=out)
    E *= 1.0 / mu
    np.maximum(E, _EXP_FLOOR, out=E)
    np.exp(E, out=E)
    sums = np.add.reduce(E, -2)
    return top + mu * np.log(sums), E, sums


def unclipped_rows(A: np.ndarray, mu: float, top: np.ndarray) -> np.ndarray:
    """Whether each row of ``softmax_columns``' matrices weighs more than its clip
    in some column; every other row adds e^_EXP_FLOOR to each column sum."""
    return (softmax_columns(A, mu, top)[1] > np.exp(_EXP_FLOOR)).any(axis=-1)


class _Trials:
    """obj.evaluate, counting its calls."""

    def __init__(self, obj: ObjectiveHandle):
        self.evaluate, self.count = obj.evaluate, 0

    def __call__(self, x):
        self.count += 1
        return self.evaluate(x)

    def first(self, x0):
        """(x, value, gradient) at a copy of x0; both must be finite."""
        x = np.array(x0, dtype=float, copy=True)
        f, gradient = self(x)
        f = float(f)
        g = np.asarray(gradient(), dtype=float)
        if not np.isfinite(f) or not np.isfinite(g).all():
            raise ValueError("objective must be finite at the starting point")
        return x, f, g


def _gradient_step(g):
    """(direction, g.direction, first trial step) of a steepest-descent step.

    ||g|| is sqrt(g.g), which is what np.linalg.norm computes, and g.(-g) is -(g.g).
    """
    gg = float(g.dot(g))
    return -g, -gg, 1.0 / max(1.0, sqrt(gg))


def _backtrack(evaluate, x, f, direction, slope, t0):
    """Armijo backtracking along ``direction`` with g.direction = ``slope``.

    Each trial is tested on its value alone; only the accepted trial's
    gradient is computed.  Returns (accepted, t, x_new, f_new, g_new); after a
    failure only t is set.
    """
    t = t0
    for _ in range(LS_MAX_STEPS):
        x_new = x + t * direction
        f_new, gradient = evaluate(x_new)
        if isfinite(f_new) and f_new <= f + LS_C1 * t * slope:
            return True, t, x_new, float(f_new), np.asarray(gradient(), dtype=float)
        del gradient    # free a rejected trial's arrays before the next trial
        t *= LS_SHRINK
    return False, t, None, None, None


class _Memory:
    """The L-BFGS direction rule over the curvature pairs of the last ``LBFGS_MEMORY`` steps.

    The direction is -H g for the compact form of the inverse Hessian (Byrd,
    Nocedal & Schnabel, Math. Program. 63, 1994), with S and Y the pairs' s
    and y as rows, oldest first:

        H g = gamma g + S'u - gamma Y'p,  p = R^-1 (S g),
        u = R^-T (D p + gamma (Y Y' p - Y g)),

    where R is the upper triangle of the table s_i.y_j, D its diagonal, and
    gamma = s.y / y.y of the newest pair.  The pairs live in a ring of slots,
    (s, y) side by side, so that one product gives both S g and Y g and one
    gives S'u - gamma Y'p.  The small tables Y Y', D and R^-1 are indexed by
    slot too: the formula holds for any order of the pairs that S, Y and the
    tables share, with R keeping s_i.y_j wherever pair i is not newer than
    pair j.  A new pair takes the oldest one's slot: it drops that pair's row
    and column from the tables, and one product with its y gives its own.
    R^-1 keeps the rest, for the inverse of an upper triangular matrix
    without its first row and column is its inverse without them.
    """

    def __init__(self, dim):
        size = LBFGS_MEMORY
        self.pairs = np.empty((size, 2, dim))   # slot k % size holds the k-th kept pair
        self.kept = 0                           # pairs kept since the last reset
        self.yy = np.empty((size, size))        # y_i.y_j
        self.r_inv = np.zeros((size, size))     # R^-1
        self.sy = np.empty(size)                # D: s_i.y_i
        self.gamma = 1.0
        self.t_prev = 1.0  # last accepted quasi-Newton step; seeds the next trial

    def direction(self, x, g, gnorm):
        """The compact direction, or None (the gradient step) while no pair is kept."""
        m = min(self.kept, self.sy.size)
        if not m:
            return None
        pairs = self.pairs[:m].reshape(2 * m, -1)
        sg, yg = (pairs @ g).reshape(m, 2).T
        r_inv = self.r_inv[:m, :m]
        p = r_inv @ sg
        u = r_inv.T @ (self.sy[:m] * p + self.gamma * (self.yy[:m, :m] @ p - yg))
        coef = np.empty(2 * m)
        coef[0::2] = u
        np.multiply(p, -self.gamma, out=coef[1::2])
        d = pairs.T @ coef
        d += self.gamma * g
        # Growing restart from the last accepted step keeps backtracking
        # cheap on kinked objectives while recovering full steps fast.
        return np.negative(d, out=d), min(1.0, 2.0 * self.t_prev)

    def accepted(self, s, yv, t, proposed):
        """Keep the step's pair if its curvature is positive; a gradient step
        taken in place of a proposal first drops the memory that proposed it."""
        if proposed:
            self.t_prev = t
        else:
            self.kept = 0
            self.t_prev = 1.0
        sy = float(s.dot(yv))
        yy = float(yv.dot(yv))
        if sy > 1e-12 * sqrt(float(s.dot(s))) * sqrt(yy):
            self._keep(s, yv, sy, yy)

    def _keep(self, s, yv, sy, yy):
        k = self.kept % self.sy.size
        self.kept += 1
        m = min(self.kept, self.sy.size)
        self.pairs[k, 0] = s
        self.pairs[k, 1] = yv
        col = (self.pairs[:m].reshape(2 * m, -1) @ yv).reshape(m, 2)
        col[k] = sy, yy     # the curvature test's s.y > 0, so R stays invertible
        self.yy[:m, k] = self.yy[k, :m] = col[:, 1]
        self.sy[k] = sy
        r_inv = self.r_inv[:m, :m]
        r_inv[k] = r_inv[:, k] = 0.0
        r_inv[:, k] = -(r_inv @ col[:, 0]) / sy
        r_inv[k, k] = 1.0 / sy
        self.gamma = sy / yy


def _descend(obj: ObjectiveHandle, x0, max_iters: int, grad_tol: float, direction,
             accepted=None, callback=None):
    """Minimize obj from x0 by backtracked descent steps; returns (x_star, SolveReport).

    ``direction(x, g, gnorm)`` proposes (d, first trial step), or None for the
    steepest-descent step, which also replaces a proposal whose slope g.d is
    not finite and negative.  Each step is backtracked by ``_backtrack``, so
    accepted steps never raise the value.  ``accepted(s, y, t, proposed)``
    sees each accepted step, then ``callback(iteration, x, value)`` runs.
    The solve stops once the gradient's max-norm is at most ``grad_tol``,
    after ``max_iters`` steps, when a line search fails, when an accepted
    step has a non-finite gradient (the last finite iterate is returned), or,
    stalled, once the last ``STALL_WINDOW`` accepted steps lowered the value
    by at most ``STALL_RTOL * max(1, |value|)``.
    """
    start = perf_counter()
    trial = _Trials(obj)
    x, f, g = trial.first(x0)
    gnorm = float(np.abs(g).max()) if g.size else 0.0
    recent = deque([f], maxlen=STALL_WINDOW + 1)      # values of the last accepted steps
    iters, stop_reason = 0, MAX_ITERS
    while gnorm > grad_tol and iters < max_iters:
        proposal = direction(x, g, gnorm)
        proposed = False
        if proposal is not None:
            d, t0 = proposal
            slope = float(g.dot(d))
            # A finite slope implies a finite direction, since g is finite.
            proposed = slope < 0.0 and isfinite(slope)
        if not proposed:
            d, slope, t0 = _gradient_step(g)
        ok, t, x_new, f_new, g_new = _backtrack(trial, x, f, d, slope, t0)
        if not ok:
            stop_reason = LINE_SEARCH
            break
        gnorm_new = float(np.abs(g_new).max())
        if not isfinite(gnorm_new):   # an accepted value is finite; NaN propagates to the max
            log.warning("solve abort: non-finite gradient at iter=%d", iters)
            stop_reason = NONFINITE
            break
        if accepted is not None:
            accepted(x_new - x, g_new - g, t, proposed)
        x, f, g, gnorm = x_new, f_new, g_new, gnorm_new
        iters += 1
        if callback is not None:
            callback(iters, x, f)
        recent.append(f)
        if (gnorm > grad_tol and len(recent) > STALL_WINDOW
                and recent[0] - f <= STALL_RTOL * max(1.0, abs(f))):
            stop_reason = STALLED
            break
    if gnorm <= grad_tol:
        stop_reason = GRAD_TOL
    return x, SolveReport(iters, f, gnorm, int(stop_reason == LINE_SEARCH), trial.count,
                          stop_reason, perf_counter() - start)


def lbfgs_minimize(obj: ObjectiveHandle, x0, cfg: SolverConfig, callback=None):
    """Minimize obj from x0 by L-BFGS; returns (x_star, SolveReport).

    The directions are ``_Memory``'s, over the curvature pairs of the last
    ``LBFGS_MEMORY`` steps; the first step, and any whose direction is not
    one of descent, is a gradient step from an empty memory.  Each solve
    runs at most ``cfg.max_iters`` steps and converges at ``cfg.grad_tol``;
    the stop rules, and ``callback(iteration, x, value)`` after every
    accepted step, are ``_descend``'s.
    """
    memory = _Memory(obj.dim)
    return _descend(obj, x0, cfg.max_iters, cfg.grad_tol, memory.direction, memory.accepted,
                    callback)


def newton_minimize(obj: ObjectiveHandle, direction, x0, max_iters: int):
    """Minimize obj from x0 by damped Newton steps; returns (x_star, SolveReport).

    ``direction(x, g, shift)`` solves (H + shift I) d = -g for a generalized
    Hessian H of obj at x.  The shift is ``NEWTON_SHIFT`` times the gradient's
    max-norm, the Levenberg-Marquardt regularization of the semismooth Newton
    method of Li, Fukushima, Qi & Yamashita (Comput. Optim. Appl. 2004), so
    the steps lengthen to full Newton steps as the gradient vanishes.  Each
    step is backtracked from t = 1; a direction that is not one of descent,
    which only rounding can give, is replaced by the negative gradient.  The
    solve converges at ``GRAD_NORM_TOL``; the stop rules are ``_descend``'s.
    """
    return _descend(obj, x0, max_iters, GRAD_NORM_TOL,
                    lambda x, g, gnorm: (direction(x, g, NEWTON_SHIFT * gnorm), 1.0))
