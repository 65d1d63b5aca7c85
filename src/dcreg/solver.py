"""The soft maximum of matrix columns, a deterministic L-BFGS and a damped Newton method.

Both optimizers use Armijo-only backtracking, testing each trial on its
value.  Stage 2's max-min-affine objective takes its value from the hard max
and its gradient from the soft-max weights, so whenever an L-BFGS line search
fails the memory is reset and a plain gradient step is tried; a second
failure terminates.  Stage 1 runs the Newton method: its penalty objective
has a gradient that is only piecewise smooth, and each step solves with a
generalized Hessian of it, shifted in proportion to the gradient.
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
class SolverConfig:
    max_iters: int = 2000

    def __post_init__(self):
        if self.max_iters < 0:
            raise ValueError("max_iters must be >= 0")


@dataclass(frozen=True)
class ObjectiveHandle:
    """A differentiable objective: evaluate(x) -> (value, gradient thunk).

    The value is computed at once and the gradient deferred to the thunk.
    The thunk is called at most once, and is valid until the handle's next
    evaluation.  The line search calls it only at the trials it accepts.
    """

    dim: int
    evaluate: Callable[[np.ndarray], tuple]


GRAD_TOL = "grad_tol"        # gradient max-norm reached GRAD_NORM_TOL
MAX_ITERS = "max_iters"      # iteration cap reached first
LINE_SEARCH = "line_search"  # the negative-gradient line search failed too
NONFINITE = "nonfinite"      # an accepted step had a non-finite gradient
STALLED = "stalled"          # the value stopped falling over the stall window
STOP_REASONS = (GRAD_TOL, MAX_ITERS, LINE_SEARCH, NONFINITE, STALLED)

# Stall rule: stop once the last STALL_WINDOW accepted steps lowered the value
# by at most STALL_RTOL * max(1, |value|) in total.
STALL_WINDOW = 50
STALL_RTOL = 1e-7
# Convergence: the gradient's max-norm at most GRAD_NORM_TOL.  Armijo
# backtracking: at most LS_MAX_STEPS trials, each LS_SHRINK times the last,
# accepted at a decrease of LS_C1 * t * slope.
GRAD_NORM_TOL = 1e-6
LS_SHRINK = 0.5
LS_C1 = 1e-4
LS_MAX_STEPS = 40
LBFGS_MEMORY = 10   # L-BFGS keeps the curvature pairs of this many last steps
# Newton's Levenberg-Marquardt shift: NEWTON_SHIFT times the gradient's max-norm.
NEWTON_SHIFT = 0.1
# The soft-max exponents are clipped at _EXP_FLOOR.  exp(-60) = 8.8e-27: a
# column of fewer than 1e10 entries sums to the same double as unclipped, exp
# stays off numpy's per-element path (below -707.7), and no weight is subnormal.
_EXP_FLOOR = -60.0


@dataclass(frozen=True)
class SolveReport:
    """Outcome of one solve.

    ``evaluations`` counts objective calls, line-search trials included;
    ``stop_reason`` is one of ``STOP_REASONS``, or empty when no solve ran.
    ``wall_s`` is the solve's wall time; it takes no part in comparisons, so
    two reports of the same solve are equal.
    """

    iterations: int
    final_value: float
    final_grad_norm: float
    line_search_failures: int
    converged: bool
    aborted: bool = False
    evaluations: int = 0
    stop_reason: str = ""
    wall_s: float = field(default=0.0, compare=False)


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


def _two_loop(grad, memory):
    """L-BFGS direction from curvature pairs (s, y, 1/(s.y), s.y, y.y), oldest first.

    The two-loop recursion of Nocedal & Wright, Numerical Optimization, Alg. 7.4.
    """
    q = grad.copy()
    alphas = []
    for s, yv, rho, _, _ in reversed(memory):
        a = rho * float(s.dot(q))
        alphas.append(a)
        q -= a * yv
    if memory:
        _, _, _, sy, yy = memory[-1]
        q *= sy / yy
    for (s, yv, rho, _, _), a in zip(memory, reversed(alphas)):
        b = rho * float(yv.dot(q))
        q += (a - b) * s
    return -q


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


def lbfgs_minimize(obj: ObjectiveHandle, x0, cfg: SolverConfig, callback=None):
    """Minimize obj from x0; returns (x_star, SolveReport).

    Accepted steps are monotone non-increasing in the objective.  A failed
    backtracking line search resets the curvature memory and retries along
    the negative gradient; failing that too, the solve terminates.  If a
    step's gradient is non-finite, the last accepted iterate is returned with
    ``aborted`` set.  The solve stalls, and stops, once the last
    ``STALL_WINDOW`` accepted steps lowered the value by at most
    ``STALL_RTOL * max(1, |value|)``.  ``callback(iteration, x, value)`` runs
    after every accepted step.  The report says why the solve stopped and how
    many times the objective was evaluated, and how long it took.
    """
    start = perf_counter()
    trial = _Trials(obj)
    x, f, g = trial.first(x0)

    memory: deque = deque(maxlen=LBFGS_MEMORY)   # (s, y, 1/(s.y), s.y, y.y)
    recent = deque([f], maxlen=STALL_WINDOW + 1)      # values of the last accepted steps
    ls_failures = 0
    iters = 0
    aborted = False
    stop_reason = MAX_ITERS
    gnorm = float(np.abs(g).max()) if g.size else 0.0
    converged = gnorm <= GRAD_NORM_TOL
    t_prev = 1.0  # last accepted quasi-Newton step; seeds the next trial

    while not converged and iters < cfg.max_iters:
        use_gradient = not memory
        if not use_gradient:
            direction = _two_loop(g, memory)
            slope = float(g.dot(direction))
            # A finite slope implies a finite direction, since g is finite.
            if slope >= 0.0 or (not isfinite(slope) and not np.isfinite(direction).all()):
                # Memory produced a non-descent direction: drop it.
                memory.clear()
                use_gradient = True
                t_prev = 1.0
        if use_gradient:
            direction, slope, t0 = _gradient_step(g)
        else:
            # Growing restart from the last accepted step keeps backtracking
            # cheap on kinked objectives while recovering full steps fast.
            t0 = min(1.0, 2.0 * t_prev)

        ok, t_acc, x_new, f_new, g_new = _backtrack(trial, x, f, direction, slope, t0)
        if not ok:
            ls_failures += 1
            if use_gradient:
                stop_reason = LINE_SEARCH  # nothing left to try
                break
            memory.clear()
            t_prev = 1.0
            use_gradient = True
            direction, slope, t0 = _gradient_step(g)
            ok, t_acc, x_new, f_new, g_new = _backtrack(trial, x, f, direction, slope, t0)
            if not ok:
                ls_failures += 1
                stop_reason = LINE_SEARCH
                break
        if not use_gradient:
            t_prev = t_acc

        gnorm_new = float(np.abs(g_new).max())
        if not isfinite(gnorm_new):   # an accepted value is finite; NaN propagates to the max
            log.warning("lbfgs abort: non-finite value/gradient at iter=%d", iters)
            aborted = True
            stop_reason = NONFINITE
            break

        s = x_new - x
        yv = g_new - g
        sy = float(s.dot(yv))
        yy = float(yv.dot(yv))
        if sy > 1e-12 * sqrt(float(s.dot(s))) * sqrt(yy):
            memory.append((s, yv, 1.0 / sy, sy, yy))
        x, f, g = x_new, f_new, g_new
        iters += 1
        if callback is not None:
            callback(iters, x, f)
        gnorm = gnorm_new
        converged = gnorm <= GRAD_NORM_TOL
        recent.append(f)
        if (not converged and len(recent) > STALL_WINDOW
                and recent[0] - f <= STALL_RTOL * max(1.0, abs(f))):
            stop_reason = STALLED
            break

    report = SolveReport(
        iterations=iters,
        final_value=f,
        final_grad_norm=gnorm,
        line_search_failures=ls_failures,
        converged=bool(converged),
        aborted=aborted,
        evaluations=trial.count,
        stop_reason=GRAD_TOL if converged else stop_reason,
        wall_s=perf_counter() - start,
    )
    return x, report


def newton_minimize(obj: ObjectiveHandle, direction, x0, max_iters: int):
    """Minimize obj from x0 by damped Newton steps; returns (x_star, SolveReport).

    ``direction(x, g, shift)`` solves (H + shift I) d = -g for a generalized
    Hessian H of obj at x.  The shift is ``NEWTON_SHIFT`` times the gradient's
    max-norm, the Levenberg-Marquardt regularization of the semismooth Newton
    method of Li, Fukushima, Qi & Yamashita (Comput. Optim. Appl. 2004), so
    the steps lengthen to full Newton steps as the gradient vanishes.  Each
    step is backtracked from t = 1 by ``_backtrack``; a direction that is not
    one of descent, which only rounding can give, is replaced by the negative
    gradient.  The solve stops at ``GRAD_NORM_TOL``, after ``max_iters``
    steps, when a line search fails, or, with ``aborted`` set, when an
    accepted step has a non-finite gradient.
    """
    start = perf_counter()
    trial = _Trials(obj)
    x, f, g = trial.first(x0)
    gnorm = float(np.abs(g).max()) if g.size else 0.0
    iters, stop_reason = 0, MAX_ITERS
    while gnorm > GRAD_NORM_TOL and iters < max_iters:
        d = direction(x, g, NEWTON_SHIFT * gnorm)
        slope = float(g.dot(d))
        t0 = 1.0
        if not slope < 0.0:
            d, slope, t0 = _gradient_step(g)
        ok, _, x_new, f_new, g_new = _backtrack(trial, x, f, d, slope, t0)
        if not ok:
            stop_reason = LINE_SEARCH
            break
        gnorm_new = float(np.abs(g_new).max())
        if not isfinite(gnorm_new):
            log.warning("newton abort: non-finite gradient at iter=%d", iters)
            stop_reason = NONFINITE
            break
        x, f, g, gnorm = x_new, f_new, g_new, gnorm_new
        iters += 1
    converged = gnorm <= GRAD_NORM_TOL
    report = SolveReport(
        iterations=iters,
        final_value=f,
        final_grad_norm=gnorm,
        line_search_failures=int(stop_reason == LINE_SEARCH),
        converged=converged,
        aborted=stop_reason == NONFINITE,
        evaluations=trial.count,
        stop_reason=GRAD_TOL if converged else stop_reason,
        wall_s=perf_counter() - start,
    )
    return x, report
