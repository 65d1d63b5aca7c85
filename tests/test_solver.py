import itertools

import numpy as np
import pytest

from _helpers import (assert_same_bits, callable_penalty_objective, eager_handle,
                      floored_softmax, softmax_smooth, softmax_weights, value_and_gradient)
from dcreg.fit import MUS
import dcreg.solver
from dcreg.solver import (_EXP_FLOOR, GRAD_NORM_TOL, GRAD_TOL, LINE_SEARCH, LS_C1, LS_MAX_STEPS,
                          LS_SHRINK, MAX_ITERS, NEWTON_SHIFT, NONFINITE, STALL_RTOL, STALL_WINDOW,
                          STALLED, ObjectiveHandle, SolveReport, SolverConfig, lbfgs_minimize,
                          newton_minimize, softmax_columns)


def central_diff(evaluate, x, step=1e-6):
    grad = np.zeros_like(x)
    for i in range(x.size):
        h = step * (1.0 + abs(x[i]))
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        grad[i] = (evaluate(xp)[0] - evaluate(xm)[0]) / (2.0 * h)
    return grad


def test_softmax_smooth_values():
    assert softmax_smooth([0.0, 0.0], 1.0) == pytest.approx(0.6931471805599453, abs=1e-15)
    assert softmax_smooth([3.25], 0.5) == 3.25
    assert softmax_smooth([0.0, 1.0], 1e-6) == pytest.approx(1.0, abs=1e-15)


def test_softmax_smooth_overestimates_by_at_most_mu_log_k():
    rng = np.random.default_rng(0)
    for _ in range(200):
        k = int(rng.integers(1, 20))
        alpha = rng.standard_normal(k) * 10
        mu = float(rng.uniform(1e-6, 2.0))
        val = softmax_smooth(alpha, mu)
        assert alpha.max() <= val <= alpha.max() + mu * np.log(k) + 1e-12


def test_softmax_smooth_no_overflow():
    assert np.isfinite(softmax_smooth([1e8, -1e8], 1e-6))


def test_softmax_smooth_empty():
    with pytest.raises(ValueError):
        softmax_smooth([], 1.0)


def _quadratic(dim, center):
    def evaluate(x):
        diff = x - center
        return float(diff @ diff), 2.0 * diff
    return eager_handle(dim, evaluate)


def test_penalty_objective_satisfied_constraints_are_free():
    base = _quadratic(1, np.array([0.0]))
    cons = [lambda x: (x[0] - 1.0, np.array([1.0]))]
    pen = callable_penalty_objective(base, cons, 1e6)
    v, g = value_and_gradient(pen, np.array([0.5]))
    bv, bg = value_and_gradient(base, np.array([0.5]))
    assert v == bv
    assert np.array_equal(g, bg)


def test_penalty_objective_violated_value():
    base = eager_handle(1, lambda x: (0.0, np.zeros(1)))
    cons = [lambda x: (x[0] - 1.0, np.array([1.0]))]
    pen = callable_penalty_objective(base, cons, 1e6)
    v, g = value_and_gradient(pen, np.array([2.0]))
    assert v == pytest.approx(1e6)
    assert g[0] == pytest.approx(2e6)


def test_penalty_gradient_matches_finite_differences():
    rng = np.random.default_rng(2)
    base = _quadratic(3, np.array([1.0, -2.0, 0.5]))
    cons = [
        lambda x: (x[0] + x[1] - 0.3, np.array([1.0, 1.0, 0.0])),
        lambda x: (float(np.sin(x[2])), np.array([0.0, 0.0, float(np.cos(x[2]))])),
    ]
    pen = callable_penalty_objective(base, cons, 10.0)
    for _ in range(20):
        x = rng.standard_normal(3)
        num = central_diff(pen.evaluate, x)
        _, ana = value_and_gradient(pen, x)
        assert np.allclose(ana, num, rtol=1e-5, atol=1e-7)


def test_lbfgs_quadratic():
    obj = _quadratic(1, np.array([3.0]))
    x, report = lbfgs_minimize(obj, np.zeros(1), SolverConfig())
    assert abs(x[0] - 3.0) <= 1e-6
    assert report.converged


def test_lbfgs_rosenbrock():
    def evaluate(x):
        a, b = x
        val = (1 - a) ** 2 + 100.0 * (b - a * a) ** 2
        grad = np.array([
            -2.0 * (1 - a) - 400.0 * a * (b - a * a),
            200.0 * (b - a * a),
        ])
        return float(val), grad

    obj = eager_handle(2, evaluate)
    x, report = lbfgs_minimize(obj, np.array([-1.2, 1.0]), SolverConfig(max_iters=5000))
    assert np.allclose(x, [1.0, 1.0], atol=1e-4)
    assert report.final_value <= 1e-8


def test_lbfgs_zero_gradient_start():
    obj = _quadratic(2, np.array([1.0, 1.0]))
    x0 = np.array([1.0, 1.0])
    x, report = lbfgs_minimize(obj, x0, SolverConfig())
    assert np.array_equal(x, x0)
    assert report.iterations == 0
    assert report.converged


def test_lbfgs_monotone_accepted_values():
    def evaluate(x):
        val = float(np.sum(np.abs(x) ** 1.5)) + float(np.sum((x - 0.3) ** 2))
        grad = 1.5 * np.sign(x) * np.sqrt(np.abs(x)) + 2.0 * (x - 0.3)
        return val, grad

    obj = eager_handle(4, evaluate)
    rng = np.random.default_rng(3)
    x0 = rng.standard_normal(4) * 2
    history = [evaluate(x0)[0]]
    _, report = lbfgs_minimize(obj, x0, SolverConfig(),
                               callback=lambda i, x, f: history.append(f))
    assert len(history) > 2
    assert all(b <= a for a, b in zip(history, history[1:]))
    assert report.final_value <= history[0]


def test_lbfgs_deterministic():
    def evaluate(x):
        val = float(np.sum(x ** 4) - np.sum(x)) + float(np.sum(np.maximum(x, 0.0) ** 2))
        grad = 4.0 * x ** 3 - 1.0 + 2.0 * np.maximum(x, 0.0)
        return val, grad

    obj = eager_handle(5, evaluate)
    x0 = np.linspace(-2, 2, 5)
    x1, r1 = lbfgs_minimize(obj, x0, SolverConfig())
    x2, r2 = lbfgs_minimize(obj, x0, SolverConfig())
    assert np.array_equal(x1, x2)
    assert r1 == r2
    assert r1.wall_s > 0.0 and r2.wall_s > 0.0      # timed, but not compared


def test_lbfgs_nonfinite_start_rejected():
    obj = eager_handle(1, lambda x: (float("nan"), np.zeros(1)))
    with pytest.raises(ValueError):
        lbfgs_minimize(obj, np.zeros(1), SolverConfig())


def test_lbfgs_aborts_on_nonfinite_region():
    # objective turns NaN away from the start; the last accepted iterate is returned
    def evaluate(x):
        if abs(x[0]) > 0.5:
            return float("nan"), np.array([float("nan")])
        return float(x[0] ** 2 - x[0]), np.array([2.0 * x[0] - 1.0])

    obj = eager_handle(1, evaluate)
    x, report = lbfgs_minimize(obj, np.array([0.0]), SolverConfig(max_iters=50))
    assert np.isfinite(x[0])


def test_lbfgs_stops_at_the_configured_gradient_tolerance():
    # A looser cfg.grad_tol ends the same path earlier, at the first iterate within it.
    def rosenbrock(x):
        a, b = x[:-1], x[1:]
        grad = np.zeros_like(x)
        grad[:-1] = -2.0 * (1 - a) - 400.0 * a * (b - a * a)
        grad[1:] += 200.0 * (b - a * a)
        return float(np.sum((1 - a) ** 2 + 100.0 * (b - a * a) ** 2)), grad

    x0 = np.linspace(-1.5, 1.5, 8)
    paths = {}
    for tol in (GRAD_NORM_TOL, 1e-2):
        path = [x0]
        _, report = lbfgs_minimize(eager_handle(x0.size, rosenbrock), x0,
                                   SolverConfig(grad_tol=tol),
                                   callback=lambda i, x, f: path.append(x.copy()))
        assert report.stop_reason == GRAD_TOL and report.final_grad_norm <= tol
        paths[tol] = path
    loose, tight = paths[1e-2], paths[GRAD_NORM_TOL]
    assert 1 < len(loose) < len(tight)
    for a, b in zip(loose, tight):
        assert_same_bits(a, b)
    norms = [np.abs(rosenbrock(x)[1]).max() for x in loose]
    assert norms[-1] <= 1e-2 < min(norms[:-1])


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(max_iters=-1)
    for tol in (-1e-6, float("nan")):
        with pytest.raises(ValueError):
            SolverConfig(grad_tol=tol)
    assert SolverConfig().grad_tol == GRAD_NORM_TOL


def _weights(softmax):
    """The weights of a (value, exponentials, sums) triple."""
    _, E, sums = softmax
    return E / sums[..., None, :] if E.ndim > sums.ndim else E / sums


def test_softmax_columns_matches_the_dense_formula_bitwise():
    rng = np.random.default_rng(5)
    # C-contiguous piece-major (K, n) input, with the column max the callers pass:
    # the dense floored formula's bits, and the unfloored formula's weights at every
    # entry whose exponent is above the floor (to the ulp of exp at an exponent of
    # at most 60 in size, since the exponents are scaled by 1/mu, not divided)
    mu = 1e-6
    P = rng.standard_normal((12, 40)) * 1e-2
    P[[1, 4, 7, 10], 0] = 1.0 + 1e-7 * np.arange(4)              # four near-ties
    P[[0, 3, 5], 1] = 1.0                                        # three exact ties
    P[:, 2] = 1.0 - np.array([0.0, 59.9, 60.0, 60.1, 707.0, 708.0, 745.1, 745.2,
                              746.0, 747.0, 800.0, 1e4]) * mu    # gaps around the floor
    P[:, 3] = -5.0
    P[6, 3] = 0.0                                                # all but one far
    for M in (P, P[:, :2].copy(), rng.standard_normal((1, 5)), rng.standard_normal((30, 3))):
        for m in (mu, 1e-3, 0.7):
            assert M.flags.c_contiguous
            out = softmax_columns(M, m, M.max(axis=0))
            ref = floored_softmax(M, m)
            for got, want in zip(out, ref):
                assert_same_bits(got, want)
            weights = _weights(out)
            above = (M - M.max(axis=0)) * (1.0 / m) > _EXP_FLOOR
            assert np.allclose(weights[above], softmax_weights(M, m, axis=0)[above],
                               rtol=1e-13, atol=0.0)
            assert np.all(weights[~above] <= np.exp(_EXP_FLOOR))
            # written in place over its input
            A = M.copy()
            assert_same_bits(softmax_columns(A, m, A.max(axis=0), out=A)[1], ref[1])
    # the same crafted columns in a C-contiguous (m, K, n) stack along axis 1
    S = np.stack([P, P[::-1].copy()])
    for m in (mu, 1e-3, 0.7):
        assert S.flags.c_contiguous
        out = softmax_columns(S, m, S.max(axis=1))
        for i, M in enumerate(S):
            for got, want in zip(out, floored_softmax(M, m)):
                assert_same_bits(got[i], want)
    w = _weights(softmax_columns(P, mu, P.max(axis=0)))
    assert np.count_nonzero(w[:, 0] > 1e-3) == 4 and np.count_nonzero(w[:, 1] > 1e-3) == 3
    assert w[0, 2] == 1.0 and w[1, 2] > np.exp(_EXP_FLOOR)
    assert np.all(w[3:, 2] == np.exp(_EXP_FLOOR))               # at the floor
    assert w[6, 3] == 1.0


def test_softmax_columns_value_lies_within_mu_log_k_of_the_max():
    rng = np.random.default_rng(6)
    for K, n, scale in itertools.product((1, 2, 7, 8, 40, 85), (1, 5, 64), (1e-6, 1e-2, 1.0, 1e3)):
        A = rng.standard_normal((2, K, n)) * scale
        A[0, :K // 2 + 1, :n // 2 + 1] = 0.25                        # exact ties
        top = A.max(axis=1)
        for mu in (*MUS, 1e-6, 0.7):
            out = softmax_columns(A, mu, top)
            value = out[0]
            assert np.all(value >= top) and np.all(value <= top + mu * np.log(K)), (K, n, mu)
            assert np.all(np.abs(np.add.reduce(_weights(out), 1) - 1.0) <= K * 2.0 ** -52)
    # every entry tied: the bound itself
    value = softmax_columns(np.zeros((8, 3)), 1e-2, np.zeros(3))[0]
    assert np.array_equal(value, np.full(3, 1e-2 * np.log(8.0)))


def _reference_two_loop(grad, s_list, y_list):
    """The two-loop recursion (Nocedal & Wright, Alg. 7.4), recomputing every rho twice:
    the oracle of the compact direction."""
    def rhos():
        return [1.0 / np.dot(s, yv) for s, yv in zip(s_list, y_list)]

    q = grad.copy()
    alphas = []
    for s, yv, rho in reversed(list(zip(s_list, y_list, rhos()))):
        a = rho * np.dot(s, q)
        alphas.append(a)
        q -= a * yv
    if s_list:
        s, yv = s_list[-1], y_list[-1]
        q *= np.dot(s, yv) / np.dot(yv, yv)
    for (s, yv, rho), a in zip(zip(s_list, y_list, rhos()), reversed(alphas)):
        b = rho * np.dot(yv, q)
        q += (a - b) * s
    return -q


class _ReferenceCompact:
    """The compact L-BFGS recursion from plain lists, in the solver's arithmetic.

    ``slots[k % memory]`` holds the k-th kept pair as a (2, dim) array.  Each
    table entry is taken from the product that the solver forms when the
    later of its two pairs arrives, so the bits are the solver's; a pair's
    arrival zeroes the row and column of the slot it takes in R^-1.
    """

    def __init__(self, memory):
        self.memory, self.slots, self.kept = memory, [], 0
        self.yy, self.sy, self.r_inv = np.zeros((0, 0)), np.zeros(0), np.zeros((0, 0))

    def add(self, s, yv):
        k = self.kept % self.memory
        if len(self.slots) < self.memory:
            self.slots.append(None)
            self.yy, self.sy, self.r_inv = (np.pad(self.yy, (0, 1)), np.append(self.sy, 0.0),
                                            np.pad(self.r_inv, (0, 1)))
        self.slots[k] = np.array([s, yv])
        self.kept += 1
        sy, yy = np.dot(s, yv), np.dot(yv, yv)
        col = (np.array(self.slots).reshape(2 * len(self.slots), -1) @ yv).reshape(-1, 2)
        col[k] = sy, yy
        self.yy[:, k] = self.yy[k, :] = col[:, 1]
        self.sy[k] = sy
        self.r_inv[k, :] = self.r_inv[:, k] = 0.0
        self.r_inv[:, k] = -(self.r_inv @ col[:, 0]) / sy
        self.r_inv[k, k] = 1.0 / sy
        self.gamma = sy / yy

    def direction(self, g):
        pairs = np.array(self.slots).reshape(2 * len(self.slots), -1)
        sg, yg = (pairs @ g).reshape(-1, 2).T
        p = self.r_inv @ sg
        u = self.r_inv.T @ (self.sy * p + self.gamma * (self.yy @ p - yg))
        coef = np.stack((u, -self.gamma * p), axis=1).ravel()
        return -(self.gamma * g + pairs.T @ coef)


def _reference_lbfgs(objective, x0, cfg, memory, callback=None):
    """The whole solver loop, written plainly: s.y, y.y, g.d and the norms recomputed,
    and every gradient computed with its value by ``objective(x) -> (value, gradient)``.

    Returns (x, report fields but wall_s); the stop rules are lbfgs_minimize's.
    """
    evaluations = 0

    def evaluate(x):
        nonlocal evaluations
        evaluations += 1
        return objective(x)

    def backtrack(x, f, g, direction, t0):
        slope = float(np.dot(g, direction))
        t = t0
        for _ in range(LS_MAX_STEPS):
            x_new = x + t * direction
            f_new, g_new = evaluate(x_new)
            if np.isfinite(f_new) and f_new <= f + LS_C1 * t * slope:
                return True, t, x_new, float(f_new), np.asarray(g_new, dtype=float)
            t *= LS_SHRINK
        return False, t, x, f, g

    x = np.array(x0, dtype=float, copy=True)
    f, g = evaluate(x)
    f, g = float(f), np.asarray(g, dtype=float)
    pairs = _ReferenceCompact(memory)
    recent = [f]
    ls_failures, iters, stop_reason = 0, 0, MAX_ITERS
    gnorm = float(np.max(np.abs(g)))
    converged = gnorm <= cfg.grad_tol
    t_prev = 1.0
    while not converged and iters < cfg.max_iters:
        use_gradient = not pairs.slots
        direction = -g if use_gradient else pairs.direction(g)
        if not np.isfinite(direction).all() or float(np.dot(g, direction)) >= 0.0:
            pairs = _ReferenceCompact(memory)
            use_gradient = True
            direction = -g
            t_prev = 1.0
        t0 = 1.0 / max(1.0, float(np.linalg.norm(g))) if use_gradient else min(1.0, 2.0 * t_prev)
        ok, t_acc, x_new, f_new, g_new = backtrack(x, f, g, direction, t0)
        if not ok:
            ls_failures += 1
            stop_reason = LINE_SEARCH
            break
        if not use_gradient:
            t_prev = t_acc
        if not np.isfinite(f_new) or not np.isfinite(g_new).all():
            stop_reason = NONFINITE
            break
        s, yv = x_new - x, g_new - g
        if float(np.dot(s, yv)) > 1e-12 * float(np.linalg.norm(s)) * float(np.linalg.norm(yv)):
            pairs.add(s, yv)
        x, f, g = x_new, f_new, g_new
        iters += 1
        if callback is not None:
            callback(iters, x, f)
        gnorm = float(np.max(np.abs(g)))
        converged = gnorm <= cfg.grad_tol
        recent = (recent + [f])[-(STALL_WINDOW + 1):]
        if (not converged and len(recent) > STALL_WINDOW
                and recent[0] - f <= STALL_RTOL * max(1.0, abs(f))):
            stop_reason = STALLED
            break
    return x, SolveReport(iters, f, gnorm, ls_failures, evaluations,
                          GRAD_TOL if converged else stop_reason)


def test_lbfgs_iterates_bit_identical_to_reference_loop(monkeypatch):
    # Every iterate, value and report field of the solver against the loop written
    # plainly, on smooth, kinked, stalling, failing and non-finite objectives.
    def kinked(x):
        val = float(np.sum(np.abs(x) ** 1.5)) + float(np.sum((x - 0.3) ** 2))
        return val, 1.5 * np.sign(x) * np.sqrt(np.abs(x)) + 2.0 * (x - 0.3)

    def rosenbrock(x):
        a, b = x[:-1], x[1:]
        val = float(np.sum((1 - a) ** 2 + 100.0 * (b - a * a) ** 2))
        grad = np.zeros_like(x)
        grad[:-1] = -2.0 * (1 - a) - 400.0 * a * (b - a * a)
        grad[1:] += 200.0 * (b - a * a)
        return val, grad

    def l1(x):
        return float(np.sum(np.abs(x - 0.2))), np.sign(x - 0.2)

    def wrong_gradient(x):
        return float(x @ x), -2.0 * x

    def nan_gradient(x):
        grad = 2.0 * x - 1.0 if abs(x[0]) <= 0.3 else np.array([np.nan])
        return float(x[0] ** 2 - x[0]), grad

    def late_wrong_gradient(x):     # uphill beyond x_0 = 0.5: a memory step fails
        grad = 2.0 * (x - 1.0)
        return float(np.sum((x - 1.0) ** 2)), (grad if x[0] < 0.5 else -grad)

    # (objective, x0, config, curvature memory); memory 4 evicts pairs
    default = dcreg.solver.LBFGS_MEMORY
    cases = ((kinked, np.linspace(-2.0, 2.0, 6), SolverConfig(max_iters=300), 4),
             (rosenbrock, np.array([-1.2, 1.0, -0.5, 0.8]), SolverConfig(max_iters=300), 4),
             (rosenbrock, np.linspace(-1.5, 1.5, 12), SolverConfig(), default),
             (rosenbrock, np.linspace(-1.5, 1.5, 12), SolverConfig(max_iters=20), default),
             (rosenbrock, np.linspace(-1.5, 1.5, 12), SolverConfig(grad_tol=1e-2), default),
             (l1, np.linspace(-1.0, 1.0, 5), SolverConfig(), default),
             (wrong_gradient, np.ones(2), SolverConfig(), default),
             (nan_gradient, np.zeros(1), SolverConfig(), default),
             (late_wrong_gradient, np.array([0.0, 0.3, -0.4]), SolverConfig(), default))
    reasons = set()
    for evaluate, x0, cfg, memory in cases:
        monkeypatch.setattr(dcreg.solver, "LBFGS_MEMORY", memory)
        finished = []                       # the points whose gradient thunk ran

        def deferred(x, evaluate=evaluate):
            value, grad = evaluate(x)

            def gradient():
                finished.append(x.copy())
                return grad
            return value, gradient

        h1, h2 = [], []
        x1, r1 = lbfgs_minimize(ObjectiveHandle(x0.size, deferred), x0, cfg,
                                callback=lambda i, x, f: h1.append((x.copy(), f)))
        x2, r2 = _reference_lbfgs(evaluate, x0, cfg, memory,
                                  callback=lambda i, x, f: h2.append((x.copy(), f)))
        assert r1 == r2, evaluate.__name__
        assert np.array_equal(x1.view(np.int64), x2.view(np.int64))
        assert len(h1) == len(h2)
        for (a, fa), (b, fb) in zip(h1, h2):
            assert np.array_equal(a.view(np.int64), b.view(np.int64)) and fa == fb
        # Gradients only at x0 and the trials that passed the Armijo test: the
        # accepted iterates, and the aborting step's non-finite one.
        assert len(finished) == 1 + r1.iterations + int(r1.aborted), evaluate.__name__
        for a, b in zip(finished, [x0] + [x for x, _ in h1]):
            assert np.array_equal(a.view(np.int64), b.view(np.int64))
        reasons.add(r1.stop_reason)
        if memory == 4:                         # kinked, and Rosenbrock from [-1.2, 1, -0.5, 0.8]
            assert r1.iterations > 2 * memory
        if evaluate is late_wrong_gradient:     # the memory step's failure stops the solve
            assert r1.line_search_failures == 1 and r1.iterations >= 1
    assert reasons == {"grad_tol", "max_iters", "stalled", "line_search", "nonfinite"}


def test_compact_direction_matches_the_two_loop_recursion(monkeypatch):
    # The compact direction is the two-loop recursion's over the same pairs, within
    # 1e-12 relative: at every fill level, through eviction, and after a reset.
    rng = np.random.default_rng(11)
    dim = 40
    hessian = np.diag(np.linspace(1.0, 30.0, dim)) + 0.2 * np.ones((dim, dim))
    for memory in (dcreg.solver.LBFGS_MEMORY, 4):
        monkeypatch.setattr(dcreg.solver, "LBFGS_MEMORY", memory)
        rule = dcreg.solver._Memory(dim)
        assert rule.direction(None, np.ones(dim), 1.0) is None
        s_list, y_list = [], []
        for step in range(2 * memory + 3):
            s = rng.standard_normal(dim)
            yv = hessian @ s + 1e-3 * rng.standard_normal(dim)
            reset = step == memory + 2          # a gradient step: the memory starts over
            rule.accepted(s, yv, 0.5, proposed=not reset)
            if reset:
                s_list, y_list = [], []
            s_list, y_list = (s_list + [s])[-memory:], (y_list + [yv])[-memory:]
            g = rng.standard_normal(dim)
            d, t0 = rule.direction(None, g, float(np.abs(g).max()))
            oracle = _reference_two_loop(g, s_list, y_list)
            assert np.linalg.norm(d - oracle) <= 1e-12 * np.linalg.norm(oracle), (memory, step)
            assert t0 == (1.0 if reset else min(1.0, 2.0 * 0.5))
        # a pair of non-positive curvature is not kept
        kept = rule.kept
        rule.accepted(np.ones(dim), -np.ones(dim), 0.5, proposed=True)
        assert rule.kept == kept


def _counted(evaluate):
    calls = [0]

    def wrapped(x):
        calls[0] += 1
        return evaluate(x)
    return wrapped, calls


def test_lbfgs_stop_reasons_and_evaluation_counts():
    def quad(x):
        return float(np.sum((x - 3.0) ** 2)), 2.0 * (x - 3.0)

    def rosenbrock(x):
        a, b = x
        return ((1 - a) ** 2 + 100.0 * (b - a * a) ** 2,
                np.array([-2.0 * (1 - a) - 400.0 * a * (b - a * a), 200.0 * (b - a * a)]))

    def wrong_gradient(x):          # the gradient points uphill: no step is accepted
        return float(x @ x), -2.0 * x

    def nan_gradient(x):            # finite values, a NaN gradient beyond |x| = 0.3
        grad = 2.0 * x - 1.0 if abs(x[0]) <= 0.3 else np.array([np.nan])
        return float(x[0] ** 2 - x[0]), grad

    def long_rosenbrock(x):         # reaches grad_tol only after the stall window
        a, b = x[:-1], x[1:]
        grad = np.zeros_like(x)
        grad[:-1] = -2.0 * (1 - a) - 400.0 * a * (b - a * a)
        grad[1:] += 200.0 * (b - a * a)
        return float(np.sum((1 - a) ** 2 + 100.0 * (b - a * a) ** 2)), grad

    def l1(x):                      # the value falls to ~0 while |gradient| stays 1
        return float(np.sum(np.abs(x))), np.sign(x)

    cases = ((quad, np.zeros(2), SolverConfig(), "grad_tol"),
             (quad, np.full(2, 3.0), SolverConfig(), "grad_tol"),
             (long_rosenbrock, np.linspace(-1.5, 1.5, 8), SolverConfig(), "grad_tol"),
             (l1, np.array([0.3, -0.7]), SolverConfig(), "stalled"),
             (rosenbrock, np.array([-1.2, 1.0]), SolverConfig(max_iters=5), "max_iters"),
             (quad, np.zeros(2), SolverConfig(max_iters=0), "max_iters"),
             (wrong_gradient, np.ones(2), SolverConfig(), "line_search"),
             (nan_gradient, np.zeros(1), SolverConfig(), "nonfinite"))
    for evaluate, x0, cfg, reason in cases:
        wrapped, calls = _counted(evaluate)
        history = [evaluate(x0)[0]]
        x_star, report = lbfgs_minimize(eager_handle(x0.size, wrapped), x0, cfg,
                                        callback=lambda i, x, f: history.append(f))
        assert report.stop_reason == reason
        assert report.evaluations == calls[0]
        # the returned point is the last accepted iterate, and the report holds its value
        assert report.final_value == history[-1] == evaluate(x_star)[0]
        assert report.converged == (reason == "grad_tol")
        assert report.aborted == (reason == "nonfinite")
        if reason == "stalled":
            assert report.final_grad_norm > GRAD_NORM_TOL
            assert (history[-1 - STALL_WINDOW] - history[-1]
                    <= STALL_RTOL * max(1.0, abs(history[-1])))
        else:                       # no earlier window had stalled
            assert all(a - b > STALL_RTOL * max(1.0, abs(b))
                       for a, b in zip(history, history[STALL_WINDOW:]))
        if evaluate is long_rosenbrock:
            assert report.iterations > STALL_WINDOW
    assert SolveReport(0, 1.0, 0.0, 0).stop_reason == ""


def test_newton_stop_reasons_and_evaluation_counts():
    # A penalized quadratic: 0.5 |x - c|^2 + rho sum max(x - 1, 0)^2, kinked at x = 1;
    # its generalized Hessian is diagonal.
    c, rho = np.array([3.0, -2.0, 0.5]), 1e6

    def kinked(x):
        over = np.maximum(x - 1.0, 0.0)
        return (0.5 * float((x - c) @ (x - c)) + rho * float(over @ over),
                x - c + 2.0 * rho * over)

    def newton(x, g, shift):
        return -g / (1.0 + 2.0 * rho * (x > 1.0) + shift)

    def quad(x):
        return float((x - c) @ (x - c)), 2.0 * (x - c)

    def uphill(x, g, shift):        # not a descent direction: the negative gradient is used
        return g

    def nan_gradient(x):            # finite values, a NaN gradient beyond x = 0.3
        return float((x[0] - 1.0) ** 2), (np.array([np.nan]) if x[0] > 0.3
                                           else 2.0 * (x - 1.0))

    def wrong_gradient(x):          # the gradient points uphill: no step is accepted
        return float(x @ x), -2.0 * x

    def l1(x):                      # |gradient| stays 1 at every step
        return float(np.sum(np.abs(x))), np.sign(x)

    def creep(x, g, shift):         # a descent step of 1e-12 per coordinate
        return -1e-12 * g

    cases = ((kinked, newton, np.zeros(3), 2000, "grad_tol"),
             (kinked, newton, np.full(3, 5.0), 2000, "grad_tol"),
             (quad, uphill, np.zeros(3), 2000, "grad_tol"),
             (kinked, newton, np.full(3, 5.0), 1, "max_iters"),
             (kinked, newton, np.zeros(3), 0, "max_iters"),
             (nan_gradient, newton, np.zeros(1), 2000, "nonfinite"),
             (wrong_gradient, uphill, np.ones(2), 2000, "line_search"),
             (l1, creep, np.array([0.3, -0.7]), 2000, "stalled"))
    for evaluate, direction, x0, max_iters, reason in cases:
        wrapped, calls = _counted(evaluate)
        x_star, report = newton_minimize(eager_handle(x0.size, wrapped), direction, x0,
                                         max_iters)
        assert report.stop_reason == reason, (reason, report)
        assert report.evaluations == calls[0] > report.iterations
        assert report.iterations <= max_iters
        assert report.final_value == evaluate(x_star)[0] <= evaluate(x0)[0]
        assert report.converged == (reason == "grad_tol")
        assert report.aborted == (reason == "nonfinite")
        if reason == "stalled":             # each step lowers the value by 2e-12
            assert report.iterations == STALL_WINDOW
        if reason == "grad_tol":
            assert np.abs(evaluate(x_star)[1]).max() <= GRAD_NORM_TOL
            assert np.allclose(x_star, np.minimum(c, 1.0) if evaluate is kinked else c,
                               atol=1e-6)


def test_newton_steps_lengthen_to_full_steps_as_the_gradient_vanishes():
    # On a quadratic with its exact Hessian the shifted step is -g / (1 + shift), so the
    # gradient shrinks by shift / (1 + shift) per step: superlinear convergence.
    c = np.array([4.0, -3.0])
    evaluate = _quadratic(2, c).evaluate
    norms = []

    def direction(x, g, shift):
        norms.append(np.abs(g).max())
        assert shift == NEWTON_SHIFT * norms[-1]
        return -g / (2.0 + shift)

    x_star, report = newton_minimize(ObjectiveHandle(2, evaluate), direction, np.zeros(2), 50)
    assert report.stop_reason == "grad_tol" and report.iterations <= 6
    assert all(b <= a * a for a, b in zip(norms[1:], norms[2:]))
    assert np.allclose(x_star, c, atol=1e-6)
