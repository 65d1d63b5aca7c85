"""Shared oracles for the test suite: finite differences, fit invariants, the
dense feature tensor, the partitioned form, the dense stage-1 objective, its
generalized Hessian and scipy's solve of it, the per-component objectives that the stacked ones
replaced, the direct nearest-center assignment, the dense soft-max formulas,
the adapters for objectives that return their gradient with their value, the
solve log recorder, and the builders and penalty forms that only the tests
use."""

import contextlib
import logging

import numpy as np

from dcreg import features
from dcreg.fit import (_SMOOTH_KAPPA, MUS, RHO_PEN, FitResult, ParamLayout, _InitialProblem,
                       _PieceKernel, _RefineProblem)
from dcreg.model import (SINGLE, _check_dim, _piece_blocks, eval_max, eval_model, signed_sum,
                         variant_spec)
from dcreg.solver import _EXP_FLOOR, ObjectiveHandle


def central_diff(evaluate, x, base_step=1e-6):
    """Central finite-difference gradient with step 1e-6 * (1 + |x_i|)."""
    grad = np.zeros_like(x)
    for i in range(x.size):
        h = base_step * (1.0 + abs(x[i]))
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        grad[i] = (evaluate(xp)[0] - evaluate(xm)[0]) / (2.0 * h)
    return grad


def eager_handle(dim, evaluate):
    """The handle of an objective ``evaluate(x) -> (value, gradient)``."""
    def deferred(x):
        value, grad = evaluate(x)
        return value, lambda: grad
    return ObjectiveHandle(dim, deferred)


def value_and_gradient(obj: ObjectiveHandle, x):
    """(value, gradient) of a handle at x, its gradient thunk finished at once."""
    value, gradient = obj.evaluate(x)
    return value, gradient()


def assert_gradient_matches(objective, points, rtol=1e-4):
    for x in points:
        _, ana = value_and_gradient(objective, x)
        num = central_diff(objective.evaluate, x)
        err = np.linalg.norm(ana - num)
        assert err <= rtol * (1.0 + np.linalg.norm(ana)), \
            f"gradient mismatch: |ana-num|={err:.3g} |ana|={np.linalg.norm(ana):.3g}"


def phi_tensor(kind: str, X: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """All-pairs features: out[i, k] = phi(kind, X[i], centers[k]), an (n, K, d_feat) array."""
    features.check_kind(kind)
    X = np.atleast_2d(np.asarray(X, dtype=float))
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    diff = X[:, None, :] - centers[None, :, :]
    if kind == features.PLUS:
        return np.concatenate([np.maximum(diff, 0.0), np.maximum(-diff, 0.0)], axis=2)
    norms = np.linalg.norm(diff, ord={features.L1: 1, features.L2: 2, features.LINF: np.inf}[kind],
                           axis=2)
    return np.concatenate([diff, norms[:, :, None]], axis=2)


def eval_partitioned(comp, x, label):
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


def fit_diagnostics(result: FitResult, dataset) -> dict:
    """Recompute the pipeline's invariant quantities for external checking."""
    model = result.initial_model
    Xs = model.transform_x(dataset.X)
    out = {
        "risk_reg_chain": result.risk_reg_chain,
        "lip_chain": result.lip_chain,
        "violation": result.constraint_violation_max,
        "mean_prediction": float(np.mean(eval_model(result.final_model, dataset.X))),
        "y_mean": float(np.mean(dataset.y)),
    }
    comps = model.components()
    labels = result.partition.assignment
    gaps = []
    for comp in comps:
        if comp.n_pieces != result.partition.n_centers:
            continue  # pruned snapshot; the gap bound applies pre-pruning only
        f_vals = eval_max(comp, Xs)
        g_vals = eval_partitioned(comp, Xs, labels)
        gaps.append((f_vals - g_vals))
    if gaps:
        gap = np.concatenate(gaps)
        out["partition_gap_min"] = float(gap.min())
        out["partition_gap_max"] = float(gap.max())
        cons = features.constants(model.component.kind, model.d)
        out["partition_gap_bound"] = (
            2.0 * result.lip_chain[0] * result.partition.eps_n
            + 10.0 * result.constraint_violation_max
            * (1.0 + cons.c_phi * 2.0 * result.partition.r_x))
    return out


def dense_initial_objective(dataset, partition, kind, reg, variant, rho):
    """The stage-1 penalized objective on the n rows and the (K, K, slope_dim) tensor.

    The least-squares term is the row-wise mean(r^2), its gradient summed per
    cell with ``reduceat``; the continuity penalty contracts the ``phi_tensor``
    of the centers with ``einsum``.  Returns (evaluate, residuals), both of
    the flat parameter vector.
    """
    spec = variant_spec(variant)
    X, y = dataset.X, dataset.y
    n, d = X.shape
    K = partition.n_centers
    s = spec.slope_dim(kind, d)
    layout = ParamLayout(K, s, len(spec.signs))
    phi_own = features.phi_rows(kind, X, partition.centers[partition.assignment])[:, :s]
    phi_cc = phi_tensor(kind, partition.centers, partition.centers)[:, :, :s]
    order = np.argsort(partition.assignment, kind="stable")
    labels_sorted = partition.assignment[order]
    starts = np.searchsorted(labels_sorted, np.arange(K))
    design = np.hstack([np.ones((n, 1)), phi_own])[order]
    y_sorted = y[order]

    def pair_residuals(b, W):
        return b[None, :] + np.einsum("klj,lj->kl", phi_cc, W) - b[:, None]

    def residuals(params):
        z, B, Ws = layout.stack(params)
        return np.concatenate([part for b, W in zip(B, Ws) for part in (
            pair_residuals(b, W).ravel(), np.linalg.norm(W, axis=1) - z - reg.theta0,
            spec.cone.residuals(W, d).ravel())])

    def evaluate(params):
        z, bs, Ws = layout.stack(params)
        theta = np.concatenate([signed_sum(spec.signs, bs)[:, None],
                                signed_sum(spec.signs, Ws)], axis=1)
        r = np.einsum("nj,nj->n", design, theta[labels_sorted]) - y_sorted
        value = reg.theta1 * z * z + float(np.mean(r * r))
        seg = np.add.reduceat(design * r[:, None], starts, axis=0) * (2.0 / n)
        gz = 2.0 * reg.theta1 * z
        parts = []
        for sign, b, W in zip(spec.signs, bs, Ws):
            value += reg.theta2 * float(np.sum(W * W))
            G = np.maximum(pair_residuals(b, W), 0.0)
            value += rho * float(np.sum(G * G))
            H = 2.0 * rho * G
            gb = sign * seg[:, 0] + H.sum(axis=0) - H.sum(axis=1)
            gW = sign * seg[:, 1:] + 2.0 * reg.theta2 * W + np.einsum("kl,klj->lj", H, phi_cc)
            sn = np.sqrt(np.sum(W * W, axis=1) + _SMOOTH_KAPPA ** 2)
            gpos = np.maximum(sn - _SMOOTH_KAPPA - z - reg.theta0, 0.0)
            value += rho * float(np.sum(gpos * gpos))
            gz -= 2.0 * rho * float(np.sum(gpos))
            gW += (2.0 * rho * gpos / sn)[:, None] * W
            value += reference_cone_penalty(spec.cone, W, d, rho, gW)
            parts += [gb, gW.ravel()]
        return value, np.concatenate([[gz], *parts])

    return evaluate, residuals


def dense_generalized_hessian(problem, params, rho):
    """The stage-1 generalized Hessian at params, assembled dense, term by term.

    The cell Grams (signed between components), the ridge and z's weight,
    2 rho a a' for the gradient a of each positive pair residual
    b_l + w_l . phi(c_k, c_l) - b_k (with ``phi_tensor``) and of each positive
    cone residual, and for each positive slope cap rho times the Hessian of
    its square.
    """
    layout, reg, spec, d = problem.layout, problem.reg, problem.spec, problem.d
    m, K, s = layout.n_components, layout.n_pieces, layout.slope_dim
    phi = phi_tensor(problem.kind, problem.part.centers, problem.part.centers)[:, :, :s]
    G = problem.gram / problem.X.shape[0]
    z, B, W = layout.stack(params)
    _, b_at, w_at = layout.stack(np.arange(layout.dim))
    cone_cols = [np.atleast_1d(np.arange(s)[c]) for c in spec.cone.columns(d)]
    H = np.zeros((layout.dim, layout.dim))
    H[0, 0] = 2.0 * reg.theta1

    def add_outer(at, a, weight):
        H[np.ix_(at, at)] += weight * np.outer(a, a)

    for k, i, j in np.ndindex(K, m, m):
        H[np.ix_(np.r_[b_at[i, k], w_at[i, k]], np.r_[b_at[j, k], w_at[j, k]])] += (
            2.0 * spec.signs[i] * spec.signs[j] * G[k])
    for i in range(m):
        R = B[i][None, :] + np.einsum("klj,lj->kl", phi, W[i]) - B[i][:, None]
        cones = spec.cone.residuals(W[i], d).reshape(K, -1)
        for l in range(K):
            w = w_at[i, l]
            H[w, w] += 2.0 * reg.theta2
            for k in np.flatnonzero(R[:, l] > 0.0):
                if k != l:
                    add_outer(np.r_[b_at[i, l], b_at[i, k], w], np.r_[1.0, -1.0, phi[k, l]],
                              2.0 * rho)
            sn = np.sqrt(W[i, l] @ W[i, l] + _SMOOTH_KAPPA ** 2)
            h = sn - _SMOOTH_KAPPA - z - reg.theta0
            if h > 0.0:
                add_outer(np.r_[0, w], np.r_[-1.0, W[i, l] / sn], 2.0 * rho)
                u = W[i, l] / sn
                H[np.ix_(w, w)] += 2.0 * rho * h * (np.eye(s) - np.outer(u, u)) / sn
            for j in np.flatnonzero(cones[l] > 0.0):
                at = np.array([w[c[j]] for c in cone_cols])
                add_outer(at, np.full(at.size, spec.cone.sign), 2.0 * rho)
    return H


def scipy_initial_minimum(dataset, partition, kind, reg, variant, rho):
    """The minimum of the stage-1 penalized objective by scipy's SLSQP, from zero.

    The penalty rho sum max(r_i, 0)^2 is written as a smooth problem: minimize
    f(x) + sum t_i^2 subject to t_i >= sqrt(rho) r_i(x) and t_i >= 0, with f
    the row-wise least squares of ``dense_initial_objective`` at rho = 0.
    The residuals are the off-diagonal continuity pairs, the slope caps
    ||w_k|| - z - theta0 and the cone residuals, with their exact Jacobian.
    """
    from scipy.optimize import minimize

    spec = variant_spec(variant)
    K, d, m = partition.n_centers, dataset.d, len(spec.signs)
    s = spec.slope_dim(kind, d)
    layout = ParamLayout(K, s, m)
    base, _ = dense_initial_objective(dataset, partition, kind, reg, variant, 0.0)
    phi = phi_tensor(kind, partition.centers, partition.centers)[:, :, :s]
    cone_cols = [np.atleast_1d(np.arange(s)[c]) for c in spec.cone.columns(d)]
    # the linear residuals as rows of a matrix: b_l + w_l . phi(c_k, c_l) - b_k, then the cones
    rows = []
    for i in range(m):
        at = 1 + i * K * (1 + s)

        def w_at(k):
            return slice(at + K + k * s, at + K + (k + 1) * s)

        for k, l in zip(*np.nonzero(~np.eye(K, dtype=bool))):
            a = np.zeros(layout.dim)
            a[at + l], a[at + k], a[w_at(l)] = 1.0, -1.0, phi[k, l]
            rows.append(a)
        for k in range(K):
            for j in range(len(cone_cols[0]) if cone_cols else 0):
                a = np.zeros(layout.dim)
                a[[w_at(k).start + c[j] for c in cone_cols]] = spec.cone.sign
                rows.append(a)
    L = np.array(rows).reshape(-1, layout.dim)
    n_x, n_t, root = layout.dim, len(L) + m * K, np.sqrt(rho)

    def residuals(x):
        z, _, W = layout.stack(x)
        norms = np.linalg.norm(W, axis=2)
        J = np.zeros((m * K, n_x))
        J[:, 0] = -1.0
        for i, k in np.ndindex(m, K):
            at = 1 + i * K * (1 + s) + K + k * s
            J[i * K + k, at:at + s] = W[i, k] / max(norms[i, k], 1e-300)
        return np.concatenate([L @ x, (norms - z - reg.theta0).ravel()]), np.vstack([L, J])

    def objective(v):
        value, grad = base(v[:n_x])
        t = v[n_x:]
        return value + t @ t, np.concatenate([grad, 2.0 * t])

    start = np.concatenate([np.zeros(n_x), np.maximum(root * residuals(np.zeros(n_x))[0], 0.0)])
    constraint = {"type": "ineq",
                  "fun": lambda v: v[n_x:] - root * residuals(v[:n_x])[0],
                  "jac": lambda v: np.hstack([-root * residuals(v[:n_x])[1], np.eye(n_t)])}
    result = minimize(objective, start, jac=True, method="SLSQP", constraints=[constraint],
                      bounds=[(None, None)] * n_x + [(0.0, None)] * n_t,
                      options={"ftol": 1e-15, "maxiter": 2000})
    return float(result.fun)


def assert_fit_invariants(result: FitResult, dataset, viol_tol=1e-4):
    """The refinement/finalization chain guarantees, checked on one fit."""
    rr0, rr1, rr2 = result.risk_reg_chain
    assert rr1 <= rr0 + 1e-8, f"refined criterion {rr1} exceeds initial {rr0}"
    assert rr2 <= rr1 + 1e-8, f"final criterion {rr2} exceeds refined {rr1}"
    lip0, lip1, lip2 = result.lip_chain
    cap = (1.0 + result.reg.theta3) * lip0 + 1e-8
    assert lip1 <= cap, f"refined slope stat {lip1} exceeds cap {cap}"
    assert lip2 <= lip1 + 1e-8
    # finalization centering in raw units
    mean_pred = float(np.mean(eval_model(result.final_model, dataset.X)))
    assert abs(mean_pred - float(np.mean(dataset.y))) <= 1e-10
    # stage-1 solve quality
    assert result.constraint_violation_max <= viol_tol
    assert result.initial_penalized_objective <= result.constant_certificate + 1e-12
    _assert_partition_gap(result, dataset)


def _assert_partition_gap(result: FitResult, dataset):
    """Max-form vs partitioned-form gap on training rows, with feasibility slack."""
    model = result.initial_model
    Xs = model.transform_x(dataset.X)
    labels = result.partition.assignment
    cons = features.constants(model.component.kind, model.d)
    slack = 10.0 * result.constraint_violation_max * \
        (1.0 + cons.c_phi * 2.0 * result.partition.r_x)
    bound = 2.0 * result.lip_chain[0] * result.partition.eps_n + slack
    for comp in model.components():
        if comp.n_pieces != result.partition.n_centers:
            continue
        gap = eval_max(comp, Xs) - eval_partitioned(comp, Xs, labels)
        assert gap.min() >= -1e-12, f"partitioned form exceeded the max form: {gap.min()}"
        assert gap.max() <= bound + 1e-9, f"gap {gap.max()} above bound {bound}"


def softmax_weights(alpha, mu: float, axis=None) -> np.ndarray:
    """Gradient weights of the soft maximum: probability vectors along ``axis``.

    exp((alpha - max) / mu) normalized to sum 1, over the whole array when
    ``axis`` is None, else independently along that axis: the dense formula
    that ``softmax_near_ties`` evaluates on the near-ties alone.
    """
    alpha = np.asarray(alpha, dtype=float)
    keep = axis is not None
    w = np.exp((alpha - np.max(alpha, axis=axis, keepdims=keep)) / mu)
    return w / np.sum(w, axis=axis, keepdims=keep)


def floored_softmax(A, mu: float):
    """(soft maxima, exponentials, their sums) along axis 0, the exponents floored
    at ``_EXP_FLOOR``: the dense formula that ``softmax_columns`` evaluates, with
    fresh arrays.  The weights are the exponentials over their sums."""
    top = np.max(A, axis=0)
    e = np.exp(np.maximum((A - top) * (1.0 / mu), _EXP_FLOOR))
    total = e.sum(axis=0)
    return top + mu * np.log(total), e, total


def softmax_smooth(alpha, mu: float) -> float:
    """Soft maximum mu*log(sum(exp(alpha/mu))), computed with a max shift.

    Overestimates max(alpha) by at most mu*log(len(alpha)).
    """
    alpha = np.asarray(alpha, dtype=float)
    if alpha.size == 0:
        raise ValueError("empty input")
    if mu <= 0:
        raise ValueError("mu must be positive")
    m = float(np.max(alpha))
    return m + mu * float(np.log(np.sum(np.exp((alpha - m) / mu))))


def callable_penalty_objective(base: ObjectiveHandle, constraints, rho_pen: float):
    """Quadratic penalty base(x) + rho * sum(max(0, g_i(x))^2), one callable per residual.

    ``constraints`` is an iterable of callables x -> (g_i, grad_g_i) for
    inequality residuals g_i(x) <= 0; ``penalty_objective`` is the
    vectorized form.
    """
    cons = list(constraints)

    def evaluate(x):
        value, grad = value_and_gradient(base, x)
        grad = grad.copy()
        for con in cons:
            gi, gradi = con(x)
            if gi > 0.0:
                value += rho_pen * gi * gi
                grad += (2.0 * rho_pen * gi) * gradi
        return value, grad

    return eager_handle(base.dim, evaluate)


# ---------------------------------------------------------------------------
# builders of the objectives the fit uses, for tests

def build_initial_objective(dataset, partition, kind, reg, variant=SINGLE, rho=RHO_PEN):
    """The penalized stage-1 objective at ``rho``, its problem and its parameter layout.

    The problem holds the residuals: ``residuals``, ``max_violation`` and
    ``pair_residuals``.
    """
    problem = _InitialProblem(dataset.X, dataset.y, partition, kind, reg, variant)
    return problem.objective(rho), problem, problem.layout


def build_refine_objective(initial_model, dataset, reg, mu=MUS[-1]):
    """The stage-2 objective of a fitted model at ``mu`` and its starting point."""
    problem = _RefineProblem(initial_model, dataset, reg)
    return problem.objective(mu), problem.x0


def piece_values(comp, X):
    """Piece-major (K, n) matrix of per-piece affine-in-feature values."""
    X = _check_dim(X, comp.d, "component")
    out = np.empty((comp.n_pieces, X.shape[0]))
    for lo, hi, values in _piece_blocks(comp, X):
        out[:, lo:hi] = values
    return out


def assert_same_bits(a, b, what=""):
    """Equal as float64 bit patterns: signed zeros and NaN payloads included."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    assert a.shape == b.shape, what
    assert np.array_equal(a.view(np.int64), b.view(np.int64)), what


def assert_thunk_survives_a_rejected_trial(obj, x, rejected, what=""):
    """obj at x gives the same value and gradient bits when its thunk is finished
    at once and when it is finished after a trial at ``rejected`` whose thunk
    was dropped."""
    value, grad = value_and_gradient(obj, x)
    obj.evaluate(rejected)
    first, gradient = obj.evaluate(x)
    assert first == value, what
    assert_same_bits(gradient(), grad, what)


class _LoggedSolves(logging.Handler):
    def __init__(self, solves):
        super().__init__()
        self.solves = solves

    def emit(self, record):
        stage, *fields = record.getMessage().split()
        if stage in ("stage1", "stage2"):
            self.solves.append({"stage": stage, **dict(field.split("=", 1) for field in fields)})


@contextlib.contextmanager
def recording_solves(solves):
    """Append to ``solves`` one dict per stage-1 or stage-2 solve logged while the
    block runs: its stage, variant, rho or mu, iters, evals, stop and wall fields,
    as strings."""
    logger = logging.getLogger("dcreg.fit")
    handler, level = _LoggedSolves(solves), logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.INFO)
    try:
        yield solves
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


# ---------------------------------------------------------------------------
# direct nearest-center assignment: the reference for afpc's labels

def squared_distances(X: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Direct-difference squared distances out[i, k] = ||X_i - c_k||^2.

    The direct form (no Gram expansion) keeps distances bit-identical to any
    per-pair recomputation, so cover checks need no tolerance.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    out = np.empty((X.shape[0], centers.shape[0]))
    chunk = max(1, int(2_000_000 / max(1, centers.shape[0] * X.shape[1])))
    for lo in range(0, X.shape[0], chunk):
        hi = min(lo + chunk, X.shape[0])
        diff = X[lo:hi, None, :] - centers[None, :, :]
        out[lo:hi] = np.sum(diff * diff, axis=2)
    return out


def assign_cells(centers: np.ndarray, X: np.ndarray):
    """Nearest-center labels (ties to the smaller index) and the cover radius."""
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if centers.shape[0] < 1:
        raise ValueError("need at least one center")
    # Squared distances suffice for the argmin / max chain; one sqrt at the end.
    sq = squared_distances(X, centers)
    labels = np.argmin(sq, axis=1)
    eps = float(np.sqrt(np.max(sq[np.arange(X.shape[0]), labels])))
    return labels.astype(np.int64), eps


# ---------------------------------------------------------------------------
# the per-component objectives the stacked ones replaced, kept as references:
# every floating-point operation of the stacked forms must match these

def _reference_piece_values(kernel, b, W):
    """One component's (K, n) piece values, as the piece kernel computed them before stacking."""
    d, C = kernel.d, kernel.centers
    if kernel.kind == features.PLUS:
        A = np.repeat(b[:, None], kernel.rows_t.shape[1], axis=1)
        for j in range(d):
            pos, neg = kernel._relu_pair(j)
            A += W[:, j, None] * pos
            A += W[:, d + j, None] * neg
        return A
    U = W[:, :d]
    A = U @ kernel.rows_t
    A += (b - np.einsum("kj,kj->k", U, C))[:, None]
    if kernel.norms is not None:
        A += W[:, d, None] * kernel.norms
    return A


def _reference_piece_grads(kernel, coef):
    """Gradients in (b, W) of sum coef[k, i] * A[k, i] of one component."""
    d, C = kernel.d, kernel.centers
    gb = coef.sum(axis=1)
    gW = np.empty((coef.shape[0], kernel.slope_dim))
    if kernel.kind == features.PLUS:
        for j in range(d):
            pos, neg = kernel._relu_pair(j)
            gW[:, j] = np.einsum("kn,kn->k", coef, pos)
            gW[:, d + j] = np.einsum("kn,kn->k", coef, neg)
        return gb, gW
    gW[:, :d] = coef @ kernel.rows_t.T
    gW[:, :d] -= gb[:, None] * C
    if kernel.norms is not None:
        gW[:, d] = np.einsum("kn,kn->k", coef, kernel.norms)
    return gb, gW


def reference_cone_penalty(cone, W, d, rho, gW):
    """rho * ||max(residuals, 0)||^2 of one component's (K, s) slopes; gradient added to gW."""
    cols = cone.columns(d)
    if not cols:
        return 0.0
    pos = np.maximum(cone.residuals(W, d), 0.0)
    for c in cols:
        gW[:, c] += cone.sign * 2.0 * rho * pos
    return rho * float(np.sum(pos * pos))


def penalty_objective(base, constraints, rho_pen: float):
    """Quadratic penalty wrapper: base(x) + constraints.penalty(x, rho_pen).

    ``constraints.penalty(x, rho) -> (value, gradient)`` is the vectorized
    rho * sum(max(0, g_i(x))^2) of the inequality residuals g_i(x) <= 0.
    """
    def evaluate(x):
        v, g = base(x)
        pv, pg = constraints.penalty(x, rho_pen)
        return v + pv, g + pg
    return evaluate


class _ReferenceInitialConstraints:
    """The stage-1 continuity, slope-cap and cone penalty, one component at a time."""

    def __init__(self, problem):
        self.problem = problem

    def penalty(self, params, rho):
        problem = self.problem
        z, bs, Ws = problem.layout.stack(params)
        theta0, d = problem.reg.theta0, problem.d
        value = 0.0
        gz = 0.0
        gparts = []
        for b, W in zip(bs, Ws):
            P = _reference_piece_values(problem.kernel, b, W)
            P -= b
            np.fill_diagonal(P, 0.0)
            np.maximum(P, 0.0, out=P)
            value += rho * float((P * P).sum())
            P *= 2.0 * rho
            gb, gW = _reference_piece_grads(problem.kernel, P)
            gb -= P.sum(axis=0)
            sn = np.sqrt((W * W).sum(axis=1) + _SMOOTH_KAPPA ** 2)
            gpos = np.maximum(sn - _SMOOTH_KAPPA - z - theta0, 0.0)
            value += rho * float((gpos * gpos).sum())
            h = 2.0 * rho * gpos
            gz -= float(h.sum())
            gW += (h / sn)[:, None] * W
            value += reference_cone_penalty(problem.spec.cone, W, d, rho, gW)
            gparts += [gb, gW.ravel()]
        return value, np.concatenate([[gz], *gparts])


def reference_initial_objective(problem, rho):
    """The stage-1 objective split in two: the least-squares base plus the penalty wrapper."""
    layout, reg, signs = problem.layout, problem.reg, problem.spec.signs
    G = problem.gram / problem.X.shape[0]
    beta, rss0 = problem.beta, problem.rss0

    def base(params):
        z, bs, Ws = layout.stack(params)
        delta = np.concatenate([signed_sum(signs, bs)[:, None], signed_sum(signs, Ws)], axis=1)
        delta -= beta
        Gd = np.matmul(G, delta[:, :, None])[:, :, 0]
        value = reg.theta1 * z * z + (float((delta * Gd).sum()) + rss0)
        for W in Ws:
            value += reg.theta2 * float((W * W).sum())
        Gd *= 2.0
        gb = Gd[:, 0]
        gW = Gd[:, 1:]
        parts = [np.array([2.0 * reg.theta1 * z])]
        for sign, W in zip(signs, Ws):
            parts += [gb, (gW + 2.0 * reg.theta2 * W).ravel()] if sign > 0 else \
                [-gb, (-gW + 2.0 * reg.theta2 * W).ravel()]
        return value, np.concatenate(parts)

    return penalty_objective(base, _ReferenceInitialConstraints(problem), rho)


def reference_reg_terms(W_rows, theta, c0, theta2, mu):
    """Value and per-row gradient of the stage-2 slope regularizer, computed together.

    The hinge is on the soft maximum of the slope norms at ``mu``, and the
    gradient takes its soft-max weights.
    """
    norms = np.linalg.norm(W_rows, axis=1)
    soft, e, total = floored_softmax(norms, mu)
    w = e / total
    hinge = max(float(soft) - c0, 0.0)
    value = theta * hinge * hinge + theta2 * float(np.sum(norms * norms))
    grad = 2.0 * theta2 * W_rows
    if theta > 0.0 and hinge > 0.0:
        sn = np.sqrt((W_rows * W_rows).sum(axis=1) + _SMOOTH_KAPPA ** 2)
        grad = grad + (2.0 * theta * hinge) * (w / sn)[:, None] * W_rows
    return value, grad


def reference_max_form_objective(problem, mu):
    """The stage-2 max-form objective at ``mu``, one component at a time, with the
    dense floored soft-max of each column."""
    layout, y, n = problem.layout, problem.y, problem.y.shape[0]
    K, signs = layout.n_pieces, problem.spec.signs
    kernel = _PieceKernel(problem.kind, problem.X, problem.centers, problem.slope_dim)

    def evaluate(params):
        _, bs, Ws = layout.stack(params)
        A = [_reference_piece_values(kernel, b, W) for b, W in zip(bs, Ws)]
        soft = [floored_softmax(a, mu) for a in A]
        r = signed_sum(signs, [v for v, _, _ in soft]) - y
        value = float(np.mean(r * r))
        scale = (2.0 / n) * r
        rv, rg = reference_reg_terms(np.concatenate(list(Ws)), problem.theta, problem.c0,
                                     problem.reg.theta2, mu)
        value += rv
        parts = []
        for i, (sign, (_, e, total), W) in enumerate(zip(signs, soft, Ws)):
            gb, gW = _reference_piece_grads(kernel, e * ((scale if sign > 0 else -scale) / total))
            gW += rg[i * K:(i + 1) * K]
            value += reference_cone_penalty(problem.cone, W, problem.d, problem.cone_weight(mu),
                                            gW)
            parts += [gb, gW.ravel()]
        return value, np.concatenate(parts)

    return evaluate


def reference_piece_block(comp, rows):
    """(K, rows) piece values of one row block, with fresh temporaries and its own norm plane."""
    centers, W, d = comp.used_centers(), comp.weights, comp.d
    out = np.repeat(comp.biases[:, None], rows.shape[0], axis=1)
    for j in range(d):
        diff = rows[:, j] - centers[:, j, None]
        if comp.kind == features.PLUS:
            out += W[:, j, None] * np.maximum(diff, 0.0)
            diff = np.maximum(-diff, 0.0, out=diff)
            diff *= W[:, d + j, None]
        else:
            diff *= W[:, j, None]
        out += diff
    if comp.kind != features.PLUS and np.any(W[:, d]):
        out += W[:, d, None] * features.norm_plane(comp.kind, rows, centers)
    return out


def reference_mma_block(mma, rows):
    """(K, rows) inner minima of one row block, with fresh temporaries."""
    columns, S = rows.T, mma.slopes
    inner = S[:, :, 0, None] * columns[0]
    for j in range(1, S.shape[2]):
        inner += S[:, :, j, None] * columns[j]
    inner += mma.biases[:, :, None]
    return inner.min(axis=1)
