"""Shared oracles for the test suite: finite differences, fit invariants, the
dense feature tensor, the partitioned form, the dense stage-1 objective, and
the soft-max and penalty forms that only the tests use."""

import numpy as np

from dcreg import features
from dcreg.fit import _SMOOTH_KAPPA, FitResult, ParamLayout
from dcreg.model import eval_max, eval_model, signed_sum, variant_spec
from dcreg.solver import ObjectiveHandle


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


def assert_gradient_matches(objective, points, rtol=1e-4):
    for x in points:
        _, ana = objective.evaluate(x)
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
        z, blocks = layout.unpack(params)
        return np.concatenate([part for b, W in blocks for part in (
            pair_residuals(b, W).ravel(), np.linalg.norm(W, axis=1) - z - reg.theta0,
            spec.cone.residuals(W, d).ravel())])

    def evaluate(params):
        z, blocks = layout.unpack(params)
        bs, Ws = zip(*blocks)
        theta = np.concatenate([signed_sum(spec.signs, bs)[:, None],
                                signed_sum(spec.signs, Ws)], axis=1)
        r = np.einsum("nj,nj->n", design, theta[labels_sorted]) - y_sorted
        value = reg.theta1 * z * z + float(np.mean(r * r))
        seg = np.add.reduceat(design * r[:, None], starts, axis=0) * (2.0 / n)
        gz = 2.0 * reg.theta1 * z
        parts = []
        for sign, (b, W) in zip(spec.signs, blocks):
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
            value += spec.cone.penalty(W, d, rho, gW)
            parts += [gb, gW.ravel()]
        return value, np.concatenate([[gz], *parts])

    return evaluate, residuals


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
    inequality residuals g_i(x) <= 0; ``solver.penalty_objective`` is the
    vectorized form.
    """
    cons = list(constraints)

    def evaluate(x):
        value, grad = base.evaluate(x)
        grad = grad.copy()
        for con in cons:
            gi, gradi = con(x)
            if gi > 0.0:
                value += rho_pen * gi * gi
                grad += (2.0 * rho_pen * gi) * gradi
        return value, grad

    return ObjectiveHandle(base.dim, evaluate)
