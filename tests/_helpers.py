"""Shared oracles for the test suite: finite differences, fit invariants, and the
soft-max and penalty forms that only the tests use."""

import numpy as np

from dcreg import features
from dcreg.fit import FitResult
from dcreg.model import eval_max, eval_model, eval_partitioned
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
