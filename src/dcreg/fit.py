"""The fitting pipeline: constrained initial fit, smoothed refinement, finalization.

Stage 1 solves a convex regularized least-squares problem over per-cell
affine-in-feature pieces, with continuity constraints at the centers and a
shared slope-norm cap, via a quadratic penalty.  Stage 2 locally refines the
max-form function under a slope regularizer tied to the initial solution,
falling back to the initial fit whenever refinement fails to improve the
penalized criterion.  Stage 3 prunes inactive pieces and centers the mean
prediction on the training responses.
"""

import functools
import logging
from dataclasses import dataclass, field, replace

import numpy as np

from . import features
from .data import STD, Dataset, apply_scaling
from .model import (
    CONVEX_VARIANTS, COMPLEMENT, MAX_MIN_AFFINE, SINGLE, SYMMETRIC,
    DcModel, MaxMinAffine, center,
    eval_max, eval_model, eval_model_std, eval_partitioned, lip_stat, prune,
    prune_mma, signed_sum, slope_rows, symmetric_bias_center, to_max_min_affine,
    variant_spec,
)
from .partition import Partition, afpc
from .solver import ObjectiveHandle, SolveReport, SolverConfig, SolverAbort, \
    lbfgs_minimize, penalty_objective, softmax_weights

log = logging.getLogger(__name__)

WEAK = "weak"
STRONG = "strong"

_SMOOTH_KAPPA = 1e-12   # removes the norm kink inside penalty residuals
_REFINE_SLACK = 1e-10   # acceptance slack for the refinement criterion
_FLOOR_RX = 1e-12       # guards theta0 against a zero covariate radius


@dataclass(frozen=True)
class RegParams:
    """Regularization strengths of the two fitting stages."""

    theta0: float   # slope-cap offset
    theta1: float   # cap tightness
    theta2: float   # per-piece slope ridge
    theta3: float   # refinement slope headroom factor

    def __post_init__(self):
        if self.theta0 < 0 or self.theta2 < 0:
            raise ValueError("theta0 and theta2 must be >= 0")
        if self.theta1 <= 0:
            raise ValueError("theta1 must be > 0")
        if self.theta3 < 1:
            raise ValueError("theta3 must be >= 1")


def default_reg_params(r_x: float, r_y: float, n: int, d: int, K: int,
                       theta2_mode: str = STRONG) -> RegParams:
    """Data-driven regularization parameters.

    theta0 = (r_y / r_x) ln n, theta1 = max{1, r_x^2} d K / n,
    theta2 = (r_x/n)^2 (weak) or r_x^2/n (strong) clamped to theta1/K,
    theta3 = ln n.
    """
    if n < 2 or K < 1:
        raise ValueError("need n >= 2 and K >= 1")
    if theta2_mode not in (WEAK, STRONG):
        raise ValueError(f"unknown theta2 mode {theta2_mode!r}")
    logn = float(np.log(n))
    theta0 = (r_y / max(r_x, _FLOOR_RX)) * logn
    theta1 = max(1.0, r_x * r_x) * d * K / n
    theta2 = (r_x / n) ** 2 if theta2_mode == WEAK else r_x * r_x / n
    theta2 = min(theta2, theta1 / K)
    return RegParams(theta0, theta1, theta2, max(1.0, logn))


@dataclass(frozen=True)
class FitConfig:
    variant: str = SINGLE
    kind: str = features.LINF
    theta2_mode: str = STRONG
    seed: int = 0
    solver: SolverConfig = field(default_factory=SolverConfig)

    def __post_init__(self):
        kinds = variant_spec(self.variant).kinds
        features.check_kind(self.kind)
        if self.theta2_mode not in (WEAK, STRONG):
            raise ValueError(f"unknown theta2 mode {self.theta2_mode!r}")
        if self.kind not in kinds:
            raise ValueError(f"{self.variant} requires one of the kinds {kinds}")


@dataclass(frozen=True)
class FitResult:
    initial_model: DcModel
    refined_model: DcModel
    final_model: DcModel
    partition: Partition
    reg: RegParams
    initial_report: SolveReport
    refine_report: SolveReport
    initial_penalized_objective: float
    constraint_violation_max: float
    cone_violation_max: float        # cone residuals of the raw stage-1 solution
    theta_fn: float
    constant_certificate: float
    risk_reg_chain: tuple            # (initial, refined, final) risk + reg_n
    lip_chain: tuple                 # (initial, refined, final) slope stats
    refine_accepted: bool


# ---------------------------------------------------------------------------
# parameter layouts

@dataclass(frozen=True)
class ParamLayout:
    """Flat-vector layout [z?; b_1; W_1; ...; b_m; W_m], one (b, W) per component."""

    n_pieces: int
    slope_dim: int
    n_components: int = 1
    with_z: bool = True

    @property
    def dim(self) -> int:
        return int(self.with_z) + self.n_pieces * (1 + self.slope_dim) * self.n_components

    @functools.cached_property
    def _spans(self):
        """(bias slice, slope slice) of each component, computed once per layout."""
        K, size = self.n_pieces, self.n_pieces * (1 + self.slope_dim)
        return [(slice(o, o + K), slice(o + K, o + size))
                for o in range(int(self.with_z), self.dim, size)]

    def unpack(self, params):
        """(z, [(b, W) per component]), views into params."""
        K, s = self.n_pieces, self.slope_dim
        blocks = [(params[b], params[w].reshape(K, s)) for b, w in self._spans]
        return (float(params[0]) if self.with_z else 0.0), blocks

    def pack(self, z, *arrays):
        """The inverse of unpack: pack(z, b_1, W_1, ..., b_m, W_m)."""
        parts = [np.array([z], dtype=float)] if self.with_z else []
        parts += [np.asarray(a, dtype=float).ravel() for a in arrays]
        return np.concatenate(parts)


@dataclass(frozen=True)
class MmaLayout:
    n_blocks: int
    n_inner: int
    d: int

    @property
    def dim(self) -> int:
        return self.n_blocks * self.n_inner * (1 + self.d)

    def unpack(self, params):
        K, L, d = self.n_blocks, self.n_inner, self.d
        B = params[:K * L].reshape(K, L)
        S = params[K * L:].reshape(K, L, d)
        return B, S

    def pack(self, B, S):
        return np.concatenate([np.asarray(B, float).ravel(), np.asarray(S, float).ravel()])


def _smooth_norms(W):
    """sqrt(||w||^2 + kappa^2) per row: differentiable at zero slopes."""
    return np.sqrt(np.sum(W * W, axis=1) + _SMOOTH_KAPPA ** 2)


# ---------------------------------------------------------------------------
# the initial (partitioned, constrained) problem

class InitialConstraints:
    """Continuity + slope-cap residuals of the initial problem, vectorized.

    Residuals, for every component: b_k >= b_l + w_l . phi(c_k, c_l) for all
    (k, l), and ||w_k|| <= z + theta0, then the variant's cone residuals.
    """

    def __init__(self, layout, phi_cc, theta0, cone, d):
        self.layout = layout
        self.phi_cc = phi_cc          # (K, K, slope_dim)
        self.theta0 = theta0
        self.cone = cone
        self.d = d

    def _pair_residuals(self, b, W):
        M = np.einsum("klj,lj->kl", self.phi_cc, W)
        return b[None, :] + M - b[:, None]

    def residuals(self, params) -> np.ndarray:
        z, blocks = self.layout.unpack(params)
        parts = []
        for b, W in blocks:
            parts += [self._pair_residuals(b, W).ravel(),
                      np.linalg.norm(W, axis=1) - z - self.theta0,
                      self.cone.residuals(W, self.d).ravel()]
        return np.concatenate(parts)

    def max_violation(self, params) -> float:
        res = self.residuals(params)
        return float(max(0.0, res.max())) if res.size else 0.0

    def penalty(self, params, rho):
        z, blocks = self.layout.unpack(params)
        value = 0.0
        gz = 0.0
        gparts = []
        for b, W in blocks:
            G = np.maximum(self._pair_residuals(b, W), 0.0)
            value += rho * float(np.sum(G * G))
            H = 2.0 * rho * G
            gb = H.sum(axis=0) - H.sum(axis=1)
            gW = np.einsum("kl,klj->lj", H, self.phi_cc)
            sn = _smooth_norms(W)
            gpos = np.maximum(sn - _SMOOTH_KAPPA - z - self.theta0, 0.0)
            value += rho * float(np.sum(gpos * gpos))
            h = 2.0 * rho * gpos
            gz -= float(np.sum(h))
            gW += (h / sn)[:, None] * W
            value += self.cone.penalty(W, self.d, rho, gW)
            gparts += [gb, gW.ravel()]
        return value, np.concatenate([[gz], *gparts])


class _InitialProblem:
    """Assembles the stage-1 objective for one variant on one partition."""

    def __init__(self, X, y, part: Partition, kind, reg: RegParams, variant):
        self.X, self.y = X, y
        self.part = part
        self.kind = kind
        self.reg = reg
        self.spec = variant_spec(variant)
        self.d = d = X.shape[1]
        K = part.n_centers
        self.slope_dim = self.spec.slope_dim(kind, d)
        self.layout = ParamLayout(K, self.slope_dim, len(self.spec.signs))
        own_centers = part.centers[part.assignment]
        self.phi_own = features.phi_rows(kind, X, own_centers)[:, :self.slope_dim]
        self.phi_cc = features.phi_tensor(kind, part.centers, part.centers)[:, :, :self.slope_dim]
        self.constraints = InitialConstraints(self.layout, self.phi_cc, reg.theta0,
                                              self.spec.cone, d)

    def base_objective(self) -> ObjectiveHandle:
        layout, X, y = self.layout, self.X, self.y
        n = X.shape[0]
        K = layout.n_pieces
        theta1, theta2 = self.reg.theta1, self.reg.theta2
        signs = self.spec.signs
        # Rows sorted by cell: per-cell sums become one reduceat call.  Every
        # cell is nonempty (each center is its own nearest data row).
        order = np.argsort(self.part.assignment, kind="stable")
        labels_sorted = self.part.assignment[order]
        starts = np.searchsorted(labels_sorted, np.arange(K))
        design = np.hstack([np.ones((n, 1)), self.phi_own])[order]
        y_sorted = y[order]

        def evaluate(params):
            z, blocks = layout.unpack(params)
            bs, Ws = zip(*blocks)
            theta = np.concatenate([signed_sum(signs, bs)[:, None], signed_sum(signs, Ws)],
                                   axis=1)
            r = np.einsum("nj,nj->n", design, theta[labels_sorted]) - y_sorted
            value = theta1 * z * z + float(np.mean(r * r))
            for W in Ws:
                value += theta2 * float(np.sum(W * W))
            seg = np.add.reduceat(design * r[:, None], starts, axis=0)
            seg *= 2.0 / n
            gb = seg[:, 0]
            gW = seg[:, 1:]
            parts = [np.array([2.0 * theta1 * z])]
            for sign, W in zip(signs, Ws):
                parts += [gb, (gW + 2.0 * theta2 * W).ravel()] if sign > 0 else \
                    [-gb, (-gW + 2.0 * theta2 * W).ravel()]
            return value, np.concatenate(parts)

        return ObjectiveHandle(layout.dim, evaluate)

    def _pack_first(self, z, b, W):
        """Parameters with (b, W) in the first component and zeros in the others."""
        zeros = [np.zeros_like(b), np.zeros_like(W)] * (self.layout.n_components - 1)
        return self.layout.pack(z, b, W, *zeros)

    def warm_start(self) -> np.ndarray:
        """Per-cell ridge fits, a feasibility pass on the biases, and the cap z."""
        layout = self.layout
        K, s = layout.n_pieces, layout.slope_dim
        n = self.X.shape[0]
        b = np.zeros(K)
        W = np.zeros((K, s))
        ridge = max(n * self.reg.theta2, 0.0)
        for k in range(K):
            rows = np.where(self.part.assignment == k)[0]
            A = np.hstack([np.ones((rows.size, 1)), self.phi_own[rows]])
            gram = A.T @ A
            gram[1:, 1:] += ridge * np.eye(s)
            rhs = A.T @ self.y[rows]
            try:
                beta = np.linalg.solve(gram, rhs)
            except np.linalg.LinAlgError:
                beta = np.linalg.lstsq(gram, rhs, rcond=None)[0]
            if not np.isfinite(beta).all():
                beta = np.zeros(s + 1)
                beta[0] = float(np.mean(self.y[rows]))
            b[k] = beta[0]
            W[k] = beta[1:]
        # The fit is of the first component's signed contribution.
        sign = self.spec.signs[0]
        W = self.spec.cone.project(sign * W, self.d)
        # One pairwise-max pass lifts biases toward continuity feasibility.
        M = np.einsum("klj,lj->kl", self.phi_cc, W)
        b = np.max(sign * b[None, :] + M, axis=1)
        z = float(np.max(np.maximum(np.linalg.norm(W, axis=1) - self.reg.theta0, 0.0)))
        return self._pack_first(z, b, W)

    def certificate_point(self) -> np.ndarray:
        """The feasible constant fit at the mean response."""
        K, s = self.layout.n_pieces, self.layout.slope_dim
        ybar = float(np.mean(self.y))
        return self._pack_first(0.0, np.full(K, self.spec.signs[0] * ybar), np.zeros((K, s)))

    def extract(self, params):
        """(z, components) of a solution: cone-projected, norm column re-embedded."""
        z, blocks = self.layout.unpack(params)
        return float(z), [self.spec.component_from(self.kind, self.part.centers, b, W)
                          for b, W in blocks]


def build_initial_objective(dataset: Dataset, partition: Partition, kind: str,
                            reg: RegParams, variant: str = SINGLE):
    """Stage-1 objective, constraint set, and parameter layout for a dataset."""
    problem = _InitialProblem(dataset.X, dataset.y, partition, kind, reg, variant)
    return problem.base_objective(), problem.constraints, problem.layout


def fit_initial(dataset: Dataset, partition: Partition, kind: str, reg: RegParams,
                solver_cfg: SolverConfig = None, variant: str = SINGLE):
    """Solve the stage-1 penalty problem; returns (model, info dict).

    The solve starts from the better of the per-cell ridge warm start and the
    constant-fit certificate point, so with monotone descent the final
    penalized value never exceeds the certificate.
    """
    solver_cfg = solver_cfg or SolverConfig()
    problem = _InitialProblem(dataset.X, dataset.y, partition, kind, reg, variant)
    penalized = penalty_objective(problem.base_objective(), problem.constraints,
                                  solver_cfg.rho_pen)
    start = problem.warm_start()
    cert = problem.certificate_point()
    cert_value = float(penalized.evaluate(cert)[0])
    if float(penalized.evaluate(start)[0]) > cert_value:
        start = cert
    x_star, report = lbfgs_minimize(penalized, start, solver_cfg)
    if not np.isfinite(x_star).all():
        raise SolverAbort("stage-1 solve produced non-finite parameters")
    spec, s = problem.spec, problem.slope_dim
    res = np.concatenate([spec.cone.residuals(W, problem.d).ravel()
                          for _, W in problem.layout.unpack(x_star)[1]])
    cone_violation = float(max(0.0, res.max())) if res.size else 0.0
    z, comps = problem.extract(x_star)
    violation = problem.constraints.max_violation(
        problem.layout.pack(z, *[a for c in comps for a in (c.biases, c.weights[:, :s])]))
    log.info("fit_initial variant=%s K=%d iters=%d evals=%d stop=%s penalized=%.6g "
             "violation=%.3g", variant, partition.n_centers, report.iterations,
             report.evaluations, report.stop_reason, report.final_value, violation)
    # DcModel(variant, component[, second]): one positional field per component.
    model = DcModel(variant, *comps, mma=to_max_min_affine(comps[0]) if spec.mma else None)
    info = {
        "report": report,
        "penalized_objective": float(report.final_value),
        "certificate": cert_value,
        "violation": float(violation),
        "cone_violation": cone_violation,
        "z": z,
    }
    return model, info


# ---------------------------------------------------------------------------
# slope bookkeeping shared by the refinement and the diagnostics

def slope_sumsq(model: DcModel) -> float:
    return float(np.sum(np.square(slope_rows(model))))


def theta_fn_value(initial_model: DcModel, reg: RegParams, risk_initial: float) -> float:
    """Hinge strength of the refinement regularizer; zero when slopes vanish."""
    lam = lip_stat(initial_model)
    if lam == 0.0:
        return 0.0
    return (risk_initial + reg.theta2 * slope_sumsq(initial_model)) / (lam * lam)


def reg_n_value(model: DcModel, initial_model: DcModel, reg: RegParams,
                risk_initial: float) -> float:
    """Refinement regularizer: hinge on the largest slope plus the ridge."""
    lam0 = lip_stat(initial_model)
    theta = theta_fn_value(initial_model, reg, risk_initial)
    hinge = max(lip_stat(model) - reg.theta3 * lam0, 0.0)
    return theta * hinge * hinge + reg.theta2 * slope_sumsq(model)


def training_risk_std(model: DcModel, X, y) -> float:
    return float(np.mean((eval_model_std(model, X) - y) ** 2))


# ---------------------------------------------------------------------------
# the refinement problem (max-form, smoothed gradients)

def _reg_terms(W_rows, theta, c0, theta2, mu):
    """Value and per-row gradient of the slope regularizer.

    The hinge on the largest slope norm uses soft-max weights in the
    gradient; the value uses the true maximum.
    """
    norms = np.linalg.norm(W_rows, axis=1)
    lam = float(np.max(norms)) if norms.size else 0.0
    hinge = max(lam - c0, 0.0)
    value = theta * hinge * hinge + theta2 * float(np.sum(norms * norms))
    grad = 2.0 * theta2 * W_rows
    if theta > 0.0 and hinge > 0.0:
        w = softmax_weights(norms, mu)
        grad = grad + (2.0 * theta * hinge) * (w / _smooth_norms(W_rows))[:, None] * W_rows
    return value, grad


class _RefineProblem:
    """Unconstrained risk + regularizer over the max-form parameters.

    The max forms are evaluated piece-major: piece values are a (K, n)
    matrix, so every max and soft-max sum runs along axis 0.  The norm plane
    N[k, i] = ||x_i - c_k|| is computed once per solve; the affine part
    u_k . (x_i - c_k) is one GEMM, U X^T minus U . c per piece.
    """

    def __init__(self, initial_model: DcModel, X, y, reg: RegParams,
                 cfg: SolverConfig, theta: float, lam0: float, variant: str):
        self.X, self.y = X, y
        self.reg = reg
        self.mu = cfg.mu
        self.rho = cfg.rho_pen
        self.theta = theta
        self.c0 = reg.theta3 * lam0
        self.spec = variant_spec(variant)
        self.cone = self.spec.cone
        comp = initial_model.component
        self.kind, self.d = comp.kind, comp.d
        self.centers = comp.used_centers()
        self.slope_dim = self.spec.slope_dim(self.kind, self.d)
        if self.spec.mma:
            mma = initial_model.mma
            self.layout = MmaLayout(mma.n_blocks, mma.biases.shape[1], self.d)
            self.x0 = self.layout.pack(mma.biases, mma.slopes)
        else:
            comps = initial_model.components()
            self.layout = ParamLayout(comp.n_pieces, self.slope_dim, len(comps), with_z=False)
            # One fixed layout for the GEMMs, whatever the caller's layout.
            self.Xt = np.ascontiguousarray(X.T)
            self.norms = (features.norm_plane(self.kind, X, self.centers)
                          if self.kind != features.PLUS and self.slope_dim > self.d
                          else None)
            self.x0 = self.layout.pack(0.0, *[a for c in comps
                                              for a in (c.biases, c.weights[:, :self.slope_dim])])

    def objective(self) -> ObjectiveHandle:
        return self._mma_objective() if self.spec.mma else self._max_form_objective()

    def _relu_pair(self, j):
        diff = self.X[:, j] - self.centers[:, j, None]
        return np.maximum(diff, 0.0), np.maximum(-diff, 0.0)

    def _piece_values(self, b, W):
        """(K, n) values b_k + w_k . phi(x_i, c_k)."""
        d, C = self.d, self.centers
        if self.kind == features.PLUS:
            A = np.repeat(b[:, None], self.Xt.shape[1], axis=1)
            for j in range(d):
                pos, neg = self._relu_pair(j)
                A += W[:, j, None] * pos
                A += W[:, d + j, None] * neg
            return A
        U = W[:, :d]
        A = U @ self.Xt
        A += (b - np.einsum("kj,kj->k", U, C))[:, None]
        if self.norms is not None:
            A += W[:, d, None] * self.norms
        return A

    def _piece_grads(self, coef):
        """Gradients in (b, W) of sum_{k,i} coef[k, i] * A[k, i]."""
        d, C = self.d, self.centers
        gb = coef.sum(axis=1)
        gW = np.empty((coef.shape[0], self.slope_dim))
        if self.kind == features.PLUS:
            for j in range(d):
                pos, neg = self._relu_pair(j)
                gW[:, j] = np.einsum("kn,kn->k", coef, pos)
                gW[:, d + j] = np.einsum("kn,kn->k", coef, neg)
            return gb, gW
        gW[:, :d] = coef @ self.Xt.T
        gW[:, :d] -= gb[:, None] * C
        if self.norms is not None:
            gW[:, d] = np.einsum("kn,kn->k", coef, self.norms)
        return gb, gW

    def _max_form_objective(self):
        layout, y = self.layout, self.y
        n = y.shape[0]
        K = layout.n_pieces
        mu, theta2 = self.mu, self.reg.theta2
        signs = self.spec.signs

        def evaluate(params):
            _, blocks = layout.unpack(params)
            A = [self._piece_values(b, W) for b, W in blocks]
            r = signed_sum(signs, [a.max(axis=0) for a in A]) - y
            value = float(np.mean(r * r))
            scale = (2.0 / n) * r
            rv, rg = _reg_terms(np.concatenate([W for _, W in blocks]),
                                self.theta, self.c0, theta2, mu)
            value += rv
            parts = []
            for i, (sign, a, (_, W)) in enumerate(zip(signs, A, blocks)):
                gb, gW = self._piece_grads(softmax_weights(a, mu, axis=0)
                                           * (scale if sign > 0 else -scale))
                gW += rg[i * K:(i + 1) * K]
                value += self.cone.penalty(W, self.d, self.rho, gW)
                parts += [gb, gW.ravel()]
            return value, np.concatenate(parts)

        return ObjectiveHandle(layout.dim, evaluate)

    def _mma_objective(self):
        layout, X, y = self.layout, self.X, self.y
        n = X.shape[0]
        mu, theta2 = self.mu, self.reg.theta2

        def evaluate(params):
            B, S = layout.unpack(params)
            inner = B[None, :, :] + np.einsum("kld,nd->nkl", S, X)
            m_in = inner.min(axis=2)
            m = m_in.max(axis=1)
            r = m - y
            value = float(np.mean(r * r))
            sig = softmax_weights(m_in, mu, axis=1)             # outer max weights
            tau = softmax_weights(-inner, mu, axis=2)           # inner min weights
            coef = (2.0 / n) * r[:, None, None] * sig[:, :, None] * tau
            gB = coef.sum(axis=0)
            gS = np.einsum("nkl,nd->kld", coef, X)
            rows = S.reshape(-1, layout.d)
            rv, rg = _reg_terms(rows, self.theta, self.c0, theta2, mu)
            value += rv
            gS = gS + rg.reshape(S.shape)
            return value, np.concatenate([gB.ravel(), gS.ravel()])

        return ObjectiveHandle(layout.dim, evaluate)

    def extract(self, params, initial_model: DcModel) -> DcModel:
        if self.spec.mma:
            B, S = self.layout.unpack(params)
            comp = initial_model.component  # pre-conversion snapshot, kept in sync
            return DcModel(self.spec.name, comp, mma=MaxMinAffine(B.copy(), S.copy()))
        _, blocks = self.layout.unpack(params)
        comps = [self.spec.component_from(t.kind, t.centers, b, W, t.center_idx)
                 for t, (b, W) in zip(initial_model.components(), blocks)]
        return DcModel(self.spec.name, *comps)


def build_refine_objective(initial_model: DcModel, dataset: Dataset, reg: RegParams,
                           cfg: SolverConfig = None, variant: str = None):
    """Stage-2 objective and its starting point (mainly for testing)."""
    cfg = cfg or SolverConfig()
    variant = variant or initial_model.variant
    risk0 = training_risk_std(initial_model, dataset.X, dataset.y)
    theta = theta_fn_value(initial_model, reg, risk0)
    problem = _RefineProblem(initial_model, dataset.X, dataset.y, reg, cfg,
                             theta, lip_stat(initial_model), variant)
    return problem.objective(), problem.x0


def refine(initial_model: DcModel, dataset: Dataset, reg: RegParams,
           cfg: SolverConfig = None):
    """Locally refine a fitted model; never returns a worse criterion value.

    With zero initial slopes the initial model is returned unchanged.  A
    refined candidate is accepted only if risk + reg does not exceed the
    initial value (tiny slack); otherwise the initial model is returned.
    """
    cfg = cfg or SolverConfig()
    risk0 = training_risk_std(initial_model, dataset.X, dataset.y)
    lam0 = lip_stat(initial_model)
    theta = theta_fn_value(initial_model, reg, risk0)
    rr0 = risk0 + reg_n_value(initial_model, initial_model, reg, risk0)
    if lam0 == 0.0:
        report = SolveReport(0, rr0, 0.0, 0, True)
        return initial_model, report, False
    problem = _RefineProblem(initial_model, dataset.X, dataset.y, reg, cfg,
                             theta, lam0, initial_model.variant)
    x_star, report = lbfgs_minimize(problem.objective(), problem.x0, cfg)
    candidate = problem.extract(x_star, initial_model)
    rr_cand = (training_risk_std(candidate, dataset.X, dataset.y)
               + reg_n_value(candidate, initial_model, reg, risk0))
    accepted = bool(np.isfinite(rr_cand) and rr_cand <= rr0 + _REFINE_SLACK)
    log.info("refine variant=%s iters=%d evals=%d stop=%s accepted=%s rr0=%.6g rr=%.6g",
             initial_model.variant, report.iterations, report.evaluations,
             report.stop_reason, accepted, rr0, rr_cand)
    return (candidate if accepted else initial_model), report, accepted


def finalize(refined: DcModel, dataset: Dataset) -> DcModel:
    """Prune inactive pieces and center the mean prediction on mean(y)."""
    Xc = refined.transform_x(dataset.X)
    if refined.spec.mma:
        mma, keep = prune_mma(refined.mma, Xc, return_indices=True)
        model = replace(refined, component=refined.component.take(keep), mma=mma)
    else:
        model = refined.with_components([prune(c, Xc) for c in refined.components()])
    model = center(model, dataset)
    if len(model.components()) > 1:
        model = symmetric_bias_center(model)
    return model


# ---------------------------------------------------------------------------
# the full pipeline

def fit_dcf(dataset: Dataset, config: FitConfig = None) -> FitResult:
    """Run the full pipeline for the configured variant.

    The data are standardized first (``apply_scaling`` in its ``std`` mode);
    the returned models carry that map so they act on raw coordinates.
    """
    config = config or FitConfig()
    if dataset.n < 2:
        raise ValueError("need at least two samples")
    if variant_spec(config.variant).signs[0] < 0:
        # The min form is the max form of -y, negated.
        return _wrap_complement(fit_dcf(Dataset(dataset.X, -dataset.y),
                                        replace(config, variant=SINGLE)))

    ds_std, spec = apply_scaling(dataset, STD)
    Xs, ys = ds_std.X, ds_std.y
    part = afpc(Xs, config.seed, ys)
    log.info("afpc K=%d eps=%.4g r_x=%.4g", part.n_centers, part.eps_n, part.r_x)
    reg = default_reg_params(part.r_x, part.r_y, dataset.n, dataset.d,
                             part.n_centers, config.theta2_mode)

    initial_std, info = fit_initial(ds_std, part, config.kind, reg,
                                    config.solver, config.variant)
    risk0 = training_risk_std(initial_std, Xs, ys)
    theta = theta_fn_value(initial_std, reg, risk0)
    rr0 = risk0 + reg_n_value(initial_std, initial_std, reg, risk0)

    refined_std, refine_report, accepted = refine(initial_std, ds_std, reg, config.solver)
    risk1 = training_risk_std(refined_std, Xs, ys)
    rr1 = risk1 + reg_n_value(refined_std, initial_std, reg, risk0)

    final_std = finalize(refined_std, ds_std)
    risk2 = training_risk_std(final_std, Xs, ys)
    rr2 = risk2 + reg_n_value(final_std, initial_std, reg, risk0)

    transforms = dict(x_shift=spec.shift, x_scale=spec.scale, y_shift=spec.y_mean,
                      y_scale=spec.y_std)
    return FitResult(
        initial_model=replace(initial_std, **transforms),
        refined_model=replace(refined_std, **transforms),
        final_model=replace(final_std, **transforms),
        partition=part,
        reg=reg,
        initial_report=info["report"],
        refine_report=refine_report,
        initial_penalized_objective=info["penalized_objective"],
        constraint_violation_max=info["violation"],
        cone_violation_max=info["cone_violation"],
        theta_fn=theta,
        constant_certificate=info["certificate"],
        risk_reg_chain=(rr0, rr1, rr2),
        lip_chain=(lip_stat(initial_std), lip_stat(refined_std), lip_stat(final_std)),
        refine_accepted=accepted,
    )


def _wrap_complement(inner: FitResult) -> FitResult:
    def flip(model: DcModel) -> DcModel:
        return replace(model, variant=COMPLEMENT, offset=-model.offset,
                       y_shift=-model.y_shift)
    return replace(inner, initial_model=flip(inner.initial_model),
                   refined_model=flip(inner.refined_model),
                   final_model=flip(inner.final_model))


def fit_complement(dataset: Dataset, config: FitConfig = None) -> FitResult:
    """Fit the sign-flipped (min-form) variant: train on -y, negate the result."""
    config = config or FitConfig()
    return fit_dcf(dataset, replace(config, variant=COMPLEMENT))


def fit_symmetric(dataset: Dataset, config: FitConfig = None) -> FitResult:
    """Fit the difference-of-two-components variant."""
    config = config or FitConfig()
    return fit_dcf(dataset, replace(config, variant=SYMMETRIC))


def fit_max_min_affine(dataset: Dataset, config: FitConfig = None) -> FitResult:
    """Fit with nonpositive norm coefficients and refine in max-min-affine form."""
    config = config or FitConfig(kind=features.LINF)
    return fit_dcf(dataset, replace(config, variant=MAX_MIN_AFFINE,
                                    kind=features.LINF))


def fit_convex(dataset: Dataset, config: FitConfig) -> FitResult:
    """Fit one of the convexity-restricted variants."""
    if config.variant not in CONVEX_VARIANTS:
        raise ValueError(f"fit_convex requires a convex variant, got {config.variant!r}")
    return fit_dcf(dataset, config)


# ---------------------------------------------------------------------------
# diagnostics used by the test suite

def fit_diagnostics(result: FitResult, dataset: Dataset) -> dict:
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
