"""The fitting pipeline: constrained initial fit, smoothed refinement, finalization.

Stage 1 solves a convex regularized least-squares problem over per-cell
affine-in-feature pieces, with continuity constraints at the centers and a
shared slope-norm cap, via a quadratic penalty.  Damped semismooth Newton
steps minimize the penalized objective at each weight of ``RHOS`` in turn, up
to ``RHO_PEN``, the first from the constant fit at the mean response, each
next from the last one's point.  Stage 2 locally refines the max-form
function under a slope regularizer tied to the initial solution, by L-BFGS.
It minimizes the soft maximum mu log sum exp(a / mu) in place of each max,
value and gradient alike, and the slope cone's envelope dist^2 / (2 mu), for
mu = 1e-2, 1e-3 and 1e-4 in turn, each solve warm-started from the last and
run on the pieces whose soft-max exponents are not all clipped at its mu; it
falls back to the initial fit whenever the result fails to improve the
criterion with the true maxima, which ``_RefineProblem.criterion`` states
once for the acceptance test and the fit's risk + reg chain.  Every variant
refines its max form: max-min-affine's blocks are the rewrite of its
component, refined free of its cone and projected onto it.  Stage 3 prunes
inactive pieces and centers the mean prediction on the training responses.
"""

import copy
import functools
import itertools
import logging
from dataclasses import dataclass, field, replace
from time import perf_counter

import numpy as np

from . import features
from .data import STD, DataError, Dataset, apply_scaling
from .model import (
    NO_CONE, SINGLE, DcModel, center, eval_model_std, lip_stat, prune, signed_sum, slope_rows,
    symmetric_bias_center, variant_spec,
)
from .partition import Partition, afpc
from .solver import ObjectiveHandle, SolveReport, SolverConfig, SolverAbort, \
    lbfgs_minimize, newton_minimize, softmax_columns, unclipped_rows

log = logging.getLogger(__name__)

WEAK = "weak"
STRONG = "strong"

MUS = (1e-2, 1e-3, 1e-4)  # the stage-2 smoothing widths, solved in turn
GAMMA = 1e-2            # each width but the last is solved to gradient max-norm GAMMA * mu
RHO_PEN = 1e6           # quadratic penalty weight of the stage-1 residuals
RHOS = (1.0, 1e1, 1e2, 1e3, 1e4, 1e5, RHO_PEN)  # the stage-1 penalty ladder, solved in turn
_SMOOTH_KAPPA = 1e-12   # removes the norm kink inside penalty residuals
_REFINE_SLACK = 1e-10   # acceptance slack for the refinement criterion
_FLOOR_RX = 1e-12       # guards theta0 against a zero covariate radius
_DENSE_RATIO = 128.0    # stage-1 Schur products: when a block goes dense (``_schur_groups``)
_GROUP_COST = 6000      # and the padded entries that a second sparse group is worth


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
    refine_report: SolveReport       # the stage-2 solves summed, as ``refine`` returns it
    initial_penalized_objective: float
    constraint_violation_max: float
    cone_violation_max: float        # cone residuals of the raw stage-1 solution
    theta_fn: float
    constant_certificate: float
    risk_reg_chain: tuple            # (initial, refined, final) risk + reg_n
    lip_chain: tuple                 # (initial, refined, final) slope stats
    refine_accepted: bool
    # Wall seconds of "afpc", "stage1", "stage2" and "finalize"; not compared.
    timings: dict = field(default_factory=dict, compare=False)


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

    def stack(self, params):
        """(z, B, W): the m components' biases B (m, K) and slopes W (m, K, s).

        B and W are views into params, so a gradient vector's views can be
        written to: each component's slopes are contiguous, and splitting a
        contiguous axis needs no copy.
        """
        m, K = self.n_components, self.n_pieces
        V = params[int(self.with_z):].reshape(m, -1)
        return (float(params[0]) if self.with_z else 0.0), V[:, :K], \
            V[:, K:].reshape(m, K, self.slope_dim)

    def pack(self, z, B, W):
        """The flat vector of (z, B, W), B (m, K) and W (m, K, s): the inverse of ``stack``."""
        m, K = self.n_components, self.n_pieces
        V = np.hstack([np.reshape(B, (m, K)), np.reshape(W, (m, -1))]).ravel()
        return np.concatenate([[z], V]) if self.with_z else V


def _smooth_norms(sq_norms):
    """sqrt(||w||^2 + kappa^2) from squared norms: differentiable at zero slopes."""
    return np.sqrt(sq_norms + _SMOOTH_KAPPA ** 2)


def _schur_groups(width, rows, nbx):
    """Groups (blocks, dense) of the stage-1 slope blocks, for their Schur products.

    Block l adds Z_l' Z_l to the (nbx, nbx) Schur system, Z_l having ``rows``
    rows and ``width[l]`` touched columns.  A dense group scatters its Z_l
    into nbx columns and adds them in one product, at a cost in nbx^2; a
    sparse group pads its blocks to the widest of them and adds their Gram
    entries by ``np.bincount``, at a cost in width^2.  A block goes dense
    where ``_DENSE_RATIO`` width^2 exceeds rows nbx^2.  The sparse blocks form
    one group, or two split at the width that pads the fewest entries, if
    that saves more than ``_GROUP_COST`` of them.
    """
    top = int(width.max())
    if width.size * top * top <= _GROUP_COST:
        return [(slice(None), False)]
    dense = _DENSE_RATIO * width * width > rows * nbx * nbx
    groups = [(np.flatnonzero(dense), True)] if dense.any() else []
    if dense.all():
        return groups
    count = np.cumsum(np.bincount(width[~dense]))   # count[t]: sparse blocks at most t wide
    t = np.arange(count.size)
    padded = count * t * t + (count[-1] - count) * t[-1] ** 2   # entries, split after width t
    split = int(np.argmin(padded))
    if padded[split] + _GROUP_COST < padded[-1]:
        return groups + [(np.flatnonzero(~dense & (width <= split)), False),
                         (np.flatnonzero(~dense & (width > split)), False)]
    return groups + [(np.flatnonzero(~dense), False)]


# ---------------------------------------------------------------------------
# the piece kernel shared by both stages

class _PieceKernel:
    """Piece-major values b_k + w_k . phi(x_i, c_k) over fixed rows, and their adjoint.

    The m components of a parameter vector are stacked: values are an
    (m, K, n) array, so every max and soft-max sum runs along axis 1.  The
    norm plane N[k, i] = ||x_i - c_k|| is computed once; the affine part
    u_k . (x_i - c_k) is one GEMM per component, U X^T minus U . c per piece.
    Stage 2 builds it on the training rows, stage 1 on the centers.
    """

    def __init__(self, kind, rows, centers, slope_dim):
        self.kind, self.d = kind, centers.shape[1]
        self.rows, self.centers = rows, centers
        self.slope_dim = slope_dim
        # One fixed layout for the GEMMs, whatever the caller's layout.
        self.rows_t = np.ascontiguousarray(rows.T)
        self.norms = (features.norm_plane(kind, rows, centers)
                      if kind != features.PLUS and slope_dim > self.d else None)

    def _relu_pair(self, j):
        diff = self.rows[:, j] - self.centers[:, j, None]
        return np.maximum(diff, 0.0), np.maximum(-diff, 0.0)

    def feature_tensor(self):
        """(K, n, s) features phi(x_i, c_k), piece-major: the values' linear map in W."""
        diff = self.rows[None, :, :] - self.centers[:, None, :]
        if self.kind == features.PLUS:
            return np.concatenate([np.maximum(diff, 0.0), np.maximum(-diff, 0.0)], axis=2)
        return diff if self.norms is None else np.concatenate([diff, self.norms[..., None]], 2)

    def values(self, B, W, out=None, tmp=None):
        """(m, K, n) values of biases B (m, K) and slopes W (m, K, s).

        They are written into ``out`` when given; ``tmp`` is scratch of the
        same shape.
        """
        d, C = self.d, self.centers
        if self.kind == features.PLUS:
            A = np.empty((*B.shape, self.rows_t.shape[1])) if out is None else out
            A[...] = B[:, :, None]
            for j in range(d):
                pos, neg = self._relu_pair(j)
                A += np.multiply(W[:, :, j, None], pos, out=tmp)
                A += np.multiply(W[:, :, d + j, None], neg, out=tmp)
            return A
        U = W[:, :, :d]
        # At d = 1 the product is an outer one: the broadcast multiply gives the
        # same bits as matmul, several times faster.
        A = (np.multiply if d == 1 else np.matmul)(U, self.rows_t, out=out)
        A += (B - np.einsum("mkj,kj->mk", U, C))[:, :, None]
        if self.norms is not None:
            A += np.einsum("mk,kn->mkn", W[:, :, d], self.norms, out=tmp)
        return A

    def grads(self, coef):
        """Gradients in (B, W) of sum_{m,k,i} coef[m, k, i] * A[m, k, i]."""
        d, C = self.d, self.centers
        gb = np.add.reduce(coef, 2)
        gW = np.empty((*gb.shape, self.slope_dim))
        if self.kind == features.PLUS:
            for j in range(d):
                pos, neg = self._relu_pair(j)
                gW[:, :, j] = np.einsum("mkn,kn->mk", coef, pos)
                gW[:, :, d + j] = np.einsum("mkn,kn->mk", coef, neg)
            return gb, gW
        gU = np.matmul(coef, self.rows_t.T, out=gW[:, :, :d])
        gU -= gb[:, :, None] * C
        if self.norms is not None:
            np.einsum("mkn,kn->mk", coef, self.norms, out=gW[:, :, d])
        return gb, gW


# ---------------------------------------------------------------------------
# the initial (partitioned, constrained) problem

class _InitialProblem:
    """The stage-1 problem of one variant on one partition: objective and residuals.

    The least-squares term is kept as per-cell statistics, built once: the
    Gram matrix of each cell's design rows D_k = [1, phi(x_i, c_k)], a
    least-squares point beta_k, and the residual mean square rss0 at beta.
    Then mean(r^2) = sum_k (theta_k - beta_k)' G_k (theta_k - beta_k) + rss0
    with G_k = D_k' D_k / n, so an evaluation never reads the n rows.

    The residuals, for every component, are b_k >= b_l + w_l . phi(c_k, c_l)
    for all (k, l), and ||w_k|| <= z + theta0, then the variant's cone
    residuals.  The continuity terms are the piece kernel on the centers.
    """

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
        self._cell_statistics()
        self.kernel = _PieceKernel(kind, part.centers, part.centers, self.slope_dim)

    def _cell_statistics(self):
        """Per cell: D'D and a least-squares point beta; rss0 row by row."""
        X, y, part = self.X, self.y, self.part
        n, K, p = X.shape[0], part.n_centers, self.slope_dim + 1
        # Rows sorted by cell, each cell's rows in increasing index order.
        # Every cell is nonempty (each center is its own nearest data row).
        order = np.argsort(part.assignment, kind="stable")
        labels = part.assignment[order]
        bounds = np.searchsorted(labels, np.arange(K + 1))
        phi_own = features.phi_rows(self.kind, X[order], part.centers[labels])
        design = np.hstack([np.ones((n, 1)), phi_own[:, :self.slope_dim]])
        y_sorted = y[order]
        self.gram = np.empty((K, p, p))
        self.beta = np.empty((K, p))
        for k in range(K):
            A = design[bounds[k]:bounds[k + 1]]
            self.gram[k] = A.T @ A
            moment = A.T @ y_sorted[bounds[k]:bounds[k + 1]]
            # lstsq keeps D'D beta - D'y, which the centred form neglects, least;
            # a cell with fewer rows than columns has a singular Gram.
            self.beta[k] = np.linalg.lstsq(self.gram[k], moment, rcond=None)[0]
        r = np.einsum("nj,nj->n", design, self.beta[labels]) - y_sorted
        self.rss0 = float(np.mean(r * r))

    def pair_residuals(self, B, W):
        """R[m, l, k] = b_l + w_l . phi(c_k, c_l) - b_k, piece l at center k; zero diagonals."""
        R = self.kernel.values(B, W)
        R -= B[:, None, :]
        R.reshape(len(R), -1)[:, ::R.shape[1] + 1] = 0.0
        return R

    def residuals(self, params) -> np.ndarray:
        z, B, W = self.layout.stack(params)
        R = self.pair_residuals(B, W)
        caps = np.linalg.norm(W, axis=2) - z - self.reg.theta0
        cones = self.spec.cone.residuals(W, self.d)
        return np.concatenate([part for i in range(len(R))
                               for part in (R[i].T.ravel(), caps[i], cones[i].ravel())])

    def max_violation(self, params) -> float:
        res = self.residuals(params)
        return float(max(0.0, res.max())) if res.size else 0.0

    def objective(self, rho) -> ObjectiveHandle:
        """The penalized stage-1 objective, every component in one stacked pass.

        theta1 z^2 + mean(r^2) + theta2 sum ||W||^2, plus rho times the sum
        of squared positive residuals: continuity, slope cap and cone.
        """
        layout, reg, cone, kernel = self.layout, self.reg, self.spec.cone, self.kernel
        m = layout.n_components
        signs = self.spec.signs
        G = self.gram / self.X.shape[0]
        rss0 = self.rss0
        # params[cell_rows[i, k]] is component i's (b_k, w_k) as a column, like beta[k].
        _, b_rows, w_rows = layout.stack(np.arange(layout.dim))
        cell_rows = np.concatenate([b_rows[..., None], w_rows], axis=2)[..., None]
        beta = self.beta[:, :, None]
        sign_col = np.array(signs)[:, None, None, None]
        add = np.add.reduce    # x.sum(axis) without the method's Python wrapper

        def evaluate(params):
            z, B, W = layout.stack(params)
            # theta1 z^2 + the per-cell least squares of the signed sum + the ridge
            delta = signed_sum(signs, params.take(cell_rows))
            delta -= beta
            Gd = G @ delta
            value = reg.theta1 * z * z + (float(add(delta * Gd, None)) + rss0)
            WW = W * W
            for ridge in add(WW.reshape(m, -1), 1).tolist():
                value += reg.theta2 * ridge
            # the penalty: continuity, slope cap and cone, added after the terms above
            P = self.pair_residuals(B, W)
            np.maximum(P, 0.0, out=P)
            pairs = add((P * P).reshape(m, -1), 1).tolist()
            sn = _smooth_norms(add(WW, 2))
            gpos = sn - _SMOOTH_KAPPA
            gpos -= z
            gpos -= reg.theta0
            np.maximum(gpos, 0.0, out=gpos)
            caps = add(gpos * gpos, 1).tolist()
            cones, add_cone_grad = cone.penalty(W, self.d, rho)
            penalty = 0.0
            for i in range(m):
                penalty += rho * pairs[i]
                penalty += rho * caps[i]
                penalty += cones[i]

            def gradient():
                grad = np.empty(layout.dim)
                grad[cell_rows] = sign_col * np.multiply(Gd, 2.0, out=Gd)
                _, gB, gW = layout.stack(grad)
                gW += 2.0 * reg.theta2 * W
                dP = np.multiply(P, 2.0 * rho, out=P)
                pb, pW = kernel.grads(dP)
                pb -= add(dP, 1)
                gB += pb
                h = 2.0 * rho * gpos
                h_sums = add(h, 1).tolist()
                h /= sn
                pW += h[:, :, None] * W
                add_cone_grad(pW)
                gW += pW
                gz = 0.0
                for h_sum in h_sums:
                    gz -= h_sum
                grad[0] = 2.0 * reg.theta1 * z + gz
                return grad

            return value + penalty, gradient

        return ObjectiveHandle(layout.dim, evaluate)

    @functools.cached_property
    def _hessian_base(self):
        """(Phi, A0, F0, D0, own): the Hessian blocks that do not depend on the
        parameters or rho, the least squares, ridge and z's weight.  Phi[l K + k]
        is phi(c_k, c_l), the piece kernel's feature tensor; A0 is the [z; B]
        block, with a zero row and column for the gradient's slot and the
        padding's; D0 holds the pieces' slope blocks, F0 each block's columns
        for z, its own biases and the gradient, and own those columns' indices."""
        layout, reg = self.layout, self.reg
        m, K, s = layout.n_components, layout.n_pieces, layout.slope_dim
        nb, ms = 1 + m * K, m * s
        G = self.gram / self.X.shape[0]
        sign2 = np.multiply.outer(self.spec.signs, self.spec.signs)
        b_at = 1 + np.arange(m * K).reshape(m, K)
        A0 = np.zeros((nb + 2, nb + 2))
        A0[0, 0] = 2.0 * reg.theta1
        F0 = np.zeros((K, 2 + m, m, s))
        D0 = np.zeros((K, m, s, m, s))
        for i, j in np.ndindex(m, m):
            A0[b_at[i], b_at[j]] += 2.0 * sign2[i, j] * G[:, 0, 0]
            F0[:, 1 + j, i] = 2.0 * sign2[i, j] * G[:, 1:, 0]
            D0[:, i, :, j, :] = 2.0 * sign2[i, j] * G[:, 1:, 1:]
        D0.reshape(K, ms, ms)[:, range(ms), range(ms)] += 2.0 * reg.theta2
        own = np.column_stack([np.zeros(K, int), b_at.T, np.full(K, nb)])
        return (self.kernel.feature_tensor().reshape(K * K, s), A0, F0, D0.reshape(K, ms, ms),
                own)

    def newton_direction(self, rho):
        """direction(params, grad, shift): the step d with (H + shift I) d = -grad.

        H is the generalized Hessian of ``objective(rho)`` at params: the cell
        Grams, the ridge and z's weight, plus 2 rho a a' for the gradient a of
        each active residual (positive, so in the penalty), and for each
        active cap rho times the Hessian of its square.  The pair residual
        b_l + w_l . Phi[l, k] - b_k is active for a few (l, k), and the step is
        built from the list of those; no array spans the K^2 pairs.  The
        slopes are coupled only within a piece, so the blocks D_l of the K
        pieces' slopes (of all m components) are eliminated, and the Schur
        complement S = A - sum_l C_l' D_l^-1 C_l is solved on [z; B], of size
        1 + mK.  Row block C_l touches few columns: z's, piece l's own biases
        and its active partners' biases.  Each D_l is factored once by a
        batched Cholesky, D_l = L_l L_l'; Z_l = L_l^-1 C_l, over those columns
        and the gradient's, comes from one forward substitution over the
        columns of all blocks, and S gathers each Z_l' Z_l (``_schur_groups``).
        The triangular solves are backward stable: with an explicit inverse of
        the blocks instead, a rho = 1e6 solve of a benchmark fit took 124 steps
        instead of 1.
        """
        layout, reg, cone, d = self.layout, self.reg, self.spec.cone, self.d
        m, K, s = layout.n_components, layout.n_pieces, layout.slope_dim
        nb, ms, nf = 1 + m * K, m * s, 2 + m
        nbx = nb + 2    # [z; B], then the gradient's slot and the padding's
        Phi, A0, F0, D0, own = self._hessian_base
        cone_at = [np.atleast_1d(np.arange(s)[c]) for c in cone.columns(d)]
        two_rho, diag, comps = 2.0 * rho, np.arange(ms), range(m)
        fixed_at, fixed_block = np.arange(K * nf).reshape(K, nf), np.repeat(np.arange(K), nf)

        def direction(params, grad, shift):
            z, B, W = layout.stack(params)
            gz, gB, gW = layout.stack(grad)
            A, D, F = A0.copy(), D0.copy(), F0.copy()
            D5 = D.reshape(K, m, s, m, s)
            F[:, -1] = gW.transpose(1, 0, 2)
            # slope caps sqrt(|w|^2 + kappa^2) - kappa - z - theta0, active where positive
            sn = _smooth_norms(np.add.reduce(W * W, 2))
            ci, cl = np.nonzero(sn - _SMOOTH_KAPPA - z - reg.theta0 > 0.0)
            if ci.size:
                snc = sn[ci, cl]
                u = W[ci, cl] / snc[:, None]
                curv = two_rho * ((snc - _SMOOTH_KAPPA - z - reg.theta0) / snc)
                D5[cl, ci, :, ci, :] += ((two_rho - curv)[:, None, None] * u[:, :, None]
                                         * u[:, None, :] + curv[:, None, None] * np.eye(s))
                F[cl, 0, ci] = -two_rho * u
                A[0, 0] += two_rho * ci.size
            # cones: each residual sums the columns cone_at, active where positive
            cones = two_rho * (cone.residuals(W, d) > 0.0).reshape(m, K, -1)
            for i in comps:
                for c1, c2 in itertools.product(cone_at, repeat=2):
                    D5[:, i, c1, i, c2] += cones[i]
            # continuity: a = e(b_l) - e(b_k) + Phi[l, k] on w_l for the active (l, k),
            # listed by piece l, then component i, then partner k
            li, pk = divmod(np.flatnonzero(self.pair_residuals(B, W).transpose(1, 0, 2) > 0.0), K)
            pl, pi = divmod(li, m)
            n_act = pk.size
            bl, bk = 1 + pi * K + pl, 1 + pi * K + pk
            A[bl, bk] -= two_rho
            A[bk, bl] -= two_rho
            A.flat[:nb * nbx:nbx + 1] += two_rho * (np.bincount(bl, minlength=nb)
                                                    + np.bincount(bk, minlength=nb)) + shift
            # U's rows: each pair's slope gradient e_i (x) Phi[l, k], and a one
            U = np.zeros((n_act + 1, ms + 1))
            U[:, ms] = 1.0
            U[:n_act, :ms].reshape(n_act, m, s)[np.arange(n_act), pi] = Phi.take(pl * K + pk, 0)
            n_l = np.bincount(pl, minlength=K)
            r = np.arange(n_l.max(initial=0))
            pairs_at = np.where(r < n_l[:, None], (np.cumsum(n_l) - n_l)[:, None] + r, n_act)
            Pg = U.take(pairs_at, 0)                      # each block's pairs, zero-padded
            PP = two_rho * np.matmul(Pg.transpose(0, 2, 1), Pg)
            D += PP[:, :ms, :ms]
            own_sums = PP[:, :ms, ms].reshape(K, m, s)   # 2 rho sum Phi on w_l against b_l
            for i in comps:
                F[:, 1 + i, i] += own_sums[:, i]
            D[:, diag, diag] += shift
            L = np.linalg.cholesky(D)
            Ld = L[:, diag, diag]
            # LuT[j, r, l] = L[l, r, j] / L[l, r, r]: the unit triangles, column by column
            LuT = (L / Ld[:, :, None]).transpose(2, 1, 0).copy()
            # The columns of the C_l: every block's z, own-bias and gradient columns,
            # then one per pair, then a zero one for the padding; their indices into
            # S and their blocks.
            N = nf * K + n_act
            Zt = np.empty((ms, N + 1))
            Zt[:, :nf * K] = F.reshape(K * nf, ms).T
            np.multiply(U[:n_act, :ms].T, -two_rho, out=Zt[:, nf * K:N])
            Zt[:, N] = 0.0
            cols = np.concatenate([own.ravel(), bk, [nb + 1]])
            block_of = np.concatenate([fixed_block, pl])
            # Z = L^-1 C, column j of every block's triangle at a time
            Zt[:, :N] /= Ld.T.take(block_of, 1)
            for j in range(ms - 1):
                Zt[j + 1:, :N] -= LuT[j, j + 1:].take(block_of, 1) * Zt[j, :N]
            Zr = Zt.T.copy()
            touched = np.concatenate([fixed_at, pairs_at + nf * K], axis=1)
            S, parts = A, []
            for blocks, dense in _schur_groups(nf + n_l, ms, nbx):
                at = touched[blocks, :nf + n_l[blocks].max()]
                Zg, c = Zr.take(at, 0), cols.take(at)
                parts.append((blocks, Zg, c))
                if dense:
                    Zd = np.zeros((len(at), ms, nbx))
                    Zd[np.arange(len(at))[:, None], :, c] = Zg
                    Zd = Zd.reshape(-1, nbx)
                    S -= Zd.T @ Zd
                else:
                    S -= np.bincount((c[:, :, None] * nbx + c[:, None, :]).ravel(),
                                     np.matmul(Zg, Zg.transpose(0, 2, 1)).ravel(),
                                     minlength=nbx * nbx).reshape(nbx, nbx)
            # S[:nb, nb] is -sum_l C_l' D_l^-1 g_l, for g's column has index nb
            step_b = np.linalg.solve(S[:nb, :nb], -S[:nb, nb] - np.concatenate([[gz], gB.ravel()]))
            # step_w = -D^-1 (g + C step_b) = -L'^-1 (L^-1 g + Z step_b), block by block
            coef = np.append(step_b, [1.0, 0.0])
            V = np.empty((K, ms))
            for blocks, Zg, c in parts:
                V[blocks] = np.matmul(coef.take(c)[:, None, :], Zg)[:, 0]
            V = V.T.copy()
            for j in range(ms - 1, 0, -1):
                V[:j] -= LuT[:j, j] * V[j]
            step_w = (V / -Ld.T).T.reshape(K, m, s)
            return layout.pack(step_b[0], step_b[1:], step_w.transpose(1, 0, 2))

        return direction

    def certificate_point(self) -> np.ndarray:
        """The feasible constant fit at the mean response, in the first component."""
        x = np.zeros(self.layout.dim)
        self.layout.stack(x)[1][0] = self.spec.signs[0] * float(np.mean(self.y))
        return x

    def extract(self, params):
        """(z, components) of a solution: cone-projected, norm column re-embedded."""
        z, B, W = self.layout.stack(params)
        return z, [self.spec.component_from(self.kind, self.part.centers, b, w)
                   for b, w in zip(B, W)]


def fit_initial(dataset: Dataset, partition: Partition, kind: str, reg: RegParams,
                solver_cfg: SolverConfig = None, variant: str = SINGLE):
    """Solve the stage-1 penalty problem; returns (model, info dict).

    ``newton_minimize`` solves the penalized objective at each weight of
    ``RHOS`` in turn, the first from the constant fit at the mean response,
    each next from the last one's point; ``solver_cfg.max_iters`` caps their
    steps in all.  The report sums the solves' iterations, evaluations,
    line-search failures and wall time, and takes the last one's stop reason,
    value (the ``RHO_PEN`` penalized objective) and gradient norm.  The start
    is feasible, so its value, reported as the certificate, has no penalty
    and bounds the converged value from above.
    """
    solver_cfg = solver_cfg or SolverConfig()
    problem = _InitialProblem(dataset.X, dataset.y, partition, kind, reg, variant)
    start = problem.certificate_point()
    x_star, solves = start, []
    for rho in RHOS:
        penalized = problem.objective(rho)
        budget = solver_cfg.max_iters - sum(r.iterations for r in solves)
        x_star, last = newton_minimize(penalized, problem.newton_direction(rho), x_star, budget)
        solves.append(last)
        log.info("stage1 variant=%s rho=%g iters=%d evals=%d stop=%s wall=%.3fs", variant, rho,
                 last.iterations, last.evaluations, last.stop_reason, last.wall_s)
    report = _summed(solves)
    if not np.isfinite(x_star).all():
        raise SolverAbort("stage-1 solve produced non-finite parameters")
    cert_value = float(penalized.evaluate(start)[0])
    spec, s = problem.spec, problem.slope_dim
    res = spec.cone.residuals(problem.layout.stack(x_star)[2], problem.d)
    cone_violation = float(max(0.0, res.max())) if res.size else 0.0
    z, comps = problem.extract(x_star)
    violation = problem.max_violation(problem.layout.pack(
        z, [c.biases for c in comps], [c.weights[:, :s] for c in comps]))
    log.info("fit_initial variant=%s K=%d iters=%d evals=%d stop=%s penalized=%.6g "
             "violation=%.3g wall=%.3fs", variant, partition.n_centers, report.iterations,
             report.evaluations, report.stop_reason, report.final_value, violation,
             report.wall_s)
    model = DcModel.of(variant, comps)
    info = {
        "report": report,
        "penalized_objective": float(report.final_value),
        "certificate": cert_value,
        "violation": float(violation),
        "cone_violation": cone_violation,
    }
    return model, info


def _summed(solves):
    """The last solve's report with the iterations, evaluations, line-search
    failures and wall time of all of them."""
    return replace(solves[-1], **{name: sum(getattr(r, name) for r in solves) for name in (
        "iterations", "evaluations", "line_search_failures", "wall_s")})


# ---------------------------------------------------------------------------
# the refinement problem (soft maxima)

def _reg_terms(W_rows, theta, c0, theta2, mu):
    """Value of the slope regularizer, and a thunk for its per-row gradient.

    The hinge is on the soft maximum of the slope norms at ``mu``, taken as
    one column of ``softmax_columns``, and its gradient is that soft
    maximum's.  The norms are sqrt(sum W^2), which is what np.linalg.norm
    computes along an axis.  The soft maximum is at most top + mu log K for
    the largest norm top; where that, with a margin for the rounding of the
    exponentials' sum, stays below c0, the hinge is zero and is not computed.
    """
    sq_norms = np.add.reduce(W_rows * W_rows, 1)
    norms = np.sqrt(sq_norms)
    top = np.max(norms, keepdims=True)
    hinge = 0.0
    if float(top[0]) + mu * (np.log(norms.size) + 1e-9) >= c0 * (1.0 - 1e-12):
        lam, E, sums = softmax_columns(norms[:, None], mu, top)
        hinge = max(float(lam[0]) - c0, 0.0)
    value = theta * hinge * hinge + theta2 * float(np.sum(norms * norms))

    def gradient():
        grad = 2.0 * theta2 * W_rows
        if theta > 0.0 and hinge > 0.0:
            weights = E[:, 0] / sums
            grad += ((2.0 * theta * hinge) * (weights / _smooth_norms(sq_norms))[:, None]
                     * W_rows)
        return grad

    return value, gradient


class _RefineProblem:
    """Unconstrained risk + regularizer over the max-form parameters.

    The one statement of stage 2's criterion: ``criterion`` is the training
    risk plus ``reg_n``, the hinge theta max(lip - c0, 0)^2 on the largest
    slope norm plus the theta2 ridge, both with the true maxima.  The hinge
    starts at c0 = theta3 lam0 for the initial model's largest slope norm
    lam0, and its strength theta is the initial criterion over lam0^2 (zero
    when the initial slopes vanish).  ``objective`` smooths the same
    criterion.  The max forms are evaluated by the piece kernel on the
    training rows, built with the objective, so a refinement that does not
    run builds none.  A max-min-affine model is refined as its max-form
    component.  ``pieces`` is the working set: the indices of the initial
    model's pieces that the parameters hold.  ``restricted`` only shrinks it.
    """

    def __init__(self, initial_model: DcModel, dataset: Dataset, reg: RegParams):
        self.X, self.y = dataset.X, dataset.y
        self.reg = reg
        self.lam0 = lip_stat(initial_model)
        self.c0 = reg.theta3 * self.lam0
        self.theta = 0.0
        if self.lam0 != 0.0:
            self.theta = self.criterion(initial_model) / (self.lam0 * self.lam0)
        self.spec = initial_model.spec
        # Max-min-affine's cone only makes its rewrite exact: ``extract`` projects onto it.
        self.cone = NO_CONE if self.spec.mma else self.spec.cone
        comps = initial_model.components()
        comp = comps[0]
        self.kind, self.d = comp.kind, comp.d
        self.centers = comp.used_centers()
        self.slope_dim = self.spec.slope_dim(self.kind, self.d)
        self.pieces = np.arange(comp.n_pieces)
        self.layout = ParamLayout(comp.n_pieces, self.slope_dim, len(comps), with_z=False)
        self.x0 = self.layout.pack(0.0, [c.biases for c in comps],
                                   [c.weights[:, :self.slope_dim] for c in comps])

    def risk(self, model: DcModel) -> float:
        return float(np.mean((eval_model_std(model, self.X) - self.y) ** 2))

    def reg_n(self, model: DcModel) -> float:
        hinge = max(lip_stat(model) - self.c0, 0.0)
        sumsq = float(np.sum(np.square(slope_rows(model))))
        return self.theta * hinge * hinge + self.reg.theta2 * sumsq

    def criterion(self, model: DcModel) -> float:
        return self.risk(model) + self.reg_n(model)

    def restricted(self, params, mu):
        """(problem, params) on the working-set pieces that weigh more than the clip at mu.

        Each working-set piece is tested at ``params``, in every row and
        component.  A dropped piece leaves the layout, the piece kernel, the
        regularizer and the cone term, and is not tested again: the restricted
        objective is the smoothed criterion of the kept pieces alone.
        """
        _, B, W = self.layout.stack(params)
        A = _PieceKernel(self.kind, self.X, self.centers[self.pieces], self.slope_dim).values(B, W)
        keep = np.flatnonzero(unclipped_rows(A, mu, A.max(axis=1)).any(axis=0))
        problem = copy.copy(self)
        problem.pieces = self.pieces[keep]
        problem.layout = replace(self.layout, n_pieces=keep.size)
        return problem, problem.layout.pack(0.0, B[:, keep], W[:, keep])

    def cone_weight(self, mu):
        """Weight of the squared cone residuals a.w: 1 / (2 mu |a|^2), so the penalty is
        dist(W, cone)^2 / (2 mu), the cone's indicator smoothed like the maxima."""
        return 1.0 / (2.0 * mu * max(1, len(self.cone.columns(self.d))))

    def objective(self, mu) -> ObjectiveHandle:
        """The stage-2 objective at smoothing width ``mu``: every max replaced by
        its soft maximum at ``mu``, and the cone by its envelope at ``mu``, one
        smooth function of the working set's pieces."""
        layout, y = self.layout, self.y
        n = y.shape[0]
        m, K, s = layout.n_components, layout.n_pieces, layout.slope_dim
        theta2 = self.reg.theta2
        signs = self.spec.signs
        sign_col = np.array(signs)[:, None]
        kernel = _PieceKernel(self.kind, self.X, self.centers[self.pieces], s)
        rho = self.cone_weight(mu)
        # Made once: the piece values, overwritten by their soft-max exponentials,
        # and the coefficients, which are the values' scratch too.
        A, coef = np.empty((2, m, K, n))

        def evaluate(params):
            _, B, W = layout.stack(params)
            kernel.values(B, W, A, coef)
            smooth, E, sums = softmax_columns(A, mu, A.max(axis=1), out=A)
            r = signed_sum(signs, smooth) - y
            value = float(np.add.reduce(r * r, None) / n)    # np.mean's bits
            rv, reg_grad = _reg_terms(W.reshape(-1, s), self.theta, self.c0, theta2, mu)
            value += rv
            cones, add_cone_grad = self.cone.penalty(W, self.d, rho)
            for cone_value in cones:
                value += cone_value

            def gradient():
                np.multiply(E, (sign_col * ((2.0 / n) * r) / sums)[:, None, :], out=coef)
                gb, gW = kernel.grads(coef)
                gW += reg_grad().reshape(gW.shape)
                add_cone_grad(gW)
                return np.concatenate([gb, gW.reshape(m, -1)], axis=1).ravel()

            return value, gradient

        return ObjectiveHandle(layout.dim, evaluate)

    def extract(self, params, initial_model: DcModel) -> DcModel:
        _, B, W = self.layout.stack(params)
        return DcModel.of(self.spec.name, [
            self.spec.component_from(t.kind, t.centers, b, W, t.center_idx[self.pieces])
            for t, b, W in zip(initial_model.components(), B, W)])


def refine(initial_model: DcModel, dataset: Dataset, reg: RegParams,
           cfg: SolverConfig = None):
    """Locally refine a fitted model; never returns a worse criterion value.

    With zero initial slopes the initial model is returned unchanged.  Else
    one solve runs per smoothing width of ``MUS``, each from the last one's
    result, until one aborts; a solve whose line search fails stops there,
    and the next width goes on.
    Every width but the last only brings the next one into its basin, so its
    solve stops once the gradient's max-norm is at most
    max(``cfg.grad_tol``, ``GAMMA`` * mu), after X. Chen's smoothing method
    (Math. Program. 134, 2012); the last width's stops at ``cfg.grad_tol``.
    Each solve after the first runs on the working set that
    ``_RefineProblem.restricted`` keeps at its width, and the candidate holds
    the pieces of the last one.  A max-min-affine model is refined as its
    max-form component, free of its cone; the candidate's component is
    projected onto the cone, and its blocks are that component's rewrite.
    The report sums the solves' iterations, evaluations, line-search failures
    and wall time, and takes the last one's stop reason, value and gradient
    norm.
    The candidate is accepted only if ``problem.criterion``, risk + reg_n with
    the true maxima, does not exceed the initial model's (tiny slack); else
    the initial model is returned.
    """
    cfg = cfg or SolverConfig()
    problem = _RefineProblem(initial_model, dataset, reg)
    rr0 = problem.criterion(initial_model)
    if problem.lam0 == 0.0:
        report = SolveReport(0, rr0, 0.0, 0)
        return initial_model, report, False
    x_star, solves = problem.x0, []
    for mu in MUS:
        if solves:
            problem, x_star = problem.restricted(x_star, mu)
        tol = cfg.grad_tol if mu == MUS[-1] else max(cfg.grad_tol, GAMMA * mu)
        x_star, last = lbfgs_minimize(problem.objective(mu), x_star, replace(cfg, grad_tol=tol))
        solves.append(last)
        log.info("stage2 variant=%s mu=%g pieces=%d iters=%d evals=%d stop=%s tol=%g gnorm=%.6g "
                 "wall=%.3fs", initial_model.variant, mu, problem.pieces.size, last.iterations,
                 last.evaluations, last.stop_reason, tol, last.final_grad_norm, last.wall_s)
        if last.aborted:
            break
    report = _summed(solves)
    candidate = problem.extract(x_star, initial_model)
    rr_cand = problem.criterion(candidate)
    accepted = bool(np.isfinite(rr_cand) and rr_cand <= rr0 + _REFINE_SLACK)
    log.info("refine variant=%s iters=%d evals=%d stop=%s accepted=%s rr0=%.6g rr=%.6g "
             "wall=%.3fs", initial_model.variant, report.iterations, report.evaluations,
             report.stop_reason, accepted, rr0, rr_cand, report.wall_s)
    return (candidate if accepted else initial_model), report, accepted


def finalize(refined: DcModel, dataset: Dataset) -> DcModel:
    """Prune inactive pieces and center the mean prediction on mean(y)."""
    Xc = refined.transform_x(dataset.X)
    model = refined.with_components([prune(c, Xc) for c in refined.components()])
    model = center(model, dataset)
    if len(model.components()) > 1:
        model = symmetric_bias_center(model)
    return model


# ---------------------------------------------------------------------------
# the full pipeline

def _timed(timings, layer, fn, *args):
    """fn(*args), its wall seconds recorded as timings[layer]."""
    start = perf_counter()
    out = fn(*args)
    timings[layer] = perf_counter() - start
    return out


def fit_dcf(dataset: Dataset, config: FitConfig = None) -> FitResult:
    """Run the full pipeline for the configured variant.

    The data are standardized first (``apply_scaling`` in its ``std`` mode);
    the returned models carry that map so they act on raw coordinates.
    """
    config = config or FitConfig()
    if dataset.n < 2:
        raise DataError("need at least two samples")
    ds_std, spec = apply_scaling(dataset, STD)
    timings = {}
    part = _timed(timings, "afpc", afpc, ds_std.X, config.seed, ds_std.y)
    log.info("afpc K=%d eps=%.4g r_x=%.4g", part.n_centers, part.eps_n, part.r_x)
    reg = default_reg_params(part.r_x, part.r_y, dataset.n, dataset.d,
                             part.n_centers, config.theta2_mode)

    initial_std, info = _timed(timings, "stage1", fit_initial, ds_std, part, config.kind,
                               reg, config.solver, config.variant)
    refined_std, refine_report, accepted = _timed(timings, "stage2", refine, initial_std,
                                                  ds_std, reg, config.solver)
    final_std = _timed(timings, "finalize", finalize, refined_std, ds_std)
    problem = _RefineProblem(initial_std, ds_std, reg)
    log.info("fit_dcf variant=%s K=%d %s", config.variant, part.n_centers,
             " ".join(f"{layer}={seconds:.3f}s" for layer, seconds in timings.items()))

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
        theta_fn=problem.theta,
        constant_certificate=info["certificate"],
        risk_reg_chain=tuple(problem.criterion(m) for m in (initial_std, refined_std, final_std)),
        lip_chain=(lip_stat(initial_std), lip_stat(refined_std), lip_stat(final_std)),
        refine_accepted=accepted,
        timings=timings,
    )
