import numpy as np
import pytest

from dcreg import features
from dcreg.approx import (CoverSpec, LIPSCHITZ, SMOOTH, convex_taylor,
                          eval_min_convex, fvu, grid_cover, mcshane_lower,
                          min_convex_upper, quad_lower, quad_taylor_max_affine,
                          quad_upper, smooth_lower, smooth_upper,
                          weakly_and_delta_max_affine)
from dcreg.model import eval_max, eval_mma, to_max_min_affine
from dcreg.targets import (TargetFunction, empirical_lipschitz,
                           normsq_target, pw_linear_target,
                           random_delta_max_affine_target, xsinx_target)

GRID = np.linspace(0.0, 6.0, 1000)[:, None]
COVER = grid_cover(0.0, 6.0, 10)


def _sampled(target):
    vals = target(GRID)
    lam = empirical_lipschitz(vals, GRID) * 1.01
    return vals, lam


def test_grid_cover_radius():
    assert COVER.eps == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert COVER.centers.shape == (10, 1)


@pytest.mark.parametrize("make_target", [xsinx_target, pw_linear_target])
@pytest.mark.parametrize("kind", features.FEATURE_KINDS)
def test_mcshane_band_and_center_equality(make_target, kind):
    target = make_target()
    vals, lam = _sampled(target)
    target = TargetFunction(target.fn, lam, target.grad, target.smoothness)
    comp = mcshane_lower(target, COVER, kind)
    fhat = eval_max(comp, GRID)
    cons = features.constants(kind, 1)
    band = (1.0 + cons.t1 / cons.t0) * lam * COVER.eps
    gap = vals - fhat
    assert np.all(gap >= -1e-12)
    assert np.all(gap <= band + 1e-12)
    at_centers = eval_max(comp, COVER.centers)
    assert np.allclose(at_centers, target(COVER.centers), atol=1e-12)


def test_mcshane_constant_target():
    const = TargetFunction(lambda X: np.full(X.shape[0], 2.0), lipschitz=1.0)
    comp = mcshane_lower(const, COVER, features.L2)
    fhat = eval_max(comp, GRID)
    assert np.all(fhat <= 2.0 + 1e-15)
    assert np.allclose(eval_max(comp, COVER.centers), 2.0, atol=1e-15)


def test_mcshane_cover_equals_grid():
    # centers = evaluation grid: an eps=0 cover of itself, so fhat = f there
    target = pw_linear_target()
    sub = GRID[::50]
    comp = mcshane_lower(target, CoverSpec(sub, 0.0), features.L2)
    assert np.allclose(eval_max(comp, sub), target(sub), atol=1e-12)


def test_mcshane_lipschitz_stat():
    # the construction is (t1/t0) * lambda Lipschitz
    rng = np.random.default_rng(0)
    target = pw_linear_target()
    for kind in features.FEATURE_KINDS:
        comp = mcshane_lower(target, COVER, kind)
        cons = features.constants(kind, 1)
        bound = (cons.t1 / cons.t0) * target.lipschitz
        x1 = rng.uniform(-1, 7, (500, 1))
        x2 = rng.uniform(-1, 7, (500, 1))
        quot = np.abs(eval_max(comp, x1) - eval_max(comp, x2))
        dist = np.linalg.norm(x1 - x2, axis=1)
        assert np.all(quot <= bound * dist + 1e-9)


def test_min_convex_upper_band_and_symmetry():
    for make in (xsinx_target, pw_linear_target):
        target = make()
        vals, lam = _sampled(target)
        target = TargetFunction(target.fn, lam, target.grad, target.smoothness)
        upper = min_convex_upper(target, COVER, features.L2)
        fcheck = eval_min_convex(upper, GRID)
        gap = fcheck - vals
        assert np.all(gap >= -1e-12)
        assert np.all(gap <= 2.0 * lam * COVER.eps + 1e-12)
        # symmetry: upper approx of f == -(lower approx of -f)
        lower_neg = mcshane_lower(target.negate(), COVER, features.L2)
        assert np.allclose(fcheck, -eval_max(lower_neg, GRID), atol=1e-12)
        # sandwich
        lower = mcshane_lower(target, COVER, features.L2)
        assert np.all(eval_max(lower, GRID) <= fcheck + 1e-12)
        assert np.allclose(eval_min_convex(upper, COVER.centers),
                           target(COVER.centers), atol=1e-12)


def test_smooth_band():
    target = xsinx_target()
    vals = target(GRID)
    approx = smooth_lower(target, COVER)
    gap = vals - approx(GRID)
    band = 2.0 * target.smoothness * COVER.eps ** 2
    assert np.all(gap >= -1e-12)
    assert np.all(gap <= band + 1e-12)
    upper = smooth_upper(target, COVER)
    gap_u = upper(GRID) - vals
    assert np.all(gap_u >= -1e-12)
    assert np.all(gap_u <= band + 1e-12)


def test_smooth_band_affine_target():
    affine = TargetFunction(lambda X: 2.0 * X[:, 0] + 1.0, lipschitz=2.0,
                            grad=lambda X: np.full((X.shape[0], 1), 2.0),
                            smoothness=1.0)
    approx = smooth_lower(affine, COVER)
    gap = affine(GRID) - approx(GRID)
    assert np.allclose(approx(COVER.centers), affine(COVER.centers), atol=1e-12)
    assert np.all(gap <= 2.0 * COVER.eps ** 2 + 1e-12)


def test_smooth_band_quadratic_shrink():
    # halving eps divides the observed error by at least ~4
    target = xsinx_target()
    vals = target(GRID)
    err = []
    for k in (10, 19):  # eps = 1/3 then 1/6
        cover = grid_cover(0.0, 6.0, k)
        err.append(np.max(vals - smooth_lower(target, cover)(GRID)))
    assert err[1] <= err[0] / 4.0 + 1e-6


def test_smooth_lower_requires_gradient():
    with pytest.raises(ValueError):
        smooth_lower(pw_linear_target(), COVER)


def test_quad_band():
    for make in (xsinx_target, pw_linear_target):
        target = make()
        vals, lam = _sampled(target)
        target = TargetFunction(target.fn, lam, target.grad, target.smoothness)
        approx = quad_lower(target, COVER)
        gap = vals - approx(GRID)
        assert np.all(gap >= -lam * COVER.eps / 4.0 - 1e-12)
        assert np.all(gap <= 2.0 * lam * COVER.eps + 1e-12)
        upper = quad_upper(target, COVER)
        gap_u = upper(GRID) - vals
        assert np.all(gap_u >= -lam * COVER.eps / 4.0 - 1e-12)
        assert np.all(gap_u <= 2.0 * lam * COVER.eps + 1e-12)


def _min_form(X, centers, biases, slopes, curvature):
    """min_k b_k + s_k . (x - c_k) + curvature ||x - c_k||^2, as written out directly."""
    diff = X[:, None, :] - centers[None, :, :]
    vals = biases[None, :] + np.einsum("nkd,kd->nk", diff, slopes)
    return np.min(vals + curvature * np.sum(diff * diff, axis=2), axis=1)


def test_upper_approximations_are_the_min_form_bit_for_bit():
    # The negated lower approximation of -f: on x sin x through f(0) = 0 (a
    # center and a grid point), and on ||x||^2 at d = 2, 3 with the origin too.
    rng = np.random.default_rng(12)
    cases = [(xsinx_target(), COVER, GRID)]
    for d in (2, 3):
        centers = np.vstack([np.zeros(d), rng.uniform(-1, 1, (7, d))])
        cases.append((normsq_target(d), CoverSpec(centers, 0.5),
                      np.vstack([np.zeros(d), rng.uniform(-1, 1, (300, d))])))
    for target, cover, X in cases:
        c = cover.centers
        smooth = _min_form(X, c, target(c), target.gradient(c), float(target.smoothness))
        quad = _min_form(X, c, target(c), np.zeros_like(c), target.lipschitz / cover.eps)
        assert smooth_upper(target, cover)(X).tobytes() == smooth.tobytes()
        assert quad_upper(target, cover)(X).tobytes() == quad.tobytes()
        assert quad[0] == smooth[0] == 0.0 and not np.signbit([quad[0], smooth[0]]).any()


def test_quad_band_constant_target():
    const = TargetFunction(lambda X: np.ones(X.shape[0]), lipschitz=1.0)
    approx = quad_lower(const, COVER)
    gap = 1.0 - approx(GRID)
    # overshoot at most lam*eps/4, undershoot at most 2*lam*eps
    assert np.all(gap >= -COVER.eps / 4.0 - 1e-15)
    assert np.allclose(approx(COVER.centers), 1.0, atol=1e-15)


def test_quad_lower_rejects_zero_eps():
    with pytest.raises(ValueError):
        quad_lower(pw_linear_target(), CoverSpec(np.zeros((1, 1)), 0.0))


def test_quad_band_random_piecewise_linear_targets():
    # vectorized sweep over many random 1-d piecewise-linear targets
    rng = np.random.default_rng(1)
    grid = np.linspace(0.0, 1.0, 200)
    cover_idx = np.arange(0, 200, 40) + 20
    centers = grid[cover_idx]
    eps = float(np.max(np.min(np.abs(grid[:, None] - centers[None, :]), axis=1)))
    trials = 10_000
    n_knots = 8
    slopes = rng.uniform(-3.0, 3.0, size=(trials, n_knots))
    # piecewise-linear values by integrating slopes over equal segments
    seg = np.searchsorted(np.linspace(0, 1, n_knots + 1)[1:-1], grid)
    vals = np.empty((trials, grid.size))
    for t in range(trials):  # cumulative integral of a step function
        widths = np.diff(np.concatenate([[0.0], grid]))
        vals[t] = np.cumsum(slopes[t][seg] * widths)
    lams = np.max(np.abs(slopes), axis=1)
    fvals_at_centers = vals[:, cover_idx]
    # f0(x) = max_k f(c_k) - (lam/eps)(x - c_k)^2
    sq = (grid[None, :, None] - centers[None, None, :]) ** 2
    approx_vals = np.max(fvals_at_centers[:, None, :]
                         - (lams[:, None, None] / eps) * sq, axis=2)
    gap = vals - approx_vals
    lo = -lams * eps / 4.0 - 1e-10
    hi = 2.0 * lams * eps + 1e-10
    assert np.all(gap >= lo[:, None])
    assert np.all(gap <= hi[:, None])


def test_weakly_delta_lipschitz_mode():
    target = pw_linear_target()
    vals = target(GRID)
    res = weakly_and_delta_max_affine(target, COVER, LIPSCHITZ)
    c, s = COVER.centers, target.lipschitz / COVER.eps
    assert res.max_affine.biases.tobytes() == (target(c) - s * np.sum(c * c, axis=1)).tobytes()
    assert res.max_affine.slopes.tobytes() == (2.0 * s * c).tobytes()
    # the weak form IS the quadratic-feature construction
    assert np.allclose(res.weak_values(GRID), quad_lower(target, COVER)(GRID),
                       atol=1e-10)
    delta = target.lipschitz
    assert np.max(np.abs(res.weak_values(GRID) - vals)) <= 2 * COVER.eps * delta + 1e-10
    assert np.max(np.abs(res.delta_values(GRID) - vals)) <= 3 * COVER.eps * delta + 1e-10


def test_weakly_delta_smooth_mode():
    target = xsinx_target()
    vals = target(GRID)
    res = weakly_and_delta_max_affine(target, COVER, SMOOTH)
    c, s, g = COVER.centers, target.smoothness, target.gradient(COVER.centers)
    biases = target(c) - np.einsum("kd,kd->k", g, c) - s * np.sum(c * c, axis=1)
    assert res.max_affine.biases.tobytes() == biases.tobytes()
    assert res.max_affine.slopes.tobytes() == (g + 2.0 * s * c).tobytes()
    assert np.allclose(res.weak_values(GRID), smooth_lower(target, COVER)(GRID),
                       atol=1e-10)
    delta = target.smoothness * COVER.eps
    assert np.max(np.abs(res.weak_values(GRID) - vals)) <= 2 * COVER.eps * delta + 1e-10
    assert np.max(np.abs(res.delta_values(GRID) - vals)) <= 3 * COVER.eps * delta + 1e-10


def test_quad_taylor_gap():
    # q(x) - mhat(x) = min_k ||x - c_k||^2 in [0, eps^2]
    mhat = quad_taylor_max_affine(COVER)
    q = np.sum(GRID * GRID, axis=1)
    gap = q - mhat(GRID)
    direct = np.min((GRID[:, :, None] - COVER.centers.T[None, :, :]) ** 2, axis=(1, 2))
    assert np.allclose(gap, direct, atol=1e-10)
    assert np.all(gap >= -1e-12)
    assert np.all(gap <= COVER.eps ** 2 + 1e-12)


def test_convex_taylor_normsq():
    target = normsq_target(2)
    cover_pts = np.array([[x, y] for x in np.linspace(-1, 1, 5)
                          for y in np.linspace(-1, 1, 5)])
    eps = np.sqrt(2) * 0.25  # half-diagonal of the grid cells
    cover = CoverSpec(cover_pts, eps)
    mhat = convex_taylor(target, cover)
    rng = np.random.default_rng(2)
    X = rng.uniform(-1, 1, (2000, 2))
    gap = target(X) - mhat(X)
    assert np.all(gap >= -1e-12)
    assert np.all(gap <= 2.0 * target.lipschitz * eps + 1e-12)
    assert np.allclose(mhat(cover_pts), target(cover_pts), atol=1e-12)


def test_convex_taylor_affine_exact():
    affine = TargetFunction(lambda X: 3.0 - X[:, 0], lipschitz=1.0,
                            grad=lambda X: np.full((X.shape[0], 1), -1.0))
    mhat = convex_taylor(affine, COVER)
    assert np.allclose(mhat(GRID), affine(GRID), atol=1e-12)


def test_convex_taylor_abs_kink():
    # |x| with the zero subgradient selected at the kink
    target = TargetFunction(lambda X: np.abs(X[:, 0]), lipschitz=1.0,
                            grad=lambda X: np.sign(X[:, 0])[:, None])
    cover = grid_cover(-1.0, 1.0, 9)
    grid = np.linspace(-1, 1, 801)[:, None]
    mhat = convex_taylor(target, cover)
    gap = target(grid) - mhat(grid)
    assert np.all(gap >= -1e-12)
    assert np.all(gap <= 2.0 * cover.eps + 1e-12)


def test_mcshane_linf_matches_max_min_affine_construction():
    # converting the max-norm construction reproduces the direct inner-min form
    rng = np.random.default_rng(3)
    target = random_delta_max_affine_target(2, 3.0, seed=4)
    centers = rng.uniform(-1, 1, (6, 2))
    cover = CoverSpec(centers, 0.4)
    comp = mcshane_lower(target, cover, features.LINF)
    mma = to_max_min_affine(comp)
    X = rng.uniform(-1.5, 1.5, (800, 2))
    direct = np.max(
        target(centers)[None, :]
        - np.sqrt(2) * 3.0 * np.max(np.abs(X[:, None, :] - centers[None, :, :]), axis=2),
        axis=1,
    )
    # t1 = 1 for linf? no: t1 = sqrt(d) for linf, so slope is -sqrt(2)*lam
    assert np.allclose(eval_mma(mma, X), direct, atol=1e-10)
    assert np.allclose(eval_max(comp, X), direct, atol=1e-10)


def test_fvu():
    y = np.array([1.0, 2.0, 3.0, 4.0])
    assert fvu(y, y) == 0.0
    assert fvu(np.full(4, y.mean()), y) == pytest.approx(1.0, abs=0)
    halfway = (y + y.mean()) / 2.0
    assert fvu(halfway, y) == pytest.approx(0.25, abs=1e-15)
    with pytest.raises(ValueError):
        fvu(y, np.ones(4))
    with pytest.raises(ValueError):
        fvu(y[:3], y)


def test_empirical_lipschitz_1d():
    grid = np.linspace(0, 1, 101)[:, None]
    vals = 3.0 * grid[:, 0]
    assert empirical_lipschitz(vals, grid) == pytest.approx(3.0, rel=1e-12)


def test_mcshane_band_random_piecewise_linear_targets():
    # the extension-envelope band on a batch of random 1-d Lipschitz targets
    rng = np.random.default_rng(11)
    grid = np.linspace(0.0, 1.0, 200)
    cover_idx = np.arange(0, 200, 40) + 20
    centers = grid[cover_idx]
    eps = float(np.max(np.min(np.abs(grid[:, None] - centers[None, :]), axis=1)))
    trials, n_knots = 2000, 8
    slopes = rng.uniform(-3.0, 3.0, size=(trials, n_knots))
    seg = np.searchsorted(np.linspace(0, 1, n_knots + 1)[1:-1], grid)
    widths = np.diff(np.concatenate([[0.0], grid]))
    vals = np.cumsum(slopes[:, seg] * widths[None, :], axis=1)
    lams = np.max(np.abs(slopes), axis=1)
    # fhat(x) = max_k f(c_k) - lam |x - c_k|  (d=1: all norm kinds coincide)
    dist = np.abs(grid[None, :, None] - centers[None, None, :])
    fhat = np.max(vals[:, cover_idx][:, None, :] - lams[:, None, None] * dist,
                  axis=2)
    gap = vals - fhat
    assert np.all(gap >= -1e-10)
    assert np.all(gap <= (2.0 * lams * eps + 1e-10)[:, None])
