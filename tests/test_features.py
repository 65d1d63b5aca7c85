import numpy as np
import pytest

from _helpers import phi_tensor
from dcreg import features
from dcreg.features import L1, L2, LINF, PLUS, FEATURE_KINDS, constants, feature_dim, phi


def test_feature_dim():
    assert feature_dim(L2, 3) == 4
    assert feature_dim(PLUS, 3) == 6
    assert feature_dim(L1, 1) == 2
    assert feature_dim(LINF, 7) == 8


def test_feature_dim_rejects_bad_dimension():
    with pytest.raises(ValueError):
        feature_dim(L2, 0)
    with pytest.raises(ValueError):
        features.constants(L1, -1)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        feature_dim("l3", 2)


def test_phi_values():
    assert np.allclose(phi(L2, np.array([1.0, 0.0]), np.zeros(2)), [1, 0, 1])
    assert np.allclose(phi(PLUS, np.array([1.0, -2.0]), np.zeros(2)), [1, 0, 0, 2])
    assert np.allclose(phi(L1, np.array([3.0, 4.0]), np.zeros(2)), [3, 4, 7])
    x = np.array([0.3, -1.2, 4.0])
    for kind in FEATURE_KINDS:
        assert np.array_equal(phi(kind, x, x), np.zeros(feature_dim(kind, 3)))


def test_phi_dimension_mismatch():
    with pytest.raises(ValueError):
        phi(L2, np.zeros(2), np.zeros(3))


def test_constants_values():
    for d in (1, 2, 5):
        c = constants(L2, d)
        assert c.c_phi == pytest.approx(np.sqrt(2.0), abs=0)
        assert c.lip_phi == 2.0
        assert (c.t0, c.t1) == (1.0, 1.0)
    c = constants(L1, 4)
    assert c.c_phi == pytest.approx(2.23606797749979, abs=1e-15)  # sqrt(5)
    assert c.lip_phi == 3.0
    assert c.t0 == pytest.approx(0.5)
    assert c.t1 == 1.0
    for d in (1, 3, 10):
        c = constants(PLUS, d)
        assert c.c_phi == 1.0
        assert c.lip_phi == 2.0
        # inherits the l1 norm-equivalence constants
        assert c.t0 == pytest.approx(1.0 / np.sqrt(d))
        assert c.t1 == 1.0
    c = constants(LINF, 9)
    assert (c.t0, c.t1) == (1.0, 3.0)


def test_constants_invariants():
    for kind in FEATURE_KINDS:
        for d in (1, 2, 5, 10):
            c = constants(kind, d)
            assert c.c_phi >= 1.0 and c.lip_phi >= 1.0
            assert 0 < c.t0 <= c.t1
            assert c.d_feat in (d + 1, 2 * d)


def test_output_norm_bound():
    # ||phi(x, xhat)|| <= c_phi ||x - xhat||
    rng = np.random.default_rng(0)
    for kind in FEATURE_KINDS:
        for d in (1, 2, 5, 10):
            c = constants(kind, d)
            x = rng.standard_normal((1000, d)) * 3.0
            xh = rng.standard_normal((1000, d)) * 3.0
            feats = features.phi_rows(kind, x, xh)
            lhs = np.linalg.norm(feats, axis=1)
            rhs = c.c_phi * np.linalg.norm(x - xh, axis=1)
            assert np.all(lhs <= rhs * (1.0 + 1e-12) + 1e-15)


def test_center_argument_lipschitz():
    # ||phi(x, xhat) - phi(x, xtilde)|| <= lip_phi ||xhat - xtilde||
    rng = np.random.default_rng(1)
    for kind in FEATURE_KINDS:
        for d in (1, 2, 5, 10):
            c = constants(kind, d)
            x = rng.standard_normal((1000, d))
            xh = rng.standard_normal((1000, d))
            xt = rng.standard_normal((1000, d))
            gap = features.phi_rows(kind, x, xh) - features.phi_rows(kind, x, xt)
            lhs = np.linalg.norm(gap, axis=1)
            rhs = c.lip_phi * np.linalg.norm(xh - xt, axis=1)
            assert np.all(lhs <= rhs * (1.0 + 1e-12) + 1e-15)


def test_norm_equivalence_constants():
    rng = np.random.default_rng(2)
    ords = {L1: 1, L2: 2, LINF: np.inf}
    for kind, p in ords.items():
        for d in (1, 2, 5, 10):
            c = constants(kind, d)
            v = rng.standard_normal((500, d))
            vp = np.linalg.norm(v, ord=p, axis=1)
            v2 = np.linalg.norm(v, axis=1)
            assert np.all(c.t0 * vp <= v2 * (1 + 1e-12))
            assert np.all(v2 <= c.t1 * vp * (1 + 1e-12))


def test_plus_recovers_l1_and_difference():
    rng = np.random.default_rng(3)
    for d in (1, 2, 6):
        x = rng.standard_normal((200, d))
        xh = rng.standard_normal((200, d))
        feats = features.phi_rows(PLUS, x, xh)
        l1 = feats @ np.ones(2 * d)
        assert np.allclose(l1, np.linalg.norm(x - xh, ord=1, axis=1), atol=1e-12)
        signed = feats @ np.concatenate([np.ones(d), -np.ones(d)])[:, None] \
            if d == 1 else feats[:, :d] - feats[:, d:]
        assert np.allclose(np.atleast_2d(signed).reshape(200, d), x - xh, atol=1e-12)


def test_phi_tensor_matches_rows():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((20, 3))
    centers = rng.standard_normal((5, 3))
    for kind in FEATURE_KINDS:
        tensor = phi_tensor(kind, X, centers)
        for k in range(5):
            rows = features.phi_rows(kind, X, np.broadcast_to(centers[k], X.shape))
            assert np.array_equal(tensor[:, k, :], rows)
