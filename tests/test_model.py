from dataclasses import replace

import numpy as np
import pytest

from _helpers import (assert_same_bits, eval_partitioned, phi_tensor, piece_values,
                      reference_mma_block, reference_piece_block)
from dcreg import features
from dcreg.data import Dataset
from dcreg.model import (_CHUNK, _mma_blocks, COMPLEMENT, MAX_MIN_AFFINE, SINGLE, SYMMETRIC,
                         DcComponent, DcModel, MaxMinAffine, center, eval_max,
                         eval_mma, eval_model, lip_stat,
                         n_parameters, prune,
                         symmetric_bias_center, to_max_min_affine, validate_model)


def _component(kind, centers, biases, weights):
    return DcComponent(kind, np.asarray(centers, float),
                       np.asarray(biases, float), np.asarray(weights, float))


def _random_component(rng, kind, d, k):
    centers = rng.standard_normal((k, d))
    biases = rng.standard_normal(k)
    weights = rng.standard_normal((k, features.feature_dim(kind, d)))
    return DcComponent(kind, centers, biases, weights)


def test_eval_max_constant_piece():
    comp = _component(features.L2, [[0.0]], [1.0], [[0.0, 0.0]])
    for x in (-3.0, 0.0, 7.5):
        assert eval_max(comp, np.array([x])) == 1.0


def test_eval_max_mcshane_form():
    # two pieces b=0, w=(0,-1): f(x) = max(-|x|, -|x-2|); f(1) = -1
    comp = _component(features.L2, [[0.0], [2.0]], [0.0, 0.0],
                      [[0.0, -1.0], [0.0, -1.0]])
    assert eval_max(comp, np.array([1.0])) == -1.0
    assert eval_max(comp, np.array([0.0])) == 0.0
    assert eval_max(comp, np.array([3.0])) == -1.0


def test_eval_max_at_own_center_yields_bias():
    rng = np.random.default_rng(0)
    comp = _random_component(rng, features.LINF, 2, 4)
    # dominate others by lifting one bias far above
    biases = comp.biases.copy()
    biases[2] += 100.0
    comp = _component(features.LINF, comp.centers, biases, comp.weights)
    assert eval_max(comp, comp.centers[2]) == pytest.approx(biases[2], abs=0)


def test_eval_partitioned_center_identity_and_domination():
    rng = np.random.default_rng(1)
    for kind in features.FEATURE_KINDS:
        comp = _random_component(rng, kind, 3, 5)
        # at x = center_k with label k the value is exactly b_k
        for k in range(5):
            assert eval_partitioned(comp, comp.centers[k], k) == comp.biases[k]
        # eval_max dominates any partitioned evaluation
        X = rng.standard_normal((200, 3))
        labels = rng.integers(0, 5, size=200)
        assert np.all(eval_max(comp, X) >= eval_partitioned(comp, X, labels) - 1e-12)


def test_eval_partitioned_single_piece_equals_max():
    rng = np.random.default_rng(2)
    comp = _random_component(rng, features.L1, 2, 1)
    X = rng.standard_normal((50, 2))
    assert np.allclose(eval_max(comp, X), eval_partitioned(comp, X, np.zeros(50, int)),
                       atol=0)


def test_eval_partitioned_label_out_of_range():
    comp = _component(features.L2, [[0.0]], [0.0], [[0.0, 0.0]])
    with pytest.raises(ValueError):
        eval_partitioned(comp, np.array([1.0]), 3)


def test_eval_model_variants():
    rng = np.random.default_rng(3)
    comp = _random_component(rng, features.L2, 2, 3)
    X = rng.standard_normal((100, 2))
    single = DcModel(SINGLE, comp, offset=0.0)
    assert np.allclose(eval_model(single, X), eval_max(comp, X), atol=0)

    sym = DcModel(SYMMETRIC, comp, second=comp, offset=3.0)
    assert np.allclose(eval_model(sym, X), 3.0)

    one = _component(features.L2, [[0.0, 0.0]], [1.0], [[0.0, 0.0, 0.0]])
    compl = DcModel(COMPLEMENT, one, offset=0.0)
    assert np.allclose(eval_model(compl, X), -1.0)


def test_eval_model_dimension_mismatch():
    comp = _component(features.L2, [[0.0, 0.0]], [1.0], [[0.0, 0.0, 0.0]])
    with pytest.raises(ValueError):
        eval_model(DcModel(SINGLE, comp), np.zeros((4, 3)))


def test_model_invariant_validation():
    comp = _component(features.L2, [[0.0]], [0.0], [[0.0, 0.0]])
    with pytest.raises(ValueError):
        DcModel(SINGLE, comp, second=comp)
    with pytest.raises(ValueError):
        DcModel(SYMMETRIC, comp)
    with pytest.raises(ValueError):
        DcModel(MAX_MIN_AFFINE, comp)


def test_lip_stat():
    comp = _component(features.L2, [[0.0, 0.0]], [0.0], [[3.0, 4.0, 0.0]])
    assert lip_stat(DcModel(SINGLE, comp)) == 5.0
    zero = _component(features.L2, [[0.0, 0.0]], [0.0], [[0.0, 0.0, 0.0]])
    assert lip_stat(DcModel(SINGLE, zero)) == 0.0
    sym = DcModel(SYMMETRIC, zero, second=comp)
    assert lip_stat(sym) == 5.0


def test_lip_stat_of_a_max_min_affine_model_reads_its_component():
    # The rows (u, v) that stage 2 regularizes, not the blocks' inner slopes u +- v e_j:
    # the largest row norm is |(3, 0, .., -4)| = 5, while u - v e_1 = (7, 0, ..) is longer.
    for d in (1, 3):
        rng = np.random.default_rng(30 + d)
        weights = np.hstack([rng.uniform(-1, 1, (4, d)), -rng.uniform(0, 1, (4, 1))])
        weights[2] = np.r_[3.0, np.zeros(d - 1), -4.0]
        comp = _component(features.LINF, rng.standard_normal((4, d)), rng.standard_normal(4),
                          weights)
        model = DcModel.of(MAX_MIN_AFFINE, [comp])
        assert lip_stat(model) == np.max(np.linalg.norm(weights, axis=1)) == 5.0
        assert np.max(np.linalg.norm(model.mma.slopes, axis=2)) > 5.0


def test_model_is_lip_stat_lipschitz():
    # |f(x) - f(x')| <= lip_stat * c_phi * ||x - x'||
    rng = np.random.default_rng(4)
    for kind in features.FEATURE_KINDS:
        comp = _random_component(rng, kind, 3, 6)
        model = DcModel(SINGLE, comp)
        c = features.constants(kind, 3)
        bound = lip_stat(model) * c.c_phi
        X1 = rng.standard_normal((500, 3))
        X2 = rng.standard_normal((500, 3))
        gap = np.abs(eval_model(model, X1) - eval_model(model, X2))
        dist = np.linalg.norm(X1 - X2, axis=1)
        assert np.all(gap <= bound * dist * (1 + 1e-9) + 1e-12)


def test_prune_keeps_active_pieces_identity():
    rng = np.random.default_rng(5)
    comp = _random_component(rng, features.L2, 2, 4)
    X = np.vstack([comp.centers, rng.standard_normal((30, 2))])
    before = eval_max(comp, X)
    pruned = prune(comp, X)
    assert np.array_equal(eval_max(pruned, X), before)
    # every piece attains at its own center when biases are inflated there
    assert pruned.n_pieces >= 1


def test_prune_drops_dominated_piece():
    comp = _component(features.L2, [[0.0], [1.0]], [0.0, -1e9],
                      [[0.0, -1.0], [0.0, -1.0]])
    X = np.linspace(-2, 2, 20)[:, None]
    before = eval_max(comp, X)
    pruned = prune(comp, X)
    assert pruned.n_pieces == 1
    assert np.array_equal(pruned.center_idx, [0])
    assert np.array_equal(eval_max(pruned, X), before)


def test_prune_single_piece_identity():
    comp = _component(features.L2, [[0.0]], [2.0], [[1.0, 0.0]])
    X = np.linspace(-1, 1, 5)[:, None]
    assert prune(comp, X).n_pieces == 1


def test_prune_preserves_training_risk():
    rng = np.random.default_rng(6)
    comp = _random_component(rng, features.LINF, 2, 8)
    X = rng.standard_normal((60, 2))
    y = rng.standard_normal(60)
    before = np.mean((eval_max(comp, X) - y) ** 2)
    after = np.mean((eval_max(prune(comp, X), X) - y) ** 2)
    assert after == pytest.approx(before, abs=1e-12)


def test_center_constant_component():
    comp = _component(features.L2, [[0.0]], [0.0], [[0.0, 0.0]])
    ds = Dataset(np.array([[0.0], [1.0]]), np.array([2.0, 3.0]))
    model = center(DcModel(SINGLE, comp), ds)
    assert model.offset == pytest.approx(2.5, abs=1e-15)


def test_center_identity_and_idempotence():
    rng = np.random.default_rng(7)
    comp = _random_component(rng, features.L1, 3, 4)
    ds = Dataset(rng.standard_normal((40, 3)), rng.standard_normal(40))
    model = center(DcModel(SINGLE, comp), ds)
    assert np.mean(eval_model(model, ds.X)) == pytest.approx(np.mean(ds.y), abs=1e-10)
    again = center(model, ds)
    assert again.offset == pytest.approx(model.offset, abs=1e-12)


def test_to_max_min_affine_zero_norm_coefficient_collapses():
    rng = np.random.default_rng(8)
    d, k = 2, 3
    comp = _random_component(rng, features.LINF, d, k)
    weights = comp.weights.copy()
    weights[:, d] = 0.0
    comp = _component(features.LINF, comp.centers, comp.biases, weights)
    mma = to_max_min_affine(comp)
    # all inner pieces of each block coincide
    assert np.allclose(mma.slopes - mma.slopes[:, :1, :], 0.0, atol=0)
    X = rng.standard_normal((50, d))
    assert np.allclose(eval_mma(mma, X), eval_max(comp, X), atol=1e-12)


def test_to_max_min_affine_hand_example():
    # d=1, b=0, u=1, v=-1, center=0: block = min(2x, 0) = x - |x|
    comp = _component(features.LINF, [[0.0]], [0.0], [[1.0, -1.0]])
    mma = to_max_min_affine(comp)
    x = np.linspace(-3, 3, 41)[:, None]
    assert np.allclose(eval_mma(mma, x), np.minimum(2 * x[:, 0], 0.0), atol=1e-14)
    assert np.allclose(eval_mma(mma, x), x[:, 0] - np.abs(x[:, 0]), atol=1e-14)


def test_to_max_min_affine_grid_equivalence():
    rng = np.random.default_rng(9)
    for trial in range(25):
        d = int(rng.integers(1, 4))
        k = int(rng.integers(1, 6))
        centers = rng.standard_normal((k, d))
        biases = rng.standard_normal(k)
        weights = rng.standard_normal((k, d + 1))
        weights[:, d] = -np.abs(weights[:, d])
        comp = DcComponent(features.LINF, centers, biases, weights)
        mma = to_max_min_affine(comp)
        X = rng.uniform(-2, 2, size=(1000, d))
        assert np.max(np.abs(eval_mma(mma, X) - eval_max(comp, X))) < 1e-10


def test_to_max_min_affine_rejects_positive_norm_coefficient():
    comp = _component(features.LINF, [[0.0]], [0.0], [[1.0, 0.5]])
    with pytest.raises(ValueError):
        to_max_min_affine(comp)


def test_to_max_min_affine_requires_max_norm_kind():
    comp = _component(features.L2, [[0.0]], [0.0], [[1.0, -0.5]])
    with pytest.raises(ValueError):
        to_max_min_affine(comp)


def test_eval_mma_affine_single_piece():
    mma = MaxMinAffine(np.array([[2.0]]), np.array([[[3.0]]]))
    x = np.array([[1.5]])
    assert eval_mma(mma, x) == pytest.approx(2.0 + 4.5, abs=0)


def test_max_min_affine_prune_drops_a_dominated_piece_and_its_block():
    # A max-min-affine model prunes its component; its blocks are the pruned rewrite.
    comp = _component(features.LINF, [[0.0], [0.5]], [0.0, -1e9], [[0.0, 0.0], [0.0, 0.0]])
    model = DcModel.of(MAX_MIN_AFFINE, [comp])
    X = np.linspace(-1, 1, 7)[:, None]
    pruned = model.with_components([prune(c, X) for c in model.components()])
    assert np.array_equal(pruned.component.center_idx, [0]) and pruned.mma.n_blocks == 1
    assert np.array_equal(eval_model(pruned, X), eval_model(model, X))


def test_symmetric_bias_center():
    comp1 = _component(features.L2, [[0.0], [1.0]], [1.0, 3.0],
                       [[0.1, 0.0], [0.2, 0.0]])
    comp2 = _component(features.L2, [[0.0], [1.0]], [2.0, 2.0],
                       [[0.0, 0.0], [0.3, 0.0]])
    model = DcModel(SYMMETRIC, comp1, second=comp2, offset=0.7)
    shifted = symmetric_bias_center(model)
    b1 = shifted.component.biases.mean()
    b2 = shifted.second.biases.mean()
    assert abs(b1 + b2) <= 1e-12
    X = np.random.default_rng(10).standard_normal((100, 1))
    assert np.allclose(eval_model(shifted, X), eval_model(model, X), atol=1e-12)


def test_symmetric_bias_center_no_shift_when_balanced():
    comp1 = _component(features.L2, [[0.0]], [1.0], [[0.0, 0.0]])
    comp2 = _component(features.L2, [[0.0]], [-1.0], [[0.0, 0.0]])
    model = DcModel(SYMMETRIC, comp1, second=comp2)
    shifted = symmetric_bias_center(model)
    assert np.array_equal(shifted.component.biases, comp1.biases)


def test_symmetric_bias_center_wrong_variant():
    comp = _component(features.L2, [[0.0]], [0.0], [[0.0, 0.0]])
    with pytest.raises(ValueError):
        symmetric_bias_center(DcModel(SINGLE, comp))


def test_raw_coordinate_transforms():
    rng = np.random.default_rng(11)
    comp = _random_component(rng, features.L2, 2, 3)
    shift = np.array([1.0, -2.0])
    scale = np.array([2.0, 0.5])
    model = DcModel(SINGLE, comp, offset=0.3, x_shift=shift, x_scale=scale,
                    y_shift=5.0, y_scale=3.0)
    X = rng.standard_normal((20, 2))
    expected = 5.0 + 3.0 * (0.3 + eval_max(comp, (X - shift) / scale))
    assert np.allclose(eval_model(model, X), expected, atol=0)


def test_validate_model_cones():
    d = 2
    centers = np.zeros((1, d))
    w_bad = np.array([[1.0, 0.0, -0.1]])
    comp = DcComponent(features.L2, centers, np.zeros(1), w_bad)
    with pytest.raises(ValueError):
        validate_model(DcModel("convex_norm", comp))
    w_zero = np.array([[1.0, 0.0, 0.0]])
    validate_model(DcModel("convex_max_affine",
                           DcComponent(features.L2, centers, np.zeros(1), w_zero)))


def test_n_parameters():
    comp = _component(features.L2, [[0.0], [1.0]], [0.0, 1.0],
                      [[0.0, 0.0], [1.0, 0.0]])
    model = DcModel(SINGLE, comp)
    assert n_parameters(model) == 2 + 4 + 1
    assert n_parameters(model, include_centers=True) == 2 + 4 + 1 + 2


# ---------------------------------------------------------------------------
# the piece-major kernel against the dense feature tensor

@pytest.mark.parametrize("kind", features.FEATURE_KINDS)
@pytest.mark.parametrize("d", [1, 3, 8])
def test_piece_values_match_phi_tensor(kind, d):
    rng = np.random.default_rng(40 + d)
    comp = _random_component(rng, kind, d, 7)
    for n in (_CHUNK - 1, _CHUNK + 1):
        X = rng.standard_normal((n, d))
        phi = phi_tensor(kind, X, comp.centers)
        ref = comp.biases + np.einsum("nkj,kj->nk", phi, comp.weights)
        scale = np.abs(comp.biases) + np.einsum("nkj,kj->nk", np.abs(phi),
                                                np.abs(comp.weights))
        vals = piece_values(comp, X)
        assert vals.shape == (7, n)
        assert np.max(np.abs(vals.T - ref) / scale) <= 1e-12
        assert np.max(np.abs(eval_max(comp, X) - ref.max(axis=1))
                      / scale.max(axis=1)) <= 1e-12


@pytest.mark.parametrize("kind", features.FEATURE_KINDS)
def test_piece_values_at_own_centers_are_exactly_the_biases(kind):
    rng = np.random.default_rng(47)
    for d in (1, 2, 5):
        comp = _random_component(rng, kind, d, 40)
        comp = replace(comp, centers=comp.centers * rng.uniform(0.1, 100.0, d))
        assert np.array_equal(np.diag(piece_values(comp, comp.centers)), comp.biases)


@pytest.mark.parametrize("kind", features.FEATURE_KINDS)
def test_prediction_kernels_are_bit_identical_to_the_allocating_reference(kind):
    # Blocks written into reused buffers, the norm plane from the same differences:
    # the same operations as fresh temporaries per block, so the same bits.
    rng = np.random.default_rng(51)
    for d in (1, 3, 8):
        comp = _random_component(rng, kind, d, 9)
        pinned = replace(comp, weights=np.hstack([comp.weights[:, :d],
                                                  np.zeros((9, comp.weights.shape[1] - d))]))
        mma = MaxMinAffine(rng.standard_normal((5, 2 * d)), rng.standard_normal((5, 2 * d, d)))
        for n in (1, _CHUNK + 3):
            X = rng.standard_normal((n, d))
            blocks = [np.asfortranarray(X[lo:lo + _CHUNK]) for lo in range(0, n, _CHUNK)]
            for c in (comp, pinned):
                ref = np.hstack([reference_piece_block(c, rows) for rows in blocks])
                assert_same_bits(piece_values(c, X), ref)
                assert_same_bits(eval_max(c, X), ref.max(axis=0))
            ref = [reference_mma_block(mma, rows) for rows in blocks]
            for (_, _, minima), block_ref in zip(_mma_blocks(mma, X), ref, strict=True):
                assert_same_bits(minima, block_ref)
            assert_same_bits(eval_mma(mma, X), np.hstack(ref).max(axis=0))


def test_prune_matches_dense_reference():
    rng = np.random.default_rng(48)
    for kind in features.FEATURE_KINDS:
        comp = _random_component(rng, kind, 3, 30)
        X = rng.standard_normal((_CHUNK + 1, 3))
        vals = comp.biases + np.einsum("nkj,kj->nk", phi_tensor(kind, X, comp.centers),
                                       comp.weights)
        top = vals.max(axis=1)
        band = vals >= (top - 1e-9 * (1.0 + np.abs(top)))[:, None]
        kept = prune(comp, X).center_idx
        assert np.array_equal(kept, np.where(band.any(axis=0))[0])


def test_eval_mma_and_the_max_min_affine_prune_match_dense_reference():
    rng = np.random.default_rng(49)
    for d in (1, 3):
        mma = MaxMinAffine(rng.standard_normal((6, 2 * d)), rng.standard_normal((6, 2 * d, d)))
        X = rng.standard_normal((_CHUNK + 1, d))
        inner = mma.biases[None, :, :] + np.einsum("kld,nd->nkl", mma.slopes, X)
        assert np.allclose(eval_mma(mma, X), inner.min(axis=2).max(axis=1), rtol=0, atol=1e-12)
        # The pruned component keeps the blocks within the band of the max at some row.
        comp = _random_component(rng, features.LINF, d, 6)
        comp = replace(comp, weights=np.column_stack([comp.weights[:, :d],
                                                      -np.abs(comp.weights[:, d])]))
        mma = to_max_min_affine(comp)
        inner = mma.biases[None, :, :] + np.einsum("kld,nd->nkl", mma.slopes, X)
        blocks = inner.min(axis=2)
        top = blocks.max(axis=1)
        band = blocks >= (top - 1e-9 * (1.0 + np.abs(top)))[:, None]
        assert np.array_equal(prune(comp, X).center_idx, np.where(band.any(axis=0))[0])


def test_eval_model_does_not_depend_on_input_layout():
    rng = np.random.default_rng(50)
    X = rng.standard_normal((500, 2))
    for kind in features.FEATURE_KINDS:
        comp = _random_component(rng, kind, 2, 9)
        model = DcModel(SINGLE, comp, offset=0.25, x_shift=np.array([0.3, -0.1]),
                        x_scale=np.array([1.7, 0.6]), y_shift=1.5, y_scale=2.5)
        assert np.array_equal(eval_model(model, np.ascontiguousarray(X)),
                              eval_model(model, np.asfortranarray(X)))
    mma = MaxMinAffine(rng.standard_normal((5, 4)), rng.standard_normal((5, 4, 2)))
    assert np.array_equal(eval_mma(mma, np.ascontiguousarray(X)),
                          eval_mma(mma, np.asfortranarray(X)))
