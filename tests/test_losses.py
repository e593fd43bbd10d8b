import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cobra import losses, model as model_mod
from cobra.errors import ConfigError, NumericError, PairingError, ShapeError
from cobra.losses import (
    ContrastiveSets,
    CONTRASTIVE_VARIANTS,
    LossWeights,
    contrastive_loss,
    cross_modal_loss,
    recon_loss,
    sample_contrastive_sets,
    supervised_loss,
    total_loss,
)
from cobra.training import TrainConfig

import contrastive_oracle as oracle
from conftest import tiny_model
from contrastive_oracle import NoiseModel, nce_posterior


# ---------------------------------------------------------------- recon


def test_recon_zero_on_perfect_reconstruction():
    x_i = np.random.default_rng(0).normal(size=(3, 4))
    x_t = np.random.default_rng(1).normal(size=(3, 2))
    value, g_i, g_t = recon_loss(x_i, x_i, x_t, x_t)
    assert value == 0.0
    assert not g_i.any() and not g_t.any()


def test_recon_hand_value():
    # single pair, one modality off by (1, -1): squared error 2 over 2 rows
    x = np.array([[1.0, 2.0]])
    x_hat = np.array([[2.0, 1.0]])
    t = np.zeros((1, 1))
    value, g_i, _ = recon_loss(x_hat, x, t, t)
    assert value == pytest.approx(1.0)
    assert np.allclose(g_i, [[1.0, -1.0]])


def test_recon_mean_scales_by_total_rows():
    rng = np.random.default_rng(2)
    x_i, xh_i = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
    x_t, xh_t = rng.normal(size=(5, 2)), rng.normal(size=(5, 2))
    v_sum = np.sum((xh_i - x_i) ** 2) + np.sum((xh_t - x_t) ** 2)
    v_mean, *_ = recon_loss(xh_i, x_i, xh_t, x_t)
    assert v_mean == pytest.approx(v_sum / 8.0)


def test_recon_shape_mismatch():
    with pytest.raises(ShapeError):
        recon_loss(np.zeros((2, 3)), np.zeros((2, 4)), np.zeros((1, 1)), np.zeros((1, 1)))


def test_recon_grad_matches_finite_diff():
    rng = np.random.default_rng(3)
    x_i, x_t = rng.normal(size=(3, 4)), rng.normal(size=(3, 2))
    xh_i, xh_t = rng.normal(size=(3, 4)), rng.normal(size=(3, 2))
    _, g_i, g_t = recon_loss(xh_i, x_i, xh_t, x_t)
    eps = 1e-6
    for arr, grad in ((xh_i, g_i), (xh_t, g_t)):
        flat = arr.reshape(-1)
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + eps
            hi = recon_loss(xh_i, x_i, xh_t, x_t)[0]
            flat[k] = orig - eps
            lo = recon_loss(xh_i, x_i, xh_t, x_t)[0]
            flat[k] = orig
            assert grad.reshape(-1)[k] == pytest.approx((hi - lo) / (2 * eps), abs=1e-6)


# ---------------------------------------------------------------- cross-modal


def test_cross_modal_zero_when_aligned():
    o = np.random.default_rng(4).normal(size=(3, 3))
    value, g_t, g_i = cross_modal_loss(o, o.copy())
    assert value == 0.0 and not g_t.any() and not g_i.any()


def test_cross_modal_hand_value():
    o_t = np.array([[1.0, 0.0]])
    o_i = np.array([[0.0, 1.0]])
    value, g_t, g_i = cross_modal_loss(o_t, o_i)
    assert value == pytest.approx(2.0)
    assert np.allclose(g_t, [[2.0, -2.0]])
    assert np.allclose(g_i, [[-2.0, 2.0]])


def test_cross_modal_symmetric_in_arguments():
    rng = np.random.default_rng(5)
    a, b = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
    assert cross_modal_loss(a, b)[0] == pytest.approx(cross_modal_loss(b, a)[0])


def test_cross_modal_grads_opposite():
    rng = np.random.default_rng(6)
    a, b = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
    _, g_t, g_i = cross_modal_loss(a, b)
    assert np.allclose(g_t, -g_i)


def test_cross_modal_rejects_unpaired_shapes():
    with pytest.raises(PairingError):
        cross_modal_loss(np.zeros((3, 2)), np.zeros((4, 2)))


# ---------------------------------------------------------------- supervised


def test_supervised_zero_on_exact_one_hot():
    o = np.eye(3)
    value, g = supervised_loss(o, [0, 1, 2], 3)
    assert value == 0.0 and not g.any()


def test_supervised_hand_value():
    o = np.array([[0.5, 0.5]])
    value, g = supervised_loss(o, [0], 2)
    assert value == pytest.approx(0.5)
    assert np.allclose(g, [[-1.0, 1.0]])


def test_cross_modal_and_supervised_divide_by_batch_rows():
    rng = np.random.default_rng(7)
    a, b = rng.normal(size=(5, 3)), rng.normal(size=(5, 3))
    value, g_t, _ = cross_modal_loss(a, b)
    assert value == pytest.approx(np.sum((a - b) ** 2) / 5.0)
    assert np.allclose(g_t, 2.0 * (a - b) / 5.0)
    labels = [0, 2, 1, 1, 0]
    value, g = supervised_loss(a, labels, 3)
    r = a - np.eye(3)[labels]
    assert value == pytest.approx(np.sum(r * r) / 5.0)
    assert np.allclose(g, 2.0 * r / 5.0)


def test_supervised_rejects_bad_labels():
    from cobra.errors import LabelError

    with pytest.raises(LabelError):
        supervised_loss(np.zeros((2, 3)), [0, 3], 3)
    with pytest.raises(LabelError):
        supervised_loss(np.zeros((1, 3)), [-1], 3)


def test_supervised_rejects_width_mismatch():
    with pytest.raises(ConfigError):
        supervised_loss(np.zeros((2, 4)), [0, 1], 3)


# ---------------------------------------------------------------- sampling


def _labels_pool():
    return st.lists(st.integers(0, 3), min_size=2, max_size=12)


@given(labels=_labels_pool(), n_neg=st.integers(1, 6))
@settings(max_examples=60, deadline=None)
def test_sampled_sets_are_valid(labels, n_neg):
    labels = np.array(labels)
    rng = np.random.default_rng(7)
    sets, skipped = sample_contrastive_sets(labels, n_neg, rng)
    lab = np.concatenate([labels, labels])
    modality = np.arange(lab.size) >= labels.size
    assert len(sets) + skipped == 2 * labels.size
    # the loop oracle keeps exactly the same anchors
    loop_sets, loop_skipped = oracle.sample_contrastive_sets(labels, labels, n_neg, rng)
    assert skipped == loop_skipped
    assert [cs.anchor for cs in oracle.as_refs(sets, labels.size)] == [
        cs.anchor for cs in loop_sets
    ]
    for a, p, negs in zip(sets.anchor, sets.positive, sets.negatives):
        assert modality[p] == modality[a]  # positive shares the anchor's modality
        assert lab[p] == lab[a]
        assert p != a
        assert len(negs) == n_neg
        assert (lab[negs] != lab[a]).all()
        if np.sum(lab != lab[a]) >= n_neg:  # distinct unless the pool is too small
            assert np.unique(negs).size == n_neg


def test_sampling_draws_uniformly():
    # pair classes [0 0 0 1 1], stacked as image rows 0-4 and text rows 5-9:
    # anchor 0 has positives {1, 2} and the negative pool {3, 4, 8, 9}
    labels = np.array([0, 0, 0, 1, 1])
    rng = np.random.default_rng(3)
    pos, neg = np.zeros(10), np.zeros(10)
    draws = 6000
    for _ in range(draws):
        sets, _ = sample_contrastive_sets(labels, 2, rng)
        pos[sets.positive[0]] += 1
        np.add.at(neg, sets.negatives[0], 1)
    assert np.allclose(pos[[1, 2]] / draws, 1 / 2, atol=0.03)
    assert np.allclose(neg[[3, 4, 8, 9]] / draws, 1 / 2, atol=0.03)
    assert pos.sum() == draws and neg.sum() == 2 * draws


def test_sampling_skips_singleton_classes():
    # class 1 appears once per modality: no same-modality positive exists
    sets, skipped = sample_contrastive_sets(np.array([0, 0, 1]), 2, np.random.default_rng(0))
    assert skipped == 2
    assert len(sets) == 4


def test_sampling_single_class_batch_all_skipped():
    sets, skipped = sample_contrastive_sets(np.array([1, 1]), 3, np.random.default_rng(0))
    assert len(sets) == 0 and skipped == 4


def test_sampling_with_replacement_when_pool_small():
    sets, _ = sample_contrastive_sets(np.array([0, 0, 1]), 10, np.random.default_rng(0))
    assert sets.negatives.shape == (4, 10)


def test_sampling_deterministic_per_seed():
    labels = np.array([0, 1, 0, 1])
    a, skip_a = sample_contrastive_sets(labels, 3, np.random.default_rng(11))
    b, skip_b = sample_contrastive_sets(labels, 3, np.random.default_rng(11))
    assert skip_a == skip_b
    for name in ("anchor", "positive", "negatives"):
        assert np.array_equal(getattr(a, name), getattr(b, name))


def test_sampling_rejects_zero_negatives():
    with pytest.raises(ConfigError):
        sample_contrastive_sets(np.array([0]), 0, np.random.default_rng(0))


# ---------------------------------------------------------------- setform


def _one_set(anchor, positive, negatives):
    """A single set over stacked [image; text] row indices."""
    return ContrastiveSets(np.array([anchor]), np.array([positive]), np.array([negatives]))


def _uniform_sets_case(n_neg):
    """Identical embeddings for every row: all scores equal."""
    o_i = np.ones((n_neg + 2, 3))
    o_t = np.ones((1, 3))
    return _one_set(0, 1, [2 + k for k in range(n_neg)]), o_i, o_t


@pytest.mark.parametrize("n_neg", [1, 5, 10])
def test_setform_uniform_scores_give_log_n_plus_one(n_neg):
    sets, o_i, o_t = _uniform_sets_case(n_neg)
    value, *_ = contrastive_loss(sets, o_i, o_t, variant="setform")
    assert value == pytest.approx(math.log(n_neg + 1), abs=1e-10)


def test_setform_literal_uniform_scores_same_identity():
    sets, o_i, o_t = _uniform_sets_case(4)
    value, _, _, clamped = contrastive_loss(sets, o_i, o_t, variant="setform_literal")
    assert value == pytest.approx(math.log(5), abs=1e-10)
    assert clamped == 0


def test_setform_empty_sets_zero():
    value, g_i, g_t, clamped = contrastive_loss(
        [], np.ones((2, 3)), np.ones((2, 3)), variant="setform"
    )
    assert value == 0.0 and not g_i.any() and not g_t.any() and clamped == 0


def test_setform_literal_counts_clamped_scores():
    o_i = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
    cs = _one_set(0, 2, [1])
    # positive dot = 0 (clamped), negative dot = -1 (clamped)
    _, _, _, clamped = contrastive_loss(cs, o_i, np.ones((1, 2)), variant="setform_literal")
    assert clamped == 2


def test_setform_lower_when_positive_dominates():
    o_i = np.array([[1.0, 0.0], [1.0, 0.0], [-1.0, 0.0]])
    cs = _one_set(0, 1, [2])
    good, *_ = contrastive_loss(cs, o_i, np.ones((1, 2)), variant="setform")
    bad_cs = _one_set(0, 2, [1])
    bad, *_ = contrastive_loss(bad_cs, o_i, np.ones((1, 2)), variant="setform")
    assert good < math.log(2) < bad


# ---------------------------------------------------------------- nce


@pytest.mark.parametrize("n", [1, 4, 9])
def test_nce_posterior_matched_densities(n):
    # p_J == p_N: posterior collapses to 1/(1+N)
    assert nce_posterior(0.25, NoiseModel(n, 0.25)) == pytest.approx(1.0 / (1 + n))


def test_nce_posterior_limits():
    assert nce_posterior(1e9, NoiseModel(1, 1e-9)) == pytest.approx(1.0)
    assert nce_posterior(1e-9, NoiseModel(10, 1.0)) == pytest.approx(0.0, abs=1e-8)


def test_nce_posterior_rejects_nonpositive_joint():
    with pytest.raises(NumericError):
        nce_posterior(0.0, NoiseModel(1, 0.5))


def test_nce_loss_uniform_embeddings_closed_form():
    # all rows identical -> pi uniform over the pool, so h = 1/(1+N) for the
    # positive and each negative alike
    n_neg = 3
    o_i = np.ones((n_neg + 2, 4))
    o_t = np.ones((1, 4))
    cs = _one_set(0, 1, [2 + k for k in range(n_neg)])
    value, *_ = contrastive_loss(cs, o_i, o_t, variant="nce")
    h = 1.0 / (1 + n_neg)
    expected = -math.log(h) - n_neg * math.log(1 - h)
    assert value == pytest.approx(expected, abs=1e-10)


def test_nce_empty_sets_zero():
    value, g_i, g_t, clamped = contrastive_loss(
        [], np.ones((2, 2)), np.ones((2, 2)), variant="nce"
    )
    assert value == 0.0 and not g_i.any() and not g_t.any() and clamped == 0


def test_nce_form_validation():
    """The retired nce_form and score_mode values, and the retired
    nce_literal variant, name no variant."""
    for form in ("bogus", "log", "exp", "literal", "nce_log", "setform_exp", "nce_literal"):
        with pytest.raises(ConfigError, match="contrastive_variant"):
            contrastive_loss([], np.ones((1, 1)), np.ones((1, 1)), variant=form)


# ---------------------------------------------------------------- loop oracle


@st.composite
def _contrastive_batch(draw):
    """Pair labels with singleton classes, single-class batches and negative
    pools smaller than n_negatives, plus float64 embeddings for both
    modalities."""
    n_cls = draw(st.integers(1, 4))
    labels = draw(
        hnp.arrays(np.int64, draw(st.integers(1, 7)), elements=st.integers(0, n_cls - 1))
    )
    dim = draw(st.integers(1, 4))
    emb = [
        draw(hnp.arrays(np.float64, (labels.size, dim), elements=st.floats(-2.0, 2.0)))
        for _ in range(2)
    ]
    return labels, emb, draw(st.integers(1, 8))


def _assert_matches_oracle(got, want):
    """The vectorised loss against the loop oracle's. Both add up the same
    gradient terms in other orders, and those terms can be far larger than
    the entry they sum to, so each entry's tolerance scales with the summed
    size of its terms (at least 1), not with the result."""
    (value, g_i, g_t, clamped), ((o_value, o_g_i, o_g_t, o_clamped), bounds) = got, want
    assert value == pytest.approx(o_value, rel=1e-12, abs=1e-12)
    for g, o_g, bound in zip((g_i, g_t), (o_g_i, o_g_t), bounds):
        assert g.shape == o_g.shape
        tol = 1e-12 * np.maximum(bound, 1.0)
        off = np.abs(g - o_g) > tol
        assert not off.any(), f"{g[off]} != {o_g[off]} within {tol[off]}"
    assert clamped == o_clamped


# embedding entries of 1e-5: the literal setform gradient of the text rows
# sums terms near 3e4 to entries below 1, which the two orders round 1.2e-12
# apart
_NEAR_CLAMP = (
    np.array([1, 0, 0, 0]),
    [np.array([[0.0], [0.0], [1e-5], [1e-5]]), np.array([[0.75], [1e-5], [0.0], [1e-5]])],
    2,
)


@given(batch=_contrastive_batch(), seed=st.integers(0, 2**16))
@example(batch=_NEAR_CLAMP, seed=0)
@settings(max_examples=80, deadline=None)
def test_vectorised_losses_match_loop_oracle(batch, seed):
    labels, (o_i, o_t), n_neg = batch
    sets, _ = sample_contrastive_sets(labels, n_neg, np.random.default_rng(seed))
    refs = oracle.as_refs(sets, labels.size)
    # two-anchor blocks run the multi-block path on these small batches
    for block in (losses._ANCHOR_BLOCK, 2):
        with mock.patch.object(losses, "_ANCHOR_BLOCK", block):
            again, _ = sample_contrastive_sets(labels, n_neg, np.random.default_rng(seed))
            for name in ("anchor", "positive", "negatives"):
                assert np.array_equal(getattr(again, name), getattr(sets, name))
            for variant in CONTRASTIVE_VARIANTS:
                _assert_matches_oracle(
                    contrastive_loss(sets, o_i, o_t, variant=variant),
                    oracle.contrastive_loss(refs, o_i, o_t, variant),
                )


@pytest.mark.parametrize("variant", CONTRASTIVE_VARIANTS)
def test_loop_oracle_comparison_catches_a_relative_gradient_error(variant):
    """A gradient 1e-9 off in relative terms fails the oracle comparison."""
    rng = np.random.default_rng(4)
    labels = np.array([0, 1, 2, 0, 1])
    o_i, o_t = rng.uniform(0.5, 1.5, (5, 3)), rng.uniform(0.5, 1.5, (5, 3))
    sets, _ = sample_contrastive_sets(labels, 2, np.random.default_rng(0))
    want = oracle.contrastive_loss(oracle.as_refs(sets, 5), o_i, o_t, variant)
    value, g_i, g_t, clamped = contrastive_loss(sets, o_i, o_t, variant=variant)
    _assert_matches_oracle((value, g_i, g_t, clamped), want)
    for off in ((g_i * (1 + 1e-9), g_t), (g_i, g_t * (1 + 1e-9))):
        with pytest.raises(AssertionError):
            _assert_matches_oracle((value, *off, clamped), want)


# ---------------------------------------------------------------- weights / total


def test_loss_weights_reject_negative():
    with pytest.raises(ConfigError):
        LossWeights(lambda_r=-0.1)


def test_loss_weights_reject_all_zero():
    with pytest.raises(ConfigError):
        LossWeights(0.0, 0.0, 0.0, 0.0)


def _forward(model, seed=0, n=4):
    rng = np.random.default_rng(seed)
    x_i = rng.normal(size=(n, model.image.input_dim))
    x_t = rng.normal(size=(n, model.text.input_dim))
    return model_mod.forward_full(model, x_i, x_t)


def test_total_loss_is_weighted_sum_of_components():
    model = tiny_model()
    cache = _forward(model)
    y = np.array([0, 1, 2, 0])
    w = LossWeights(0.7, 1.3, 0.4, 0.2)
    cfg = TrainConfig(weights=w, n_negatives=2)
    bd = total_loss(cache, y, cfg, np.random.default_rng(5))
    assert bd.total == pytest.approx(
        0.7 * bd.l_r + 1.3 * bd.l_s + 0.4 * bd.l_m + 0.2 * bd.l_c, rel=1e-12
    )


def test_total_loss_gradients_linear_in_weights():
    # doubling a component weight doubles that component's gradient share
    model = tiny_model()
    cache = _forward(model)
    y = np.array([0, 1, 2, 0])
    # lambda_c ~ 0 but valid
    base = TrainConfig(weights=LossWeights(1.0, 0.0, 0.0, 1e-12), n_negatives=2)
    double = TrainConfig(weights=LossWeights(2.0, 0.0, 0.0, 1e-12), n_negatives=2)
    bd1 = total_loss(cache, y, base, np.random.default_rng(5))
    bd2 = total_loss(cache, y, double, np.random.default_rng(5))
    assert np.allclose(bd2.d_xhat_image, 2 * bd1.d_xhat_image, atol=1e-10)
    assert np.allclose(bd2.d_xhat_text, 2 * bd1.d_xhat_text, atol=1e-10)


def test_total_loss_grad_matches_finite_diff_float64():
    model = tiny_model()
    y = np.array([0, 1, 2, 0])
    cfg = TrainConfig(weights=LossWeights(1.0, 1.0, 1.0, 0.1), n_negatives=2)

    def value():
        cache = _forward(model)
        return total_loss(cache, y, cfg, np.random.default_rng(99)).total

    cache = _forward(model)
    bd = total_loss(cache, y, cfg, np.random.default_rng(99))
    model_mod.backward_full(
        model, cache, bd.d_o_image, bd.d_o_text, bd.d_xhat_image, bd.d_xhat_text
    )
    from cobra.nn import finite_diff_grad, max_rel_err

    # one representative param per block keeps this fast
    picks = [p for p in model.params() if p.name in ("image.enc0.w", "text.dec2.b", "image.proj0.w")]
    numeric = finite_diff_grad(value, picks)
    for p in picks:
        assert max_rel_err(p.grad, numeric[p.name]) < 1e-4
