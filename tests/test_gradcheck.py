from collections import defaultdict

import pytest

from cobra import gradcheck, losses, nn

from conftest import scale_relu_backward

# every check the relu_backward of model._mlp_backward takes part in; the
# training-mode head is not one, as its ReLUs are fused with dropout
RELU_CHECKS = {
    "loss_r",
    "loss_m",
    "loss_s",
    "loss_c_setform_exp",
    "loss_c_nce_log",
    "loss_total",
    "classifier_cross_entropy",
}
# every check that scores the gradient of an NCE variant
NCE_CHECKS = {"loss_c_nce_log", "loss_total"}


@pytest.fixture(scope="module")
def results():
    return gradcheck.run_gradcheck(seed=0)


def _failing(results) -> set[str]:
    return {r.name for r in results if not r.passed}


def test_all_checks_pass(results):
    assert not _failing(results), f"gradient checks failed: {_failing(results)}"


def test_covers_every_loss_component_and_head(monkeypatch):
    """Every contrastive variant has a check of its own, whose finite
    differences evaluate that variant's loss and no other."""
    compare, contrastive_loss = gradcheck._compare, losses.contrastive_loss
    comparing, evaluated = [], defaultdict(set)

    def spy_compare(name, *args):
        comparing.append(name)
        try:
            return compare(name, *args)
        finally:
            comparing.pop()

    def spy_loss(*args, **kwargs):
        if comparing:
            evaluated[comparing[-1]].add(kwargs["variant"])
        return contrastive_loss(*args, **kwargs)

    monkeypatch.setattr(gradcheck, "_compare", spy_compare)
    monkeypatch.setattr(losses, "contrastive_loss", spy_loss)
    names = {r.name for r in gradcheck.run_gradcheck(seed=0)}
    contrastive = {gradcheck.CONTRASTIVE_CHECKS[v]: v for v in losses.CONTRASTIVE_VARIANTS}
    assert len(contrastive) == len(losses.CONTRASTIVE_VARIANTS)
    assert {
        "layer_affine",
        "loss_r",
        "loss_m",
        "loss_s",
        *contrastive,
        "loss_total",
        "classifier_cross_entropy",
        "classifier_cross_entropy_dropout",
    } <= names
    for name, variant in contrastive.items():
        assert evaluated[name] == {variant}, name


def test_relu_backward_fault_is_caught(monkeypatch):
    """A 0.1% error in the ReLU backward fails exactly the checks that
    backpropagate through an MLP."""
    scale_relu_backward(monkeypatch)
    assert _failing(gradcheck.run_gradcheck(seed=0)) == RELU_CHECKS


def test_dropout_mask_backward_fault_is_caught(monkeypatch):
    """A 0.1% error in the mask that _mlp_backward's dropout branch
    multiplies by fails exactly the training-mode head's check."""
    relu_dropout = nn.relu_dropout

    def faulty(pre, p, rng):
        h, mask = relu_dropout(pre, p, rng)
        return h, 1.001 * mask

    monkeypatch.setattr(nn, "relu_dropout", faulty)
    assert _failing(gradcheck.run_gradcheck(seed=0)) == {"classifier_cross_entropy_dropout"}


def test_nce_image_gradient_fault_is_caught(monkeypatch):
    """A 0.1% error in the image gradient of the NCE variant fails exactly
    the checks that score it."""
    contrastive_loss = losses.contrastive_loss

    def faulty(*args, **kwargs):
        value, g_image, g_text, clamped = contrastive_loss(*args, **kwargs)
        if kwargs["variant"] == "nce":
            g_image = 1.001 * g_image
        return value, g_image, g_text, clamped

    monkeypatch.setattr(losses, "contrastive_loss", faulty)
    assert _failing(gradcheck.run_gradcheck(seed=0)) == NCE_CHECKS


def test_threshold_constants():
    assert gradcheck.THRESHOLD == 1e-4
    assert gradcheck.EPSILON == 1e-5
