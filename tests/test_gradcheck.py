import pytest

from cobra import gradcheck, losses

from conftest import scale_relu_backward

# every check the relu_backward of model._mlp_backward takes part in
RELU_CHECKS = {
    "loss_r",
    "loss_m",
    "loss_s",
    "loss_c_setform_exp",
    "loss_c_nce_log",
    "loss_total",
    "classifier_cross_entropy",
}
# every check that scores nce_loss's gradient
NCE_CHECKS = {"loss_c_nce_log", "loss_c_nce_literal", "loss_total"}


@pytest.fixture(scope="module")
def results():
    return gradcheck.run_gradcheck(seed=0)


def _failing(results) -> set[str]:
    return {r.name for r in results if not r.passed}


def test_all_checks_pass(results):
    assert not _failing(results), f"gradient checks failed: {_failing(results)}"


def test_covers_every_loss_component_and_head(results):
    assert {
        "layer_affine",
        "loss_r",
        "loss_m",
        "loss_s",
        "loss_c_setform_exp",
        "loss_c_nce_log",
        "loss_c_setform_literal",
        "loss_c_nce_literal",
        "loss_total",
        "classifier_cross_entropy",
    } <= {r.name for r in results}


def test_relu_backward_fault_is_caught(monkeypatch):
    """A 0.1% error in the ReLU backward fails exactly the checks that
    backpropagate through an MLP."""
    scale_relu_backward(monkeypatch)
    assert _failing(gradcheck.run_gradcheck(seed=0)) == RELU_CHECKS


def test_nce_image_gradient_fault_is_caught(monkeypatch):
    """A 0.1% error in the image gradient nce_loss returns fails exactly the
    checks that score it, the literal form on its own as well."""
    nce_loss = losses.nce_loss

    def faulty(*args, **kwargs):
        value, g_image, g_text = nce_loss(*args, **kwargs)
        return value, 1.001 * g_image, g_text

    monkeypatch.setattr(losses, "nce_loss", faulty)
    assert _failing(gradcheck.run_gradcheck(seed=0)) == NCE_CHECKS


def test_threshold_constants():
    assert gradcheck.THRESHOLD == 1e-4
    assert gradcheck.EPSILON == 1e-5
