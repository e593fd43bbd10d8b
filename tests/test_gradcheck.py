from cobra import gradcheck


def test_all_checks_pass():
    results = gradcheck.run_gradcheck(seed=0)
    failing = [r.name for r in results if not r.passed]
    assert not failing, f"gradient checks failed: {failing}"


def test_covers_every_loss_component_and_head():
    names = {r.name for r in gradcheck.run_gradcheck(seed=0)}
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
    } <= names


def test_corrupted_gradient_is_caught():
    results = gradcheck.run_gradcheck(seed=0, corrupt="image.enc0.w")
    assert any(not r.passed for r in results)


def test_threshold_constants():
    assert gradcheck.THRESHOLD == 1e-4
    assert gradcheck.EPSILON == 1e-5
