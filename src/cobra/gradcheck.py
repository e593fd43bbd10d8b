"""Finite-difference verification of every analytic gradient path.

All checks run in float64 on toy instances (dims <= 8, batch <= 4); the
pass threshold is max relative error < 1e-4 with epsilon = 1e-5.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import losses, model as model_mod
from .errors import ConfigError
from .losses import LossWeights
from .nn import Param, affine_backward, affine_forward, finite_diff_grad, max_rel_err
from .training import TrainConfig, softmax_cross_entropy

THRESHOLD = 1e-4
EPSILON = 1e-5
# The check of each contrastive variant, in run order. The published forms
# keep their log/exp names; the literal one is checked on the joint embeddings.
CONTRASTIVE_CHECKS = {
    "setform": "loss_c_setform_exp",
    "nce": "loss_c_nce_log",
    "setform_literal": "loss_c_setform_literal",
}


@dataclass
class CheckResult:
    name: str
    max_rel_err: float

    @property
    def passed(self) -> bool:
        return self.max_rel_err < THRESHOLD


def _compare(name: str, analytic: dict, f, params) -> CheckResult:
    """Max relative error of `analytic` (param name -> gradient) against the
    central difference of `f` over `params`."""
    numeric = finite_diff_grad(f, params, epsilon=EPSILON)
    err = max(max_rel_err(analytic[n], numeric[n]) for n in numeric)
    return CheckResult(name=name, max_rel_err=err)


def _toy_setup(seed: int):
    rng = np.random.default_rng(seed)
    model = model_mod.init_model(
        5, 4, 3, seed=seed, dtype=np.float64, hidden_dim=6, latent_dim=7
    )
    # zero biases put pre-activations exactly on the ReLU kink for samples
    # whose hidden row is fully clipped; nudge params off the kink
    for p in model.params():
        p.value += rng.normal(scale=0.05, size=p.value.shape)
    x_i = rng.normal(size=(4, 5))
    x_t = rng.normal(size=(4, 4))
    y = np.array([0, 1, 2, 0])
    return model, x_i, x_t, y


def _component_config(component: str, **settings) -> TrainConfig:
    """Only `component`'s loss weighted; three negatives per contrastive set."""
    kw = dict(lambda_r=0.0, lambda_s=0.0, lambda_m=0.0, lambda_c=0.0)
    kw[f"lambda_{component}"] = 1.0
    return TrainConfig(weights=LossWeights(**kw), n_negatives=3, **settings)


def _check_model_loss(name: str, cfg: TrainConfig, seed: int) -> CheckResult:
    model, x_i, x_t, y = _toy_setup(seed)

    def breakdown():
        cache = model_mod.forward_full(model, x_i, x_t)
        # fixed-seed sampling keeps the objective a pure function of params
        bd = losses.total_loss(cache, y, cfg, np.random.default_rng(12345))
        return cache, bd

    cache, bd = breakdown()
    model_mod.backward_full(
        model, cache, bd.d_o_image, bd.d_o_text, bd.d_xhat_image, bd.d_xhat_text
    )
    analytic = {p.name: p.grad for p in model.params()}
    return _compare(name, analytic, lambda: breakdown()[1].total, model.params())


def _check_literal_contrastive(name: str, seed: int, variant: str) -> CheckResult:
    """The literal contrastive variant on joint embeddings drawn from the
    positive orthant, so every dot product stays far above CLAMP_FLOOR."""
    rng = np.random.default_rng(seed)
    o_i = Param("o_image", rng.uniform(0.5, 1.5, size=(4, 3)))
    o_t = Param("o_text", rng.uniform(0.5, 1.5, size=(4, 3)))
    y = np.array([0, 1, 2, 0])
    sets, _ = losses.sample_contrastive_sets(y, 3, np.random.default_rng(12345))

    def loss():
        return losses.contrastive_loss(sets, o_i.value, o_t.value, variant=variant)

    _, g_i, g_t, _ = loss()
    analytic = {"o_image": g_i, "o_text": g_t}
    return _compare(name, analytic, lambda: loss()[0], [o_i, o_t])


def _check_affine(seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    w = Param("affine.w", rng.normal(size=(5, 3)))
    b = Param("affine.b", rng.normal(size=(1, 3)))
    x = rng.normal(size=(4, 5))
    upstream = rng.normal(size=(4, 3))

    affine_backward(x, w.value, upstream, w.grad, b.grad)
    return _compare(
        "layer_affine",
        {"affine.w": w.grad, "affine.b": b.grad},
        lambda: float(np.sum(affine_forward(x, w.value, b.value) * upstream)),
        [w, b],
    )


def _check_head(name: str, seed: int, dropout: bool) -> CheckResult:
    """The fusion head under cross-entropy, in eval mode or, with `dropout`,
    in training mode: every forward draws its masks from a fresh generator
    of `seed`, so the masks repeat and the loss is a function of the params."""
    rng = np.random.default_rng(seed)
    head = model_mod.init_head(3, 3, seed=seed, dtype=np.float64, hidden=(5, 4, 3))
    for p in head.params():
        p.value += rng.normal(scale=0.05, size=p.value.shape)
    o_t = rng.normal(size=(4, 3))
    o_i = rng.normal(size=(4, 3))
    y = np.array([0, 1, 2, 1])

    def forward():
        drop_rng = np.random.default_rng(seed) if dropout else None
        hc = model_mod.classify_cached(head, o_t, o_i, rng=drop_rng)
        return hc, softmax_cross_entropy(hc.output, y)

    hc, (_, d_logits) = forward()
    model_mod.classify_backward(head, hc, d_logits)
    analytic = {p.name: p.grad for p in head.params()}
    return _compare(name, analytic, lambda: forward()[1][0], head.params())


def run_gradcheck(seed: int = 0) -> list[CheckResult]:
    """Every loss component plus the layer primitives and classifier head."""
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    results = [_check_affine(seed)]
    for comp in ("r", "m", "s"):
        results.append(_check_model_loss(f"loss_{comp}", _component_config(comp), seed))
    for variant, name in CONTRASTIVE_CHECKS.items():
        if variant.endswith("_literal"):
            results.append(_check_literal_contrastive(name, seed, variant))
        else:
            cfg = _component_config("c", contrastive_variant=variant)
            results.append(_check_model_loss(name, cfg, seed))
    results.append(
        _check_model_loss(
            "loss_total",
            TrainConfig(
                weights=LossWeights(lambda_r=1.0, lambda_s=1.0, lambda_m=1.0, lambda_c=0.1),
                n_negatives=3,
            ),
            seed,
        )
    )
    results.append(_check_head("classifier_cross_entropy", seed, dropout=False))
    results.append(_check_head("classifier_cross_entropy_dropout", seed, dropout=True))
    return results
