"""The fusion head's training step before ReLU and dropout were fused: the
reference ``model.classify_cached`` and ``model.classify_backward`` are
tested against.

A training forward runs ``relu`` and then ``dropout``, which draws one
float64 ``rng.random`` per unit, keeps the units whose draw is ``>= p`` and
scales them by ``1/(1-p)`` in the activations' dtype. The backward pass
multiplies by that mask and then runs ``relu_backward``. ``keep_mask`` is
the same float64 draw in the form of ``nn.keep_mask``: patched in, it makes
the fused production step take this step's draws.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from cobra import model as model_mod, nn
from cobra.errors import ParameterError


def keep_mask(shape, p: float, rng: np.random.Generator):
    return rng.random(shape) >= p, 1.0 / (1.0 - p)


def dropout(x: np.ndarray, p: float, rng: np.random.Generator):
    if not 0.0 <= p < 1.0:
        raise ParameterError(f"dropout probability must be in [0, 1), got {p}")
    keep = rng.random(x.shape) >= p
    mask = keep.astype(x.dtype) / x.dtype.type(1.0 - p)
    return x * mask, mask


@dataclass
class HeadCache:
    """Per-layer inputs, pre-activations and dropout masks of one forward."""

    inputs: list[np.ndarray]
    pres: list[np.ndarray]
    output: np.ndarray
    masks: list[np.ndarray | None]


def classify_cached(head, o_text, o_image, rng=None) -> HeadCache:
    x = np.concatenate([o_text, o_image], axis=1)
    inputs, pres, masks = [], [], []
    h = x
    for i, (w, b) in enumerate(head.layers):
        inputs.append(h)
        pre = nn.affine_forward(h, w.value, b.value)
        pres.append(pre)
        mask = None
        if i < len(head.layers) - 1:
            h = nn.relu(pre)
            if rng is not None:
                h, mask = dropout(h, model_mod.HEAD_DROPOUT[i], rng)
        else:
            h = pre
        masks.append(mask)
    return HeadCache(inputs=inputs, pres=pres, output=h, masks=masks)


def classify_backward(head, cache: HeadCache, d_logits: np.ndarray):
    d = d_logits
    for i in range(len(head.layers) - 1, -1, -1):
        w, b = head.layers[i]
        if i < len(head.layers) - 1:
            if cache.masks[i] is not None:
                d = d * cache.masks[i]
            d = nn.relu_backward(cache.pres[i], d)
        d = nn.affine_backward(cache.inputs[i], w.value, d, w.grad, b.grad)
