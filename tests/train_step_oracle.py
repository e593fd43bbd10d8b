"""Whole-array forms of the three ``cobra.nn`` primitives on the train_step
hot path: the reference the production code is tested against.

``affine_forward`` adds the bias with a broadcast ``x @ w + b``,
``relu_backward`` masks with ``np.where``, and ``sgd_step`` checks each grad
with an entrywise ``isfinite`` pass and then updates that param with a
full-size ``eta * grad`` temporary, one param at a time.
"""

from __future__ import annotations

import numpy as np

from cobra.errors import NumericError, ShapeError


def affine_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    if x.shape[1] != w.shape[0] or b.shape != (1, w.shape[1]):
        raise ShapeError(
            f"affine_forward: x {x.shape}, w {w.shape}, b {b.shape} do not conform"
        )
    return x @ w + b


def relu_backward(x: np.ndarray, upstream: np.ndarray) -> np.ndarray:
    return np.where(x > 0.0, upstream, 0.0)


def sgd_step(params, eta: float):
    for p in params:
        if not np.isfinite(p.grad).all():
            raise NumericError(f"non-finite gradient in param {p.name!r}")
        p.value -= eta * p.grad
