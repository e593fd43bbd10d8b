"""Minimal dense numeric engine: layer primitives, parameters, SGD, gradient oracle.

Matrices are 2-D numpy arrays. float32 is the training default; gradient
checking requires float64 (finite differences are unreliable in 32-bit).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from .errors import NumericError, ParameterError, ShapeError


@dataclass
class Param:
    """A named weight matrix and its gradient buffer, written by each backward pass."""

    name: str
    value: np.ndarray
    grad: np.ndarray = field(init=False)

    def __post_init__(self):
        self.grad = np.zeros_like(self.value)


class RngStreams:
    """Seeded PCG64 generators, one independent stream per purpose.

    Streams are derived from the seed via numpy SeedSequence spawn keys, so
    e.g. changing how negatives are sampled never perturbs initialization.
    """

    PURPOSES = ("init", "minibatch", "dropout", "negatives")

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._gens = {
            name: np.random.default_rng(
                np.random.SeedSequence(entropy=self.seed, spawn_key=(i,))
            )
            for i, name in enumerate(self.PURPOSES)
        }

    def get(self, purpose: str) -> np.random.Generator:
        return self._gens[purpose]

    def derive(self, purpose_index: int) -> np.random.Generator:
        """A fresh generator keyed off (seed, purpose); every call restarts the
        same draws (e.g. the validation loss's contrastive sets)."""
        return np.random.default_rng(
            np.random.SeedSequence(entropy=self.seed, spawn_key=(purpose_index, 0))
        )


def affine_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """y = x @ w + b, bias row broadcast over the batch."""
    if x.shape[1] != w.shape[0] or b.shape != (1, w.shape[1]):
        raise ShapeError(
            f"affine_forward: x {x.shape}, w {w.shape}, b {b.shape} do not conform"
        )
    y = x @ w
    y += b
    return y


def affine_backward(x, w, upstream, grad_w, grad_b) -> np.ndarray:
    """Backward of y = x @ w + b: writes the weight and bias gradients into
    grad_w and grad_b, overwriting them, and returns grad_x."""
    if upstream.shape != (x.shape[0], w.shape[1]):
        raise ShapeError(
            f"affine_backward: upstream {upstream.shape} != output shape "
            f"({x.shape[0]}, {w.shape[1]})"
        )
    np.matmul(x.T, upstream, out=grad_w)
    np.sum(upstream, axis=0, keepdims=True, out=grad_b)
    return upstream @ w.T


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def relu_backward(x: np.ndarray, upstream: np.ndarray) -> np.ndarray:
    """Gradient through ReLU: upstream * (x > 0). The subgradient at exactly
    0 is taken as 0.

    A dead unit (x <= 0, or NaN) passes upstream * 0: ±0 for a finite
    upstream, and NaN for a non-finite one (a np.where mask gave 0 there).
    sgd_step then halts on that NaN with a NumericError (exit 4), as on any
    other non-finite gradient.
    """
    return upstream * (x > 0.0)


def dropout(x: np.ndarray, p: float, rng: np.random.Generator):
    """Inverted dropout, run in training forwards only: survivors scaled by
    1/(1-p). Returns (y, mask); the backward pass is upstream * mask."""
    if not 0.0 <= p < 1.0:
        raise ParameterError(f"dropout probability must be in [0, 1), got {p}")
    keep = rng.random(x.shape) >= p
    mask = keep.astype(x.dtype) / x.dtype.type(1.0 - p)
    return x * mask, mask


_CHUNK = 1 << 16  # elements per sgd_step update chunk


def sgd_step(params: Iterable[Param], eta: float):
    """In-place value <- value - eta * grad over every param.

    Every gradient is checked before any value changes, so a NumericError
    leaves all values as they were. A grad passes when its sum of squares is
    finite, which proves every entry finite; only when it is not does an
    entrywise isfinite pass decide (a finite grad whose square overflows
    passes). The update then runs in chunks of _CHUNK elements through one
    small scratch buffer, with the same arithmetic as value -= eta * grad.
    """
    flat = []
    with np.errstate(over="ignore"):  # an overflowing square is not an error
        for p in params:
            g = p.grad.reshape(-1)
            if not np.isfinite(np.dot(g, g)) and not np.isfinite(g).all():
                raise NumericError(f"non-finite gradient in param {p.name!r}")
            if not p.value.flags.c_contiguous:
                raise ShapeError(f"param {p.name!r}: value is not C-contiguous")
            flat.append((p.value.reshape(-1), g))
    tmp = None
    for v, g in flat:
        dtype = np.result_type(g, eta)  # the dtype of eta * grad
        if tmp is None or tmp.dtype != dtype:
            tmp = np.empty(_CHUNK, dtype)
        for s in range(0, g.size, _CHUNK):
            e = min(s + _CHUNK, g.size)
            np.multiply(g[s:e], eta, out=tmp[: e - s])
            v[s:e] -= tmp[: e - s]


def finite_diff_grad(
    f: Callable[[], float], params: Iterable[Param], epsilon: float = 1e-5
) -> dict[str, np.ndarray]:
    """Central-difference gradient of a deterministic scalar function.

    f() must depend on the params only through their current values; use
    float64 params for meaningful results.
    """
    if epsilon <= 0:
        raise ParameterError(f"epsilon must be positive, got {epsilon}")
    grads = {}
    for p in params:
        g = np.zeros_like(p.value)
        flat_v = p.value.reshape(-1)
        flat_g = g.reshape(-1)
        for i in range(flat_v.size):
            orig = flat_v[i]
            flat_v[i] = orig + epsilon
            hi = f()
            flat_v[i] = orig - epsilon
            lo = f()
            flat_v[i] = orig
            flat_g[i] = (hi - lo) / (2.0 * epsilon)
        grads[p.name] = g
    return grads


def glorot_uniform(
    rng: np.random.Generator, fan_in: int, fan_out: int, dtype=np.float32
) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out)).astype(dtype)


_REL_ERR_FLOOR = 1e-8  # max_rel_err's least denominator


def max_rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Max |a-n| / max(|a|, |n|, _REL_ERR_FLOOR) over entries."""
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), _REL_ERR_FLOOR)
    return float(np.max(np.abs(analytic - numeric) / denom))
