"""Minimal dense numeric engine: layer primitives, parameters, SGD, gradient
oracle, and the seeded random streams.

Every generator the package draws from a seed is ``rng(seed, purpose)``,
with the purpose's SeedSequence spawn key in ``STREAMS``.

Matrices are 2-D numpy arrays. float32 is the training default; gradient
checking requires float64 (finite differences are unreliable in 32-bit).
"""

from __future__ import annotations

import math
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


# The SeedSequence spawn key of each seeded stream. Streams with different
# keys are independent, so e.g. changing how negatives are drawn never
# perturbs initialisation; a key changed here changes every artefact.
STREAMS = {
    "init": (0,),
    "minibatch": (1,),
    "dropout": (2,),
    "negatives": (3,),
    "validation": (4, 0),
    "split": (8,),
    "synthetic": (9,),
}


def rng(seed: int, purpose: str) -> np.random.Generator:
    """A fresh PCG64 generator for `purpose` under `seed`: every call with the
    same two arguments restarts the same draws."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=STREAMS[purpose])
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


_WORD = 1 << 16  # keep_mask draws one 16-bit word per unit


def keep_mask(shape: tuple[int, ...], p: float, rng: np.random.Generator):
    """Inverted-dropout keep draws for an array of `shape` at drop probability p.

    Each unit takes one 16-bit word of the generator's raw 64-bit output (four
    units per output) and is kept when its word is >= t = round(p * 2**16). So
    the realised drop probability is t / 2**16: p = 0.5 is exact, and p = 0.2
    runs at 13107/65536 = 0.199997. Returns (keep, scale): a bool array and
    the survivor scale 2**16 / (2**16 - t), which makes E[keep * scale]
    exactly 1 at the realised p. A p outside [0, 1), or one that rounds to
    t = 2**16, is a ParameterError.
    """
    t = round(p * _WORD) if 0.0 <= p < 1.0 else _WORD
    if t >= _WORD:
        raise ParameterError(f"dropout probability must be in [0, 1 - 2**-17), got {p}")
    n = math.prod(shape)
    words = rng.bit_generator.random_raw(-(-n // 4)).view(np.uint16)[:n]
    return (words >= t).reshape(shape), _WORD / (_WORD - t)


def relu_dropout(pre: np.ndarray, p: float, rng: np.random.Generator):
    """ReLU followed by inverted dropout, fused, for training forwards.

    Returns (h, mask): mask = keep & (pre > 0) times the survivor scale of
    keep_mask, and h = pre * mask, written into `pre`. The mask holds the
    ReLU's gradient as well, so the backward pass is upstream * mask alone.
    """
    keep, scale = keep_mask(pre.shape, p, rng)
    keep &= pre > 0.0
    mask = np.multiply(keep, pre.dtype.type(scale))
    pre *= mask
    return pre, mask


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
