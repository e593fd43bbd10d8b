"""The four training objectives and their gradients.

Reconstruction, cross-modal alignment and supervised (one-hot regression)
losses are squared errors, each divided by its row count: 2B for the
reconstruction term (both modalities' rows), B for the other two, so the
loss weights do not depend on the batch size B. The contrastive term, a
mean over drawn sets, is ``contrastive_loss`` with one of three variants
(CONTRASTIVE_VARIANTS):

* ``nce`` -- noise contrastive estimation with a uniform noise distribution
  over the minibatch pool. The joint density of a candidate given the anchor
  is softmax(anchor . candidate) over all other rows of the minibatch; the
  loss is the NCE log-likelihood.
* ``setform`` -- softmax contrast of an anchor against one positive and N
  negatives. The printed score is a raw dot product, which is ill-defined
  inside a log ratio for nonpositive scores, so this form exponentiates it
  (the InfoNCE form of CPC).
* ``setform_literal`` -- raw dot products, clamped below at 1e-12.

Every variant scores at temperature 1, as CPC and NCE do: no score is
rescaled before the softmax.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConfigError, LabelError, PairingError, ShapeError

if TYPE_CHECKING:
    from .training import TrainConfig

CLAMP_FLOOR = 1e-12


def check_choice(name: str, value, choices: tuple):
    if value not in choices:
        raise ConfigError(f"{name} must be one of {choices}, got {value!r}")


@dataclass
class LossWeights:
    lambda_r: float = 1.0
    lambda_s: float = 1.0
    lambda_m: float = 1.0
    lambda_c: float = 0.1

    def __post_init__(self):
        vals = (self.lambda_r, self.lambda_s, self.lambda_m, self.lambda_c)
        for f, v in zip(fields(self), vals):
            if not 0 <= v < np.inf:  # NaN fails too
                raise ConfigError(f"{f.name} must be nonnegative and finite, got {v}")
        if all(v == 0 for v in vals):
            raise ConfigError("at least one loss weight must be positive")


# Anchors per block of the in-batch score matrix. Contrastive temporaries are
# block x rows, so scoring a whole validation split keeps memory bounded.
_ANCHOR_BLOCK = 256


@dataclass(eq=False)
class ContrastiveSets:
    """Drawn sets as indices into the stacked [image; text] minibatch rows:
    anchor (A,), positive (A,) and negatives (A, N). len() counts the sets."""

    anchor: np.ndarray
    positive: np.ndarray
    negatives: np.ndarray

    def __len__(self) -> int:
        return self.anchor.shape[0]


@dataclass
class LossBreakdown:
    l_r: float = 0.0
    l_m: float = 0.0
    l_s: float = 0.0
    l_c: float = 0.0
    total: float = 0.0
    d_o_image: np.ndarray | None = None
    d_o_text: np.ndarray | None = None
    d_xhat_image: np.ndarray | None = None
    d_xhat_text: np.ndarray | None = None
    skipped_anchors: int = 0
    clamped_scores: int = 0


def recon_loss(x_hat_image, x_image, x_hat_text, x_text):
    """Squared reconstruction error over both modalities, per row.

    Returns (value, grad_xhat_image, grad_xhat_text).
    """
    if x_hat_image.shape != x_image.shape or x_hat_text.shape != x_text.shape:
        raise ShapeError(
            f"recon_loss: shapes {x_hat_image.shape}/{x_image.shape} and "
            f"{x_hat_text.shape}/{x_text.shape} must match per modality"
        )
    s = 1.0 / (x_image.shape[0] + x_text.shape[0])
    r_i = x_hat_image - x_image
    r_t = x_hat_text - x_text
    value = s * (float(np.sum(r_i * r_i)) + float(np.sum(r_t * r_t)))
    return value, 2.0 * s * r_i, 2.0 * s * r_t


def cross_modal_loss(o_text, o_image):
    """Squared distance between index-aligned joint projections, per pair.

    Returns (value, grad_o_text, grad_o_image).
    """
    if o_text.shape != o_image.shape:
        raise PairingError(
            f"cross_modal_loss: {o_text.shape} vs {o_image.shape}; rows must be "
            "index-aligned pairs"
        )
    s = 1.0 / o_text.shape[0]
    r = o_text - o_image
    return s * float(np.sum(r * r)), 2.0 * s * r, -2.0 * s * r


def supervised_loss(o, labels, num_classes):
    """Squared distance from each projection to its one-hot label, per row.

    Returns (value, grad_o). Call once per modality and sum.
    """
    labels = np.asarray(labels)
    if o.shape[1] != num_classes:
        raise ConfigError(
            f"supervised_loss: joint dim {o.shape[1]} != num_classes {num_classes}"
        )
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise LabelError(f"labels must lie in [0, {num_classes})")
    if labels.shape[0] != o.shape[0]:
        raise ShapeError(f"{labels.shape[0]} labels for {o.shape[0]} rows")
    y = np.zeros_like(o)
    y[np.arange(o.shape[0]), labels] = 1.0
    s = 1.0 / o.shape[0]
    r = o - y
    return s * float(np.sum(r * r)), 2.0 * s * r


def sample_contrastive_sets(
    labels, n_negatives: int, rng: np.random.Generator
) -> tuple[ContrastiveSets, int]:
    """Draws one set per eligible row of the stacked [image; text] minibatch,
    whose image and text rows share the one label vector of the pairs.

    The positive is uniform over the other rows of the anchor's modality and
    class. The negatives are uniform over the rows of any modality with a
    different class: without replacement, or with replacement when fewer
    than n_negatives such rows exist. Anchors without a positive or without
    a negative are skipped and counted. Returns (sets, skipped_count).
    """
    if n_negatives < 1:
        raise ConfigError(f"n_negatives must be >= 1, got {n_negatives}")
    labels = np.concatenate([labels, labels])
    n_rows = labels.size
    _, cls, cls_count = np.unique(labels, return_inverse=True, return_counts=True)
    grp = cls + cls_count.size * (np.arange(n_rows) >= n_rows // 2)  # (modality, class)
    _, grp, grp_count = np.unique(grp, return_inverse=True, return_counts=True)
    n_pos = grp_count[grp] - 1
    n_pool = n_rows - cls_count[cls]
    anchor = np.flatnonzero((n_pos > 0) & (n_pool > 0))

    # positive: the k-th row of the anchor's group in row order, the anchor left out
    by_grp = np.argsort(grp, kind="stable")
    grp_start = np.cumsum(grp_count) - grp_count
    rank = np.empty(n_rows, dtype=np.intp)
    rank[by_grp] = np.arange(n_rows) - grp_start[grp[by_grp]]
    k = rng.integers(n_pos[anchor])
    positive = by_grp[grp_start[grp[anchor]] + k + (k >= rank[anchor])]

    negatives = np.empty((anchor.size, n_negatives), dtype=np.intp)
    wide = n_pool[anchor] >= n_negatives
    # without replacement: the n_negatives pool rows with the smallest uniform keys
    idx = np.flatnonzero(wide)
    for lo in range(0, idx.size, _ANCHOR_BLOCK):
        blk = idx[lo : lo + _ANCHOR_BLOCK]
        keys = rng.random((blk.size, n_rows))
        keys[cls[anchor[blk], None] == cls] = 2.0
        negatives[blk] = np.argpartition(keys, n_negatives - 1, axis=1)[:, :n_negatives]
    # with replacement: the k-th pool row, rows ordered by class
    idx = np.flatnonzero(~wide)
    c = cls[anchor[idx], None]
    k = rng.integers(n_pool[anchor[idx], None], size=(idx.size, n_negatives))
    by_cls = np.argsort(cls, kind="stable")
    cls_start = np.cumsum(cls_count) - cls_count
    negatives[idx] = by_cls[k + cls_count[c] * (k >= cls_start[c])]
    return ContrastiveSets(anchor, positive, negatives), n_rows - anchor.size


def _scatter(values, cols, n_cols: int) -> np.ndarray:
    """Dense (rows, n_cols) matrix holding values[i, j] at [i, cols[i, j]];
    repeated columns add up."""
    n = values.shape[0]
    flat = (np.arange(n)[:, None] * n_cols + cols).ravel()
    dense = np.bincount(flat, values.ravel(), n * n_cols).reshape(n, n_cols)
    return dense.astype(values.dtype, copy=False)


def _setform_block(dots, anchor, cand):
    """Set-form loss of one block: -log softmax weight of the positive among
    the scores of {p, n_1..n_N}."""
    raw = dots[np.arange(anchor.size)[:, None], cand]
    m = raw.max(axis=1, keepdims=True)
    e = np.exp(raw - m)
    e_sum = e.sum(axis=1, keepdims=True)
    value = float(np.sum(np.log(e_sum) + m - raw[:, :1]))
    d_raw = e / e_sum
    d_raw[:, 0] -= 1.0
    return value, _scatter(d_raw, cand, dots.shape[1]), 0


def _setform_literal_block(dots, anchor, cand):
    """Set-form loss of one block on the raw dot products, clamped below at
    CLAMP_FLOOR; counts the clamped scores."""
    raw = dots[np.arange(anchor.size)[:, None], cand]
    low = raw < CLAMP_FLOOR
    u = np.maximum(raw, CLAMP_FLOOR)
    denom = u.sum(axis=1, keepdims=True)
    value = float(np.sum(np.log(denom) - np.log(u[:, :1])))
    d_raw = np.repeat(1.0 / denom, u.shape[1], axis=1)
    d_raw[:, 0] -= 1.0 / u[:, 0]
    d_raw[low] = 0.0
    return value, _scatter(d_raw, cand, dots.shape[1]), int(low.sum())


def _nce_block(dots, anchor, cand):
    """NCE log-likelihood loss of one block. p_J(s|a) is softmax(a.s) over
    every minibatch row except the anchor; p_N is uniform over that same
    pool, with N = n_negatives noise samples. Overwrites `dots`."""
    n_rows = dots.shape[1]
    base = (cand.shape[1] - 1) / (n_rows - 1)  # N * p_N
    dots[np.arange(anchor.size), anchor] = -np.inf  # the anchor is not in its pool
    dots -= dots.max(axis=1, keepdims=True)
    pi = np.exp(dots)
    pi /= pi.sum(axis=1, keepdims=True)
    p = pi[np.arange(anchor.size)[:, None], cand]
    h = p / (p + base)  # posterior of the positive and each negative
    value = -np.sum(np.log(h[:, 0])) - np.sum(np.log1p(-h[:, 1:]))
    # d/dp of -log h (the positive) and of -log(1 - h) (each negative)
    d_p = 1.0 / (p + base)
    d_p[:, 0] = -base / (p[:, 0] * (p[:, 0] + base))
    # softmax backward: d/ds_t = pi_t * (d_pi_t - sum_s d_pi_s pi_s)
    d_pi = _scatter(d_p, cand, n_rows)
    d_s = pi * (d_pi - np.sum(d_p * p, axis=1, keepdims=True))
    return float(value), d_s, 0


# variant -> block function. A block function gets a block's dot products
# with every row (B, rows), its anchor rows (B,) and candidate rows (B, N+1;
# the positive first), and returns (summed set loss, gradient w.r.t. the
# dots, clamp count).
_BLOCKS = {"nce": _nce_block, "setform": _setform_block, "setform_literal": _setform_literal_block}
CONTRASTIVE_VARIANTS = tuple(_BLOCKS)


def contrastive_loss(sets: ContrastiveSets, o_image, o_text, *, variant: str):
    """The contrastive loss `variant` (one of CONTRASTIVE_VARIANTS), mean
    over sets, on scores at temperature 1, as in CPC.

    Anchors are scored against every stacked [image; text] row, a block of
    anchors at a time, by the variant's block function in _BLOCKS, and the
    gradient flows back through the dot products.
    Returns (value, grad_o_image, grad_o_text, clamp_count).
    """
    check_choice("contrastive_variant", variant, CONTRASTIVE_VARIANTS)
    if len(sets) == 0:
        return 0.0, np.zeros_like(o_image), np.zeros_like(o_text), 0
    block_loss = _BLOCKS[variant]
    x = np.concatenate([o_image, o_text], axis=0)
    d_x = np.zeros_like(x)
    cand = np.column_stack([sets.positive, sets.negatives])
    total, clamped = 0.0, 0
    for lo in range(0, len(sets), _ANCHOR_BLOCK):
        a = sets.anchor[lo : lo + _ANCHOR_BLOCK]
        x_a = x[a]
        value, d_dots, n_clamped = block_loss(x_a @ x.T, a, cand[lo : lo + _ANCHOR_BLOCK])
        total += value
        clamped += n_clamped
        d_x += d_dots.T @ x_a
        np.add.at(d_x, a, d_dots @ x)
    inv_n = 1.0 / len(sets)
    d_x *= inv_n
    n_image = o_image.shape[0]
    return inv_n * total, d_x[:n_image], d_x[n_image:], clamped


def total_loss(cache, labels, cfg: TrainConfig, rng: np.random.Generator) -> LossBreakdown:
    """Assembles the weighted objective and its upstream gradients from a
    ForwardCache of pairs and their one label vector, with the weights and
    loss settings of `cfg`. Component gradients targeting the same tensor are
    summed with their weights applied."""
    weights = cfg.weights
    img, txt = cache.image, cache.text
    bd = LossBreakdown(
        d_o_image=np.zeros_like(img.o),
        d_o_text=np.zeros_like(txt.o),
        d_xhat_image=np.zeros_like(img.x_hat),
        d_xhat_text=np.zeros_like(txt.x_hat),
    )

    bd.l_r, g_xi, g_xt = recon_loss(img.x_hat, img.x, txt.x_hat, txt.x)
    bd.d_xhat_image += weights.lambda_r * g_xi
    bd.d_xhat_text += weights.lambda_r * g_xt

    if weights.lambda_m > 0:
        bd.l_m, g_ot, g_oi = cross_modal_loss(txt.o, img.o)
        bd.d_o_text += weights.lambda_m * g_ot
        bd.d_o_image += weights.lambda_m * g_oi

    c = img.o.shape[1]
    l_s_i, g_si = supervised_loss(img.o, labels, c)
    l_s_t, g_st = supervised_loss(txt.o, labels, c)
    bd.l_s = l_s_i + l_s_t
    bd.d_o_image += weights.lambda_s * g_si
    bd.d_o_text += weights.lambda_s * g_st

    if weights.lambda_c > 0:
        sets, bd.skipped_anchors = sample_contrastive_sets(labels, cfg.n_negatives, rng)
        bd.l_c, g_ci, g_ct, bd.clamped_scores = contrastive_loss(
            sets, img.o, txt.o, variant=cfg.contrastive_variant
        )
        bd.d_o_image += weights.lambda_c * g_ci
        bd.d_o_text += weights.lambda_c * g_ct

    bd.total = (
        weights.lambda_r * bd.l_r
        + weights.lambda_s * bd.l_s
        + weights.lambda_m * bd.l_m
        + weights.lambda_c * bd.l_c
    )
    return bd
