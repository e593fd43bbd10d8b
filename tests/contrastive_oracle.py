"""Per-anchor loop implementation of contrastive sampling and of the three
contrastive loss variants: the reference the vectorised code in
``cobra.losses`` is tested against. Sets here are lists of ``ContrastiveSet``
whose rows are ``(modality, index)`` references; ``as_refs`` converts the
vectorised sampler's stacked-row index arrays to that form.

``NoiseModel`` and ``nce_posterior`` state the NCE posterior
p_J / (p_J + N * p_N) of one sample; the loop NCE loss takes its noise
model from them, and the acceptance tests check their closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from cobra.errors import ConfigError, NumericError
from cobra.losses import CLAMP_FLOOR

Ref = tuple[str, int]  # (modality, row index within that modality's batch)


@dataclass
class NoiseModel:
    n_noise: int
    noise_density: float

    def __post_init__(self):
        if self.n_noise < 1:
            raise ConfigError(f"n_noise must be >= 1, got {self.n_noise}")
        if self.noise_density <= 0:
            raise ConfigError(f"noise_density must be positive, got {self.noise_density}")


def nce_posterior(score_joint: float, noise: NoiseModel) -> float:
    """Probability that a sample came from the joint rather than the noise
    distribution: p_J / (p_J + N * p_N)."""
    if score_joint <= 0:
        raise NumericError(f"joint density must be positive, got {score_joint}")
    return score_joint / (score_joint + noise.n_noise * noise.noise_density)


@dataclass
class ContrastiveSet:
    anchor: Ref
    positive: Ref
    negatives: list[Ref]


def as_refs(sets, n_image: int) -> list[ContrastiveSet]:
    """The array-form sets over stacked [image; text] rows as a set list."""

    def ref(g) -> Ref:
        g = int(g)
        return ("image", g) if g < n_image else ("text", g - n_image)

    return [
        ContrastiveSet(ref(a), ref(p), [ref(n) for n in negs])
        for a, p, negs in zip(sets.anchor, sets.positive, sets.negatives)
    ]


def sample_contrastive_sets(
    labels_image,
    labels_text,
    n_negatives: int,
    rng: np.random.Generator,
) -> tuple[list[ContrastiveSet], int]:
    """Draws anchor/positive/negative sets from one minibatch, one anchor at
    a time. Returns (sets, skipped_count)."""
    if n_negatives < 1:
        raise ConfigError(f"n_negatives must be >= 1, got {n_negatives}")
    rows: list[tuple[Ref, int]] = [
        (("image", i), int(c)) for i, c in enumerate(np.asarray(labels_image))
    ] + [(("text", i), int(c)) for i, c in enumerate(np.asarray(labels_text))]

    sets: list[ContrastiveSet] = []
    skipped = 0
    for a_idx in range(len(rows)):
        (a_ref, a_cls) = rows[a_idx]
        positives = [
            r
            for j, (r, c) in enumerate(rows)
            if j != a_idx and c == a_cls and r[0] == a_ref[0]
        ]
        negatives_pool = [r for (r, c) in rows if c != a_cls]
        if not positives or not negatives_pool:
            skipped += 1
            continue
        pos = positives[rng.integers(len(positives))]
        replace = len(negatives_pool) < n_negatives
        picks = rng.choice(len(negatives_pool), size=n_negatives, replace=replace)
        negs = [negatives_pool[k] for k in picks]
        sets.append(ContrastiveSet(anchor=a_ref, positive=pos, negatives=negs))
    return sets, skipped


def _gather(o_image, o_text, ref: Ref) -> np.ndarray:
    return (o_image if ref[0] == "image" else o_text)[ref[1]]


class _GradSink:
    """Accumulates per-row joint-space gradients for both modalities, and
    per entry the sum of the absolute values of the terms added to it. That
    sum bounds how far another order of adding the same terms can round."""

    def __init__(self, o_image, o_text):
        self.d = {"image": np.zeros_like(o_image), "text": np.zeros_like(o_text)}
        self.size = {"image": np.zeros_like(o_image), "text": np.zeros_like(o_text)}

    def add(self, ref: Ref, g: np.ndarray, size: np.ndarray):
        self.d[ref[0]][ref[1]] += g
        self.size[ref[0]][ref[1]] += size

    def result(self, value: float, clamped: int):
        """(value, grad_o_image, grad_o_text, clamp_count), (bounds)."""
        return (value, self.d["image"], self.d["text"], clamped), (
            self.size["image"],
            self.size["text"],
        )


def contrastive_loss(sets: list[ContrastiveSet], o_image, o_text, variant: str):
    """The contrastive loss `variant`, mean over sets, one set at a time.

    Returns ((value, grad_o_image, grad_o_text, clamp_count), (bound_image,
    bound_text)): the bounds hold, per gradient entry, the summed absolute
    values of the terms that make it up.
    """
    sink = _GradSink(o_image, o_text)
    total, clamped = 0.0, 0
    for cs in sets:
        if variant == "nce":
            value, n_clamped = _nce(cs, o_image, o_text, sink)
        else:
            value, n_clamped = _setform(cs, o_image, o_text, sink, variant == "setform_literal")
        total += value / len(sets)
        clamped += n_clamped
    if sets:
        for d in (*sink.d.values(), *sink.size.values()):
            d /= len(sets)
    return sink.result(total, clamped)


def _setform(cs, o_image, o_text, sink, literal: bool):
    """One set's setform loss; its gradient goes to `sink`."""
    a = _gather(o_image, o_text, cs.anchor)
    others = [cs.positive] + cs.negatives
    vecs = np.stack([_gather(o_image, o_text, r) for r in others])
    first = np.zeros(len(others))
    first[0] = 1.0
    clamped = 0
    if not literal:
        # -log softmax weight of the positive among {p, n_1..n_N}
        dots = vecs @ a
        m = dots.max()
        e = np.exp(dots - m)
        q = e / e.sum()
        value = float(np.log(e.sum()) + m - dots[0])
        d_dots = q - first
        d_size = q + first
    else:
        raw = vecs @ a
        clamped = int(np.sum(raw < CLAMP_FLOOR))
        u = np.maximum(raw, CLAMP_FLOOR)
        denom = u.sum()
        value = float(np.log(denom) - np.log(u[0]))
        d_dots = 1.0 / denom - first / u[0]
        d_size = 1.0 / denom + first / u[0]
        d_dots[raw < CLAMP_FLOOR] = 0.0
        d_size[raw < CLAMP_FLOOR] = 0.0
    sink.add(cs.anchor, d_dots @ vecs, d_size @ np.abs(vecs))
    for d, size, r in zip(d_dots, d_size, others):
        sink.add(r, d * a, size * np.abs(a))
    return value, clamped


def _nce(cs, o_image, o_text, sink):
    """One set's NCE log-likelihood loss against the whole minibatch pool but the anchor;
    its gradient goes to `sink`."""
    rows = [("image", i) for i in range(o_image.shape[0])]
    rows += [("text", i) for i in range(o_text.shape[0])]
    pool = [r for r in rows if r != cs.anchor]
    a = _gather(o_image, o_text, cs.anchor)
    vecs = np.stack([_gather(o_image, o_text, r) for r in pool])
    nm = NoiseModel(n_noise=len(cs.negatives), noise_density=1.0 / len(pool))

    scores = vecs @ a
    e = np.exp(scores - scores.max())
    pi = e / e.sum()  # p_J(s|a) over the pool
    base = nm.n_noise * nm.noise_density
    h = pi / (pi + base)  # posterior per pool row

    d_pi = np.zeros_like(pi)
    k = pool.index(cs.positive)
    value = -np.log(h[k])
    d_pi[k] += -base / (pi[k] * (pi[k] + base))
    for neg in cs.negatives:
        k = pool.index(neg)
        value += -np.log1p(-h[k])
        d_pi[k] += 1.0 / (pi[k] + base)

    # softmax backward: d/ds_t = pi_t * (d_pi_t - sum_s d_pi_s pi_s)
    d_scores = pi * (d_pi - float(d_pi @ pi))
    d_size = pi * (np.abs(d_pi) + float(np.abs(d_pi) @ pi))
    sink.add(cs.anchor, d_scores @ vecs, d_size @ np.abs(vecs))
    for d, size, r in zip(d_scores, d_size, pool):
        sink.add(r, d * a, size * np.abs(a))
    return float(value), 0
