"""Per-anchor loop implementation of contrastive sampling and the setform/NCE
losses: the reference the vectorised code in ``cobra.losses`` is tested
against. Sets here are lists of ``ContrastiveSet`` whose rows are
``(modality, index)`` references; ``as_refs`` converts the vectorised
sampler's stacked-row index arrays to that form.

``NoiseModel`` and ``nce_posterior`` state the NCE posterior
p_J / (p_J + N * p_N) of one sample; the loop ``nce_loss`` takes its noise
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
    """Accumulates per-row joint-space gradients for both modalities."""

    def __init__(self, o_image, o_text):
        self.d_image = np.zeros_like(o_image)
        self.d_text = np.zeros_like(o_text)

    def add(self, ref: Ref, g: np.ndarray):
        (self.d_image if ref[0] == "image" else self.d_text)[ref[1]] += g


def contrastive_loss_setform(
    sets: list[ContrastiveSet],
    o_image,
    o_text,
    score_mode: str = "exp",
    temperature: float = 1.0,
):
    """Set-based contrastive loss, mean over sets.

    Returns (value, grad_o_image, grad_o_text, clamp_count).
    """
    sink = _GradSink(o_image, o_text)
    if not sets:
        return 0.0, sink.d_image, sink.d_text, 0

    total = 0.0
    clamped = 0
    inv_n = 1.0 / len(sets)
    for cs in sets:
        a = _gather(o_image, o_text, cs.anchor)
        others = [cs.positive] + cs.negatives
        vecs = np.stack([_gather(o_image, o_text, r) for r in others])
        dots = vecs @ a / temperature

        if score_mode == "exp":
            # -log softmax weight of the positive among {p, n_1..n_N}
            m = dots.max()
            e = np.exp(dots - m)
            q = e / e.sum()
            total += inv_n * float(np.log(e.sum()) + m - dots[0])
            d_dots = q.copy()
            d_dots[0] -= 1.0
            d_dots *= inv_n
        else:
            raw = vecs @ a
            clamped += int(np.sum(raw < CLAMP_FLOOR))
            u = np.maximum(raw, CLAMP_FLOOR)
            denom = u.sum()
            total += inv_n * float(np.log(denom) - np.log(u[0]))
            d_u = np.full_like(u, 1.0 / denom)
            d_u[0] -= 1.0 / u[0]
            d_u[raw < CLAMP_FLOOR] = 0.0
            d_dots = d_u * inv_n * temperature  # undo the 1/tau below

        scale = 1.0 / temperature
        sink.add(cs.anchor, scale * (d_dots @ vecs))
        for d, r in zip(d_dots, others):
            sink.add(r, scale * d * a)
    return total, sink.d_image, sink.d_text, clamped


def nce_loss(
    sets: list[ContrastiveSet],
    o_image,
    o_text,
    noise: NoiseModel | None = None,
    form: str = "log",
    temperature: float = 1.0,
):
    """NCE objective over the drawn sets, mean over anchors.

    Returns (value, grad_o_image, grad_o_text).
    """
    sink = _GradSink(o_image, o_text)
    if not sets:
        return 0.0, sink.d_image, sink.d_text

    combined = np.concatenate([o_image, o_text], axis=0)
    n_image = o_image.shape[0]

    def gidx(ref: Ref) -> int:
        return ref[1] if ref[0] == "image" else n_image + ref[1]

    pool_size = combined.shape[0] - 1  # every row but the anchor
    total = 0.0
    inv_n = 1.0 / len(sets)
    for cs in sets:
        a_i = gidx(cs.anchor)
        a = combined[a_i]
        pool = np.delete(np.arange(combined.shape[0]), a_i)
        n_noise = len(cs.negatives)
        nm = noise or NoiseModel(n_noise=n_noise, noise_density=1.0 / pool_size)

        scores = combined[pool] @ a / temperature
        m = scores.max()
        e = np.exp(scores - m)
        pi = e / e.sum()  # p_J(s|a) over the pool

        pos_in_pool = {g: k for k, g in enumerate(pool)}
        base = nm.n_noise * nm.noise_density
        h = pi / (pi + base)  # posterior per pool row

        d_pi = np.zeros_like(pi)
        k_pos = pos_in_pool[gidx(cs.positive)]
        if form == "log":
            loss = -np.log(h[k_pos])
            d_pi[k_pos] += -base / (pi[k_pos] * (pi[k_pos] + base))
            for neg in cs.negatives:
                k = pos_in_pool[gidx(neg)]
                loss += -np.log1p(-h[k])
                d_pi[k] += 1.0 / (pi[k] + base)
        else:
            loss = -h[k_pos]
            d_pi[k_pos] += -base / (pi[k_pos] + base) ** 2
            for neg in cs.negatives:
                k = pos_in_pool[gidx(neg)]
                loss += -(1.0 - h[k])
                d_pi[k] += base / (pi[k] + base) ** 2
        total += inv_n * float(loss)

        # softmax backward: d/ds_t = pi_t * (d_pi_t - sum_s d_pi_s pi_s)
        d_scores = pi * (d_pi - float(d_pi @ pi))
        d_scores *= inv_n / temperature
        d_a = d_scores @ combined[pool]
        d_pool = np.outer(d_scores, a)

        d_combined = np.zeros_like(combined)
        d_combined[pool] += d_pool
        d_combined[a_i] += d_a
        sink.d_image += d_combined[:n_image]
        sink.d_text += d_combined[n_image:]
    return total, sink.d_image, sink.d_text
