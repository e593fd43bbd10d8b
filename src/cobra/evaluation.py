"""Cross-modal retrieval scoring (AP / mAP), classification accuracy, and
joint-embedding export.

Retrieval ranks the gallery by cosine similarity over the joint embeddings,
ties broken by ascending gallery index; an item is relevant iff it shares
the query's class. AP is computed over the full ranked list. Queries with no
relevant gallery item have undefined AP and are excluded from the mean (and
counted), unless ``zero_relevant="zero"`` scores them as 0.

Queries are ranked in blocks of ``_QUERY_BLOCK`` rows. A float32 block (the
scores of a v2 checkpoint's model) takes one int64 sort of an order-keeping
key per score, which gives the tie-by-index order bit for bit; a float64
block takes a fast argsort, then an integer key sort of only the rows with
equal scores. ``rank_gallery`` and ``average_precision`` hold the two
conventions and take such a block along the last axis.
``retrieval_report`` embeds each modality once for both directions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import model as model_mod
from .data import FeatureDataset, PairedDataset, write_feature_file
from .errors import ConfigError, NumericError
from .model import ClassifierHead, CobraModel

DIRECTIONS = ("ITT", "TTI")
ZERO_RELEVANT = ("exclude", "zero")
# Queries ranked at once: on a 3500-item gallery a float32 block's int32 key
# stays near 3.5 MB and its int64 sort keys near 7 MB; a float64 block's
# score and index arrays near 7 MB each.
_QUERY_BLOCK = 256


@dataclass
class RetrievalFragment:
    direction: str
    map_value: float
    ap_per_query: list[float]
    n_queries: int
    n_excluded: int


@dataclass
class RetrievalReport:
    map_itt: float
    map_tti: float
    map_avg: float
    fragments: dict[str, RetrievalFragment] = field(default_factory=dict)

    def record_lines(self) -> list[str]:
        lines = []
        for d in DIRECTIONS:
            f = self.fragments[d]
            lines.append(
                f"direction={d} map={f.map_value:.5f} "
                f"queries={f.n_queries} excluded={f.n_excluded}"
            )
        lines.append(f"map_avg={self.map_avg:.5f}")
        return lines


def similarity_matrix(queries: np.ndarray, gallery: np.ndarray) -> np.ndarray:
    """Pairwise cosine similarities; zero-norm rows map to 0 similarity."""
    qn = np.linalg.norm(queries, axis=1, keepdims=True)
    gn = np.linalg.norm(gallery, axis=1, keepdims=True)
    q = np.divide(queries, qn, out=np.zeros_like(queries), where=qn > 0)
    g = np.divide(gallery, gn, out=np.zeros_like(gallery), where=gn > 0)
    return q @ g.T


def rank_gallery(sims: np.ndarray) -> np.ndarray:
    """Indices by descending similarity along the last axis, ties broken by
    ascending index.

    float32 scores take the one sort of ``_key_order``. Other scores take
    the fast default argsort: a row without equal scores has one sorted
    order, which it finds; only rows whose sorted scores are not strictly
    decreasing (equal scores, -0.0 and 0.0, NaN) are repaired by
    ``_order_ties``. float64 keeps this path because its key does not fit in
    one int64 beside the index, and on a 256x3500 float64 block this path
    took 31 ms against 97 ms for a stable argsort.
    """
    sims = np.asarray(sims)
    if sims.dtype == np.float32:
        return _key_order(sims)
    neg = -sims
    order = np.argsort(neg, axis=-1)
    neg.sort(axis=-1)
    tied = ~np.all(neg[..., 1:] > neg[..., :-1], axis=-1)
    if np.any(tied):
        order[tied] = _order_ties(neg[tied], order[tied])
    return order


def _key_order(sims: np.ndarray) -> np.ndarray:
    """Stable descending order of float32 scores: one int64 sort of
    ``~key << 32 | index``. The key maps the float's bits to an int32 in
    float order (a negative float's magnitude bits are flipped); -0.0 takes
    0.0's key and every NaN the lowest key, so each is one run, NaNs last,
    as in a stable sort. ``~`` rather than negation reverses the order
    without overflowing the lowest key."""
    bits = sims.view(np.int32)
    key = bits ^ ((bits >> 31) & 0x7FFFFFFF)
    key[sims == 0] = 0
    key[np.isnan(sims)] = np.iinfo(np.int32).min
    order = np.invert(key).astype(np.int64)
    order <<= 32
    order |= np.arange(sims.shape[-1])
    order.sort(axis=-1)
    order &= 0xFFFFFFFF
    return order


def _order_ties(sorted_neg: np.ndarray, order: np.ndarray) -> np.ndarray:
    """Puts each run of equal scores in ascending index order: one int64 sort
    of ``run id << 32 | index``, where the run id counts the score changes
    along the sorted row. -0.0 equals 0.0, and the NaNs, which sort last, are
    one run, as in a stable sort."""
    before, after = sorted_neg[..., :-1], sorted_neg[..., 1:]
    run = np.zeros(order.shape, dtype=np.int64)
    np.cumsum((after != before) & (before == before), axis=-1, out=run[..., 1:])
    run <<= 32
    run |= order
    run.sort(axis=-1)
    return run & 0xFFFFFFFF


def average_precision(relevance) -> float | np.ndarray:
    """Mean of precision-at-k over the relevant positions of a ranked list;
    a (B, n) block of lists gives B values."""
    rel = np.asarray(relevance, dtype=np.float64)
    n_rel = rel.sum(axis=-1)
    if np.any(n_rel == 0):
        raise ConfigError("average_precision needs at least one relevant item")
    precision_at = np.cumsum(rel, axis=-1)
    precision_at /= np.arange(1, rel.shape[-1] + 1)
    precision_at *= rel
    ap = precision_at.sum(axis=-1) / n_rel
    return float(ap) if ap.ndim == 0 else ap


def embed_dataset(model: CobraModel, ds: FeatureDataset) -> np.ndarray:
    """Joint embeddings of one modality; a non-finite one is a NumericError,
    so no score is computed from it."""
    pipeline = model.pipeline(ds.modality)
    x = ds.features.astype(model.dtype, copy=False)
    emb = model_mod.project(pipeline, model_mod.encode(pipeline, x))
    if not np.isfinite(emb).all():
        raise NumericError(f"{ds.modality} embeddings contain non-finite values")
    return emb


def _fragment(
    direction: str,
    q_emb: np.ndarray,
    g_emb: np.ndarray,
    q_labels: np.ndarray,
    g_labels: np.ndarray,
    zero_relevant: str,
    map_at: int | None,
) -> RetrievalFragment:
    """Scores one direction, ranking _QUERY_BLOCK queries at a time."""
    sims = similarity_matrix(q_emb, g_emb)
    n = q_emb.shape[0]
    aps = np.zeros(n)
    found = np.zeros(n, dtype=bool)
    for start in range(0, n, _QUERY_BLOCK):
        block = slice(start, start + _QUERY_BLOCK)
        order = rank_gallery(sims[block])[:, :map_at]
        rel = g_labels[order] == q_labels[block, None]
        hit = rel.any(axis=1)
        found[block] = hit
        aps[block][hit] = average_precision(rel[hit])
    kept = aps if zero_relevant == "zero" else aps[found]
    return RetrievalFragment(
        direction=direction,
        map_value=float(np.mean(kept)) if kept.size else 0.0,
        ap_per_query=kept.tolist(),
        n_queries=kept.size,
        n_excluded=n - kept.size,
    )


def retrieval_report(
    model: CobraModel,
    paired: PairedDataset,
    zero_relevant: str = "exclude",
    map_at: int | None = None,
) -> RetrievalReport:
    """Both directions: ITT queries images against the text gallery, TTI the
    reverse; map_avg is their mean. Each modality is embedded once.

    map_at (at least 1) truncates each ranked list to its top k before
    scoring; queries with no relevant item in the (possibly truncated) list
    follow the zero_relevant convention."""
    if zero_relevant not in ZERO_RELEVANT:
        raise ConfigError(
            f"zero_relevant must be one of {ZERO_RELEVANT}, got {zero_relevant!r}"
        )
    if map_at is not None and map_at < 1:
        raise ConfigError(f"map_at must be at least 1, got {map_at}")
    image, text = paired.image, paired.text
    o_image, o_text = embed_dataset(model, image), embed_dataset(model, text)
    itt = _fragment(
        "ITT", o_image, o_text, image.labels, text.labels, zero_relevant, map_at
    )
    tti = _fragment(
        "TTI", o_text, o_image, text.labels, image.labels, zero_relevant, map_at
    )
    return RetrievalReport(
        map_itt=itt.map_value,
        map_tti=tti.map_value,
        map_avg=(itt.map_value + tti.map_value) / 2.0,
        fragments={"ITT": itt, "TTI": tti},
    )


def classification_accuracy(
    head: ClassifierHead, model: CobraModel, paired: PairedDataset, labels
) -> float:
    """Fraction of argmax(logits) == label; argmax ties go to the lowest
    class index (numpy argmax convention)."""
    labels = np.asarray(labels)
    if paired.n_pairs == 0:
        raise ConfigError("empty evaluation set")
    if labels.shape[0] != paired.n_pairs:
        raise ConfigError(f"{labels.shape[0]} labels for {paired.n_pairs} pairs")
    o_image = embed_dataset(model, paired.image)
    o_text = embed_dataset(model, paired.text)
    logits = model_mod.classify_cached(head, o_text, o_image).output
    return float(np.mean(np.argmax(logits, axis=1) == labels))


def export_embeddings(model: CobraModel, paired: PairedDataset, out_dir):
    """Writes both modalities' joint embeddings, cast to float32, as feature
    files; returns (image_path, text_path). Both are embedded and checked
    before either is written: a non-finite embedding, or one beyond
    float32's range, is a NumericError."""
    embedded = []
    for ds in (paired.image, paired.text):
        emb = embed_dataset(model, ds)
        with np.errstate(over="ignore"):
            emb = emb.astype(np.float32)
        if not np.isfinite(emb).all():
            raise NumericError(f"{ds.modality} embeddings overflow float32")
        embedded.append(FeatureDataset(ds.modality, emb, ds.labels, ds.num_classes))
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for ds in embedded:
        path = out_dir / f"embeddings_{ds.modality}.txt"
        write_feature_file(ds, path)
        paths.append(path)
    return tuple(paths)
