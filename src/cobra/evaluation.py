"""Cross-modal retrieval scoring (AP / mAP), classification accuracy, and
joint-embedding export.

Retrieval ranks the gallery by cosine similarity over the joint embeddings,
ties broken by ascending gallery index; an item is relevant iff it shares
the query's class. Queries and gallery are the two sides of the same pairs,
so every query has a relevant item, its own pair. AP is computed over the
full ranked list, or over its top k for mAP@k, where a query with no
relevant item in the top k scores 0; the mean is over every query.

Queries are ranked in blocks of about ``_BLOCK_SCORES`` scores by
``ranked_relevance``. A float32 block (the scores of a v2 checkpoint's
model) takes one int64 sort of an order-keeping key per score,
``~key << 32 | index << 1 | relevant``: it gives the tie-by-index order bit
for bit, and the sorted keys carry each item's relevance, so no ranked
order is formed and no labels are gathered. Its gallery holds fewer than
2**31 items. Other blocks take ``rank_gallery``: a fast argsort, then an
integer key sort of only the rows with equal scores. ``rank_gallery``,
``ranked_relevance`` and ``average_precision`` hold these conventions and
take such a block along the last axis; AP visits only the relevant
positions and is the same, bit for bit, as the full-width sum.

A direction of more than one block is ranked on two threads; see
``_fragment``.
``retrieval_report`` embeds each modality once for both directions.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import model as model_mod
from .data import FeatureDataset, PairedDataset, write_feature_file
from .errors import ConfigError, NumericError
from .model import ClassifierHead, CobraModel

DIRECTIONS = ("ITT", "TTI")
# Scores ranked at once: a block takes as many queries as fit, at least one.
# Their int64 sort keys take 2 MB, the size of a per-core L2 cache, and each
# of the two ranking threads keeps its block in its own core's L2. On a
# 3500-item gallery, two threads scored both directions (with their GEMMs)
# in 0.39-0.40 s at 16 to 74 rows per block, 0.41-0.42 s at 128 and 150 rows
# and 0.44 s at 256; on a 200-item gallery every query fits in one block,
# which saves the fixed cost of further blocks and of a worker thread.
_BLOCK_SCORES = 1 << 18
# The high half of an int64 in its int32 view.
_HIGH_WORD = int(np.little_endian)


@dataclass
class RetrievalFragment:
    direction: str
    map_value: float
    ap_per_query: list[float]
    n_queries: int


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
            lines.append(f"direction={d} map={f.map_value:.5f} queries={f.n_queries}")
        lines.append(f"map_avg={self.map_avg:.5f}")
        return lines


def similarity_matrix(queries: np.ndarray, gallery: np.ndarray) -> np.ndarray:
    """Pairwise cosine similarities; zero-norm rows map to 0 similarity."""
    q, g = _unit_rows(queries), _unit_rows(gallery)
    return q @ g.T


def _unit_rows(x: np.ndarray) -> np.ndarray:
    """Each row over its norm, an all-zero row as zeros. A row whose norm
    overflows, or whose squares fall below the dtype's normal range (a
    zero or inaccurate norm), is first scaled by the power of two at its
    largest magnitude. The scaling is exact except for entries it makes
    subnormal, far below the largest, whose lost bits do not measurably
    turn the row; every other row keeps its bits."""
    with np.errstate(over="ignore", under="ignore"):  # the rows rescaled below
        norm = np.linalg.norm(x, axis=1, keepdims=True)
    lost = ~((norm >= np.sqrt(np.finfo(x.dtype).tiny)) & (norm < np.inf))[:, 0]
    if np.any(lost):
        # an all-zero, infinite or NaN row has exponent 0 and stays as it is
        _, exponent = np.frexp(np.abs(x[lost]).max(axis=1, keepdims=True))
        x = x.copy()
        x[lost] = np.ldexp(x[lost], -exponent)
        norm[lost] = np.linalg.norm(x[lost], axis=1, keepdims=True)
    return np.divide(x, norm, out=np.zeros_like(x), where=norm > 0)


def rank_gallery(sims: np.ndarray) -> np.ndarray:
    """Indices by descending similarity along the last axis, ties broken by
    ascending index.

    The fast default argsort finds the one sorted order of a row without
    equal scores; only rows whose sorted scores are not strictly decreasing
    (equal scores, -0.0 and 0.0, NaN) are repaired by ``_order_ties``. On a
    256x3500 float64 block this took 31 ms against 97 ms for a stable
    argsort.
    """
    neg = -np.asarray(sims)
    order = np.argsort(neg, axis=-1)
    neg.sort(axis=-1)
    tied = ~np.all(neg[..., 1:] > neg[..., :-1], axis=-1)
    if np.any(tied):
        order[tied] = _order_ties(neg[tied], order[tied])
    return order


def ranked_relevance(sims: np.ndarray, relevant: np.ndarray) -> np.ndarray:
    """``relevant`` (bool, in gallery order, of the shape of ``sims``)
    permuted into the order ``rank_gallery`` gives ``sims``, along the last
    axis.

    A float32 block never forms that order. Its one sort is of the int64
    keys ``~key << 32 | index << 1 | relevant``, which order by descending
    score, then by ascending index, and the relevance bits are read off the
    sorted keys. The gallery holds fewer than 2**31 items. ``key`` maps the
    float's bits to an int32 in float order (a negative float's magnitude
    bits are flipped); -0.0 takes 0.0's key and every NaN the lowest key, so
    each is one run, NaNs last, as in a stable sort. ``~`` rather than
    negation reverses the order without overflowing the lowest key. A
    float64 key does not fit in one int64 beside the index, so other blocks
    permute by ``rank_gallery``.
    """
    sims = np.asarray(sims)
    if sims.dtype != np.float32:
        return np.take_along_axis(relevant, rank_gallery(sims), -1)
    bits = sims.view(np.int32)
    sign = bits >> 31
    high = np.bitwise_and(sign, 0x7FFFFFFF)
    high ^= bits
    np.invert(high, out=high)
    high += sign  # every negative float one lower puts -0.0 on 0.0
    if np.isnan(sims).any():
        high[np.isnan(sims)] = np.iinfo(np.int32).max
    keys = np.left_shift(np.arange(sims.shape[-1]), 1)
    keys = np.bitwise_or(keys, relevant, out=np.empty(sims.shape, np.int64))
    keys.view(np.int32)[..., _HIGH_WORD::2] = high
    keys.sort(axis=-1)
    return np.bitwise_and(keys, 1, out=np.empty(keys.shape, bool), casting="unsafe")


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
    a (B, n) block of lists gives B values. Relevance is bool or 0/1.

    Only the relevant positions are visited: the precision at each is
    written into a zero block, which is summed along each row as the
    full-width products of cumulative hits and relevance were, so each
    value is the same bit for bit (the other terms are +0.0 in both)."""
    rel = np.asarray(relevance)
    if rel.dtype != bool:
        bad = rel[(rel != 0) & (rel != 1)]
        if bad.size:
            raise ConfigError(f"relevance must be 0 or 1, got {bad[0]}")
        rel = rel != 0
    n = rel.shape[-1]
    at = np.flatnonzero(rel)
    row_start = n * np.arange(np.prod(rel.shape[:-1], dtype=np.int64))
    first = np.searchsorted(at, row_start)
    hits = np.diff(first, append=at.size)
    if np.any(hits == 0):
        raise ConfigError("average_precision needs at least one relevant item")
    hit_no = np.arange(1, at.size + 1) - np.repeat(first, hits)
    rank = at - np.repeat(row_start, hits)
    rank += 1
    terms = np.zeros(rel.shape)
    terms.reshape(-1)[at] = hit_no / rank
    ap = terms.sum(axis=-1) / hits.reshape(rel.shape[:-1])
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
    labels: np.ndarray,
    map_at: int | None,
) -> RetrievalFragment:
    """Scores one direction of pairs, query i and gallery item i sharing
    labels[i], ranking a block of queries with about _BLOCK_SCORES scores at
    a time.

    With more than one block, the calling thread ranks the even blocks and
    one worker thread the odd ones. Each block writes only its own rows of
    ``aps`` and does the same arithmetic as on one thread, so
    every AP is the same bit for bit. The worker is joined before this
    returns, also when a block raises. A single block runs on the calling
    thread and starts no worker: an idle worker started and joined per
    direction made a 200-item gallery's retrieval 1.3x as slow. The
    similarity GEMM stays one call on the calling thread, before the
    blocks: a BLAS call per block on two threads at once oversubscribed the
    cores."""
    sims = similarity_matrix(q_emb, g_emb)
    n = q_emb.shape[0]
    rows = max(1, _BLOCK_SCORES // g_emb.shape[0])
    aps = np.zeros(n)

    def score(starts: range):
        for start in starts:
            block = slice(start, start + rows)
            relevant = labels == labels[block, None]
            rel = ranked_relevance(sims[block], relevant)[:, :map_at]
            hit = rel.any(axis=1)  # a miss in the top map_at keeps AP 0
            aps[block][hit] = average_precision(rel[hit])

    starts = range(0, n, rows)
    if len(starts) > 1:
        with ThreadPoolExecutor(max_workers=1) as pool:
            odd = pool.submit(score, starts[1::2])
            score(starts[0::2])
            odd.result()
    else:
        score(starts)
    return RetrievalFragment(
        direction=direction,
        map_value=float(np.mean(aps)),
        ap_per_query=aps.tolist(),
        n_queries=n,
    )


def retrieval_report(
    model: CobraModel, paired: PairedDataset, map_at: int | None = None
) -> RetrievalReport:
    """Both directions: ITT queries images against the text gallery, TTI the
    reverse; map_avg is their mean. Each modality is embedded once.

    map_at (at least 1) truncates each ranked list to its top k before
    scoring: mAP@k, the mean over every query, where a query with no
    relevant item in its top k scores 0."""
    if map_at is not None and map_at < 1:
        raise ConfigError(f"map_at must be at least 1, got {map_at}")
    o_image = embed_dataset(model, paired.image)
    o_text = embed_dataset(model, paired.text)
    itt = _fragment("ITT", o_image, o_text, paired.labels, map_at)
    tti = _fragment("TTI", o_text, o_image, paired.labels, map_at)
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
