"""Reference implementations of ``evaluation._fragment``, which scores each
direction of ``evaluation.retrieval_report``.

Production ranks queries in blocks: a float32 block with one integer key
sort that also carries each item's relevance, a float64 block with a fast
argsort and a repair of only the rows with equal scores; AP visits only the
relevant positions. This module keeps two earlier forms, each with its own
copies of the ranking and AP conventions, so a fault in the production
versions cannot hide here too:

- ``map_from_embeddings``, the original loop: one stable argsort and one AP
  per query;
- ``block_fragment_aps``, the one-thread block path before relevance moved
  into the key: a float32 block ranked by a key sort of ``~key << 32 |
  index`` (any other by a stable argsort), a gather of the gallery labels in
  ranked order, and AP from a full-width float64 ``cumsum``.

``cosine_similarity`` scores one query/gallery pair, the brute-force check of
``evaluation.similarity_matrix``.
"""

from __future__ import annotations

import numpy as np

from cobra import evaluation


def cosine_similarity(u: np.ndarray, v: np.ndarray) -> float:
    """u.v / (|u||v|); defined as 0 when either norm is zero."""
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return float(np.dot(u, v) / (nu * nv))


def rank_gallery(sims: np.ndarray) -> np.ndarray:
    """Indices by descending similarity, ties broken by ascending index."""
    return np.argsort(-sims, kind="stable")


def average_precision(relevance) -> float:
    """Mean of precision-at-k over the relevant positions of a ranked list."""
    rel = np.asarray(relevance, dtype=np.float64)
    cum = np.cumsum(rel)
    precision_at = cum / np.arange(1, rel.size + 1)
    return float(np.sum(precision_at * rel) / rel.sum())


def map_from_embeddings(
    q_emb, g_emb, q_labels, g_labels, zero_relevant="exclude", map_at=None
):
    """(ap_per_query, n_excluded, map_value) of one retrieval direction."""
    sims = evaluation.similarity_matrix(q_emb, g_emb)
    aps: list[float] = []
    excluded = 0
    for qi in range(q_emb.shape[0]):
        order = rank_gallery(sims[qi])
        rel = (g_labels[order] == q_labels[qi]).astype(np.float64)
        if map_at is not None:
            rel = rel[:map_at]
        if rel.sum() == 0:
            if zero_relevant == "zero":
                aps.append(0.0)
            else:
                excluded += 1
            continue
        aps.append(average_precision(rel))
    map_value = float(np.mean(aps)) if aps else 0.0
    return aps, excluded, map_value


def key_order(sims: np.ndarray) -> np.ndarray:
    """Stable descending order of float32 scores along the last axis: one
    int64 sort of ``~key << 32 | index``, where the key maps the float's bits
    to an int32 in float order, -0.0 takes 0.0's key and every NaN the
    lowest."""
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


def block_average_precision(rel: np.ndarray) -> np.ndarray:
    """AP of each row of a (B, n) relevance block, each with a relevant item,
    from the full-width cumulative hits."""
    rel = np.asarray(rel, dtype=np.float64)
    precision_at = np.cumsum(rel, axis=-1)
    precision_at /= np.arange(1, rel.shape[-1] + 1)
    precision_at *= rel
    return precision_at.sum(axis=-1) / rel.sum(axis=-1)


def block_fragment_aps(q_emb, g_emb, q_labels, g_labels, map_at=None):
    """(aps, found) of one retrieval direction, ranked 256 queries at a time
    on one thread: the AP of each query (0.0 where ``found`` is False, as no
    relevant item is in its ranked list)."""
    sims = evaluation.similarity_matrix(q_emb, g_emb)
    n = sims.shape[0]
    aps, found = np.zeros(n), np.zeros(n, dtype=bool)
    for start in range(0, n, 256):
        rows = slice(start, start + 256)
        block = sims[rows]
        order = key_order(block) if block.dtype == np.float32 else rank_gallery(block)
        order = order[:, :map_at]
        rel = g_labels[order] == q_labels[rows, None]
        hit = rel.any(axis=1)
        found[rows] = hit
        aps[rows][hit] = block_average_precision(rel[hit])
    return aps, found
