"""Per-query retrieval loop: the reference implementation of
``evaluation._fragment``, which scores each direction of
``evaluation.retrieval_report``.

Production ranks queries in blocks: a float32 block with one integer key
sort, a float64 block with a fast argsort and a repair of only the rows with
equal scores. This module keeps the original loop, one stable argsort and one
AP per query, with its own copies of the ranking and AP conventions, so a
fault in the production versions cannot hide here too.
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
