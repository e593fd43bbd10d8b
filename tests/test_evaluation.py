import math
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cobra import data, evaluation, model as model_mod
from cobra.errors import ConfigError, NumericError

import retrieval_oracle
from conftest import tiny_model, tiny_paired

ROWS = 64  # queries per block in the tests that span several blocks


def _rows_per_block(rows, gallery):
    """Patches the score budget so that _fragment ranks `rows` queries of a
    `gallery`-item gallery per block."""
    return mock.patch.object(evaluation, "_BLOCK_SCORES", rows * gallery)


def test_cosine_orthogonal_zero():
    assert retrieval_oracle.cosine_similarity(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0


def test_cosine_parallel_one():
    assert retrieval_oracle.cosine_similarity(
        np.array([2.0, 0.0]), np.array([5.0, 0.0])
    ) == pytest.approx(1.0)


def test_cosine_antiparallel_minus_one():
    assert retrieval_oracle.cosine_similarity(
        np.array([1.0, 1.0]), np.array([-2.0, -2.0])
    ) == pytest.approx(-1.0)


def test_cosine_zero_vector_defined_as_zero():
    assert retrieval_oracle.cosine_similarity(np.zeros(3), np.ones(3)) == 0.0


def test_similarity_matrix_matches_pairwise_cosine():
    rng = np.random.default_rng(0)
    q, g = rng.normal(size=(4, 3)), rng.normal(size=(5, 3))
    sims = evaluation.similarity_matrix(q, g)
    for i in range(4):
        for j in range(5):
            assert sims[i, j] == pytest.approx(
                retrieval_oracle.cosine_similarity(q[i], g[j]), abs=1e-12
            )


def test_rank_gallery_ties_break_by_index():
    order = evaluation.rank_gallery(np.array([0.5, 0.9, 0.5, 0.1]))
    assert order.tolist() == [1, 0, 2, 3]


def test_average_precision_known_values():
    # relevant at ranks 1 and 3: (1/1 + 2/3) / 2
    assert evaluation.average_precision([1, 0, 1, 0]) == pytest.approx(5.0 / 6.0)
    assert evaluation.average_precision([1, 1, 1]) == 1.0
    assert evaluation.average_precision([0, 0, 1]) == pytest.approx(1.0 / 3.0)


def test_average_precision_rejects_no_relevant():
    with pytest.raises(ConfigError):
        evaluation.average_precision([0, 0, 0])


@pytest.mark.parametrize(
    "relevance, named",
    [([2, 0, 1], "2"), ([0.5, 0, 1], "0.5"), ([1.0, np.nan, 0.0], "nan"), ([[1, 0], [-1, 1]], "-1")],
)
def test_average_precision_rejects_non_binary_relevance(relevance, named):
    with pytest.raises(ConfigError, match=f"relevance must be 0 or 1, got {named}$"):
        evaluation.average_precision(relevance)


def _extreme_scores(dtype):
    """A 40x300 block full of equal scores, mixed -0.0/0.0 runs, NaN rows and
    rows drawn from the extremes of the dtype."""
    rng = np.random.default_rng(5)
    sims = np.round(rng.normal(size=(40, 300)), 1).astype(dtype)  # many equal scores
    sims[0, :6] = [0.0, -0.0, 0.0, -0.0, 0.5, -0.0]
    sims[1, ::7] = np.nan
    sims[2] = 0.25  # every score equal
    # Repeated extremes: signed zeros, subnormals, the largest finite values,
    # infinities, and a quiet NaN, a NaN with the sign bit set and a payload NaN.
    nans = np.array([0x7FC00000, 0xFFC00000, 0x7F800001], np.uint32).view(np.float32)
    extremes = np.array([0.0, 1e-45, 3.4028235e38, np.inf], np.float32)
    with np.errstate(invalid="ignore"):  # widening a payload NaN flags it
        pool = np.concatenate([extremes, -extremes, nans]).astype(dtype)
    sims[4:10] = rng.choice(pool, size=(6, 300))
    sims[10, ::3] = pool[-2]  # a row whose NaNs all have the sign bit set
    return sims


DTYPES = pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["float64", "float32"])


@DTYPES
def test_rank_gallery_block_matches_stable_sort_per_row(dtype):
    """The argsort and tie repair equal the stable per-row oracle on float64
    and float32 blocks, contiguous, strided and Fortran-ordered."""
    sims = _extreme_scores(dtype)
    for block in (sims, sims[:, ::2], np.asfortranarray(sims)):
        want = np.stack([retrieval_oracle.rank_gallery(row) for row in block])
        assert np.array_equal(evaluation.rank_gallery(block), want)
        assert np.array_equal(evaluation.rank_gallery(block[3]), want[3])
        assert np.array_equal(evaluation.rank_gallery(block[4]), want[4])


@DTYPES
def test_ranked_relevance_matches_stable_sort_per_row(dtype):
    """The relevance read off the sorted float32 keys, and the float64
    argsort path, equal the relevance permuted by a stable argsort, on
    contiguous, strided and Fortran-ordered blocks."""
    sims = _extreme_scores(dtype)
    relevant = np.random.default_rng(7).random(sims.shape) < 0.3
    relevant[2] = True
    relevant[3] = False
    for block, rel in (
        (sims, relevant),
        (sims[:, ::2], relevant[:, ::2]),
        (np.asfortranarray(sims), np.asfortranarray(relevant)),
    ):
        want = np.stack([r[retrieval_oracle.rank_gallery(row)] for row, r in zip(block, rel)])
        got = evaluation.ranked_relevance(block, rel)
        assert got.dtype == bool
        assert np.array_equal(got, want)
        assert np.array_equal(evaluation.ranked_relevance(block[4], rel[4]), want[4])


@given(
    seed=st.integers(0, 100_000),
    rows=st.integers(1, 2 * ROWS + 7),
    width=st.integers(1, 300),
)
@settings(max_examples=60, deadline=None)
def test_rank_gallery_float32_ties_match_stable_argsort(seed, rows, width):
    """The tie repair, and the relevance read off the float32 sort keys,
    equal a stable argsort on float32 blocks full of equal scores, mixed
    -0.0/0.0 runs, NaN runs and infinities."""
    rng = np.random.default_rng(seed)
    values = np.array([-1.0, -0.0, 0.0, 0.5, 1.0, np.inf, -np.inf, np.nan], np.float32)
    sims = rng.choice(values[: int(rng.integers(2, values.size + 1))], size=(rows, width))
    sims[rng.random(rows) < 0.3] = rng.normal(size=width).astype(np.float32)  # tie-free rows
    relevant = rng.random((rows, width)) < 0.5
    want = np.argsort(-sims, axis=-1, kind="stable")
    blocks = range(0, rows, ROWS)
    got = np.concatenate([evaluation.rank_gallery(sims[b : b + ROWS]) for b in blocks])
    assert np.array_equal(got, want)
    assert np.array_equal(evaluation.rank_gallery(sims[-1]), want[-1])
    got = np.concatenate(
        [evaluation.ranked_relevance(sims[b : b + ROWS], relevant[b : b + ROWS]) for b in blocks]
    )
    assert np.array_equal(got, np.take_along_axis(relevant, want, -1))


@given(seed=st.integers(0, 100_000), map_at=st.sampled_from([None, 5]))
@settings(max_examples=15, deadline=None)
def test_float32_retrieval_matches_loop_oracle(seed, map_at):
    """A float32 model's similarities tie often; blocked retrieval still
    equals the per-query loop exactly, across three query blocks."""
    rng = np.random.default_rng(seed)
    n, d, c = 2 * ROWS + 7, 3, 3
    q, g = _tied_rows(rng, n, d), _tied_rows(rng, n, d)
    labels = rng.integers(0, c, n)
    m = _identity_model(d, np.float32)
    qs, gs = _raw_datasets(q, g, labels)
    with _rows_per_block(ROWS, n):
        frag = _pair_fragment(m, qs, gs, map_at=map_at)
    q_emb, g_emb = evaluation.embed_dataset(m, qs), evaluation.embed_dataset(m, gs)
    assert q_emb.dtype == np.float32
    aps, _, map_value = retrieval_oracle.map_from_embeddings(
        q_emb, g_emb, labels, labels, zero_relevant="zero", map_at=map_at
    )
    assert (frag.ap_per_query, frag.n_queries, frag.map_value) == (aps, n, map_value)


def test_float32_retrieval_over_2048_items_matches_both_oracles():
    """A gallery of more than 2048 items puts index bits above bit 11 into
    the sort key; with integer embeddings that tie often, blocked retrieval
    still equals the pre-relevance-key block path and the per-query loop bit
    for bit, with and without map_at, at the production block size."""
    rng = np.random.default_rng(11)
    n, d, c = 2600, 3, 4
    q, g = np.round(2 * rng.normal(size=(n, d))), np.round(2 * rng.normal(size=(n, d)))
    labels = rng.integers(0, c, n)
    m = _identity_model(d, np.float32)
    qs, gs = _raw_datasets(q, g, labels)
    q_emb, g_emb = evaluation.embed_dataset(m, qs), evaluation.embed_dataset(m, gs)
    sims = evaluation.similarity_matrix(q_emb, g_emb)
    assert sims.dtype == np.float32
    assert (np.diff(np.sort(sims, axis=1), axis=1) == 0).mean() > 0.5  # mostly ties
    assert evaluation._BLOCK_SCORES // n < n  # more than one block
    for map_at in (None, 2100):
        frag = _pair_fragment(m, qs, gs, map_at=map_at)
        block_aps, _ = retrieval_oracle.block_fragment_aps(q_emb, g_emb, labels, labels, map_at)
        assert frag.ap_per_query == block_aps.tolist()
        aps, _, map_value = retrieval_oracle.map_from_embeddings(
            q_emb, g_emb, labels, labels, zero_relevant="zero", map_at=map_at
        )
        assert (frag.ap_per_query, frag.n_queries, frag.map_value) == (aps, n, map_value)


def test_average_precision_block_matches_per_row():
    rng = np.random.default_rng(6)
    rel = rng.random((30, 500)) < 0.1
    rel[:, 0] = True
    got = evaluation.average_precision(rel)
    want = [retrieval_oracle.average_precision(row) for row in rel]
    assert got.tolist() == want
    assert np.array_equal(got, retrieval_oracle.block_average_precision(rel))
    assert np.array_equal(evaluation.average_precision(rel.astype(np.int64)), got)
    rel[7] = False
    with pytest.raises(ConfigError):
        evaluation.average_precision(rel)


# ---------------------------------------------------------------- oracles


def brute_force_map(q_emb, g_emb, q_labels, g_labels):
    """Independent enumeration oracle: explicit sort + precision sums."""
    aps = []
    excluded = 0
    for i in range(q_emb.shape[0]):
        scored = []
        for j in range(g_emb.shape[0]):
            scored.append((retrieval_oracle.cosine_similarity(q_emb[i], g_emb[j]), j))
        scored.sort(key=lambda t: (-t[0], t[1]))
        hits = 0
        precisions = []
        for rank, (_, j) in enumerate(scored, start=1):
            if g_labels[j] == q_labels[i]:
                hits += 1
                precisions.append(hits / rank)
        if not precisions:
            excluded += 1
            continue
        aps.append(sum(precisions) / len(precisions))
    return (sum(aps) / len(aps) if aps else 0.0), excluded


def _identity_model(d, dtype=np.float64):
    """Stands in for a trained model so retrieval math can be tested directly:
    joint_dim == feature dim and every layer passes its input through."""
    m = model_mod.init_model(d, d, d, seed=0, dtype=dtype, hidden_dim=d, latent_dim=d)
    for pipe in (m.image, m.text):
        for layers in (pipe.encoder, pipe.decoder):
            for w, b in layers:
                w.value = np.eye(d, dtype=dtype)
                b.value[...] = 0.0
        # offset keeps ReLU inactive-region clipping from touching the data
        pipe.encoder[0][1].value[...] = 100.0
        pipe.encoder[2][1].value[...] = -100.0
        pipe.projection[0][0].value = np.eye(d, dtype=dtype)
        pipe.projection[0][1].value[...] = 0.0
    return m


def _raw_datasets(q_emb, g_emb, labels):
    """The image and text sides of pairs (q_emb[i], g_emb[i]) of class labels[i]."""
    num_classes = int(labels.max()) + 1
    qs = data.FeatureDataset("image", q_emb.astype(np.float32), labels, num_classes)
    gs = data.FeatureDataset("text", g_emb.astype(np.float32), labels, num_classes)
    return qs, gs


def _pair_fragment(m, qs, gs, map_at=None):
    """Scores the image sides of pairs as queries against their text sides,
    through the function that scores each direction of retrieval_report."""
    return evaluation._fragment(
        "ITT", evaluation.embed_dataset(m, qs), evaluation.embed_dataset(m, gs), qs.labels, map_at
    )


def test_identity_model_preserves_embeddings():
    rng = np.random.default_rng(1)
    x = np.abs(rng.normal(size=(3, 4))).astype(np.float32) + 0.1
    frag = _pair_fragment(_identity_model(4), *_raw_datasets(x, x, np.arange(3)))
    assert frag.map_value == pytest.approx(1.0)


@given(seed=st.integers(0, 100_000))
@settings(max_examples=50, deadline=None)
def test_map_matches_brute_force_oracle(seed):
    rng = np.random.default_rng(seed)
    nq, ng = int(rng.integers(2, 10)), int(rng.integers(2, 20))
    d = int(rng.integers(2, 5))
    c = int(rng.integers(2, 4))
    q = rng.normal(size=(nq, d)).astype(np.float32)
    g = rng.normal(size=(ng, d)).astype(np.float32)
    ql = rng.integers(0, c, size=nq)
    gl = rng.integers(0, c, size=ng)
    # score raw embeddings: bypass the network entirely
    sims = evaluation.similarity_matrix(q.astype(np.float64), g.astype(np.float64))
    aps, excluded = [], 0
    for i in range(nq):
        order = evaluation.rank_gallery(sims[i])
        rel = (gl[order] == ql[i]).astype(float)
        if rel.sum() == 0:
            excluded += 1
            continue
        aps.append(evaluation.average_precision(rel))
    got = (np.mean(aps) if aps else 0.0, excluded)
    want = brute_force_map(q.astype(np.float64), g.astype(np.float64), ql, gl)
    assert got[1] == want[1]
    assert got[0] == pytest.approx(want[0], abs=1e-12)


@given(seed=st.integers(0, 100_000), exponent=st.floats(-30.0, 30.0))
@settings(max_examples=60, deadline=None)
def test_ranking_invariant_under_positive_scaling(seed, exponent):
    """Scaling a query by any positive factor from 1e-30 to 1e30 keeps its
    ranking, in float64 and in float32, where the squares of such a row
    overflow or leave the normal range."""
    rng = np.random.default_rng(seed)
    for dtype in (np.float64, np.float32):
        q = rng.normal(size=(3, 4)).astype(dtype)
        g = rng.normal(size=(8, 4)).astype(dtype)
        base = evaluation.similarity_matrix(q, g)
        scaled = evaluation.similarity_matrix(q * 10.0**exponent, g)
        for i in range(3):
            assert np.array_equal(
                evaluation.rank_gallery(base[i]), evaluation.rank_gallery(scaled[i])
            )


@pytest.mark.parametrize("s", [1e20, 1e-20, 1e-30, 1e-45])
def test_similarity_matrix_float32_rows_beyond_the_squares_range(s):
    """A float32 row whose squares overflow, are subnormal or are zero is
    scored as its direction; ordinary rows keep the bits of their plain
    quotient by the norm."""
    g = np.array([[1, 0], [0, 1], [3, 4]], np.float32)
    q = np.array([[0, s], [0, 2], [0, 0]], np.float32)
    with np.errstate(all="raise"):
        sims = evaluation.similarity_matrix(q, g)
    assert sims.tolist() == [[0.0, 1.0, np.float32(0.8)], [0.0, 1.0, np.float32(0.8)], [0.0, 0.0, 0.0]]
    unit = g / np.linalg.norm(g, axis=1, keepdims=True)
    assert np.array_equal(evaluation.similarity_matrix(g, g), unit @ unit.T)


def test_map_at_truncates_ranked_list():
    """Each query's own pair ranks second, behind the other class's item: the
    full list scores 1/2 per query, and mAP@1 scores both misses 0 and still
    counts them."""
    q = np.array([[1.0, 0.0], [0.0, 1.0]])
    pairs = _raw_datasets(q, q[::-1], np.array([0, 1]))
    m = _identity_model(2)
    full = _pair_fragment(m, *pairs)
    top1 = _pair_fragment(m, *pairs, map_at=1)
    assert (full.ap_per_query, full.map_value, full.n_queries) == ([0.5, 0.5], 0.5, 2)
    assert (top1.ap_per_query, top1.map_value, top1.n_queries) == ([0.0, 0.0], 0.0, 2)


@pytest.mark.parametrize("kw", [{"map_at": 0}, {"map_at": -3}])
def test_retrieval_rejects_invalid_options(kw):
    paired = tiny_paired(classes=3, per_class=4)
    m = tiny_model()
    with pytest.raises(ConfigError):
        evaluation.retrieval_report(m, paired, **kw)


def _tied_rows(rng, n, d):
    """Rows with zero-norm and duplicated rows, and often integer entries so
    that many scores are exactly equal."""
    x = rng.normal(size=(n, d))
    if rng.random() < 0.5:
        x = np.round(x)
    x[rng.random(n) < 0.15] = 0.0
    dup = rng.integers(0, n, size=n // 3)
    x[dup] = x[rng.integers(0, n, size=dup.size)]
    return x


@given(seed=st.integers(0, 100_000), map_at=st.sampled_from([None, 1, 5, 10_000]))
@settings(max_examples=40, deadline=None)
def test_retrieval_matches_loop_oracle(seed, map_at):
    """Both directions of retrieval_report equal the per-query loop exactly,
    a miss in the top map_at scoring 0, across more than one block of
    queries."""
    rng = np.random.default_rng(seed)
    n = int(rng.choice([3, 40, 2 * ROWS + 7]))
    d, c = int(rng.integers(2, 5)), int(rng.integers(2, 5))
    labels = rng.integers(0, c, n)
    m = _identity_model(d)

    def check(frag, q_ds, g_ds):
        aps, _, map_value = retrieval_oracle.map_from_embeddings(
            evaluation.embed_dataset(m, q_ds), evaluation.embed_dataset(m, g_ds),
            labels, labels, zero_relevant="zero", map_at=map_at,
        )
        assert frag.ap_per_query == aps
        assert frag.n_queries == n
        assert frag.map_value == map_value

    image, text = _raw_datasets(_tied_rows(rng, n, d), _tied_rows(rng, n, d), labels)
    paired = data.PairedDataset(image=image, text=text)
    with _rows_per_block(ROWS, n):
        report = evaluation.retrieval_report(m, paired, map_at=map_at)
    check(report.fragments["ITT"], image, text)
    check(report.fragments["TTI"], text, image)
    assert report.map_avg == (report.map_itt + report.map_tti) / 2.0


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("blocks", [1, 2, 3, 5])
def test_retrieval_on_two_threads_matches_both_oracles(monkeypatch, dtype, blocks):
    """With more than one block of queries, the calling thread ranks the
    even blocks and one worker the odd ones; a single block runs on the
    calling thread and starts no worker. Every AP equals the one-thread
    block oracle and the per-query loop bit for bit, with and without
    map_at, also when the threads switch every microsecond."""
    rng = np.random.default_rng(blocks)
    n, d, c = (blocks - 1) * ROWS + 7, 3, 3
    q, g = _tied_rows(rng, n, d), _tied_rows(rng, n, d)
    labels = rng.integers(0, c, n)
    m = _identity_model(d, dtype)
    qs, gs = _raw_datasets(q, g, labels)
    q_emb, g_emb = evaluation.embed_dataset(m, qs), evaluation.embed_dataset(m, gs)
    assert q_emb.dtype == dtype
    ranked_on = []
    ranked_relevance = evaluation.ranked_relevance

    def recording(sims, relevant):
        ranked_on.append(threading.get_ident())
        return ranked_relevance(sims, relevant)

    pools = []
    executor = evaluation.ThreadPoolExecutor

    def counting(*args, **kwargs):
        pools.append(kwargs)
        return executor(*args, **kwargs)

    monkeypatch.setattr(evaluation, "ranked_relevance", recording)
    monkeypatch.setattr(evaluation, "ThreadPoolExecutor", counting)
    for map_at in (None, 5):
        ranked_on.clear()
        pools.clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with _rows_per_block(ROWS, n):
                frag = _pair_fragment(m, qs, gs, map_at=map_at)
        finally:
            sys.setswitchinterval(interval)
        assert len(ranked_on) == blocks
        assert pools == ([] if blocks == 1 else [{"max_workers": 1}])
        assert ranked_on.count(threading.get_ident()) == (blocks + 1) // 2
        assert len(set(ranked_on)) == min(blocks, 2)
        block_aps, _ = retrieval_oracle.block_fragment_aps(q_emb, g_emb, labels, labels, map_at)
        assert frag.ap_per_query == block_aps.tolist()
        aps, _, map_value = retrieval_oracle.map_from_embeddings(
            q_emb, g_emb, labels, labels, zero_relevant="zero", map_at=map_at
        )
        assert (frag.ap_per_query, frag.n_queries, frag.map_value) == (aps, n, map_value)


class BlockFailed(Exception):
    pass


@pytest.mark.parametrize("raising", ["worker", "caller"])
def test_retrieval_block_error_propagates_and_leaves_no_thread(monkeypatch, raising):
    """An error in a block, the worker's first (the second block) or one of
    the calling thread's, leaves retrieval_report, and the worker is joined
    before it does."""
    rng = np.random.default_rng(4)
    nq, d = 4 * ROWS + 7, 3  # five blocks per direction
    q, t = rng.normal(size=(nq, d)), rng.normal(size=(nq, d))
    labels = rng.integers(0, 3, nq)
    image, text = _raw_datasets(q, t, labels)
    paired = data.PairedDataset(image=image, text=text)
    caller = threading.get_ident()
    average_precision = evaluation.average_precision

    def failing(rel):
        if (threading.get_ident() == caller) == (raising == "caller"):
            raise BlockFailed(raising)
        return average_precision(rel)

    monkeypatch.setattr(evaluation, "average_precision", failing)
    before = threading.active_count()
    with _rows_per_block(ROWS, nq), pytest.raises(BlockFailed, match=raising):
        evaluation.retrieval_report(_identity_model(d, np.float32), paired)
    assert threading.active_count() == before


def test_retrieval_report_embeds_each_modality_once(monkeypatch):
    calls = []
    embed = evaluation.embed_dataset

    def counting(model, ds):
        calls.append(ds.modality)
        return embed(model, ds)

    monkeypatch.setattr(evaluation, "embed_dataset", counting)
    evaluation.retrieval_report(tiny_model(), tiny_paired(classes=3, per_class=4))
    assert sorted(calls) == ["image", "text"]


def test_retrieval_report_record_format():
    paired = tiny_paired(classes=3, per_class=4)
    m = tiny_model()
    report = evaluation.retrieval_report(m, paired)
    lines = report.record_lines()
    assert len(lines) == 3
    assert lines[0].startswith("direction=ITT map=")
    assert lines[1].startswith("direction=TTI map=")
    assert lines[2].startswith("map_avg=")
    avg = float(lines[2].split("=")[1])
    assert avg == pytest.approx((report.map_itt + report.map_tti) / 2, abs=1e-5)


def test_classification_accuracy_bounds_and_labels():
    paired = tiny_paired(classes=3, per_class=4)
    m = tiny_model()
    head = model_mod.init_head(3, 3, seed=0, dtype=np.float64, hidden=(5, 4, 3))
    acc = evaluation.classification_accuracy(head, m, paired, paired.labels)
    assert 0.0 <= acc <= 1.0
    with pytest.raises(ConfigError):
        evaluation.classification_accuracy(head, m, paired, paired.labels[:-1])


def test_export_embeddings_round_trip(tmp_path):
    paired = tiny_paired(classes=3, per_class=4)
    m = tiny_model()
    img_path, txt_path = evaluation.export_embeddings(m, paired, tmp_path)
    back_i = data.load_feature_file(img_path)
    back_t = data.load_feature_file(txt_path)
    assert back_i.dim == m.joint_dim and back_t.dim == m.joint_dim
    assert np.array_equal(back_i.labels, paired.labels)
    want = evaluation.embed_dataset(m, paired.image).astype(np.float32)
    assert np.array_equal(back_i.features, want)


def test_export_embeddings_halts_on_float32_overflow_and_writes_nothing(tmp_path):
    # finite in the float64 model, so embed_dataset passes them; beyond
    # float32's range once cast for the file
    paired = tiny_paired(classes=3, per_class=4)
    m = tiny_model()
    for p in m.image.projection[0]:
        p.value *= 1e40
    assert np.isfinite(evaluation.embed_dataset(m, paired.image)).all()
    out = tmp_path / "emb"
    with pytest.raises(NumericError, match="image embeddings overflow float32"):
        evaluation.export_embeddings(m, paired, out)
    assert not out.exists()
