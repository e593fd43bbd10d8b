import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cobra import data, evaluation, model as model_mod
from cobra.errors import ConfigError, NumericError

import retrieval_oracle
from conftest import tiny_model, tiny_paired


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


@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["float64", "float32"])
def test_rank_gallery_block_matches_stable_sort_per_row(dtype):
    """float64 blocks take the argsort and tie repair, float32 blocks the key
    sort; both equal the stable per-row oracle, on contiguous, strided and
    Fortran-ordered blocks."""
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
    for block in (sims, sims[:, ::2], np.asfortranarray(sims)):
        want = np.stack([retrieval_oracle.rank_gallery(row) for row in block])
        assert np.array_equal(evaluation.rank_gallery(block), want)
        assert np.array_equal(evaluation.rank_gallery(block[3]), want[3])
        assert np.array_equal(evaluation.rank_gallery(block[4]), want[4])


@given(
    seed=st.integers(0, 100_000),
    rows=st.integers(1, 2 * evaluation._QUERY_BLOCK + 7),
    width=st.integers(1, 300),
)
@settings(max_examples=60, deadline=None)
def test_rank_gallery_float32_ties_match_stable_argsort(seed, rows, width):
    """The key-sort tie repair equals a stable argsort on float32 blocks full
    of equal scores, mixed -0.0/0.0 runs, NaN runs and infinities."""
    rng = np.random.default_rng(seed)
    values = np.array([-1.0, -0.0, 0.0, 0.5, 1.0, np.inf, -np.inf, np.nan], np.float32)
    sims = rng.choice(values[: int(rng.integers(2, values.size + 1))], size=(rows, width))
    sims[rng.random(rows) < 0.3] = rng.normal(size=width).astype(np.float32)  # tie-free rows
    want = np.argsort(-sims, axis=-1, kind="stable")
    got = np.concatenate(
        [
            evaluation.rank_gallery(sims[start : start + evaluation._QUERY_BLOCK])
            for start in range(0, rows, evaluation._QUERY_BLOCK)
        ]
    )
    assert np.array_equal(got, want)
    assert np.array_equal(evaluation.rank_gallery(sims[-1]), want[-1])


@given(seed=st.integers(0, 100_000), map_at=st.sampled_from([None, 5]))
@settings(max_examples=15, deadline=None)
def test_float32_retrieval_matches_loop_oracle(seed, map_at):
    """A float32 model's similarities tie often; blocked retrieval still
    equals the per-query loop exactly, across three query blocks."""
    rng = np.random.default_rng(seed)
    nq, ng, d, c = 2 * evaluation._QUERY_BLOCK + 7, int(rng.integers(1, 120)), 3, 3
    q, g = _tied_rows(rng, nq, d), _tied_rows(rng, ng, d)
    ql, gl = rng.integers(0, c, nq), rng.integers(0, c, ng)
    m = _identity_model(d, np.float32)
    qs, gs = _raw_datasets(q, g, ql, gl)
    frag = _unpaired_fragment(m, qs, gs, map_at=map_at)
    q_emb, g_emb = evaluation.embed_dataset(m, qs), evaluation.embed_dataset(m, gs)
    assert q_emb.dtype == np.float32
    aps, excluded, map_value = retrieval_oracle.map_from_embeddings(
        q_emb, g_emb, ql, gl, map_at=map_at
    )
    assert (frag.ap_per_query, frag.n_excluded, frag.map_value) == (aps, excluded, map_value)


def test_average_precision_block_matches_per_row():
    rng = np.random.default_rng(6)
    rel = rng.random((30, 500)) < 0.1
    rel[:, 0] = True
    got = evaluation.average_precision(rel)
    want = [retrieval_oracle.average_precision(row) for row in rel]
    assert got.tolist() == want
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


def _raw_datasets(q_emb, g_emb, q_labels, g_labels):
    num_classes = int(max(q_labels.max(), g_labels.max())) + 1
    qs = data.FeatureDataset("image", q_emb.astype(np.float32), q_labels, num_classes)
    gs = data.FeatureDataset("text", g_emb.astype(np.float32), g_labels, num_classes)
    return qs, gs


def _unpaired_fragment(m, qs, gs, zero_relevant="exclude", map_at=None):
    """Scores a query set against a gallery that are not pairs, so a query
    can have no relevant item without map_at, through the function that
    scores each direction of retrieval_report."""
    return evaluation._fragment(
        "ITT",
        evaluation.embed_dataset(m, qs),
        evaluation.embed_dataset(m, gs),
        qs.labels,
        gs.labels,
        zero_relevant,
        map_at,
    )


def _fragment_from_raw(q_emb, g_emb, q_labels, g_labels, **kw):
    m = _identity_model(q_emb.shape[1])
    qs, gs = _raw_datasets(q_emb, g_emb, q_labels, g_labels)
    return _unpaired_fragment(m, qs, gs, **kw)


def test_identity_model_preserves_embeddings():
    rng = np.random.default_rng(1)
    x = np.abs(rng.normal(size=(3, 4))).astype(np.float32) + 0.1
    frag = _fragment_from_raw(x, x, np.arange(3), np.arange(3))
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


@given(seed=st.integers(0, 100_000), scale=st.floats(0.01, 100.0))
@settings(max_examples=60, deadline=None)
def test_ranking_invariant_under_positive_scaling(seed, scale):
    rng = np.random.default_rng(seed)
    q = rng.normal(size=(3, 4))
    g = rng.normal(size=(8, 4))
    base = evaluation.similarity_matrix(q, g)
    scaled = evaluation.similarity_matrix(q * scale, g)
    for i in range(3):
        assert np.array_equal(
            evaluation.rank_gallery(base[i]), evaluation.rank_gallery(scaled[i])
        )


def test_map_excludes_queries_without_relevant():
    rng = np.random.default_rng(2)
    q = np.abs(rng.normal(size=(3, 3))) + 0.1
    g = np.abs(rng.normal(size=(4, 3))) + 0.1
    ql = np.array([0, 1, 2])  # class 2 absent from gallery
    gl = np.array([0, 0, 1, 1])
    frag = _fragment_from_raw(q, g, ql, gl)
    assert frag.n_excluded == 1
    assert frag.n_queries == 2


def test_map_zero_relevant_mode_scores_zero():
    rng = np.random.default_rng(3)
    q = np.abs(rng.normal(size=(2, 3))) + 0.1
    g = np.abs(rng.normal(size=(2, 3))) + 0.1
    frag = _fragment_from_raw(
        q, g, np.array([0, 1]), np.array([0, 0]), zero_relevant="zero"
    )
    assert frag.n_excluded == 0
    assert frag.n_queries == 2


def test_map_at_truncates_ranked_list():
    rng = np.random.default_rng(4)
    q = np.abs(rng.normal(size=(2, 3))) + 0.1
    g = np.abs(rng.normal(size=(6, 3))) + 0.1
    ql = np.array([0, 1])
    gl = np.array([0, 0, 0, 1, 1, 1])
    full = _fragment_from_raw(q, g, ql, gl)
    trunc = _fragment_from_raw(q, g, ql, gl, map_at=2)
    assert 0.0 <= trunc.map_value <= 1.0
    assert full.n_queries == 2


@pytest.mark.parametrize("kw", [{"map_at": 0}, {"map_at": -3}, {"zero_relevant": "skip"}])
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


@given(
    seed=st.integers(0, 100_000),
    zero_relevant=st.sampled_from(evaluation.ZERO_RELEVANT),
    map_at=st.sampled_from([None, 1, 5, 10_000]),
)
@settings(max_examples=40, deadline=None)
def test_retrieval_matches_loop_oracle(seed, zero_relevant, map_at):
    """Unpaired sets scored by _fragment, and retrieval_report, equal the
    per-query loop exactly, across more than one block of queries."""
    rng = np.random.default_rng(seed)
    nq = int(rng.choice([3, 40, 2 * evaluation._QUERY_BLOCK + 7]))
    ng = int(rng.integers(1, 120))
    d, c = int(rng.integers(2, 5)), int(rng.integers(2, 5))
    q, g = _tied_rows(rng, nq, d), _tied_rows(rng, ng, d)
    ql, gl = rng.integers(0, c, nq), rng.integers(0, c, ng)
    m = _identity_model(d)
    kw = dict(zero_relevant=zero_relevant, map_at=map_at)

    def check(frag, q_ds, g_ds):
        aps, excluded, map_value = retrieval_oracle.map_from_embeddings(
            evaluation.embed_dataset(m, q_ds), evaluation.embed_dataset(m, g_ds),
            q_ds.labels, g_ds.labels, **kw,
        )
        assert frag.ap_per_query == aps
        assert frag.n_excluded == excluded
        assert frag.n_queries == len(aps)
        assert frag.map_value == map_value

    qs, gs = _raw_datasets(q, g, ql, gl)
    check(_unpaired_fragment(m, qs, gs, **kw), qs, gs)

    image, text = _raw_datasets(q, _tied_rows(rng, nq, d), ql, ql)
    paired = data.PairedDataset(image=image, text=text)
    report = evaluation.retrieval_report(m, paired, **kw)
    check(report.fragments["ITT"], image, text)
    check(report.fragments["TTI"], text, image)
    assert report.map_avg == (report.map_itt + report.map_tti) / 2.0


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
