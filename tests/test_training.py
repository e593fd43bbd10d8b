import dataclasses
import io
from pathlib import Path

import numpy as np
import pytest

import train_step_oracle as oracle
from cobra import checkpoint, data, model as model_mod, nn, training
from cobra.errors import ConfigError, NumericError
from cobra.losses import LossWeights
from cobra.nn import RngStreams
from cobra.training import HeadConfig, TrainConfig, softmax_cross_entropy

from conftest import tiny_paired


def small_config(**kw):
    defaults = dict(
        eta=0.05,
        epochs=3,
        batch=8,
        n_negatives=3,
        seed=0,
        weights=LossWeights(1.0, 1.0, 1.0, 0.1),
    )
    defaults.update(kw)
    return TrainConfig(**defaults)


def test_config_defaults():
    cfg = TrainConfig()
    assert cfg.eta == 0.01
    assert cfg.epochs == 200
    assert cfg.batch == 128
    assert cfg.n_negatives == 10
    assert cfg.contrastive_variant == "nce"
    assert cfg.reduction == "mean"


def test_config_validation():
    bad = [
        (TrainConfig, dict(eta=0.0), "eta"),
        (TrainConfig, dict(eta=float("nan")), "eta"),
        (TrainConfig, dict(epochs=0), "epochs"),
        (TrainConfig, dict(batch=0), "batch"),
        (TrainConfig, dict(n_negatives=0), "n_negatives"),
        (TrainConfig, dict(iters_per_epoch=0), "iters_per_epoch"),
        (TrainConfig, dict(iters_per_epoch=-1), "iters_per_epoch"),
        (TrainConfig, dict(checkpoint_every=-1), "checkpoint_every"),
        (TrainConfig, dict(seed=-1), "seed"),
        (TrainConfig, dict(temperature=0.0), "temperature"),
        (TrainConfig, dict(contrastive_variant="bogus"), "contrastive_variant"),
        (TrainConfig, dict(score_mode="bogus"), "score_mode"),
        (TrainConfig, dict(nce_form="bogus"), "nce_form"),
        (TrainConfig, dict(reduction="bogus"), "reduction"),
        (LossWeights, dict(lambda_c=float("nan")), "nonnegative"),
        (HeadConfig, dict(eta=0.0), "eta"),
        (HeadConfig, dict(eta=-1.0), "eta"),
        (HeadConfig, dict(epochs=0), "epochs"),
        (HeadConfig, dict(batch=0), "batch"),
        (HeadConfig, dict(seed=-1), "seed"),
    ]
    for cls, kw, name in bad:
        with pytest.raises(ConfigError, match=name):
            cls(**kw)
    # the edges of each range are valid
    TrainConfig(iters_per_epoch=1, checkpoint_every=0, n_negatives=1)
    HeadConfig(epochs=1, batch=1)


def test_minibatch_shapes_and_alignment():
    paired = tiny_paired(classes=3, per_class=6)
    x_i, y_i, x_t, y_t, idx = training.sample_minibatch(
        paired, 6, np.random.default_rng(0)
    )
    assert x_i.shape == (6, paired.image.dim)
    assert x_t.shape == (6, paired.text.dim)
    # shared index list keeps rows paired
    assert np.array_equal(y_i, y_t)
    assert np.array_equal(y_i, paired.labels[idx])


def test_minibatch_without_replacement():
    paired = tiny_paired(classes=3, per_class=6)
    *_, idx = training.sample_minibatch(paired, 18, np.random.default_rng(0))
    assert len(set(idx.tolist())) == 18


def test_minibatch_clips_with_warning(capsys):
    paired = tiny_paired(classes=2, per_class=3)
    x_i, *_ = training.sample_minibatch(paired, 50, np.random.default_rng(0))
    assert x_i.shape[0] == 6
    assert "clipping" in capsys.readouterr().err


def test_minibatch_deterministic_per_seed():
    paired = tiny_paired(classes=3, per_class=6)
    a = training.sample_minibatch(paired, 6, np.random.default_rng(9))[4]
    b = training.sample_minibatch(paired, 6, np.random.default_rng(9))[4]
    assert np.array_equal(a, b)


def test_softmax_cross_entropy_uniform_logits():
    loss, d = softmax_cross_entropy(np.zeros((2, 4)), np.array([0, 3]))
    assert loss == pytest.approx(np.log(4))
    # gradient rows sum to zero
    assert np.allclose(d.sum(axis=1), 0.0, atol=1e-12)


def test_softmax_cross_entropy_confident_correct():
    logits = np.array([[100.0, 0.0]])
    loss, _ = softmax_cross_entropy(logits, np.array([0]))
    assert loss == pytest.approx(0.0, abs=1e-10)


def _train(paired, cfg, **kw):
    train_pair, val_pair = data.split(paired, [0.8, 0.2], seed=cfg.seed)
    return training.train(train_pair, val_pair, cfg, echo=False, **kw)


def test_train_emits_one_report_per_epoch():
    paired = tiny_paired(classes=3, per_class=10, d_image=6, d_text=5)
    result = _train(paired, small_config(epochs=4))
    assert len(result.reports) == 4
    assert [r.epoch for r in result.reports] == [1, 2, 3, 4]


def test_epoch_record_format():
    paired = tiny_paired(classes=3, per_class=10, d_image=6, d_text=5)
    result = _train(paired, small_config(epochs=1))
    rec = result.reports[0].record()
    fields = dict(kv.split("=") for kv in rec.split())
    assert set(fields) == {
        "epoch", "l_r", "l_m", "l_s", "l_c", "total", "skipped", "secs", "val_total", "clamped"
    }
    assert fields["epoch"] == "1"
    float(fields["total"])  # parses


def test_train_records_best_epoch(tmp_path, capsys, monkeypatch):
    # epoch 2 has the lowest validation loss, so it writes best.ckpt
    losses = iter([3.0, 1.0, 2.0])
    monkeypatch.setattr(training, "validation_loss", lambda *a: next(losses))
    paired = tiny_paired(classes=3, per_class=10, d_image=6, d_text=5)
    train_pair, val_pair = data.split(paired, [0.8, 0.2], seed=0)
    log = io.StringIO()
    result = training.train(
        train_pair, val_pair, small_config(epochs=3), out_dir=tmp_path, log_stream=log
    )
    assert result.best_epoch == 2
    want = "best_epoch=2 best_val_total=1"
    assert capsys.readouterr().out.splitlines()[-1] == want
    assert log.getvalue().splitlines()[-1] == want
    assert sum(line.startswith("best_epoch=") for line in log.getvalue().splitlines()) == 1
    assert result.best_path == str(tmp_path / "best.ckpt")


def test_train_halts_on_non_finite_validation_loss_at_first_epoch(tmp_path, monkeypatch):
    # no epoch is finite: the epoch's record is written, then the run halts
    # before any checkpoint or best_epoch record claims a best model
    monkeypatch.setattr(training, "validation_loss", lambda *a: float("nan"))
    paired = tiny_paired(classes=3, per_class=10, d_image=6, d_text=5)
    train_pair, val_pair = data.split(paired, [0.8, 0.2], seed=0)
    log = io.StringIO()
    with pytest.raises(NumericError, match="non-finite validation loss at epoch 1"):
        training.train(
            train_pair, val_pair, small_config(epochs=3), out_dir=tmp_path,
            log_stream=log, echo=False,
        )
    lines = log.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith("epoch=1 ")
    assert "val_total=nan" in lines[0]
    assert list(tmp_path.iterdir()) == []


def test_train_records_best_epoch_without_out_dir():
    paired = tiny_paired(classes=3, per_class=10, d_image=6, d_text=5)
    result = _train(paired, small_config(epochs=3))
    val = [r.val_total for r in result.reports]
    assert result.best_epoch == 1 + val.index(min(val))
    assert result.best_path is None


def test_train_warns_once_when_batch_clipped(capsys):
    paired = tiny_paired(classes=3, per_class=10, d_image=6, d_text=5)
    _train(paired, small_config(epochs=2, batch=50, iters_per_epoch=3))
    assert capsys.readouterr().err.count("clipping") == 1


def test_validation_loss_scores_the_same_sets_every_call():
    paired = tiny_paired(classes=3, per_class=10, d_image=6, d_text=5)
    cfg = small_config()
    m = model_mod.init_model(6, 5, 3, seed=0)
    streams = RngStreams(cfg.seed)
    first = training.validation_loss(m, paired, cfg, streams)
    assert training.validation_loss(m, paired, cfg, streams) == first


def test_training_reduces_reconstruction_loss():
    paired = tiny_paired(classes=3, per_class=10, d_image=6, d_text=5)
    cfg = small_config(epochs=25, weights=LossWeights(1.0, 1e-12, 1e-12, 1e-12))
    result = _train(paired, cfg)
    first = np.mean([r.l_r for r in result.reports[:3]])
    last = np.mean([r.l_r for r in result.reports[-3:]])
    assert last < first


def test_supervised_only_training_regresses_one_hot():
    paired = tiny_paired(classes=3, per_class=12, d_image=6, d_text=5)
    cfg = small_config(
        epochs=40, eta=0.1, weights=LossWeights(1e-12, 1.0, 1e-12, 1e-12)
    )
    result = _train(paired, cfg)
    assert result.reports[-1].l_s < 0.05 * result.reports[0].l_s


def test_zero_eta_leaves_params_unchanged():
    paired = tiny_paired(classes=3, per_class=8, d_image=6, d_text=5)
    cfg = small_config(epochs=1)
    cfg.eta = 0.0  # post-construction injection; the constructor rejects 0
    train_pair, val_pair = data.split(paired, [0.8, 0.2], seed=0)
    streams = RngStreams(cfg.seed)
    m = model_mod.init_model(6, 5, 3, seed=cfg.seed)
    before = {p.name: p.value.copy() for p in m.params()}
    state = training.TrainState(model=m, config=cfg, streams=streams)
    mb = training.sample_minibatch(train_pair, cfg.batch, streams.get("minibatch"))
    training.train_step(state, mb)
    for p in m.params():
        assert np.array_equal(p.value, before[p.name])


def test_training_deterministic_per_seed():
    paired = tiny_paired(classes=3, per_class=10, d_image=6, d_text=5)
    r1 = _train(paired, small_config(epochs=3, seed=5))
    r2 = _train(paired, small_config(epochs=3, seed=5))
    for a, b in zip(r1.reports, r2.reports):
        assert (a.l_r, a.l_m, a.l_s, a.l_c, a.total) == (b.l_r, b.l_m, b.l_s, b.l_c, b.total)
    for pa, pb in zip(r1.model.params(), r2.model.params()):
        assert np.array_equal(pa.value, pb.value)


def test_training_seed_changes_trajectory():
    paired = tiny_paired(classes=3, per_class=10, d_image=6, d_text=5)
    r1 = _train(paired, small_config(epochs=2, seed=0))
    r2 = _train(paired, small_config(epochs=2, seed=1))
    assert r1.reports[-1].total != r2.reports[-1].total


def test_train_writes_checkpoints(tmp_path):
    paired = tiny_paired(classes=3, per_class=10, d_image=6, d_text=5)
    result = _train(paired, small_config(epochs=2), out_dir=tmp_path)
    assert (tmp_path / "final.ckpt").exists()
    assert (tmp_path / "best.ckpt").exists()
    assert result.best_path is not None


def test_final_checkpoint_copies_best_when_last_epoch_is_best(tmp_path, monkeypatch):
    saved = []
    save = training.save_checkpoint

    def counting(model, path):
        saved.append(Path(path).name)
        save(model, path)

    monkeypatch.setattr(training, "save_checkpoint", counting)
    paired = tiny_paired(classes=3, per_class=10, d_image=6, d_text=5)
    result = _train(paired, small_config(epochs=2), out_dir=tmp_path)
    val = [r.val_total for r in result.reports]
    assert val[1] < val[0]  # the last epoch writes best.ckpt
    assert saved == ["best.ckpt", "best.ckpt"]
    assert (tmp_path / "final.ckpt").read_bytes() == (tmp_path / "best.ckpt").read_bytes()
    reloaded = checkpoint.load_checkpoint(tmp_path / "final.ckpt")
    trained = {q.name: q.value for q in result.model.params()}
    assert all(np.array_equal(trained[q.name], q.value) for q in reloaded.params())


def test_final_checkpoint_saved_when_an_earlier_epoch_is_best(tmp_path, monkeypatch):
    # an earlier epoch stays best when later validation losses are higher
    losses = iter([1.0, 2.0])
    monkeypatch.setattr(training, "validation_loss", lambda *a: next(losses))
    paired = tiny_paired(classes=3, per_class=10, d_image=6, d_text=5)
    result = _train(paired, small_config(epochs=2), out_dir=tmp_path)
    assert (tmp_path / "final.ckpt").read_bytes() != (tmp_path / "best.ckpt").read_bytes()
    reloaded = checkpoint.load_checkpoint(tmp_path / "final.ckpt")
    trained = {q.name: q.value for q in result.model.params()}
    assert all(np.array_equal(trained[q.name], q.value) for q in reloaded.params())


def test_train_periodic_checkpoints(tmp_path):
    paired = tiny_paired(classes=3, per_class=10, d_image=6, d_text=5)
    _train(paired, small_config(epochs=4, checkpoint_every=2), out_dir=tmp_path)
    assert (tmp_path / "epoch0002.ckpt").exists()
    assert (tmp_path / "epoch0004.ckpt").exists()
    assert not (tmp_path / "epoch0003.ckpt").exists()


def test_train_rejects_mismatched_val_set():
    a = tiny_paired(classes=3, per_class=8, d_image=6, d_text=5)
    b = tiny_paired(classes=3, per_class=4, d_image=7, d_text=5)
    with pytest.raises(ConfigError):
        training.train(a, b, small_config(epochs=1), echo=False)


def test_train_classifier_freezes_backbone():
    paired = tiny_paired(classes=3, per_class=10, d_image=6, d_text=5)
    m = model_mod.init_model(6, 5, 3, seed=0)
    before = {p.name: p.value.copy() for p in m.params()}
    training.train_classifier(m, paired, head_config=HeadConfig(epochs=2))
    for p in m.params():
        assert np.array_equal(p.value, before[p.name])


def test_train_classifier_deterministic():
    paired = tiny_paired(classes=3, per_class=10, d_image=6, d_text=5)
    m = model_mod.init_model(6, 5, 3, seed=0)
    h1 = training.train_classifier(m, paired, head_config=HeadConfig(epochs=2, seed=3))
    h2 = training.train_classifier(m, paired, head_config=HeadConfig(epochs=2, seed=3))
    for pa, pb in zip(h1.params(), h2.params()):
        assert np.array_equal(pa.value, pb.value)


def test_train_classifier_custom_task_labels():
    """Other task labels travel in a PairedDataset that carries them."""
    paired = tiny_paired(classes=3, per_class=10, d_image=6, d_text=5)
    m = model_mod.init_model(6, 5, 3, seed=0)
    # binary relabelling independent of the pretraining classes
    task = (paired.labels >= 1).astype(np.int64)
    relabelled = data.PairedDataset(
        image=dataclasses.replace(paired.image, labels=task),
        text=dataclasses.replace(paired.text, labels=task),
    )
    head = training.train_classifier(m, relabelled, head_config=HeadConfig(epochs=1))
    assert head.num_classes == 2


def test_train_classifier_clips_batch_with_one_warning(capsys):
    paired = tiny_paired(classes=3, per_class=10, d_image=6, d_text=5)
    m = model_mod.init_model(6, 5, 3, seed=0)
    training.train_classifier(m, paired, head_config=HeadConfig(epochs=2, batch=1000))
    assert capsys.readouterr().err.count("warning: batch 1000 > 30 pairs, clipping") == 1


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_train_classifier_embeds_without_decoders(monkeypatch, dtype):
    """The frozen embeddings are encode->project only, and equal the joint
    embeddings of a full forward pass bit for bit."""
    paired = tiny_paired(classes=3, per_class=10, d_image=6, d_text=5)
    m = model_mod.init_model(6, 5, 3, seed=0, dtype=dtype)
    seen = {}
    embed = training.evaluation.embed_dataset

    def recording(model, ds):
        seen[ds.modality] = embed(model, ds)
        return seen[ds.modality]

    forward_full = model_mod.forward_full
    monkeypatch.setattr(training.evaluation, "embed_dataset", recording)
    monkeypatch.setattr(model_mod, "forward_full", None)  # the decoders never run
    head = training.train_classifier(m, paired, head_config=HeadConfig(epochs=1))
    full = forward_full(
        m, paired.image.features.astype(dtype), paired.text.features.astype(dtype)
    )
    for modality, want in (("image", full.image.o), ("text", full.text.o)):
        got = seen[modality]
        assert got.dtype == want.dtype == dtype
        assert got.tobytes() == want.tobytes()
    assert all(q.value.dtype == dtype for q in head.params())


@pytest.mark.parametrize("lambda_c", [0.0, 0.1])
def test_train_step_and_head_steps_match_oracle(monkeypatch, lambda_c):
    """Three float32 train_steps, then three head steps with dropout on, give
    byte-identical values and equal grads through the production primitives
    and through the whole-array forms in train_step_oracle."""
    paired = tiny_paired(classes=3, per_class=8, d_image=6, d_text=5)

    def run():
        cfg = small_config(weights=LossWeights(lambda_c=lambda_c))
        streams = RngStreams(cfg.seed)
        # hidden 260: the 260x260 weights span two sgd_step update chunks
        m = model_mod.init_model(6, 5, 3, seed=0, hidden_dim=260, latent_dim=32)
        state = training.TrainState(model=m, config=cfg, streams=streams)
        for _ in range(3):
            mb = training.sample_minibatch(paired, cfg.batch, streams.get("minibatch"))
            training.train_step(state, mb)
        # 24 pairs at batch 8: one epoch is three head steps
        head = training.train_classifier(m, paired, head_config=HeadConfig(epochs=1, batch=8))
        return [(p.name, p.value.copy(), p.grad.copy()) for p in m.params() + head.params()]

    production = run()
    monkeypatch.setattr(nn, "affine_forward", oracle.affine_forward)
    monkeypatch.setattr(nn, "relu_backward", oracle.relu_backward)
    monkeypatch.setattr(nn, "sgd_step", oracle.sgd_step)
    monkeypatch.setattr(training, "sgd_step", oracle.sgd_step)
    reference = run()
    assert max(v.size for _, v, _ in production) > nn._CHUNK
    assert [n for n, _, _ in production] == [n for n, _, _ in reference]
    for (name, value, grad), (_, ref_value, ref_grad) in zip(production, reference):
        assert value.dtype == np.float32 and value.tobytes() == ref_value.tobytes(), name
        assert np.array_equal(grad, ref_grad), name
