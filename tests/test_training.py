import dataclasses
import io
from pathlib import Path

import numpy as np
import pytest

import head_step_oracle
import train_step_oracle as oracle
from cobra import checkpoint, data, losses, model as model_mod, nn, training
from cobra.errors import ConfigError, NumericError
from cobra.losses import LossWeights
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
    assert training.HEAD_ETA == 0.05
    assert training.HEAD_BATCH == 128


def test_config_validation():
    bad = [
        (TrainConfig, dict(eta=0.0), "eta"),
        (TrainConfig, dict(eta=float("nan")), "eta"),
        (TrainConfig, dict(epochs=0), "epochs"),
        (TrainConfig, dict(batch=0), "batch"),
        (TrainConfig, dict(n_negatives=0), "n_negatives"),
        (TrainConfig, dict(checkpoint_every=-1), "checkpoint_every"),
        (TrainConfig, dict(seed=-1), "seed"),
        (TrainConfig, dict(eta=float("inf")), "eta"),
        (TrainConfig, dict(contrastive_variant="bogus"), "contrastive_variant"),
        (TrainConfig, dict(contrastive_variant="nce_log"), "contrastive_variant"),
        (LossWeights, dict(lambda_c=float("nan")), "nonnegative"),
        (LossWeights, dict(lambda_c=float("inf")), "lambda_c must be nonnegative and finite"),
        (LossWeights, dict(lambda_r=float("inf")), "lambda_r"),
        (HeadConfig, dict(epochs=0), "epochs"),
        (HeadConfig, dict(seed=-1), "seed"),
    ]
    for cls, kw, name in bad:
        with pytest.raises(ConfigError, match=name):
            cls(**kw)
    # the edges of each range are valid
    TrainConfig(batch=1, checkpoint_every=0, n_negatives=1)
    for variant in losses.CONTRASTIVE_VARIANTS:
        TrainConfig(contrastive_variant=variant)
    HeadConfig(epochs=1, seed=0)


def test_minibatch_shapes_and_alignment():
    paired = tiny_paired(classes=3, per_class=6)
    x_i, x_t, y, idx = training.sample_minibatch(paired, 6, np.random.default_rng(0))
    assert x_i.shape == (6, paired.image.dim)
    assert x_t.shape == (6, paired.text.dim)
    # shared index list keeps rows paired
    assert np.array_equal(x_i, paired.image.features[idx])
    assert np.array_equal(x_t, paired.text.features[idx])
    assert np.array_equal(y, paired.labels[idx])


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
    a = training.sample_minibatch(paired, 6, np.random.default_rng(9))[3]
    b = training.sample_minibatch(paired, 6, np.random.default_rng(9))[3]
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
    # no epoch is finite: the epoch's record and a halt record after its 3
    # steps (24 pairs, batch 8) are written, then the run halts before any
    # checkpoint or best_epoch record claims a best model
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
    assert len(lines) == 2 and lines[0].startswith("epoch=1 ")
    assert "val_total=nan" in lines[0]
    assert lines[1] == "halt=validation epoch=1 step=3"
    assert list(tmp_path.iterdir()) == []


def test_train_halts_on_non_finite_training_loss_naming_its_epoch(monkeypatch):
    # two steps an epoch (30 pairs, batch 15) and no validation set: the
    # fifth loss is epoch 3's first, and a halt record names that step
    total_loss, calls = losses.total_loss, []

    def nan_at_fifth(*args):
        calls.append(None)
        bd = total_loss(*args)
        return dataclasses.replace(bd, total=np.nan) if len(calls) == 5 else bd

    monkeypatch.setattr(losses, "total_loss", nan_at_fifth)
    paired = tiny_paired(classes=3, per_class=10, d_image=6, d_text=5)
    log = io.StringIO()
    with pytest.raises(NumericError, match=r"^non-finite total loss \(l_r=.*\) at epoch 3$"):
        training.train(
            paired, None, small_config(epochs=4, batch=15), log_stream=log, echo=False
        )
    lines = log.getvalue().splitlines()
    assert [line.split()[0] for line in lines] == ["epoch=1", "epoch=2", "halt=train"]
    assert lines[-1] == "halt=train epoch=3 step=1"


def test_train_without_validation_set_trains_the_same_model(tmp_path, monkeypatch):
    """No validation set: no validation loss, val_total nan without a halt,
    no best.ckpt, and the final model bit-identical to a run with one."""
    paired = tiny_paired(classes=3, per_class=10, d_image=6, d_text=5)
    train_pair, val_pair = data.split(paired, [0.8, 0.2], seed=0)
    cfg = small_config(epochs=3)
    with_val = training.train(train_pair, val_pair, cfg, echo=False).model

    def not_called(*a):
        raise AssertionError("validation_loss ran without a validation set")

    monkeypatch.setattr(training, "validation_loss", not_called)
    result = training.train(train_pair, None, cfg, out_dir=tmp_path, echo=False)
    assert all(np.isnan(r.val_total) for r in result.reports)
    assert result.best_epoch is None
    assert sorted(p.name for p in tmp_path.iterdir()) == ["final.ckpt"]
    assert result.best_path == str(tmp_path / "final.ckpt")
    for a, b in zip(result.model.params(), with_val.params()):
        assert a.value.tobytes() == b.value.tobytes(), a.name


def test_train_records_best_epoch_without_out_dir():
    paired = tiny_paired(classes=3, per_class=10, d_image=6, d_text=5)
    result = _train(paired, small_config(epochs=3))
    val = [r.val_total for r in result.reports]
    assert result.best_epoch == 1 + val.index(min(val))
    assert result.best_path is None


def test_train_warns_once_when_batch_clipped(capsys):
    paired = tiny_paired(classes=3, per_class=10, d_image=6, d_text=5)
    _train(paired, small_config(epochs=3, batch=50))
    assert capsys.readouterr().err.count("clipping") == 1


def test_validation_loss_scores_the_same_sets_every_call():
    paired = tiny_paired(classes=3, per_class=10, d_image=6, d_text=5)
    cfg = small_config()
    m = model_mod.init_model(6, 5, 3, seed=0)
    first = training.validation_loss(m, paired, cfg)
    assert training.validation_loss(m, paired, cfg) == first


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
    m = model_mod.init_model(6, 5, 3, seed=cfg.seed)
    before = {p.name: p.value.copy() for p in m.params()}
    mb = training.sample_minibatch(train_pair, cfg.batch, nn.rng(cfg.seed, "minibatch"))
    training.train_step(m, mb, cfg, nn.rng(cfg.seed, "negatives"))
    for p in m.params():
        assert np.array_equal(p.value, before[p.name])


def test_no_contrastive_variant_is_an_alias():
    """One train_step from one seed trains a different model under each
    contrastive variant."""
    paired = tiny_paired(classes=3, per_class=8, d_image=6, d_text=5)
    trained = set()
    for variant in losses.CONTRASTIVE_VARIANTS:
        cfg = small_config(contrastive_variant=variant)
        m = model_mod.init_model(6, 5, 3, seed=0)
        mb = training.sample_minibatch(paired, cfg.batch, nn.rng(cfg.seed, "minibatch"))
        training.train_step(m, mb, cfg, nn.rng(cfg.seed, "negatives"))
        trained.add(b"".join(p.value.tobytes() for p in m.params()))
    assert len(trained) == len(losses.CONTRASTIVE_VARIANTS) == 3


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
        image=dataclasses.replace(paired.image, labels=task, num_classes=2),
        text=dataclasses.replace(paired.text, labels=task, num_classes=2),
    )
    head = training.train_classifier(m, relabelled, head_config=HeadConfig(epochs=1))
    assert head.num_classes == 2


def test_train_classifier_head_width_is_the_class_count():
    """A training set that lacks its highest class still gets one head
    output per class, so the head can score every class of a test split."""
    paired = tiny_paired(classes=3, per_class=10, d_image=6, d_text=5)
    m = model_mod.init_model(6, 5, 3, seed=0)
    two_classes = paired.subset(np.flatnonzero(paired.labels <= 1))
    assert two_classes.num_classes == 3 and two_classes.labels.max() == 1
    head = training.train_classifier(m, two_classes, head_config=HeadConfig(epochs=1))
    widths = {p.name: p.value.shape[1] for p in head.params()}
    assert widths["head.fc3.w"] == 3


def test_train_classifier_clips_batch_with_one_warning(capsys):
    paired = tiny_paired(classes=3, per_class=10, d_image=6, d_text=5)
    m = model_mod.init_model(6, 5, 3, seed=0)
    training.train_classifier(m, paired, head_config=HeadConfig(epochs=2))
    assert capsys.readouterr().err.count("warning: batch 128 > 30 pairs, clipping") == 1


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
    monkeypatch.setattr(training, "HEAD_BATCH", 8)

    def run():
        cfg = small_config(weights=LossWeights(lambda_c=lambda_c))
        mb_rng, neg_rng = nn.rng(cfg.seed, "minibatch"), nn.rng(cfg.seed, "negatives")
        # hidden 260: the 260x260 weights span two sgd_step update chunks
        m = model_mod.init_model(6, 5, 3, seed=0, hidden_dim=260, latent_dim=32)
        for _ in range(3):
            mb = training.sample_minibatch(paired, cfg.batch, mb_rng)
            training.train_step(m, mb, cfg, neg_rng)
        # 24 pairs at batch 8: one epoch is three head steps
        head = training.train_classifier(m, paired, head_config=HeadConfig(epochs=1))
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


def _summed(loss, rows):
    """`loss` as a sum of squared errors: its value and gradients times the
    row count rows(*args) that the mean divides by."""

    def summed(*args):
        n = rows(*args)
        value, *grads = loss(*args)
        return (n * value, *(n * g for g in grads))

    return summed


@pytest.mark.parametrize("lambda_c", [0.0, 0.1])
@pytest.mark.parametrize("batch", [8, 6])
def test_summed_squared_errors_train_as_mean_with_scaled_settings(
    monkeypatch, batch, lambda_c
):
    """What the CLI tells a config with the retired reduction=sum holds: the
    summed squared-error losses train the same float64 parameters as the
    means at eta x batch, lambda_r x 2 and lambda_c / batch. Bit for bit at
    a power-of-two batch; at batch 6 the two differ by the rounding of 1/12
    and 1/6."""
    paired = tiny_paired(classes=3, per_class=8, d_image=6, d_text=5)
    eta = 0.005

    def run(eta, weights):
        cfg = small_config(eta=eta, batch=batch, weights=weights)
        mb_rng, neg_rng = nn.rng(cfg.seed, "minibatch"), nn.rng(cfg.seed, "negatives")
        m = model_mod.init_model(6, 5, 3, seed=0, dtype=np.float64)
        for _ in range(3):
            mb = training.sample_minibatch(paired, cfg.batch, mb_rng)
            training.train_step(m, mb, cfg, neg_rng)
        return [p.value for p in m.params()]

    mean = run(eta * batch, LossWeights(lambda_r=2.0, lambda_c=lambda_c / batch))
    losses = training.losses
    for name, rows in (
        ("recon_loss", lambda xh_i, x_i, xh_t, x_t: x_i.shape[0] + x_t.shape[0]),
        ("cross_modal_loss", lambda o_t, o_i: o_t.shape[0]),
        ("supervised_loss", lambda o, labels, c: o.shape[0]),
    ):
        monkeypatch.setattr(losses, name, _summed(getattr(losses, name), rows))
    summed = run(eta, LossWeights(lambda_c=lambda_c))

    init = model_mod.init_model(6, 5, 3, seed=0, dtype=np.float64).params()
    assert len(mean) == len(summed) == len(init)
    for got, want, start in zip(summed, mean, init):
        assert got.dtype == np.float64 and not np.array_equal(got, start.value)
        if batch == 8:
            assert got.tobytes() == want.tobytes()
        else:
            # atol scales with the param: a bias entry near 0 is a difference
            # of rounded terms, so its own relative error is no guide
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_head_steps_on_float64_draws_match_unfused_oracle(monkeypatch, dtype):
    """With nn.keep_mask drawing as the unfused step did, the fused ReLU and
    dropout train a head byte-identical to relu, dropout and relu_backward
    run one after another."""
    paired = tiny_paired(classes=3, per_class=8, d_image=6, d_text=5)
    m = model_mod.init_model(6, 5, 3, seed=0, dtype=dtype, hidden_dim=16, latent_dim=8)
    monkeypatch.setattr(training, "HEAD_BATCH", 8)

    def run():
        head = training.train_classifier(m, paired, head_config=HeadConfig(epochs=2))
        return [(p.name, p.value.tobytes(), p.value.dtype) for p in head.params()]

    monkeypatch.setattr(nn, "keep_mask", head_step_oracle.keep_mask)
    production = run()
    monkeypatch.setattr(model_mod, "classify_cached", head_step_oracle.classify_cached)
    monkeypatch.setattr(model_mod, "classify_backward", head_step_oracle.classify_backward)
    reference = run()
    assert len(production) == 8
    for (name, value, got), (_, ref_value, _) in zip(production, reference):
        assert got == dtype and value == ref_value, name


def test_train_classifier_draws_the_minibatches_of_the_minibatch_stream(monkeypatch):
    """The minibatch stream does not depend on how the dropout stream is
    drawn: seed 3 gives the four minibatches it gave with float64 dropout
    draws, in order."""
    paired = tiny_paired(classes=3, per_class=10, d_image=6, d_text=5)
    m = model_mod.init_model(6, 5, 3, seed=0)
    o_text = training.evaluation.embed_dataset(m, paired.text)
    seen = []
    classify_cached = model_mod.classify_cached

    def recording(head, o_t, o_i, rng=None):
        seen.append(o_t.copy())
        return classify_cached(head, o_t, o_i, rng=rng)

    monkeypatch.setattr(model_mod, "classify_cached", recording)
    monkeypatch.setattr(training, "HEAD_BATCH", 8)
    training.train_classifier(m, paired, head_config=HeadConfig(epochs=1, seed=3))
    drawn = [
        [14, 15, 25, 16, 3, 29, 27, 2],
        [5, 27, 6, 12, 0, 11, 28, 14],
        [18, 24, 10, 21, 20, 28, 25, 26],
        [11, 0, 14, 28, 21, 3, 7, 19],
    ]
    assert len(seen) == len(drawn)
    for got, idx in zip(seen, drawn):
        assert got.tobytes() == o_text[idx].tobytes()
