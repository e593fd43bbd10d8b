"""Minibatch SGD training of the joint-embedding model, epoch reporting,
best-on-validation checkpointing, and second-stage classifier training.

One index list is shared by both modalities, so every sampled row is a
genuine pair.
"""

from __future__ import annotations

import shutil
import sys
import time
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import data, evaluation, losses, model as model_mod
from .checkpoint import save_checkpoint
from .data import PairedDataset
from .errors import ConfigError, NumericError
from .losses import LossBreakdown, LossWeights, check_choice
from .model import ClassifierHead, CobraModel
from .nn import RngStreams, sgd_step


def _choice(default: str, choices: tuple):
    return field(default=default, metadata={"choices": choices})


def _check_ranges(cfg, positive=(), minimum=None):
    """Each field named in `positive` must be > 0 (NaN is not); each key of
    `minimum` must be at least its value."""
    for name in positive:
        if not getattr(cfg, name) > 0:
            raise ConfigError(f"{name} must be positive, got {getattr(cfg, name)}")
    for name, low in (minimum or {}).items():
        if getattr(cfg, name) < low:
            raise ConfigError(f"{name} must be >= {low}, got {getattr(cfg, name)}")


@dataclass
class TrainConfig:
    """Every training setting, its default and its valid range. The CLI's
    `train` flags and config-file keys are derived from these fields."""

    eta: float = 0.01
    epochs: int = 200
    batch: int = 128
    iters_per_epoch: int | None = None  # default: ceil(n_pairs / batch)
    weights: LossWeights = field(default_factory=LossWeights)
    n_negatives: int = 10
    contrastive_variant: str = _choice("nce", losses.CONTRASTIVE_VARIANTS)
    score_mode: str = _choice("exp", losses.SCORE_MODES)  # setform only
    nce_form: str = _choice("log", losses.NCE_FORMS)
    temperature: float = 1.0
    seed: int = 0
    checkpoint_every: int = 0  # epochs; 0 disables periodic checkpoints
    reduction: str = _choice("mean", losses.REDUCTIONS)

    def __post_init__(self):
        minimum = dict(epochs=1, batch=1, n_negatives=1, seed=0, checkpoint_every=0)
        if self.iters_per_epoch is not None:
            minimum["iters_per_epoch"] = 1
        _check_ranges(self, ("eta", "temperature"), minimum)
        for f in fields(self):
            if "choices" in f.metadata:
                check_choice(f.name, getattr(self, f.name), f.metadata["choices"])


@dataclass
class EpochReport:
    epoch: int
    l_r: float
    l_m: float
    l_s: float
    l_c: float
    total: float
    skipped_anchors: int
    clamped_scores: int
    val_total: float
    seconds: float

    def record(self) -> str:
        return (
            f"epoch={self.epoch} l_r={self.l_r:.6g} l_m={self.l_m:.6g} "
            f"l_s={self.l_s:.6g} l_c={self.l_c:.6g} total={self.total:.6g} "
            f"skipped={self.skipped_anchors} secs={self.seconds:.6g} "
            f"val_total={self.val_total:.6g} clamped={self.clamped_scores}"
        )


@dataclass
class TrainState:
    model: CobraModel
    config: TrainConfig
    streams: RngStreams
    epoch: int = 0
    best_val: float = np.inf
    best_path: str | None = None
    best_epoch: int | None = None


@dataclass
class TrainResult:
    model: CobraModel
    reports: list[EpochReport]
    best_path: str | None
    best_epoch: int | None  # the epoch with the lowest val_total


def _clip_batch(b: int, n_pairs: int) -> int:
    if b > n_pairs:
        print(f"warning: batch {b} > {n_pairs} pairs, clipping", file=sys.stderr)
    return min(b, n_pairs)


def sample_minibatch(paired: PairedDataset, b: int, rng: np.random.Generator):
    """Uniform pair indices without replacement within the batch.

    Returns (x_image, y_image, x_text, y_text, idx); the same index list
    feeds both modalities so cross-modal pairing holds.
    """
    b = _clip_batch(b, paired.n_pairs)
    idx = rng.choice(paired.n_pairs, size=b, replace=False)
    return (
        paired.image.features[idx],
        paired.image.labels[idx],
        paired.text.features[idx],
        paired.text.labels[idx],
        idx,
    )


def train_step(state: TrainState, minibatch) -> LossBreakdown:
    """Forward, loss assembly, backward, SGD update. Halts on non-finite loss."""
    x_i, y_i, x_t, y_t, _ = minibatch
    cfg = state.config
    dtype = state.model.dtype
    cache = model_mod.forward_full(state.model, x_i.astype(dtype), x_t.astype(dtype))
    bd = losses.total_loss(cache, y_i, y_t, cfg, state.streams.get("negatives"))
    if not np.isfinite(bd.total):
        raise NumericError(
            f"non-finite total loss at epoch {state.epoch} "
            f"(l_r={bd.l_r} l_m={bd.l_m} l_s={bd.l_s} l_c={bd.l_c})"
        )
    model_mod.backward_full(
        state.model, cache, bd.d_o_image, bd.d_o_text, bd.d_xhat_image, bd.d_xhat_text
    )
    sgd_step(state.model.params(), cfg.eta)
    return bd


def validation_loss(
    model: CobraModel, paired: PairedDataset, cfg: TrainConfig, streams: RngStreams
) -> float:
    """Total loss on the whole of `paired` in eval mode. Every call draws the
    contrastive sets from the same run-constant generator key, so epochs are
    compared on the same sets."""
    dtype = model.dtype
    cache = model_mod.forward_full(
        model, paired.image.features.astype(dtype), paired.text.features.astype(dtype)
    )
    val_rng = streams.derive(4)
    return losses.total_loss(cache, paired.image.labels, paired.text.labels, cfg, val_rng).total


def train(
    train_pair: PairedDataset,
    val_pair: PairedDataset,
    config: TrainConfig,
    out_dir=None,
    log_stream=None,
    echo=True,
) -> TrainResult:
    """Runs the full training loop; writes best.ckpt / final.ckpt when
    out_dir is given, emits one epoch record per epoch and then one record
    naming the epoch with the lowest validation loss. A non-finite training
    or validation loss halts with a NumericError, after that epoch's record
    when it is the validation loss."""
    if train_pair.num_classes != val_pair.num_classes:
        raise ConfigError("train and validation class counts differ")
    if (
        train_pair.image.dim != val_pair.image.dim
        or train_pair.text.dim != val_pair.text.dim
    ):
        raise ConfigError("train and validation feature dims differ")

    streams = RngStreams(config.seed)
    m = model_mod.init_model(
        train_pair.image.dim,
        train_pair.text.dim,
        train_pair.num_classes,
        seed=config.seed,
    )
    state = TrainState(model=m, config=config, streams=streams)
    batch = _clip_batch(config.batch, train_pair.n_pairs)
    iters = config.iters_per_epoch or -(-train_pair.n_pairs // batch)
    out_dir = Path(out_dir) if out_dir is not None else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)

    reports: list[EpochReport] = []
    mb_rng = streams.get("minibatch")
    for epoch in range(1, config.epochs + 1):
        state.epoch = epoch
        t0 = time.perf_counter()
        sums = np.zeros(5)
        skipped = clamped = 0
        for _ in range(iters):
            mb = sample_minibatch(train_pair, batch, mb_rng)
            bd = train_step(state, mb)
            sums += (bd.l_r, bd.l_m, bd.l_s, bd.l_c, bd.total)
            skipped += bd.skipped_anchors
            clamped += bd.clamped_scores
        val_total = validation_loss(state.model, val_pair, config, streams)
        report = EpochReport(
            epoch=epoch,
            l_r=sums[0] / iters,
            l_m=sums[1] / iters,
            l_s=sums[2] / iters,
            l_c=sums[3] / iters,
            total=sums[4] / iters,
            skipped_anchors=skipped,
            clamped_scores=clamped,
            val_total=val_total,
            seconds=time.perf_counter() - t0,
        )
        reports.append(report)
        _emit(report.record(), echo, log_stream)
        if not np.isfinite(val_total):
            raise NumericError(f"non-finite validation loss at epoch {epoch}")

        if val_total < state.best_val:
            state.best_val = val_total
            state.best_epoch = epoch
            if out_dir is not None:
                state.best_path = str(out_dir / "best.ckpt")
                save_checkpoint(state.model, state.best_path)
        if (
            out_dir is not None
            and config.checkpoint_every
            and epoch % config.checkpoint_every == 0
        ):
            save_checkpoint(state.model, out_dir / f"epoch{epoch:04d}.ckpt")

    if out_dir is not None:
        final = out_dir / "final.ckpt"
        if state.best_epoch == state.epoch:
            # the last epoch wrote best.ckpt: same parameters, same bytes
            shutil.copyfile(state.best_path, final)
        else:
            save_checkpoint(state.model, final)
        if state.best_path is None:
            state.best_path = str(final)
    _emit(
        f"best_epoch={state.best_epoch} best_val_total={state.best_val:.6g}",
        echo,
        log_stream,
    )
    return TrainResult(state.model, reports, state.best_path, state.best_epoch)


def _emit(line: str, echo: bool, log_stream):
    """One record to stdout (when echo) and to the run log."""
    if echo:
        print(line)
    if log_stream is not None:
        log_stream.write(line + "\n")
        log_stream.flush()


# The data contrastive_ablation draws unless given another spec
ABLATION_SPEC = data.SyntheticSpec(
    classes=5, d_image=16, d_text=12, pairs_per_class=30, sigma=0.5
)


def contrastive_ablation(
    spec: data.SyntheticSpec = ABLATION_SPEC,
    seeds: int = 5,
    epochs: int = 6,
    batch: int = 32,
    lambda_c: float = 0.1,
) -> tuple[list[tuple[float, float]], int]:
    """Held-out retrieval mAP of training with the contrastive weight
    `lambda_c` and without it, each other setting at TrainConfig's default.

    Seed k splits the data drawn from `spec` 0.8/0.2 and trains both arms on
    the 0.8 part with seed k. Returns the per-seed (map_with, map_without)
    pairs and the number of seeds where map_with >= map_without (ties win).

    The 0.2 test part is also `train`'s validation set. That does not leak:
    `train` returns the last epoch's model, and the validation loss only
    chooses the epoch best.ckpt holds, which is not written here.
    """
    paired = data.generate_synthetic(spec)
    scores = []
    for seed in range(seeds):
        train_set, test_set = data.split(paired, [0.8, 0.2], seed=seed)

        def held_out_map(weight: float) -> float:
            cfg = TrainConfig(
                epochs=epochs, batch=batch, seed=seed, weights=LossWeights(lambda_c=weight)
            )
            trained = train(train_set, test_set, cfg, echo=False).model
            return evaluation.retrieval_report(trained, test_set).map_avg

        scores.append((held_out_map(lambda_c), held_out_map(0.0)))
    wins = sum(with_c >= without_c for with_c, without_c in scores)
    return scores, wins


@dataclass
class HeadConfig:
    eta: float = 0.05
    epochs: int = 100
    batch: int = 128
    seed: int = 0

    def __post_init__(self):
        _check_ranges(self, ("eta",), dict(epochs=1, batch=1, seed=0))


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy with softmax; returns (loss, d_logits)."""
    m = logits.max(axis=1, keepdims=True)
    e = np.exp(logits - m)
    p = e / e.sum(axis=1, keepdims=True)
    n = logits.shape[0]
    eps = np.finfo(p.dtype).tiny
    loss = -float(np.mean(np.log(p[np.arange(n), labels] + eps)))
    d = p.copy()
    d[np.arange(n), labels] -= 1.0
    return loss, d / n


def train_classifier(
    frozen_model: CobraModel,
    paired: PairedDataset,
    head_config: HeadConfig | None = None,
) -> ClassifierHead:
    """Trains the fusion head on frozen joint embeddings (two-stage), on the
    labels `paired` carries; to train on other labels, pass a PairedDataset
    that carries them."""
    cfg = head_config or HeadConfig()
    labels = paired.labels
    num_task_classes = int(labels.max()) + 1

    dtype = frozen_model.dtype
    o_image = evaluation.embed_dataset(frozen_model, paired.image)
    o_text = evaluation.embed_dataset(frozen_model, paired.text)

    head = model_mod.init_head(
        frozen_model.joint_dim, num_task_classes, seed=cfg.seed, dtype=dtype
    )
    streams = RngStreams(cfg.seed)
    mb_rng = streams.get("minibatch")
    drop_rng = streams.get("dropout")
    b = _clip_batch(cfg.batch, paired.n_pairs)
    iters = -(-paired.n_pairs // b)
    for _ in range(cfg.epochs):
        for _ in range(iters):
            idx = mb_rng.choice(paired.n_pairs, size=b, replace=False)
            hc = model_mod.classify_cached(head, o_text[idx], o_image[idx], rng=drop_rng)
            _, d_logits = softmax_cross_entropy(hc.output, labels[idx])
            model_mod.classify_backward(head, hc, d_logits)
            sgd_step(head.params(), cfg.eta)
    return head
