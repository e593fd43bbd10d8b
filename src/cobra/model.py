"""The COBRA network: per-modality autoencoder + joint-space projection,
plus the bi-modal fusion classifier head.

Encoder:    FC(d, 1024) ReLU -> FC(1024, 1024) ReLU -> FC(1024, 512) identity
Decoder:    FC(512, 1024) ReLU -> FC(1024, 1024) ReLU -> FC(1024, d) identity
Projection: FC(512, Z) identity, one head per modality
Classifier: Concat -> FC(2Z, 512) ReLU Drop(.5) -> FC(512, 128) ReLU Drop(.5)
            -> FC(128, 64) ReLU Drop(.2) -> FC(64, C_task)

In every MLP a ReLU follows every layer but the last, which is linear; the
head's dropout follows those ReLUs in training forwards only. The joint
dimension Z equals the class count C: the supervised objective regresses
projections onto one-hot labels, which fixes the width. Every width is read
from the weights. Each layer's name and shape is stated once, in build_model
and build_head, which init_* and the checkpoint loaders both call.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import nn
from .errors import ParameterError, ShapeError
from .nn import Param

LATENT_DIM = 512
HIDDEN_DIM = 1024
HEAD_DROPOUT = (0.5, 0.5, 0.2)  # after the head's three ReLUs, in training


Layer = tuple[Param, Param]  # (weight, bias)


def _params(layers: list[Layer]) -> list[Param]:
    return [p for pair in layers for p in pair]


@dataclass
class ModalityPipeline:
    modality: str  # "image" | "text"
    encoder: list[Layer]
    decoder: list[Layer]
    projection: list[Layer]  # single affine layer

    @property
    def input_dim(self) -> int:
        return self.encoder[0][0].value.shape[0]

    @property
    def latent_dim(self) -> int:
        return self.encoder[-1][0].value.shape[1]

    def params(self) -> list[Param]:
        return _params(self.encoder + self.decoder + self.projection)


@dataclass
class CobraModel:
    image: ModalityPipeline
    text: ModalityPipeline

    @property
    def joint_dim(self) -> int:
        return self.image.projection[0][0].value.shape[1]

    def pipeline(self, modality: str) -> ModalityPipeline:
        if modality == "image":
            return self.image
        if modality == "text":
            return self.text
        raise ParameterError(f"unknown modality {modality!r}")

    def params(self) -> list[Param]:
        return self.image.params() + self.text.params()

    @property
    def dtype(self):
        return self.image.encoder[0][0].value.dtype


@dataclass
class ClassifierHead:
    layers: list[Layer]

    def params(self) -> list[Param]:
        return _params(self.layers)

    @property
    def input_dim(self) -> int:
        return self.layers[0][0].value.shape[0]

    @property
    def num_classes(self) -> int:
        return self.layers[-1][0].value.shape[1]


@dataclass
class MlpCache:
    """Per-layer inputs and pre-activations of one MLP forward pass."""

    inputs: list[np.ndarray]
    pres: list[np.ndarray]
    output: np.ndarray
    masks: list[np.ndarray | None] = field(default_factory=list)


@dataclass
class PipelineCache:
    x: np.ndarray
    enc: MlpCache
    z: np.ndarray
    proj: MlpCache
    o: np.ndarray
    dec: MlpCache
    x_hat: np.ndarray


@dataclass
class ForwardCache:
    image: PipelineCache
    text: PipelineCache


def _mlp_forward(
    x: np.ndarray,
    layers: list[Layer],
    dropout_p: tuple[float, ...] = (),
    rng: np.random.Generator | None = None,
) -> MlpCache:
    """Forward through affine layers; ReLU after every layer but the last,
    the i-th followed by dropout of probability dropout_p[i] if given."""
    inputs, pres, masks = [], [], []
    h = x
    for i, (w, b) in enumerate(layers):
        inputs.append(h)
        pre = nn.affine_forward(h, w.value, b.value)
        pres.append(pre)
        mask = None
        if i < len(layers) - 1:
            h = nn.relu(pre)
            if i < len(dropout_p):
                h, mask = nn.dropout(h, dropout_p[i], rng)
        else:
            h = pre
        masks.append(mask)
    return MlpCache(inputs=inputs, pres=pres, output=h, masks=masks)


def _mlp_backward(cache: MlpCache, layers: list[Layer], d_out: np.ndarray) -> np.ndarray:
    """Writes each layer's Param.grad; returns the gradient w.r.t. the MLP input."""
    d = d_out
    for i in range(len(layers) - 1, -1, -1):
        w, b = layers[i]
        if i < len(layers) - 1:
            if cache.masks[i] is not None:
                d = d * cache.masks[i]
            d = nn.relu_backward(cache.pres[i], d)
        d = nn.affine_backward(cache.inputs[i], w.value, d, w.grad, b.grad)
    return d


def encode(pipeline: ModalityPipeline, x: np.ndarray) -> np.ndarray:
    """Latent code z = f(x); batch x d_j -> batch x 512."""
    if x.shape[1] != pipeline.input_dim:
        raise ShapeError(
            f"{pipeline.modality} encode: input width {x.shape[1]} != {pipeline.input_dim}"
        )
    return _mlp_forward(x, pipeline.encoder).output


def project(pipeline: ModalityPipeline, z: np.ndarray) -> np.ndarray:
    """Joint-space projection O = z @ W + b; batch x 512 -> batch x Z."""
    if z.shape[1] != pipeline.latent_dim:
        raise ShapeError(f"project: latent width {z.shape[1]} != {pipeline.latent_dim}")
    return _mlp_forward(z, pipeline.projection).output


def classify_cached(
    head: ClassifierHead,
    o_text: np.ndarray,
    o_image: np.ndarray,
    rng: np.random.Generator | None = None,
) -> MlpCache:
    """The fusion head's forward pass, with dropout drawn from `rng` when one
    is given (a training forward) and none without; its `output` holds the
    logits."""
    if o_text.shape[0] != o_image.shape[0]:
        raise ShapeError(
            f"classify: row counts differ ({o_text.shape[0]} text vs "
            f"{o_image.shape[0]} image)"
        )
    x = np.concatenate([o_text, o_image], axis=1)
    if x.shape[1] != head.input_dim:
        raise ShapeError(
            f"classify: concat width {x.shape[1]} != head input {head.input_dim}"
        )
    dropout_p = HEAD_DROPOUT if rng is not None else ()
    return _mlp_forward(x, head.layers, dropout_p=dropout_p, rng=rng)


def classify_backward(head: ClassifierHead, cache: MlpCache, d_logits: np.ndarray):
    """Writes every head Param.grad (its input, the embeddings, stays frozen)."""
    _mlp_backward(cache, head.layers, d_logits)


def forward_full(model: CobraModel, x_image: np.ndarray, x_text: np.ndarray) -> ForwardCache:
    """One minibatch through both pipelines, keeping all intermediates."""

    def run(pipeline: ModalityPipeline, x: np.ndarray) -> PipelineCache:
        if x.shape[1] != pipeline.input_dim:
            raise ShapeError(
                f"{pipeline.modality} input width {x.shape[1]} != {pipeline.input_dim}"
            )
        enc = _mlp_forward(x, pipeline.encoder)
        z = enc.output
        proj = _mlp_forward(z, pipeline.projection)
        dec = _mlp_forward(z, pipeline.decoder)
        return PipelineCache(
            x=x, enc=enc, z=z, proj=proj, o=proj.output, dec=dec, x_hat=dec.output
        )

    return ForwardCache(image=run(model.image, x_image), text=run(model.text, x_text))


def backward_full(
    model: CobraModel, cache: ForwardCache, d_o_image, d_o_text, d_xhat_image, d_xhat_text
):
    """Writes every pipeline Param.grad from the loss gradients w.r.t. the
    joint projections (d_o_*) and reconstructions (d_xhat_*); d_z sums the
    decoder and projection branches.
    """
    for pipeline, pc, d_o, d_xhat in (
        (model.image, cache.image, d_o_image, d_xhat_image),
        (model.text, cache.text, d_o_text, d_xhat_text),
    ):
        if d_o.shape != pc.o.shape or d_xhat.shape != pc.x_hat.shape:
            raise ShapeError(
                f"{pipeline.modality} backward: grad shapes {d_o.shape}/{d_xhat.shape} "
                f"!= forward shapes {pc.o.shape}/{pc.x_hat.shape}"
            )
        d_z = _mlp_backward(pc.proj, pipeline.projection, d_o)
        d_z = d_z + _mlp_backward(pc.dec, pipeline.decoder, d_xhat)
        _mlp_backward(pc.enc, pipeline.encoder, d_z)


def _layers(prefix: str, dims: list[int], value) -> list[Layer]:
    """One (weight, bias) pair per consecutive pair of widths in `dims`, each
    array taken from value(name, shape), weight first."""
    layers = []
    for i, (fan_in, fan_out) in enumerate(zip(dims[:-1], dims[1:])):
        w, b = f"{prefix}{i}.w", f"{prefix}{i}.b"
        layers.append(
            (Param(w, value(w, (fan_in, fan_out))), Param(b, value(b, (1, fan_out))))
        )
    return layers


def build_model(d_image, d_text, num_classes, hidden_dim, latent_dim, value) -> CobraModel:
    """The model's layout; value(name, shape) gives each tensor, in params() order."""
    h, z = hidden_dim, latent_dim

    def pipeline(modality: str, d: int) -> ModalityPipeline:
        return ModalityPipeline(
            modality,
            _layers(f"{modality}.enc", [d, h, h, z], value),
            _layers(f"{modality}.dec", [z, h, h, d], value),
            _layers(f"{modality}.proj", [z, num_classes], value),
        )

    return CobraModel(pipeline("image", d_image), pipeline("text", d_text))


def build_head(dims: list[int], value) -> ClassifierHead:
    """The fusion head's layout: one layer per consecutive pair of `dims`."""
    return ClassifierHead(layers=_layers("head.fc", dims, value))


def _fresh_values(seed: int, dtype):
    """Glorot weights drawn in turn from the seed's init stream; zero biases."""
    rng = nn.RngStreams(seed).get("init")

    def value(name: str, shape: tuple[int, int]) -> np.ndarray:
        if name.endswith(".b"):
            return np.zeros(shape, dtype=dtype)
        return nn.glorot_uniform(rng, *shape, dtype)

    return value


def init_model(
    d_image: int,
    d_text: int,
    num_classes: int,
    seed: int,
    dtype=np.float32,
    hidden_dim: int = HIDDEN_DIM,
    latent_dim: int = LATENT_DIM,
) -> CobraModel:
    """Fresh model with Z = num_classes; deterministic for a fixed seed.

    hidden_dim / latent_dim are overridable only to make toy instances
    small enough for finite-difference checking.
    """
    for name, v in (("d_image", d_image), ("d_text", d_text), ("num_classes", num_classes)):
        if v < 1:
            raise ParameterError(f"{name} must be >= 1, got {v}")
    return build_model(
        d_image, d_text, num_classes, hidden_dim, latent_dim, _fresh_values(seed, dtype)
    )


def init_head(
    joint_dim: int,
    num_task_classes: int,
    seed: int,
    dtype=np.float32,
    hidden: tuple[int, int, int] = (512, 128, 64),
) -> ClassifierHead:
    if joint_dim < 1 or num_task_classes < 1:
        raise ParameterError("joint_dim and num_task_classes must be >= 1")
    return build_head(
        [2 * joint_dim, *hidden, num_task_classes], _fresh_values(seed, dtype)
    )
