"""The COBRA network: per-modality autoencoder + joint-space projection,
plus the bi-modal fusion classifier head.

Encoder:    FC(d, 1024) ReLU -> FC(1024, 1024) ReLU -> FC(1024, 512) identity
Decoder:    FC(512, 1024) ReLU -> FC(1024, 1024) ReLU -> FC(1024, d) identity
Projection: FC(512, Z) identity, one head per modality
Classifier: Concat -> FC(2Z, 512) ReLU Drop(.5) -> FC(512, 128) ReLU Drop(.5)
            -> FC(128, 64) ReLU Drop(.2) -> FC(64, C_task)

In every MLP a ReLU (and the head's dropout) follows every layer but the
last, which is linear. The joint dimension Z equals the class count C: the
supervised objective regresses projections onto one-hot labels, which fixes
the width. Every width is read from the weights.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import nn
from .errors import ParameterError, ShapeError
from .nn import Param

LATENT_DIM = 512
HIDDEN_DIM = 1024


Layer = tuple[Param, Param]  # (weight, bias)


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
        out = []
        for w, b in self.encoder + self.decoder + self.projection:
            out.extend((w, b))
        return out


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
    dropout_p: tuple[float, ...] = (0.5, 0.5, 0.2)

    def params(self) -> list[Param]:
        out = []
        for w, b in self.layers:
            out.extend((w, b))
        return out

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
    mode: str = "eval",
    rng: np.random.Generator | None = None,
) -> MlpCache:
    """Forward through affine layers; ReLU (and optional dropout) after every
    layer but the last."""
    inputs, pres, masks = [], [], []
    h = x
    for i, (w, b) in enumerate(layers):
        inputs.append(h)
        pre = nn.affine_forward(h, w.value, b.value)
        pres.append(pre)
        if i < len(layers) - 1:
            h = nn.relu(pre)
            if i < len(dropout_p) and dropout_p[i] > 0.0:
                h, mask = nn.dropout(h, dropout_p[i], mode, rng)
                masks.append(mask)
            else:
                masks.append(None)
        else:
            h = pre
            masks.append(None)
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
    mode: str = "eval",
    rng: np.random.Generator | None = None,
) -> MlpCache:
    """The fusion head's forward pass; its `output` holds the logits."""
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
    return _mlp_forward(x, head.layers, dropout_p=head.dropout_p, mode=mode, rng=rng)


def classify_backward(head: ClassifierHead, cache: MlpCache, d_logits: np.ndarray):
    """Writes every head Param.grad (its input, the embeddings, stays frozen)."""
    _mlp_backward(cache, head.layers, d_logits)


def forward_full(
    model: CobraModel, x_image: np.ndarray, x_text: np.ndarray, mode: str = "eval"
) -> ForwardCache:
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


def _init_layers(
    prefix: str, dims: list[int], rng: np.random.Generator, dtype
) -> list[Layer]:
    layers = []
    for i, (fan_in, fan_out) in enumerate(zip(dims[:-1], dims[1:])):
        w = Param(f"{prefix}{i}.w", nn.glorot_uniform(rng, fan_in, fan_out, dtype))
        b = Param(f"{prefix}{i}.b", np.zeros((1, fan_out), dtype=dtype))
        layers.append((w, b))
    return layers


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
    rng = _init_stream(seed)

    def build(modality: str, d: int) -> ModalityPipeline:
        enc = _init_layers(f"{modality}.enc", [d, hidden_dim, hidden_dim, latent_dim], rng, dtype)
        dec = _init_layers(f"{modality}.dec", [latent_dim, hidden_dim, hidden_dim, d], rng, dtype)
        proj = _init_layers(f"{modality}.proj", [latent_dim, num_classes], rng, dtype)
        return ModalityPipeline(modality, enc, dec, proj)

    return CobraModel(build("image", d_image), build("text", d_text))


def init_head(
    joint_dim: int,
    num_task_classes: int,
    seed: int,
    dtype=np.float32,
    hidden: tuple[int, int, int] = (512, 128, 64),
) -> ClassifierHead:
    if joint_dim < 1 or num_task_classes < 1:
        raise ParameterError("joint_dim and num_task_classes must be >= 1")
    rng = _init_stream(seed)
    layers = _init_layers(
        "head.fc", [2 * joint_dim, *hidden, num_task_classes], rng, dtype
    )
    return ClassifierHead(layers=layers)


def _init_stream(seed: int) -> np.random.Generator:
    """The dedicated init stream for a seed (stream 0 of RngStreams)."""
    return nn.RngStreams(seed).get("init")
