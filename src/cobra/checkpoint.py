"""Binary checkpoint format.

Little-endian layout: magic ``COBRAMDL`` (8 bytes), format version u32 (=1),
tensor count u32; per tensor: name length u16, name bytes (utf-8), rows u32,
cols u32, rows*cols float64 values row-major. Trailing bytes after the last
tensor are a format error. Values are stored as float64 regardless of the
model's compute precision so round-trips are exact.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .errors import CheckpointError
from .model import ClassifierHead, CobraModel, ModalityPipeline, init_head, init_model

MAGIC = b"COBRAMDL"
VERSION = 1


def write_tensors(path, tensors: dict[str, np.ndarray]):
    """Writes an ordered name->matrix mapping in the checkpoint format."""
    buf = bytearray()
    buf += MAGIC
    buf += struct.pack("<II", VERSION, len(tensors))
    for name, arr in tensors.items():
        if arr.ndim != 2:
            raise CheckpointError(f"tensor {name!r} is not 2-D")
        raw = name.encode("utf-8")
        buf += struct.pack("<H", len(raw))
        buf += raw
        buf += struct.pack("<II", arr.shape[0], arr.shape[1])
        buf += np.ascontiguousarray(arr, dtype="<f8").tobytes()
    Path(path).write_bytes(buf)


def read_tensors(path) -> dict[str, np.ndarray]:
    """Parses a checkpoint; raises CheckpointError with the byte offset."""
    data = Path(path).read_bytes()
    off = 0

    def take(n: int, what: str) -> bytes:
        nonlocal off
        if off + n > len(data):
            raise CheckpointError(
                f"truncated checkpoint: needed {n} bytes for {what} at offset {off}"
            )
        chunk = data[off : off + n]
        off += n
        return chunk

    if take(8, "magic") != MAGIC:
        raise CheckpointError("bad magic bytes at offset 0")
    version, count = struct.unpack("<II", take(8, "header"))
    if version != VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version} at offset 8")
    tensors: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<H", take(2, "name length"))
        name = take(name_len, "name").decode("utf-8")
        rows, cols = struct.unpack("<II", take(8, "shape"))
        values = np.frombuffer(
            take(rows * cols * 8, f"values of {name!r}"), dtype="<f8"
        ).reshape(rows, cols)
        if name in tensors:
            raise CheckpointError(f"duplicate tensor name {name!r} at offset {off}")
        tensors[name] = values.copy()
    if off != len(data):
        raise CheckpointError(
            f"trailing bytes after last tensor at offset {off} ({len(data) - off} extra)"
        )
    return tensors


def _pipeline_tensors(p: ModalityPipeline) -> dict[str, np.ndarray]:
    out = {}
    for w, b in p.encoder + p.decoder + p.projection:
        out[w.name] = w.value
        out[b.name] = b.value
    return out


def save_checkpoint(model: CobraModel, path):
    tensors = _pipeline_tensors(model.image)
    tensors.update(_pipeline_tensors(model.text))
    # shared-projection models alias the image head; store it under both names
    if "text.proj0.w" not in tensors:
        tensors["text.proj0.w"] = tensors["image.proj0.w"]
        tensors["text.proj0.b"] = tensors["image.proj0.b"]
    write_tensors(path, tensors)


def load_checkpoint(path) -> CobraModel:
    """Rebuilds a model from its tensors; shapes define d_I, d_T and C."""
    tensors = read_tensors(path)

    def need(name: str) -> np.ndarray:
        if name not in tensors:
            raise CheckpointError(f"missing tensor {name!r}")
        return tensors[name]

    d_image = need("image.enc0.w").shape[0]
    d_text = need("text.enc0.w").shape[0]
    num_classes = need("image.proj0.w").shape[1]
    hidden_dim = need("image.enc0.w").shape[1]
    latent_dim = need("image.enc2.w").shape[1]
    model = init_model(
        d_image,
        d_text,
        num_classes,
        seed=0,
        dtype=np.float64,
        hidden_dim=hidden_dim,
        latent_dim=latent_dim,
    )
    expected = set(_pipeline_tensors(model.image)) | set(_pipeline_tensors(model.text))
    extra = set(tensors) - expected
    if extra:
        raise CheckpointError(f"unexpected tensors: {sorted(extra)}")
    for param in model.params():
        value = need(param.name)
        if value.shape != param.value.shape:
            raise CheckpointError(
                f"tensor {param.name!r} has shape {value.shape}, "
                f"expected {param.value.shape}"
            )
        param.value = value
        param.grad = np.zeros_like(value)
    return model


def save_head(head: ClassifierHead, path):
    tensors = {}
    for w, b in head.layers:
        tensors[w.name] = w.value
        tensors[b.name] = b.value
    write_tensors(path, tensors)


def load_head(path) -> ClassifierHead:
    tensors = read_tensors(path)
    if "head.fc0.w" not in tensors or "head.fc3.w" not in tensors:
        raise CheckpointError("not a classifier-head checkpoint")
    joint_dim = tensors["head.fc0.w"].shape[0] // 2
    num_classes = tensors["head.fc3.w"].shape[1]
    hidden = tuple(tensors[f"head.fc{i}.w"].shape[1] for i in range(3))
    head = init_head(joint_dim, num_classes, seed=0, dtype=np.float64, hidden=hidden)
    expected = {p.name for p in head.params()}
    if set(tensors) != expected:
        raise CheckpointError(
            f"head tensor names {sorted(tensors)} != expected {sorted(expected)}"
        )
    for param in head.params():
        value = tensors[param.name]
        if value.shape != param.value.shape:
            raise CheckpointError(
                f"tensor {param.name!r} has shape {value.shape}, "
                f"expected {param.value.shape}"
            )
        param.value = value
        param.grad = np.zeros_like(value)
    return head
