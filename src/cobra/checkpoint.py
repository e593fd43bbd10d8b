"""Binary checkpoint format. The loaders match tensors by name to the layout
that model.build_model / model.build_head state.

Little-endian layout, version 2: magic ``COBRAMDL`` (8 bytes), format version
u32 (=2), tensor count u32, value width u32 (4 or 8); per tensor: name length
u16, name bytes (utf-8), rows u32, cols u32, rows*cols values row-major, each
a float of the value width. The width is 4 when every tensor is float32 and
8 otherwise, so a model reloads in the precision it was saved in, bit for
bit. Version 1 files have no width field and store float64 values; they
still load, as float64. Trailing bytes after the last tensor are a format
error.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .errors import CheckpointError
from .model import ClassifierHead, CobraModel, build_head, build_model

MAGIC = b"COBRAMDL"
VERSION = 2
WIDTHS = (4, 8)  # bytes per value: float32, float64


def write_tensors(path, tensors: dict[str, np.ndarray]):
    """Writes an ordered name->matrix mapping in the checkpoint format."""
    for name, arr in tensors.items():
        if arr.ndim != 2:
            raise CheckpointError(f"tensor {name!r} is not 2-D")
    width = 4 if all(arr.dtype == np.float32 for arr in tensors.values()) else 8
    with Path(path).open("wb") as fh:
        fh.write(MAGIC + struct.pack("<III", VERSION, len(tensors), width))
        for name, arr in tensors.items():
            raw = name.encode("utf-8")
            fh.write(struct.pack("<H", len(raw)) + raw + struct.pack("<II", *arr.shape))
            fh.write(np.ascontiguousarray(arr, dtype=f"<f{width}").data)


def read_tensors(path) -> dict[str, np.ndarray]:
    """Parses a checkpoint of either version; raises CheckpointError with the
    byte offset. Values come back as float32 or float64, per the width."""
    data = memoryview(Path(path).read_bytes())
    off = 0

    def take(n: int, what: str) -> memoryview:
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
    if version == 1:
        width = 8
    elif version == 2:
        (width,) = struct.unpack("<I", take(4, "value width"))
        if width not in WIDTHS:
            raise CheckpointError(f"value width {width} is not 4 or 8 at offset 16")
    else:
        raise CheckpointError(f"unsupported checkpoint version {version} at offset 8")
    tensors: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<H", take(2, "name length"))
        name_at = off
        try:
            name = str(take(name_len, "name"), "utf-8")
        except UnicodeDecodeError:
            raise CheckpointError(
                f"tensor name is not utf-8 at offset {name_at}"
            ) from None
        rows, cols = struct.unpack("<II", take(8, "shape"))
        values = np.frombuffer(
            take(rows * cols * width, f"values of {name!r}"), dtype=f"<f{width}"
        )
        if name in tensors:
            raise CheckpointError(f"duplicate tensor name {name!r} at offset {off}")
        tensors[name] = values.astype(f"f{width}").reshape(rows, cols)
    if off != len(data):
        raise CheckpointError(
            f"trailing bytes after last tensor at offset {off} ({len(data) - off} extra)"
        )
    return tensors


def save_checkpoint(model: CobraModel | ClassifierHead, path):
    """Writes the parameters of a model or a fusion head, in params() order."""
    write_tensors(path, {p.name: p.value for p in model.params()})


def _shape(tensors: dict[str, np.ndarray], name: str) -> tuple[int, int]:
    if name not in tensors:
        raise CheckpointError(f"missing tensor {name!r}")
    shape = tensors[name].shape
    if 0 in shape:
        raise CheckpointError(f"tensor {name!r} is empty, shape {shape}")
    return shape


def _popped(tensors: dict[str, np.ndarray]):
    """A value source for the model builders that pops each named tensor
    from `tensors`; a missing, empty or misshapen one is a CheckpointError."""

    def value(name: str, shape: tuple[int, int]) -> np.ndarray:
        if _shape(tensors, name) != shape:
            raise CheckpointError(
                f"tensor {name!r} has shape {tensors[name].shape}, expected {shape}"
            )
        return tensors.pop(name)

    return value


def _reject_leftovers(tensors: dict[str, np.ndarray]):
    if tensors:
        raise CheckpointError(f"unexpected tensors: {sorted(tensors)}")


def load_checkpoint(path) -> CobraModel:
    """Rebuilds a model from its tensors in their stored precision; shapes
    define d_I, d_T, C and the hidden and latent widths."""
    tensors = read_tensors(path)
    d_image, hidden_dim = _shape(tensors, "image.enc0.w")
    latent_dim = _shape(tensors, "image.enc2.w")[1]
    num_classes = _shape(tensors, "image.proj0.w")[1]
    d_text = _shape(tensors, "text.enc0.w")[0]
    model = build_model(
        d_image, d_text, num_classes, hidden_dim, latent_dim, _popped(tensors)
    )
    _reject_leftovers(tensors)
    return model


def load_head(path) -> ClassifierHead:
    """Rebuilds a fusion head from its tensors in their stored precision."""
    tensors = read_tensors(path)
    if "head.fc0.w" not in tensors or "head.fc3.w" not in tensors:
        raise CheckpointError("not a classifier-head checkpoint")
    dims = [_shape(tensors, "head.fc0.w")[0]]
    if dims[0] % 2:
        raise CheckpointError(f"head input width {dims[0]} is not two joint widths")
    dims += [_shape(tensors, f"head.fc{i}.w")[1] for i in range(4)]
    head = build_head(dims, _popped(tensors))
    _reject_leftovers(tensors)
    return head
