import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cobra import checkpoint, model as model_mod
from cobra.errors import CheckpointError, CobraError

from conftest import tiny_model


def test_tensor_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    tensors = {"a.w": rng.normal(size=(3, 4)), "b.b": rng.normal(size=(1, 2))}
    p = tmp_path / "t.ckpt"
    checkpoint.write_tensors(p, tensors)
    back = checkpoint.read_tensors(p)
    assert set(back) == {"a.w", "b.b"}
    for k in tensors:
        assert np.array_equal(back[k], tensors[k])


@given(seed=st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_tensor_round_trip_property(seed, tmp_path_factory):
    rng = np.random.default_rng(seed)
    tensors = {
        f"t{i}": rng.normal(size=(int(rng.integers(1, 6)), int(rng.integers(1, 6))))
        for i in range(int(rng.integers(1, 5)))
    }
    p = tmp_path_factory.mktemp("ck") / "t.ckpt"
    checkpoint.write_tensors(p, tensors)
    back = checkpoint.read_tensors(p)
    assert set(back) == set(tensors)
    for k in tensors:
        assert np.array_equal(back[k], tensors[k])  # float64 is bit-exact


def test_bad_magic(tmp_path):
    p = tmp_path / "t.ckpt"
    p.write_bytes(b"NOTMAGIC" + b"\x00" * 8)
    with pytest.raises(CheckpointError, match="magic"):
        checkpoint.read_tensors(p)


def test_unsupported_version(tmp_path):
    p = tmp_path / "t.ckpt"
    p.write_bytes(checkpoint.MAGIC + struct.pack("<II", 9, 0))
    with pytest.raises(CheckpointError, match="version 9"):
        checkpoint.read_tensors(p)


def test_truncated_values_reports_offset(tmp_path):
    p = tmp_path / "t.ckpt"
    checkpoint.write_tensors(p, {"x": np.ones((2, 2))})
    blob = p.read_bytes()
    p.write_bytes(blob[:-8])  # drop one float64
    with pytest.raises(CheckpointError, match="offset"):
        checkpoint.read_tensors(p)


def test_trailing_bytes_rejected(tmp_path):
    p = tmp_path / "t.ckpt"
    checkpoint.write_tensors(p, {"x": np.ones((1, 1))})
    p.write_bytes(p.read_bytes() + b"\x00")
    with pytest.raises(CheckpointError, match="trailing"):
        checkpoint.read_tensors(p)


def test_model_round_trip_exact(tmp_path):
    m = tiny_model(seed=4)
    p = tmp_path / "m.ckpt"
    checkpoint.save_checkpoint(m, p)
    back = checkpoint.load_checkpoint(p)
    assert back.joint_dim == m.joint_dim
    orig = {q.name: q.value for q in m.params()}
    for q in back.params():
        assert np.array_equal(q.value, orig[q.name])
        assert not q.grad.any()


def test_model_round_trip_float32_values_preserved(tmp_path):
    # a float32 model is stored at value width 4 and reloads as float32
    m = model_mod.init_model(5, 4, 3, seed=1, dtype=np.float32, hidden_dim=6, latent_dim=7)
    p = tmp_path / "m.ckpt"
    checkpoint.save_checkpoint(m, p)
    back = checkpoint.load_checkpoint(p)
    assert back.dtype == np.float32
    for q, orig in zip(sorted(back.params(), key=lambda x: x.name),
                       sorted(m.params(), key=lambda x: x.name)):
        assert np.array_equal(q.value, orig.value)


def _v1_bytes(tensors: dict[str, np.ndarray]) -> bytes:
    """The version 1 layout, written independently of the production writer:
    no value width in the header, every value a little-endian float64."""
    out = b"COBRAMDL" + struct.pack("<II", 1, len(tensors))
    for name, arr in tensors.items():
        raw = name.encode("utf-8")
        out += struct.pack("<H", len(raw)) + raw + struct.pack("<II", *arr.shape)
        out += b"".join(struct.pack("<d", float(v)) for v in arr.ravel())
    return out


def _model_tensors(m) -> dict[str, np.ndarray]:
    return {q.name: q.value for q in m.params()}


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_v1_checkpoint_loads_as_float64_bit_for_bit(tmp_path):
    m = tiny_model(seed=5)
    want = _model_tensors(m)
    want["image.enc0.b"][0, :3] = (-0.0, np.nextafter(0.0, 1.0), 1e300)
    p = tmp_path / "v1.ckpt"
    p.write_bytes(_v1_bytes(want))
    back = checkpoint.load_checkpoint(p)
    assert back.dtype == np.float64
    assert [q.name for q in back.params()] == list(want)
    for q in back.params():
        assert _same_bits(q.value, want[q.name])
        assert not q.grad.any() and q.grad.dtype == np.float64


def test_v1_head_loads_as_float64(tmp_path):
    head = model_mod.init_head(3, 4, seed=3, dtype=np.float64, hidden=(5, 4, 3))
    want = {q.name: q.value for q in head.params()}
    p = tmp_path / "h.ckpt"
    p.write_bytes(_v1_bytes(want))
    back = checkpoint.load_head(p)
    for q in back.params():
        assert _same_bits(q.value, want[q.name])


def test_v2_header_records_value_width(tmp_path):
    p = tmp_path / "t.ckpt"
    for arrays, width in (
        ({"a": np.ones((2, 3), np.float32)}, 4),
        ({"a": np.ones((2, 3), np.float32), "b": np.ones((1, 1))}, 8),
        ({"a": np.ones((2, 3))}, 8),
    ):
        checkpoint.write_tensors(p, arrays)
        blob = p.read_bytes()
        assert blob[:8] == checkpoint.MAGIC
        assert struct.unpack("<III", blob[8:20]) == (2, len(arrays), width)
        body = sum(2 + len(k) + 8 + a.size * width for k, a in arrays.items())
        assert len(blob) == 20 + body
        back = checkpoint.read_tensors(p)
        assert {k: v.dtype.itemsize for k, v in back.items()} == {k: width for k in arrays}


def test_v2_float32_round_trip_keeps_dtype_and_bits(tmp_path):
    m = tiny_model(seed=6, dtype=np.float32)
    want = _model_tensors(m)
    want["text.proj0.b"][0, :2] = (-0.0, np.float32(1e-45))  # sign of zero, subnormal
    p = tmp_path / "m.ckpt"
    checkpoint.save_checkpoint(m, p)
    back = checkpoint.load_checkpoint(p)
    assert back.dtype == np.float32
    for q in back.params():
        assert _same_bits(q.value, want[q.name])
        assert not q.grad.any() and q.grad.dtype == np.float32
    head = model_mod.init_head(3, 4, seed=3, dtype=np.float32, hidden=(5, 4, 3))
    checkpoint.save_checkpoint(head, p)
    back_head = checkpoint.load_head(p)
    for q, orig in zip(back_head.params(), head.params()):
        assert _same_bits(q.value, orig.value)


def test_unknown_value_width_rejected(tmp_path):
    p = tmp_path / "t.ckpt"
    p.write_bytes(checkpoint.MAGIC + struct.pack("<III", 2, 0, 2))
    with pytest.raises(CheckpointError, match="width 2.*offset 16"):
        checkpoint.read_tensors(p)


def test_non_utf8_name_reports_offset(tmp_path):
    p = tmp_path / "t.ckpt"
    checkpoint.write_tensors(p, {"ab": np.ones((1, 1), np.float32)})
    blob = bytearray(p.read_bytes())
    blob[22] = 0xFF  # the name's first byte: 20-byte header, then its 2-byte length
    p.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="utf-8 at offset 22"):
        checkpoint.read_tensors(p)


def _check_parse(p):
    """read_tensors gives 2-D float tensors or a CheckpointError, and
    load_checkpoint/load_head raise nothing but CobraError subclasses."""
    try:
        tensors = checkpoint.read_tensors(p)
    except CheckpointError:
        tensors = {}
    for arr in tensors.values():
        assert arr.ndim == 2 and arr.dtype in (np.float32, np.float64)
    for load in (checkpoint.load_checkpoint, checkpoint.load_head):
        try:
            load(p)
        except CobraError:
            pass


@given(blob=st.binary(max_size=200), magic=st.booleans())
@settings(max_examples=200, deadline=None)
def test_parsers_total_on_arbitrary_bytes(blob, magic, tmp_path_factory):
    p = tmp_path_factory.mktemp("fz") / "t.ckpt"
    p.write_bytes(checkpoint.MAGIC + blob if magic else blob)
    _check_parse(p)


@given(
    version=st.sampled_from([1, 2]),
    edits=st.lists(
        st.tuples(st.integers(0, 10**6), st.integers(0, 255)), min_size=1, max_size=4
    ),
    cut=st.one_of(st.none(), st.integers(0, 10**6)),
)
@settings(max_examples=200, deadline=None)
def test_parsers_total_on_mutated_checkpoints(version, edits, cut, tmp_path_factory):
    m = model_mod.init_model(3, 2, 2, seed=0, dtype=np.float32, hidden_dim=2, latent_dim=2)
    tensors = _model_tensors(m)
    p = tmp_path_factory.mktemp("fz") / "m.ckpt"
    if version == 1:
        blob = bytearray(_v1_bytes(tensors))
    else:
        checkpoint.write_tensors(p, tensors)
        blob = bytearray(p.read_bytes())
    for at, value in edits:
        blob[at % len(blob)] = value
    if cut is not None:
        blob = blob[: cut % (len(blob) + 1)]
    p.write_bytes(bytes(blob))
    _check_parse(p)


def test_load_rejects_missing_tensor(tmp_path):
    m = tiny_model()
    tensors = {p.name: p.value for p in m.params()}
    del tensors["text.dec1.b"]
    p = tmp_path / "m.ckpt"
    checkpoint.write_tensors(p, tensors)
    with pytest.raises(CheckpointError, match="text.dec1.b"):
        checkpoint.load_checkpoint(p)


def test_load_rejects_extra_tensor(tmp_path):
    m = tiny_model()
    tensors = {p.name: p.value for p in m.params()}
    tensors["rogue"] = np.ones((1, 1))
    p = tmp_path / "m.ckpt"
    checkpoint.write_tensors(p, tensors)
    with pytest.raises(CheckpointError, match="rogue"):
        checkpoint.load_checkpoint(p)


def test_load_rejects_misshapen_tensor(tmp_path):
    p = tmp_path / "m.ckpt"
    tensors = _model_tensors(tiny_model())
    tensors["text.dec1.w"] = np.ones((6, 5))
    checkpoint.write_tensors(p, tensors)
    with pytest.raises(
        CheckpointError, match=re.escape("tensor 'text.dec1.w' has shape (6, 5), expected (6, 6)")
    ):
        checkpoint.load_checkpoint(p)
    head = model_mod.init_head(3, 4, seed=3, dtype=np.float64, hidden=(5, 4, 3))
    tensors = _model_tensors(head)
    tensors["head.fc2.w"] = np.ones((5, 3))
    checkpoint.write_tensors(p, tensors)
    with pytest.raises(
        CheckpointError, match=re.escape("tensor 'head.fc2.w' has shape (5, 3), expected (4, 3)")
    ):
        checkpoint.load_head(p)


def test_head_round_trip(tmp_path):
    head = model_mod.init_head(3, 4, seed=3, dtype=np.float64, hidden=(5, 4, 3))
    rng = np.random.default_rng(0)
    for q in head.params():
        q.value += rng.normal(size=q.value.shape)
    p = tmp_path / "h.ckpt"
    checkpoint.save_checkpoint(head, p)
    back = checkpoint.load_head(p)
    orig = {q.name: q.value for q in head.params()}
    for q in back.params():
        assert np.array_equal(q.value, orig[q.name])


def test_load_head_rejects_model_checkpoint(tmp_path):
    m = tiny_model()
    p = tmp_path / "m.ckpt"
    checkpoint.save_checkpoint(m, p)
    with pytest.raises(CheckpointError):
        checkpoint.load_head(p)
