import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cobra import data
from cobra.errors import ConfigError, FormatError, LabelError, NumericError, PairingError

import feature_file_oracle
from conftest import tiny_paired


def test_feature_dataset_validation():
    with pytest.raises(ConfigError):
        data.FeatureDataset("audio", np.zeros((1, 1)), [0], 1)
    with pytest.raises(ConfigError):
        data.FeatureDataset("image", np.array([[np.inf]]), [0], 1)
    with pytest.raises(LabelError):
        data.FeatureDataset("image", np.zeros((1, 1)), [2], 2)
    with pytest.raises(ConfigError):
        data.FeatureDataset("image", np.zeros((2, 1)), [0], 1)
    with pytest.raises(ConfigError, match=r"shape \(\)"):
        data.FeatureDataset("image", np.zeros((1, 1)), 0, 1)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "labels, named",
    [
        (np.resize([0.5, 1.5, 2.5], 30), "0.5"),
        (np.resize([0, 1, -1], 30), "-1"),
        ([0.5, 1.7, 2.2], "0.5"),  # truncates to the valid-looking [0 1 2]
        ([0.0, -0.5, 1.0], "-0.5"),
        ([0.0, np.nan, 1.0], "nan"),
        ([0.0, 1.0, np.inf], "inf"),
    ],
    ids=["fractional", "negative", "truncated_in_range", "negative_fractional", "nan", "inf"],
)
def test_feature_dataset_rejects_non_integer_labels(labels, named):
    """A label that is not an integer in [0, num_classes) is a LabelError
    naming the first such label, raised before the int64 cast would
    truncate it (or warn on NaN)."""
    features = np.zeros((len(labels), 2), np.float32)
    with pytest.raises(LabelError, match=f"^label {named} "):
        data.FeatureDataset("image", features, labels, 3)


def test_feature_dataset_keeps_integer_valued_float_labels():
    ds = data.FeatureDataset("image", np.zeros((3, 2), np.float32), [2.0, 0.0, 1.0], 3)
    assert ds.labels.dtype == np.int64 and ds.labels.tolist() == [2, 0, 1]


def test_paired_dataset_rejects_label_mismatch():
    img = data.FeatureDataset("image", np.zeros((2, 3), np.float32), [0, 1], 2)
    txt = data.FeatureDataset("text", np.zeros((2, 2), np.float32), [1, 1], 2)
    with pytest.raises(PairingError, match="index 0"):
        data.PairedDataset(img, txt)


# ---------------------------------------------------------------- file format


def _random_ds(rng, modality="image", n=None, d=None, c=None):
    n = n or int(rng.integers(1, 12))
    d = d or int(rng.integers(1, 8))
    c = c or int(rng.integers(1, 5))
    feats = rng.normal(size=(n, d)).astype(np.float32)
    labels = rng.integers(0, c, size=n)
    return data.FeatureDataset(modality, feats, labels, c)


def test_feature_file_round_trip_exact(tmp_path):
    ds = _random_ds(np.random.default_rng(0))
    path = tmp_path / "f.txt"
    data.write_feature_file(ds, path)
    back = data.load_feature_file(path)
    assert back.modality == ds.modality
    assert back.num_classes == ds.num_classes
    assert np.array_equal(back.labels, ds.labels)
    # float32 shortest-repr text round-trips bit-exactly
    assert np.array_equal(back.features, ds.features)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_feature_file_round_trip_property(seed, tmp_path_factory):
    ds = _random_ds(np.random.default_rng(seed))
    path = tmp_path_factory.mktemp("ff") / "f.txt"
    data.write_feature_file(ds, path)
    assert path.read_bytes() == feature_file_oracle.feature_file_bytes(ds)
    back = data.load_feature_file(path)
    assert np.array_equal(back.features, ds.features)
    assert np.array_equal(back.labels, ds.labels)


def _as_rows(values, d: int, rng) -> data.FeatureDataset:
    """The values, padded with 1.0 to whole rows of d, under labels of one to
    six digits."""
    values = np.asarray(values)
    values = np.concatenate([values, np.ones(-values.size % d, values.dtype)])
    n = values.size // d
    return data.FeatureDataset("image", values.reshape(n, d), rng.integers(0, 10**6, n), 10**6)


def _edge_values() -> np.ndarray:
    """±0.0, every power of two, the powers of ten and their five neighbours
    on each side (1e-4 and 1e6 among them), the integers up to ±3000, and the
    float32 maximum and smallest subnormal."""
    f32 = np.float32
    tens = np.array([float(f"1e{e}") for e in range(-45, 39)], f32).view(np.int32)
    near_tens = (tens[:, None] + np.arange(-5, 6, dtype=np.int32)).ravel().view(f32)
    positive = np.concatenate([
        np.ldexp(f32(1), np.arange(-149, 128)).astype(f32),
        near_tens[near_tens > 0],
        np.arange(1, 3001, dtype=f32),
        [np.finfo(f32).max, np.finfo(f32).smallest_subnormal],
    ])
    return np.concatenate([[f32(0.0), f32(-0.0)], positive, -positive])


def test_write_matches_oracle_on_edge_values(tmp_path):
    ds = _as_rows(_edge_values(), 64, np.random.default_rng(0))
    data.write_feature_file(ds, tmp_path / "f.txt")
    assert (tmp_path / "f.txt").read_bytes() == feature_file_oracle.feature_file_bytes(ds)
    assert np.array_equal(data.load_feature_file(tmp_path / "f.txt").features.view(np.uint32),
                          ds.features.view(np.uint32))


@pytest.mark.parametrize("d", [64, data._FORMAT_BLOCK + 7])
def test_write_matches_oracle_on_random_bit_patterns(d, tmp_path):
    """210k random bit patterns, about 209k finite: blocks of many rows, and
    rows longer than a block."""
    rng = np.random.default_rng(d)
    values = rng.integers(0, 2**32, 210_000, dtype=np.uint32).view(np.float32)
    ds = _as_rows(values[np.isfinite(values)], d, rng)
    data.write_feature_file(ds, tmp_path / "f.txt")
    assert (tmp_path / "f.txt").read_bytes() == feature_file_oracle.feature_file_bytes(ds)


def test_write_matches_oracle_on_float64_that_rounds_to_float32(tmp_path):
    """float64 values are cast to float32 first, ties to even, and values just
    above float32's largest round down to it."""
    rng = np.random.default_rng(1)
    f32 = rng.normal(scale=100.0, size=3000).astype(np.float32)
    up = np.nextafter(f32, np.float32(np.inf))
    midpoints = (f32.astype(np.float64) + up) / 2
    top = float(np.finfo(np.float32).max)
    values = np.concatenate([
        rng.normal(size=3000) * 10.0 ** rng.integers(-6, 8, 3000),
        midpoints,
        [top * (1 + 2.0**-25), -top * (1 + 2.0**-25), 1e-50, -1e-50],
    ])
    ds = _as_rows(values, 16, rng)
    assert ds.features.dtype == np.float64
    data.write_feature_file(ds, tmp_path / "f.txt")
    assert (tmp_path / "f.txt").read_bytes() == feature_file_oracle.feature_file_bytes(ds)


def test_write_rejects_value_beyond_float32_before_opening(tmp_path):
    ds = data.FeatureDataset("image", np.array([[1.0, 1e39], [2.0, 3.0]]), [0, 1], 2)
    kept = tmp_path / "kept.txt"
    kept.write_bytes(b"old contents")
    for path in (kept, tmp_path / "new.txt"):
        with pytest.raises(NumericError, match=r"1e\+39 at row 0, column 1"):
            data.write_feature_file(ds, path)
    assert kept.read_bytes() == b"old contents"
    assert not (tmp_path / "new.txt").exists()


def test_load_rejects_bad_header(tmp_path):
    p = tmp_path / "f.txt"
    p.write_text("NOT-A-HEADER\n")
    with pytest.raises(FormatError, match=":1"):
        data.load_feature_file(p)


def test_load_rejects_wrong_version(tmp_path):
    p = tmp_path / "f.txt"
    p.write_text("COBRA-FEAT 2 image 1 1 1\n0,1.0\n")
    with pytest.raises(FormatError):
        data.load_feature_file(p)


def test_load_rejects_short_file(tmp_path):
    p = tmp_path / "f.txt"
    p.write_text("COBRA-FEAT 1 image 2 1 1\n0,1.0\n")
    with pytest.raises(FormatError, match="file ended"):
        data.load_feature_file(p)


def test_load_rejects_header_larger_than_file(tmp_path):
    # 1e9 x 1000 would be a 3.6 TiB allocation; the file size rules it out
    p = tmp_path / "f.txt"
    p.write_text("COBRA-FEAT 1 image 1000000000 1000 2\n0,1.0\n")
    with pytest.raises(FormatError, match=r":1: header claims 1000000000 rows"):
        data.load_feature_file(p)


def test_load_accepts_minimal_rows_without_final_newline(tmp_path):
    # the size bound is tight: one-character fields and no last newline
    p = tmp_path / "f.txt"
    p.write_text("COBRA-FEAT 1 text 2 2 2\n0,1,2\n1,3,4")
    ds = data.load_feature_file(p)
    assert ds.labels.tolist() == [0, 1]
    assert ds.features.tolist() == [[1.0, 2.0], [3.0, 4.0]]


def test_load_rejects_trailing_rows(tmp_path):
    p = tmp_path / "f.txt"
    p.write_text("COBRA-FEAT 1 image 1 1 1\n0,1.0\n0,2.0\n")
    with pytest.raises(FormatError, match="trailing"):
        data.load_feature_file(p)
    # only blank lines may follow the rows; the first other line is named
    rows = "COBRA-FEAT 1 text 2 2 2\n0,1.0,2.0\n1,3.0,4.0\n"
    for tail, lineno in ((" \t\n1,5,6\n", 5), ("\n\ngarbage here", 6)):
        p.write_text(rows + tail)
        with pytest.raises(FormatError, match=f"f.txt:{lineno}: trailing content after 2 rows"):
            data.load_feature_file(p)
    p.write_text(rows + "\n \n\t\n")
    assert data.load_feature_file(p).labels.tolist() == [0, 1]


def test_load_rejects_bad_token_with_lineno(tmp_path):
    p = tmp_path / "f.txt"
    p.write_text("COBRA-FEAT 1 image 2 1 1\n0,1.0\n0,abc\n")
    with pytest.raises(FormatError, match=":3"):
        data.load_feature_file(p)


def test_load_rejects_label_out_of_range(tmp_path):
    p = tmp_path / "f.txt"
    p.write_text("COBRA-FEAT 1 image 1 1 2\n2,1.0\n")
    with pytest.raises(FormatError, match="label"):
        data.load_feature_file(p)


def test_load_rejects_wrong_field_count(tmp_path):
    p = tmp_path / "f.txt"
    p.write_text("COBRA-FEAT 1 image 1 2 1\n0,1.0\n")
    with pytest.raises(FormatError, match="fields"):
        data.load_feature_file(p)


# ---------------------------------------------------------------- pairing


def _write_pair_files(tmp_path, image: data.FeatureDataset, text: data.FeatureDataset):
    data.write_feature_file(image, tmp_path / "i.txt")
    data.write_feature_file(text, tmp_path / "t.txt")
    manifest = tmp_path / "m.manifest"
    data.write_manifest(manifest, "i.txt", "t.txt", "m")
    return manifest


def test_load_paired_rejects_label_conflict(tmp_path):
    img = data.FeatureDataset("image", np.zeros((2, 2), np.float32), [0, 1], 2)
    txt = data.FeatureDataset("text", np.zeros((2, 2), np.float32), [0, 0], 2)
    manifest = _write_pair_files(tmp_path, img, txt)
    with pytest.raises(PairingError, match=f"^{re.escape(str(manifest))}: .*index 1"):
        data.load_paired(manifest)


def test_paired_dataset_rejects_class_count_mismatch():
    img = data.FeatureDataset("image", np.zeros((1, 2), np.float32), [0], 2)
    txt = data.FeatureDataset("text", np.zeros((1, 2), np.float32), [0], 3)
    with pytest.raises(PairingError, match="class counts differ: 2 vs 3"):
        data.PairedDataset(img, txt)


def test_load_paired_rejects_row_count_mismatch(tmp_path):
    """Row i of one file pairs with row i of the other: files of 3 and 2 rows
    do not pair, and neither is cut to fit."""
    img = data.FeatureDataset("image", np.zeros((3, 2), np.float32), [0, 1, 0], 2)
    txt = data.FeatureDataset("text", np.zeros((2, 2), np.float32), [0, 1], 2)
    manifest = _write_pair_files(tmp_path, img, txt)
    with pytest.raises(PairingError, match="3 image rows vs 2 text rows") as info:
        data.load_paired(manifest)
    assert str(manifest) in str(info.value)


# ---------------------------------------------------------------- synthetic


def test_synthetic_shapes_and_balance():
    spec = data.SyntheticSpec(classes=4, d_image=8, d_text=6, pairs_per_class=5)
    paired = data.generate_synthetic(spec)
    assert paired.n_pairs == 20
    assert paired.image.dim == 8 and paired.text.dim == 6
    counts = np.bincount(paired.labels, minlength=4)
    assert counts.tolist() == [5, 5, 5, 5]
    assert np.array_equal(paired.image.labels, paired.text.labels)


def test_synthetic_deterministic_per_seed():
    spec = data.SyntheticSpec(classes=3, d_image=4, d_text=3, pairs_per_class=4, seed=5)
    a = data.generate_synthetic(spec)
    b = data.generate_synthetic(spec)
    assert np.array_equal(a.image.features, b.image.features)
    assert np.array_equal(a.text.features, b.text.features)


def test_synthetic_prototype_pairwise_distance_equals_separation():
    spec = data.SyntheticSpec(classes=5, d_image=8, d_text=6, separation=3.0)
    _, dbg = data.generate_synthetic_debug(spec)
    protos = dbg.prototypes
    for i in range(5):
        for j in range(i + 1, 5):
            assert np.linalg.norm(protos[i] - protos[j]) == pytest.approx(3.0, rel=1e-12)


def test_synthetic_small_sigma_clusters_by_nearest_prototype():
    spec = data.SyntheticSpec(classes=3, d_image=5, d_text=4, pairs_per_class=10, sigma=1e-4)
    paired, dbg = data.generate_synthetic_debug(spec)
    # latent samples sit essentially on their class prototype
    dists = np.linalg.norm(
        dbg.latents_image[:, None, :] - dbg.prototypes[None, :, :], axis=2
    )
    assert np.array_equal(np.argmin(dists, axis=1), paired.labels)


def test_synthetic_rejects_dim_below_classes():
    with pytest.raises(ConfigError):
        data.SyntheticSpec(classes=10, d_image=5, d_text=32) and data.generate_synthetic(
            data.SyntheticSpec(classes=10, d_image=5, d_text=32)
        )


def test_synthetic_spec_validation():
    with pytest.raises(ConfigError):
        data.SyntheticSpec(classes=1)
    with pytest.raises(ConfigError):
        data.SyntheticSpec(sigma=0.0)
    with pytest.raises(ConfigError):
        data.SyntheticSpec(pairs_per_class=0)
    with pytest.raises(ConfigError, match="seed"):
        data.SyntheticSpec(seed=-1)


# ---------------------------------------------------------------- split


def test_split_partitions_disjoint_and_complete():
    paired = tiny_paired(classes=3, per_class=10)
    parts = data.split(paired, [0.6, 0.2, 0.2], seed=0)
    sizes = [p.n_pairs for p in parts]
    assert sum(sizes) == paired.n_pairs
    # verify disjoint by feature-row identity
    seen = np.concatenate([p.image.features for p in parts])
    assert seen.shape[0] == paired.n_pairs
    srt = np.sort(seen.reshape(seen.shape[0], -1), axis=0)
    full = np.sort(paired.image.features.reshape(paired.n_pairs, -1), axis=0)
    assert np.allclose(srt, full)


def test_split_stratified_per_class():
    paired = tiny_paired(classes=4, per_class=20)
    train, val = data.split(paired, [0.75, 0.25], seed=1)
    for cls in range(4):
        assert np.sum(train.labels == cls) == 15
        assert np.sum(val.labels == cls) == 5


def test_split_deterministic_per_seed():
    paired = tiny_paired(classes=3, per_class=8)
    a = data.split(paired, [0.5, 0.5], seed=3)
    b = data.split(paired, [0.5, 0.5], seed=3)
    assert np.array_equal(a[0].image.features, b[0].image.features)
    c = data.split(paired, [0.5, 0.5], seed=4)
    assert not np.array_equal(a[0].image.features, c[0].image.features)


def test_split_every_part_nonempty():
    paired = tiny_paired(classes=2, per_class=3)
    parts = data.split(paired, [0.9, 0.05, 0.05], seed=0)
    assert all(p.n_pairs >= 1 for p in parts)


def test_split_rejects_bad_fractions():
    paired = tiny_paired()
    with pytest.raises(ConfigError):
        data.split(paired, [0.5, 0.6], seed=0)
    with pytest.raises(ConfigError):
        data.split(paired, [0.5, -0.1], seed=0)
    with pytest.raises(ConfigError):
        data.split(paired, [0.5, float("nan")], seed=0)


def test_split_rejects_class_smaller_than_split_count():
    paired = tiny_paired(classes=2, per_class=2)
    with pytest.raises(ConfigError):
        data.split(paired, [0.4, 0.3, 0.3], seed=0)


# ---------------------------------------------------------------- manifest


def test_manifest_round_trip(tmp_path):
    p = tmp_path / "d.manifest"
    data.write_manifest(p, "img.txt", "txt.txt", "demo")
    m = data.read_manifest(p)
    assert m == {"name": "demo", "image_file": "img.txt", "text_file": "txt.txt"}


def test_manifest_rejects_unknown_key(tmp_path):
    p = tmp_path / "d.manifest"
    p.write_text("image_file=a\ntext_file=b\nbogus=c\n")
    with pytest.raises(FormatError, match="bogus"):
        data.read_manifest(p)


def test_manifest_rejects_missing_required(tmp_path):
    p = tmp_path / "d.manifest"
    p.write_text("image_file=a\n")
    with pytest.raises(FormatError, match="text_file"):
        data.read_manifest(p)


def test_load_paired_resolves_relative_to_manifest(tmp_path):
    paired = tiny_paired(classes=2, per_class=3)
    sub = tmp_path / "nested"
    sub.mkdir()
    data.write_feature_file(paired.image, sub / "i.txt")
    data.write_feature_file(paired.text, sub / "t.txt")
    data.write_manifest(sub / "d.manifest", "i.txt", "t.txt", "demo")
    back = data.load_paired(sub / "d.manifest")
    assert back.n_pairs == paired.n_pairs
    assert np.array_equal(back.labels, paired.labels)


# ---------------------------------------------------------------- totality


def test_non_utf8_feature_file_names_the_line(tmp_path):
    p = tmp_path / "f.txt"
    p.write_bytes(b"COBRA-FEAT 1 image 2 1 1\n0,1.0\n0,\xff\n")
    with pytest.raises(FormatError, match=r"f\.txt:3: not UTF-8 at byte offset 33"):
        data.load_feature_file(p)


def test_non_utf8_manifest_names_the_line(tmp_path):
    p = tmp_path / "d.manifest"
    p.write_bytes(b"image_file=a\ntext_file=\xc3b\n")
    with pytest.raises(FormatError, match=r"d\.manifest:2: not UTF-8"):
        data.read_manifest(p)


def _check_feature_parse(p):
    """load_feature_file gives a valid dataset or raises FormatError."""
    try:
        ds = data.load_feature_file(p)
    except FormatError:
        return
    assert ds.features.dtype == np.float32 and np.isfinite(ds.features).all()
    assert ds.labels.min() >= 0 and ds.labels.max() < ds.num_classes


def _check_manifest_parse(p):
    """read_manifest gives the required keys and no others, or raises FormatError."""
    try:
        m = data.read_manifest(p)
    except FormatError:
        return
    assert {"image_file", "text_file"} <= set(m) <= set(data.MANIFEST_KEYS)
    assert all(isinstance(v, str) for v in m.values())


_FEATURE_HEADER = b"COBRA-FEAT 1 image 2 2 3\n"
_EDITS = st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 255)), max_size=4)
_CUT = st.one_of(st.none(), st.integers(0, 10**6))


def _mutate(blob: bytes, edits, cut) -> bytes:
    blob = bytearray(blob)
    for at, value in edits:
        blob[at % len(blob)] = value
    if cut is not None:
        blob = blob[: cut % (len(blob) + 1)]
    return bytes(blob)


@given(blob=st.binary(max_size=200), header=st.booleans())
@settings(max_examples=200, deadline=None)
def test_parsers_total_on_arbitrary_bytes(blob, header, tmp_path_factory):
    d = tmp_path_factory.mktemp("fz")
    (d / "f.txt").write_bytes(_FEATURE_HEADER + blob if header else blob)
    (d / "d.manifest").write_bytes(b"image_file=" + blob if header else blob)
    _check_feature_parse(d / "f.txt")
    _check_manifest_parse(d / "d.manifest")


@given(seed=st.integers(0, 10_000), edits=_EDITS, cut=_CUT)
@settings(max_examples=200, deadline=None)
def test_parsers_total_on_mutated_files(seed, edits, cut, tmp_path_factory):
    d = tmp_path_factory.mktemp("fz")
    ds = _random_ds(np.random.default_rng(seed))
    data.write_feature_file(ds, d / "f.txt")
    data.write_manifest(d / "d.manifest", "f.txt", "f.txt", "demo")
    parsers = ((d / "f.txt", _check_feature_parse), (d / "d.manifest", _check_manifest_parse))
    for p, check in parsers:
        p.write_bytes(_mutate(p.read_bytes(), edits, cut))
        check(p)
