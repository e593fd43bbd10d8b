"""Feature-matrix I/O, pairing, stratified splits and the synthetic generator.

Feature file format (UTF-8 text):
    line 1: ``COBRA-FEAT 1 <modality> <n> <d> <C>``
    then n lines of ``<label>,<f1>,...,<fd>`` with base-10 integer labels and
    decimal floats (shortest round-trip representation of 32-bit values).

Manifest format: line-based ``key=value`` with keys ``image_file``,
``text_file`` and ``name``; unknown keys are rejected. File paths are
resolved relative to the manifest's directory.

Both parsers are total: they return valid data or raise FormatError, also
for bytes that are not UTF-8.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, FormatError, LabelError, PairingError

MODALITIES = ("image", "text")
MANIFEST_KEYS = ("image_file", "text_file", "name")


@dataclass
class FeatureDataset:
    modality: str
    features: np.ndarray  # n x d
    labels: np.ndarray  # n, int
    num_classes: int

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.modality not in MODALITIES:
            raise ConfigError(f"modality must be one of {MODALITIES}, got {self.modality!r}")
        n, d = self.features.shape
        if n < 1 or d < 1:
            raise ConfigError(f"feature matrix must be at least 1x1, got {n}x{d}")
        if self.labels.shape != (n,):
            raise ConfigError(f"{self.labels.shape[0]} labels for {n} rows")
        if not np.isfinite(self.features).all():
            raise ConfigError("features contain non-finite values")
        if self.labels.min() < 0 or self.labels.max() >= self.num_classes:
            raise LabelError(f"labels must lie in [0, {self.num_classes})")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


@dataclass
class PairedDataset:
    image: FeatureDataset
    text: FeatureDataset

    def __post_init__(self):
        if self.image.num_classes != self.text.num_classes:
            raise PairingError(
                f"class counts differ: {self.image.num_classes} vs {self.text.num_classes}"
            )
        if self.image.n != self.text.n:
            raise PairingError(f"pair counts differ: {self.image.n} vs {self.text.n}")
        mismatch = np.nonzero(self.image.labels != self.text.labels)[0]
        if mismatch.size:
            raise PairingError(f"pair labels differ at index {int(mismatch[0])}")

    @property
    def n_pairs(self) -> int:
        return self.image.n

    @property
    def num_classes(self) -> int:
        return self.image.num_classes

    @property
    def labels(self) -> np.ndarray:
        return self.image.labels

    def subset(self, idx) -> "PairedDataset":
        idx = np.asarray(idx)
        return PairedDataset(
            image=FeatureDataset(
                "image", self.image.features[idx], self.image.labels[idx], self.num_classes
            ),
            text=FeatureDataset(
                "text", self.text.features[idx], self.text.labels[idx], self.num_classes
            ),
        )


def write_feature_file(ds: FeatureDataset, path):
    lines = [f"COBRA-FEAT 1 {ds.modality} {ds.n} {ds.dim} {ds.num_classes}"]
    feats = ds.features.astype(np.float32)
    for label, row in zip(ds.labels, feats):
        lines.append(f"{int(label)}," + ",".join(str(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_text(path) -> str:
    """The whole file decoded as UTF-8; a byte that is not UTF-8 is a
    FormatError naming its line and offset."""
    raw = Path(path).read_bytes()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as e:
        line = raw.count(b"\n", 0, e.start) + 1
        raise FormatError(f"{path}:{line}: not UTF-8 at byte offset {e.start}") from None


def load_feature_file(path) -> FeatureDataset:
    path = Path(path)
    try:
        return _read_feature_file(path)
    except UnicodeDecodeError:
        read_text(path)  # raises the FormatError that names the line
        raise


def _read_feature_file(path: Path) -> FeatureDataset:
    with path.open(encoding="utf-8") as fh:
        header = fh.readline()
        parts = header.split()
        if len(parts) != 6 or parts[0] != "COBRA-FEAT" or parts[1] != "1":
            raise FormatError(f"{path}:1: bad header {header.strip()!r}")
        modality = parts[2]
        try:
            n, d, c = int(parts[3]), int(parts[4]), int(parts[5])
        except ValueError:
            raise FormatError(f"{path}:1: non-integer counts in header") from None
        if modality not in MODALITIES or n < 1 or d < 1 or c < 1:
            raise FormatError(f"{path}:1: invalid header fields")
        # a row is at least a one-character label and d one-character values,
        # comma-separated, and a newline (optional after the last row)
        rest = os.fstat(fh.fileno()).st_size - len(header.encode("utf-8"))
        if n * (2 * d + 2) - 1 > rest:
            raise FormatError(
                f"{path}:1: header claims {n} rows of {d} values, but the file "
                f"ended {rest} bytes after the header"
            )

        features = np.empty((n, d), dtype=np.float32)
        labels = np.empty(n, dtype=np.int64)
        for i in range(n):
            lineno = i + 2
            line = fh.readline()
            if not line:
                raise FormatError(f"{path}:{lineno}: expected {n} rows, file ended")
            tokens = line.rstrip("\n").split(",")
            if len(tokens) != d + 1:
                raise FormatError(
                    f"{path}:{lineno}: expected {d + 1} fields, got {len(tokens)}"
                )
            try:
                label = int(tokens[0])
                row = np.array(tokens[1:], dtype=np.float32)
            except ValueError:
                raise FormatError(f"{path}:{lineno}: non-numeric token") from None
            if not 0 <= label < c:
                raise FormatError(f"{path}:{lineno}: label {label} outside [0, {c})")
            if not np.isfinite(row).all():
                raise FormatError(f"{path}:{lineno}: non-finite feature value")
            labels[i] = label
            features[i] = row
        for lineno, line in enumerate(fh, start=n + 2):
            if line.strip():
                raise FormatError(f"{path}:{lineno}: trailing content after {n} rows")
    return FeatureDataset(modality, features, labels, c)


def make_pairs(image_ds: FeatureDataset, text_ds: FeatureDataset) -> PairedDataset:
    """Truncates both modalities to min(n_I, n_T) index-aligned pairs;
    PairedDataset checks the class counts and pair labels."""
    n = min(image_ds.n, text_ds.n)
    return PairedDataset(
        image=FeatureDataset(
            "image", image_ds.features[:n], image_ds.labels[:n], image_ds.num_classes
        ),
        text=FeatureDataset(
            "text", text_ds.features[:n], text_ds.labels[:n], text_ds.num_classes
        ),
    )


@dataclass
class SyntheticSpec:
    classes: int = 10
    d_image: int = 64
    d_text: int = 32
    pairs_per_class: int = 200
    sigma: float = 0.1
    separation: float = 4.0
    seed: int = 0

    def __post_init__(self):
        if self.classes < 2:
            raise ConfigError(f"classes must be >= 2, got {self.classes}")
        if self.sigma <= 0 or self.separation <= 0:
            raise ConfigError("sigma and separation must be positive")
        if self.pairs_per_class < 1:
            raise ConfigError("pairs_per_class must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


@dataclass
class SyntheticDebug:
    prototypes: np.ndarray  # classes x latent
    latents_image: np.ndarray
    latents_text: np.ndarray
    map_image: np.ndarray
    map_text: np.ndarray


def generate_synthetic_debug(spec: SyntheticSpec) -> tuple[PairedDataset, SyntheticDebug]:
    """Shared latent prototype per class, independent noise per modality,
    fixed random linear map per modality. Latent dim equals the class count;
    prototypes sit on scaled axes so pairwise distances equal `separation`."""
    latent = spec.classes
    if spec.d_image < latent or spec.d_text < latent:
        raise ConfigError(
            f"feature dims ({spec.d_image}, {spec.d_text}) must be >= classes "
            f"({latent}) to keep the prototype separation realizable"
        )
    rng = np.random.default_rng(np.random.SeedSequence(entropy=spec.seed, spawn_key=(9,)))
    prototypes = np.eye(latent) * (spec.separation / np.sqrt(2.0))
    map_image = rng.normal(0.0, 1.0 / np.sqrt(latent), size=(latent, spec.d_image))
    map_text = rng.normal(0.0, 1.0 / np.sqrt(latent), size=(latent, spec.d_text))

    labels = np.repeat(np.arange(spec.classes), spec.pairs_per_class)
    n = labels.size
    base = prototypes[labels]
    lat_i = base + rng.normal(0.0, spec.sigma, size=(n, latent))
    lat_t = base + rng.normal(0.0, spec.sigma, size=(n, latent))
    feats_i = (lat_i @ map_image).astype(np.float32)
    feats_t = (lat_t @ map_text).astype(np.float32)

    paired = PairedDataset(
        image=FeatureDataset("image", feats_i, labels, spec.classes),
        text=FeatureDataset("text", feats_t, labels.copy(), spec.classes),
    )
    debug = SyntheticDebug(prototypes, lat_i, lat_t, map_image, map_text)
    return paired, debug


def generate_synthetic(spec: SyntheticSpec) -> PairedDataset:
    return generate_synthetic_debug(spec)[0]


def split(paired: PairedDataset, fractions, seed: int):
    """Class-stratified disjoint splits, deterministic per seed.

    fractions are positive and sum to <= 1; any remainder is dropped.
    Returns one PairedDataset per fraction.
    """
    fractions = list(fractions)
    if not all(f > 0 for f in fractions) or sum(fractions) > 1.0 + 1e-9:  # NaN fails
        raise ConfigError(f"fractions must be positive and sum to <= 1, got {fractions}")
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(8,)))
    parts: list[list[int]] = [[] for _ in fractions]
    for cls in range(paired.num_classes):
        idx = np.nonzero(paired.labels == cls)[0]
        if idx.size < len(fractions):
            raise ConfigError(
                f"class {cls} has {idx.size} pairs, fewer than {len(fractions)} splits"
            )
        idx = rng.permutation(idx)
        counts = _allocate(idx.size, fractions)
        start = 0
        for k, cnt in enumerate(counts):
            parts[k].extend(idx[start : start + cnt])
            start += cnt
    return tuple(paired.subset(sorted(p)) for p in parts)


def _allocate(n: int, fractions) -> list[int]:
    """Largest-remainder allocation; every split gets at least one sample."""
    k = len(fractions)
    total = max(k, min(n, int(round(sum(fractions) * n))))
    counts = [1] * k
    targets = [f * n for f in fractions]
    for _ in range(total - k):
        j = max(range(k), key=lambda i: (targets[i] - counts[i], -i))
        counts[j] += 1
    return counts


def write_manifest(path, image_file: str, text_file: str, name: str):
    Path(path).write_text(
        f"name={name}\nimage_file={image_file}\ntext_file={text_file}\n",
        encoding="utf-8",
    )


def read_manifest(path) -> dict[str, str]:
    path = Path(path)
    out: dict[str, str] = {}
    for lineno, line in enumerate(read_text(path).splitlines(), start=1):
        if not line.strip():
            continue
        if "=" not in line:
            raise FormatError(f"{path}:{lineno}: expected key=value")
        key, value = line.split("=", 1)
        if key not in MANIFEST_KEYS:
            raise FormatError(f"{path}:{lineno}: unknown key {key!r}")
        out[key] = value
    for key in ("image_file", "text_file"):
        if key not in out:
            raise FormatError(f"{path}: missing required key {key!r}")
    return out


def load_paired(manifest_path) -> PairedDataset:
    manifest_path = Path(manifest_path)
    m = read_manifest(manifest_path)
    base = manifest_path.parent
    image_ds = load_feature_file(base / m["image_file"])
    text_ds = load_feature_file(base / m["text_file"])
    return make_pairs(image_ds, text_ds)
