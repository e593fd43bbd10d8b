"""Feature-matrix I/O, pairing, stratified splits and the synthetic generator.

Feature file format (UTF-8 text):
    line 1: ``COBRA-FEAT 1 <modality> <n> <d> <C>``
    then n lines of ``<label>,<f1>,...,<fd>`` with base-10 integer labels and
    each value cast to float32 and spelled as ``str(numpy.float32(v))``: the
    shortest decimal that reads back to the same float32, the nearest to it
    of those. On numpy 2.4 it is positional for 1e-4 <= |v| < 1e6, compared
    in float64, with at least one digit on each side of the point (``-0.0``,
    ``1.0``, ``0.00015``), and otherwise scientific with a sign and a
    two-digit exponent (``1e-04``, ``-1.6777216e+07``). A value beyond
    float32's range is a NumericError.

Manifest format: line-based ``key=value`` with keys ``image_file``,
``text_file`` and ``name``; unknown keys are rejected. File paths are
resolved relative to the manifest's directory.

Both parsers are total: they return valid data or raise FormatError, also
for bytes that are not UTF-8.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, FormatError, LabelError, NumericError, PairingError

MODALITIES = ("image", "text")
MANIFEST_KEYS = ("image_file", "text_file", "name")


@dataclass
class FeatureDataset:
    modality: str
    features: np.ndarray  # n x d
    labels: np.ndarray  # n, int
    num_classes: int

    def __post_init__(self):
        labels = np.asarray(self.labels)
        if self.modality not in MODALITIES:
            raise ConfigError(f"modality must be one of {MODALITIES}, got {self.modality!r}")
        n, d = self.features.shape
        if n < 1 or d < 1:
            raise ConfigError(f"feature matrix must be at least 1x1, got {n}x{d}")
        if labels.shape != (n,):
            raise ConfigError(f"labels of shape {labels.shape} for {n} rows")
        if not np.isfinite(self.features).all():
            raise ConfigError("features contain non-finite values")
        # checked before the int64 cast, which would truncate a fractional
        # label; NaN fails every comparison, and +-inf one of the bounds
        ok = (labels >= 0) & (labels < self.num_classes) & (np.floor(labels) == labels)
        if not ok.all():
            raise LabelError(
                f"label {labels[~ok][0]} is not an integer in [0, {self.num_classes})"
            )
        self.labels = labels.astype(np.int64)

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
    """Writes ``ds`` in the feature file format, each value spelled as
    ``str(numpy.float32(v))``. A value beyond float32's range is a
    NumericError, raised before the file is opened.

    ``_format_rows`` formats ``_FORMAT_BLOCK`` values at a time in numpy,
    for the values numpy spells positionally, 1e-4 <= |v| < 1e6, and 0.0.
    Only the others, which numpy spells in scientific notation, keep a
    per-value ``str()``.
    """
    with np.errstate(over="ignore"):
        feats = np.ascontiguousarray(ds.features, dtype=np.float32)
    bad = np.argwhere(~np.isfinite(feats))
    if bad.size:
        i, j = bad[0]
        raise NumericError(
            f"feature value {float(ds.features[i, j])!r} at row {i}, column {j} "
            "is not a finite float32"
        )
    rows = max(1, _FORMAT_BLOCK // ds.dim)
    with open(path, "wb") as fh:
        fh.write(f"COBRA-FEAT 1 {ds.modality} {ds.n} {ds.dim} {ds.num_classes}\n".encode())
        for start in range(0, ds.n, rows):
            block = slice(start, start + rows)
            fh.write(_format_rows(ds.labels[block], feats[block]))


# ---------------------------------------------------------------- value text
#
# A finite float32 v = M * 2**(E - 150), with E its biased exponent and
# 2**23 <= M < 2**24, reads back from any decimal strictly inside its rounding
# interval v -+ 2**(E - 151). numpy prints the shortest such decimal, and of
# those the one nearest v. With k = floor(log10 |v|), x = |v| * 10**(8 - k)
# lies in [1e8, 1e9) and the interval scales to x -+ h, h = 2**(E - 151) *
# 10**(8 - k). For -4 <= k <= 5 both are exact in float64: a 25-bit
# significand times 5**12 fits in 53 bits. The decimal is then the multiple
# of 10**j nearest x, for the largest j with a multiple of 10**j strictly
# within h of x, a tie going to the even multiple, as numpy's does. Only the
# quotients x / 10**j are rounded, and one misrounded near a half-way point
# could pick the other of two nearest multiples: formatting every positive
# float32 in [1e-4, 1e6) both ways found no value where this happens.

_FORMAT_BLOCK = 8192  # values per block: float64 temporaries of 64 KB each
_POW10 = np.array([float(10**j) for j in range(10)])
_INV_POW10 = 1.0 / _POW10


def _exp10_floor(e2: int) -> int:
    """floor(log10(2**e2)), exactly."""
    return len(str(2**e2)) - 1 if e2 >= 0 else -len(str(2**-e2))


def _exponent_tables():
    """Per biased exponent E, the power of ten |v| is compared with to find
    k; per index 2E + (|v| >= that power): x's scale, h, 10**(5 - k),
    10**(k + 4) and k's first row of ``_KEEP``. An index outside [1e-4, 1e6)
    has scale 0 and h = 1, the layout of 0.0, so its values stay finite
    until ``str()`` replaces them."""
    above = np.ones(256)
    scale, half, hi_div = np.zeros(512), np.ones(512), np.ones(512)
    lo_mul, keep_row = np.zeros(512), np.full(512, 30, np.intp)
    for e in range(1, 255):
        k_lo = _exp10_floor(e - 127)
        above[e] = float(f"1e{k_lo + 1}")
        for c in (0, 1):
            k, i = k_lo + c, 2 * e + c
            if not -4 <= k <= 5:  # numpy 2.4's positional range
                continue
            scale[i] = float(f"1e{8 - k}")
            half[i] = math.ldexp(scale[i], e - 151)
            hi_div[i], lo_mul[i] = float(f"1e{5 - k}"), float(f"1e{k + 4}")
            keep_row[i] = 10 * (k + 4)
    return above, scale, half, hi_div, lo_mul, keep_row


(_ABOVE, _SCALE, _HALF_ULP, _HI_DIV, _LO_MUL, _KEEP_ROW) = _exponent_tables()


def _cell_tables():
    """A value takes 24 cells, six uint32 words: a sign cell and the digits
    at 10**5..10**3; the digits at 10**2..10**0 and the point; three words
    of three fraction digits and a pad; three fraction digits and the
    separator. ``_DIGITS`` holds the 1000 spellings of each word kind, found
    at ``triplet + _WORD_KIND``. ``_KEEP[10 * (k + 4) + j]`` clears the
    leading zeros of the integer part and the trailing zeros of the fraction
    of a value with exponent k and last digit at 10**(k - 8 + j)."""
    kinds = [b"\0%03d", b"%03d.", b"%03d\0", b"%03d,"]
    digits = np.frombuffer(b"".join(w % i for w in kinds for i in range(1000)), np.uint32)
    word_kind = np.array([[0], [1000], [2000], [2000], [2000], [3000]])
    places = np.array([9, 5, 4, 3, 2, 1, 0, 9, -1, -2, -3, 9,
                       -4, -5, -6, 9, -7, -8, -9, 9, -10, -11, -12, 9])  # 9: no digit
    keep = np.zeros((100, 24), np.uint8)
    for k in range(-4, 6):
        for j in range(10):
            # j = 9 is a round up to 10**(k + 1); it happens only for k < 0,
            # as float32 holds 10**0 .. 10**10 exactly, so it adds no digit here
            lead = max(k, 0)
            last = min(k - 8 + j, -1)
            kept = ((places <= lead) & (places >= last)) | (places == 9)
            keep[10 * (k + 4) + j] = np.where(kept, 0xFF, 0)
    return digits, word_kind, keep.view(np.uint32)


_DIGITS, _WORD_KIND, _KEEP = _cell_tables()


def _gap(x: np.ndarray, j: int, out=None) -> np.ndarray:
    """|x - the multiple of 10**j nearest x|."""
    t = np.multiply(x, _INV_POW10[j], out=out)
    np.rint(t, out=t)
    t *= _POW10[j]
    np.subtract(x, t, out=t)
    return np.abs(t, out=t)


def _format_rows(labels: np.ndarray, values: np.ndarray) -> bytes:
    """The lines ``<label>,<v1>,...,<vd>`` of a float32 block, as bytes. Each
    line is laid out in fixed cells of a grid, with NUL bytes as padding,
    which one ``bytes.translate`` removes."""
    rows, d = values.shape
    v = values.reshape(-1)
    n = v.size
    bits = v.view(np.uint32)
    expo = (bits >> 23) & 0xFF
    x = np.abs(v).astype(np.float64)
    idx = 2 * expo.astype(np.intp) + (x >= np.take(_ABOVE, expo))
    scale = np.take(_SCALE, idx)
    x *= scale
    half = np.take(_HALF_ULP, idx)

    # the largest j with a multiple of 10**j within h of x. Every smaller j
    # has one too, so j counts the powers that do; on synthetic data 3% of
    # the values reach 10**3, and only those try the higher powers
    t = np.empty(n)
    places = np.zeros(n, np.intp)
    for j in (1, 2, 3):
        places += _gap(x, j, t) < half
    rest = np.flatnonzero(places == 3)
    for j in range(4, 10):
        rest = rest[_gap(x[rest], j) < half[rest]]
        places[rest] += 1
    p = np.take(_POW10, places)
    digits = np.rint(x / p) * p
    per_value = (scale == 0) & (v != 0)  # outside [1e-4, 1e6), 0.0 aside

    # |v| * 1e12 as two nine-digit halves, each three triplets of digits
    hi_div = np.take(_HI_DIV, idx)
    high = np.floor(digits / hi_div)
    halves = np.stack([high, (digits - high * hi_div) * np.take(_LO_MUL, idx)])
    thousands = np.floor(halves / 1e3)
    millions = np.floor(halves / 1e6)
    triplets = np.stack([millions, thousands - 1e3 * millions, halves - 1e3 * thousands], 1)
    words = np.take(_DIGITS, triplets.reshape(6, n).astype(np.intp) + _WORD_KIND)

    width = len(str(labels.max()))
    label_words = (width + 4) // 4  # the label, its comma and leading pads
    grid = np.empty((rows, label_words + 6 * d), np.uint32)
    cells = grid[:, label_words:].reshape(rows, d, 6)
    cells[...] = words.reshape(6, rows, d).transpose(1, 2, 0)
    cells &= np.take(_KEEP, np.take(_KEEP_ROW, idx) + places, axis=0).reshape(rows, d, 6)
    line = grid.view(np.uint8)
    line[:, 4 * label_words :: 24] = (bits >> 31).reshape(rows, d) * ord("-")
    for i in np.flatnonzero(per_value):
        text = np.frombuffer(str(v[i]).encode(), np.uint8)
        row, col = divmod(int(i), d)
        cell = line[row, 4 * (label_words + 6 * col) :][:23]
        cell[:] = 0
        cell[: text.size] = text

    label = line[:, : 4 * label_words]
    label[:] = 0
    label_digits = labels[:, None] // 10 ** np.arange(width - 1, -1, -1)
    label[:, -1 - width : -1] = np.where(label_digits > 0, label_digits % 10 + ord("0"), 0)
    label[:, -2] = labels % 10 + ord("0")
    label[:, -1] = ord(",")
    line[:, -1] = ord("\n")
    return line.tobytes().translate(None, b"\0")


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
