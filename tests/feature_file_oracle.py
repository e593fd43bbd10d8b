"""Per-value feature-file writer: the reference for ``data.write_feature_file``.

Production formats a block of values at once in numpy and hands only a few
values to ``str()``. This module keeps the original writer, one
``str(numpy.float32(v))`` per value, so the two can be compared byte for
byte.
"""

from __future__ import annotations

import numpy as np


def feature_file_bytes(ds) -> bytes:
    """The whole file ``data.write_feature_file`` must write for ``ds``."""
    lines = [f"COBRA-FEAT 1 {ds.modality} {ds.n} {ds.dim} {ds.num_classes}"]
    feats = ds.features.astype(np.float32)
    for label, row in zip(ds.labels, feats):
        lines.append(f"{int(label)}," + ",".join(str(v) for v in row))
    return ("\n".join(lines) + "\n").encode("utf-8")
