#!/usr/bin/env python3
"""Contrastive-term ablation over several seeds: runs
`cobra.training.contrastive_ablation`, which trains twice per seed (with and
without the contrastive weight), and prints each arm's held-out retrieval
mAP per seed, then the function's win count. A flag left unset takes the
library's setting (`ABLATION_SPEC` for the data flags); acceptance
criterion 8 runs the same function with every setting at its default.

Example:
    python3 scripts/ablate_contrastive.py --seeds 2 --sigma 0.4
"""

import argparse
import dataclasses

from cobra import training


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    # unset flags stay None, so the library's settings apply
    ap.add_argument("--classes", type=int)
    ap.add_argument("--d-image", type=int)
    ap.add_argument("--d-text", type=int)
    ap.add_argument("--pairs-per-class", type=int)
    ap.add_argument("--sigma", type=float)
    ap.add_argument("--epochs", type=int)
    ap.add_argument("--batch", type=int)
    ap.add_argument("--lambda-c", type=float)
    ap.add_argument("--seeds", type=int)
    given = {k: v for k, v in vars(ap.parse_args()).items() if v is not None}
    spec_fields = {f.name for f in dataclasses.fields(training.ABLATION_SPEC)}
    spec = dataclasses.replace(
        training.ABLATION_SPEC, **{k: v for k, v in given.items() if k in spec_fields}
    )
    runs = {k: v for k, v in given.items() if k not in spec_fields}

    scores, wins = training.contrastive_ablation(spec, **runs)
    for seed, (with_c, without_c) in enumerate(scores):
        print(f"seed={seed} map_with_c={with_c:.5f} map_without_c={without_c:.5f}")
    print(f"wins={wins}/{len(scores)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
