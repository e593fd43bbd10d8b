#!/usr/bin/env python3
"""Full synthetic pipeline in one run: generate data, train the joint
embedding model, train the fusion classifier, and report retrieval mAP plus
classification accuracy on the held-out split. With --out, the directory
gets the model checkpoints of `cobra train` plus head.ckpt, the fusion head
trained on final.ckpt, which `cobra eval-classify --head-checkpoint` reads.

Example:
    python3 scripts/run_synthetic_experiment.py --epochs 15 --out /tmp/cobra_run
"""

import argparse
import sys
import time
from pathlib import Path

from cobra import checkpoint, data, evaluation, training
from cobra.losses import CONTRASTIVE_VARIANTS, LossWeights
from cobra.training import HeadConfig, TrainConfig


def main() -> int:
    # defaults are SyntheticSpec's and TrainConfig's, except the shorter
    # --epochs and --head-epochs of this quick experiment
    spec, cfg = data.SyntheticSpec(), TrainConfig()
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--classes", type=int, default=spec.classes)
    ap.add_argument("--d-image", type=int, default=spec.d_image)
    ap.add_argument("--d-text", type=int, default=spec.d_text)
    ap.add_argument("--pairs-per-class", type=int, default=spec.pairs_per_class)
    ap.add_argument("--sigma", type=float, default=spec.sigma)
    ap.add_argument("--separation", type=float, default=spec.separation)
    ap.add_argument("--epochs", type=int, default=15)
    ap.add_argument("--batch", type=int, default=cfg.batch)
    ap.add_argument("--eta", type=float, default=cfg.eta)
    ap.add_argument("--lambda-c", type=float, default=cfg.weights.lambda_c)
    ap.add_argument(
        "--contrastive", choices=CONTRASTIVE_VARIANTS, default=cfg.contrastive_variant
    )
    ap.add_argument("--head-epochs", type=int, default=30)
    ap.add_argument("--seed", type=int, default=spec.seed)
    ap.add_argument("--out", default=None, help="directory for the model and head checkpoints (optional)")
    args = ap.parse_args()

    spec = data.SyntheticSpec(
        classes=args.classes,
        d_image=args.d_image,
        d_text=args.d_text,
        pairs_per_class=args.pairs_per_class,
        sigma=args.sigma,
        separation=args.separation,
        seed=args.seed,
    )
    paired = data.generate_synthetic(spec)
    train_set, val_set, test_set = data.split(paired, [0.8, 0.1, 0.1], seed=args.seed)
    print(
        f"data: {paired.n_pairs} pairs, {spec.classes} classes, "
        f"splits {train_set.n_pairs}/{val_set.n_pairs}/{test_set.n_pairs}",
        file=sys.stderr,
    )

    cfg = TrainConfig(
        eta=args.eta,
        epochs=args.epochs,
        batch=args.batch,
        weights=LossWeights(lambda_c=args.lambda_c),
        contrastive_variant=args.contrastive,
        seed=args.seed,
    )
    out_dir = Path(args.out) if args.out else None
    t0 = time.perf_counter()
    result = training.train(train_set, val_set, cfg, out_dir=out_dir)
    print(f"trained {args.epochs} epochs in {time.perf_counter() - t0:.1f}s", file=sys.stderr)

    report = evaluation.retrieval_report(result.model, test_set)
    for line in report.record_lines():
        print(line)

    head = training.train_classifier(
        result.model, train_set, head_config=HeadConfig(epochs=args.head_epochs, seed=args.seed)
    )
    if out_dir is not None:
        checkpoint.save_checkpoint(head, out_dir / "head.ckpt")
    acc = evaluation.classification_accuracy(head, result.model, test_set, test_set.labels)
    print(f"accuracy={acc:.5f} n={test_set.n_pairs}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
