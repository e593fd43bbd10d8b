"""Command-line surface: synth, train, eval-retrieval, eval-classify, embed,
gradcheck.

Exit codes: 0 success, 1 check failure, 2 usage/config error, 3 I/O error,
4 numeric halt. Machine-readable records go to stdout, progress to stderr.
Flag values override config-file values override built-in defaults; the
effective training config is echoed to the run log. The `train` and `synth`
settings, their types, defaults and valid values come from the fields of
TrainConfig (with LossWeights) and SyntheticSpec.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields as dc_fields
from pathlib import Path

from . import checkpoint, data, evaluation, gradcheck, training
from .errors import CobraError, ConfigError, NumericError
from .losses import LossWeights

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERIC = 4

# Config-file keys and flags are TrainConfig field names, LossWeights' flattened
# in place of `weights`, except these two
_RENAMED = {"n_negatives": "negatives", "contrastive_variant": "contrastive"}


def _train_fields():
    """TrainConfig's fields with LossWeights' in place of `weights`."""
    for f in dc_fields(training.TrainConfig):
        yield from dc_fields(LossWeights) if f.name == "weights" else (f,)


def _setting(f) -> tuple:
    """(default, type, choices) of a dataclass field; a None default is an int."""
    return f.default, int if f.default is None else type(f.default), f.metadata.get("choices")


# key -> (default, type, choices); val_fraction is the CLI's own
TRAIN_SETTINGS = {_RENAMED.get(f.name, f.name): _setting(f) for f in _train_fields()}
TRAIN_SETTINGS["val_fraction"] = (0.1, float, None)
SYNTH_SETTINGS = {f.name: _setting(f) for f in dc_fields(data.SyntheticSpec)}


def _progress(msg: str):
    print(msg, file=sys.stderr)


def read_config_file(path) -> dict:
    """key=value settings; the `config` lines of a run.log, without the
    prefix, read back as the same settings."""
    out = {}
    for lineno, line in enumerate(data.read_text(path).splitlines(), start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        if "=" not in line:
            raise CobraError(f"{path}:{lineno}: expected key=value")
        key, value = line.split("=", 1)
        key = key.strip()
        if key not in TRAIN_SETTINGS:
            raise CobraError(f"{path}:{lineno}: unknown config key {key!r}")
        default, kind, _ = TRAIN_SETTINGS[key]
        value = value.strip()
        if default is None and value == "None":  # as run.log records it
            out[key] = None
            continue
        try:
            out[key] = kind(value)
        except ValueError:
            raise CobraError(
                f"{path}:{lineno}: {key} expects {kind.__name__}, got {value!r}"
            ) from None
    return out


def effective_train_settings(args) -> dict:
    """defaults <- config file <- explicit flags."""
    settings = {key: default for key, (default, _, _) in TRAIN_SETTINGS.items()}
    if getattr(args, "config", None):
        settings.update(read_config_file(args.config))
    for key in settings:
        flag = getattr(args, key, None)
        if flag is not None:
            settings[key] = flag
    return settings


def _train_config(settings: dict) -> training.TrainConfig:
    kw = {f.name: settings[_RENAMED.get(f.name, f.name)] for f in _train_fields()}
    weights = LossWeights(**{f.name: kw.pop(f.name) for f in dc_fields(LossWeights)})
    return training.TrainConfig(weights=weights, **kw)


def _add_setting_flags(parser, settings: dict, with_defaults: bool):
    for key, (default, kind, choices) in settings.items():
        parser.add_argument(
            "--" + key.replace("_", "-"),
            dest=key,
            type=kind,
            choices=choices,
            default=default if with_defaults else None,
        )


def cmd_synth(args) -> int:
    spec = data.SyntheticSpec(**{key: getattr(args, key) for key in SYNTH_SETTINGS})
    paired = data.generate_synthetic(spec)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    def emit(name: str, ds: data.PairedDataset):
        img, txt = f"{name}_image.txt", f"{name}_text.txt"
        data.write_feature_file(ds.image, out / img)
        data.write_feature_file(ds.text, out / txt)
        data.write_manifest(out / f"{name}.manifest", img, txt, name)

    if args.split:
        names = ("train", "val", "test")
        try:
            fractions = [float(f) for f in args.split.split(",")]
        except ValueError:
            raise CobraError(f"--split expects numbers, got {args.split!r}") from None
        if len(fractions) > len(names):
            raise CobraError(
                f"--split takes at most {len(names)} fractions, got {len(fractions)}"
            )
        for name, ds in zip(names, data.split(paired, fractions, args.seed)):
            emit(name, ds)
    else:
        emit("data", paired)
    print(
        f"synth classes={spec.classes} pairs={paired.n_pairs} "
        f"dI={spec.d_image} dT={spec.d_text}"
    )
    return EXIT_OK


def cmd_train(args) -> int:
    settings = effective_train_settings(args)
    config = _train_config(settings)
    frac = settings["val_fraction"]
    if not args.val_manifest and not 0 < frac < 1:
        raise ConfigError(f"val_fraction must lie in (0, 1), got {frac}")
    train_pair = data.load_paired(args.manifest)
    if args.val_manifest:
        val_pair = data.load_paired(args.val_manifest)
    else:
        train_pair, val_pair = data.split(
            train_pair, [1.0 - frac, frac], settings["seed"]
        )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _progress(
        f"training on {train_pair.n_pairs} pairs "
        f"(val {val_pair.n_pairs}), {config.epochs} epochs"
    )
    with (out / "run.log").open("w", encoding="utf-8") as log:
        for key in sorted(settings):
            log.write(f"config {key}={settings[key]}\n")
        training.train(train_pair, val_pair, config, out_dir=out, log_stream=log)
    _progress(f"wrote {out / 'final.ckpt'} and {out / 'best.ckpt'}")
    return EXIT_OK


def cmd_eval_retrieval(args) -> int:
    model = checkpoint.load_checkpoint(args.checkpoint)
    paired = data.load_paired(args.manifest)
    report = evaluation.retrieval_report(
        model, paired, zero_relevant=args.zero_relevant, map_at=args.map_at
    )
    for line in report.record_lines():
        print(line)
    return EXIT_OK


def cmd_eval_classify(args) -> int:
    model = checkpoint.load_checkpoint(args.checkpoint)
    head = checkpoint.load_head(args.head_checkpoint)
    paired = data.load_paired(args.manifest)
    acc = evaluation.classification_accuracy(head, model, paired, paired.labels)
    print(f"accuracy={acc:.5f} n={paired.n_pairs}")
    return EXIT_OK


def cmd_embed(args) -> int:
    model = checkpoint.load_checkpoint(args.checkpoint)
    paired = data.load_paired(args.manifest)
    img_path, txt_path = evaluation.export_embeddings(model, paired, args.out)
    _progress(f"wrote {img_path} and {txt_path}")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    results = gradcheck.run_gradcheck(seed=args.seed)
    ok = True
    for r in results:
        status = "pass" if r.passed else "FAIL"
        print(f"check={r.name} max_rel_err={r.max_rel_err:.3e} status={status}")
        ok = ok and r.passed
    if not ok:
        failing = [r.name for r in results if not r.passed]
        _progress(f"gradient check failed: {', '.join(failing)}")
        return EXIT_CHECK_FAILED
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="cobra", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("synth", help="generate a synthetic paired dataset")
    _add_setting_flags(sp, SYNTH_SETTINGS, with_defaults=True)
    sp.add_argument("--out", required=True)
    sp.add_argument(
        "--split", default=None, help="comma fractions, e.g. 0.8,0.1,0.1"
    )
    sp.set_defaults(func=cmd_synth)

    tp = sub.add_parser("train", help="train the joint-embedding model")
    tp.add_argument("--manifest", required=True)
    tp.add_argument("--val-manifest", default=None)
    tp.add_argument("--out", required=True)
    tp.add_argument("--config", default=None, help="key=value config file")
    # unset flags stay None, so config-file values and defaults apply
    _add_setting_flags(tp, TRAIN_SETTINGS, with_defaults=False)
    tp.set_defaults(func=cmd_train)

    rp = sub.add_parser("eval-retrieval", help="cross-modal retrieval mAP")
    rp.add_argument("--manifest", required=True)
    rp.add_argument("--checkpoint", required=True)
    rp.add_argument("--map-at", type=int, default=None, dest="map_at")
    rp.add_argument(
        "--zero-relevant", choices=evaluation.ZERO_RELEVANT, default="exclude"
    )
    rp.set_defaults(func=cmd_eval_retrieval)

    cp = sub.add_parser("eval-classify", help="bi-modal classification accuracy")
    cp.add_argument("--manifest", required=True)
    cp.add_argument("--checkpoint", required=True)
    cp.add_argument("--head-checkpoint", required=True, dest="head_checkpoint")
    cp.set_defaults(func=cmd_eval_classify)

    ep = sub.add_parser("embed", help="export joint embeddings")
    ep.add_argument("--manifest", required=True)
    ep.add_argument("--checkpoint", required=True)
    ep.add_argument("--out", required=True)
    ep.set_defaults(func=cmd_embed)

    gp = sub.add_parser("gradcheck", help="finite-difference gradient suite")
    gp.add_argument("--seed", type=int, default=0)
    gp.set_defaults(func=cmd_gradcheck)
    return p


def main(argv: list[str]) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NumericError as e:
        _progress(f"numeric halt: {e}")
        return EXIT_NUMERIC
    except CobraError as e:
        _progress(f"error: {e}")
        return EXIT_CONFIG
    except OSError as e:
        _progress(f"I/O error: {e}")
        return EXIT_IO


def entrypoint():
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    entrypoint()
