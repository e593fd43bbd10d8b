"""End-to-end command-line tests; each invocation goes through cli.main()."""

import argparse
import dataclasses
import re

import numpy as np
import pytest

import feature_file_oracle
from cobra import checkpoint, cli, data, evaluation, model as model_mod
from cobra.data import SyntheticSpec
from cobra.losses import LossWeights
from cobra.training import TrainConfig
from conftest import scale_relu_backward


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def dataset(tmp_path, capsys):
    out = tmp_path / "ds"
    code, *_ = run_cli(
        capsys,
        "synth",
        "--classes", "3",
        "--d-image", "8",
        "--d-text", "6",
        "--pairs-per-class", "12",
        "--seed", "1",
        "--out", str(out),
        "--split", "0.7,0.15,0.15",
    )
    assert code == 0
    return out


@pytest.fixture
def run_dir(dataset, tmp_path, capsys):
    out = tmp_path / "run"
    code, *_ = run_cli(
        capsys,
        "train",
        "--manifest", str(dataset / "train.manifest"),
        "--val-manifest", str(dataset / "val.manifest"),
        "--out", str(out),
        "--epochs", "3",
        "--batch", "8",
        "--eta", "0.005",
        "--negatives", "3",
    )
    assert code == 0
    return out


def test_synth_writes_split_files(dataset):
    for name in ("train", "val", "test"):
        assert (dataset / f"{name}.manifest").exists()
        assert (dataset / f"{name}_image.txt").exists()
        assert (dataset / f"{name}_text.txt").exists()


def test_synth_record_line(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "synth", "--classes", "3", "--d-image", "8", "--d-text", "6",
        "--pairs-per-class", "4", "--out", str(tmp_path / "d"),
    )
    assert code == 0
    assert out.strip() == "synth classes=3 pairs=12 dI=8 dT=6"


def test_synth_deterministic_byte_identical(tmp_path, capsys):
    args = ["synth", "--classes", "3", "--d-image", "8", "--d-text", "6",
            "--pairs-per-class", "5", "--seed", "7"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli(capsys, *args, "--out", str(a))[0] == 0
    assert run_cli(capsys, *args, "--out", str(b))[0] == 0
    for f in ("data_image.txt", "data_text.txt", "data.manifest"):
        assert (a / f).read_bytes() == (b / f).read_bytes()


def test_synth_invalid_config_exit_2(tmp_path, capsys):
    for bad in (["--classes", "1"], ["--seed", "-1"], ["--split", "nan,0.5"]):
        code, _, err = run_cli(capsys, "synth", *bad, "--out", str(tmp_path / "d"))
        assert code == 2
        assert "error" in err


def test_train_writes_run_log_and_checkpoints(run_dir):
    assert (run_dir / "final.ckpt").exists()
    assert (run_dir / "best.ckpt").exists()
    log = (run_dir / "run.log").read_text()
    config_lines = [l for l in log.splitlines() if l.startswith("config ")]
    epoch_lines = [l for l in log.splitlines() if l.startswith("epoch=")]
    assert any(l == "config eta=0.005" for l in config_lines)
    assert any(l == "config epochs=3" for l in config_lines)
    assert len(epoch_lines) == 3
    assert re.match(
        r"epoch=1 l_r=\S+ l_m=\S+ l_s=\S+ l_c=\S+ total=\S+ skipped=\d+ secs=\S+",
        epoch_lines[0],
    )


def test_train_config_file_and_flag_precedence(dataset, tmp_path, capsys):
    cfg = tmp_path / "train.cfg"
    cfg.write_text("# comment\neta=0.008\nepochs=5\n")
    out = tmp_path / "run2"
    code, *_ = run_cli(
        capsys,
        "train",
        "--manifest", str(dataset / "train.manifest"),
        "--val-manifest", str(dataset / "val.manifest"),
        "--out", str(out),
        "--config", str(cfg),
        "--epochs", "2",  # flag beats config file
        "--batch", "8",
    )
    assert code == 0
    log = (out / "run.log").read_text()
    assert "config eta=0.008" in log  # from config file
    assert "config epochs=2" in log  # flag wins
    assert len([l for l in log.splitlines() if l.startswith("epoch=")]) == 2


def test_train_rejects_unknown_config_key(dataset, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bogus_key=1\n")
    code, _, err = run_cli(
        capsys,
        "train",
        "--manifest", str(dataset / "train.manifest"),
        "--out", str(tmp_path / "r"),
        "--config", str(cfg),
    )
    assert code == 2
    assert "bogus_key" in err


def test_train_rejects_bad_config_value(dataset, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("eta=0.01\nepochs=abc\n")
    code, _, err = run_cli(
        capsys,
        "train",
        "--manifest", str(dataset / "train.manifest"),
        "--out", str(tmp_path / "r"),
        "--config", str(cfg),
    )
    assert code == 2
    assert f"{cfg}:2:" in err
    assert "epochs" in err


@pytest.mark.parametrize(
    "flags, config, setting",
    [
        pytest.param(["--iters-per-epoch", "-1"], None, "iters_per_epoch", id="iters-1"),
        pytest.param(["--iters-per-epoch", "0"], None, "iters_per_epoch", id="iters0"),
        pytest.param(["--checkpoint-every", "-1"], None, "checkpoint_every", id="ckpt-1"),
        pytest.param([], "score_mode=bogus\n", "score_mode", id="score_mode_file"),
        pytest.param(
            [], "contrastive=bogus\nlambda_c=0\n", "contrastive", id="contrastive_file"
        ),
        pytest.param(["--negatives", "0", "--lambda-c", "0"], None, "negatives", id="neg0"),
        pytest.param(
            ["--temperature", "0", "--lambda-c", "0"], None, "temperature", id="temp0"
        ),
        pytest.param(["--val-fraction", "1.5"], None, "val_fraction", id="val_fraction"),
        pytest.param(["--seed", "-1"], None, "seed", id="seed-1"),
    ],
)
def test_train_rejects_invalid_setting_before_reading_data(
    dataset, tmp_path, capsys, monkeypatch, flags, config, setting
):
    argv = ["train", "--manifest", str(dataset / "train.manifest")]
    argv += ["--out", str(tmp_path / "r")]
    if config is not None:
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(config)
        argv += ["--config", str(cfg)]
    read = []
    load_paired = cli.data.load_paired
    monkeypatch.setattr(cli.data, "load_paired", lambda p: read.append(p) or load_paired(p))
    code, out, err = run_cli(capsys, *argv, *flags)
    assert code == 2
    assert setting in err
    assert out == ""
    assert read == []
    assert not (tmp_path / "r").exists()


def _non_utf8(path, line: int):
    """Puts a byte that is not UTF-8 at the start of the 1-based `line`."""
    lines = path.read_bytes().split(b"\n")
    lines[line - 1] = b"\xff" + lines[line - 1]
    path.write_bytes(b"\n".join(lines))


def test_train_non_utf8_config_file_exit_2(dataset, tmp_path, capsys):
    cfg = tmp_path / "train.cfg"
    cfg.write_text("eta=0.01\nepochs=2\n")
    _non_utf8(cfg, 2)
    code, _, err = run_cli(
        capsys, "train", "--manifest", str(dataset / "train.manifest"),
        "--out", str(tmp_path / "r"), "--config", str(cfg),
    )
    assert code == 2
    assert f"{cfg}:2: not UTF-8" in err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("name, line", [("test.manifest", 2), ("test_text.txt", 3)])
def test_eval_retrieval_non_utf8_input_exit_2(run_dir, dataset, capsys, name, line):
    _non_utf8(dataset / name, line)
    code, out, err = run_cli(
        capsys, "eval-retrieval", "--manifest", str(dataset / "test.manifest"),
        "--checkpoint", str(run_dir / "final.ckpt"),
    )
    assert code == 2
    assert out == ""
    assert f"{dataset / name}:{line}: not UTF-8" in err


# the config lines of a default `cobra train` run, as users have seen them
DEFAULT_CONFIG_LINES = [
    "config batch=128",
    "config checkpoint_every=0",
    "config contrastive=nce",
    "config epochs=200",
    "config eta=0.01",
    "config iters_per_epoch=None",
    "config lambda_c=0.1",
    "config lambda_m=1.0",
    "config lambda_r=1.0",
    "config lambda_s=1.0",
    "config nce_form=log",
    "config negatives=10",
    "config reduction=mean",
    "config score_mode=exp",
    "config seed=0",
    "config temperature=1.0",
    "config val_fraction=0.1",
]


def _flags(command: str) -> dict:
    """dest -> option strings of a subcommand's flags."""
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {a.dest: a.option_strings for a in sub.choices[command]._actions if a.option_strings}


def _logged_config(out) -> list[str]:
    return [l for l in (out / "run.log").read_text().splitlines() if l.startswith("config ")]


def test_train_settings_have_one_source(dataset, tmp_path, capsys, monkeypatch):
    """The train flags, the config-file keys, the run.log config keys and the
    TrainConfig + LossWeights fields (two of them renamed) are one set."""
    monkeypatch.setattr(cli.training, "train", lambda *args, **kwargs: None)
    out = tmp_path / "r"
    code, *_ = run_cli(
        capsys, "train", "--manifest", str(dataset / "train.manifest"), "--out", str(out)
    )
    assert code == 0
    logged = _logged_config(out)
    assert logged == DEFAULT_CONFIG_LINES
    log_keys = {l[len("config "):].split("=")[0] for l in logged}

    renamed = {"n_negatives": "negatives", "contrastive_variant": "contrastive"}
    fields = {renamed.get(f.name, f.name) for f in dataclasses.fields(TrainConfig)}
    fields = fields - {"weights"} | {f.name for f in dataclasses.fields(LossWeights)}
    fields.add("val_fraction")

    flags = _flags("train")
    for key in ("help", "manifest", "val_manifest", "out", "config"):
        del flags[key]
    assert all(opts == ["--" + key.replace("_", "-")] for key, opts in flags.items())

    cfg = tmp_path / "all.cfg"
    cfg.write_text("".join(l[len("config "):] + "\n" for l in logged))
    config_keys = set(cli.read_config_file(cfg))
    assert config_keys == set(cli.TRAIN_SETTINGS)

    assert set(flags) == config_keys == log_keys == fields
    assert len(fields) == 17


def test_run_log_config_lines_replay_as_config_file(dataset, tmp_path, capsys, monkeypatch):
    """The config lines of a default run, fed back through --config, give the
    same config lines (iters_per_epoch=None included)."""
    monkeypatch.setattr(cli.training, "train", lambda *args, **kwargs: None)
    first, second = tmp_path / "first", tmp_path / "second"
    manifest = str(dataset / "train.manifest")
    assert run_cli(capsys, "train", "--manifest", manifest, "--out", str(first))[0] == 0
    logged = _logged_config(first)
    assert "config iters_per_epoch=None" in logged
    cfg = tmp_path / "replay.cfg"
    cfg.write_text("".join(l[len("config "):] + "\n" for l in logged))
    code, _, err = run_cli(
        capsys, "train", "--manifest", manifest, "--out", str(second), "--config", str(cfg)
    )
    assert code == 0, err
    assert _logged_config(second) == logged


def test_synth_flags_are_synthetic_spec_fields():
    flags = _flags("synth")
    for key in ("help", "out", "split"):
        del flags[key]
    assert set(flags) == {f.name for f in dataclasses.fields(SyntheticSpec)}
    assert all(opts == ["--" + key.replace("_", "-")] for key, opts in flags.items())


def test_synth_split_not_a_number_exit_2(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "synth", "--classes", "3", "--out", str(tmp_path / "d"),
        "--split", "0.5,abc",
    )
    assert code == 2
    assert "0.5,abc" in err


def test_synth_split_more_than_three_fractions_exit_2(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "synth", "--classes", "3", "--out", str(tmp_path / "d"),
        "--split", "0.25,0.25,0.25,0.25",
    )
    assert code == 2
    assert "at most 3" in err
    assert not (tmp_path / "d" / "train.manifest").exists()


def test_train_missing_manifest_exit_2(tmp_path, capsys):
    # a missing manifest surfaces as OSError -> exit 3
    code, *_ = run_cli(
        capsys, "train", "--manifest", str(tmp_path / "none.manifest"),
        "--out", str(tmp_path / "r"),
    )
    assert code == 3


def test_eval_retrieval_records(run_dir, dataset, capsys):
    code, out, _ = run_cli(
        capsys,
        "eval-retrieval",
        "--manifest", str(dataset / "test.manifest"),
        "--checkpoint", str(run_dir / "final.ckpt"),
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert re.match(r"direction=ITT map=\d\.\d{5} queries=\d+ excluded=\d+", lines[0])
    assert re.match(r"direction=TTI map=\d\.\d{5} queries=\d+ excluded=\d+", lines[1])
    assert re.match(r"map_avg=\d\.\d{5}", lines[2])
    itt = float(lines[0].split()[1].split("=")[1])
    tti = float(lines[1].split()[1].split("=")[1])
    avg = float(lines[2].split("=")[1])
    assert avg == pytest.approx((itt + tti) / 2, abs=1e-4)


@pytest.mark.parametrize("map_at", ["0", "-3"])
def test_eval_retrieval_invalid_map_at_exit_2(run_dir, dataset, capsys, map_at):
    code, out, err = run_cli(
        capsys, "eval-retrieval", "--manifest", str(dataset / "test.manifest"),
        "--checkpoint", str(run_dir / "final.ckpt"), "--map-at", map_at,
    )
    assert code == 2
    assert out == ""
    assert "map_at" in err


def test_eval_retrieval_corrupt_checkpoint_exit_2(dataset, tmp_path, capsys):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"garbage!")
    code, *_ = run_cli(
        capsys, "eval-retrieval", "--manifest", str(dataset / "test.manifest"),
        "--checkpoint", str(bad),
    )
    assert code == 2


def test_eval_retrieval_non_utf8_tensor_name_exit_2(run_dir, dataset, tmp_path, capsys):
    blob = bytearray((run_dir / "final.ckpt").read_bytes())
    blob[22] = 0xFF  # first byte of the first tensor name
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(bytes(blob))
    args = ("--manifest", str(dataset / "test.manifest"), "--checkpoint", str(bad))
    for argv in (("eval-retrieval", *args), ("embed", *args, "--out", str(tmp_path / "e"))):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert "utf-8 at offset 22" in err


def test_eval_retrieval_oversized_feature_header_exit_2(run_dir, dataset, capsys):
    test_image = dataset / "test_image.txt"
    lines = test_image.read_text().splitlines(keepends=True)
    test_image.write_text("COBRA-FEAT 1 image 1000000000 1000 3\n" + "".join(lines[1:]))
    code, out, err = run_cli(
        capsys, "eval-retrieval", "--manifest", str(dataset / "test.manifest"),
        "--checkpoint", str(run_dir / "final.ckpt"),
    )
    assert code == 2
    assert out == ""
    assert "header claims 1000000000 rows" in err


def test_embed_produces_feature_files(run_dir, dataset, tmp_path, capsys):
    out = tmp_path / "emb"
    code, *_ = run_cli(
        capsys, "embed", "--manifest", str(dataset / "test.manifest"),
        "--checkpoint", str(run_dir / "final.ckpt"), "--out", str(out),
    )
    assert code == 0
    from cobra import data

    emb = data.load_feature_file(out / "embeddings_image.txt")
    assert emb.dim == 3  # joint dim == class count
    assert data.load_feature_file(out / "embeddings_text.txt").dim == 3


def test_synth_and_embed_files_match_oracle(run_dir, dataset, tmp_path, capsys):
    """The feature files of synth and embed are the per-value writer's bytes."""
    spec = SyntheticSpec(classes=3, d_image=8, d_text=6, pairs_per_class=12, seed=1)
    parts = data.split(data.generate_synthetic(spec), [0.7, 0.15, 0.15], 1)
    for name, part in zip(("train", "val", "test"), parts):
        for ds in (part.image, part.text):
            written = (dataset / f"{name}_{ds.modality}.txt").read_bytes()
            assert written == feature_file_oracle.feature_file_bytes(ds)
    out = tmp_path / "emb"
    assert run_cli(
        capsys, "embed", "--manifest", str(dataset / "test.manifest"),
        "--checkpoint", str(run_dir / "final.ckpt"), "--out", str(out),
    )[0] == 0
    model = checkpoint.load_checkpoint(run_dir / "final.ckpt")
    for ds in (parts[2].image, parts[2].text):
        emb = evaluation.embed_dataset(model, ds).astype(np.float32)
        want = data.FeatureDataset(ds.modality, emb, ds.labels, ds.num_classes)
        written = (out / f"embeddings_{ds.modality}.txt").read_bytes()
        assert written == feature_file_oracle.feature_file_bytes(want)


def test_embed_non_finite_embeddings_exit_4_and_write_nothing(run_dir, dataset, tmp_path, capsys):
    """Every command that embeds a checkpoint halts on a non-finite
    embedding: nothing is written or scored."""
    model = checkpoint.load_checkpoint(run_dir / "final.ckpt")
    next(p for p in model.params() if p.name == "text.proj0.w").value[0, 0] = np.nan
    bad = tmp_path / "nan.ckpt"
    checkpoint.save_checkpoint(model, bad)
    head = tmp_path / "head.ckpt"
    checkpoint.save_checkpoint(model_mod.init_head(model.joint_dim, 3, seed=0), head)
    out = tmp_path / "emb"
    for extra in (
        ["embed", "--out", str(out)],
        ["eval-retrieval"],
        ["eval-classify", "--head-checkpoint", str(head)],
    ):
        code, stdout, err = run_cli(
            capsys, *extra, "--manifest", str(dataset / "test.manifest"),
            "--checkpoint", str(bad),
        )
        assert code == 4, extra[0]
        assert stdout == ""
        assert "numeric halt: text embeddings contain non-finite values" in err
    assert list(out.glob("*")) == []


def test_train_diverged_validation_loss_exit_4(tmp_path, capsys):
    """A run whose validation loss overflows halts with exit 4 after that
    epoch's record, with no best_epoch record and no final.ckpt."""
    ds = tmp_path / "ds"
    assert run_cli(
        capsys, "synth", "--classes", "5", "--pairs-per-class", "60", "--sigma", "0.8",
        "--seed", "3", "--split", "0.6,0.2,0.2", "--out", str(ds),
    )[0] == 0
    run = tmp_path / "run"
    with np.errstate(over="ignore", invalid="ignore"):
        code, out, err = run_cli(
            capsys, "train", "--manifest", str(ds / "train.manifest"),
            "--val-manifest", str(ds / "val.manifest"), "--out", str(run),
            "--epochs", "3", "--batch", "128", "--lambda-c", "0",
        )
    assert code == 4
    lines = out.splitlines()
    assert [line.split()[0] for line in lines] == ["epoch=1", "epoch=2", "epoch=3"]
    assert lines[-1].endswith("val_total=inf clamped=0")
    assert "numeric halt: non-finite validation loss at epoch 3" in err
    assert (run / "run.log").read_text().splitlines()[-1] == lines[-1]
    assert not (run / "final.ckpt").exists()


def test_end_to_end_determinism(dataset, tmp_path, capsys):
    """Same seed, same data: byte-identical checkpoints and embeddings, and
    identical stdout records modulo the timing field."""

    def pipeline(tag):
        run = tmp_path / f"run_{tag}"
        code, out, _ = run_cli(
            capsys, "train",
            "--manifest", str(dataset / "train.manifest"),
            "--val-manifest", str(dataset / "val.manifest"),
            "--out", str(run), "--epochs", "2", "--batch", "8", "--seed", "3",
        )
        assert code == 0
        emb = tmp_path / f"emb_{tag}"
        assert run_cli(
            capsys, "embed", "--manifest", str(dataset / "test.manifest"),
            "--checkpoint", str(run / "final.ckpt"), "--out", str(emb),
        )[0] == 0
        stdout = re.sub(r" secs=\S+", "", out)
        return run, emb, stdout

    run_a, emb_a, out_a = pipeline("a")
    run_b, emb_b, out_b = pipeline("b")
    assert (run_a / "final.ckpt").read_bytes() == (run_b / "final.ckpt").read_bytes()
    assert (emb_a / "embeddings_image.txt").read_bytes() == (
        emb_b / "embeddings_image.txt"
    ).read_bytes()
    assert out_a == out_b


def test_eval_classify_record(run_dir, dataset, tmp_path, capsys):
    # train a head directly (no CLI subcommand trains the head standalone)
    from cobra import checkpoint, data as data_mod, training

    model = checkpoint.load_checkpoint(run_dir / "final.ckpt")
    paired = data_mod.load_paired(dataset / "train.manifest")
    head = training.train_classifier(
        model, paired, head_config=training.HeadConfig(epochs=2)
    )
    head_path = tmp_path / "head.ckpt"
    checkpoint.save_checkpoint(head, head_path)
    code, out, _ = run_cli(
        capsys, "eval-classify", "--manifest", str(dataset / "test.manifest"),
        "--checkpoint", str(run_dir / "final.ckpt"),
        "--head-checkpoint", str(head_path),
    )
    assert code == 0
    m = re.match(r"accuracy=(\d\.\d{5}) n=(\d+)", out.strip())
    assert m
    assert 0.0 <= float(m.group(1)) <= 1.0


def test_gradcheck_pass_exit_0(capsys):
    code, out, _ = run_cli(capsys, "gradcheck")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) >= 8
    for line in lines:
        assert re.match(r"check=\S+ max_rel_err=\d\.\d{3}e[+-]\d+ status=pass", line)


def test_gradcheck_fault_exit_1(monkeypatch, capsys):
    """A fault in the real ReLU backward fails the command."""
    scale_relu_backward(monkeypatch)
    code, out, err = run_cli(capsys, "gradcheck")
    assert code == 1
    assert "check=loss_r " in out and "status=FAIL" in out
    assert "gradient check failed: " in err
