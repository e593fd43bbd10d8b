"""End-to-end command-line tests; each invocation goes through cli.main()."""

import argparse
import dataclasses
import re

import numpy as np
import pytest

import feature_file_oracle
import retrieval_oracle
from cobra import checkpoint, cli, data, evaluation, model as model_mod, training
from cobra.data import SyntheticSpec
from cobra.losses import LossWeights
from cobra.training import HeadConfig, TrainConfig
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


@pytest.mark.parametrize("key", ["sigma", "separation"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_synth_non_finite_setting_exit_2_naming_it(tmp_path, capsys, monkeypatch, key, value):
    generated = []
    monkeypatch.setattr(cli.data, "generate_synthetic", generated.append)
    code, out, err = run_cli(
        capsys, "synth", f"--{key}", value, "--out", str(tmp_path / "d")
    )
    assert code == 2
    assert out == ""
    assert f"{key} must be positive and finite, got {value}" in err
    assert generated == []
    assert not (tmp_path / "d").exists()


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
        pytest.param(["--checkpoint-every", "-1"], None, "checkpoint_every", id="ckpt-1"),
        pytest.param([], "score_mode=bogus\n", "score_mode", id="score_mode_file"),
        pytest.param(
            [], "contrastive=bogus\nlambda_c=0\n", "contrastive", id="contrastive_file"
        ),
        pytest.param(["--negatives", "0", "--lambda-c", "0"], None, "negatives", id="neg0"),
        pytest.param(["--val-fraction", "1.5"], None, "val_fraction", id="val_fraction"),
        pytest.param(["--seed", "-1"], None, "seed", id="seed-1"),
        pytest.param(["--eta", "inf"], None, "eta", id="eta_inf"),
        pytest.param(["--lambda-c", "inf"], None, "lambda_c", id="lambda_c_inf"),
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
    "config lambda_c=0.1",
    "config lambda_m=1.0",
    "config lambda_r=1.0",
    "config lambda_s=1.0",
    "config negatives=10",
    "config seed=0",
    "config val_fraction=0.1",
]

# the same lines as every run.log written before `temperature` and
# `iters_per_epoch` were retired
TEMPERATURE_DEFAULT_CONFIG_LINES = sorted(
    DEFAULT_CONFIG_LINES + ["config iters_per_epoch=None", "config temperature=1.0"]
)
# and before `reduction`, `nce_form` and `score_mode` were retired
OLD_DEFAULT_CONFIG_LINES = sorted(
    TEMPERATURE_DEFAULT_CONFIG_LINES
    + ["config reduction=mean", "config nce_form=log", "config score_mode=exp"]
)


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
    assert len(fields) == 12


def test_run_log_config_lines_replay_as_config_file(dataset, tmp_path, capsys, monkeypatch):
    """The config lines of a default run, fed back through --config, give the
    same config lines."""
    monkeypatch.setattr(cli.training, "train", lambda *args, **kwargs: None)
    first, second = tmp_path / "first", tmp_path / "second"
    manifest = str(dataset / "train.manifest")
    assert run_cli(capsys, "train", "--manifest", manifest, "--out", str(first))[0] == 0
    logged = _logged_config(first)
    cfg = tmp_path / "replay.cfg"
    cfg.write_text("".join(l[len("config "):] + "\n" for l in logged))
    code, _, err = run_cli(
        capsys, "train", "--manifest", manifest, "--out", str(second), "--config", str(cfg)
    )
    assert code == 0, err
    assert _logged_config(second) == logged


def test_old_run_log_config_lines_replay(dataset, tmp_path, capsys, monkeypatch):
    """A run.log from before `reduction`, `nce_form` and `score_mode` were
    retired replays through --config; those three lines, and the retired
    `temperature` and `iters_per_epoch`, are dropped from the new run.log."""
    monkeypatch.setattr(cli.training, "train", lambda *args, **kwargs: None)
    assert len(OLD_DEFAULT_CONFIG_LINES) == 17
    cfg = tmp_path / "old.cfg"
    cfg.write_text("".join(l[len("config "):] + "\n" for l in OLD_DEFAULT_CONFIG_LINES))
    out = tmp_path / "r"
    code, _, err = run_cli(
        capsys, "train", "--manifest", str(dataset / "train.manifest"),
        "--out", str(out), "--config", str(cfg),
    )
    assert code == 0, err
    assert _logged_config(out) == DEFAULT_CONFIG_LINES


def test_run_log_with_temperature_and_iters_per_epoch_replays(
    dataset, tmp_path, capsys, monkeypatch
):
    """A run.log from before `temperature` and `iters_per_epoch` were retired
    replays through --config at the values it records; neither is logged
    again."""
    monkeypatch.setattr(cli.training, "train", lambda *args, **kwargs: None)
    cfg = tmp_path / "older.cfg"
    cfg.write_text("".join(l[len("config "):] + "\n" for l in TEMPERATURE_DEFAULT_CONFIG_LINES))
    out = tmp_path / "r"
    code, _, err = run_cli(
        capsys, "train", "--manifest", str(dataset / "train.manifest"),
        "--out", str(out), "--config", str(cfg),
    )
    assert code == 0, err
    assert _logged_config(out) == DEFAULT_CONFIG_LINES


@pytest.mark.parametrize(
    "line, now",
    [
        ("temperature=0.5", "contrastive scores are not rescaled"),
        ("iters_per_epoch=3", "an epoch is ceil(n_pairs / batch) steps"),
    ],
    ids=["temperature", "iters_per_epoch"],
)
def test_retired_setting_off_its_recorded_value_exits_2(dataset, tmp_path, capsys, line, now):
    cfg = tmp_path / "old.cfg"
    cfg.write_text(f"eta=0.01\n{line}\n")
    code, out, err = run_cli(
        capsys, "train", "--manifest", str(dataset / "train.manifest"),
        "--out", str(tmp_path / "r"), "--config", str(cfg),
    )
    key = line.split("=")[0]
    assert code == 2
    assert out == ""
    assert f"{cfg}:2: {key} is retired" in err
    assert now in err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("value", ["sum", "bogus"])
def test_retired_reduction_names_its_equivalent(dataset, tmp_path, capsys, value):
    cfg = tmp_path / "old.cfg"
    cfg.write_text(f"eta=0.01\nreduction={value}\n")
    code, out, err = run_cli(
        capsys, "train", "--manifest", str(dataset / "train.manifest"),
        "--out", str(tmp_path / "r"), "--config", str(cfg),
    )
    assert code == 2
    assert out == ""
    assert f"{cfg}:2: reduction is retired" in err
    assert "eta x batch, lambda_r x 2, lambda_c / batch" in err
    assert not (tmp_path / "r").exists()


def test_reduction_flag_is_gone(dataset, tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(
            ["train", "--manifest", str(dataset / "train.manifest"),
             "--out", str(tmp_path / "r"), "--reduction", "mean"]
        )
    assert exit_info.value.code == 2
    assert "--reduction" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("flag, value", [("--temperature", "1.0"), ("--iters-per-epoch", "3")])
def test_retired_setting_flags_are_gone(dataset, tmp_path, capsys, flag, value):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(
            ["train", "--manifest", str(dataset / "train.manifest"),
             "--out", str(tmp_path / "r"), flag, value]
        )
    assert exit_info.value.code == 2
    assert flag in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize(
    "lines, contrastive",
    [
        (["nce_form=log"], "nce"),
        (["score_mode=literal"], "nce"),
        (["score_mode=literal", "contrastive=setform", "nce_form=log"], "setform_literal"),
        (["contrastive=setform", "nce_form=literal"], "setform"),
        (["contrastive=nce", "score_mode=literal"], "nce"),
        (["contrastive=setform", "score_mode=exp"], "setform"),
    ],
)
def test_retired_contrastive_forms_replay(
    dataset, tmp_path, capsys, monkeypatch, lines, contrastive
):
    """score_mode=literal turns a setform file into setform_literal; for the
    nce family (the default) it is ignored, as is nce_form for setform, as
    training ignored them. Neither key is logged again."""
    monkeypatch.setattr(cli.training, "train", lambda *args, **kwargs: None)
    cfg = tmp_path / "old.cfg"
    cfg.write_text("".join(line + "\n" for line in lines))
    out = tmp_path / "r"
    code, _, err = run_cli(
        capsys, "train", "--manifest", str(dataset / "train.manifest"),
        "--out", str(out), "--config", str(cfg),
    )
    assert code == 0, err
    logged = _logged_config(out)
    assert f"config contrastive={contrastive}" in logged
    assert len(logged) == 12


@pytest.mark.parametrize(
    "lines",
    [
        ["nce_form=literal"],
        ["contrastive=nce", "nce_form=literal", "score_mode=exp"],
        ["contrastive=nce_literal", "nce_form=log"],
        ["contrastive=nce_literal"],
    ],
    ids=["nce_form", "nce_file_nce_form", "contrastive_nce_form", "contrastive"],
)
def test_retired_nce_literal_exits_2_before_reading_data(
    dataset, tmp_path, capsys, monkeypatch, lines
):
    """A run.log that trained the retired nce_literal variant, named directly
    or as nce_form=literal in an nce file, exits 2 before any load, and the
    message lists nce among the variants."""

    def no_load(path):
        raise AssertionError(f"loaded {path}")

    monkeypatch.setattr(cli.data, "load_paired", no_load)
    cfg = tmp_path / "old.cfg"
    cfg.write_text("".join(line + "\n" for line in lines))
    code, out, err = run_cli(
        capsys, "train", "--manifest", str(dataset / "train.manifest"),
        "--out", str(tmp_path / "r"), "--config", str(cfg),
    )
    assert code == 2
    assert out == ""
    assert "contrastive_variant must be one of ('nce', " in err
    assert "got 'nce_literal'" in err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("key, value", [("score_mode", "bogus"), ("nce_form", "exp")])
def test_retired_contrastive_form_bad_value_names_its_line(
    dataset, tmp_path, capsys, key, value
):
    cfg = tmp_path / "old.cfg"
    cfg.write_text(f"eta=0.01\n{key}={value}\n")
    code, out, err = run_cli(
        capsys, "train", "--manifest", str(dataset / "train.manifest"),
        "--out", str(tmp_path / "r"), "--config", str(cfg),
    )
    assert code == 2
    assert out == ""
    assert f"{cfg}:2: {key} is retired" in err
    assert f"{key}=literal is contrastive=" in err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize(
    "flag, value",
    [("--score-mode", "literal"), ("--nce-form", "literal"), ("--contrastive", "nce_literal")],
)
def test_contrastive_form_flags_are_gone(dataset, tmp_path, capsys, flag, value):
    """The retired form flags, and the retired nce_literal choice, exit 2
    from argparse before --out is made."""
    with pytest.raises(SystemExit) as exit_info:
        cli.main(
            ["train", "--manifest", str(dataset / "train.manifest"),
             "--out", str(tmp_path / "r"), flag, value]
        )
    assert exit_info.value.code == 2
    assert flag in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


def test_synth_flags_are_synthetic_spec_fields():
    flags = _flags("synth")
    for key in ("help", "out", "split"):
        del flags[key]
    assert set(flags) == {f.name for f in dataclasses.fields(SyntheticSpec)}
    assert all(opts == ["--" + key.replace("_", "-")] for key, opts in flags.items())


def test_train_head_flags_are_head_config_fields():
    flags = _flags("train-head")
    for key in ("help", "manifest", "checkpoint", "out"):
        del flags[key]
    assert set(flags) == {f.name for f in dataclasses.fields(HeadConfig)}
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
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--split", "0.9,0.9"], "sum to <= 1"),
        (["--split", "a,b"], "--split expects numbers"),
        (["--pairs-per-class", "2", "--split", "0.3,0.3,0.3"], "fewer than 3 splits"),
    ],
    ids=["sum_above_1", "not_numbers", "class_too_small"],
)
def test_synth_bad_split_exit_2_and_creates_no_out(tmp_path, capsys, flags, message):
    """--split is checked, and the splits are drawn, before --out is made."""
    code, out, err = run_cli(
        capsys, "synth", "--classes", "3", "--out", str(tmp_path / "d"), *flags
    )
    assert code == 2
    assert out == ""
    assert message in err
    assert not (tmp_path / "d").exists()


def test_train_unpaired_manifest_exit_2(dataset, tmp_path, capsys):
    """A text file with 5 rows fewer than its image file does not pair: the
    error names the manifest and both counts, and nothing is trained."""
    text = dataset / "train_text.txt"
    header, *rows = text.read_text().splitlines()
    fields = header.split()
    n_image = int(fields[3])
    fields[3] = str(n_image - 5)
    text.write_text("\n".join([" ".join(fields), *rows[:-5]]) + "\n")
    manifest = dataset / "train.manifest"
    code, out, err = run_cli(
        capsys, "train", "--manifest", str(manifest), "--out", str(tmp_path / "r")
    )
    assert code == 2
    assert f"{manifest}: pair counts differ: {n_image} image rows vs {n_image - 5} text rows" in err
    assert out == ""
    assert not (tmp_path / "r").exists()


def test_train_missing_manifest_exit_3(tmp_path, capsys):
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
    assert re.fullmatch(r"direction=ITT map=\d\.\d{5} queries=\d+", lines[0])
    assert re.fullmatch(r"direction=TTI map=\d\.\d{5} queries=\d+", lines[1])
    assert re.match(r"map_avg=\d\.\d{5}", lines[2])
    itt = float(lines[0].split()[1].split("=")[1])
    tti = float(lines[1].split()[1].split("=")[1])
    avg = float(lines[2].split("=")[1])
    assert avg == pytest.approx((itt + tti) / 2, abs=1e-4)


def test_eval_retrieval_map_at_scores_every_query(tmp_path, capsys):
    """mAP@k averages over every query, a query with no relevant item in its
    top k scoring 0: on 40 test pairs after 2 epochs, no query is dropped
    at k = 1 or 5, and each direction equals the per-query loop."""
    ds, run = tmp_path / "ds", tmp_path / "run"
    assert run_cli(
        capsys, "synth", "--classes", "10", "--pairs-per-class", "40", "--sigma", "0.6",
        "--split", "0.8,0.1,0.1", "--out", str(ds),
    )[0] == 0
    assert run_cli(
        capsys, "train", "--manifest", str(ds / "train.manifest"),
        "--val-manifest", str(ds / "val.manifest"), "--out", str(run), "--epochs", "2",
    )[0] == 0
    model = checkpoint.load_checkpoint(run / "final.ckpt")
    paired = data.load_paired(ds / "test.manifest")
    o_image = evaluation.embed_dataset(model, paired.image)
    o_text = evaluation.embed_dataset(model, paired.text)
    for k in (1, 5):
        code, out, _ = run_cli(
            capsys, "eval-retrieval", "--manifest", str(ds / "test.manifest"),
            "--checkpoint", str(run / "final.ckpt"), "--map-at", str(k),
        )
        assert code == 0
        maps = []
        for line, (d, q, g) in zip(
            out.splitlines(), [("ITT", o_image, o_text), ("TTI", o_text, o_image)]
        ):
            _, _, want = retrieval_oracle.map_from_embeddings(
                q, g, paired.labels, paired.labels, zero_relevant="zero", map_at=k
            )
            assert line == f"direction={d} map={want:.5f} queries=40"
            maps.append(want)
        assert out.splitlines()[2] == f"map_avg={(maps[0] + maps[1]) / 2:.5f}"


def test_zero_relevant_flag_is_gone(run_dir, dataset, capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(
            ["eval-retrieval", "--manifest", str(dataset / "test.manifest"),
             "--checkpoint", str(run_dir / "final.ckpt"), "--zero-relevant", "zero"]
        )
    assert exit_info.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "--zero-relevant" in err


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
    epoch's record and a halt record naming its last step (180 pairs, batch
    128), with no best_epoch record and no final.ckpt."""
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
    heads = [line.split()[0] for line in lines]
    assert heads == ["epoch=1", "epoch=2", "epoch=3", "halt=validation"]
    assert lines[2].endswith("val_total=inf clamped=0")
    assert lines[3] == "halt=validation epoch=3 step=2"
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


def _train_head(capsys, manifest, model, out, *flags):
    code, stdout, err = run_cli(
        capsys, "train-head", "--manifest", str(manifest), "--checkpoint", str(model),
        "--out", str(out), *flags,
    )
    assert code == 0, err
    assert stdout == ""


def _accuracy_line(head_path, model_path, manifest) -> str:
    head = checkpoint.load_head(head_path)
    model = checkpoint.load_checkpoint(model_path)
    paired = data.load_paired(manifest)
    acc = evaluation.classification_accuracy(head, model, paired, paired.labels)
    return f"accuracy={acc:.5f} n={paired.n_pairs}"


def test_eval_classify_record(run_dir, dataset, tmp_path, capsys):
    head_path = tmp_path / "head.ckpt"
    # not the default seed, so an ignored --seed changes the bytes
    _train_head(
        capsys, dataset / "train.manifest", run_dir / "final.ckpt", head_path,
        "--epochs", "2", "--seed", "3",
    )
    head = training.train_classifier(
        checkpoint.load_checkpoint(run_dir / "final.ckpt"),
        data.load_paired(dataset / "train.manifest"),
        head_config=HeadConfig(epochs=2, seed=3),
    )
    want = tmp_path / "want.ckpt"
    checkpoint.save_checkpoint(head, want)
    assert head_path.read_bytes() == want.read_bytes()
    code, out, _ = run_cli(
        capsys, "eval-classify", "--manifest", str(dataset / "test.manifest"),
        "--checkpoint", str(run_dir / "final.ckpt"),
        "--head-checkpoint", str(head_path),
    )
    assert code == 0
    assert out == _accuracy_line(
        head_path, run_dir / "final.ckpt", dataset / "test.manifest"
    ) + "\n"


def test_pipeline_synth_train_head_eval(tmp_path, capsys):
    """The README's pipeline: synth -> train -> train-head -> eval-retrieval
    -> eval-classify. The head file is the library's, byte for byte, and
    each run with one seed writes the same bytes."""
    ds, run = tmp_path / "ds", tmp_path / "run"
    assert run_cli(
        capsys, "synth", "--classes", "3", "--pairs-per-class", "20",
        "--split", "0.8,0.1,0.1", "--out", str(ds),
    )[0] == 0
    assert run_cli(
        capsys, "train", "--manifest", str(ds / "train.manifest"),
        "--val-manifest", str(ds / "val.manifest"), "--out", str(run), "--epochs", "1",
    )[0] == 0
    model, train, test = run / "final.ckpt", ds / "train.manifest", ds / "test.manifest"
    heads = [tmp_path / "a" / "head.ckpt", tmp_path / "b" / "head.ckpt"]
    for head in heads:
        _train_head(capsys, train, model, head, "--epochs", "1", "--seed", "0")
    assert heads[0].read_bytes() == heads[1].read_bytes()

    want = tmp_path / "want.ckpt"
    checkpoint.save_checkpoint(
        training.train_classifier(
            checkpoint.load_checkpoint(model), data.load_paired(train),
            head_config=HeadConfig(epochs=1, seed=0),
        ),
        want,
    )
    assert heads[0].read_bytes() == want.read_bytes()

    code, retrieval, _ = run_cli(
        capsys, "eval-retrieval", "--manifest", str(test), "--checkpoint", str(model)
    )
    assert code == 0
    assert retrieval.splitlines()[-1] == "map_avg=0.56111"
    code, accuracy, _ = run_cli(
        capsys, "eval-classify", "--manifest", str(test), "--checkpoint", str(model),
        "--head-checkpoint", str(heads[0]),
    )
    assert code == 0
    assert accuracy.endswith(" n=6\n")
    assert accuracy == _accuracy_line(heads[0], model, test) + "\n"


@pytest.mark.parametrize(
    "flags, setting",
    [
        pytest.param(["--epochs", "0"], "epochs", id="epochs0"),
        pytest.param(["--seed", "-1"], "seed", id="seed-1"),
    ],
)
def test_train_head_rejects_invalid_setting_before_reading(
    run_dir, dataset, tmp_path, capsys, monkeypatch, flags, setting
):
    def fail(*args):
        raise AssertionError("read before the settings were checked")

    monkeypatch.setattr(cli.checkpoint, "load_checkpoint", fail)
    monkeypatch.setattr(cli.data, "load_paired", fail)
    code, out, err = run_cli(
        capsys, "train-head", "--manifest", str(dataset / "train.manifest"),
        "--checkpoint", str(run_dir / "final.ckpt"),
        "--out", str(tmp_path / "h" / "head.ckpt"), *flags,
    )
    assert code == 2
    assert out == ""
    assert setting in err
    assert not (tmp_path / "h").exists()


def test_train_head_feature_width_mismatch_exit_2(run_dir, tmp_path, capsys):
    wide = tmp_path / "wide"
    assert run_cli(
        capsys, "synth", "--classes", "3", "--d-image", "9", "--d-text", "6",
        "--pairs-per-class", "4", "--out", str(wide),
    )[0] == 0
    code, out, err = run_cli(
        capsys, "train-head", "--manifest", str(wide / "data.manifest"),
        "--checkpoint", str(run_dir / "final.ckpt"),
        "--out", str(tmp_path / "h" / "head.ckpt"), "--epochs", "1",
    )
    assert code == 2
    assert out == ""
    assert "error: image encode: input width 9 != 8" in err  # the ShapeError's
    assert not (tmp_path / "h").exists()


def test_train_head_missing_checkpoint_exit_3(dataset, tmp_path, capsys):
    code, out, err = run_cli(
        capsys, "train-head", "--manifest", str(dataset / "train.manifest"),
        "--checkpoint", str(tmp_path / "none.ckpt"),
        "--out", str(tmp_path / "h" / "head.ckpt"),
    )
    assert code == 3
    assert out == ""
    assert "I/O error: " in err
    assert not (tmp_path / "h").exists()


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


def test_gradcheck_negative_seed_exit_2(capsys):
    """A bad seed is a config error, not a failed check (exit 1)."""
    code, out, err = run_cli(capsys, "gradcheck", "--seed", "-1")
    assert code == 2
    assert out == ""
    assert "seed must be >= 0, got -1" in err
