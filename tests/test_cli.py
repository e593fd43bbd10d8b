"""End-to-end command-line tests; each invocation goes through cli.main()."""

import re

import pytest

from cobra import cli


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
    code, _, err = run_cli(
        capsys, "synth", "--classes", "1", "--out", str(tmp_path / "d")
    )
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
    checkpoint.save_head(head, head_path)
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


def test_gradcheck_corrupt_exit_1(capsys):
    code, out, _ = run_cli(capsys, "gradcheck", "--corrupt", "image.enc0.w")
    assert code == 1
    assert "status=FAIL" in out
