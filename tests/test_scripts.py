"""The scripts under scripts/, each run as its own process, as the README
runs them."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from cobra import cli

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )


def run_cli(capsys, *argv) -> list[str]:
    assert cli.main(list(argv)) == 0
    return capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_script_help_exits_0(script):
    proc = run_script(script.name, "--help")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage:")


def test_ablate_contrastive_one_seed():
    proc = run_script("ablate_contrastive.py", "--seeds", "1", "--epochs", "1")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("seed=0 map_with_c=")
    assert lines[1] == "wins=1/1"


def test_synthetic_experiment_matches_cli_evaluation(tmp_path, capsys):
    """The README's workflow: the script's retrieval and accuracy lines are
    what `cobra eval-retrieval` and `cobra eval-classify` print for the
    checkpoints it writes, on the test split `cobra synth` draws from the
    same spec."""
    out = tmp_path / "exp"
    proc = run_script(
        "run_synthetic_experiment.py", "--classes", "3", "--pairs-per-class", "20",
        "--epochs", "1", "--head-epochs", "1", "--out", str(out),
    )
    assert proc.returncode == 0, proc.stderr
    ds = tmp_path / "ds"
    run_cli(
        capsys, "synth", "--classes", "3", "--pairs-per-class", "20",
        "--split", "0.8,0.1,0.1", "--out", str(ds),
    )
    test = str(ds / "test.manifest")
    want = run_cli(
        capsys, "eval-retrieval", "--manifest", test, "--checkpoint", str(out / "final.ckpt")
    ) + run_cli(
        capsys, "eval-classify", "--manifest", test, "--checkpoint", str(out / "final.ckpt"),
        "--head-checkpoint", str(out / "head.ckpt"),
    )
    assert proc.stdout.splitlines()[-4:] == want
    assert want[-1].endswith(" n=6")
