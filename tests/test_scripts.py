"""The scripts under scripts/, each run as its own process, as the README
runs them."""

import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

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


FAKE_RUN = """\
import json, pathlib, sys
seconds = float(sys.argv[sys.argv.index("--seconds") + 1])
scale = 1.0
value = scale * float(pathlib.Path("src/cobra/value.py").read_text().split("=")[1])
metrics = {"retrieval_s": {"value": value}, "run_seconds": {"value": seconds}}
print(json.dumps({"correct": True, "attempted": 1, "failed": 0, "metrics": metrics}))
"""


def _fake_trees(tmp_path, names, run) -> dict:
    """A parent and a change checkout whose perfbench/run.py is `run`, which
    reads VALUE from src/cobra/value.py, and whose BENCHMARK.json lists
    lower-is-better metrics `names`."""
    spec = {"end_to_end": [
        {"name": n, "unit": "s", "better": "lower", "bound": 0.25} for n in names
    ]}
    trees = {}
    for side, value in (("parent", "1.0"), ("change", "0.5")):
        tree = trees[side] = tmp_path / side
        (tree / "perfbench").mkdir(parents=True)
        (tree / "src" / "cobra").mkdir(parents=True)
        (tree / "perfbench" / "run.py").write_text(run)
        (tree / "src" / "cobra" / "value.py").write_text(f"VALUE = {value}\n")
        (tree / "BENCHMARK.json").write_text(json.dumps(spec))
    return trees


def _bench_pairs(tmp_path, trees, seconds="1") -> dict:
    out = tmp_path / "bench.json"
    proc = run_script(
        "bench_pairs.py", "--parent", str(trees["parent"]), "--change", str(trees["change"]),
        "--workloads", "w", "--seeds", "1-2", "--seconds", seconds,
        "--runs-dir", str(tmp_path / "runs"), "--out", str(out),
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(out.read_text())["per_seed"]["w"]


def test_bench_pairs_runs_again_after_a_code_edit_or_new_seconds(tmp_path):
    """A kept run is reused only at the same --seconds and the same
    src/cobra and perfbench: after any of them changes, the series is not a
    mix of old and new runs."""
    trees = _fake_trees(tmp_path, ("retrieval_s", "run_seconds"), FAKE_RUN)
    first = _bench_pairs(tmp_path, trees)
    assert first["retrieval_s"]["change"] == [0.5, 0.5]
    (trees["change"] / "src" / "cobra" / "value.py").write_text("VALUE = 0.25\n")
    edited = _bench_pairs(tmp_path, trees)
    assert edited["retrieval_s"] == {"seeds": [1, 2], "parent": [1.0, 1.0], "change": [0.25, 0.25]}
    run_py = trees["change"] / "perfbench" / "run.py"
    run_py.write_text(FAKE_RUN.replace("scale = 1.0", "scale = 2.0"))
    rerun = _bench_pairs(tmp_path, trees)
    assert rerun["retrieval_s"] == {"seeds": [1, 2], "parent": [1.0, 1.0], "change": [0.5, 0.5]}
    longer = _bench_pairs(tmp_path, trees, seconds="2")
    assert longer["run_seconds"] == {"seeds": [1, 2], "parent": [2.0, 2.0], "change": [2.0, 2.0]}


def test_bench_pairs_reports_identical_quality_per_metric(tmp_path):
    """identical_quality holds one verdict per quality metric: here map_avg
    reads the same on every seed and accuracy moved."""
    run = FAKE_RUN.replace(
        'metrics = {"retrieval_s": {"value": value}, "run_seconds": {"value": seconds}}',
        'metrics = {"map_avg": {"value": 0.9}, "accuracy": {"value": value}}',
    )
    trees = _fake_trees(tmp_path, ("map_avg", "accuracy"), run)
    assert _bench_pairs(tmp_path, trees)["identical_quality"] == {
        "map_avg": True, "accuracy": False
    }


def _report(map_avg, aps, **extra):
    """A stand-in for a RetrievalReport: what `identical` reads of one, with
    `extra` fields in each fragment."""
    fields = {"ap_per_query": aps, "n_queries": len(aps), **extra}
    fragments = {d: SimpleNamespace(**fields) for d in ("ITT", "TTI")}
    return SimpleNamespace(map_avg=map_avg, fragments=fragments)


def test_retrieval_identity_compares_what_both_trees_report(monkeypatch):
    """An older tree's fragments carry n_excluded, a newer one's do not;
    `identical` compares the per-query APs, n_queries and map_avg of both."""
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    from retrieval_identity import identical

    old = _report(0.5, [0.25, 0.75], n_excluded=0)
    assert identical(old, _report(0.5, [0.25, 0.75]))
    assert not identical(old, _report(0.5, [0.25, 0.75], n_queries=3))
    assert not identical(old, _report(0.5, [0.75, 0.25]))
    assert not identical(old, _report(0.625, [0.25, 0.75]))
