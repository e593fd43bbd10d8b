#!/usr/bin/env python3
"""Alternating parent/change runs of the benchmark, summarised as a BENCH_*.json.

Runs ``perfbench/run.py --trace 0`` from two checkouts, a parent tree and a
change tree, one pair per seed and workload. The parent runs first on odd
seeds and the change first on even seeds; the workloads of a seed run one
after another. Each run's last JSON line is kept in ``--runs-dir`` with the
run's ``--seconds`` and a sha256 of the code behind its numbers: its tree's
``src/cobra/*.py``, ``perfbench/*.py`` and ``BENCHMARK.json``. A kept run is
read back instead of run again when both still match, so an interrupted
series resumes; after an edit of any of those files in either tree, or at
another ``--seconds``, that side's runs are made again.

The summary holds, per workload and end-to-end metric of the parent's
BENCHMARK.json: each side's median and quartiles, the pairs the change won
and lost (ties count for neither), the signed relative change of the medians
(positive is better), the parent's IQR, and whether the change stays within
the metric's bound. A metric whose parent IQR is wider than its bound is
unresolved, unless every change run beats every parent run. Per workload,
``identical_quality`` says for each of map_avg and accuracy whether every
seed read the same on both sides.
``--claim WORKLOAD:METRIC:RATIO`` adds the verdict on a claimed gain: the
change median at most RATIO times the parent's (at least, for a
higher-is-better metric), wins in at least 9 of 10 pairs, a median
difference larger than the parent's IQR, and, with ``--held-out-seed``, a
win on that seed too.

    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --workloads eval_heldout --seeds 1-10 --held-out-seed 11 \\
        --claim eval_heldout:retrieval_s:0.85 --runs-dir .bench_out/pairs \\
        --out BENCH_<n>.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
QUALITY = ("map_avg", "accuracy")
RUN_COMMAND = "python3 perfbench/run.py --workload <w> --seed <s> --seconds {seconds} --trace 0"


def parse_seeds(text: str) -> list[int]:
    """'1-10' or '1,3,5' or a mix, in the order given."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def code_sha256(tree: Path) -> str:
    """sha256 of the paths and bytes of `tree`'s src/cobra/*.py,
    perfbench/*.py and BENCHMARK.json, in path order."""
    digest = hashlib.sha256()
    paths = [*(tree / "src" / "cobra").glob("*.py"), *(tree / "perfbench").glob("*.py"),
             tree / "BENCHMARK.json"]
    for path in sorted(paths):
        body = path.read_bytes()
        digest.update(f"{path.relative_to(tree).as_posix()}\0{len(body)}\0".encode())
        digest.update(body)
    return digest.hexdigest()


def run_once(tree: Path, workload: str, seed: int, seconds: float, kept: Path) -> dict:
    """One benchmark run from `tree`: its JSON result plus the env records,
    exit code, seconds and code digest, read from `kept` when an earlier
    series wrote it at the same seconds from the same code."""
    stamp = {"seconds": seconds, "code_sha256": code_sha256(tree)}
    if kept.is_file():
        result = json.loads(kept.read_text(encoding="utf-8"))
        if all(result.get(k) == v for k, v in stamp.items()):
            return result
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    env = {}
    for line in lines:
        fields = dict(f.split("=", 1) for f in line.split() if "=" in f)
        if "env" in fields:
            env[fields["env"]] = fields["value"]
    result.update(returncode=proc.returncode, env=env, **stamp)
    kept.parent.mkdir(parents=True, exist_ok=True)
    kept.write_text(json.dumps(result), encoding="utf-8")
    return result


def _value(result: dict, metric: str) -> float:
    """A run's metric; NaN where a failed run reported none."""
    return result["metrics"].get(metric, {}).get("value", float("nan"))


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def better(spec: dict, change: float, parent: float) -> bool:
    return change < parent if spec["better"] == "lower" else change > parent


def compare(spec: dict, parent: list[float], change: list[float]) -> dict:
    """The pairwise comparison of one metric on one workload. A metric whose
    parent IQR is wider than its bound is unresolved (within_bound is None),
    unless every run of the change reads better than every run of the
    parent."""
    p, c = quartiles(parent), quartiles(change)
    sign = -1.0 if spec["better"] == "lower" else 1.0
    rel = sign * (c["median"] - p["median"]) / p["median"] if p["median"] else 0.0
    iqr = p["q3"] - p["q1"]
    worst_change = max(change) if spec["better"] == "lower" else min(change)
    best_parent = min(parent) if spec["better"] == "lower" else max(parent)
    resolved = iqr <= spec["bound"] * abs(p["median"]) or better(spec, worst_change, best_parent)
    return {
        "parent": p,
        "change": c,
        "change_wins": sum(better(spec, cv, pv) for pv, cv in zip(parent, change)),
        "change_losses": sum(better(spec, pv, cv) for pv, cv in zip(parent, change)),
        "pairs": len(parent),
        "median_change_rel": rel,
        "bound": spec["bound"],
        "parent_iqr": iqr,
        "resolved": resolved,
        "within_bound": rel >= -spec["bound"] if resolved else None,
    }


def claim_verdict(claim: str, specs: dict, end_to_end: dict, held_out: dict | None) -> dict:
    workload, metric, ratio = claim.split(":")
    ratio = float(ratio)
    spec, row = specs[metric], end_to_end[workload][metric]
    parent, change = row["parent"]["median"], row["change"]["median"]
    over = change / parent
    verdict = {
        "workload": workload,
        "metric": metric,
        "parent_median": parent,
        "change_median": change,
        "change_over_parent": over,
        "change_wins": f"{row['change_wins']}/{row['pairs']}",
        "median_difference": abs(change - parent),
        "parent_iqr": row["parent_iqr"],
    }
    met = (
        (over <= ratio if spec["better"] == "lower" else over >= ratio)
        and better(spec, change, parent)
        and 10 * row["change_wins"] >= 9 * row["pairs"]
        and abs(change - parent) > row["parent_iqr"]
    )
    target = (
        f"change median {'<=' if spec['better'] == 'lower' else '>='} {ratio} x the parent's, "
        ">= 9/10 wins, median difference > parent IQR"
    )
    if held_out is not None:
        sides = {side: held_out[workload][side][metric] for side in SIDES}
        verdict[f"held_out_seed{held_out['seed']}"] = sides
        met = met and better(spec, sides["change"], sides["parent"])
        target += f", and a win on seed {held_out['seed']}"
    verdict.update(target=target, met=met)
    return verdict


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    ap.add_argument("--change", type=Path, required=True, help="checkout of the change")
    ap.add_argument("--workloads", required=True, help="comma-separated workload names")
    ap.add_argument("--seeds", required=True, help="e.g. 1-10, one pair per seed and workload")
    ap.add_argument("--seconds", type=float, default=30.0, help="--seconds of every run")
    ap.add_argument("--held-out-seed", type=int, help="one more pair per workload, parent first")
    ap.add_argument("--claim", help="WORKLOAD:METRIC:RATIO of a claimed gain")
    ap.add_argument("--what", default="", help="what the change does, for the summary")
    ap.add_argument("--runs-dir", type=Path, required=True, help="where each run's result is kept")
    ap.add_argument("--out", type=Path, required=True, help="the summary JSON to write")
    args = ap.parse_args(argv)

    spec = json.loads((args.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    specs = {m["name"]: m for m in spec["end_to_end"]}
    workloads = args.workloads.split(",")
    seeds = parse_seeds(args.seeds)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    def pair(workload: str, seed: int, parent_first: bool) -> dict:
        order = SIDES if parent_first else SIDES[::-1]
        out = {}
        for side in order:
            kept = args.runs_dir / f"{workload}-seed{seed}-{side}.json"
            out[side] = run_once(trees[side], workload, seed, args.seconds, kept)
            print(f"workload={workload} seed={seed} side={side} correct={out[side]['correct']}", flush=True)
        return out

    runs = {w: {} for w in workloads}
    for seed in seeds:
        for w in workloads:
            runs[w][seed] = pair(w, seed, parent_first=seed % 2 == 1)
    every = [r for w in workloads for p in runs[w].values() for r in p.values()]
    held_out = None
    if args.held_out_seed is not None:
        held_out = {"seed": args.held_out_seed}
        for w in workloads:
            got = pair(w, args.held_out_seed, parent_first=True)
            every += got.values()
            held_out[w] = {side: {m: _value(got[side], m) for m in specs} for side in SIDES}
            held_out[w]["failed"] = [got[side]["failed"] for side in SIDES]

    end_to_end, per_seed = {}, {}
    for w in workloads:
        values = {side: {m: [_value(runs[w][s][side], m) for s in seeds] for m in specs} for side in SIDES}
        end_to_end[w] = {m: compare(specs[m], values["parent"][m], values["change"][m]) for m in specs}
        per_seed[w] = {m: {"seeds": seeds, **{side: values[side][m] for side in SIDES}} for m in specs}
        per_seed[w]["failed"] = {side: [runs[w][s][side]["failed"] for s in seeds] for side in SIDES}
        per_seed[w]["identical_quality"] = {
            m: values["parent"][m] == values["change"][m] for m in QUALITY if m in specs
        }
    passed = all(r["correct"] and r["returncode"] == 0 for r in every)
    summary = {
        "what": args.what,
        "command": RUN_COMMAND.format(seconds=args.seconds),
        "method": (
            "Each side ran from its own checkout with its own perfbench/ and BENCHMARK.json. "
            f"One pair per seed and workload, seeds {args.seeds}, the parent first on odd seeds and the "
            f"change first on even seeds, workloads in the order {args.workloads} per seed"
            + (f"; seed {args.held_out_seed} ran one more pair per workload, parent first" if held_out else "")
            + ". Quartiles are statistics.quantiles(n=4, method='inclusive'). median_change_rel is signed "
            "so that positive means better; change_wins/change_losses count pairs, ties for neither."
        ),
        "machine": every[0]["env"] if every else {},
    }
    if args.claim:
        summary["claim"] = claim_verdict(args.claim, specs, end_to_end, held_out)
    summary.update(end_to_end=end_to_end, per_seed=per_seed)
    if held_out is not None:
        summary[f"held_out_seed{args.held_out_seed}"] = {w: held_out[w] for w in workloads}
    summary.update(runs=len(every), every_run_passed=passed)
    args.out.write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {args.out}: {len(every)} runs, every_run_passed={passed}")
    return 0 if passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
