#!/usr/bin/env python3
"""Per-query retrieval of two checkouts' `evaluation` modules, compared bit for bit.

For each workload and seed, the parent checkout's `perfbench/workloads.py`
sets the workload up as the benchmark does, and its `cobra` package makes
the model: the checkpoint the set-up trains (`eval` workloads) or the model
one training round makes (`train` workloads). The parent's and the change's
`evaluation.retrieval_report` then score that model on the test split, and
every per-query AP, `n_queries` and `map_avg` are compared with `==`. Each
model is scored twice: in its own dtype (float32, ranked by the integer key
sort) and cast to float64 as a checkpoint of float64 values (a v1 file)
loads, which `rank_gallery`'s argsort path ranks.

    python3 scripts/retrieval_identity.py --parent ../parent --change . \\
        --workloads eval_heldout,train_ablation,train_contrastive --seeds 1-11 \\
        --into BENCH_<n>.json

prints one line per workload, seed and dtype and, with `--into`, writes
the result into that JSON file as `per_query_ap_identity`. It exits 1 if
any differ.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from bench_pairs import parse_seeds

DIRECTIONS = ("ITT", "TTI")


def load_package(name: str, tree: Path):
    """`tree`'s `cobra` package imported as `name`, beside any other copy."""
    src = tree / "src" / "cobra"
    spec = importlib.util.spec_from_file_location(
        name, src / "__init__.py", submodule_search_locations=[str(src)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def identical(a, b) -> bool:
    return a.map_avg == b.map_avg and all(
        a.fragments[d].ap_per_query == b.fragments[d].ap_per_query
        and a.fragments[d].n_queries == b.fragments[d].n_queries
        for d in DIRECTIONS
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    ap.add_argument("--change", type=Path, required=True, help="checkout of the change")
    ap.add_argument("--workloads", required=True, help="comma-separated workload names")
    ap.add_argument("--seeds", required=True, help="e.g. 1-11")
    ap.add_argument("--into", type=Path, help="a BENCH_*.json to write the result into")
    args = ap.parse_args(argv)

    parent_tree, change_tree = args.parent.resolve(), args.change.resolve()
    sys.path[:0] = [str(parent_tree / "src"), str(parent_tree / "perfbench")]
    workloads = importlib.import_module("workloads")
    checkpoint = importlib.import_module("cobra.checkpoint")
    parent_eval = importlib.import_module("cobra.evaluation")
    load_package("cobra_change", change_tree)
    change_eval = importlib.import_module("cobra_change.evaluation")

    result = {}
    for w in args.workloads.split(","):
        p = workloads.WORKLOADS[w]
        for seed in parse_seeds(args.seeds):
            with tempfile.TemporaryDirectory() as tmp:
                ledger = workloads.Ledger()
                s = workloads.setup(p, seed, Path(tmp), ledger)
                if p["kind"] == "eval":
                    model = checkpoint.load_checkpoint(s.train.result.best_path)
                else:
                    run = workloads._train(p, seed, s.loaded["train"], s.loaded["val"], Path(tmp) / "run", ledger)
                    model = run.result.model
                test = s.loaded["test"]
                wide = Path(tmp) / "float64.ckpt"
                checkpoint.write_tensors(wide, {p.name: p.value.astype(np.float64) for p in model.params()})
                for m in (model, checkpoint.load_checkpoint(wide)):
                    a, b = parent_eval.retrieval_report(m, test), change_eval.retrieval_report(m, test)
                    queries = sum(len(a.fragments[d].ap_per_query) for d in DIRECTIONS)
                    same = identical(a, b)
                    print(f"workload={w} seed={seed} dtype={m.dtype} queries={queries} identical={same}", flush=True)
                    per_dtype = result.setdefault(w, {}).setdefault(str(m.dtype), {})
                    per_dtype[str(seed)] = {"queries": queries, "identical": same}
    every = all(r["identical"] for w in result.values() for d in w.values() for r in d.values())
    if args.into is not None:
        summary = json.loads(args.into.read_text(encoding="utf-8"))
        summary["per_query_ap_identity"] = {
            "command": "python3 scripts/retrieval_identity.py --parent <parent> --change <change> "
            f"--workloads {args.workloads} --seeds {args.seeds}",
            "what": (
                "retrieval_report of each workload's test split, scored by the parent's and the change's "
                "evaluation module on the same model (eval workloads: the checkpoint the set-up trains; "
                "train workloads: the model a round trains), per seed, in the model's dtype and cast to "
                "float64 as a checkpoint of float64 values loads: every per-query AP, n_queries and "
                "map_avg compared with =="
            ),
            "every_seed_identical": every,
            "identical": result,
        }
        args.into.write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    return 0 if every else 1


if __name__ == "__main__":
    raise SystemExit(main())
