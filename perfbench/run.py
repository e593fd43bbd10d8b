#!/usr/bin/env python3
"""COBRA benchmark: training throughput, held-out evaluation time and quality.

Run from the repository root:

    python3 perfbench/run.py --workload train_contrastive --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

It imports the library from ``src/`` beside this directory, generates every
input from ``--seed``, runs a gradient-check preflight, sets up the workload
several times, then repeats timed rounds for about ``--seconds`` seconds and
checks every output. With ``--trace 0`` it reports the end-to-end metrics;
with ``--trace 1`` it alternates untraced rounds with traced set-ups and
rounds and reports the per-layer metrics. BENCHMARK.json at the repository
root names the metrics and their units. Results are ``key=value`` records
followed by one JSON line; the exit code is 0 only when every check passed.
Scratch files and traces go under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from statistics import median

sys.dont_write_bytecode = True

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("train_contrastive", "train_ablation", "eval_heldout")
BLAS_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)
BLAS_CONFIG_SYMBOLS = ("scipy_openblas_get_config64_", "openblas_get_config64_", "openblas_get_config")
# Printed as records but not in the result: final_loss is exact per seed, but
# between seeds it spreads more (IQR/median up to 0.2) than any bound allows.
RECORD_ONLY_UNITS = {"final_loss": "loss", "failed_ratio": "ratio"}


def _record(workload: str, **fields) -> str:
    return " ".join([f"workload={workload}"] + [f"{k}={_token(v)}" for k, v in fields.items()])


def _token(value) -> str:
    return "_".join(str(value).split()) or "none"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _blas_runtime():
    """(threads, config) of the OpenBLAS this process loaded, read through
    its own API; (None, None) when no OpenBLAS is mapped."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None, None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        get_threads = next((getattr(lib, s) for s in BLAS_THREAD_SYMBOLS if hasattr(lib, s)), None)
        if get_threads is None:
            continue
        get_threads.restype = ctypes.c_int
        config = next((getattr(lib, s) for s in BLAS_CONFIG_SYMBOLS if hasattr(lib, s)), None)
        if config is not None:
            config.restype = ctypes.c_char_p
            config = config().decode()
        return get_threads(), config
    return None, None


def environment(nproc: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads, config = _blas_runtime()
    if threads is None:
        threads = int(os.environ["OPENBLAS_NUM_THREADS"])
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": config,
        "blas_threads": threads,
        "nproc": nproc,
        "cpu": _cpu_model(),
    }


def end_to_end(p: dict, setups: list, rounds: list, first: tuple) -> dict[str, float]:
    """The end-to-end metrics from the set-ups and rounds of one run."""
    runs = [r.train for r in rounds if r.train] if p["kind"] == "train" else [s.train for s in setups]
    return {
        "setup_s": median(s.seconds for s in setups),
        "train_pairs_per_s": median(r.pairs / r.seconds for r in runs),
        "final_loss": runs[0].final_loss,
        "map_avg": first[1],
        "accuracy": first[2],
        "eval_s": median(r.eval_s for r in rounds),
        "retrieval_s": median(t for r in rounds for t in r.retrieval_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _fresh(base: Path, name: str) -> Path:
    """An empty scratch directory for the next timed phase. Collecting the
    last phase's garbage here keeps that work out of the next timing."""
    d = base / name
    shutil.rmtree(d, ignore_errors=True)
    d.mkdir()
    gc.collect()
    return d


def _keep_going(t_start: float, seconds: float, round_s: list[float]) -> bool:
    """Start another round only if a typical one still ends within the run."""
    return time.perf_counter() - t_start + median(round_s) <= seconds


def measure(p: dict, seed: int, seconds: float, tmp: Path, ledger) -> dict[str, float]:
    import workloads

    setups = []
    for i in range(p["setups"]):
        # each set-up replaces the last one's files; rounds use the last
        s = workloads.setup(p, seed, _fresh(tmp, "setup"), ledger)
        if i == 0:
            workloads.check_setup(s, ledger)
        elif s.train is not None:
            ledger.check(
                s.train.final_loss == setups[0].train.final_loss,
                "set-up training differs from the first set-up of this seed",
            )
        s.release()
        setups.append(s)

    rounds, first, t_start = [], None, time.perf_counter()
    while not rounds or _keep_going(t_start, seconds, [r.seconds for r in rounds]):
        if rounds:
            rounds[-1].release()
        rnd = workloads.run_round(p, seed, s, _fresh(tmp, "round"), ledger)
        first = workloads.check_round(p, seed, rnd, first, ledger)
        rounds.append(rnd)
    # A train_* round lasts several eval phases; fill the time that is left
    # with eval phases on the last model, for more eval_s/retrieval_s samples.
    model = rounds[-1].model
    while p["kind"] == "train" and _keep_going(t_start, seconds, [r.eval_s for r in rounds]):
        rnd = workloads.run_round(p, seed, s, _fresh(tmp, "round"), ledger, model=model)
        first = workloads.check_round(p, seed, rnd, first, ledger)
        rnd.release()
        rounds.append(rnd)
    rounds[-1].release()
    return end_to_end(p, setups, rounds, first)


def measure_traced(p: dict, seed: int, seconds: float, tmp: Path, ledger, trace_path: Path):
    import tracing
    import workloads

    s0 = workloads.setup(p, seed, _fresh(tmp, "setup"), ledger)
    workloads.check_setup(s0, ledger)
    tracer = tracing.Tracer()
    untraced, traced, pairs, first = [], [], [], None
    t_start = time.perf_counter()
    while not pairs or _keep_going(t_start, seconds, pairs):
        t0 = time.perf_counter()
        rnd = workloads.run_round(p, seed, s0, _fresh(tmp, "round"), ledger)
        first = workloads.check_round(p, seed, rnd, first, ledger)
        untraced.append(rnd.seconds)
        with tracer.active(len(traced)):
            with tracer.span("bench.setup"):
                s = workloads.setup(p, seed, _fresh(tmp, "traced_setup"), ledger)
            with tracer.span("bench.round"):
                rnd = workloads.run_round(p, seed, s, _fresh(tmp, "traced_round"), ledger)
        workloads.check_setup(s, ledger)
        first = workloads.check_round(p, seed, rnd, first, ledger)
        traced.append(rnd.seconds)
        del rnd, s
        pairs.append(time.perf_counter() - t0)
    tracer.dump(trace_path, {"workload": p, "seed": seed})
    return tracing.layer_metrics(tracer, median(traced) / median(untraced))


def _metric_specs() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def run_workload(args, nproc: int) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from cobra import gradcheck

    name = args.workload
    p = workloads.WORKLOADS[name]
    env = environment(nproc)
    for key, value in env.items():
        print(_record(name, env=key, value=value))
    if env["blas_threads"] > nproc:
        print(f"refusing to run: {env['blas_threads']} BLAS threads > nproc {nproc}", file=sys.stderr)
        return 2
    params = dict(workloads.DATA, **p, seed=args.seed, seconds=args.seconds, trace=args.trace)
    for key, value in params.items():
        print(_record(name, param=key, value=value))

    units = _metric_specs()[args.trace]
    ledger = workloads.Ledger()
    metrics = {}
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    try:
        for check in gradcheck.run_gradcheck():
            ledger.check(check.passed, f"gradcheck {check.name}: max rel err {check.max_rel_err:.3g}")
        with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
            if args.trace:
                trace_path = out_dir / f"trace-{name}-seed{args.seed}.json"
                metrics = measure_traced(p, args.seed, args.seconds, Path(tmp), ledger, trace_path)
            else:
                metrics = measure(p, args.seed, args.seconds, Path(tmp), ledger)
    except Exception:  # report any failure of the library as a failed run
        traceback.print_exc()
        ledger.failures.append("run raised")
    if ledger.failures:
        for failure in ledger.failures:
            print(f"check failed: {failure}", file=sys.stderr)
    if metrics and set(metrics) - set(RECORD_ONLY_UNITS) != set(units):
        raise RuntimeError(f"metrics {sorted(metrics)} disagree with BENCHMARK.json")
    attempted = max(ledger.ops, 1)
    failed = len(ledger.failures)
    metrics["failed_ratio"] = failed / attempted
    all_units = {**units, **RECORD_ONLY_UNITS}
    for metric, value in metrics.items():
        print(_record(name, metric=metric, value=repr(float(value)), unit=all_units[metric]))
    print(json.dumps({
        "correct": not ledger.failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": float(metrics[m]), "unit": units[m]} for m in units if m in metrics},
    }))
    return 1 if ledger.failures else 0


def run_all(args) -> int:
    """Every workload in turn, each in its own process so that peak memory
    and library state are its own; the last line merges their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        merged["correct"] &= result["correct"] and proc.returncode == 0
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{m}": v for m, v in result["metrics"].items()})
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "cobra" / "__init__.py").is_file():
        print(f"no cobra sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    if not (ROOT / "BENCHMARK.json").is_file():
        print(f"no BENCHMARK.json in {ROOT}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    nproc = len(os.sched_getaffinity(0))
    # BLAS reads these once, when numpy is first imported
    os.environ.setdefault("OPENBLAS_NUM_THREADS", str(nproc))
    os.environ.setdefault("OMP_NUM_THREADS", str(nproc))
    return run_workload(args, nproc)


if __name__ == "__main__":
    raise SystemExit(main())
