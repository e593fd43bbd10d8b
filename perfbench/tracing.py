"""Span tracing of the cobra library from outside it, and the per-layer metrics.

``Tracer.active(run)`` replaces every public function of the traced modules
with a timing wrapper at every name a cobra module looks it up by (training
imports ``sgd_step`` and ``save_checkpoint`` by name, evaluation imports
``write_feature_file``), and puts the originals back on exit. Each call
records a span ``[name, start, end, parent span, run id]``; hooks count the
work a call did (flops, contrastive sets, bytes) from its arguments and
result. Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import os
import statistics
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("nn", "losses", "model", "training", "evaluation", "data", "checkpoint")
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


class RunRecord:
    """Counts and samples of one traced run (one set-up plus one round)."""

    def __init__(self):
        self.counts: Counter = Counter()
        self.samples: dict[str, list[float]] = defaultdict(list)


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _affine_forward(rec, args, kwargs, result):
    x, w = _arg(args, kwargs, 0, "x"), _arg(args, kwargs, 1, "w")
    rec.counts["nn.affine_flop"] += 2 * x.shape[0] * w.shape[0] * w.shape[1]


def _affine_backward(rec, args, kwargs, result):
    # grad_x and grad_w are one matmul each; the bias sum is not counted
    x, w = _arg(args, kwargs, 0, "x"), _arg(args, kwargs, 1, "w")
    rec.counts["nn.affine_flop"] += 4 * x.shape[0] * w.shape[0] * w.shape[1]


def _sgd_step(rec, args, kwargs, result):
    # each param value is read and written, and its grad read, once
    params = _arg(args, kwargs, 0, "params")
    rec.counts["nn.sgd_bytes"] += sum(3 * p.value.nbytes for p in params)


def _sample_contrastive_sets(rec, args, kwargs, result):
    sets, skipped = result
    rec.counts["losses.sets_drawn"] += len(sets)
    rec.counts["losses.skipped_anchors"] += skipped
    rec.counts["losses.anchors_tried"] += len(sets) + skipped  # every row is an anchor


def _bytes(key, i, name):
    def hook(rec, args, kwargs, result):
        rec.counts[key] += os.path.getsize(_arg(args, kwargs, i, name))

    return hook


def _train(rec, args, kwargs, result):
    rec.samples["training.epoch_s"].extend(r.seconds for r in result.reports)
    rec.samples["training.final_loss"].append(result.reports[-1].total)


HOOKS = {
    "nn.affine_forward": _affine_forward,
    "nn.affine_backward": _affine_backward,
    "nn.sgd_step": _sgd_step,
    "losses.sample_contrastive_sets": _sample_contrastive_sets,
    "data.load_feature_file": _bytes("data.bytes_read", 0, "path"),
    "data.write_feature_file": _bytes("data.bytes_written", 1, "path"),
    "checkpoint.save_checkpoint": _bytes("checkpoint.bytes_written", 1, "path"),
    "training.train": _train,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.records: dict[int, RunRecord] = {}
        self._stack: list[int] = []
        self._run = 0

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        span = [name, time.perf_counter(), 0.0, parent, self._run]
        self.spans.append(span)
        return span

    def _close(self, span: list):
        span[2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        s = self._open(name)
        try:
            yield
        finally:
            self._close(s)

    def _wrap(self, name: str, fn):
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            s = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(s)
            if hook is not None:
                hook(self.records[s[4]], args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def active(self, run: int):
        """Traces every call into the library as part of run `run`."""
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"cobra.{layer}")
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        replaced = []
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "cobra" and not mod_name.startswith("cobra."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    replaced.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
        self._run = run
        self.records[run] = RunRecord()
        try:
            yield
        finally:
            for mod, attr, obj in replaced:
                setattr(mod, attr, obj)

    def dump(self, path, meta: dict):
        counts = {run: dict(rec.counts) for run, rec in self.records.items()}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"meta": meta, "counts": counts, "spans": self.spans}, fh)


class _Stats:
    """Per-name durations and self times of a span list. Spans come from one
    thread, so a span's children are disjoint and their durations add up to
    the part of its interval they cover."""

    def __init__(self, spans: list[list]):
        self.spans = spans
        cover = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                cover[parent] += end - start
        self.dur: dict[str, list[float]] = defaultdict(list)
        self.self_: dict[str, list[float]] = defaultdict(list)
        for i, (name, start, end, _, _) in enumerate(spans):
            self.dur[name].append(end - start)
            self.self_[name].append(end - start - cover[i])

    def mean_ms(self, name: str) -> float:
        d = self.dur.get(name)
        return 1e3 * sum(d) / len(d) if d else 0.0

    def mean_s(self, name: str) -> float:
        return self.mean_ms(name) / 1e3

    def self_mean_ms(self, name: str) -> float:
        d = self.self_.get(name)
        return 1e3 * sum(d) / len(d) if d else 0.0

    def total_s(self, name: str) -> float:
        return sum(self.dur.get(name, ()))

    def calls(self, name: str, run: int) -> int:
        return sum(1 for s in self.spans if s[0] == name and s[4] == run)

    def time_under(self, names: tuple[str, ...], ancestor: str) -> float:
        """Seconds in spans named `names` that run inside an `ancestor` span."""
        total = 0.0
        for name, start, end, parent, _ in self.spans:
            if name not in names:
                continue
            while parent >= 0 and self.spans[parent][0] != ancestor:
                parent = self.spans[parent][3]
            if parent >= 0:
                total += end - start
        return total


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def tail(samples_ms: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest of TAIL_PERCENTILES with at least ten
    samples beyond it, or the median when there are fewer than 20 samples."""
    n = len(samples_ms)
    if n == 0:
        return 50.0, 0.0
    pct = next((q for q in TAIL_PERCENTILES if n * (1 - q / 100) >= 10), 50.0)
    ranked = sorted(samples_ms)
    return pct, ranked[min(n - 1, int(pct / 100 * n))]


def layer_metrics(tracer: Tracer, overhead_ratio: float) -> dict[str, float]:
    """Per-layer metrics: `_ms`/`_s` are means per call over every traced run;
    counts and bytes are those of the first traced run and repeat exactly."""
    st = _Stats(tracer.spans)
    first = tracer.records[0].counts
    flop_all = sum(rec.counts["nn.affine_flop"] for rec in tracer.records.values())
    epoch_s = [s for rec in tracer.records.values() for s in rec.samples["training.epoch_s"]]
    step_ms = [1e3 * d for d in st.dur.get("training.train_step", ())]
    tail_pct, tail_ms = tail(step_ms)
    rank_ap_s = (
        st.total_s("evaluation.rank_gallery")
        + st.total_s("evaluation.average_precision")
        + sum(st.self_.get("evaluation.mean_average_precision", ()))
    )
    return {
        "losses.sample_contrastive_sets_ms": st.mean_ms("losses.sample_contrastive_sets"),
        "losses.nce_loss_ms": st.mean_ms("losses.nce_loss"),
        "losses.total_loss_self_ms": st.self_mean_ms("losses.total_loss"),
        "losses.sets_drawn": first["losses.sets_drawn"],
        "losses.skipped_anchors": first["losses.skipped_anchors"],
        "losses.set_yield": _ratio(first["losses.sets_drawn"], first["losses.anchors_tried"]),
        "losses.contrastive_step_share": _ratio(
            st.time_under(("losses.sample_contrastive_sets", "losses.nce_loss"), "training.train_step"),
            st.total_s("training.train_step"),
        ),
        "nn.affine_forward_ms": st.mean_ms("nn.affine_forward"),
        "nn.affine_backward_ms": st.mean_ms("nn.affine_backward"),
        "nn.relu_backward_ms": st.mean_ms("nn.relu_backward"),
        "nn.sgd_step_ms": st.mean_ms("nn.sgd_step"),
        "nn.affine_calls": st.calls("nn.affine_forward", 0) + st.calls("nn.affine_backward", 0),
        "nn.affine_gflop": first["nn.affine_flop"] / 1e9,
        "nn.affine_gflop_per_s": _ratio(
            flop_all / 1e9, st.total_s("nn.affine_forward") + st.total_s("nn.affine_backward")
        ),
        "nn.sgd_bytes": first["nn.sgd_bytes"],
        "model.forward_full_self_ms": st.self_mean_ms("model.forward_full"),
        "model.backward_full_self_ms": st.self_mean_ms("model.backward_full"),
        "model.encode_ms": st.mean_ms("model.encode"),
        "model.project_ms": st.mean_ms("model.project"),
        "model.classify_cached_ms": st.mean_ms("model.classify_cached"),
        "training.train_step_ms_p50": statistics.median(step_ms) if step_ms else 0.0,
        "training.train_step_ms_tail": tail_ms,
        "training.train_step_tail_pct": tail_pct,
        "training.train_step_samples": len(step_ms),
        "training.sample_minibatch_ms": st.mean_ms("training.sample_minibatch"),
        "training.validation_loss_ms": st.mean_ms("training.validation_loss"),
        "training.epoch_s": statistics.median(epoch_s) if epoch_s else 0.0,
        "training.train_classifier_s": st.mean_s("training.train_classifier"),
        "training.steps": st.calls("training.train_step", 0),
        "training.final_loss": tracer.records[0].samples["training.final_loss"][0],
        "evaluation.embed_dataset_ms": st.mean_ms("evaluation.embed_dataset"),
        "evaluation.similarity_matrix_ms": st.mean_ms("evaluation.similarity_matrix"),
        "evaluation.rank_gallery_ms": st.mean_ms("evaluation.rank_gallery"),
        "evaluation.rank_gallery_calls": st.calls("evaluation.rank_gallery", 0),
        "evaluation.average_precision_ms": st.mean_ms("evaluation.average_precision"),
        "evaluation.map_self_ms": st.self_mean_ms("evaluation.mean_average_precision"),
        "evaluation.rank_ap_share": _ratio(rank_ap_s, st.total_s("evaluation.retrieval_report")),
        "evaluation.classification_accuracy_ms": st.mean_ms("evaluation.classification_accuracy"),
        "evaluation.export_embeddings_s": st.mean_s("evaluation.export_embeddings"),
        "data.load_paired_s": st.mean_s("data.load_paired"),
        "data.write_feature_file_s": st.mean_s("data.write_feature_file"),
        "data.bytes_read": first["data.bytes_read"],
        "data.bytes_written": first["data.bytes_written"],
        "checkpoint.save_checkpoint_s": st.mean_s("checkpoint.save_checkpoint"),
        "checkpoint.save_calls": st.calls("checkpoint.save_checkpoint", 0),
        "checkpoint.load_checkpoint_s": st.mean_s("checkpoint.load_checkpoint"),
        "checkpoint.bytes_written": first["checkpoint.bytes_written"],
        "trace.overhead_ratio": overhead_ratio,
    }
