"""The benchmark workloads: their set-up, one timed round, and output checks.

Every workload is closed-loop and single-process: a round starts only after
the previous round and its checks have finished. All inputs come from the
workload seed, so one seed always gives the same data, model and outputs.

Set-up does what a user does before the measured work: ``cobra synth``
(generate, split, write feature files) followed by the read that ``cobra
train`` starts with, and on eval_heldout also ``cobra train`` itself, which
writes the checkpoint the rounds load.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from cobra import checkpoint, data, evaluation, training
from cobra.losses import LossWeights

# sigma=0.6: at the generator default (0.1) held-out mAP is 1.0 after two
# epochs and guards nothing; at 2.0 the default eta halts with NumericError.
DATA = dict(classes=10, d_image=64, d_text=32, sigma=0.6)
SPLITS = ("train", "val", "test")

# A 200-pair test split makes retrieval_report a ~40 ms call, so train_*
# rounds time it several times. Nine set-ups give setup_s a steady median.
_TRAIN = dict(
    kind="train", pairs_per_class=200, splits=(0.8, 0.1, 0.1), head_epochs=30,
    setups=9, retrieval_calls=5, map_floor=0.5, accuracy_floor=0.8,
)
WORKLOADS = {
    # nce at batch 512: contrastive sampling and nce_loss dominate train_step.
    "train_contrastive": dict(_TRAIN, epochs=2, batch=512, lambda_c=0.1),
    # the "without" arm of scripts/ablate_contrastive.py: no contrastive code
    # runs, so dense affine forward/backward and sgd_step dominate. Below 8
    # epochs its held-out mAP swings between seeds (IQR/median 0.08 at 6).
    "train_ablation": dict(_TRAIN, epochs=8, batch=128, lambda_c=0.0),
    # no train_step in the timed phase: loads, per-query ranking, classifier
    # and export, on a model that runs in float64 as every loaded one does.
    "eval_heldout": dict(
        kind="eval", pairs_per_class=500, splits=(0.2, 0.04, 0.7), epochs=2,
        batch=128, lambda_c=0.1, head_epochs=30, setups=5, retrieval_calls=1,
        map_floor=0.5, accuracy_floor=0.8,
    ),
}

ORACLE_QUERIES = 25  # sampled per retrieval direction
AP_TOLERANCE = 1e-12


@dataclass
class Ledger:
    """Operations attempted (train steps and library calls) and failed checks."""

    ops: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str):
        if not ok:
            self.failures.append(what)


@dataclass
class TrainRun:
    seconds: float  # the whole training.train call
    pairs: int  # pairs through train_step
    result: training.TrainResult

    @property
    def final_loss(self) -> float:
        return self.result.reports[-1].total


@dataclass
class Setup:
    seconds: float
    generated: dict[str, data.PairedDataset]
    loaded: dict[str, data.PairedDataset]
    manifests: dict[str, Path]
    train: TrainRun | None  # eval_heldout only

    def release(self):
        """Drops the trained weights once checked; rounds load the checkpoint."""
        if self.train is not None:
            self.train.result.model = None


@dataclass
class Round:
    seconds: float
    eval_s: float
    retrieval_s: list[float]  # the phase's call first, then the repeats
    train: TrainRun | None  # train_* rounds that trained
    model: object
    test: data.PairedDataset
    report: evaluation.RetrievalReport
    accuracy: float
    exported: tuple | None  # eval_heldout only

    def release(self):
        """Drops the weights once checked, keeping timings and outcome."""
        self.model = None
        if self.train is not None:
            self.train.result.model = None


def _train(p: dict, seed: int, train_set, val_set, out_dir: Path, ledger: Ledger) -> TrainRun:
    cfg = training.TrainConfig(
        epochs=p["epochs"],
        batch=p["batch"],
        weights=LossWeights(lambda_c=p["lambda_c"]),
        contrastive_variant="nce",
        seed=seed,
    )
    t0 = time.perf_counter()
    result = training.train(train_set, val_set, cfg, out_dir=out_dir, echo=False)
    seconds = time.perf_counter() - t0
    steps = len(result.reports) * -(-train_set.n_pairs // p["batch"])
    ledger.ops += steps + 1
    return TrainRun(seconds, steps * p["batch"], result)


def setup(p: dict, seed: int, workdir: Path, ledger: Ledger) -> Setup:
    t0 = time.perf_counter()
    spec = data.SyntheticSpec(**DATA, pairs_per_class=p["pairs_per_class"], seed=seed)
    paired = data.generate_synthetic(spec)
    generated = dict(zip(SPLITS, data.split(paired, p["splits"], seed=seed)))
    manifests = {}
    for name, part in generated.items():
        for ds in (part.image, part.text):
            data.write_feature_file(ds, workdir / f"{name}_{ds.modality}.txt")
        manifests[name] = workdir / f"{name}.manifest"
        data.write_manifest(manifests[name], f"{name}_image.txt", f"{name}_text.txt", name)
    loaded = {name: data.load_paired(path) for name, path in manifests.items()}
    ledger.ops += 2 + 4 * len(SPLITS)
    run = None
    if p["kind"] == "eval":
        run = _train(p, seed, loaded["train"], loaded["val"], workdir / "run", ledger)
    return Setup(time.perf_counter() - t0, generated, loaded, manifests, run)


def _eval_phase(p: dict, seed: int, model, train_set, test_set, ledger: Ledger):
    t0 = time.perf_counter()
    report = evaluation.retrieval_report(model, test_set)
    retrieval_s = time.perf_counter() - t0
    head = training.train_classifier(
        model, train_set, head_config=training.HeadConfig(epochs=p["head_epochs"], seed=seed)
    )
    accuracy = evaluation.classification_accuracy(head, model, test_set, test_set.labels)
    ledger.ops += 3
    return report, accuracy, retrieval_s


def run_round(p: dict, seed: int, s: Setup, workdir: Path, ledger: Ledger, model=None) -> Round:
    """The timed work; the extra retrieval_report calls follow the round and
    count only toward retrieval_s. Given a trained `model`, a train_* round
    runs only its eval phase."""
    t0 = time.perf_counter()
    if p["kind"] == "train":
        run = None
        if model is None:
            run = _train(p, seed, s.loaded["train"], s.loaded["val"], workdir / "run", ledger)
            model = run.result.model
        train_set, test_set = s.loaded["train"], s.loaded["test"]
        t_eval = time.perf_counter()
        report, accuracy, retrieval_s = _eval_phase(p, seed, model, train_set, test_set, ledger)
        exported = None
    else:
        run, t_eval = None, t0
        model = checkpoint.load_checkpoint(s.train.result.best_path)
        train_set = data.load_paired(s.manifests["train"])
        test_set = data.load_paired(s.manifests["test"])
        report, accuracy, retrieval_s = _eval_phase(p, seed, model, train_set, test_set, ledger)
        exported = evaluation.export_embeddings(model, test_set, workdir / "export")
        ledger.ops += 4
    t1 = time.perf_counter()
    retrieval = [retrieval_s]
    for _ in range(p["retrieval_calls"] - 1):
        t = time.perf_counter()
        again = evaluation.retrieval_report(model, test_set)
        retrieval.append(time.perf_counter() - t)
        ledger.ops += 1
        ledger.check(again == report, "repeated retrieval_report differs from the first call")
    return Round(t1 - t0, t1 - t_eval, retrieval, run, model, test_set, report, accuracy, exported)


# ---------------------------------------------------------------- checks


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _check_training(run: TrainRun, ledger: Ledger):
    reports = run.result.reports
    for r in reports:
        losses = (r.l_r, r.l_m, r.l_s, r.l_c, r.total, r.val_total)
        ledger.check(bool(np.isfinite(losses).all()), f"non-finite loss in epoch {r.epoch}: {losses}")
    ledger.check(
        run.final_loss < reports[0].total,
        f"last-epoch loss {run.final_loss} not below the first epoch's {reports[0].total}",
    )


def check_setup(s: Setup, ledger: Ledger):
    """Feature files read back bit for bit; on eval_heldout, the training
    losses are finite and final.ckpt reloads to the trained parameters."""
    for name, part in s.generated.items():
        got = s.loaded[name]
        for want, have in ((part.image, got.image), (part.text, got.text)):
            ledger.check(
                np.array_equal(want.labels, have.labels) and _same_bits(want.features, have.features),
                f"{name} {want.modality} feature file does not read back bit for bit",
            )
    if s.train is not None:
        _check_training(s.train, ledger)
        trained = {q.name: q.value for q in s.train.result.model.params()}
        reloaded = checkpoint.load_checkpoint(Path(s.train.result.best_path).parent / "final.ckpt")
        ledger.ops += 1
        ledger.check(
            all(np.array_equal(trained[q.name].astype(np.float64), q.value) for q in reloaded.params()),
            "final.ckpt does not reload to the trained parameters",
        )


def brute_force_ap(sims: list[float], gallery_labels: list[int], label: int) -> float:
    """AP from its definition: rank by descending similarity, ties by
    ascending gallery index, and average precision@k over the relevant k."""
    order = sorted(range(len(sims)), key=lambda j: (-sims[j], j))
    hits, total = 0, 0.0
    for k, j in enumerate(order, start=1):
        if gallery_labels[j] == label:
            hits += 1
            total += hits / k
    return total / hits


def check_ap_oracle(rnd: Round, seed: int, ledger: Ledger):
    """A sample of per-query APs must match the brute-force oracle."""
    rng = np.random.default_rng(seed)
    paired = rnd.test
    for direction, queries, gallery in (
        ("ITT", paired.image, paired.text),
        ("TTI", paired.text, paired.image),
    ):
        aps = rnd.report.fragments[direction].ap_per_query
        sims = evaluation.similarity_matrix(
            evaluation.embed_dataset(rnd.model, queries), evaluation.embed_dataset(rnd.model, gallery)
        )
        present = set(gallery.labels.tolist())
        # excluded queries (no relevant gallery item) have no entry in aps
        position = np.cumsum([int(lab) in present for lab in queries.labels]) - 1
        gallery_labels = gallery.labels.tolist()
        for qi in rng.choice(queries.n, size=min(ORACLE_QUERIES, queries.n), replace=False):
            label = int(queries.labels[qi])
            if label not in present:
                continue
            want = brute_force_ap(sims[qi].tolist(), gallery_labels, label)
            got = aps[position[qi]]
            ledger.check(
                abs(want - got) <= AP_TOLERANCE,
                f"{direction} query {qi}: ap_per_query {got!r} != oracle {want!r}",
            )


def check_export(rnd: Round, ledger: Ledger):
    """Exported files re-read equal embed_dataset cast to float32, bit for bit."""
    for ds, path in zip((rnd.test.image, rnd.test.text), rnd.exported):
        got = data.load_feature_file(path)
        want = evaluation.embed_dataset(rnd.model, ds).astype(np.float32)
        ledger.check(
            np.array_equal(got.labels, ds.labels) and _same_bits(got.features, want),
            f"{path.name} does not equal the {ds.modality} embeddings bit for bit",
        )


def outcome(rnd: Round) -> tuple:
    """What one seed must reproduce exactly in every round."""
    loss = rnd.train.final_loss if rnd.train else None
    aps = tuple(tuple(rnd.report.fragments[d].ap_per_query) for d in evaluation.DIRECTIONS)
    return loss, rnd.report.map_avg, rnd.accuracy, aps


def check_round(p: dict, seed: int, rnd: Round, first: tuple | None, ledger: Ledger) -> tuple:
    """Checks one round; the full checks run on the first round, later rounds
    must reproduce its outcome exactly. Returns the first round's outcome."""
    if rnd.train is not None:
        _check_training(rnd.train, ledger)
    ledger.check(
        rnd.report.map_avg >= p["map_floor"],
        f"map_avg {rnd.report.map_avg} below floor {p['map_floor']}",
    )
    ledger.check(
        rnd.accuracy >= p["accuracy_floor"],
        f"accuracy {rnd.accuracy} below floor {p['accuracy_floor']}",
    )
    got = outcome(rnd)
    if first is None:
        check_ap_oracle(rnd, seed, ledger)
        if rnd.exported is not None:
            check_export(rnd, ledger)
        return got
    # a round that only evaluated has no loss to compare
    same = got[1:] == first[1:] and (got[0] is None or got[0] == first[0])
    ledger.check(same, "round outcome differs from the first round of this seed")
    return first
