"""Acceptance gate: the nine end-to-end guarantees the package makes.

Each test prints one PASS/FAIL line to the real terminal (past pytest's
capture) so the gate's verdict is visible in plain test output.
"""

import dataclasses
import math
import re
import time

import numpy as np
import pytest

from cobra import (
    checkpoint,
    cli,
    data,
    evaluation,
    gradcheck,
    losses,
    training,
)
from cobra.losses import ContrastiveSets
from cobra.training import HeadConfig, TrainConfig

from contrastive_oracle import NoiseModel, nce_posterior
from retrieval_oracle import cosine_similarity


def report(capsys, name, ok, detail=""):
    with capsys.disabled():
        print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"{name} failed: {detail}"


# ------------------------------------------------------------------ shared
# One real training run at full synthetic scale feeds criteria 3 and 4.


@pytest.fixture(scope="module")
def convergence_run(tmp_path_factory):
    spec = data.SyntheticSpec()  # 10 classes, d_I=64, d_T=32, 200 pairs/class
    paired = data.generate_synthetic(spec)
    train_set, val_set, test_set = data.split(paired, [0.8, 0.1, 0.1], seed=0)
    cfg = TrainConfig(epochs=15)  # all other settings at their defaults
    t0 = time.perf_counter()
    result = training.train(train_set, val_set, cfg, echo=False)
    seconds = time.perf_counter() - t0
    return {
        "model": result.model,
        "train": train_set,
        "test": test_set,
        "seconds": seconds,
    }


# ------------------------------------------------------------------ 1


def test_criterion_1_gradient_oracle_suite(capsys):
    t0 = time.perf_counter()
    results = gradcheck.run_gradcheck(seed=0)
    seconds = time.perf_counter() - t0
    worst = max(r.max_rel_err for r in results)
    ok = all(r.passed for r in results) and seconds < 30.0
    report(
        capsys,
        "1 gradient-oracle-suite",
        ok,
        f"(checks={len(results)} worst_rel_err={worst:.2e} secs={seconds:.1f})",
    )


# ------------------------------------------------------------------ 2


def test_criterion_2_closed_form_identities(capsys):
    ok = True
    details = []

    # exact-match inputs drive every squared-error loss to exactly zero
    x = np.random.default_rng(0).normal(size=(4, 3))
    ok &= losses.recon_loss(x, x, x, x, reduction="sum")[0] == 0.0
    ok &= losses.cross_modal_loss(x, x.copy(), reduction="sum")[0] == 0.0
    ok &= losses.supervised_loss(np.eye(3), [0, 1, 2], 3, reduction="sum")[0] == 0.0
    details.append("zero-losses")

    # uniform scores: setform loss is log(N+1)
    for n in (1, 5, 10):
        o = np.ones((n + 2, 3))
        cs = ContrastiveSets(np.array([0]), np.array([1]), np.array([2 + np.arange(n)]))
        v, *_ = losses.contrastive_loss_setform(
            cs, o, np.ones((1, 3)), score_mode="exp", temperature=1.0
        )
        ok &= abs(v - math.log(n + 1)) < 1e-10
    details.append("setform=log(N+1)")

    # matched joint/noise densities: posterior is 1/(1+N)
    for n in (1, 4, 9):
        p = nce_posterior(0.5, NoiseModel(n, 0.5))
        ok &= abs(p - 1.0 / (1 + n)) < 1e-10
    details.append("posterior=1/(1+N)")
    report(capsys, "2 closed-form-identities", ok, f"({', '.join(details)})")


# ------------------------------------------------------------------ 3


def test_criterion_3_retrieval_convergence(capsys, convergence_run):
    rep = evaluation.retrieval_report(convergence_run["model"], convergence_run["test"])
    gap = abs(rep.map_itt - rep.map_tti)
    ok = rep.map_avg >= 0.95 and gap < 0.05 and convergence_run["seconds"] <= 600.0
    report(
        capsys,
        "3 retrieval-convergence",
        ok,
        f"(map_avg={rep.map_avg:.4f} gap={gap:.4f} train_secs={convergence_run['seconds']:.0f})",
    )


# ------------------------------------------------------------------ 4


def test_criterion_4_classification_with_control(capsys, convergence_run):
    model = convergence_run["model"]
    train_set, test_set = convergence_run["train"], convergence_run["test"]
    head = training.train_classifier(
        model, train_set, head_config=HeadConfig(epochs=30)
    )
    acc = evaluation.classification_accuracy(head, model, test_set, test_set.labels)

    # control: heads trained on permuted labels must collapse to chance
    rng = np.random.default_rng(0)
    shuffled = rng.permutation(train_set.labels)
    control_set = data.PairedDataset(
        image=dataclasses.replace(train_set.image, labels=shuffled),
        text=dataclasses.replace(train_set.text, labels=shuffled),
    )
    control_head = training.train_classifier(
        model, control_set, head_config=HeadConfig(epochs=30)
    )
    control_acc = evaluation.classification_accuracy(
        control_head, model, test_set, test_set.labels
    )
    chance = 1.0 / train_set.num_classes
    ok = acc >= 0.95 and abs(control_acc - chance) <= 0.10
    report(
        capsys,
        "4 classification-with-control",
        ok,
        f"(acc={acc:.4f} control={control_acc:.4f} chance={chance:.2f})",
    )


# ------------------------------------------------------------------ 5


def _brute_force_map(q, g, ql, gl):
    """Independent enumeration oracle: python sort + explicit precision sums."""
    aps = []
    for i in range(q.shape[0]):
        scored = sorted(
            ((cosine_similarity(q[i], g[j]), j) for j in range(g.shape[0])),
            key=lambda t: (-t[0], t[1]),
        )
        hits, precs = 0, []
        for rank, (_, j) in enumerate(scored, start=1):
            if gl[j] == ql[i]:
                hits += 1
                precs.append(hits / rank)
        if precs:
            aps.append(sum(precs) / len(precs))
    return sum(aps) / len(aps) if aps else 0.0


def test_criterion_5_map_oracle_equivalence(capsys):
    worst = 0.0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        nq, ng = int(rng.integers(2, 10)), int(rng.integers(2, 21))
        d, c = int(rng.integers(2, 6)), int(rng.integers(2, 5))
        q, g = rng.normal(size=(nq, d)), rng.normal(size=(ng, d))
        ql, gl = rng.integers(0, c, nq), rng.integers(0, c, ng)
        sims = evaluation.similarity_matrix(q, g)
        aps = []
        for i in range(nq):
            order = evaluation.rank_gallery(sims[i])
            rel = (gl[order] == ql[i]).astype(float)
            if rel.sum():
                aps.append(evaluation.average_precision(rel))
        got = float(np.mean(aps)) if aps else 0.0
        worst = max(worst, abs(got - _brute_force_map(q, g, ql, gl)))
    ok = worst <= 1e-12
    report(capsys, "5 map-oracle-equivalence", ok, f"(50 instances, worst_diff={worst:.1e})")


# ------------------------------------------------------------------ 6


def test_criterion_6_ranking_scale_invariance(capsys):
    ok = True
    for seed in range(100):
        rng = np.random.default_rng(seed)
        q = rng.normal(size=(3, 5))
        g = rng.normal(size=(12, 5))
        scale = float(rng.uniform(0.01, 100.0))
        base = evaluation.similarity_matrix(q, g)
        scaled = evaluation.similarity_matrix(q * scale, g * float(rng.uniform(0.01, 100.0)))
        for i in range(q.shape[0]):
            ok &= bool(
                np.array_equal(
                    evaluation.rank_gallery(base[i]), evaluation.rank_gallery(scaled[i])
                )
            )
    report(capsys, "6 ranking-scale-invariance", ok, "(100 random instances)")


# ------------------------------------------------------------------ 7


def test_criterion_7_end_to_end_determinism(capsys, tmp_path):
    def pipeline(tag):
        ds = tmp_path / f"ds_{tag}"
        assert cli.main([
            "synth", "--classes", "4", "--d-image", "10", "--d-text", "8",
            "--pairs-per-class", "12", "--seed", "5", "--out", str(ds),
            "--split", "0.7,0.15,0.15",
        ]) == 0
        run = tmp_path / f"run_{tag}"
        assert cli.main([
            "train", "--manifest", str(ds / "train.manifest"),
            "--val-manifest", str(ds / "val.manifest"), "--out", str(run),
            "--epochs", "2", "--batch", "8", "--eta", "0.005", "--seed", "5",
        ]) == 0
        emb = tmp_path / f"emb_{tag}"
        assert cli.main([
            "embed", "--manifest", str(ds / "test.manifest"),
            "--checkpoint", str(run / "final.ckpt"), "--out", str(emb),
        ]) == 0
        out = capsys.readouterr().out
        log = re.sub(r" secs=\S+", "", (run / "run.log").read_text())
        return (
            (run / "final.ckpt").read_bytes(),
            (emb / "embeddings_image.txt").read_bytes(),
            (emb / "embeddings_text.txt").read_bytes(),
            re.sub(r" secs=\S+", "", out),
            log,
        )

    ok = pipeline("a") == pipeline("b")
    report(capsys, "7 end-to-end-determinism", ok, "(checkpoints, embeddings, records)")


# ------------------------------------------------------------------ 8


def test_criterion_8_contrastive_ablation(capsys):
    scores, wins = training.contrastive_ablation()
    ok = wins >= 4
    detail = " ".join(f"{a:.3f}/{b:.3f}" for a, b in scores)
    report(capsys, "8 contrastive-ablation", ok, f"(wins={wins}/{len(scores)}: {detail})")


# ------------------------------------------------------------------ 9


def test_criterion_9_format_round_trips(capsys, tmp_path):
    ok = True
    # feature files
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n, d, c = int(rng.integers(1, 10)), int(rng.integers(1, 8)), int(rng.integers(1, 5))
        ds = data.FeatureDataset(
            "image" if seed % 2 else "text",
            rng.normal(size=(n, d)).astype(np.float32),
            rng.integers(0, c, n),
            c,
        )
        p = tmp_path / "f.txt"
        data.write_feature_file(ds, p)
        back = data.load_feature_file(p)
        ok &= bool(
            np.array_equal(back.features, ds.features)
            and np.array_equal(back.labels, ds.labels)
            and back.modality == ds.modality
            and back.num_classes == ds.num_classes
        )
    # checkpoints
    for seed in range(100):
        rng = np.random.default_rng(seed + 10_000)
        tensors = {
            f"t{i}": rng.normal(size=(int(rng.integers(1, 6)), int(rng.integers(1, 6))))
            for i in range(int(rng.integers(1, 6)))
        }
        p = tmp_path / "c.ckpt"
        checkpoint.write_tensors(p, tensors)
        back = checkpoint.read_tensors(p)
        ok &= set(back) == set(tensors) and all(
            np.array_equal(back[k], tensors[k]) for k in tensors
        )
    report(capsys, "9 format-round-trips", ok, "(100 feature files, 100 checkpoints)")
