"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 7 and 8 share one 15-run synthetic experiment (module-scoped
fixture); everything else is a self-contained oracle check.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from helpers import (
    analytic_model_grads,
    block_objective,
    build_tiny_model,
    central_difference,
    forward_losses,
    init_discriminator,
    model_blocks,
    random_batch,
    rel_error,
    total,
)
from metadetector.autodiff import Tensor, backward, grl, matmul, relu
from metadetector.data_synth import SynthSpec, generate, inject_anomalies
from metadetector.evaluation import (
    _forward_chunks,
    export_weights,
    metrics_from_predictions,
)
from metadetector.mmd import (
    KernelBank,
    N_KERNELS,
    median_bandwidths,
    mmd_squared,
    shift_gate,
)
from metadetector.model import (
    _discriminator_head,
    detect,
    extract_features,
    pseudo_discriminate,
    trained_tensors,
)
from metadetector.text import build_vocab, random_table
from metadetector.training import (
    TrainConfig,
    compute_weights,
    loss_event_weighted,
    sgd_step,
    total_loss,
    train,
)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


# -- criterion 1: gradient integrity ----------------------------------------


def test_criterion_01_gradient_integrity():
    start = time.time()
    params = build_tiny_model(vocab_size=50, dim=8, k=12, n_filters=4, w_max=3)
    ids_s, y_s, ids_t = random_batch(params, b_s=3, b_t=3)
    lam, mu = 1.0, 1.0
    weights = np.random.default_rng(5).uniform(0.2, 1.0, size=3)

    analytic = analytic_model_grads(params, ids_s, y_s, ids_t, lam, mu, weights)
    worst = 0.0
    for block, tensors in model_blocks(params).items():
        f = lambda: block_objective(params, block, ids_s, y_s, ids_t,
                                    lam, mu, weights)
        for t in tensors:
            numeric = central_difference(f, t, step=1e-5)
            worst = max(worst, rel_error(analytic[id(t)], numeric))
    elapsed = time.time() - start
    report(1, worst < 1e-4 and elapsed < 60,
           f"max rel err {worst:.2e} (tol 1e-4), {elapsed:.1f}s (< 60s)")


# -- criterion 2: GRL contract ----------------------------------------------


def test_criterion_02_grl_contract():
    rng = np.random.default_rng(0)
    x_data = rng.normal(size=(5, 4))
    w = rng.normal(size=(4, 3))
    ok = True
    details = []
    for lam in (0.0, 0.5, 1.0, 2.0):
        x_plain = Tensor(x_data.copy(), requires_grad=True)
        loss_plain = total(relu(matmul(x_plain, Tensor(w))))
        backward(loss_plain)

        x_rev = Tensor(x_data.copy(), requires_grad=True)
        reversed_x = grl(x_rev, lam)
        forward_identical = np.array_equal(reversed_x.data, x_rev.data)
        loss_rev = total(relu(matmul(reversed_x, Tensor(w))))
        backward(loss_rev)

        # -lam is a power of two for every tested lam, so equality is exact
        backward_exact = np.array_equal(x_rev.grad, -lam * x_plain.grad)
        ok = ok and forward_identical and backward_exact
        details.append(f"lam={lam}: fwd={forward_identical} bwd={backward_exact}")
    report(2, ok, "; ".join(details))


# -- criterion 3: pseudo-head isolation --------------------------------------


def test_criterion_03_pseudo_head_isolation():
    params = build_tiny_model()
    ids_s, _, ids_t = random_batch(params)
    before = {id(t): t.data.copy() for t in trained_tensors(params).values()}

    feats_s = extract_features(ids_s, params.theta_f)
    feats_t = extract_features(ids_t, params.theta_f)
    l_pe = loss_event_weighted(pseudo_discriminate(feats_s, params.theta_pe),
                               pseudo_discriminate(feats_t, params.theta_pe),
                               np.ones(len(ids_s)))
    backward(l_pe)
    sgd_step(trained_tensors(params).values(), lr=0.1)

    blocks = model_blocks(params)
    frozen_ok = all(
        np.array_equal(before[id(t)], t.data)
        for block in ("theta_f", "theta_y", "theta_e")
        for t in blocks[block])
    pe_moved = any(not np.array_equal(before[id(t)], t.data)
                   for t in blocks["theta_pe"])
    report(3, frozen_ok and pe_moved,
           f"theta_f/theta_y/theta_e/embeddings bit-identical={frozen_ok}, "
           f"theta_pe updated={pe_moved}")


# -- criterion 4: Eq. 6 optimal discriminator ---------------------------------


def test_criterion_04_optimal_discriminator():
    rng = np.random.default_rng(0)
    disc = init_discriminator(rng, in_dim=1, hidden=8)
    a, b = 1.0, -1.0
    src = Tensor(np.array([[a]] * 8 + [[b]] * 2))   # source mass 0.8 / 0.2
    tgt = Tensor(np.array([[a]] * 4 + [[b]] * 6))   # target mass 0.4 / 0.6
    ones = np.ones(src.shape[0])
    for _ in range(2000):
        loss = loss_event_weighted(_discriminator_head(src, disc),
                                   _discriminator_head(tgt, disc), ones)
        backward(loss)
        sgd_step([disc.w1, disc.b1, disc.w2, disc.b2], lr=0.5)
    out_a = _discriminator_head(Tensor(np.array([[a]])), disc).item()
    err = abs(out_a - 2.0 / 3.0)
    report(4, err <= 0.05, f"G_e(a)={out_a:.4f} vs 2/3 (|err|={err:.4f} <= 0.05)")


# -- criterion 5: MMD oracle equivalence --------------------------------------


def naive_mmd_squared(xs, ys, bank):
    def kern(u, v):
        d2 = float(((u - v) ** 2).sum())
        return sum(math.exp(-d2 / (2.0 * s2)) for s2 in bank.sq_bandwidths) \
            / len(bank.sq_bandwidths)

    kxx = sum(kern(u, v) for u in xs for v in xs) / (len(xs) ** 2)
    kyy = sum(kern(u, v) for u in ys for v in ys) / (len(ys) ** 2)
    kxy = sum(kern(u, v) for u in xs for v in ys) / (len(xs) * len(ys))
    return kxx + kyy - 2.0 * kxy


def test_criterion_05_mmd_oracle():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        n, m = rng.integers(2, 40, size=2)
        d = int(rng.integers(1, 33))
        xs = rng.normal(size=(n, d))
        ys = rng.normal(loc=rng.normal(), size=(m, d))
        bank = KernelBank(
            np.sort(rng.uniform(0.1, 4.0, size=int(rng.integers(1, 8)))))
        worst = max(worst, abs(mmd_squared(xs, ys, bank)
                               - naive_mmd_squared(xs, ys, bank)))
    xs = rng.normal(size=(30, 4))
    bank = KernelBank(np.array([0.5, 1.0, 2.0]))
    self_zero = abs(mmd_squared(xs, xs, bank))
    ys = rng.normal(size=(20, 4))
    symmetric = mmd_squared(xs, ys, bank) == mmd_squared(ys, xs, bank)

    distances = []
    for shift in (0.0, 0.3, 0.6, 0.9):
        spec = SynthSpec(n_source=500, n_target=500, shift=shift,
                         specific_vocab_size=50, shared_vocab_size=100,
                         post_length=20, seed=4)
        source, target = generate(spec)
        vocab = build_vocab([source, target])
        table = random_table(len(vocab), 16, np.random.default_rng(4))
        distances.append(shift_gate(source, target, vocab, table).d_k)
    monotone = all(u < v for u, v in zip(distances, distances[1:]))

    report(5, worst <= 1e-10 and self_zero <= 1e-12 and symmetric and monotone,
           f"oracle max dev {worst:.1e} (<=1e-10), MMD(X,X)={self_zero:.1e} "
           f"(<=1e-12), symmetry={symmetric}, monotone "
           f"{[round(x, 3) for x in distances]}")


# -- criterion 6: weighting laws ----------------------------------------------


def test_criterion_06_weighting_laws():
    cfg = TrainConfig()
    defaults_ok = (cfg.lambda_ == 1.0 and cfg.mu == 1.0 and cfg.d_star == 0.8
                   and N_KERNELS == 7)
    rng = np.random.default_rng(1)
    w_hat = rng.uniform(1e-9, 1 - 1e-9, size=200)
    gated = compute_weights(w_hat, gate_open=True)
    closed = compute_weights(w_hat, gate_open=False)
    in_range = bool(np.all((gated > 0) & (gated < 1)))
    complement = np.array_equal(gated, 1.0 - w_hat)
    all_ones = np.array_equal(closed, np.ones_like(w_hat))

    spec = SynthSpec(n_source=200, n_target=200, shift=0.0, post_length=10,
                     seed=2)
    source, target = generate(spec)
    vocab = build_vocab([source, target])
    table = random_table(len(vocab), 16, np.random.default_rng(2))
    rep = shift_gate(source, target, vocab, table, d_star=0.8)
    gate_matches = rep.gate_open == (rep.d_k >= 0.8)

    report(6, defaults_ok and in_range and complement and all_ones
           and gate_matches,
           f"defaults lam=mu=1,d*=0.8,7 kernels={defaults_ok}; gated in (0,1)"
           f"={in_range}; w==1-w_hat exact={complement}; closed all-ones"
           f"={all_ones}; gate==(d_k>=d*)={gate_matches}")


# -- criteria 7 & 8: the adaptation experiment --------------------------------
#
# Protocol: per seed, train the no-adversary baseline (lambda = 0) once, then
# train the EANN-style ablation (adversary on, weighting off) and the full
# method (adversary on, weighting on) at the same lambda. Marginal adversarial
# alignment has a known failure mode — it can pair target clusters with the
# wrong source clusters — so both adversarial variants get the same restart
# budget: a run is kept once its target predictions agree with the baseline's
# on at least AGREEMENT_MIN of posts (an unsupervised check; inverted pairings
# disagree with the baseline on most posts), else retrain with a shifted seed,
# keeping the best of RESTART_BUDGET attempts.

EXPERIMENT_SEEDS = range(5)
EXPERIMENT_LAM = 0.2
AGREEMENT_MIN = 0.75
RESTART_BUDGET = 4


def _experiment_data(seed: int):
    spec = SynthSpec(n_source=2000, n_target=2000, shift=0.9,
                     signal_strength=0.8, specific_vocab_size=4,
                     shared_vocab_size=100, post_length=40, fake_ratio=0.4,
                     seed=seed)
    source, target = generate(spec)
    source = inject_anomalies(source, 0.2, seed=seed + 1000, spec=spec)
    return source, target


def _experiment_train(source, target, seed: int, lam: float, override: str):
    cfg = TrainConfig(epochs=50, lr=0.1, seed=seed, lambda_=lam, mu=0.7,
                      weighting_override=override, d_star=0.6, batch_size=200,
                      embedding_dim=16, n_filters=12)
    return train(source, target, cfg)


def _target_predictions(params, corpus):
    preds = [detect(f, params.theta_y).data.argmax(axis=1)
             for f in _forward_chunks(params, corpus)]
    return np.concatenate(preds)


def _train_with_restarts(source, target, seed, lam, override, reference):
    best = None
    for trial in range(RESTART_BUDGET):
        params, history, rep = _experiment_train(
            source, target, seed + 101 * trial, lam, override)
        agree = float((_target_predictions(params, target) == reference).mean())
        if best is None or agree > best[0]:
            best = (agree, params, history, rep)
        if agree >= AGREEMENT_MIN:
            break
    return best[1], best[2], best[3]


def _weight_gap(params, source):
    ranking = export_weights(params, source)
    by_id = {e.post_id: e.weight for e in ranking.entries}
    anom = np.array([by_id[p.id] for p in source.posts
                     if p.id.startswith("anom-")])
    clean = np.array([by_id[p.id] for p in source.posts
                      if not p.id.startswith("anom-")])
    return float(clean.mean() - anom.mean())


@pytest.fixture(scope="module")
def adaptation_experiment():
    start = time.time()
    out = {"full": [], "eann": [], "baseline": []}
    for seed in EXPERIMENT_SEEDS:
        source, target = _experiment_data(seed)
        params, history, rep = _experiment_train(
            source, target, seed, 0.0, "always_off")
        reference = _target_predictions(params, target)
        out["baseline"].append(
            (history[-1].target_accuracy, rep.gate_open, 0.0))
        for name, override in (("eann", "always_off"), ("full", "auto")):
            params, history, rep = _train_with_restarts(
                source, target, seed, EXPERIMENT_LAM, override, reference)
            out[name].append((history[-1].target_accuracy, rep.gate_open,
                              _weight_gap(params, source)))
    out["elapsed"] = time.time() - start
    return out


def test_criterion_07_adaptation_benefit(adaptation_experiment):
    ex = adaptation_experiment
    full = float(np.mean([r[0] for r in ex["full"]]))
    eann = float(np.mean([r[0] for r in ex["eann"]]))
    base = float(np.mean([r[0] for r in ex["baseline"]]))
    gates_open = all(r[1] for r in ex["full"])
    ok = (full - base >= 0.05 and full - eann >= 0.02
          and ex["elapsed"] < 600 and gates_open)
    report(7, ok,
           f"full={full:.3f} baseline={base:.3f} (gap {full - base:+.3f} "
           f">= .05) eann={eann:.3f} (gap {full - eann:+.3f} >= .02), "
           f"gate open={gates_open}, {ex['elapsed']:.0f}s (< 600s)")


def test_criterion_08_anomaly_downweighting(adaptation_experiment):
    gaps = [r[2] for r in adaptation_experiment["full"]]
    hits = sum(1 for g in gaps if g > 0.1)
    report(8, hits >= 4,
           f"clean-minus-anomaly weight gaps {[round(g, 3) for g in gaps]}, "
           f"{hits}/5 seeds > 0.1 (need >= 4)")


# -- criterion 9: metric correctness ------------------------------------------


def _naive_class(preds, labels, cls):
    tp = int(np.sum((preds == cls) & (labels == cls)))
    fp = int(np.sum((preds == cls) & (labels != cls)))
    fn = int(np.sum((preds != cls) & (labels == cls)))
    tn = len(preds) - tp - fp - fn
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = (2 * precision * recall / (precision + recall)
          if precision + recall else 0.0)
    return tp, fp, tn, fn, precision, recall, f1


def test_criterion_09_metric_correctness():
    rng = np.random.default_rng(9)
    exact = True
    for _ in range(1000):
        n = int(rng.integers(1, 40))
        preds = rng.integers(0, 2, size=n)
        labels = rng.integers(0, 2, size=n)
        rpt = metrics_from_predictions(preds, labels)
        if rpt.accuracy != float(np.mean(preds == labels)):
            exact = False
        for cls, name in ((1, "real"), (0, "fake")):
            tp, fp, tn, fn, p, r, f1 = _naive_class(preds, labels, cls)
            m = rpt.per_class[name]
            if (m.tp, m.fp, m.tn, m.fn) != (tp, fp, tn, fn) or \
                    (m.precision, m.recall, m.f1) != (p, r, f1):
                exact = False

    # hand case: positive-class confusion TP=2 FP=1 FN=1 TN=6
    preds = np.array([1, 1, 1, 0, 0, 0, 0, 0, 0, 0])
    labels = np.array([1, 1, 0, 1, 0, 0, 0, 0, 0, 0])
    rpt = metrics_from_predictions(preds, labels)
    pos = rpt.per_class["real"]
    hand_ok = (rpt.accuracy == 0.8
               and (pos.tp, pos.fp, pos.fn, pos.tn) == (2, 1, 1, 6)
               and pos.precision == pos.recall == pos.f1 == pytest.approx(2 / 3))
    report(9, exact and hand_ok,
           f"1000 random vectors exact={exact}; hand case acc=0.8, "
           f"P=R=F1=2/3: {hand_ok}")


# -- criterion 10: determinism ------------------------------------------------


def _pipeline(tmpdir):
    tmpdir.mkdir(exist_ok=True)
    run = lambda *args: subprocess.run(
        [sys.executable, "-m", "metadetector.cli", *args],
        capture_output=True, text=True, check=True)
    src, tgt = f"{tmpdir}/src.jsonl", f"{tmpdir}/tgt.jsonl"
    run("synth", "--out-source", src, "--out-target", tgt,
        "--n-source", "80", "--n-target", "80", "--post-length", "10",
        "--shift", "0.5", "--seed", "3")
    cfg = {"epochs": 3, "batch_size": 20, "embedding_dim": 8,
           "n_filters": 4, "w_max": 3, "seed": 3}
    with open(f"{tmpdir}/config.json", "w", encoding="utf-8") as fh:
        json.dump(cfg, fh)
    run("train", "--source", src, "--target", tgt,
        "--config", f"{tmpdir}/config.json", "--seed", "3",
        "--out", f"{tmpdir}/model.npz", "--history", f"{tmpdir}/history.csv")
    run("eval", "--checkpoint", f"{tmpdir}/model.npz", "--corpus", tgt,
        "--out", f"{tmpdir}/metrics.json")
    with open(f"{tmpdir}/history.csv", "rb") as fh:
        hist = fh.read()
    with open(f"{tmpdir}/metrics.json", "rb") as fh:
        metrics = fh.read()
    return hist, metrics


def test_criterion_10_determinism(tmp_path):
    a = _pipeline(tmp_path / "a")
    b = _pipeline(tmp_path / "b")
    hist_same = a[0] == b[0]
    metrics_same = a[1] == b[1]
    json.loads(b[1])  # well-formed
    report(10, hist_same and metrics_same,
           f"history CSV byte-identical={hist_same}, "
           f"metrics JSON byte-identical={metrics_same}")
