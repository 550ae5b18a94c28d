"""The benchmark's output checks pass on the program's outputs and reject tampered ones.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from metadetector.data_synth import SynthSpec, generate  # noqa: E402
from metadetector.evaluation import _forward_chunks, evaluate, export_weights  # noqa: E402
from metadetector.mmd import shift_gate  # noqa: E402
from metadetector.model import detect, save_checkpoint  # noqa: E402
from metadetector.text import build_vocab, load_pretrained_vectors  # noqa: E402
from metadetector.training import TrainConfig, history_to_csv, train  # noqa: E402

import checks  # noqa: E402
import reference  # noqa: E402


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("bench")
    spec = SynthSpec(n_source=120, n_target=120, shift=0.9, specific_vocab_size=4,
                     shared_vocab_size=40, post_length=12, seed=3)
    source, target = generate(spec)
    config = TrainConfig(epochs=3, lr=0.1, batch_size=20, embedding_dim=8, n_filters=4,
                         w_max=3, lambda_=0.2, d_star=0.6, seed=3)
    params, history, shift = train(source, target, config)
    ckpt = str(tmp / "model.npz")
    save_checkpoint(params, ckpt)
    history_to_csv(history, str(tmp / "history.csv"))
    return {"tmp": tmp, "source": source, "target": target, "params": params,
            "ckpt": ckpt, "shift": shift, "epochs": config.epochs,
            "history": checks.read_history(str(tmp / "history.csv")),
            "summary": {"shift": shift.to_dict(),
                        "final_source_accuracy": history[-1].source_accuracy}}


def texts(corpus):
    return [p.text for p in corpus.posts]


def labels(corpus):
    return np.array([p.label for p in corpus.posts])


def ref_probs(ckpt, corpus):
    ck = reference.Checkpoint(ckpt)
    feats = ck.features(ck.encode(texts(corpus)))
    return ck.class_probs(feats), ck.pseudo_probs(feats)


def test_tokenizer_matches_documented_rule():
    assert reference.tokenize("Hello, WORLD!! e1v3 ...") == ["hello", "world", "e1v3"]
    assert reference.tokenize("“quoted” 新闻ab") == ["quoted", "新", "闻", "ab"]


def test_reference_forward_matches_program(trained):
    probs, _ = ref_probs(trained["ckpt"], trained["target"])
    params = trained["params"]
    program = np.concatenate([detect(f, params.theta_y).data
                              for f in _forward_chunks(params, trained["target"])])
    assert np.abs(probs - program).max() < 1e-12


def test_eval_check_rejects_a_flipped_prediction(trained):
    params, target = trained["params"], trained["target"]
    report = evaluate(params, target).to_dict()
    probs, _ = ref_probs(trained["ckpt"], target)
    preds = probs.argmax(axis=1)
    assert checks.check_eval(report, preds, probs, labels(target)) == []
    assert checks.check_eval(report, None, probs, labels(target)) == []
    flipped = preds.copy()
    flipped[5] = 1 - flipped[5]
    assert checks.check_eval(report, flipped, probs, labels(target))
    tampered = json.loads(json.dumps(report))
    tampered["per_class"]["real"]["tp"] += 1
    assert checks.check_eval(tampered, preds, probs, labels(target))


def test_weights_check_rejects_a_perturbed_checkpoint_weight(trained, tmp_path):
    source = trained["source"]
    ranking = export_weights(trained["params"], source)
    rows = [(e.post_id, e.weight) for e in ranking.entries]
    ids = [p.id for p in source.posts]
    _, pseudo = ref_probs(trained["ckpt"], source)
    assert checks.check_weights(rows, dict(zip(ids, pseudo))) == []

    with np.load(trained["ckpt"]) as npz:
        arrays = dict(npz)
    arrays["pe_b2"][0] += 1e-6
    perturbed = str(tmp_path / "perturbed.npz")
    np.savez(perturbed, **arrays)
    _, pseudo2 = ref_probs(perturbed, source)
    assert checks.check_weights(rows, dict(zip(ids, pseudo2)))
    assert checks.check_weights(rows[::-1], dict(zip(ids, pseudo)))
    assert checks.check_weights(rows[1:], dict(zip(ids, pseudo)))


def test_target_accuracy_check_rejects_one_post_off(trained):
    probs, _ = ref_probs(trained["ckpt"], trained["target"])
    acc = trained["history"][-1]["target_accuracy"]
    y = labels(trained["target"])
    assert checks.check_target_accuracy(acc, probs, y) == []
    assert checks.check_target_accuracy(acc + 1 / len(y), probs, y)


def test_training_check_rejects_tampered_history(trained):
    history, summary, epochs = trained["history"], trained["summary"], trained["epochs"]
    y = labels(trained["source"])
    assert checks.check_training(history, summary, epochs, y) == []
    assert checks.check_training(history[:-1], summary, epochs, y)

    nan_loss = [dict(r) for r in history]
    nan_loss[1]["loss_event"] = float("nan")
    assert checks.check_training(nan_loss, summary, epochs, y)

    flat = [dict(r) for r in history]
    flat[-1]["loss_detection"] = flat[0]["loss_detection"]
    assert checks.check_training(flat, summary, epochs, y)

    gate = json.loads(json.dumps(summary))
    gate["shift"]["gate_open"] = not gate["shift"]["gate_open"]
    assert checks.check_training(history, gate, epochs, y)

    low = dict(summary, final_source_accuracy=0.5)
    assert checks.check_training(history, low, epochs, y)

    closed = json.loads(json.dumps(summary))
    closed["shift"].update(d_k=0.1, d_star=0.6, gate_open=False)
    ones = [dict(r, weight_min=1.0, weight_mean=1.0, weight_max=1.0) for r in history]
    assert checks.check_training(ones, closed, epochs, y) == []
    ones[2]["weight_min"] = 0.999
    assert checks.check_training(ones, closed, epochs, y)
    above = [dict(r, weight_max=1.5) for r in history]
    assert checks.check_training(above, summary, epochs, y)


def _vector_file(tmp, corpora, dim=6, seed=0):
    tokens = sorted({t for c in corpora for text in texts(c) for t in reference.tokenize(text)})
    rng = np.random.default_rng(seed)
    path = str(tmp / "vectors.txt")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(tokens)} {dim}\n")
        for tok in tokens:
            fh.write(tok + " " + " ".join(map(repr, rng.normal(size=dim).tolist())) + "\n")
    return path


def test_gate_and_frozen_embedding_checks(trained):
    source, target = trained["source"], trained["target"]
    path = _vector_file(trained["tmp"], (source, target))
    vocab = build_vocab([source, target])
    table = load_pretrained_vectors(path, vocab, np.random.default_rng(0), trainable=False)
    d_k = shift_gate(source, target, vocab, table).d_k

    vectors = checks.read_vectors(path)
    reps = [reference.post_means(texts(c), vectors, 6) for c in (source, target)]
    ref_d_k = reference.shift_gate_d_k(*reps)
    assert checks.check_gate(d_k, ref_d_k) == []
    assert checks.check_gate(d_k * (1 + 1e-3), ref_d_k)

    embedding = table.weights.data.copy()
    assert checks.check_frozen_embedding(embedding, vocab.token_to_id, vectors) == []
    row = vocab.token_to_id[next(iter(vectors))]
    embedding[row, 0] = np.nextafter(embedding[row, 0], np.inf)
    assert checks.check_frozen_embedding(embedding, vocab.token_to_id, vectors)
