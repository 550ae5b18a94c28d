"""Output checks. Each returns a list of failures; an empty list passes.

Tolerances, and why each was chosen:

* ``WEIGHT_TOL`` (absolute, 1e-9): the program and ``reference`` compute the
  same float64 expressions in different orders, which moves a probability
  by ~1e-16. 1e-9 leaves seven orders of margin and still catches any
  change to a checkpoint weight that moves an output by a millionth.
* ``D_K_REL_TOL`` (relative, 1e-4): the program's median heuristic also
  counts rounding noise in the Gram-expansion self-distances, which puts
  d_k ~5e-6 (relative) off a median over distinct pairs; the tolerance
  admits that with margin and rejects any d_k off by 0.01%.
* Predictions compare exactly, except posts whose two class probabilities
  are within ``reference.TIE_GAP``, where either class is a right answer.
* Frozen embedding rows compare bit for bit: the program only copies them.
"""

from __future__ import annotations

import csv
import math

import numpy as np

from reference import TIE_GAP

WEIGHT_TOL = 1e-9
D_K_REL_TOL = 1e-4

LOSSES = ("loss_detection", "loss_event", "loss_pseudo")


def read_history(path: str) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return [{k: (float(v) if v != "" else None) for k, v in row.items()}
                for row in csv.DictReader(fh)]


def read_weights_csv(path: str) -> list[tuple[str, float]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return [(row["post_id"], float(row["weight"])) for row in csv.DictReader(fh)]


def check_training(history: list[dict], summary: dict, epochs: int,
                   source_labels: np.ndarray) -> list[str]:
    """History, losses, source accuracy, gate decision and weight range."""
    fails = []
    if [int(r["epoch"]) for r in history] != list(range(1, epochs + 1)):
        return [f"history has epochs {[r['epoch'] for r in history]}, expected 1..{epochs}"]
    for r in history:
        bad = [k for k in LOSSES if r[k] is None or not math.isfinite(r[k])]
        if bad:
            fails.append(f"epoch {int(r['epoch'])}: non-finite {bad}")
    if not history[-1]["loss_detection"] < history[0]["loss_detection"]:
        fails.append(f"detection loss did not fall: {history[0]['loss_detection']} -> "
                     f"{history[-1]['loss_detection']}")
    majority = max(source_labels.mean(), 1.0 - source_labels.mean())
    acc = summary["final_source_accuracy"]
    if acc != history[-1]["source_accuracy"] or not acc > majority:
        fails.append(f"final source accuracy {acc} (history {history[-1]['source_accuracy']})"
                     f" not above the majority share {majority}")
    shift = summary["shift"]
    if shift["gate_open"] != (shift["d_k"] >= shift["d_star"]):
        fails.append(f"gate_open={shift['gate_open']} but d_k={shift['d_k']}, "
                     f"d*={shift['d_star']}")
    for r in history:
        lo, mean, hi = r["weight_min"], r["weight_mean"], r["weight_max"]
        if not 0.0 <= lo <= mean <= hi <= 1.0:
            fails.append(f"epoch {int(r['epoch'])}: weights {lo}..{hi} (mean {mean}) "
                         "outside [0, 1]")
        elif not shift["gate_open"] and (lo, mean, hi) != (1.0, 1.0, 1.0):
            fails.append(f"epoch {int(r['epoch'])}: gate closed but weights {lo}..{hi}")
    return fails


def _ties(probs: np.ndarray) -> np.ndarray:
    return np.abs(probs[:, 0] - probs[:, 1]) <= TIE_GAP


def check_target_accuracy(accuracy: float, ref_probs: np.ndarray,
                          labels: np.ndarray) -> list[str]:
    """The history's last target accuracy against the reference forward pass."""
    ref_correct = int((ref_probs.argmax(axis=1) == labels).sum())
    got = accuracy * len(labels)
    if abs(got - ref_correct) > int(_ties(ref_probs).sum()) + 1e-6:
        return [f"target accuracy {accuracy} ({got:.1f} posts), reference "
                f"{ref_correct / len(labels)} ({ref_correct} posts)"]
    return []


def check_eval(report: dict, predictions, ref_probs: np.ndarray,
               labels: np.ndarray) -> list[str]:
    """Every non-tie prediction, the confusion counts and accuracy against the reference.

    ``predictions`` are those ``evaluate`` computed, or None where they could
    not be captured; the counts are then the only check.
    """
    fails = []
    ties = _ties(ref_probs)
    slack = int(ties.sum())
    ref_pred = ref_probs.argmax(axis=1)
    n = len(labels)
    if report["n_evaluated"] != n:
        fails.append(f"evaluated {report['n_evaluated']} posts, corpus has {n}")
    if predictions is not None:
        if len(predictions) != n:
            return fails + [f"{len(predictions)} predictions for {n} posts"]
        wrong = np.flatnonzero((np.asarray(predictions) != ref_pred) & ~ties)
        if wrong.size:
            fails.append(f"{wrong.size} predictions differ from the reference, "
                         f"first at post {wrong[0]}")
    for cls, name in ((1, "real"), (0, "fake")):
        hit, said = labels == cls, ref_pred == cls
        expected = {"tp": int((said & hit).sum()), "fp": int((said & ~hit).sum()),
                    "tn": int((~said & ~hit).sum()), "fn": int((~said & hit).sum())}
        for key, count in expected.items():
            if abs(report["per_class"][name][key] - count) > slack:
                fails.append(f"{name}.{key} = {report['per_class'][name][key]}, "
                             f"reference {count}")
    ref_correct = int((ref_pred == labels).sum())
    if abs(report["accuracy"] * n - ref_correct) > slack + 1e-6:
        fails.append(f"accuracy {report['accuracy']}, reference {ref_correct / n}")
    return fails


def check_weights(rows: list[tuple[str, float]], ref_pseudo: dict) -> list[str]:
    """All source posts, w = 1 - reference pseudo prob, weight-descending by id."""
    fails = []
    if sorted(r[0] for r in rows) != sorted(ref_pseudo):
        return [f"weights cover {len(rows)} posts, the source has {len(ref_pseudo)}"]
    off = [pid for pid, w in rows if abs(w - (1.0 - ref_pseudo[pid])) > WEIGHT_TOL]
    if off:
        fails.append(f"{len(off)} weights differ from 1 - reference pseudo prob, "
                     f"first {off[0]}")
    keys = [(-w, pid) for pid, w in rows]
    if keys != sorted(keys):
        fails.append("weights are not in descending order (ties by post id)")
    return fails


def check_gate(d_k: float, ref_d_k: float) -> list[str]:
    if abs(d_k - ref_d_k) > D_K_REL_TOL * abs(ref_d_k):
        return [f"d_k {d_k} vs SciPy reference {ref_d_k}"]
    return []


def check_frozen_embedding(embedding: np.ndarray, token_to_id: dict,
                           vectors: dict) -> list[str]:
    """Rows of tokens in the vector file equal the file's vectors bit for bit."""
    fails = []
    if np.any(embedding[0] != 0.0):
        fails.append("PAD row is not zero")
    differ = [t for t, v in vectors.items()
              if t in token_to_id and not np.array_equal(embedding[token_to_id[t]], v)]
    missing = [t for t in vectors if t not in token_to_id]
    if differ:
        fails.append(f"{len(differ)} embedding rows differ from the vector file, "
                     f"first {differ[0]!r}")
    if missing:
        fails.append(f"{len(missing)} vector-file tokens absent from the vocabulary")
    return fails


def read_vectors(path: str) -> dict[str, np.ndarray]:
    with open(path, encoding="utf-8") as fh:
        fh.readline()
        out = {}
        for line in fh:
            tok, *vals = line.rstrip("\n").split(" ")
            out[tok] = np.array([float(v) for v in vals])
    return out
