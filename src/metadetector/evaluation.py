"""Metrics computation and source-post weight ranking export."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from .errors import ConfigurationError, ContractError
from .model import ModelParams, detect, extract_features, pseudo_discriminate
from .text import EventCorpus, encode

CLASS_NAMES = {0: "fake", 1: "real"}
# rows per extractor pass at inference
FORWARD_CHUNK = 500


@dataclass
class ClassMetrics:
    precision: float
    recall: float
    f1: float
    tp: int
    fp: int
    tn: int
    fn: int
    zero_division: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class MetricsReport:
    accuracy: float
    n_evaluated: int
    per_class: dict[str, ClassMetrics]

    def to_dict(self) -> dict:
        return asdict(self)

    def to_table(self) -> str:
        lines = [f"{'class':<6} {'P':>8} {'R':>8} {'F1':>8}"]
        for name, m in self.per_class.items():
            lines.append(f"{name:<6} {m.precision:>8.4f} {m.recall:>8.4f} {m.f1:>8.4f}")
        lines.append(f"accuracy {self.accuracy:.4f}  (n={self.n_evaluated})")
        return "\n".join(lines)


def metrics_from_predictions(predictions: np.ndarray,
                             labels: np.ndarray) -> MetricsReport:
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    if predictions.shape != labels.shape:
        raise ContractError(
            f"{len(predictions)} predictions vs {len(labels)} labels")
    n = len(labels)
    per_class: dict[str, ClassMetrics] = {}
    for cls in (1, 0):  # real first, matching the report layout
        tp = int(((predictions == cls) & (labels == cls)).sum())
        fp = int(((predictions == cls) & (labels != cls)).sum())
        fn = int(((predictions != cls) & (labels == cls)).sum())
        tn = n - tp - fp - fn
        flags = []
        if tp + fp > 0:
            precision = tp / (tp + fp)
        else:
            precision, flags = 0.0, flags + ["precision"]
        if tp + fn > 0:
            recall = tp / (tp + fn)
        else:
            recall, flags = 0.0, flags + ["recall"]
        if precision + recall > 0:
            f1 = 2 * precision * recall / (precision + recall)
        else:
            f1, flags = 0.0, flags + ["f1"]
        per_class[CLASS_NAMES[cls]] = ClassMetrics(
            precision=precision, recall=recall, f1=f1,
            tp=tp, fp=fp, tn=tn, fn=fn, zero_division=flags)
    accuracy = float((predictions == labels).mean())
    return MetricsReport(accuracy=accuracy, n_evaluated=n, per_class=per_class)


def forward(params: ModelParams, ids: np.ndarray):
    """Extractor features of an (n, k) id matrix, FORWARD_CHUNK rows at a time, dropout off."""
    for start in range(0, len(ids), FORWARD_CHUNK):
        yield extract_features(ids[start:start + FORWARD_CHUNK], params.theta_f)


def _forward_chunks(params: ModelParams, corpus: EventCorpus):
    yield from forward(params, encode(corpus, params.vocab, params.k))


def predict(params: ModelParams, ids: np.ndarray) -> np.ndarray:
    """Argmax detector class of each row of an (n, k) id matrix."""
    return np.concatenate([detect(feats, params.theta_y).data.argmax(axis=1)
                           for feats in forward(params, ids)])


def evaluate(params: ModelParams, test: EventCorpus) -> MetricsReport:
    """Argmax predictions over a fully labeled corpus, dropout off."""
    for post in test.posts:
        if post.label is None:
            raise ContractError(f"test post {post.id!r} is unlabeled")
    preds = predict(params, encode(test, params.vocab, params.k))
    labels = np.array([p.label for p in test.posts], dtype=np.int64)
    return metrics_from_predictions(preds, labels)


@dataclass
class WeightEntry:
    post_id: str
    excerpt: str
    weight: float
    pseudo_prob: float

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class WeightRanking:
    top: list[WeightEntry]
    bottom: list[WeightEntry]
    summary: dict
    entries: list[WeightEntry]  # all posts, weight-descending

    def to_dict(self) -> dict:
        return {"top": [e.to_dict() for e in self.top],
                "bottom": [e.to_dict() for e in self.bottom],
                "summary": self.summary}


def export_weights(params: ModelParams, source: EventCorpus,
                   top_n: int = 10) -> WeightRanking:
    """Rank source posts by w = 1 - w_hat, ties broken by post id.

    ``top`` and ``bottom`` hold the ``top_n`` highest and lowest (both
    empty for 0); a negative ``top_n`` raises ConfigurationError.
    """
    if top_n < 0:
        raise ConfigurationError(f"top_n must be >= 0, got {top_n}")
    probs = []
    for feats in _forward_chunks(params, source):
        probs.append(pseudo_discriminate(feats, params.theta_pe).data)
    w_hat = np.concatenate(probs)
    entries = [WeightEntry(post_id=p.id, excerpt=p.text[:60],
                           weight=float(1.0 - w), pseudo_prob=float(w))
               for p, w in zip(source.posts, w_hat)]
    entries.sort(key=lambda e: (-e.weight, e.post_id))
    weights = np.array([e.weight for e in entries])
    summary = {
        "n": len(entries),
        "mean": float(weights.mean()),
        "min": float(weights.min()),
        "max": float(weights.max()),
        "deciles": [float(np.quantile(weights, q / 10)) for q in range(11)],
    }
    return WeightRanking(top=entries[:top_n],
                         bottom=entries[max(0, len(entries) - top_n):],
                         summary=summary, entries=entries)
