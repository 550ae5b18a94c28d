"""Metrics computation and source-post weight ranking export."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import ConfigurationError, ContractError
from .model import ModelParams, check_size, detect, extract_features, pseudo_discriminate
from .text import EventCorpus, encode

CLASS_NAMES = {0: "fake", 1: "real"}
# Inference runs the extractor on each block of FORWARD_BLOCK rows in two
# chunks, cut after FORWARD_CHUNK rows (see _chunks); evaluate and
# export_weights run two chunks at once, each holding about 10 MB of
# temporaries.
FORWARD_BLOCK = 500
FORWARD_CHUNK = 256


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


def _chunks(n: int) -> list[slice]:
    """Row ranges over ``n`` rows, in order: each block of FORWARD_BLOCK rows
    cut in two after FORWARD_CHUNK rows, unless that leaves one row.

    The scores are bit for bit those of one pass per block. A BLAS product
    takes the rows in groups, of a power of two, and the rows left over at
    the end of a pass by another path, whose sums may differ in the last
    bit. A cut at 256 rows leaves none over in the first part, and the same
    rows over in the second as in the block. A one-row pass multiplies on
    the matrix-vector path, so no cut leaves one row.
    """
    starts = [start for block in range(0, n, FORWARD_BLOCK)
              for start in (block, block + FORWARD_CHUNK)
              if start == block or n - start >= 2]
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [n])]


def _map_chunks(params: ModelParams, ids: np.ndarray, head, mapper=map):
    """``head(features, params)`` of each chunk of an (n, k) id matrix, in
    chunk order, dropout off; ``mapper`` runs the chunks."""
    def run(rows: slice):
        return head(extract_features(ids[rows], params.theta_f), params)

    return mapper(run, _chunks(len(ids)))


def _classes(feats, params: ModelParams) -> np.ndarray:
    return detect(feats, params.theta_y).data.argmax(axis=1)


def _pseudo_probs(feats, params: ModelParams) -> np.ndarray:
    return pseudo_discriminate(feats, params.theta_pe).data


def _on_two_threads(params: ModelParams, ids: np.ndarray, head) -> np.ndarray:
    """The chunks of ``_map_chunks`` on two threads, joined in chunk order.

    An exception in a chunk is raised here as it was, once both threads
    have stopped.
    """
    with ThreadPoolExecutor(max_workers=2) as pool:
        return np.concatenate(list(_map_chunks(params, ids, head, pool.map)))


def _checked_ids(params: ModelParams, corpus: EventCorpus) -> np.ndarray:
    """``encode``, once ``check_size`` passes the model on a FORWARD_BLOCK batch."""
    check_size(*params.tensors["embedding"].shape, len(params.theta_f.filters),
               params.theta_f.filters[0].shape[0], params.k, rows=FORWARD_BLOCK)
    return encode(corpus, params.vocab, params.k)


def _forward_chunks(params: ModelParams, corpus: EventCorpus):
    """Extractor features of each chunk of an encoded corpus, in order."""
    return _map_chunks(params, _checked_ids(params, corpus), lambda feats, _: feats)


def predict(params: ModelParams, ids: np.ndarray) -> np.ndarray:
    """Argmax detector class of each row of an (n, k) id matrix, one chunk
    after another on the calling thread."""
    return np.concatenate(list(_map_chunks(params, ids, _classes)))


def evaluate(params: ModelParams, test: EventCorpus) -> MetricsReport:
    """Argmax predictions over a fully labeled corpus, dropout off, the
    chunks scored on two threads."""
    for post in test.posts:
        if post.label is None:
            raise ContractError(f"test post {post.id!r} is unlabeled")
    preds = _on_two_threads(params, _checked_ids(params, test), _classes)
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
    """Rank source posts by w = 1 - w_hat, ties broken by post id; w_hat is
    scored chunk by chunk on two threads.

    ``top`` and ``bottom`` hold the ``top_n`` highest and lowest (both
    empty for 0); a negative ``top_n`` raises ConfigurationError.
    """
    if top_n < 0:
        raise ConfigurationError(f"top_n must be >= 0, got {top_n}")
    w_hat = _on_two_threads(params, _checked_ids(params, source), _pseudo_probs)
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
