"""Losses, the weighting rule, batch scheduling, and the joint SGD loop.

The event discriminator descends on its loss while the reversal node
routes -lambda times that gradient into the feature extractor, so the
min-max game runs inside a single descent pass. Source-post weights come
from the pseudo head (w = 1 - w_hat) whenever the shift gate is open.
"""

from __future__ import annotations

import csv
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, astuple, dataclass, fields
from typing import Callable, Iterable, Iterator, Optional

import numpy as np

from .autodiff import Tensor, _clamped_log, _op, backward, split_rows
from .errors import ConfigurationError, ContractError, NumericalError
from .evaluation import FORWARD_BLOCK, predict
from .mmd import ShiftReport, shift_gate
from .model import (
    ModelParams,
    check_size,
    detect,
    discriminate_event,
    extract_features,
    init_model,
    pseudo_discriminate,
    snapshot,
    trained_tensors,
)
from .text import (
    MAX_DIM,
    MAX_FILTERS,
    MAX_K,
    EventCorpus,
    Vocabulary,
    build_vocab,
    choose_k,
    encode,
    load_pretrained_vectors,
    random_table,
)

WEIGHTING_MODES = ("auto", "always_on", "always_off")
_JSON_TYPES = {"float": (int, float), "int": int, "bool": bool, "str": str}


def _json_value_fits(value, annotation: str) -> bool:
    """Whether a JSON value may fill a field annotated ``annotation``."""
    if value is None:
        return annotation.startswith("Optional[")
    base = annotation.removeprefix("Optional[").removesuffix("]")
    if isinstance(value, bool):  # a subclass of int, but not a number here
        return base == "bool"
    return isinstance(value, _JSON_TYPES[base])


@dataclass
class TrainConfig:
    lambda_: float = 1.0
    mu: float = 1.0
    d_star: float = 0.8
    lr: float = 0.01
    batch_size: int = 100
    epochs: int = 100
    dropout: float = 0.2
    seed: int = 0
    freeze_embeddings: bool = False
    weighting_override: str = "auto"
    embedding_dim: int = 32
    n_filters: int = 20
    w_max: int = 4
    min_count: int = 1
    k: Optional[int] = None
    pretrained_vectors: Optional[str] = None

    def __post_init__(self):
        for name in ("lambda_", "mu", "d_star", "lr", "dropout"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigurationError(f"{name} must be finite, got {getattr(self, name)}")
        for name, high in (("embedding_dim", MAX_DIM), ("n_filters", MAX_FILTERS),
                           ("w_max", MAX_K)):
            if not 1 <= getattr(self, name) <= high:
                raise ConfigurationError(
                    f"{name} must be in [1, {high}], got {getattr(self, name)}")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {self.seed}")
        if self.k is not None and not self.w_max <= self.k <= MAX_K:
            raise ConfigurationError(
                f"k must be in [w_max = {self.w_max}, {MAX_K}] when set, got {self.k}")
        if self.batch_size % 2 != 0 or self.batch_size < 2:
            raise ConfigurationError(
                f"batch_size must be a positive even integer, got {self.batch_size}")
        if self.lr <= 0 or self.epochs < 1:
            raise ConfigurationError("lr must be positive and epochs >= 1")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigurationError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.lambda_ < 0 or self.mu < 0:
            raise ConfigurationError("lambda and mu must be non-negative")
        if self.weighting_override not in WEIGHTING_MODES:
            raise ConfigurationError(
                f"weighting_override must be one of {WEIGHTING_MODES}")

    @classmethod
    def from_file(cls, path: str) -> "TrainConfig":
        """A JSON object of field values; every error names ``path``."""
        with open(path, encoding="utf-8") as fh:
            try:
                raw = json.load(fh)
            except ValueError as exc:  # bad JSON or bad UTF-8
                raise ConfigurationError(f"{path}: invalid JSON ({exc})") from None
        if not isinstance(raw, dict):
            raise ConfigurationError(
                f"{path}: expected a JSON object, got {type(raw).__name__}")
        types = {f.name: f.type for f in fields(cls)}
        unknown = set(raw) - set(types)
        if unknown:
            raise ConfigurationError(f"{path}: unknown config keys: {sorted(unknown)}")
        for name, value in raw.items():
            if not _json_value_fits(value, types[name]):
                raise ConfigurationError(
                    f"{path}: {name} must be {types[name]}, got {json.dumps(value)}")
        try:
            return cls(**raw)
        except ConfigurationError as exc:
            raise ConfigurationError(f"{path}: {exc}") from None


@dataclass
class EpochRecord:
    epoch: int
    loss_detection: float
    loss_event: float
    loss_pseudo: float
    source_accuracy: float
    target_accuracy: Optional[float]
    weight_mean: float
    weight_min: float
    weight_max: float


# -- losses ---------------------------------------------------------------


def _nll_term(p: np.ndarray, weights) -> tuple[float, Callable]:
    """``sum(log(p) * weights) / len(p)``, with ``p`` clamped at ``LOG_CLAMP``,
    and the map from this term's gradient ``g`` to the gradient in ``p``."""
    log_p, clamped, kept = _clamped_log(p)
    scale = 1.0 / len(p)  # a mean is its sum times 1/n
    return ((log_p * weights).sum() * scale,
            lambda g: np.where(kept, g * scale * weights / clamped, 0.0))


def loss_detection_weighted(probs: Tensor, labels: np.ndarray,
                            weights: np.ndarray) -> Tensor:
    """Weighted two-class cross-entropy, mean over the batch, as one node."""
    labels = np.asarray(labels)
    weights = np.asarray(weights, dtype=np.float64)
    n = probs.shape[0]
    if len(labels) != n or len(weights) != n:
        raise ContractError(
            f"got {n} rows but {len(labels)} labels / {len(weights)} weights")
    onehot = np.zeros((n, 2))
    onehot[np.arange(n), labels] = 1.0
    term, grad = _nll_term((probs.data * onehot).sum(axis=1), weights)
    return _op(-term, (probs,), lambda g: (grad(-g)[:, None] * onehot,))


def loss_event_weighted(src_probs: Tensor, tgt_probs: Tensor,
                        weights: np.ndarray) -> Tensor:
    """Binary cross-entropy with per-source-post weights (source = class 1),
    as one node."""
    weights = np.asarray(weights, dtype=np.float64)
    if len(weights) != src_probs.shape[0]:
        raise ContractError(
            f"{src_probs.shape[0]} source probs but {len(weights)} weights")
    term_s, grad_s = _nll_term(src_probs.data, weights)
    term_t, grad_t = _nll_term(1.0 - tgt_probs.data, 1.0)
    return _op(-(term_s + term_t), (src_probs, tgt_probs),
               lambda g: (grad_s(-g), -grad_t(-g)))


def loss_pseudo(src_probs: Tensor, tgt_probs: Tensor) -> Tensor:
    """Unweighted event cross-entropy for the pseudo head."""
    return loss_event_weighted(src_probs, tgt_probs,
                               np.ones(src_probs.shape[0]))


def total_loss(l_yw: Tensor, l_pe: Tensor, l_ew: Tensor, mu: float) -> Tensor:
    """``l_yw + mu * l_pe + l_ew`` as one node, bit for bit the sum of
    ``Tensor`` nodes; the -lambda coupling lives in the reversal node."""
    return _op((l_yw.data + l_pe.data * mu) + l_ew.data, (l_yw, l_pe, l_ew),
               lambda g: (g, g * mu, g))


def compute_weights(pseudo_probs: np.ndarray, gate_open: bool,
                    override: str = "auto") -> np.ndarray:
    """w = 1 - w_hat when weighting is active, all-ones otherwise."""
    if override not in WEIGHTING_MODES:
        raise ConfigurationError(f"override must be one of {WEIGHTING_MODES}")
    probs = np.asarray(pseudo_probs, dtype=np.float64)
    active = override == "always_on" or (override == "auto" and gate_open)
    return 1.0 - probs if active else np.ones_like(probs)


# -- batch scheduling ------------------------------------------------------


def make_batches(n_source: int, n_target: int, batch_size: int,
                 rng: np.random.Generator) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """One epoch of half/half index batches; the shorter side cycles."""
    half = batch_size // 2
    if n_source < half or n_target < half:
        raise ConfigurationError(
            f"corpora ({n_source}, {n_target}) smaller than half-batch {half}")
    n_batches = math.ceil(max(n_source, n_target) / half)
    needed = n_batches * half

    def stream(n: int) -> np.ndarray:
        idx = rng.permutation(n)
        while len(idx) < needed:
            idx = np.concatenate([idx, rng.permutation(n)])
        return idx[:needed]

    src, tgt = stream(n_source), stream(n_target)
    for b in range(n_batches):
        yield src[b * half:(b + 1) * half], tgt[b * half:(b + 1) * half]


def sgd_step(tensors: Iterable[Tensor], lr: float) -> None:
    """Plain SGD update of every tensor given that holds a gradient, which
    is then reset to None."""
    for t in tensors:
        if t.grad is not None:
            t.data -= lr * t.grad
            t.grad = None


# -- training loop ---------------------------------------------------------


def _check_finite(name: str, value: float, epoch: int) -> float:
    if not np.isfinite(value):
        raise NumericalError(f"non-finite {name} at epoch {epoch}")
    return value


def _check_finite_grads(named: dict[str, Tensor], epoch: int) -> None:
    """Raise before any update if a gradient holds a NaN or an infinity."""
    for name, t in named.items():
        if not np.isfinite(t.grad).all():
            raise NumericalError(f"non-finite gradient of {name} at epoch {epoch}")


def _seed_streams(seed: int) -> list[np.random.Generator]:
    """Batch-order, dropout and embedding-table generators of a run seed."""
    return [np.random.default_rng(s)
            for s in np.random.SeedSequence(seed).spawn(3)]


def prepare(source: EventCorpus, target: EventCorpus, config: TrainConfig
            ) -> tuple[Vocabulary, int, Tensor, ShiftReport]:
    """The vocabulary, sequence length, embedding table and shift gate of a run.

    A window size ``w_max`` above the sequence length, or a model that
    :func:`model.check_size` refuses on a batch as large as a training step
    or a scoring block, is refused before the gate runs; a random table is
    not drawn either, while a pretrained one is read first, since its file
    gives its width.

    The table is random or pretrained, frozen or not, and drawn from the
    run seed's embedding-table generator, so ``config.seed`` fixes it.
    """
    vocab = build_vocab([source, target], min_count=config.min_count)
    k = config.k if config.k is not None else choose_k([source, target])
    if config.w_max > k:
        raise ConfigurationError(
            f"w_max = {config.w_max} exceeds the sequence length k = {k}")

    def check(d: int) -> None:
        check_size(len(vocab), d, config.w_max, config.n_filters, k,
                   rows=max(config.batch_size, FORWARD_BLOCK))

    emb_rng = _seed_streams(config.seed)[2]
    if config.pretrained_vectors:
        table = load_pretrained_vectors(config.pretrained_vectors, vocab, emb_rng)
        check(table.shape[1])
    else:
        check(config.embedding_dim)
        table = random_table(len(vocab), config.embedding_dim, emb_rng)
    if config.freeze_embeddings:
        table.requires_grad = False
    shift = shift_gate(source, target, vocab, table, d_star=config.d_star)
    return vocab, k, table, shift


def _accuracy(params: ModelParams, ids: np.ndarray,
              labels: Optional[np.ndarray]) -> Optional[float]:
    """Share of the rows of ``ids`` predicted as ``labels``; None without labels."""
    if labels is None:
        return None
    return int((predict(params, ids) == labels).sum()) / len(labels)


def train(source: EventCorpus, target: EventCorpus,
          config: TrainConfig) -> tuple[ModelParams, list[EpochRecord], ShiftReport]:
    """Full adversarial training run; deterministic given ``config.seed``.

    Each epoch's target accuracy is computed on one worker thread, from a
    copy of that epoch's trained arrays (:func:`model.snapshot`), while the
    next epoch trains; one is in flight at a time, and the last is waited
    for. The evaluation scores its chunks one after another
    (:func:`evaluation.predict`), so after ``prepare`` (whose shift gate runs
    two threads of its own, joined before it returns) a run uses at most two
    Python threads. The outputs are those of computing each accuracy in turn:
    the evaluation draws from no generator. The worker has stopped when
    ``train`` returns or raises, and an exception on it is raised as it was.
    """
    for post in source.posts:
        if post.label is None:
            raise ContractError(f"source post {post.id!r} is unlabeled")

    batch_rng, drop_rng, _ = _seed_streams(config.seed)
    vocab, k, table, shift = prepare(source, target, config)
    params = init_model(vocab, table, k, config.seed,
                        n_filters=config.n_filters, w_max=config.w_max,
                        config_snapshot=asdict(config))

    ids_s = encode(source, vocab, k)
    y_s = np.array([p.label for p in source.posts], dtype=np.int64)
    ids_t = encode(target, vocab, k)
    y_t = (np.array([p.label for p in target.posts], dtype=np.int64)
           if all(p.label is not None for p in target.posts) else None)

    trained = trained_tensors(params)
    history: list[EpochRecord] = []
    accuracy = None  # history[-1]'s target accuracy, in flight on the worker

    # the block joins the worker however the run ends
    with ThreadPoolExecutor(max_workers=1) as pool:
        for epoch in range(1, config.epochs + 1):
            sums = {"yw": 0.0, "ew": 0.0, "pe": 0.0}
            n_batches = 0
            correct = 0
            wmin, wmax, wsum, wcount = math.inf, -math.inf, 0.0, 0

            for src_idx, tgt_idx in make_batches(len(source), len(target),
                                                 config.batch_size, batch_rng):
                # one extractor pass over the joint batch; the dropout draw over
                # (2 * half) rows equals a source draw followed by a target draw
                feats = extract_features(
                    np.concatenate([ids_s[src_idx], ids_t[tgt_idx]]), params.theta_f,
                    rng=drop_rng, dropout_rate=config.dropout)
                feats_s, feats_t = split_rows(feats, len(src_idx))

                pe_s = pseudo_discriminate(feats_s, params.theta_pe)
                pe_t = pseudo_discriminate(feats_t, params.theta_pe)
                l_pe = loss_pseudo(pe_s, pe_t)

                w = compute_weights(pe_s.data, shift.gate_open,
                                    config.weighting_override)

                probs = detect(feats_s, params.theta_y)
                l_yw = loss_detection_weighted(probs, y_s[src_idx], w)

                e_s = discriminate_event(feats_s, params.theta_e, config.lambda_)
                e_t = discriminate_event(feats_t, params.theta_e, config.lambda_)
                l_ew = loss_event_weighted(e_s, e_t, w)

                sums["yw"] += _check_finite("detection loss", l_yw.item(), epoch)
                sums["ew"] += _check_finite("event loss", l_ew.item(), epoch)
                sums["pe"] += _check_finite("pseudo loss", l_pe.item(), epoch)
                n_batches += 1

                backward(total_loss(l_yw, l_pe, l_ew, config.mu))
                _check_finite_grads(trained, epoch)
                sgd_step(trained.values(), config.lr)

                correct += int((probs.data.argmax(axis=1) == y_s[src_idx]).sum())
                wmin = min(wmin, float(w.min()))
                wmax = max(wmax, float(w.max()))
                wsum += float(w.sum())
                wcount += len(w)

            if accuracy is not None:
                history[-1].target_accuracy = accuracy.result()
            history.append(EpochRecord(
                epoch=epoch, loss_detection=sums["yw"] / n_batches,
                loss_event=sums["ew"] / n_batches, loss_pseudo=sums["pe"] / n_batches,
                source_accuracy=correct / wcount, target_accuracy=None,
                weight_mean=wsum / wcount, weight_min=wmin, weight_max=wmax))
            accuracy = pool.submit(_accuracy, snapshot(params), ids_t, y_t)
        history[-1].target_accuracy = accuracy.result()

    return params, history, shift


def write_csv(path: str, header: list[str], rows: Iterable) -> None:
    """Write ``header``, then ``rows``, to ``path`` as CSV."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        # csv writes None as "" and a float by its repr
        writer.writerows(rows)


def history_to_csv(history: list[EpochRecord], path: str) -> None:
    write_csv(path, [f.name for f in fields(EpochRecord)],
              (astuple(rec) for rec in history))
