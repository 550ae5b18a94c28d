"""The four network heads: feature extractor, detector, event discriminator
behind a gradient-reversal node, and the pseudo-event discriminator on
detached features."""

from __future__ import annotations

import hashlib
import json
import math
import zipfile
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .autodiff import (
    Tensor,
    _op,
    _sigmoid,
    _softmax_rows,
    _softmax_rows_grad,
    dropout,
    grl,
    relu,
    text_cnn,
)
from .errors import CheckpointError
from .text import MAX_K, PAD_TOKEN, UNK_TOKEN, Vocabulary

FEATURE_DIM = 32
DISC_HIDDEN = 32


def _init_array(rng: np.random.Generator, shape: tuple[int, ...]) -> Tensor:
    """A 1-D array is a zero bias; any other is Glorot-uniform with fan-out
    ``shape[0]`` and fan-in ``prod(shape[1:])``."""
    if len(shape) == 1:
        return Tensor(np.zeros(shape), requires_grad=True)
    limit = math.sqrt(6.0 / (math.prod(shape[1:]) + shape[0]))
    return Tensor(rng.uniform(-limit, limit, size=shape), requires_grad=True)


@dataclass
class FeatureExtractorParams:
    """Per-window filter banks, the mixing layer, and the embedding table."""
    filters: list[Tensor]       # filters[h-1]: (n_c, d, h)
    conv_biases: list[Tensor]   # (n_c,)
    w_fc: Tensor                # (FEATURE_DIM, w_max * n_c)
    b_fc: Tensor                # (FEATURE_DIM,)
    embedding: Tensor           # (|V|, d), PAD row zero; trained iff requires_grad

    @property
    def w_max(self) -> int:
        return len(self.filters)

    @property
    def n_filters(self) -> int:
        return self.filters[0].shape[0]


@dataclass
class DetectorParams:
    w: Tensor  # (2, FEATURE_DIM)
    b: Tensor  # (2,)


@dataclass
class DiscriminatorParams:
    w1: Tensor  # (hidden, in_dim)
    b1: Tensor
    w2: Tensor  # (1, hidden)
    b2: Tensor


@dataclass
class ModelParams:
    """The parameters, held once in ``tensors`` by :func:`_array_shapes`
    name and order; the four heads are views of it, built on each read."""
    tensors: dict[str, Tensor]
    vocab: Vocabulary
    k: int
    seed: int
    config_snapshot: dict = field(default_factory=dict)

    @property
    def theta_f(self) -> FeatureExtractorParams:
        t = self.tensors
        return FeatureExtractorParams(
            filters=[a for name, a in t.items() if name.startswith("f_filter_")],
            conv_biases=[a for name, a in t.items() if name.startswith("f_bias_")],
            w_fc=t["f_w_fc"], b_fc=t["f_b_fc"], embedding=t["embedding"])

    def _discriminator(self, head: str) -> DiscriminatorParams:
        return DiscriminatorParams(*(self.tensors[f"{head}_{part}"]
                                     for part, _ in _disc_shapes(FEATURE_DIM, DISC_HIDDEN)))

    theta_y = property(lambda self: DetectorParams(self.tensors["y_w"], self.tensors["y_b"]))
    theta_e = property(lambda self: self._discriminator("e"))
    theta_pe = property(lambda self: self._discriminator("pe"))


def _disc_shapes(in_dim: int, hidden: int):
    """(part, shape) of a discriminator's arrays, in field order."""
    return (("w1", (hidden, in_dim)), ("b1", (hidden,)),
            ("w2", (1, hidden)), ("b2", (1,)))


def init_discriminator(rng: np.random.Generator, in_dim: int = FEATURE_DIM,
                       hidden: int = DISC_HIDDEN) -> DiscriminatorParams:
    return DiscriminatorParams(*(_init_array(rng, shape)
                                 for _, shape in _disc_shapes(in_dim, hidden)))


def init_model(vocab: Vocabulary, table: Tensor, k: int, seed: int,
               n_filters: int, w_max: int,
               config_snapshot: Optional[dict] = None) -> ModelParams:
    """A fresh model around ``table``; arrays are drawn in layout order."""
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    tensors = {name: table if name == "embedding" else _init_array(rng, shape)
               for name, shape in _array_shapes(*table.shape, w_max, n_filters)}
    return ModelParams(tensors, vocab, k, seed, dict(config_snapshot or {}))


# The fused ops below repeat, in order, the floating-point operations of the
# unfused transpose, matmul and add nodes, so their results are bit for bit
# the same.


def _affine(x: np.ndarray, w: Tensor, b: Tensor) -> tuple[np.ndarray, np.ndarray]:
    """``x w^T + b``, and the copy of ``w.T`` it multiplies by."""
    wt = w.data.T.copy()
    return x @ wt + b.data, wt


def _affine_grads(x: np.ndarray, wt: np.ndarray, g: np.ndarray,
                  x_trains: bool = True) -> tuple:
    """Gradients for (x, w, b) of ``x @ wt + b``; no x gradient is computed
    unless ``x_trains``."""
    return (g @ wt.T if x_trains else None), (x.T @ g).T, g.sum(axis=0)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``x w^T + b`` as one node."""
    out, wt = _affine(x.data, w, b)
    return _op(out, (x, w, b), lambda g: _affine_grads(x.data, wt, g, x.requires_grad))


def extract_features(ids: np.ndarray, theta_f: FeatureExtractorParams,
                     rng: Optional[np.random.Generator] = None,
                     dropout_rate: float = 0.0) -> Tensor:
    """Text-CNN features of a ``(B, k)`` id matrix: embed, conv per window,
    max-pool (one fused op), dropout (iff ``rng`` is given), relu(fc)."""
    c_temp = text_cnn(theta_f.embedding, ids, theta_f.filters, theta_f.conv_biases)
    c_temp = dropout(c_temp, dropout_rate, rng)
    return relu(linear(c_temp, theta_f.w_fc, theta_f.b_fc))


def detect(features: Tensor, theta_y: DetectorParams) -> Tensor:
    """Class probabilities per post; column 0 = fake, column 1 = real.

    One node: the softmax of ``linear(features, w, b)``."""
    z, wt = _affine(features.data, theta_y.w, theta_y.b)
    s = _softmax_rows(z)
    return _op(s, (features, theta_y.w, theta_y.b),
               lambda g: _affine_grads(features.data, wt, _softmax_rows_grad(s, g),
                                       features.requires_grad))


def _discriminator_head(features: Tensor, theta: DiscriminatorParams) -> Tensor:
    """One node: ``sigmoid(linear(relu(linear(features, w1, b1)), w2, b2))``,
    one probability per row."""
    pre, w1t = _affine(features.data, theta.w1, theta.b1)
    mask = pre > 0
    h = np.where(mask, pre, 0.0)
    z, w2t = _affine(h, theta.w2, theta.b2)
    p = _sigmoid(z)

    def bwd(g: np.ndarray) -> tuple:
        gh, gw2, gb2 = _affine_grads(h, w2t, g.reshape(p.shape) * p * (1.0 - p))
        gx, gw1, gb1 = _affine_grads(features.data, w1t, gh * mask,
                                     features.requires_grad)
        return gx, gw1, gb1, gw2, gb2

    return _op(p.reshape(len(p)), (features, theta.w1, theta.b1, theta.w2, theta.b2),
               bwd)


def discriminate_event(features: Tensor, theta_e: DiscriminatorParams,
                       lam: float) -> Tensor:
    """Per-post probability of source origin, reversal gain ``lam`` below the head."""
    return _discriminator_head(grl(features, lam), theta_e)


def pseudo_discriminate(features: Tensor, theta_pe: DiscriminatorParams) -> Tensor:
    """Same head on detached features: no gradient reaches the extractor."""
    return _discriminator_head(features.detach(), theta_pe)


# -- checkpointing -------------------------------------------------------------

_CHECKPOINT_VERSION = 1


def vocab_hash(vocab: Vocabulary) -> str:
    payload = json.dumps(vocab.tokens_by_id, ensure_ascii=False).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


def trained_tensors(params: ModelParams) -> dict[str, Tensor]:
    """What trains: the ``params.tensors`` entries with ``requires_grad`` set."""
    return {name: t for name, t in params.tensors.items() if t.requires_grad}


def snapshot(params: ModelParams) -> ModelParams:
    """``params`` with a copy of each trained array, to read while the
    originals train on; a tensor that does not train is shared."""
    return replace(params, tensors={
        name: Tensor(t.data.copy(), requires_grad=True) if t.requires_grad else t
        for name, t in params.tensors.items()})


def save_checkpoint(params: ModelParams, path: str) -> None:
    meta = {
        "version": _CHECKPOINT_VERSION,
        "seed": params.seed,
        "k": params.k,
        "w_max": params.theta_f.w_max,
        "n_filters": params.theta_f.n_filters,
        "embedding_trainable": params.theta_f.embedding.requires_grad,
        "vocab_tokens": params.vocab.tokens_by_id,
        "vocab_min_count": params.vocab.min_count,
        "vocab_hash": vocab_hash(params.vocab),
        "config": params.config_snapshot,
    }
    np.savez(path, __meta__=np.array(json.dumps(meta)),
             **{name: t.data for name, t in params.tensors.items()})


def _array_shapes(n_vocab: int, d: int, w_max: int, n_filters: int):
    """(name, shape) of each parameter array, filter banks first: the one
    record of the layout. These are the keys of ``ModelParams.tensors``, in
    its order; :func:`init_model` draws in this order,
    :func:`save_checkpoint` saves under these names and
    :func:`load_checkpoint` checks them."""
    for i in range(w_max):
        yield f"f_filter_{i}", (n_filters, d, i + 1)
        yield f"f_bias_{i}", (n_filters,)
    yield "f_w_fc", (FEATURE_DIM, w_max * n_filters)
    yield "f_b_fc", (FEATURE_DIM,)
    yield "embedding", (n_vocab, d)
    yield "y_w", (2, FEATURE_DIM)
    yield "y_b", (2,)
    for head in ("e", "pe"):
        for part, shape in _disc_shapes(FEATURE_DIM, DISC_HIDDEN):
            yield f"{head}_{part}", shape


# metadata field -> its JSON type; exact, since bool is an int subclass
_META_TYPES = {"seed": int, "k": int, "w_max": int, "n_filters": int,
               "embedding_trainable": bool, "vocab_tokens": list,
               "vocab_min_count": int, "vocab_hash": str, "config": dict}


def _check_meta(meta) -> None:
    if not isinstance(meta, dict):
        raise CheckpointError("metadata is not a JSON object")
    version = meta.get("version")
    if type(version) is not int or version != _CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version!r}")
    for name, kind in _META_TYPES.items():
        if type(meta[name]) is not kind:
            raise CheckpointError(f"metadata {name!r} must be a JSON {kind.__name__}, "
                                  f"got {meta[name]!r}")
    for name, low in (("seed", 0), ("k", 1), ("w_max", 1), ("n_filters", 1),
                      ("vocab_min_count", 1)):
        if meta[name] < low:
            raise CheckpointError(f"metadata {name!r} out of range: {meta[name]}")
    if meta["k"] > MAX_K:
        raise CheckpointError(f"metadata 'k' out of range: {meta['k']} > {MAX_K}")
    if meta["k"] < meta["w_max"]:
        raise CheckpointError(f"k = {meta['k']} is below w_max = {meta['w_max']}")
    if not all(isinstance(t, str) for t in meta["vocab_tokens"]):
        raise CheckpointError("metadata 'vocab_tokens' must be a list of strings")
    if meta["vocab_tokens"][:2] != [PAD_TOKEN, UNK_TOKEN]:
        raise CheckpointError(f"metadata 'vocab_tokens' must begin with "
                              f"{PAD_TOKEN!r}, {UNK_TOKEN!r}")


def load_checkpoint(path: str) -> ModelParams:
    """Read a checkpoint; a file that is not a complete, well-formed one
    raises CheckpointError naming ``path``."""
    try:
        return _read_checkpoint(path)
    except CheckpointError as exc:
        raise CheckpointError(f"{path}: {exc}") from None
    except KeyError as exc:  # a missing array or metadata field
        raise CheckpointError(f"{path}: incomplete checkpoint ({exc.args[0]})") from None
    except (ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise CheckpointError(f"{path}: unreadable checkpoint ({exc})") from None


def _read_checkpoint(path: str) -> ModelParams:
    with open(path, "rb") as fh:  # closed however the read ends
        # np.load's test for a zip; it would read any other file as .npy or pickle
        if fh.read(4) not in (b"PK\x03\x04", b"PK\x05\x06"):
            raise CheckpointError("not an npz checkpoint")
        fh.seek(0)
        npz = np.load(fh, allow_pickle=False)
        meta = json.loads(str(npz["__meta__"]))
        _check_meta(meta)
        vocab = Vocabulary(
            token_to_id={t: i for i, t in enumerate(meta["vocab_tokens"])},
            min_count=meta["vocab_min_count"],
        )
        if len(vocab) != len(meta["vocab_tokens"]):
            raise CheckpointError("vocabulary has repeated tokens")
        if vocab_hash(vocab) != meta["vocab_hash"]:
            raise CheckpointError("vocabulary hash mismatch; checkpoint is corrupt")
        emb = npz["embedding"]
        if emb.ndim != 2 or emb.shape[1] < 1:
            raise CheckpointError(f"embedding has shape {emb.shape}, expected (|V|, d >= 1)")
        # every array is checked before the model is built, so no size
        # read from the metadata is allocated unless the arrays agree
        tensors = {}
        for name, shape in _array_shapes(len(vocab), emb.shape[1],
                                         meta["w_max"], meta["n_filters"]):
            a = emb if name == "embedding" else npz[name]
            if a.dtype.kind != "f" or a.shape != shape:
                raise CheckpointError(
                    f"array {name!r} is {a.dtype} of shape {a.shape}, "
                    f"expected float of shape {shape}")
            if not np.isfinite(a).all():
                raise CheckpointError(f"array {name!r} holds non-finite values")
            tensors[name] = Tensor(a, requires_grad=(name != "embedding"
                                                     or meta["embedding_trainable"]))
    # built from the arrays, not through init_model: scoring then never
    # creates a random generator, whose import costs about 2 MB of RSS
    return ModelParams(tensors, vocab, meta["k"], meta["seed"], meta["config"])
