"""Reverse-mode automatic differentiation over dense float64 arrays.

A :class:`Tensor` is a tape node: an array, whether it requires grad, its
parent tensors and a backward closure, with no arithmetic of its own.
:func:`_op` makes one; the ops here are the fused Text-CNN feature op, relu,
inverted dropout, a row split and the gradient-reversal node, and the
model's heads and the training losses are fused ops made with it in
``model`` and ``training``. ``matmul``, ``concat``, ``sigmoid``,
``softmax_rows`` and the batch-only embedding lookup, valid text
convolution and max-over-time pooling run in no command: the benchmark's
tracer wraps them, and the tests build from them the composites the fused
ops are checked against. :func:`backward` walks the tape in reverse
topological order and hands each leaf tensor that requires grad its
gradient. No broadcasting, no GPU, no higher-order derivatives.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    ConfigurationError,
    ContractError,
    DimensionError,
    EmptySequenceError,
    VocabMismatchError,
)

LOG_CLAMP = 1e-12  # probabilities are clamped here before any log


class Tensor:
    """Dense float64 array; ``grad`` is None until :func:`backward` reaches it.

    A leaf (a tensor no op made) that requires grad gets ``grad``, of the
    same shape as ``data``, from the first :func:`backward` that reaches it;
    a later one adds to it out of place, until the caller resets it to None.
    ``grad`` is read-only: :func:`backward` may hand one array to two leaves.
    An op output never holds one, and requires grad iff one of its inputs
    does.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Optional[Callable[[np.ndarray], tuple]] = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def detach(self) -> "Tensor":
        """Same values, cut from the graph (no gradient flows through)."""
        return Tensor(self.data)

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])


def _clamped_log(p: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """log of ``p`` clamped at ``LOG_CLAMP``, the clamped values, and where
    the clamp leaves ``p`` as it is (the log's gradient is 0 elsewhere)."""
    clamped = np.maximum(p, LOG_CLAMP)
    return np.log(clamped), clamped, p >= LOG_CLAMP


def _op(data: np.ndarray, parents: Sequence[Tensor],
        bwd: Callable[[np.ndarray], tuple]) -> Tensor:
    out = Tensor(data, requires_grad=any(p.requires_grad for p in parents))
    out._parents = tuple(parents)
    out._backward = bwd
    return out


# -- linear algebra ---------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of two 2-D tensors."""
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul shape mismatch: {a.shape} x {b.shape}")
    return _op(a.data @ b.data, (a, b),
               lambda g: (g @ b.data.T, a.data.T @ g))


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate along an existing axis."""
    if not tensors:
        raise EmptySequenceError("concat of zero tensors")
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]
    return _op(data, tensors, lambda g: tuple(np.split(g, splits, axis=axis)))


def split_rows(x: Tensor, n: int) -> tuple[Tensor, Tensor]:
    """The first ``n`` rows of ``x`` and the rest, as two graph nodes."""
    if not 0 <= n <= x.shape[0]:
        raise DimensionError(f"cannot split {x.shape[0]} rows at {n}")
    shape = x.shape

    def part(rows: slice) -> Tensor:
        def bwd(g: np.ndarray) -> tuple:
            gx = np.zeros(shape)
            gx[rows] = g
            return (gx,)

        return _op(x.data[rows], (x,), bwd)

    return part(slice(0, n)), part(slice(n, None))


# -- activations ------------------------------------------------------------


def relu(x: Tensor) -> Tensor:
    """Elementwise max(0, x); subgradient 0 at exactly 0."""
    mask = x.data > 0
    return _op(np.where(mask, x.data, 0.0), (x,), lambda g: (g * mask,))


def _sigmoid(d: np.ndarray) -> np.ndarray:
    out = np.empty_like(d)
    pos = d >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-d[pos]))
    ex = np.exp(d[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid(x: Tensor) -> Tensor:
    """Numerically stable logistic function."""
    out = _sigmoid(x.data)
    return _op(out, (x,), lambda g: (g * out * (1.0 - out),))


def _softmax_rows(d: np.ndarray) -> np.ndarray:
    e = np.exp(d - d.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def _softmax_rows_grad(s: np.ndarray, g: np.ndarray) -> np.ndarray:
    return s * (g - (g * s).sum(axis=1, keepdims=True))


def softmax_rows(x: Tensor) -> Tensor:
    """Row-wise softmax of a 2-D tensor, max-subtraction stabilized."""
    if x.data.ndim != 2:
        raise DimensionError(f"softmax_rows expects a matrix, got shape {x.shape}")
    s = _softmax_rows(x.data)
    return _op(s, (x,), lambda g: (_softmax_rows_grad(s, g),))


# -- text convolution stack --------------------------------------------------


def conv_text(x: Tensor, filters: Tensor, bias: Tensor) -> Tensor:
    """Valid 1-D convolution over token positions, stride 1.

    ``x`` is ``(B, d, k)``; ``filters`` is ``(n_c, d, h)``; the output is
    ``(B, n_c, k - h + 1)``.
    """
    if x.data.ndim != 3:
        raise DimensionError(f"conv_text expects (B, d, k), got shape {x.shape}")
    B, d, k = x.shape
    n_c, fd, h = filters.shape
    if fd != d:
        raise DimensionError(f"filter width {fd} != embedding dim {d}")
    if h > k:
        raise ConfigurationError(f"window size {h} exceeds sequence length {k}")

    windows = np.lib.stride_tricks.sliding_window_view(x.data, h, axis=2)
    # windows: (B, d, L, h) with L = k - h + 1; flatten to (B, L, d*h) so the
    # contraction runs through BLAS rather than a generic einsum loop.
    L = k - h + 1
    win_flat = np.ascontiguousarray(windows.transpose(0, 2, 1, 3)).reshape(B, L, d * h)
    filt_flat = filters.data.reshape(n_c, d * h)
    data = (win_flat @ filt_flat.T).transpose(0, 2, 1)
    data += bias.data[None, :, None]

    def bwd(g: np.ndarray) -> tuple:
        g_bl = np.ascontiguousarray(g.transpose(0, 2, 1))  # (B, L, n_c)
        gwin = (g_bl @ filt_flat).reshape(B, L, d, h)
        gx = np.zeros_like(x.data)
        for j in range(h):  # loop over filter offsets, not positions
            gx[:, :, j:j + L] += gwin[:, :, :, j].transpose(0, 2, 1)
        gf = np.tensordot(g_bl, win_flat, axes=([0, 1], [0, 1])).reshape(n_c, d, h)
        gb = g.sum(axis=(0, 2))
        return gx, gf, gb

    return _op(data, (x, filters, bias), bwd)


def max_pool_full(c: Tensor) -> Tensor:
    """Maximum over the last axis; gradient routes to the first argmax."""
    if c.shape[-1] == 0:
        raise EmptySequenceError("max_pool_full over an empty sequence")
    arg = c.data.argmax(axis=-1)
    data = np.take_along_axis(c.data, arg[..., None], axis=-1)[..., 0]
    shape = c.shape

    def bwd(g: np.ndarray) -> tuple:
        gc = np.zeros(shape)
        np.put_along_axis(gc, arg[..., None], g[..., None], axis=-1)
        return (gc,)

    return _op(data, (c,), bwd)


def text_cnn(table: Tensor, ids: np.ndarray, filters: Sequence[Tensor],
             biases: Sequence[Tensor]) -> Tensor:
    """Embed, convolve and max-pool a batch of id rows in one op (Kim 2014).

    ``ids`` is ``(B, k)``; ``filters[h-1]`` is ``(n_c, d, h)`` and
    ``biases[h-1]`` is ``(n_c,)`` for windows ``h = 1 .. w_max``. The
    output ``(B, w_max * n_c)`` holds window h's maxima in column block
    h-1, each over the ``k - h + 1`` valid positions: the same as
    ``concat([max_pool_full(conv_text(embedding_lookup(table, ids), f, b))
    ...], axis=-1)``, up to matmul rounding. The gradient goes to the first
    argmax; the PAD row gets none, and no table gradient is computed while
    ``table.requires_grad`` is false.

    Forward is one im2col matmul with positions last; each window size's
    positions past the sequence are set to -inf, so one argmax over all
    positions takes each filter's first maximum over its valid ones.
    Backward is one scatter of the gradient per (distinct batch token,
    filter, offset) of the winning windows, then one matmul each for the
    filter and the table gradients, so its memory grows with the batch's
    distinct tokens, not with the table.
    """
    ids = np.asarray(ids)
    if ids.ndim != 2:
        raise DimensionError(f"ids must be 2-D, got shape {ids.shape}")
    vocab_size, d = table.shape
    if ids.size and (ids.min() < 0 or ids.max() >= vocab_size):
        raise VocabMismatchError(
            f"token id out of range for table of size {vocab_size}")
    if not filters:
        raise EmptySequenceError("text_cnn needs at least one filter bank")
    n_b, k = ids.shape
    w_max, n_c = len(filters), filters[0].shape[0]
    for h, f in enumerate(filters, start=1):
        if f.shape != (n_c, d, h):
            raise DimensionError(
                f"filter bank {h} has shape {f.shape}, expected {(n_c, d, h)}")
    if w_max > k:
        raise ConfigurationError(f"window size {w_max} exceeds sequence length {k}")
    n_out = w_max * n_c
    banks = [slice((h - 1) * n_c, h * n_c) for h in range(1, w_max + 1)]

    # each bank's rows, one per (filter, offset): taps[h-1] is (n_c * h, d)
    taps = [f.data.transpose(0, 2, 1).reshape(-1, d) for f in filters]
    # one bank of w_max-wide filters; offsets past a filter's own window are 0
    bank = np.zeros((n_out, w_max * d))
    for h, rows in enumerate(banks, start=1):
        bank[rows, :h * d] = taps[h - 1].reshape(n_c, h * d)
    padded = np.zeros((n_b, k + w_max - 1), dtype=ids.dtype)  # right-padded with PAD
    padded[:, :k] = ids
    window_ids = np.lib.stride_tricks.sliding_window_view(padded, w_max, axis=1)
    # im2col by gather; np.take copies rows faster than fancy indexing
    cols = np.take(table.data, window_ids, axis=0).reshape(n_b * k, w_max * d)
    # positions last, so each filter's are contiguous; window h takes its
    # first maximum over its own k - h + 1 positions, since its tail
    # positions, which read past the sequence, are set to -inf first
    conv = (bank @ cols.T).reshape(n_out, n_b, k)
    for h, rows in enumerate(banks, start=1):
        conv[rows, :, k - h + 1:] = -np.inf
    arg = conv.argmax(axis=-1)
    # a bias shifts every position alike: added after the max, it gives the same float
    data = (np.take_along_axis(conv, arg[..., None], axis=-1)[..., 0].T
            + np.concatenate([b.data for b in biases]))

    def bwd(g: np.ndarray) -> tuple:
        # one scatter sums g per (distinct batch token, tap) of the winning
        # windows; a matmul with the table then gives the filter gradients,
        # and one with the taps the table's
        uniq, inv = np.unique(padded, return_inverse=True)
        inv = inv.reshape(padded.shape)
        first = np.cumsum([0] + [len(t) for t in taps])  # each bank's first tap
        keys, weights = [], []
        for h, rows in enumerate(banks, start=1):
            toks = inv[np.arange(n_b)[:, None], arg[rows, :, None] + np.arange(h)]
            tap = first[h - 1] + np.arange(n_c * h).reshape(n_c, 1, h)
            keys.append((toks * first[-1] + tap).reshape(-1))
            weights.append(np.repeat(g[:, rows].T, h))
        sums = np.bincount(np.concatenate(keys), np.concatenate(weights),
                           minlength=len(uniq) * first[-1]).reshape(len(uniq), -1)
        g_taps = np.split(sums.T @ table.data[uniq], first[1:-1])
        gfs = [gf.reshape(n_c, h, d).transpose(0, 2, 1)
               for h, gf in enumerate(g_taps, start=1)]
        gbs = list(g.sum(axis=0).reshape(w_max, n_c))
        gt = None
        if table.requires_grad:
            gt = np.zeros((vocab_size, d))
            gt[uniq] = sums @ np.concatenate(taps)
            gt[0] = 0.0  # PAD row stays frozen
        return (gt, *gfs, *gbs)

    return _op(data, (table, *filters, *biases), bwd)


# -- stochastic / structural nodes -------------------------------------------


def dropout(x: Tensor, rate: float,
            rng: Optional[np.random.Generator] = None) -> Tensor:
    """Inverted dropout: survivors scaled by 1/(1-rate); the identity without
    an ``rng`` (inference) or at rate 0."""
    if not 0.0 <= rate < 1.0:
        raise ConfigurationError(f"dropout rate must be in [0, 1), got {rate}")
    if rng is None or rate == 0.0:
        return x
    mask = (rng.random(x.shape) >= rate) / (1.0 - rate)
    return _op(x.data * mask, (x,), lambda g: (g * mask,))


def grl(x: Tensor, lam: float) -> Tensor:
    """Gradient reversal: identity forward, upstream gradient times -lam."""
    if lam < 0:
        raise ConfigurationError(f"gradient-reversal gain must be >= 0, got {lam}")
    return _op(x.data, (x,), lambda g: (-lam * g,))


def embedding_lookup(table: Tensor, ids: np.ndarray) -> Tensor:
    """Gather embedding rows as columns: ``(B, k)`` ids give ``(B, d, k)``.
    Row 0 (PAD) never receives gradient."""
    ids = np.asarray(ids)
    if ids.ndim != 2:
        raise DimensionError(f"ids must be 2-D, got shape {ids.shape}")
    vocab_size, d = table.shape
    if ids.size and (ids.min() < 0 or ids.max() >= vocab_size):
        raise VocabMismatchError(
            f"token id out of range for table of size {vocab_size}")

    def bwd(g: np.ndarray) -> tuple:
        gt = np.zeros((vocab_size, d))
        np.add.at(gt, ids.reshape(-1), g.transpose(0, 2, 1).reshape(-1, d))
        gt[0] = 0.0  # PAD row stays frozen
        return (gt,)

    return _op(table.data[ids].transpose(0, 2, 1), (table,), bwd)


# -- backward pass ------------------------------------------------------------


def backward(seed: Tensor) -> None:
    """Hand d(seed)/d(leaf) to every requires_grad leaf the seed reaches.

    ``seed`` must be scalar. Only nodes that require grad are visited, so a
    frozen embedding table and the ops on it are never differentiated.
    Intermediate gradients are transient. A leaf with ``grad`` None takes
    its gradient as a closure returned it; one that holds a gradient gets
    the sum, so gradients add up across calls until the caller resets them.
    A closure's returned arrays are never written: every sum is out of place.
    """
    if seed.size != 1:
        raise ContractError(f"backward seed must be scalar, got shape {seed.shape}")

    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(seed, False)] if seed.requires_grad else []
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in visited:
                stack.append((p, False))

    grads: dict[int, np.ndarray] = {id(seed): np.ones_like(seed.data)}
    for node in reversed(topo):
        g = grads.pop(id(node))
        if node._backward is None:
            node.grad = g if node.grad is None else node.grad + g
            continue
        for parent, pg in zip(node._parents, node._backward(g)):
            if not parent.requires_grad:
                continue
            acc = grads.get(id(parent))
            grads[id(parent)] = pg if acc is None else acc + pg
