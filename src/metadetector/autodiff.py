"""Reverse-mode automatic differentiation over dense float64 arrays.

Provides exactly the operations the detection model needs (dense matmul,
the fused Text-CNN feature op, the usual activations, inverted dropout, a
row split) plus a gradient-reversal node. The unfused embedding lookup,
valid text convolution and max-over-time pooling stay as the reference the
fused op is tested against. Graphs are implicit tapes: each op output
records its parent tensors and a backward closure, and :func:`backward`
walks the tape in reverse topological order, accumulating gradients into
leaf tensors. No general broadcasting, no GPU, no higher-order derivatives.
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
    """Dense float64 array; a leaf also holds an accumulated-gradient buffer.

    A leaf (a tensor made by this constructor) has ``grad`` of the same
    shape as ``data``; gradients accumulate there across successive
    :func:`backward` calls until :meth:`zero_grad`. An op output has
    ``grad = None`` and requires grad iff one of its inputs does.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = np.zeros_like(self.data)
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Optional[Callable[[np.ndarray], tuple]] = None

    # -- bookkeeping ------------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def zero_grad(self) -> None:
        self.grad[...] = 0.0

    def detach(self) -> "Tensor":
        """Same values, cut from the graph (no gradient flows through)."""
        return Tensor(self.data)

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- elementwise arithmetic -------------------------------------------

    def __add__(self, other) -> "Tensor":
        other = _as_tensor(other)
        data = self.data + other.data
        sa, sb = self.shape, other.shape
        return _op(data, (self, other),
                   lambda g: (_unbroadcast(g, sa), _unbroadcast(g, sb)))

    __radd__ = __add__

    def __mul__(self, other) -> "Tensor":
        other = _as_tensor(other)
        data = self.data * other.data
        a, b = self, other
        return _op(data, (a, b),
                   lambda g: (_unbroadcast(g * b.data, a.shape),
                              _unbroadcast(g * a.data, b.shape)))

    __rmul__ = __mul__

    def __neg__(self) -> "Tensor":
        return _op(-self.data, (self,), lambda g: (-g,))

    def __sub__(self, other) -> "Tensor":
        return self + (-_as_tensor(other))

    def __rsub__(self, other) -> "Tensor":
        return _as_tensor(other) + (-self)

    # -- reductions / shape -----------------------------------------------

    def sum(self, axis: Optional[int] = None) -> "Tensor":
        data = self.data.sum(axis=axis)
        shape = self.shape

        def bwd(g: np.ndarray) -> tuple:
            if axis is None:
                return (np.broadcast_to(g, shape).copy(),)
            return (np.broadcast_to(np.expand_dims(g, axis), shape).copy(),)

        return _op(data, (self,), bwd)

    def mean(self, axis: Optional[int] = None) -> "Tensor":
        n = self.size if axis is None else self.shape[axis]
        return self.sum(axis=axis) * (1.0 / n)

    def log(self) -> "Tensor":
        """Natural log with the argument clamped at ``LOG_CLAMP``."""
        clamped = np.maximum(self.data, LOG_CLAMP)
        mask = self.data >= LOG_CLAMP
        return _op(np.log(clamped), (self,),
                   lambda g: (np.where(mask, g / clamped, 0.0),))

    def reshape(self, shape: tuple[int, ...]) -> "Tensor":
        old = self.shape
        return _op(self.data.reshape(shape), (self,),
                   lambda g: (g.reshape(old),))

    @property
    def T(self) -> "Tensor":
        if self.ndim != 2:
            raise DimensionError(f"transpose expects a matrix, got shape {self.shape}")
        return _op(self.data.T.copy(), (self,), lambda g: (g.T,))


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _op(data: np.ndarray, parents: Sequence[Tensor],
        bwd: Callable[[np.ndarray], tuple]) -> Tensor:
    out = Tensor.__new__(Tensor)  # no grad buffer: only leaves keep one
    out.data = np.asarray(data, dtype=np.float64)
    out.grad = None
    out.requires_grad = any(p.requires_grad for p in parents)
    out._parents = tuple(parents)
    out._backward = bwd
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    # collapse gradient of a broadcast operand back to its own shape
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for i, s in enumerate(shape):
        if s == 1 and grad.shape[i] != 1:
            grad = grad.sum(axis=i, keepdims=True)
    return grad


# -- linear algebra ---------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of two 2-D tensors."""
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
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


def sigmoid(x: Tensor) -> Tensor:
    """Numerically stable logistic function."""
    d = x.data
    out = np.empty_like(d)
    pos = d >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-d[pos]))
    ex = np.exp(d[~pos])
    out[~pos] = ex / (1.0 + ex)
    return _op(out, (x,), lambda g: (g * out * (1.0 - out),))


def softmax_rows(x: Tensor) -> Tensor:
    """Row-wise softmax of a 2-D tensor, max-subtraction stabilized."""
    if x.ndim != 2:
        raise DimensionError(f"softmax_rows expects a matrix, got shape {x.shape}")
    shifted = x.data - x.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=1, keepdims=True)
    return _op(s, (x,),
               lambda g: (s * (g - (g * s).sum(axis=1, keepdims=True)),))


# -- text convolution stack --------------------------------------------------


def conv_text(x: Tensor, filters: Tensor, bias: Tensor) -> Tensor:
    """Valid 1-D convolution over token positions, stride 1.

    ``x`` is ``(d, k)`` or batched ``(B, d, k)``; ``filters`` is
    ``(n_c, d, h)``; output has ``k - h + 1`` positions per filter.
    """
    batched = x.ndim == 3
    x3 = x if batched else x.reshape((1,) + x.shape)
    _, d, k = x3.shape
    n_c, fd, h = filters.shape
    if fd != d:
        raise DimensionError(f"filter width {fd} != embedding dim {d}")
    if h > k:
        raise ConfigurationError(f"window size {h} exceeds sequence length {k}")

    windows = np.lib.stride_tricks.sliding_window_view(x3.data, h, axis=2)
    # windows: (B, d, L, h) with L = k - h + 1; flatten to (B, L, d*h) so the
    # contraction runs through BLAS rather than a generic einsum loop.
    L = k - h + 1
    B = x3.shape[0]
    win_flat = np.ascontiguousarray(windows.transpose(0, 2, 1, 3)).reshape(B, L, d * h)
    filt_flat = filters.data.reshape(n_c, d * h)
    data = (win_flat @ filt_flat.T).transpose(0, 2, 1)
    data += bias.data[None, :, None]

    def bwd(g: np.ndarray) -> tuple:
        g_bl = np.ascontiguousarray(g.transpose(0, 2, 1))  # (B, L, n_c)
        gwin = (g_bl @ filt_flat).reshape(B, L, d, h)
        gx = np.zeros_like(x3.data)
        for j in range(h):  # loop over filter offsets, not positions
            gx[:, :, j:j + L] += gwin[:, :, :, j].transpose(0, 2, 1)
        gf = np.tensordot(g_bl, win_flat, axes=([0, 1], [0, 1])).reshape(n_c, d, h)
        gb = g.sum(axis=(0, 2))
        return gx, gf, gb

    out = _op(data, (x3, filters, bias), bwd)
    return out if batched else out.reshape((n_c, L))


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

    Forward is one im2col matmul with positions last, then a first argmax
    per window size over its valid positions only. Backward is one scatter
    of the gradient per (distinct batch token, filter, offset) of the
    winning windows, then one matmul each for the filter and the table
    gradients, so its memory grows with the batch's distinct tokens, not
    with the table.
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
    cols = table.data[window_ids].reshape(n_b * k, w_max * d)  # im2col by gather
    # positions last, so each filter's are contiguous; window h takes its
    # first maximum over its own k - h + 1 positions
    conv = (bank @ cols.T).reshape(n_out, n_b, k)
    arg = np.empty((n_out, n_b), dtype=np.intp)
    for h, rows in enumerate(banks, start=1):
        arg[rows] = conv[rows, :, :k - h + 1].argmax(axis=-1)
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
    """Gather embedding rows as columns.

    ``ids`` of shape ``(k,)`` yields ``(d, k)``; shape ``(B, k)`` yields
    ``(B, d, k)``. Row 0 (PAD) never receives gradient.
    """
    ids = np.asarray(ids)
    vocab_size, d = table.shape
    if ids.size and (ids.min() < 0 or ids.max() >= vocab_size):
        raise VocabMismatchError(
            f"token id out of range for table of size {vocab_size}")
    if ids.ndim == 1:
        data = table.data[ids].T  # (d, k)
    elif ids.ndim == 2:
        data = table.data[ids].transpose(0, 2, 1)  # (B, d, k)
    else:
        raise DimensionError(f"ids must be 1-D or 2-D, got shape {ids.shape}")

    def bwd(g: np.ndarray) -> tuple:
        gt = np.zeros((vocab_size, d))
        if ids.ndim == 1:
            cols = g.T  # (k, d)
            flat = ids
        else:
            cols = g.transpose(0, 2, 1).reshape(-1, d)
            flat = ids.reshape(-1)
        np.add.at(gt, flat, cols)
        gt[0] = 0.0  # PAD row stays frozen
        return (gt,)

    return _op(data, (table,), bwd)


# -- backward pass ------------------------------------------------------------


def backward(seed: Tensor) -> None:
    """Accumulate d(seed)/d(leaf) into every requires_grad leaf.

    ``seed`` must be scalar. Only nodes that require grad are visited, so a
    frozen embedding table and the ops on it are never differentiated.
    Intermediate gradients are transient; leaf gradients accumulate across
    calls until explicitly zeroed.
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
            node.grad += g
            continue
        for parent, pg in zip(node._parents, node._backward(g)):
            if not parent.requires_grad:
                continue
            acc = grads.get(id(parent))
            if acc is None:
                grads[id(parent)] = np.array(pg, dtype=np.float64, copy=True)
            else:
                acc += pg
