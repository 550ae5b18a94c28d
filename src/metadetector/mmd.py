"""Multi-kernel Gaussian MMD between event representations and the shift gate.

The gate statistic is computed once, before training, on mean-pooled word
embeddings of each post; weighting is enabled iff the distance d_k reaches
the threshold d*. There is one MMD^2, ``mmd_squared``: a sum over blocks of
rows of the pooled distance matrix, which is never held whole, made
symmetric in its two samples by putting them in a canonical order. The
blocks run on two threads, two blocks at a time, folded in block order, so
every result is bit for bit that of one block after another.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from .autodiff import Tensor
from .errors import DegenerateDataError, SampleSizeError
from .text import PAD_ID, EventCorpus, Vocabulary, token_ids

N_KERNELS = 7
# Rows of the pooled distance matrix in one block; the gate holds two blocks
# at a time, folded in block order. Another size changes mmd_squared's sums.
GATE_BLOCK_ROWS = 512
# Histogram keys are the top 19 value bits of a float64 (exponent and 8
# mantissa bits): a bin spans 1/256 of a power of two.
_KEY_SHIFT = 44


@dataclass
class KernelBank:
    """Squared bandwidths of the Gaussian kernel mixture (mean combination)."""
    sq_bandwidths: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.sq_bandwidths, dtype=np.float64)
        if np.any(b <= 0) or np.any(np.diff(b) <= 0):
            raise DegenerateDataError(
                "kernel bandwidths must be strictly positive and increasing")
        self.sq_bandwidths = b


@dataclass
class ShiftReport:
    d_k: float
    d_star: float
    gate_open: bool
    n_source: int
    n_target: int
    sq_bandwidths: list[float]

    def to_dict(self) -> dict:
        return asdict(self)


def _pairwise_sq_dists(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    d = (x ** 2).sum(axis=1, keepdims=True) + (y ** 2).sum(axis=1)
    xy = x @ y.T
    xy *= 2.0
    d -= xy
    return np.maximum(d, 0.0, out=d)


def _median_bank(median: float) -> KernelBank:
    """The median heuristic: sigma^2 in {median * 2^(j - n//2)}, n = N_KERNELS."""
    return KernelBank(
        sq_bandwidths=median * 2.0 ** (np.arange(N_KERNELS) - N_KERNELS // 2))


def median_bandwidths(pairwise_sq_dists: np.ndarray) -> KernelBank:
    """Median heuristic bank over the positive entries of ``pairwise_sq_dists``."""
    d = np.asarray(pairwise_sq_dists, dtype=np.float64).ravel()
    positive = d[d > 0]
    if positive.size == 0:
        raise DegenerateDataError("all pairwise distances are zero")
    return _median_bank(float(np.median(positive)))


def corpus_representations(corpus: EventCorpus, vocab: Vocabulary,
                           table: Tensor) -> np.ndarray:
    """Each post's mean embedding of its non-PAD tokens (all, not the first k);
    zeros for a post with none. One ``bincount`` per column sums in token
    order, as ``table[ids].mean(axis=0)`` does, so each mean is the same float."""
    ids, lengths = token_ids(corpus, vocab)
    posts = np.repeat(np.arange(len(corpus)), lengths)
    keep = ids != PAD_ID
    ids, posts = ids[keep], posts[keep]
    counts = np.maximum(np.bincount(posts, minlength=len(corpus)), 1)
    sums = [np.bincount(posts, col[ids], len(corpus)) for col in table.data.T]
    return np.stack(sums, axis=1) / counts[:, None]


def _upper_blocks(pooled: np.ndarray, fn):
    """``fn(i0, block)`` of each block of the pooled squared-distance matrix,
    yielded in block order, two blocks at a time on two worker threads.

    ``block[r, c]`` is the distance of rows ``i0 + r`` and ``i0 + c``, for
    ``GATE_BLOCK_ROWS`` rows from ``i0``; entries on and below the diagonal
    are +inf, so a block holds only pairs i < j. No block outlives its call.
    Callers fold the results as they come, in block order, so every sum is
    bit for bit that of one block after another. An exception in a block is
    raised here as it was, once both threads have stopped.
    """
    n, rows = len(pooled), GATE_BLOCK_ROWS

    def run(i0: int):
        i1 = min(i0 + rows, n)
        block = _pairwise_sq_dists(pooled[i0:i1], pooled[i0:])
        block[:, :i1 - i0][np.tril_indices(i1 - i0)] = np.inf
        return fn(i0, block)

    with ThreadPoolExecutor(max_workers=2) as pool:
        yield from pool.map(run, range(0, n, rows))


def _gate_median(pooled: np.ndarray) -> float:
    """Exact median of the non-zero distances ((x_i - x_j)^2).sum() over i < j.

    Pass 1 ranks the pairs by their Gram-expansion distances, from blocks of
    the centred rows: a histogram over the top bits of the float64 bit patterns,
    which are monotone in the value, finds the bins that hold the median
    ranks. A Gram distance is within ``margin`` (a bound on the rounding of
    both forms) of the direct one, so pass 2 counts the pairs surely below
    those bins widened by twice the margin, and recomputes the direct
    distance of every pair inside them. Identical rows are the zero pairs:
    they rank first and are left out.
    """
    n, dim = pooled.shape
    centred = pooled - pooled.mean(axis=0)  # same distances, smaller Gram rounding
    hist = np.zeros(1 << (63 - _KEY_SHIFT), dtype=np.int64)
    for counts in _upper_blocks(centred, lambda _, block: np.bincount(
            (block.view(np.int64) >> _KEY_SHIFT).ravel(), minlength=hist.size)):
        hist += counts

    _, copies = np.unique(pooled, axis=0, return_counts=True)
    n_zero = int((copies * (copies - 1) // 2).sum())
    n_pos = n * (n - 1) // 2 - n_zero
    if n_pos == 0:
        raise DegenerateDataError("all pairwise distances are zero")
    ranks = [n_zero + (n_pos - 1) // 2, n_zero + n_pos // 2]
    first, last = np.searchsorted(np.cumsum(hist), ranks, side="right")
    lo, hi = (np.array([first, last + 1]) << _KEY_SHIFT).view(np.float64)
    margin = 16.0 * (dim + 3) * np.finfo(np.float64).eps \
        * float((centred ** 2).sum(axis=1).max())
    lo, hi = lo - 2.0 * margin, hi + 2.0 * margin

    step = GATE_BLOCK_ROWS  # pairs whose direct distance is taken at a time

    def near(i0: int, block: np.ndarray):  # count below, direct distances inside
        rows, cols = np.nonzero((block >= lo) & (block <= hi))
        return int(np.count_nonzero(block < lo)), [
            ((pooled[i0 + rows[s:s + step]] - pooled[i0 + cols[s:s + step]]) ** 2).sum(axis=1)
            for s in range(0, len(rows), step)]

    below, direct = 0, []
    for count, distances in _upper_blocks(centred, near):
        below += count
        direct += distances
    kept = np.partition(np.concatenate(direct), [r - below for r in ranks])
    return float((kept[ranks[0] - below] + kept[ranks[1] - below]) / 2.0)


def mmd_squared(xs: np.ndarray, ys: np.ndarray, bank: KernelBank) -> float:
    """Biased V-statistic estimate of squared MMD under the kernel mixture.

    Sums over the pairs i < j of the pooled, centred samples, a block of
    ``_upper_blocks`` at a time: a diagonal entry counts once (each kernel
    is 1 there), an off-diagonal entry twice. The kernels run from the
    widest bandwidth down; one whose bandwidth halves the previous one is
    that kernel squared, so a median bank takes one exp per block. The
    samples are first put in a canonical order, which makes the result
    bit-for-bit symmetric in them.
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=np.float64))
    ys = np.atleast_2d(np.asarray(ys, dtype=np.float64))
    if len(xs) < 2 or len(ys) < 2:
        raise SampleSizeError(
            f"need at least 2 samples per side, got {len(xs)} and {len(ys)}")
    if (len(ys), ys.tobytes()) < (len(xs), xs.tobytes()):
        xs, ys = ys, xs
    n_x, n_y, n_k = len(xs), len(ys), len(bank.sq_bandwidths)
    centred = np.concatenate([xs, ys], axis=0)
    centred -= centred.mean(axis=0)  # same distances, smaller Gram rounding

    def kernel_sums(i0: int, block: np.ndarray) -> list[tuple[float, float, float]]:
        src = max(n_x - i0, 0)  # rows and columns of xs in the block
        k, wider, sums = np.empty_like(block), None, []
        for s2 in bank.sq_bandwidths[::-1]:
            if wider is not None and s2 * 2.0 == wider:
                np.multiply(k, k, out=k)
            else:
                np.exp(np.divide(block, -2.0 * s2, out=k), out=k)
            wider = s2
            sums.append((float(k[:src, :src].sum()), float(k[:src, src:].sum()),
                         float(k[src:, src:].sum())))
        return sums

    s_xx = s_yy = s_xy = 0.0
    for sums in _upper_blocks(centred, kernel_sums):
        for xx, xy, yy in sums:
            s_xx, s_xy, s_yy = s_xx + xx, s_xy + xy, s_yy + yy
    kxx = (n_x * n_k + 2.0 * s_xx) / (n_k * n_x ** 2)
    kyy = (n_y * n_k + 2.0 * s_yy) / (n_k * n_y ** 2)
    kxy = s_xy / (n_k * n_x * n_y)
    return kxx + kyy - 2.0 * kxy


def shift_gate(source: EventCorpus, target: EventCorpus, vocab: Vocabulary,
               table: Tensor, d_star: float = 0.8) -> ShiftReport:
    """Distance d_k = sqrt(max(0, MMD^2)) over post representations; gate on d_k >= d*.

    The bank is the median heuristic over distinct pairs of the pooled
    posts, and MMD^2 is ``mmd_squared`` under that bank. The pooled
    distance matrix is never held whole: its blocks run on two threads, two
    blocks at a time, folded in block order, so memory is
    O((n_s + n_t) * GATE_BLOCK_ROWS) and d_k is that of the serial sum.
    """
    xs = corpus_representations(source, vocab, table)
    ys = corpus_representations(target, vocab, table)
    bank = _median_bank(_gate_median(np.concatenate([xs, ys], axis=0)))
    d_k = float(np.sqrt(max(0.0, mmd_squared(xs, ys, bank))))
    return ShiftReport(d_k=d_k, d_star=d_star, gate_open=d_k >= d_star,
                       n_source=len(xs), n_target=len(ys),
                       sq_bandwidths=[float(b) for b in bank.sq_bandwidths])
