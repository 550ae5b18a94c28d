"""Computations the output checks compare against, made apart from the program.

Nothing here imports ``metadetector``: the tokenizer, the encoder, the
Text-CNN forward pass and the shift gate are written again from their
documented rules, in plain NumPy and SciPy, so that a fault in the program
cannot hide itself by being shared with its check.
"""

from __future__ import annotations

import json
import unicodedata

import numpy as np
from scipy.spatial.distance import cdist, pdist

UNK_ID = 1
N_KERNELS = 7

# Probability gaps at or below this are rounding-level ties: two float64
# forward passes that sum in different orders may pick either class.
TIE_GAP = 1e-9

_CJK = ((0x4E00, 0x9FFF), (0x3400, 0x4DBF), (0xF900, 0xFAFF))


def tokenize(text: str) -> list[str]:
    """Lowercase, split on whitespace, strip edge punctuation, CJK to chars."""
    out = []
    for raw in text.lower().split():
        if raw.isascii() and raw.isalnum():  # nothing to strip or split
            out.append(raw)
            continue
        start, end = 0, len(raw)
        while start < end and unicodedata.category(raw[start])[0] == "P":
            start += 1
        while end > start and unicodedata.category(raw[end - 1])[0] == "P":
            end -= 1
        word = raw[start:end]
        if word.isascii():
            if word:
                out.append(word)
            continue
        buf = ""
        for ch in word:
            if any(lo <= ord(ch) <= hi for lo, hi in _CJK):
                if buf:
                    out.append(buf)
                    buf = ""
                out.append(ch)
            else:
                buf += ch
        if buf:
            out.append(buf)
    return out


def read_corpus(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


class Checkpoint:
    """The arrays and vocabulary of a saved model, read straight from the npz."""

    def __init__(self, path: str):
        with np.load(path, allow_pickle=False) as npz:
            self.meta = json.loads(str(npz["__meta__"]))
            self.arrays = {name: npz[name] for name in npz.files if name != "__meta__"}
        self.k = int(self.meta["k"])
        self.w_max = int(self.meta["w_max"])
        self.token_to_id = {t: i for i, t in enumerate(self.meta["vocab_tokens"])}

    def encode(self, texts: list[str]) -> np.ndarray:
        ids = np.zeros((len(texts), self.k), dtype=np.int64)
        for row, text in enumerate(texts):
            toks = tokenize(text)[:self.k]
            ids[row, :len(toks)] = [self.token_to_id.get(t, UNK_ID) for t in toks]
        return ids

    def features(self, ids: np.ndarray, chunk: int = 2000) -> np.ndarray:
        """Text-CNN features with dropout off: valid conv per window, max-pool, relu(fc)."""
        a = self.arrays
        out = []
        for start in range(0, len(ids), chunk):
            rows = ids[start:start + chunk]
            x = a["embedding"][rows.reshape(-1)]  # (B * k, d)
            pooled = []
            for i in range(self.w_max):
                f = a[f"f_filter_{i}"]  # (n_c, d, h)
                h = f.shape[2]
                length = self.k - h + 1
                # filter offset j contributes x[p + j] . f[:, :, j] at position p
                conv = 0.0
                for j in range(h):
                    per_token = (x @ f[:, :, j].T).reshape(len(rows), self.k, -1)
                    conv = conv + per_token[:, j:j + length]
                pooled.append((conv + a[f"f_bias_{i}"]).max(axis=1))
            c = np.concatenate(pooled, axis=1)
            out.append(np.maximum(c @ a["f_w_fc"].T + a["f_b_fc"], 0.0))
        return np.concatenate(out)

    def class_probs(self, feats: np.ndarray) -> np.ndarray:
        z = feats @ self.arrays["y_w"].T + self.arrays["y_b"]
        e = np.exp(z - z.max(axis=1, keepdims=True))
        return e / e.sum(axis=1, keepdims=True)

    def pseudo_probs(self, feats: np.ndarray) -> np.ndarray:
        a = self.arrays
        h = np.maximum(feats @ a["pe_w1"].T + a["pe_b1"], 0.0)
        z = (h @ a["pe_w2"].T + a["pe_b2"])[:, 0]
        return 0.5 * (1.0 + np.tanh(0.5 * z))  # logistic, overflow-free


def post_means(texts: list[str], vectors: dict[str, np.ndarray], dim: int) -> np.ndarray:
    """Mean word vector of each post; every token must have a vector."""
    reps = np.zeros((len(texts), dim))
    for row, text in enumerate(texts):
        toks = tokenize(text)
        if toks:
            reps[row] = np.mean([vectors[t] for t in toks], axis=0)
    return reps


def shift_gate_d_k(xs: np.ndarray, ys: np.ndarray) -> float:
    """d_k = sqrt(max(0, MMD^2)), mean of 7 Gaussian kernels, biased V-statistic.

    Bandwidths follow the median heuristic over distinct pooled pairs
    (i < j, exact differences), times 2^(j - 3).
    """
    pooled = np.concatenate([xs, ys])
    d = pdist(pooled, "sqeuclidean")
    base = float(np.median(d[d > 0]))
    bank = base * 2.0 ** (np.arange(N_KERNELS) - N_KERNELS // 2)

    def mean_kernel(a, b):
        sq = cdist(a, b, "sqeuclidean")
        return float(np.mean([np.exp(-sq / (2.0 * s2)).mean() for s2 in bank]))

    mmd2 = mean_kernel(xs, xs) + mean_kernel(ys, ys) - 2.0 * mean_kernel(xs, ys)
    return float(np.sqrt(max(0.0, mmd2)))
