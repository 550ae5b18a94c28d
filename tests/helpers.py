"""Shared test utilities: finite-difference oracles and model fixtures."""

from __future__ import annotations

import numpy as np

from metadetector.autodiff import Tensor, backward
from metadetector.model import (
    ModelParams,
    detect,
    discriminate_event,
    extract_features,
    init_model,
    pseudo_discriminate,
    trained_tensors,
)
from metadetector.text import Vocabulary, random_table
from metadetector.training import (
    loss_detection_weighted,
    loss_event_weighted,
    loss_pseudo,
    total_loss,
)

FD_STEP = 1e-5


def central_difference(f, tensor: Tensor, step: float = FD_STEP) -> np.ndarray:
    """Central finite differences of scalar f() w.r.t. every entry of tensor."""
    grad = np.zeros_like(tensor.data)
    flat = tensor.data.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        up = f()
        flat[i] = orig - step
        down = f()
        flat[i] = orig
        gflat[i] = (up - down) / (2.0 * step)
    return grad


def rel_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    diff = np.abs(analytic - numeric)
    scale = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-4)
    return float((diff / scale).max())


def tiny_vocab(size: int) -> Vocabulary:
    mapping = {"<pad>": 0, "<unk>": 1}
    for i in range(size - 2):
        mapping[f"tok{i}"] = i + 2
    return Vocabulary(token_to_id=mapping, min_count=1)


def build_tiny_model(vocab_size=50, dim=8, k=12, n_filters=4, w_max=3,
                     seed=7) -> ModelParams:
    vocab = tiny_vocab(vocab_size)
    table = random_table(vocab_size, dim, np.random.default_rng(seed))
    return init_model(vocab, table, k, seed, n_filters=n_filters, w_max=w_max)


def random_batch(params: ModelParams, b_s=3, b_t=3, seed=11):
    rng = np.random.default_rng(seed)
    vs = params.theta_f.embedding.shape[0]
    ids_s = rng.integers(1, vs, size=(b_s, params.k))
    ids_t = rng.integers(1, vs, size=(b_t, params.k))
    y_s = rng.integers(0, 2, size=b_s)
    return ids_s, y_s, ids_t


def forward_losses(params: ModelParams, ids_s, y_s, ids_t, lam, weights):
    """All three component losses on one batch, dropout off, fixed weights."""
    feats_s = extract_features(ids_s, params.theta_f)
    feats_t = extract_features(ids_t, params.theta_f)
    l_pe = loss_pseudo(pseudo_discriminate(feats_s, params.theta_pe),
                       pseudo_discriminate(feats_t, params.theta_pe))
    l_yw = loss_detection_weighted(detect(feats_s, params.theta_y), y_s, weights)
    l_ew = loss_event_weighted(discriminate_event(feats_s, params.theta_e, lam),
                               discriminate_event(feats_t, params.theta_e, lam),
                               weights)
    return l_yw, l_pe, l_ew


def analytic_model_grads(params: ModelParams, ids_s, y_s, ids_t,
                         lam, mu, weights) -> dict[int, np.ndarray]:
    """Gradients of the training objective, keyed by id(tensor)."""
    for t in trained_tensors(params).values():
        t.grad = None
    l_yw, l_pe, l_ew = forward_losses(params, ids_s, y_s, ids_t, lam, weights)
    backward(total_loss(l_yw, l_pe, l_ew, mu))
    return {id(t): t.grad.copy() for t in trained_tensors(params).values()}


def block_objective(params: ModelParams, block: str, ids_s, y_s, ids_t,
                    lam, mu, weights) -> float:
    """The scalar each parameter block actually descends on.

    The reversal node and the detached pseudo features make the training
    gradient the gradient of a different scalar per block; finite
    differences must target that scalar to be a fair oracle.
    """
    l_yw, l_pe, l_ew = forward_losses(params, ids_s, y_s, ids_t, lam, weights)
    if block == "theta_f":
        return l_yw.item() - lam * l_ew.item()
    if block == "theta_y":
        return l_yw.item()
    if block == "theta_e":
        return l_ew.item()
    if block == "theta_pe":
        return mu * l_pe.item()
    raise ValueError(block)


# first part of a trained tensor's layout name -> its parameter block
BLOCK_OF = {"f": "theta_f", "embedding": "theta_f", "y": "theta_y",
            "e": "theta_e", "pe": "theta_pe"}


def model_blocks(params: ModelParams) -> dict[str, list[Tensor]]:
    """The trained tensors grouped by parameter block, in layout order."""
    blocks: dict[str, list[Tensor]] = {}
    for name, t in trained_tensors(params).items():
        blocks.setdefault(BLOCK_OF[name.split("_")[0]], []).append(t)
    return blocks
