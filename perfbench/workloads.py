"""What each workload feeds the program and which commands it runs.

All inputs follow from the run's ``--seed``: corpora come from
``metadetector.data_synth`` with that seed (or seeds derived from it), and
the training runs get the same ``--seed``.
"""

from __future__ import annotations

import numpy as np

# The criterion 7-8 family: two events, strong shift, 20% anomalous source posts.
ACCEPTANCE_DATA = dict(n_source=2000, n_target=2000, shift=0.9, signal_strength=0.8,
                       specific_vocab_size=4, shared_vocab_size=100, post_length=40,
                       fake_ratio=0.4)
ANOMALY_FRACTION = 0.2
ANOMALY_SEED_OFFSET = 1000

# ~16k tokens, almost all event-specific, so the two events share few words
# but their mean-pooled vectors are alike and the gate stays closed.
WIDE_DATA = dict(n_source=3000, n_target=3000, shift=0.5, signal_strength=0.8,
                 specific_vocab_size=8000, shared_vocab_size=100, post_length=40,
                 fake_ratio=0.5)
WIDE_DIM = 32
WIDE_SCALE = 0.3       # std of each pretrained vector component
WIDE_LABEL_DIR = 2.0   # signal tokens sit this far along a shared +/- direction

# Posts in each part of a workload's labelled eval corpus (target event);
# parts are generated in parallel.
EVAL_PARTS = {"train-acceptance": (10000,), "train-wide-frozen": (5000,),
              "score": (15000, 15000)}

ACCEPTANCE_TRAIN = ["--epochs", "50", "--lr", "0.1", "--lambda", "0.2", "--mu", "0.7",
                    "--d-star", "0.6", "--batch-size", "200", "--weighting", "auto"]
ACCEPTANCE_CONFIG = {"embedding_dim": 16, "n_filters": 12}
WIDE_TRAIN = ["--epochs", "3", "--lr", "0.1", "--lambda", "0.2", "--d-star", "0.6",
              "--batch-size", "200", "--weighting", "auto"]
WIDE_CONFIG = {"embedding_dim": WIDE_DIM, "freeze_embeddings": True}
# score trains its checkpoint in set-up: the acceptance model, briefly.
SCORE_TRAIN = ["--epochs", "3", "--lr", "0.1", "--lambda", "0.2", "--mu", "0.7",
               "--d-star", "0.6", "--batch-size", "200", "--weighting", "auto"]

# Scoring passes (eval + weights) after each training. Two runs of the same
# eval could differ by half, so a run reports the median pass.
TRAIN_SCORE_PASSES = 3

WORKLOADS = ("train-acceptance", "train-wide-frozen", "score")


def train_flags(workload: str) -> tuple[list[str], dict]:
    return {"train-acceptance": (ACCEPTANCE_TRAIN, ACCEPTANCE_CONFIG),
            "train-wide-frozen": (WIDE_TRAIN, WIDE_CONFIG),
            "score": (SCORE_TRAIN, ACCEPTANCE_CONFIG)}[workload]


def data_spec(workload: str) -> dict:
    return WIDE_DATA if workload == "train-wide-frozen" else ACCEPTANCE_DATA


def derived_seed(seed: int, *salt: int) -> int:
    return int(np.random.SeedSequence([seed, *salt]).generate_state(1)[0])


def steps_per_epoch(n_source: int, n_target: int, batch_size: int) -> int:
    half = batch_size // 2
    return -(-max(n_source, n_target) // half)
