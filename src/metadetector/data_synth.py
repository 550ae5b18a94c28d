"""Deterministic synthetic two-event corpus generator with controllable shift.

Posts are token bags. Each slot is event-specific with probability
``shift`` and shared-neutral otherwise; with probability
``signal_strength`` a few slots are overwritten by label-bearing shared
tokens, so the Bayes rule over shared tokens attains accuracy
signal_strength + (1 - signal_strength) * max(fake_ratio, 1 - fake_ratio)
on both events. Each post additionally draws its event-specific tokens
from one half of the event vocabulary, and the half correlates with the
label (a within-event shortcut). The shortcut is stronger than the shared
signal within either event, but a detector trained on one event has never
seen the other event's tokens, so relying on it buys nothing on the
target side without feature alignment.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .text import EventCorpus, Post

SOURCE_EVENT = "event1"
TARGET_EVENT = "event2"


@dataclass
class SynthSpec:
    n_source: int = 2000
    n_target: int = 2000
    shared_vocab_size: int = 200
    specific_vocab_size: int = 200
    shift: float = 0.5
    signal_strength: float = 0.8
    fake_ratio: float = 0.5
    post_length: int = 20
    seed: int = 0

    def __post_init__(self):
        if self.n_source < 1 or self.n_target < 1:
            raise ConfigurationError("corpus sizes must be positive")
        if self.shared_vocab_size < 3 or self.specific_vocab_size < 1:
            raise ConfigurationError(
                "need shared_vocab_size >= 3 and specific_vocab_size >= 1")
        for name in ("shift", "signal_strength", "fake_ratio"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ConfigurationError(f"{name} must be in [0, 1], got {v}")
        if self.post_length < 1:
            raise ConfigurationError("post_length must be >= 1")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {self.seed}")

    # disjoint vocabulary partitions
    @property
    def n_signal(self) -> int:
        return max(1, self.shared_vocab_size // 10)

    def signal_tokens(self, label: int) -> list[str]:
        stem = "real" if label == 1 else "fake"
        return [f"{stem}{i}" for i in range(self.n_signal)]

    @property
    def neutral_tokens(self) -> list[str]:
        n = self.shared_vocab_size - 2 * self.n_signal
        return [f"w{i}" for i in range(max(1, n))]

    def specific_tokens(self, event_id: str) -> list[str]:
        stem = "e1v" if event_id == SOURCE_EVENT else "e2v"
        return [f"{stem}{i}" for i in range(self.specific_vocab_size)]

    def specific_pool(self, event_id: str, half: int) -> list[str]:
        """One half of the event-specific vocabulary (0 = first, 1 = second)."""
        tokens = self.specific_tokens(event_id)
        mid = len(tokens) // 2
        if mid == 0:
            return tokens
        return tokens[:mid] if half == 0 else tokens[mid:]

    def style_pool(self, half: int) -> list[str]:
        """Shared-neutral tokens that act as idiomatic style markers."""
        pool = self.neutral_tokens[:2 * N_STYLE]
        return pool[:N_STYLE] if half == 0 else pool[N_STYLE:]


# Probability that a post's specific-token half matches its label. The
# within-event shortcut is deliberately attractive (0.9 vs a signal carried
# by only ``signal_strength`` of posts) but useless across events: a model
# trained on one event has never seen the other event's tokens, so the
# shortcut contributes nothing on the target side.
HALF_PURITY = 0.95

# Number of token slots overwritten with label-bearing signal tokens in a
# signal-carrying post. Presence (and hence the Bayes rate over shared
# tokens) is governed by ``signal_strength`` alone; extra slots only make
# the shared-signal feature easier to locate.
SIGNAL_SLOTS = 3

# Style markers: a slice of the shared-neutral vocabulary used as idiom.
# A fraction of source posts carry dense style tokens whose half tracks the
# label (an association that is real within the source event but purely
# idiomatic); target posts use style tokens more rarely and with no label
# association. A detector trained on raw source data inherits a shared-token
# cue that does not generalize — exactly the posts the pseudo-event weights
# should suppress. The Bayes rule over shared tokens is unaffected on the
# target and only improves on the source, so the signal_strength bound holds.
# The source-side asymmetry (rate and label purity) is scaled by ``shift``
# so that at shift = 0 the two corpora stay exchangeable.
N_STYLE = 5              # tokens per style half
STYLE_SLOTS = 3          # slots overwritten in a style-carrying post
STYLE_RATE_SOURCE = 0.52  # source style rate at shift = 1
STYLE_RATE_TARGET = 0.3
STYLE_PURITY = 1.0       # P(style half == label) in source posts at shift = 1


def _style_params(spec: SynthSpec, is_source: bool) -> tuple[float, float]:
    """(rate, purity) for one side; the asymmetry vanishes at shift = 0."""
    if not is_source:
        return STYLE_RATE_TARGET, 0.5
    rate = STYLE_RATE_TARGET + spec.shift * (STYLE_RATE_SOURCE - STYLE_RATE_TARGET)
    purity = 0.5 + spec.shift * (STYLE_PURITY - 0.5)
    return rate, purity


def _make_post(spec: SynthSpec, rng: np.random.Generator, event_id: str,
               post_id: str) -> Post:
    label = 0 if rng.random() < spec.fake_ratio else 1
    neutral = spec.neutral_tokens
    half = label if rng.random() < HALF_PURITY else 1 - label
    specific = spec.specific_pool(event_id, half)
    tokens = []
    for _ in range(spec.post_length):
        pool = specific if rng.random() < spec.shift else neutral
        tokens.append(pool[rng.integers(len(pool))])
    style_rate, style_purity = _style_params(spec, event_id == SOURCE_EVENT)
    if rng.random() < style_rate:
        style_half = label if rng.random() < style_purity else 1 - label
        pool = spec.style_pool(style_half)
        slots = rng.choice(spec.post_length,
                           size=min(STYLE_SLOTS, spec.post_length), replace=False)
        for j in slots:
            tokens[j] = pool[rng.integers(len(pool))]
    if rng.random() < spec.signal_strength:
        sig = spec.signal_tokens(label)
        slots = rng.choice(spec.post_length, size=min(SIGNAL_SLOTS, spec.post_length),
                           replace=False)
        for j in slots:
            tokens[j] = sig[rng.integers(len(sig))]
    return Post(id=post_id, text=" ".join(tokens), label=label, event_id=event_id)


def generate(spec: SynthSpec) -> tuple[EventCorpus, EventCorpus]:
    """Labeled source and target corpora; target labels are for evaluation only."""
    rng = np.random.default_rng(spec.seed)
    src = [_make_post(spec, rng, SOURCE_EVENT, f"s{i:05d}")
           for i in range(spec.n_source)]
    tgt = [_make_post(spec, rng, TARGET_EVENT, f"t{i:05d}")
           for i in range(spec.n_target)]
    return (EventCorpus(event_id=SOURCE_EVENT, posts=src, role="source"),
            EventCorpus(event_id=TARGET_EVENT, posts=tgt, role="target"))


def inject_anomalies(corpus: EventCorpus, fraction: float, seed: int,
                     spec: SynthSpec) -> EventCorpus:
    """Replace a fraction of posts with pure event-specific noise posts.

    Each noise post samples one vocabulary half, like a clean post, so it
    reads as coherent on-event chatter; its label is random, which poisons
    the within-event shortcut for any model that cannot discount it.
    Replaced posts get random labels and an ``anom-`` id prefix so
    experiments can locate them afterwards.
    """
    if not 0.0 <= fraction <= 0.5:
        raise ConfigurationError(f"anomaly fraction must be in [0, 0.5], got {fraction}")
    rng = np.random.default_rng(seed)
    n_replace = int(round(fraction * len(corpus)))
    chosen = set(rng.choice(len(corpus), size=n_replace, replace=False).tolist())
    posts = []
    for i, post in enumerate(corpus.posts):
        if i in chosen:
            pool = spec.specific_pool(corpus.event_id, int(rng.integers(2)))
            tokens = [pool[rng.integers(len(pool))]
                      for _ in range(spec.post_length)]
            posts.append(Post(id=f"anom-{post.id}", text=" ".join(tokens),
                              label=int(rng.integers(2)), event_id=post.event_id))
        else:
            posts.append(post)
    return EventCorpus(event_id=corpus.event_id, posts=posts, role=corpus.role)
