"""Input generation, run as its own process before anything is timed.

    python3 perfbench/synth.py <workload> <seed> <workdir> <job>

``job`` is ``pair`` (the source and target corpora, plus the word2vec file
for train-wide-frozen) or ``eval<i>`` (part i of the workload's labelled
eval corpus, more posts of the target event). Run from the root of the
repository.
"""

from __future__ import annotations

import functools
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

from metadetector.data_synth import SynthSpec, generate, inject_anomalies  # noqa: E402
from metadetector.text import EventCorpus, Post, save_corpus  # noqa: E402

import reference  # noqa: E402
import workloads as wl  # noqa: E402


class CachedSpec(SynthSpec):
    """SynthSpec whose token lists are built once, not once per post.

    The generated posts are the same; only generation of the 16k-token
    vocabulary gets fast enough (about 9x) to run before every benchmark run.
    """

    __hash__ = object.__hash__

    @functools.cached_property
    def neutral_tokens(self) -> list[str]:
        return SynthSpec.neutral_tokens.fget(self)

    @functools.lru_cache(maxsize=None)
    def specific_tokens(self, event_id: str) -> list[str]:
        return SynthSpec.specific_tokens(self, event_id)


def write_pair(workload: str, seed: int, workdir: str) -> None:
    spec = CachedSpec(**wl.data_spec(workload), seed=seed)
    source, target = generate(spec)
    if workload != "train-wide-frozen":
        source = inject_anomalies(source, wl.ANOMALY_FRACTION,
                                  seed=seed + wl.ANOMALY_SEED_OFFSET, spec=spec)
    save_corpus(source, os.path.join(workdir, "source.jsonl"))
    save_corpus(target, os.path.join(workdir, "target.jsonl"))
    if workload == "train-wide-frozen":
        write_vectors(spec, source, target, seed, os.path.join(workdir, "vectors.txt"))


def write_vectors(spec: SynthSpec, source: EventCorpus, target: EventCorpus,
                  seed: int, path: str) -> None:
    """A word2vec text file with a vector for every token of both corpora.

    Components are N(0, WIDE_SCALE); label-bearing signal tokens are moved
    +/- WIDE_LABEL_DIR along one shared direction, as pretrained vectors
    that know the sentiment of a word would be, so that a frozen table
    still lets the detector learn within a few epochs.
    """
    tokens = sorted({t for corpus in (source, target) for p in corpus.posts
                     for t in reference.tokenize(p.text)})
    rng = np.random.default_rng(wl.derived_seed(seed, 7))
    direction = rng.normal(size=wl.WIDE_DIM)
    direction /= np.linalg.norm(direction)
    side = {t: 2.0 * label - 1.0 for label in (0, 1) for t in spec.signal_tokens(label)}
    vecs = rng.normal(0.0, wl.WIDE_SCALE, size=(len(tokens), wl.WIDE_DIM))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(tokens)} {wl.WIDE_DIM}\n")
        for tok, vec in zip(tokens, vecs):
            vec = vec + wl.WIDE_LABEL_DIR * side.get(tok, 0.0) * direction
            fh.write(tok + " " + " ".join(map(repr, vec.tolist())) + "\n")


def write_eval_part(workload: str, seed: int, part: int, workdir: str) -> None:
    spec = CachedSpec(**{**wl.data_spec(workload), "n_source": 1,
                         "n_target": wl.EVAL_PARTS[workload][part]},
                      seed=wl.derived_seed(seed, part))
    _, target = generate(spec)
    posts = [Post(id=f"q{part}-{p.id}", text=p.text, label=p.label, event_id=p.event_id)
             for p in target.posts]
    save_corpus(EventCorpus(target.event_id, posts, role="target"),
                os.path.join(workdir, f"eval_{part}.jsonl"))


def main(argv: list[str]) -> int:
    workload, seed, workdir, job = argv[0], int(argv[1]), argv[2], argv[3]
    if job == "pair":
        write_pair(workload, seed, workdir)
    else:
        write_eval_part(workload, seed, int(job.removeprefix("eval")), workdir)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
