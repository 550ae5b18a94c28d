import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metadetector import evaluation
from metadetector.data_synth import SynthSpec, generate
from metadetector.errors import ConfigurationError, ContractError
from metadetector.evaluation import (
    evaluate,
    export_weights,
    metrics_from_predictions,
    predict,
)
from metadetector.model import detect, extract_features, pseudo_discriminate
from metadetector.text import EventCorpus, Post, encode
from metadetector.training import TrainConfig, train


def naive_metrics(preds, labels, cls):
    """Counting oracle for one class."""
    tp = sum(1 for p, y in zip(preds, labels) if p == cls and y == cls)
    fp = sum(1 for p, y in zip(preds, labels) if p == cls and y != cls)
    fn = sum(1 for p, y in zip(preds, labels) if p != cls and y == cls)
    tn = len(preds) - tp - fp - fn
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = (2 * precision * recall / (precision + recall)
          if precision + recall else 0.0)
    return precision, recall, f1, tp, fp, tn, fn


class TestMetrics:
    def test_hand_computed_confusion(self):
        # fake-class confusion TP=2 FP=1 FN=1 TN=6
        labels = np.array([0, 0, 0, 1, 1, 1, 1, 1, 1, 1])
        preds = np.array([0, 0, 1, 0, 1, 1, 1, 1, 1, 1])
        report = metrics_from_predictions(preds, labels)
        fake = report.per_class["fake"]
        assert (fake.tp, fake.fp, fake.fn, fake.tn) == (2, 1, 1, 6)
        assert fake.precision == pytest.approx(2 / 3)
        assert fake.recall == pytest.approx(2 / 3)
        assert fake.f1 == pytest.approx(2 / 3)
        assert report.accuracy == pytest.approx(0.8)

    def test_all_correct(self):
        labels = np.array([0, 1, 0, 1])
        report = metrics_from_predictions(labels, labels)
        assert report.accuracy == 1.0
        assert report.per_class["real"].f1 == 1.0
        assert report.per_class["fake"].f1 == 1.0

    def test_zero_division_flagged(self):
        labels = np.array([1, 1, 1])
        preds = np.array([1, 1, 1])
        report = metrics_from_predictions(preds, labels)
        fake = report.per_class["fake"]
        assert fake.precision == 0.0 and fake.recall == 0.0
        assert set(fake.zero_division) == {"precision", "recall", "f1"}

    @given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)),
                    min_size=1, max_size=200))
    @settings(max_examples=200, deadline=None)
    def test_matches_counting_oracle(self, pairs):
        preds = np.array([p for p, _ in pairs])
        labels = np.array([y for _, y in pairs])
        report = metrics_from_predictions(preds, labels)
        assert report.accuracy == (preds == labels).mean()
        for cls, name in ((1, "real"), (0, "fake")):
            p, r, f1, tp, fp, tn, fn = naive_metrics(preds, labels, cls)
            m = report.per_class[name]
            assert (m.precision, m.recall, m.f1) == (p, r, f1)
            assert (m.tp, m.fp, m.tn, m.fn) == (tp, fp, tn, fn)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(0)
        preds = rng.integers(0, 2, 50)
        labels = rng.integers(0, 2, 50)
        perm = rng.permutation(50)
        a = metrics_from_predictions(preds, labels).to_dict()
        b = metrics_from_predictions(preds[perm], labels[perm]).to_dict()
        assert a == b


@pytest.fixture(scope="module")
def trained():
    spec = SynthSpec(n_source=120, n_target=120, shift=0.3,
                     signal_strength=1.0, post_length=10, seed=11)
    source, target = generate(spec)
    cfg = TrainConfig(epochs=4, batch_size=20, lr=0.3, embedding_dim=8,
                      n_filters=4, w_max=3, seed=2)
    params, _, _ = train(source, target, cfg)
    return params, source, target


class TestEvaluate:
    def test_unlabeled_post_rejected(self, trained):
        params, _, target = trained
        broken = EventCorpus(
            event_id=target.event_id,
            posts=[Post(p.id, p.text, None if i == 2 else p.label, p.event_id)
                   for i, p in enumerate(target.posts)],
            role="target")
        with pytest.raises(ContractError, match=broken.posts[2].id):
            evaluate(params, broken)

    def test_deterministic(self, trained):
        params, _, target = trained
        assert evaluate(params, target).to_dict() == \
            evaluate(params, target).to_dict()

    def test_set_permutation_invariance(self, trained):
        params, _, target = trained
        rng = np.random.default_rng(1)
        shuffled = EventCorpus(
            event_id=target.event_id,
            posts=[target.posts[i] for i in rng.permutation(len(target))],
            role="target")
        assert evaluate(params, target).to_dict() == \
            evaluate(params, shuffled).to_dict()


class TestExportWeights:
    def test_weight_complement_identity(self, trained):
        params, source, _ = trained
        ranking = export_weights(params, source, top_n=5)
        for e in ranking.entries:
            assert e.weight + e.pseudo_prob == 1.0

    def test_descending_order_with_id_ties(self, trained):
        params, source, _ = trained
        ranking = export_weights(params, source)
        keys = [(-e.weight, e.post_id) for e in ranking.entries]
        assert keys == sorted(keys)

    def test_summary_fields(self, trained):
        params, source, _ = trained
        summary = export_weights(params, source).summary
        assert summary["n"] == len(source)
        assert summary["min"] <= summary["mean"] <= summary["max"]
        assert len(summary["deciles"]) == 11

    @pytest.mark.parametrize("top_n", [0, 3, 1000])
    def test_top_and_bottom_sizes(self, trained, top_n):
        params, source, _ = trained
        ranking = export_weights(params, source, top_n=top_n)
        n = min(top_n, len(source))
        assert ranking.top == ranking.entries[:n]
        assert ranking.bottom == ranking.entries[len(source) - n:]

    def test_negative_top_n_rejected(self, trained):
        params, source, _ = trained
        with pytest.raises(ConfigurationError, match="top_n"):
            export_weights(params, source, top_n=-2)


# -- the chunks run on two threads ----------------------------------------

SIZES = [1, 2, 3, 250, 251, 256, 257, 258, 499, 500, 501, 751, 757, 1251, 1257]
# the family of the benchmark's acceptance workload, at its model shape
FAMILY = dict(shift=0.9, signal_strength=0.8, specific_vocab_size=4,
              shared_vocab_size=100, post_length=40, fake_ratio=0.4)


@pytest.fixture(scope="module")
def scorers():
    """A model trained at the acceptance shape, and one with a frozen table."""
    pair = generate(SynthSpec(n_source=300, n_target=300, seed=11, **FAMILY))
    out = {}
    for name, frozen in (("trained", False), ("frozen", True)):
        cfg = TrainConfig(epochs=3, batch_size=60, lr=0.1, embedding_dim=16,
                          n_filters=12, seed=2, freeze_embeddings=frozen)
        out[name], _, _ = train(*pair, cfg)
        assert out[name].theta_f.embedding.requires_grad is not frozen
    return out


@pytest.fixture(scope="module")
def posts():
    """1,257 labelled posts of the scoring models' family, unseen in training."""
    source, _ = generate(SynthSpec(n_source=max(SIZES), n_target=1, seed=12, **FAMILY))
    return source


def first(posts, n):
    return EventCorpus(posts.event_id, posts.posts[:n], role="source")


def serial(params, ids, rows=500):
    """Detector classes and pseudo probabilities from extractor passes of
    ``rows`` rows, one after another; 500 is the earlier inference."""
    classes, probs = [], []
    for start in range(0, len(ids), rows):
        feats = extract_features(ids[start:start + rows], params.theta_f)
        classes.append(detect(feats, params.theta_y).data.argmax(axis=1))
        probs.append(pseudo_discriminate(feats, params.theta_pe).data)
    return np.concatenate(classes), np.concatenate(probs)


@pytest.fixture(scope="module")
def reordered(scorers, posts):
    """For each model, the posts reordered so that a wrong chunk shows.

    A BLAS product takes a pass's rows in groups and its last rows, and a
    one-row pass, by other paths whose sums may differ in the last bit. So
    rows 248, 249, 498 and 499 hold posts whose probability in a two-row
    pass differs from that in a 500-row pass, and rows 256 and 756 posts
    whose probability alone differs: a chunk that ends a group early, or a
    one-row chunk, where the 500-row passes have neither, changes a bit.
    """
    out = {}
    for name, params in scorers.items():
        ids = encode(posts, params.vocab, params.k)
        _, probs = serial(params, ids)
        order = list(range(len(ids)))
        for rows, at in ((2, (248, 249, 498, 499)), (1, (256, 756))):
            differ = np.flatnonzero(serial(params, ids, rows)[1] != probs)
            differ = [i for i in differ if i not in (248, 249, 498, 499, 256, 756)]
            assert len(differ) >= len(at)
            for row, i in zip(at, differ):
                order[row], order[i] = order[i], order[row]
        out[name] = EventCorpus(posts.event_id, [posts.posts[i] for i in order],
                                role="source")
    return out


@pytest.mark.parametrize("model", ["trained", "frozen"])
@pytest.mark.parametrize("n", SIZES)
def test_two_thread_chunks_equal_the_serial_500_row_passes(n, model, scorers, reordered,
                                                           monkeypatch):
    params = scorers[model]
    corpus = first(reordered[model], n)
    ids = encode(corpus, params.vocab, params.k)
    classes, probs = serial(params, ids)

    seen = []

    def keep(preds, labels):
        seen.append(preds)
        return metrics_from_predictions(preds, labels)

    monkeypatch.setattr(evaluation, "metrics_from_predictions", keep)
    evaluate(params, corpus)
    assert np.array_equal(seen[0], classes)
    assert np.array_equal(predict(params, ids), classes)
    by_id = {e.post_id: e.pseudo_prob for e in export_weights(params, corpus).entries}
    assert np.array_equal([by_id[p.id] for p in corpus.posts], probs)


def test_chunk_rule():
    """Each 500-row block in two chunks, cut after 256 rows, or whole where
    the cut would leave one row."""
    for n in range(1, 2002):
        chunks = evaluation._chunks(n)
        assert [c.start for c in chunks[1:]] == [c.stop for c in chunks[:-1]]
        assert (chunks[0].start, chunks[-1].stop) == (0, n)
        assert all(c.start % 500 in (0, 256) for c in chunks)
        assert all(c.start // 500 == (c.stop - 1) // 500 for c in chunks)
        ones = [c.start for c in chunks if c.stop - c.start == 1]
        assert ones == ([n - 1] if n % 500 == 1 else [])
        assert len(chunks) == 2 * (n // 500) + (n % 500 > 257) + (n % 500 > 0)


def test_scoring_leaves_no_thread(scorers, posts):
    params = scorers["trained"]
    corpus = first(posts, max(SIZES))
    threads = threading.active_count()
    evaluate(params, corpus)
    assert threading.active_count() == threads
    export_weights(params, corpus)
    assert threading.active_count() == threads


def test_chunk_order_holds_under_frequent_thread_switches(scorers, posts):
    params = scorers["trained"]
    corpus = first(posts, max(SIZES))
    ids = encode(corpus, params.vocab, params.k)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        scored = evaluation._on_two_threads(params, ids, evaluation._classes)
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(scored, predict(params, ids))


def test_a_failing_chunk_is_raised_after_both_threads_stop(scorers, posts,
                                                           monkeypatch):
    params = scorers["trained"]
    failure = RuntimeError("third chunk failed")
    calls, lock = [], threading.Lock()

    def failing_third(ids, theta_f):
        with lock:
            calls.append(len(ids))
            third = len(calls) == 3
        if third:
            raise failure
        return extract_features(ids, theta_f)

    monkeypatch.setattr(evaluation, "extract_features", failing_third)
    threads = threading.active_count()
    with pytest.raises(RuntimeError) as raised:
        evaluate(params, first(posts, max(SIZES)))
    assert raised.value is failure
    assert threading.active_count() == threads
