import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metadetector.data_synth import SynthSpec, generate
from metadetector.errors import ConfigurationError, ContractError
from metadetector.evaluation import (
    evaluate,
    export_weights,
    metrics_from_predictions,
)
from metadetector.text import EventCorpus, Post
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
