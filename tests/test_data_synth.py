import numpy as np
import pytest

from metadetector.data_synth import SynthSpec, generate, inject_anomalies
from metadetector.errors import ConfigurationError
from metadetector.mmd import shift_gate
from metadetector.text import build_vocab, random_table, tokenize


def gate_distance(source, target, seed=0, dim=8):
    vocab = build_vocab([source, target])
    table = random_table(len(vocab), dim, np.random.default_rng(seed))
    return shift_gate(source, target, vocab, table, d_star=0.8)


class TestGenerate:
    def test_deterministic(self):
        spec = SynthSpec(n_source=40, n_target=40, post_length=8, seed=9)
        s1, t1 = generate(spec)
        s2, t2 = generate(spec)
        assert [(p.id, p.text, p.label) for p in s1.posts] == \
            [(p.id, p.text, p.label) for p in s2.posts]
        assert [(p.id, p.text, p.label) for p in t1.posts] == \
            [(p.id, p.text, p.label) for p in t2.posts]

    def test_no_shift_keeps_gate_closed(self):
        spec = SynthSpec(n_source=100, n_target=100, shift=0.0,
                         post_length=10, seed=3)
        source, target = generate(spec)
        report = gate_distance(source, target)
        assert report.d_k < 0.8
        assert not report.gate_open

    def test_distance_monotone_in_shift(self):
        # moderate specific vocab keeps d_k from saturating mid-sweep
        distances = []
        for shift in (0.0, 0.3, 0.6, 0.9):
            spec = SynthSpec(n_source=500, n_target=500, shift=shift,
                             specific_vocab_size=50, shared_vocab_size=100,
                             post_length=20, seed=4)
            source, target = generate(spec)
            distances.append(gate_distance(source, target, dim=16).d_k)
        assert all(a < b for a, b in zip(distances, distances[1:]))
        assert distances[-1] > distances[0]

    def test_label_balance(self):
        spec = SynthSpec(n_source=2000, n_target=1000, fake_ratio=0.3,
                         post_length=6, seed=5)
        source, target = generate(spec)
        for corpus in (source, target):
            fakes = sum(1 for p in corpus.posts if p.label == 0)
            assert abs(fakes / len(corpus) - 0.3) <= 0.02 + 0.02

    def test_vocab_partitions_disjoint(self):
        spec = SynthSpec(n_source=50, n_target=50, post_length=8, seed=6)
        pools = [set(spec.signal_tokens(1)), set(spec.signal_tokens(0)),
                 set(spec.neutral_tokens),
                 set(spec.specific_tokens("event1")),
                 set(spec.specific_tokens("event2"))]
        for i, a in enumerate(pools):
            for b in pools[i + 1:]:
                assert not (a & b)

    def test_invalid_spec(self):
        with pytest.raises(ConfigurationError):
            SynthSpec(shift=1.5)


class TestInjectAnomalies:
    def setup_method(self):
        self.spec = SynthSpec(n_source=100, n_target=50, post_length=8, seed=7)
        self.source, _ = generate(self.spec)

    def test_fraction_zero_unchanged(self):
        out = inject_anomalies(self.source, 0.0, seed=1, spec=self.spec)
        assert [p.text for p in out.posts] == [p.text for p in self.source.posts]

    def test_exact_count(self):
        out = inject_anomalies(self.source, 0.2, seed=1, spec=self.spec)
        anomalous = [p for p in out.posts if p.id.startswith("anom-")]
        assert len(anomalous) == 20

    def test_anomalies_are_pure_event_specific(self):
        out = inject_anomalies(self.source, 0.2, seed=1, spec=self.spec)
        specific = set(self.spec.specific_tokens("event1"))
        for p in out.posts:
            if p.id.startswith("anom-"):
                assert set(tokenize(p.text)) <= specific

    def test_fraction_out_of_range(self):
        with pytest.raises(ConfigurationError):
            inject_anomalies(self.source, 0.6, seed=1, spec=self.spec)
