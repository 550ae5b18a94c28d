import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from metadetector.data_synth import SynthSpec, generate
from metadetector import mmd
from metadetector.errors import DegenerateDataError, SampleSizeError
from metadetector.mmd import (
    N_KERNELS,
    KernelBank,
    corpus_representations,
    median_bandwidths,
    mmd_squared,
    shift_gate,
)
from metadetector.text import (PAD_ID, UNK_ID, EventCorpus, Post, Vocabulary, build_vocab,
                               random_table)


def corpus_of(texts):
    return EventCorpus(event_id="ev", role="source", posts=[
        Post(id=f"p{i}", text=t, label=1, event_id="ev") for i, t in enumerate(texts)])


def naive_mmd_squared(xs, ys, bank):
    """Independent O(n^2) double-loop oracle."""
    def kern(a, b):
        d2 = float(((a - b) ** 2).sum())
        return sum(math.exp(-d2 / (2.0 * s2)) for s2 in bank.sq_bandwidths) \
            / len(bank.sq_bandwidths)

    kxx = sum(kern(a, b) for a in xs for b in xs) / (len(xs) ** 2)
    kyy = sum(kern(a, b) for a in ys for b in ys) / (len(ys) ** 2)
    kxy = sum(kern(a, b) for a in xs for b in ys) / (len(xs) * len(ys))
    return kxx + kyy - 2.0 * kxy


class TestPostRepresentation:
    """One post's row of ``corpus_representations``; token ``t<i>`` has id i."""

    def setup_method(self):
        self.table = random_table(8, 4, np.random.default_rng(0))
        self.vocab = Vocabulary({"<pad>": 0, "<unk>": 1,
                                 **{f"t{i}": i for i in range(2, 8)}}, min_count=1)

    def rep(self, text):
        return corpus_representations(corpus_of([text]), self.vocab, self.table)[0]

    def test_all_pad_is_zero(self):
        rep = self.rep("<pad> " * 5)
        assert np.array_equal(rep, np.zeros(4))

    def test_single_token(self):
        rep = self.rep("t3")
        assert np.array_equal(rep, self.table.data[3])

    def test_two_tokens_average(self):
        rep = self.rep("t2 t5")
        expected = (self.table.data[2] + self.table.data[5]) / 2
        assert np.allclose(rep, expected)

    def test_matches_per_post_mean(self):
        texts = ["", "<pad> <pad>", "<unk> zz qq", "t2 <pad> t4 <unk>",
                 " ".join(f"t{2 + i % 6}" for i in range(300)), "t7", "yy t3 t3"]
        rng = np.random.default_rng(1)
        texts += [" ".join(rng.choice(["t2", "t3", "t6", "<pad>", "xx"], size=n))
                  for n in rng.integers(0, 60, size=40)]
        data = self.table.data
        expected = []
        for tokens in corpus_of(texts).tokens:
            ids = np.array([self.vocab.token_to_id.get(t, UNK_ID) for t in tokens], dtype=np.int64)
            ids = ids[ids != PAD_ID]
            expected.append(data[ids].mean(axis=0) if len(ids) else np.zeros(4))
        got = corpus_representations(corpus_of(texts), self.vocab, self.table)
        assert np.array_equal(got, np.stack(expected))


class TestMedianBandwidths:
    def test_stated_rule(self):
        bank = median_bandwidths(np.array([1.0, 4.0, 9.0]))
        assert bank.sq_bandwidths.tolist() == [0.5, 1, 2, 4, 8, 16, 32]

    def test_constant_distances(self):
        bank = median_bandwidths(np.array([2.0, 2.0, 2.0]))
        assert bank.sq_bandwidths.tolist() == [0.25, 0.5, 1, 2, 4, 8, 16]

    def test_all_zero_rejected(self):
        with pytest.raises(DegenerateDataError):
            median_bandwidths(np.zeros(5))


class TestMmdSquared:
    def test_identical_multisets_zero(self):
        rng = np.random.default_rng(1)
        xs = rng.normal(size=(10, 4))
        bank = KernelBank(np.array([0.5, 1.0, 2.0]))
        assert abs(mmd_squared(xs, xs.copy(), bank)) < 1e-12

    def test_two_point_analytic_value(self):
        bank = KernelBank(np.array([1.0]))
        got = mmd_squared(np.array([[0.0], [0.0]]), np.array([[1.0], [1.0]]), bank)
        assert got == pytest.approx(2.0 - 2.0 * math.exp(-0.5), abs=1e-12)

    def test_small_sample_rejected(self):
        bank = KernelBank(np.array([1.0]))
        with pytest.raises(SampleSizeError):
            mmd_squared(np.array([[0.0]]), np.array([[1.0]]), bank)

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(2)
        xs = rng.normal(size=(50, 3))
        ys = rng.normal(loc=0.5, size=(50, 3))
        bank = median_bandwidths(
            ((xs[:, None] - ys[None]) ** 2).sum(-1))
        assert mmd_squared(xs, ys, bank) == pytest.approx(
            naive_mmd_squared(xs, ys, bank), abs=1e-10)

    def test_symmetry_exact(self):
        rng = np.random.default_rng(3)
        xs, ys = rng.normal(size=(8, 2)), rng.normal(size=(12, 2))
        bank = KernelBank(np.array([0.5, 1.0, 2.0]))
        assert mmd_squared(xs, ys, bank) == mmd_squared(ys, xs, bank)

    def test_symmetry_exact_over_blocks(self, monkeypatch):
        monkeypatch.setattr(mmd, "GATE_BLOCK_ROWS", 7)
        rng = np.random.default_rng(11)
        for _ in range(20):
            n, m = rng.integers(2, 30, size=2)
            d = int(rng.integers(1, 6))
            xs, ys = rng.normal(size=(n, d)), rng.normal(loc=0.5, size=(m, d))
            bank = KernelBank(np.sort(rng.uniform(0.1, 4.0, size=3)))
            assert mmd_squared(xs, ys, bank) == mmd_squared(ys, xs, bank)

    @pytest.mark.parametrize("bank", [
        np.sort(np.random.default_rng(7).uniform(0.1, 4.0, size=5)),  # no doubling
        np.array([0.5, 1.0, 3.0, 6.0]),  # doubling and not, mixed
        np.array([1.5]),
    ])
    def test_blocks_match_oracle(self, monkeypatch, bank):
        monkeypatch.setattr(mmd, "GATE_BLOCK_ROWS", 7)
        rng = np.random.default_rng(8)
        xs, ys = rng.normal(size=(19, 3)), rng.normal(loc=0.4, size=(16, 3))
        bank = KernelBank(bank)
        assert mmd_squared(xs, ys, bank) == pytest.approx(
            naive_mmd_squared(xs, ys, bank), abs=1e-10)

    def test_blocks_match_oracle_unequal_sizes_with_duplicates(self, monkeypatch):
        monkeypatch.setattr(mmd, "GATE_BLOCK_ROWS", 7)
        rng = np.random.default_rng(9)
        xs = rng.normal(size=(23, 4))
        xs[5:9] = xs[0]
        ys = np.concatenate([xs[10:14], rng.normal(loc=0.3, size=(7, 4)), xs[:2]])
        bank = KernelBank(0.8 * 2.0 ** np.arange(-3, 4))
        assert mmd_squared(xs, ys, bank) == pytest.approx(
            naive_mmd_squared(xs, ys, bank), abs=1e-10)

    def test_memory_grows_linearly(self):
        rng = np.random.default_rng(10)
        xs, ys = rng.normal(size=(3000, 16)), rng.normal(loc=0.2, size=(3000, 16))
        bank = KernelBank(np.array([0.5, 1.0, 3.0]))

        def peak(n):
            tracemalloc.start()
            try:
                mmd_squared(xs[:n], ys[:n], bank)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(3000) < 3 * peak(1500)

    def test_scale_invariance_with_median_bank(self):
        rng = np.random.default_rng(4)
        xs, ys = rng.normal(size=(15, 3)), rng.normal(loc=1.0, size=(15, 3))

        def full(x, y):
            pooled = np.concatenate([x, y])
            d2 = ((pooled[:, None] - pooled[None]) ** 2).sum(-1)
            return mmd_squared(x, y, median_bandwidths(d2))

        assert full(xs, ys) == pytest.approx(full(2 * xs, 2 * ys), abs=1e-12)


class TestShiftGate:
    def test_self_comparison_closes_gate(self):
        spec = SynthSpec(n_source=60, n_target=60, post_length=10, seed=5)
        source, _ = generate(spec)
        vocab = build_vocab([source])
        table = random_table(len(vocab), 8, np.random.default_rng(0))
        report = shift_gate(source, source, vocab, table, d_star=0.8)
        assert report.d_k < 1e-6
        assert not report.gate_open

    def test_gate_matches_threshold(self):
        spec = SynthSpec(n_source=60, n_target=60, shift=0.9, post_length=10, seed=5)
        source, target = generate(spec)
        vocab = build_vocab([source, target])
        table = random_table(len(vocab), 8, np.random.default_rng(0))
        report = shift_gate(source, target, vocab, table, d_star=0.8)
        assert report.gate_open == (report.d_k >= 0.8)
        assert report.d_star == 0.8
        assert len(report.sq_bandwidths) == 7


class TestBlockedGate:
    """The gate holds GATE_BLOCK_ROWS rows of the pooled distances at a time."""

    @staticmethod
    def corpora(n_source, n_target, dim, duplicates=0):
        spec = SynthSpec(n_source=n_source, n_target=n_target, shift=0.9,
                         post_length=10, seed=5)
        source, target = generate(spec)
        if duplicates:  # repeated posts, within and across the events
            source.posts[1:1 + duplicates] = [source.posts[0]] * duplicates
            target.posts[:duplicates] = [
                dataclasses.replace(p, event_id=target.event_id)
                for p in source.posts[2:2 + duplicates]]
        vocab = build_vocab([source, target])
        table = random_table(len(vocab), dim, np.random.default_rng(0))
        reps = np.concatenate([corpus_representations(c, vocab, table)
                               for c in (source, target)])
        return source, target, vocab, table, reps

    @staticmethod
    def direct_distances(reps):
        """((x_i - x_j)^2).sum() over i < j, from the differences themselves."""
        upper = np.triu_indices(len(reps), 1)
        return ((reps[:, None] - reps[None]) ** 2).sum(-1)[upper]

    def test_median_is_exact_over_distinct_pairs(self, monkeypatch):
        monkeypatch.setattr(mmd, "GATE_BLOCK_ROWS", 64)
        source, target, vocab, table, reps = self.corpora(150, 130, 8,
                                                          duplicates=5)
        d = self.direct_distances(reps)
        assert np.count_nonzero(d == 0) > 5
        report = shift_gate(source, target, vocab, table)
        assert report.sq_bandwidths[N_KERNELS // 2] == np.median(d[d > 0])

    def test_d_k_matches_double_loop_oracle(self, monkeypatch):
        monkeypatch.setattr(mmd, "GATE_BLOCK_ROWS", 64)
        source, target, vocab, table, reps = self.corpora(160, 140, 8,
                                                          duplicates=3)
        d = self.direct_distances(reps)
        median = float(np.median(d[d > 0]))
        bank = KernelBank(median * 2.0 ** np.arange(-3, 4))
        xs, ys = reps[:len(source)], reps[len(source):]
        expected = math.sqrt(max(0.0, naive_mmd_squared(xs, ys, bank)))
        assert expected >= 0.05
        d_k = shift_gate(source, target, vocab, table).d_k
        assert d_k == pytest.approx(expected, rel=1e-9, abs=0)

    def test_d_k_is_mmd_squared_under_the_reported_bank(self, monkeypatch):
        monkeypatch.setattr(mmd, "GATE_BLOCK_ROWS", 64)
        source, target, vocab, table, reps = self.corpora(300, 280, 16)
        report = shift_gate(source, target, vocab, table)
        bank = KernelBank(np.array(report.sq_bandwidths))
        mmd2 = mmd_squared(reps[:len(source)], reps[len(source):], bank)
        assert report.d_k == math.sqrt(max(0.0, mmd2))

    def test_memory_grows_linearly(self):
        source, target, vocab, table, _ = self.corpora(3000, 3000, 16)

        def peak(n):
            small_s = dataclasses.replace(source, posts=source.posts[:n])
            small_t = dataclasses.replace(target, posts=target.posts[:n])
            shift_gate(small_s, small_t, vocab, table)  # fills small_s/t.tokens
            tracemalloc.start()
            try:
                shift_gate(small_s, small_t, vocab, table)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(3000) < 3 * peak(1500)
