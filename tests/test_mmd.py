import dataclasses
import math
import sys
import threading
import time
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
from helpers import post_tokens


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


def serial_upper_blocks(pooled):
    """The pooled distance blocks one after another on the calling thread."""
    n, rows = len(pooled), mmd.GATE_BLOCK_ROWS
    for i0 in range(0, n, rows):
        i1 = min(i0 + rows, n)
        block = mmd._pairwise_sq_dists(pooled[i0:i1], pooled[i0:])
        block[:, :i1 - i0][np.tril_indices(i1 - i0)] = np.inf
        yield i0, block


def serial_gate_median(pooled):
    """The gate's median as three serial passes over the blocks (two here,
    one in ``serial_mmd_squared``) compute it: the reference that the
    two-blocks-at-a-time gate must equal bit for bit."""
    n, dim = pooled.shape
    centred = pooled - pooled.mean(axis=0)
    hist = np.zeros(1 << (63 - mmd._KEY_SHIFT), dtype=np.int64)
    for _, block in serial_upper_blocks(centred):
        hist += np.bincount((block.view(np.int64) >> mmd._KEY_SHIFT).ravel(),
                            minlength=hist.size)
    _, copies = np.unique(pooled, axis=0, return_counts=True)
    n_zero = int((copies * (copies - 1) // 2).sum())
    n_pos = n * (n - 1) // 2 - n_zero
    ranks = [n_zero + (n_pos - 1) // 2, n_zero + n_pos // 2]
    first, last = np.searchsorted(np.cumsum(hist), ranks, side="right")
    lo, hi = (np.array([first, last + 1]) << mmd._KEY_SHIFT).view(np.float64)
    margin = 16.0 * (dim + 3) * np.finfo(np.float64).eps \
        * float((centred ** 2).sum(axis=1).max())
    lo, hi = lo - 2.0 * margin, hi + 2.0 * margin
    below, direct, step = 0, [], mmd.GATE_BLOCK_ROWS
    for i0, block in serial_upper_blocks(centred):
        below += int(np.count_nonzero(block < lo))
        rows, cols = np.nonzero((block >= lo) & (block <= hi))
        for s in range(0, len(rows), step):
            diff = pooled[i0 + rows[s:s + step]] - pooled[i0 + cols[s:s + step]]
            direct.append((diff ** 2).sum(axis=1))
    kept = np.partition(np.concatenate(direct), [r - below for r in ranks])
    return float((kept[ranks[0] - below] + kept[ranks[1] - below]) / 2.0)


def serial_mmd_squared(xs, ys, bank):
    """``mmd_squared`` as one serial pass over the blocks sums it."""
    if (len(ys), ys.tobytes()) < (len(xs), xs.tobytes()):
        xs, ys = ys, xs
    n_x, n_y, n_k = len(xs), len(ys), len(bank.sq_bandwidths)
    centred = np.concatenate([xs, ys], axis=0)
    centred -= centred.mean(axis=0)
    s_xx = s_yy = s_xy = 0.0
    for i0, block in serial_upper_blocks(centred):
        src = max(n_x - i0, 0)
        k, wider = np.empty_like(block), None
        for s2 in bank.sq_bandwidths[::-1]:
            if wider is not None and s2 * 2.0 == wider:
                np.multiply(k, k, out=k)
            else:
                np.exp(np.divide(block, -2.0 * s2, out=k), out=k)
            wider = s2
            s_xx += float(k[:src, :src].sum())
            s_xy += float(k[:src, src:].sum())
            s_yy += float(k[src:, src:].sum())
    kxx = (n_x * n_k + 2.0 * s_xx) / (n_k * n_x ** 2)
    kyy = (n_y * n_k + 2.0 * s_yy) / (n_k * n_y ** 2)
    kxy = s_xy / (n_k * n_x * n_y)
    return kxx + kyy - 2.0 * kxy


def within(seconds, fn):
    """``fn()`` on a helper thread, waited for at most ``seconds``: its
    result, or the exception it raised."""
    out = {}

    def run():
        try:
            out["value"] = fn()
        except BaseException as e:  # handed to the caller below
            out["error"] = e

    helper = threading.Thread(target=run, daemon=True)
    helper.start()
    helper.join(seconds)
    assert not helper.is_alive(), f"still running after {seconds} s"
    if "error" in out:
        raise out["error"]
    return out["value"]


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
        for tokens in post_tokens(corpus_of(texts)):
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

    def test_peak_memory_is_under_five_blocks(self):
        """The serial sum held about four blocks at its peak (the previous
        block and kernel matrix while the next block was made); two blocks
        at a time stay under five."""
        rng = np.random.default_rng(10)
        xs, ys = rng.normal(size=(3000, 16)), rng.normal(loc=0.2, size=(3000, 16))
        bank = KernelBank(np.array([0.5, 1.0, 3.0]))
        tracemalloc.start()
        try:
            mmd_squared(xs, ys, bank)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * mmd.GATE_BLOCK_ROWS * 6000 * 8

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

    def test_peak_memory_is_under_five_blocks(self):
        source, target, vocab, table, _ = self.corpora(3000, 3000, 16)
        shift_gate(source, target, vocab, table)  # fills source/target.tokens
        tracemalloc.start()
        try:
            shift_gate(source, target, vocab, table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * mmd.GATE_BLOCK_ROWS * 6000 * 8


def pooled_samples(n_x, n_y, dim=3, seed=12):
    """Two samples with repeated rows, within each and across the two."""
    rng = np.random.default_rng(seed)
    xs, ys = rng.normal(size=(n_x, dim)), rng.normal(loc=0.4, size=(n_y, dim))
    xs[1:4] = xs[0]
    ys[:2] = xs[5:7]
    return xs, ys


# (GATE_BLOCK_ROWS, n_x, n_y): every case leaves a one-row last block, and
# puts the x/y boundary, after canonical ordering, inside a block.
BLOCK_CASES = [(7, 10, 12), (7, 40, 31), (64, 100, 93)]


class TestTwoBlocksAtATime:
    """The gate's blocks run two at a time on two worker threads and are
    folded in block order: every result is that of the serial loop."""

    @pytest.mark.parametrize("rows,n_x,n_y", BLOCK_CASES)
    def test_bit_for_bit_the_serial_loop(self, monkeypatch, rows, n_x, n_y):
        monkeypatch.setattr(mmd, "GATE_BLOCK_ROWS", rows)
        assert (n_x + n_y) % rows == 1 and min(n_x, n_y) % rows
        xs, ys = pooled_samples(n_x, n_y)
        pooled = np.concatenate([xs, ys])
        median = mmd._gate_median(pooled)
        assert median == serial_gate_median(pooled)
        for bank in (mmd._median_bank(median), KernelBank(np.array([0.3, 1.0, 2.5]))):
            assert mmd_squared(xs, ys, bank) == serial_mmd_squared(xs, ys, bank)

    def test_bit_for_bit_under_frequent_thread_switches(self, monkeypatch):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for rows, n_x, n_y in BLOCK_CASES:
                self.test_bit_for_bit_the_serial_loop(monkeypatch, rows, n_x, n_y)
        finally:
            sys.setswitchinterval(interval)

    def test_results_in_block_order_from_at_most_two_workers(self, monkeypatch):
        monkeypatch.setattr(mmd, "GATE_BLOCK_ROWS", 7)
        lock, workers, in_flight, most = threading.Lock(), set(), [0], [0]

        def fn(i0, block):
            with lock:
                workers.add(threading.current_thread())
                in_flight[0] += 1
                most[0] = max(most[0], in_flight[0])
            time.sleep(0.02 if i0 % 14 == 0 else 0.002)  # even blocks finish last
            with lock:
                in_flight[0] -= 1
            return i0, len(block)

        pooled, caller = np.random.default_rng(13).normal(size=(100, 3)), []

        def blocks():
            caller.append(threading.current_thread())
            return list(mmd._upper_blocks(pooled, fn))

        got = within(60, blocks)
        assert got == [(i0, min(7, 100 - i0)) for i0 in range(0, 100, 7)]
        assert len(workers) <= 2 and caller[0] not in workers
        assert most[0] == 2

    def test_no_thread_outlives_the_gate(self, monkeypatch):
        monkeypatch.setattr(mmd, "GATE_BLOCK_ROWS", 7)
        source, target, vocab, table, _ = TestBlockedGate.corpora(60, 50, 8)
        threads = threading.active_count()
        within(60, lambda: shift_gate(source, target, vocab, table))
        assert threading.active_count() == threads

    def test_a_failing_block_is_raised_after_both_workers_stop(self, monkeypatch):
        monkeypatch.setattr(mmd, "GATE_BLOCK_ROWS", 7)
        source, target, vocab, table, _ = TestBlockedGate.corpora(60, 50, 8)
        failure = RuntimeError("third block failed")
        pairwise, lock, workers = mmd._pairwise_sq_dists, threading.Lock(), set()

        def failing_third(x, y):
            with lock:
                workers.add(threading.current_thread())
            if len(y) == 110 - 2 * 7:  # the block of rows 14..20
                raise failure
            time.sleep(0.01)  # the other worker is still busy when it fails
            return pairwise(x, y)

        monkeypatch.setattr(mmd, "_pairwise_sq_dists", failing_third)
        threads = threading.active_count()
        with pytest.raises(RuntimeError) as raised:
            within(60, lambda: shift_gate(source, target, vocab, table))
        assert raised.value is failure
        assert len(workers) == 2 and not any(t.is_alive() for t in workers)
        assert threading.active_count() == threads
