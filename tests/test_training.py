import math
import threading

import numpy as np
import pytest

from metadetector import text
from metadetector.autodiff import Tensor, backward
from metadetector.data_synth import SynthSpec, generate
from metadetector.errors import ConfigurationError, ContractError, NumericalError
from metadetector.training import (
    TrainConfig,
    compute_weights,
    history_to_csv,
    loss_detection_weighted,
    loss_event_weighted,
    loss_pseudo,
    make_batches,
    sgd_step,
    total_loss,
    train,
)
from helpers import nan_gradient_at

LN2 = math.log(2.0)


class TestTrainConfig:
    def test_defaults_follow_reported_setup(self):
        cfg = TrainConfig()
        assert (cfg.lambda_, cfg.mu, cfg.d_star) == (1.0, 1.0, 0.8)
        assert (cfg.lr, cfg.batch_size, cfg.epochs, cfg.dropout) == \
            (0.01, 100, 100, 0.2)

    def test_odd_batch_rejected(self):
        with pytest.raises(ConfigurationError):
            TrainConfig(batch_size=99)

    def test_file_roundtrip(self, tmp_path):
        path = str(tmp_path / "cfg.json")
        TrainConfig(epochs=5, lr=0.1).to_file(path)
        cfg = TrainConfig.from_file(path)
        assert cfg.epochs == 5 and cfg.lr == 0.1

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"learning_rate": 0.1}')
        with pytest.raises(ConfigurationError):
            TrainConfig.from_file(str(path))

    @pytest.mark.parametrize("field", [{"n_filters": text.MAX_FILTERS + 1},
                                       {"w_max": text.MAX_K + 1},
                                       {"w_max": 9, "k": 8}])
    def test_sizes_bounded(self, field):
        with pytest.raises(ConfigurationError, match=next(iter(field))):
            TrainConfig(**field)

    def test_w_max_above_chosen_k_refused_before_the_gate(self, monkeypatch):
        from metadetector import training

        source, target = generate(SynthSpec(n_source=20, n_target=20,
                                            post_length=6, seed=0))
        k = text.choose_k([source, target])

        def no_gate(*args, **kwargs):
            raise AssertionError("the shift gate ran")

        monkeypatch.setattr(training, "shift_gate", no_gate)
        with pytest.raises(ConfigurationError, match=f"k = {k}"):
            training.prepare(source, target, TrainConfig(w_max=k + 1))


class TestDetectionLoss:
    def test_uniform_probs_give_ln2(self):
        probs = Tensor(np.full((4, 2), 0.5))
        loss = loss_detection_weighted(probs, np.array([0, 1, 0, 1]),
                                       np.ones(4))
        assert loss.item() == pytest.approx(LN2)

    def test_linearity_in_weights(self):
        rng = np.random.default_rng(0)
        p = rng.uniform(0.1, 0.9, size=(5, 1))
        probs = Tensor(np.hstack([p, 1 - p]))
        labels = np.array([0, 1, 1, 0, 1])
        full = loss_detection_weighted(probs, labels, np.ones(5)).item()
        half = loss_detection_weighted(probs, labels, np.full(5, 0.5)).item()
        assert half == pytest.approx(full / 2)

    def test_perfect_predictions_near_zero(self):
        probs = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
        loss = loss_detection_weighted(probs, np.array([0, 1]), np.ones(2))
        assert 0 <= loss.item() < 1e-10 + 12 * LN2 * 0  # clamped log(1) == 0
        assert loss.item() == pytest.approx(0.0, abs=1e-10)

    def test_length_mismatch(self):
        with pytest.raises(ContractError):
            loss_detection_weighted(Tensor(np.full((3, 2), 0.5)),
                                    np.array([0, 1]), np.ones(3))


class TestEventLoss:
    def test_uniform_gives_two_ln2(self):
        half = Tensor(np.full(4, 0.5))
        loss = loss_event_weighted(half, half, np.ones(4))
        assert loss.item() == pytest.approx(2 * LN2)

    def test_perfect_separation_near_zero(self):
        loss = loss_event_weighted(Tensor(np.ones(3)), Tensor(np.zeros(3)),
                                   np.ones(3))
        assert loss.item() == pytest.approx(0.0, abs=1e-10)

    def test_zero_weights_leave_target_term(self):
        src = Tensor(np.full(3, 0.5))
        tgt = Tensor(np.full(3, 0.5))
        loss = loss_event_weighted(src, tgt, np.zeros(3))
        assert loss.item() == pytest.approx(LN2)

    def test_pseudo_equals_unit_weighted_event_loss(self):
        rng = np.random.default_rng(1)
        src = Tensor(rng.uniform(0.1, 0.9, size=6))
        tgt = Tensor(rng.uniform(0.1, 0.9, size=6))
        assert loss_pseudo(src, tgt).item() == \
            loss_event_weighted(src, tgt, np.ones(6)).item()


class TestTotalLoss:
    def test_arithmetic(self):
        t = total_loss(Tensor([0.7]), Tensor([1.4]), Tensor([1.4]), mu=1.0)
        assert t.item() == pytest.approx(3.5)

    @pytest.mark.parametrize("mu", [0.7, 1.0, 0.0])
    def test_one_node_bit_for_bit_the_tensor_sum(self, mu):
        def run(combine):
            rng = np.random.default_rng(4)
            leaves = [Tensor(rng.uniform(0.1, 3.0, size=50), requires_grad=True)
                      for _ in range(3)]
            out = combine(*leaves)
            backward((out * 0.37).sum())
            return out, [t.grad for t in leaves]

        out, grads = run(lambda a, b, c: total_loss(a, b, c, mu))
        ref, ref_grads = run(lambda a, b, c: a + mu * b + c)
        assert len(out._parents) == 3
        assert np.array_equal(out.data, ref.data)
        assert all(np.array_equal(g, r) for g, r in zip(grads, ref_grads))

    def test_mu_zero_silences_pseudo_gradient(self):
        l_pe = Tensor([1.0], requires_grad=True)
        t = total_loss(Tensor([1.0]), l_pe, Tensor([1.0]), mu=0.0)
        backward(t.sum())
        assert l_pe.grad[0] == 0.0


class TestComputeWeights:
    def test_complement_rule(self):
        w = compute_weights(np.array([0.3]), gate_open=True, override="auto")
        assert w[0] == pytest.approx(0.7)

    def test_gate_closed_all_ones(self):
        w = compute_weights(np.array([0.3, 0.9]), gate_open=False,
                            override="auto")
        assert w.tolist() == [1.0, 1.0]

    def test_monotone_endpoint(self):
        w = compute_weights(np.array([0.999999]), gate_open=True,
                            override="auto")
        assert w[0] < 1e-5

    def test_override_always_on(self):
        w = compute_weights(np.array([0.4]), gate_open=False,
                            override="always_on")
        assert w[0] == 1 - 0.4

    def test_gated_weights_in_open_interval(self):
        rng = np.random.default_rng(2)
        probs = rng.uniform(1e-6, 1 - 1e-6, size=100)
        w = compute_weights(probs, gate_open=True, override="auto")
        assert (w > 0).all() and (w < 1).all()


class TestMakeBatches:
    def test_balanced_count(self):
        rng = np.random.default_rng(0)
        batches = list(make_batches(250, 250, 100, rng))
        assert len(batches) == 5
        assert all(len(s) == 50 and len(t) == 50 for s, t in batches)

    def test_shorter_side_cycles(self):
        rng = np.random.default_rng(0)
        batches = list(make_batches(250, 100, 100, rng))
        assert len(batches) == 5
        tgt_all = np.concatenate([t for _, t in batches])
        assert len(tgt_all) == 250
        assert set(tgt_all.tolist()) == set(range(100))

    def test_deterministic_given_seed(self):
        a = list(make_batches(60, 40, 20, np.random.default_rng(7)))
        b = list(make_batches(60, 40, 20, np.random.default_rng(7)))
        for (s1, t1), (s2, t2) in zip(a, b):
            assert np.array_equal(s1, s2) and np.array_equal(t1, t2)

    def test_too_small_corpus_rejected(self):
        with pytest.raises(ConfigurationError):
            list(make_batches(10, 100, 40, np.random.default_rng(0)))


class TestSgdStep:
    def test_update_arithmetic(self):
        t = Tensor([1.0], requires_grad=True)
        t.grad = np.array([0.5])
        sgd_step([t], lr=0.01)
        assert t.data[0] == pytest.approx(0.995)
        assert t.grad is None

    def test_zero_grad_no_change(self):
        t = Tensor([2.0], requires_grad=True)
        sgd_step([t], lr=0.5)
        assert t.data[0] == 2.0


@pytest.fixture(scope="module")
def run():
    spec = SynthSpec(n_source=150, n_target=150, shift=0.2,
                     signal_strength=1.0, post_length=10, seed=0)
    source, target = generate(spec)
    cfg = TrainConfig(epochs=12, batch_size=20, lr=0.3, embedding_dim=8,
                      n_filters=4, w_max=3, dropout=0.1, seed=1)
    return train(source, target, cfg)


class TestTrain:
    def test_history_length_matches_epochs(self, run):
        _, history, _ = run
        assert len(history) == 12
        assert [r.epoch for r in history] == list(range(1, 13))

    def test_separable_corpus_learned(self, run):
        _, history, _ = run
        assert history[-1].source_accuracy >= 0.95

    def test_unlabeled_source_rejected(self):
        spec = SynthSpec(n_source=20, n_target=20, post_length=6, seed=0)
        source, target = generate(spec)
        source.posts[3].label = None
        with pytest.raises(ContractError, match=source.posts[3].id):
            train(source, target, TrainConfig(epochs=1, batch_size=10))

    def test_train_tokenizes_each_post_once(self, monkeypatch):
        spec = SynthSpec(n_source=60, n_target=40, post_length=8, seed=2)
        source, target = generate(spec)
        calls = []
        tokenize = text.tokenize

        def counted(post_text):
            calls.append(post_text)
            return tokenize(post_text)

        monkeypatch.setattr(text, "tokenize", counted)
        train(source, target, TrainConfig(epochs=2, batch_size=20,
                                          embedding_dim=8, n_filters=4))
        assert len(calls) == len(source) + len(target)

    def test_non_finite_gradient_stops_before_any_update(self, monkeypatch):
        from metadetector import training

        spec = SynthSpec(n_source=60, n_target=60, post_length=8, seed=2)
        source, target = generate(spec)
        seen = {}
        init_model, real_backward = training.init_model, training.backward

        def capture_init(*args, **kwargs):
            seen["params"] = init_model(*args, **kwargs)
            return seen["params"]

        def nan_backward(seed):  # the third step's y_b gradient holds a NaN
            real_backward(seed)
            seen["steps"] = seen.get("steps", 0) + 1
            if seen["steps"] == 3:
                seen["before"] = {n: t.data.copy() for n, t in seen["params"].tensors.items()}
                seen["params"].theta_y.b.grad[1] = np.nan

        monkeypatch.setattr(training, "init_model", capture_init)
        monkeypatch.setattr(training, "backward", nan_backward)
        with pytest.raises(NumericalError, match="gradient of y_b at epoch 1"):
            train(source, target, TrainConfig(epochs=2, batch_size=20, embedding_dim=8,
                                              n_filters=4))
        after = {n: t.data for n, t in seen["params"].tensors.items()}
        assert all(np.array_equal(after[n], a) for n, a in seen["before"].items())

    @pytest.mark.parametrize("frozen", [True, False])
    def test_freeze_embeddings_keeps_the_prepared_table(self, frozen, tmp_path):
        from metadetector.model import load_checkpoint, save_checkpoint
        from metadetector.training import prepare

        spec = SynthSpec(n_source=60, n_target=60, post_length=8, seed=4)
        source, target = generate(spec)
        tokens = sorted({t for c in (source, target) for post in c.tokens for t in post})
        vectors = tmp_path / "vectors.txt"
        rng = np.random.default_rng(5)
        vectors.write_text(f"{len(tokens) // 2} 6\n" + "".join(
            tok + " " + " ".join(map(repr, rng.normal(size=6).tolist())) + "\n"
            for tok in tokens[::2]))
        cfg = TrainConfig(epochs=2, batch_size=20, n_filters=4, w_max=3, seed=6,
                          pretrained_vectors=str(vectors), freeze_embeddings=frozen)
        table = prepare(source, target, cfg)[2]
        assert table.requires_grad != frozen and table.grad is None
        prepared = table.data
        params, _, _ = train(source, target, cfg)
        trained = params.theta_f.embedding.data
        assert np.array_equal(trained, prepared) == frozen
        ckpt = str(tmp_path / "model.npz")
        save_checkpoint(params, ckpt)
        loaded = load_checkpoint(ckpt).theta_f.embedding
        assert loaded.requires_grad == (not frozen)
        assert np.array_equal(loaded.data, trained)

    def test_prepare_freezes_a_pretrained_table_without_a_gradient_array(
            self, tmp_path, monkeypatch):
        """Up to the shift gate, ``prepare`` with a frozen 16k x 32 pretrained
        table frees less than half a |V| x d array: it made no second one."""
        import tracemalloc

        from metadetector import training
        from metadetector.text import EventCorpus, Post

        texts = [" ".join(f"w{i}" for i in range(j, j + 200)) for j in range(0, 16_000, 200)]
        source, target = (
            EventCorpus(event, [Post(f"{event}{i}", t, i % 2, event)
                                for i, t in enumerate(half)], role=event)
            for event, half in (("source", texts[:40]), ("target", texts[40:])))
        vectors = tmp_path / "vectors.txt"
        vectors.write_text("2 32\n" + "".join(f"w{i}" + " 0.5" * 32 + "\n" for i in range(2)))
        cfg = TrainConfig(pretrained_vectors=str(vectors), freeze_embeddings=True)
        at_gate = []
        gate = training.shift_gate

        def measured_gate(*args, **kwargs):
            at_gate.extend(tracemalloc.get_traced_memory())  # (current, peak)
            return gate(*args, **kwargs)

        monkeypatch.setattr(training, "shift_gate", measured_gate)
        for corpus in (source, target):
            corpus.tokens  # tokenized before the count starts
        tracemalloc.start()
        try:
            table = training.prepare(source, target, cfg)[2]
        finally:
            tracemalloc.stop()
        assert table.shape == (16_002, 32) and not table.requires_grad
        current, peak = at_gate
        assert peak - current < table.data.nbytes // 2

    def test_history_csv(self, run, tmp_path):
        _, history, _ = run
        path = tmp_path / "hist.csv"
        history_to_csv(history, str(path))
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 13
        assert lines[0].startswith("epoch,loss_detection")

    def test_lambda_zero_and_weights_off_is_plain_classifier(self):
        # ablation identity: no event gradient into the extractor, unit weights
        spec = SynthSpec(n_source=60, n_target=60, shift=0.3,
                         signal_strength=1.0, post_length=8, seed=2)
        source, target = generate(spec)
        cfg = TrainConfig(epochs=2, batch_size=20, lambda_=0.0,
                          weighting_override="always_off", embedding_dim=8,
                          n_filters=4, w_max=3, seed=3)
        params, history, _ = train(source, target, cfg)
        assert all(r.weight_min == 1.0 and r.weight_max == 1.0
                   for r in history)

    def test_isolation_pseudo_only_step(self):
        # mu > 0, lambda = 0, detector masked: only theta_pe may move
        from metadetector.model import (detect, discriminate_event, extract_features,
                                        pseudo_discriminate, trained_tensors)
        from helpers import build_tiny_model, model_blocks, random_batch

        params = build_tiny_model()
        ids_s, y_s, ids_t = random_batch(params)
        feats_s = extract_features(ids_s, params.theta_f)
        feats_t = extract_features(ids_t, params.theta_f)
        l_pe = loss_pseudo(pseudo_discriminate(feats_s, params.theta_pe),
                           pseudo_discriminate(feats_t, params.theta_pe))
        l_ew = loss_event_weighted(
            discriminate_event(feats_s, params.theta_e, 0.0),
            discriminate_event(feats_t, params.theta_e, 0.0),
            np.ones(len(ids_s)))
        # detector loss masked to zero weight
        l_yw = loss_detection_weighted(detect(feats_s, params.theta_y), y_s,
                                       np.zeros(len(ids_s)))
        blocks = model_blocks(params)
        frozen = blocks["theta_f"] + blocks["theta_y"]
        before = [t.data.copy() for t in frozen]
        e_before = [t.data.copy() for t in blocks["theta_e"]]
        pe_before = [t.data.copy() for t in blocks["theta_pe"]]
        backward(total_loss(l_yw, l_pe, l_ew, mu=1.0))
        sgd_step(trained_tensors(params).values(), lr=0.1)
        # extractor, embeddings, detector: bit-identical (masked / zero gain)
        assert all(np.array_equal(t.data, b) for t, b in zip(frozen, before))
        assert not all(np.array_equal(t.data, b)
                       for t, b in zip(blocks["theta_pe"], pe_before))
        # the event head still descends on its own loss above the reversal node
        assert not all(np.array_equal(t.data, b)
                       for t, b in zip(blocks["theta_e"], e_before))


class TestOverlappedEvaluation:
    """An epoch's target accuracy is computed on a worker while the next
    epoch trains; 60 + 60 posts in batches of 20 take 6 steps an epoch."""

    STEPS = 6
    CONFIG = dict(batch_size=20, embedding_dim=8, n_filters=4, lr=0.3, seed=3)

    @pytest.fixture(scope="class")
    def corpora(self):
        return generate(SynthSpec(n_source=60, n_target=60, post_length=8, seed=2))

    def test_a_lagging_evaluation_reads_its_own_epochs_parameters(self, corpora,
                                                                  monkeypatch):
        from metadetector import training
        from metadetector.evaluation import predict

        source, target = corpora
        labels = np.array([p.label for p in target.posts])
        # epoch e's parameters are those an e-epoch run ends with
        expected = {}
        for e in (1, 2, 3):
            params, history, _ = train(source, target, TrainConfig(epochs=e, **self.CONFIG))
            ids_t = text.encode(target, params.vocab, params.k)
            accuracy = float((predict(params, ids_t) == labels).mean())
            assert history[-1].target_accuracy == accuracy
            expected[e] = ({n: t.data for n, t in params.tensors.items()}, accuracy)

        steps = [0]
        stepped = threading.Condition()
        seen = {}

        def counted_step(*args, **kwargs):
            sgd_step(*args, **kwargs)
            with stepped:
                steps[0] += 1
                stepped.notify_all()

        def lagging_predict(params, ids):
            epoch = len(seen) + 1
            if epoch < 3:  # wait for a step of the next epoch
                with stepped:
                    waited = stepped.wait_for(lambda: steps[0] > epoch * self.STEPS,
                                              timeout=20)
            else:
                waited = True
            seen[epoch] = (waited, {n: t.data.copy() for n, t in params.tensors.items()})
            return predict(params, ids)

        monkeypatch.setattr(training, "sgd_step", counted_step)
        monkeypatch.setattr(training, "predict", lagging_predict)
        _, history, _ = train(source, target, TrainConfig(epochs=3, **self.CONFIG))
        assert [seen[e][0] for e in (1, 2, 3)] == [True, True, True]
        for e in (1, 2, 3):
            arrays, accuracy = expected[e]
            assert all(np.array_equal(seen[e][1][n], a) for n, a in arrays.items())
            assert history[e - 1].target_accuracy == accuracy

    def test_a_failing_evaluation_is_raised_after_the_worker_ends(self, corpora,
                                                                  monkeypatch):
        from metadetector import training

        failure = RuntimeError("evaluation failed")

        def failing_predict(params, ids):
            raise failure

        monkeypatch.setattr(training, "predict", failing_predict)
        threads = threading.active_count()
        with pytest.raises(RuntimeError) as raised:
            train(*corpora, TrainConfig(epochs=3, **self.CONFIG))
        assert raised.value is failure
        assert threading.active_count() == threads

    def test_a_non_finite_gradient_waits_for_the_evaluation_in_flight(self, corpora,
                                                                      monkeypatch):
        from metadetector import training

        nan_set, finished = threading.Event(), []
        real_predict = training.predict

        def slow_predict(params, ids):  # still running when the NaN is found
            waited = nan_set.wait(timeout=20)
            out = real_predict(params, ids)
            finished.append((waited, threading.current_thread()))
            return out

        monkeypatch.setattr(training, "predict", slow_predict)
        nan_gradient_at(monkeypatch, self.STEPS + 2, nan_set)
        threads = threading.active_count()
        with pytest.raises(NumericalError, match="at epoch 2"):
            train(*corpora, TrainConfig(epochs=3, **self.CONFIG))
        [(waited, worker)] = finished
        assert waited and worker is not threading.current_thread()
        assert not worker.is_alive()
        assert threading.active_count() == threads

    def test_a_run_extracts_features_on_at_most_two_threads(self, corpora, monkeypatch):
        from metadetector import evaluation, training

        real, threads = training.extract_features, set()

        def recorded(*args, **kwargs):
            threads.add(threading.get_ident())
            return real(*args, **kwargs)

        monkeypatch.setattr(training, "extract_features", recorded)
        monkeypatch.setattr(evaluation, "extract_features", recorded)
        train(*corpora, TrainConfig(epochs=3, **self.CONFIG))
        assert threading.get_ident() in threads and len(threads) == 2

