import numpy as np
import pytest

from metadetector.autodiff import (
    Tensor,
    backward,
    concat,
    conv_text,
    dropout,
    embedding_lookup,
    grl,
    matmul,
    max_pool_full,
    relu,
    sigmoid,
    softmax_rows,
)
from metadetector.errors import (
    ConfigurationError,
    ContractError,
    DimensionError,
    EmptySequenceError,
    VocabMismatchError,
)
from helpers import central_difference, rel_error


class TestMatmul:
    def test_identity(self):
        a = Tensor(np.eye(2))
        b = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(matmul(a, b).data, b.data)

    def test_row_times_column(self):
        out = matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        assert out.data.tolist() == [[11.0]]

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 2\)"):
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))

    def test_gradient_matches_central_differences(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]], requires_grad=True)
        b = Tensor(np.eye(2))
        backward(matmul(a, b).sum())
        fd = central_difference(lambda: matmul(a, b).data.sum(), a)
        assert rel_error(a.grad, fd) < 1e-6


class TestActivations:
    def test_relu_sign_cases(self):
        out = relu(Tensor([-1.0, 0.0, 2.0]))
        assert out.data.tolist() == [0.0, 0.0, 2.0]

    def test_relu_positive_identity(self):
        x = np.array([0.5, 3.0])
        assert np.array_equal(relu(Tensor(x)).data, x)

    def test_relu_gradient_mask(self):
        x = Tensor([-1.0, 2.0], requires_grad=True)
        backward(relu(x).sum())
        assert x.grad.tolist() == [0.0, 1.0]

    def test_sigmoid_at_zero(self):
        assert sigmoid(Tensor([0.0])).data[0] == 0.5

    def test_sigmoid_saturation_no_overflow(self):
        assert sigmoid(Tensor([50.0])).data[0] == pytest.approx(1.0, abs=1e-12)
        assert np.isfinite(sigmoid(Tensor([-800.0])).data).all()

    def test_sigmoid_gradient_at_zero(self):
        x = Tensor([0.0], requires_grad=True)
        backward(sigmoid(x).sum())
        assert x.grad[0] == pytest.approx(0.25)


class TestSoftmaxRows:
    def test_equal_logits(self):
        out = softmax_rows(Tensor([[0.0, 0.0]]))
        assert out.data.tolist() == [[0.5, 0.5]]

    def test_analytic_case(self):
        out = softmax_rows(Tensor([[np.log(3.0), 0.0]]))
        assert np.allclose(out.data, [[0.75, 0.25]], atol=1e-12)

    def test_stabilized(self):
        out = softmax_rows(Tensor([[1000.0, 0.0]]))
        assert np.allclose(out.data, [[1.0, 0.0]])
        assert np.isfinite(out.data).all()

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        out = softmax_rows(Tensor(rng.normal(size=(20, 2)) * 10))
        assert np.allclose(out.data.sum(axis=1), 1.0, atol=1e-12)


class TestConvText:
    def test_output_length(self):
        x = Tensor(np.random.default_rng(1).normal(size=(4, 10)))
        f = Tensor(np.random.default_rng(2).normal(size=(3, 4, 3)))
        out = conv_text(x, f, Tensor(np.zeros(3)))
        assert out.shape == (3, 8)  # k - h + 1

    def test_zero_input_zero_bias(self):
        out = conv_text(Tensor(np.zeros((2, 5))),
                        Tensor(np.ones((3, 2, 2))), Tensor(np.zeros(3)))
        assert np.array_equal(out.data, np.zeros((3, 4)))

    def test_dot_product_arithmetic(self):
        x = Tensor([[1.0, 2.0, 3.0]])
        f = Tensor([[[1.0, 1.0]]])
        out = conv_text(x, f, Tensor([0.0]))
        assert out.data.tolist() == [[3.0, 5.0]]

    def test_window_too_large(self):
        with pytest.raises(ConfigurationError):
            conv_text(Tensor(np.zeros((2, 3))),
                      Tensor(np.zeros((1, 2, 4))), Tensor(np.zeros(1)))

    def test_gradients_match_central_differences(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(2, 3, 6)), requires_grad=True)
        f = Tensor(rng.normal(size=(2, 3, 2)), requires_grad=True)
        b = Tensor(rng.normal(size=2), requires_grad=True)
        backward(conv_text(x, f, b).sum())
        for t in (x, f, b):
            fd = central_difference(lambda: conv_text(x, f, b).data.sum(), t)
            assert rel_error(t.grad, fd) < 1e-6


class TestMaxPool:
    def test_row_maximum(self):
        assert max_pool_full(Tensor([[1.0, 5.0, 3.0]])).data.tolist() == [5.0]

    def test_tie_routes_to_first_index(self):
        c = Tensor([[2.0, 2.0]], requires_grad=True)
        out = max_pool_full(c)
        assert out.data.tolist() == [2.0]
        backward(out.sum())
        assert c.grad.tolist() == [[1.0, 0.0]]

    def test_constant_row(self):
        assert max_pool_full(Tensor([[7.0, 7.0, 7.0]])).data.tolist() == [7.0]

    def test_empty_sequence(self):
        with pytest.raises(EmptySequenceError):
            max_pool_full(Tensor(np.zeros((2, 0))))


class TestDropout:
    def test_inference_passthrough(self):
        x = Tensor([1.0, 2.0])
        out = dropout(x, 0.5, training=False)
        assert out.data is x.data

    def test_rate_zero_identity(self):
        x = Tensor([1.0, 2.0])
        assert dropout(x, 0.0, training=True,
                       rng=np.random.default_rng(0)).data is x.data

    def test_invalid_rate(self):
        with pytest.raises(ConfigurationError):
            dropout(Tensor([1.0]), 1.0, training=True,
                    rng=np.random.default_rng(0))

    def test_survivor_fraction_and_mean(self):
        rng = np.random.default_rng(42)
        x = Tensor(np.ones(100_000))
        out = dropout(x, 0.2, training=True, rng=rng)
        survivors = (out.data != 0).mean()
        assert abs(survivors - 0.8) < 0.01
        assert abs(out.data.mean() - 1.0) < 0.02


class TestGrl:
    def test_identity_forward(self):
        x = Tensor([1.5, -2.0])
        out = grl(x, 1.0)
        assert out.data is x.data  # bit-exact

    def test_backward_negates(self):
        x = Tensor([1.0], requires_grad=True)
        backward((grl(x, 1.0) * 0.5).sum())
        assert x.grad[0] == -0.5

    def test_lambda_zero_freezes(self):
        x = Tensor([3.0], requires_grad=True)
        backward(grl(x, 0.0).sum())
        assert x.grad[0] == 0.0


class TestBackward:
    def test_sum_of_leaf_gives_ones(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        backward(x.sum())
        assert np.array_equal(x.grad, np.ones((2, 3)))

    def test_non_scalar_seed_rejected(self):
        with pytest.raises(ContractError):
            backward(Tensor([1.0, 2.0]))

    def test_accumulation_doubles(self):
        x = Tensor([2.0], requires_grad=True)
        out = (x * x).sum()
        backward(out)
        first = x.grad.copy()
        backward(out)
        assert np.array_equal(x.grad, 2 * first)

    def test_composed_graph_matches_central_differences(self):
        rng = np.random.default_rng(5)
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 2)), requires_grad=True)

        def f():
            return softmax_rows(matmul(relu(a), w)).log().sum().data.sum()

        backward(softmax_rows(matmul(relu(a), w)).log().sum())
        for t in (a, w):
            fd = central_difference(f, t)
            assert rel_error(t.grad, fd) < 1e-4


class TestEmbeddingLookup:
    def test_gather_shapes(self):
        table = Tensor(np.arange(12.0).reshape(4, 3))
        out = embedding_lookup(table, np.array([1, 2]))
        assert out.shape == (3, 2)
        out = embedding_lookup(table, np.array([[1, 2], [3, 0]]))
        assert out.shape == (2, 3, 2)

    def test_out_of_range(self):
        table = Tensor(np.zeros((4, 3)))
        with pytest.raises(VocabMismatchError):
            embedding_lookup(table, np.array([4]))

    def test_pad_row_receives_no_gradient(self):
        table = Tensor(np.random.default_rng(0).normal(size=(4, 3)),
                       requires_grad=True)
        backward(embedding_lookup(table, np.array([0, 1, 1])).sum())
        assert np.array_equal(table.grad[0], np.zeros(3))
        assert np.array_equal(table.grad[1], 2 * np.ones(3))


class TestDeterminism:
    def test_fixed_seed_bit_identical(self):
        def run():
            rng = np.random.default_rng(9)
            x = Tensor(np.random.default_rng(1).normal(size=(5, 8)),
                       requires_grad=True)
            out = dropout(relu(x), 0.3, training=True, rng=rng).sum()
            backward(out)
            return out.data.copy(), x.grad.copy()

        (v1, g1), (v2, g2) = run(), run()
        assert np.array_equal(v1, v2)
        assert np.array_equal(g1, g2)


def test_concat_backward_splits():
    a = Tensor(np.ones((2, 2)), requires_grad=True)
    b = Tensor(np.ones((2, 3)), requires_grad=True)
    out = concat([a, b], axis=1)
    assert out.shape == (2, 5)
    backward((out * 2.0).sum())
    assert np.array_equal(a.grad, 2 * np.ones((2, 2)))
    assert np.array_equal(b.grad, 2 * np.ones((2, 3)))


class TestPrunedBackward:
    def test_frozen_table_skips_lookup_backward(self, monkeypatch):
        from helpers import analytic_model_grads, build_tiny_model, random_batch
        from metadetector import text

        calls = []
        lookup = text.embedding_lookup

        def counted_lookup(table, ids):
            out = lookup(table, ids)
            bwd = out._backward

            def counted_bwd(g):
                calls.append(1)
                return bwd(g)

            out._backward = counted_bwd
            return out

        monkeypatch.setattr(text, "embedding_lookup", counted_lookup)

        def grads(trainable_table):
            params = build_tiny_model()
            table = params.theta_f.embedding
            table.trainable = table.weights.requires_grad = trainable_table
            ids_s, y_s, ids_t = random_batch(params)
            calls.clear()
            g = analytic_model_grads(params, ids_s, y_s, ids_t, lam=0.5, mu=0.7,
                                     weights=np.full(len(ids_s), 0.6))
            others = [t for t in params.trainable_tensors()
                      if t is not table.weights]
            return [g[id(t)] for t in others], len(calls)

        trained, trained_calls = grads(True)
        frozen, frozen_calls = grads(False)
        assert trained_calls == 2 and frozen_calls == 0
        assert len(frozen) == len(trained)
        assert all(np.array_equal(a, b) for a, b in zip(frozen, trained))
