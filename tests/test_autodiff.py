import tracemalloc
from dataclasses import is_dataclass

import numpy as np
import pytest

from metadetector import model
from metadetector.autodiff import (
    Tensor,
    _op,
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
    split_rows,
    text_cnn,
)
from metadetector.errors import (
    ConfigurationError,
    ContractError,
    DimensionError,
    EmptySequenceError,
    VocabMismatchError,
)
from metadetector.model import (
    DetectorParams,
    DiscriminatorParams,
    detect,
    extract_features,
    linear,
)
from metadetector.training import (
    compute_weights,
    loss_detection_weighted,
    loss_event_weighted,
    total_loss,
)
from helpers import (
    add,
    build_tiny_model,
    central_difference,
    log,
    mean,
    mul,
    neg,
    one_minus,
    random_batch,
    rel_error,
    reshape,
    total,
    transpose,
)


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
        backward(total(matmul(a, b)))
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
        backward(total(relu(x)))
        assert x.grad.tolist() == [0.0, 1.0]

    def test_sigmoid_at_zero(self):
        assert sigmoid(Tensor([0.0])).data[0] == 0.5

    def test_sigmoid_saturation_no_overflow(self):
        assert sigmoid(Tensor([50.0])).data[0] == pytest.approx(1.0, abs=1e-12)
        assert np.isfinite(sigmoid(Tensor([-800.0])).data).all()

    def test_sigmoid_gradient_at_zero(self):
        x = Tensor([0.0], requires_grad=True)
        backward(total(sigmoid(x)))
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
        x = Tensor(np.random.default_rng(1).normal(size=(1, 4, 10)))
        f = Tensor(np.random.default_rng(2).normal(size=(3, 4, 3)))
        out = conv_text(x, f, Tensor(np.zeros(3)))
        assert out.shape == (1, 3, 8)  # k - h + 1

    def test_zero_input_zero_bias(self):
        out = conv_text(Tensor(np.zeros((1, 2, 5))),
                        Tensor(np.ones((3, 2, 2))), Tensor(np.zeros(3)))
        assert np.array_equal(out.data, np.zeros((1, 3, 4)))

    def test_dot_product_arithmetic(self):
        x = Tensor([[[1.0, 2.0, 3.0]]])
        f = Tensor([[[1.0, 1.0]]])
        out = conv_text(x, f, Tensor([0.0]))
        assert out.data.tolist() == [[[3.0, 5.0]]]

    def test_window_too_large(self):
        with pytest.raises(ConfigurationError):
            conv_text(Tensor(np.zeros((1, 2, 3))),
                      Tensor(np.zeros((1, 2, 4))), Tensor(np.zeros(1)))

    def test_unbatched_input_rejected(self):
        with pytest.raises(DimensionError):
            conv_text(Tensor(np.zeros((2, 3))),
                      Tensor(np.zeros((1, 2, 2))), Tensor(np.zeros(1)))

    def test_gradients_match_central_differences(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(2, 3, 6)), requires_grad=True)
        f = Tensor(rng.normal(size=(2, 3, 2)), requires_grad=True)
        b = Tensor(rng.normal(size=2), requires_grad=True)
        backward(total(conv_text(x, f, b)))
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
        backward(total(out))
        assert c.grad.tolist() == [[1.0, 0.0]]

    def test_constant_row(self):
        assert max_pool_full(Tensor([[7.0, 7.0, 7.0]])).data.tolist() == [7.0]

    def test_empty_sequence(self):
        with pytest.raises(EmptySequenceError):
            max_pool_full(Tensor(np.zeros((2, 0))))


class TestDropout:
    def test_inference_passthrough(self):
        x = Tensor([1.0, 2.0])
        out = dropout(x, 0.5)
        assert out.data is x.data

    def test_rate_zero_identity(self):
        x = Tensor([1.0, 2.0])
        assert dropout(x, 0.0, rng=np.random.default_rng(0)).data is x.data

    def test_invalid_rate(self):
        with pytest.raises(ConfigurationError):
            dropout(Tensor([1.0]), 1.0, rng=np.random.default_rng(0))

    def test_survivor_fraction_and_mean(self):
        rng = np.random.default_rng(42)
        x = Tensor(np.ones(100_000))
        out = dropout(x, 0.2, rng=rng)
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
        backward(total(mul(grl(x, 1.0), 0.5)))
        assert x.grad[0] == -0.5

    def test_lambda_zero_freezes(self):
        x = Tensor([3.0], requires_grad=True)
        backward(total(grl(x, 0.0)))
        assert x.grad[0] == 0.0


class TestBackward:
    def test_sum_of_leaf_gives_ones(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        backward(total(x))
        assert np.array_equal(x.grad, np.ones((2, 3)))

    def test_non_scalar_seed_rejected(self):
        with pytest.raises(ContractError):
            backward(Tensor([1.0, 2.0]))

    def test_accumulation_doubles(self):
        x = Tensor([2.0], requires_grad=True)
        out = total(mul(x, x))
        backward(out)
        first = x.grad.copy()
        backward(out)
        assert np.array_equal(x.grad, 2 * first)

    def test_composed_graph_matches_central_differences(self):
        rng = np.random.default_rng(5)
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 2)), requires_grad=True)

        def f():
            return total(log(softmax_rows(matmul(relu(a), w)))).data.sum()

        backward(total(log(softmax_rows(matmul(relu(a), w)))))
        for t in (a, w):
            fd = central_difference(f, t)
            assert rel_error(t.grad, fd) < 1e-4


class TestEmbeddingLookup:
    def test_gather_shapes(self):
        table = Tensor(np.arange(12.0).reshape(4, 3))
        out = embedding_lookup(table, np.array([[1, 2]]))
        assert out.shape == (1, 3, 2)
        out = embedding_lookup(table, np.array([[1, 2], [3, 0]]))
        assert out.shape == (2, 3, 2)
        with pytest.raises(DimensionError):
            embedding_lookup(table, np.array([1, 2]))

    def test_out_of_range(self):
        table = Tensor(np.zeros((4, 3)))
        with pytest.raises(VocabMismatchError):
            embedding_lookup(table, np.array([[4]]))

    def test_pad_row_receives_no_gradient(self):
        table = Tensor(np.random.default_rng(0).normal(size=(4, 3)),
                       requires_grad=True)
        backward(total(embedding_lookup(table, np.array([[0, 1, 1]]))))
        assert np.array_equal(table.grad[0], np.zeros(3))
        assert np.array_equal(table.grad[1], 2 * np.ones(3))


class TestDeterminism:
    def test_fixed_seed_bit_identical(self):
        def run():
            rng = np.random.default_rng(9)
            x = Tensor(np.random.default_rng(1).normal(size=(5, 8)),
                       requires_grad=True)
            out = total(dropout(relu(x), 0.3, rng=rng))
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
    backward(total(mul(out, 2.0)))
    assert np.array_equal(a.grad, 2 * np.ones((2, 2)))
    assert np.array_equal(b.grad, 2 * np.ones((2, 3)))


def unfused_text_cnn(table, ids, filters, biases):
    """The reference composite the fused op must reproduce."""
    x = embedding_lookup(table, ids)
    return concat([max_pool_full(conv_text(x, f, b))
                   for f, b in zip(filters, biases)], axis=-1)


def text_cnn_params(rng, vocab_size=12, d=3, n_c=2, w_max=3, trainable=True):
    table = Tensor(rng.normal(size=(vocab_size, d)), requires_grad=trainable)
    table.data[0] = 0.0
    filters = [Tensor(rng.normal(size=(n_c, d, h)), requires_grad=True)
               for h in range(1, w_max + 1)]
    biases = [Tensor(rng.normal(size=n_c), requires_grad=True)
              for _ in range(w_max)]
    return table, filters, biases


def output_and_grads(op, table, ids, filters, biases, g):
    leaves = [t for t in (table, *filters, *biases) if t.requires_grad]
    for t in leaves:
        t.grad = None
    out = op(table, ids, filters, biases)
    backward(total(mul(out, g)))
    return [out.data] + [t.grad.copy() for t in leaves]


class TestTextCnn:
    @pytest.mark.parametrize("case", ["repeated-and-pad", "k-equals-w-max"])
    def test_matches_unfused_composite(self, case):
        rng = np.random.default_rng(21)
        table, filters, biases = text_cnn_params(rng)
        if case == "repeated-and-pad":
            ids = np.array([[3, 3, 5, 3, 0, 0, 0],    # repeats, right padding
                            [0, 7, 7, 7, 7, 2, 1],    # PAD inside, a run of 7s
                            [11, 4, 9, 4, 11, 4, 9]])
        else:
            ids = rng.integers(0, 12, size=(4, 3))   # k == w_max: one window per bank
        g = rng.normal(size=(len(ids), 3 * 2))
        fused = output_and_grads(text_cnn, table, ids, filters, biases, g)
        ref = output_and_grads(unfused_text_cnn, table, ids, filters, biases, g)
        assert fused[0].shape == (len(ids), 6)
        for a, b in zip(fused, ref):
            assert np.abs(a - b).max() <= 1e-10
        assert np.array_equal(fused[1][0], np.zeros(3))  # PAD row

    def test_tie_goes_to_first_position(self):
        # tokens 3 and 4 share an embedding, so every window of [3, 4, 4, 3]
        # ties; integer values keep the tie exact under any summation order
        table = Tensor(np.array([[0, 0], [1, 2], [2, 1], [1, 1], [1, 1]], float),
                       requires_grad=True)
        f1 = Tensor(np.array([[[1.0], [2.0]]]), requires_grad=True)
        f2 = Tensor(np.array([[[1.0, 3.0], [2.0, 5.0]]]), requires_grad=True)
        biases = [Tensor(np.zeros(1), requires_grad=True) for _ in range(2)]
        ids = np.array([[3, 4, 4, 3]])
        g = np.ones((1, 2))
        fused = output_and_grads(text_cnn, table, ids, [f1, f2], biases, g)
        ref = output_and_grads(unfused_text_cnn, table, ids, [f1, f2], biases, g)
        assert all(np.array_equal(a, b) for a, b in zip(fused, ref))
        # position 0 wins both banks: token 3 takes offset 0 of each, token 4
        # offset 1 of the width-2 filter
        assert fused[1][3].tolist() == [1.0 + 1.0, 2.0 + 2.0]
        assert fused[1][4].tolist() == [3.0, 5.0]

    def test_gradients_match_central_differences(self):
        rng = np.random.default_rng(4)
        table, filters, biases = text_cnn_params(rng, w_max=4)
        ids = rng.integers(1, 12, size=(3, 6))
        g = rng.normal(size=(3, 8))
        backward(total(mul(text_cnn(table, ids, filters, biases), g)))

        def f():
            return (text_cnn(table, ids, filters, biases).data * g).sum()

        for t in (table, *filters, *biases):
            assert rel_error(t.grad, central_difference(f, t)) < 1e-6

    def test_frozen_table_gets_no_gradient_array(self):
        vocab_size, d = 50_000, 4
        rng = np.random.default_rng(8)
        table, filters, biases = text_cnn_params(rng, vocab_size=vocab_size, d=d,
                                                 trainable=False)
        out = text_cnn(table, rng.integers(0, vocab_size, size=(5, 6)),
                       filters, biases)
        tracemalloc.start()
        try:
            grads = out._backward(np.ones(out.shape))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert grads[0] is None
        assert peak < vocab_size * d * 8 // 10
        assert [gr.shape for gr in grads[1:]] == \
            [f.shape for f in filters] + [b.shape for b in biases]

    @pytest.mark.parametrize("vocab_size, d, n_c, trainable", [
        (112, 16, 12, True),        # the acceptance config
        (16_000, 32, 20, False),    # a wide frozen table
    ])
    def test_matches_unfused_composite_at_workload_shapes(self, vocab_size, d, n_c,
                                                          trainable):
        rng = np.random.default_rng(31)
        table, filters, biases = text_cnn_params(rng, vocab_size=vocab_size, d=d,
                                                 n_c=n_c, w_max=4, trainable=trainable)
        ids = rng.integers(1, vocab_size, size=(200, 40))
        ids[np.arange(40) >= rng.integers(0, 41, size=(200, 1))] = 0  # PAD tails
        ids[rng.random(ids.shape) < 0.05] = 0                         # PAD inside
        ids[:3] = 0                                                   # all-PAD rows
        g = rng.normal(size=(200, 4 * n_c))
        fused = output_and_grads(text_cnn, table, ids, filters, biases, g)
        ref = output_and_grads(unfused_text_cnn, table, ids, filters, biases, g)
        for a, b in zip(fused, ref):
            assert np.abs(a - b).max() <= 1e-10

    def test_window_past_the_sequence_never_wins(self):
        # window 2 at the last position would read token 1 and a PAD:
        # 30 * 1 > 10, the best of the two valid windows, yet it must not win
        table = Tensor(np.array([[0.0], [30.0], [-10.0]]), requires_grad=True)
        f1 = Tensor(np.array([[[1.0]]]), requires_grad=True)
        f2 = Tensor(np.array([[[1.0, -2.0]]]), requires_grad=True)
        biases = [Tensor(np.zeros(1), requires_grad=True) for _ in range(2)]
        ids = np.array([[2, 2, 1]])
        g = np.ones((1, 2))
        fused = output_and_grads(text_cnn, table, ids, [f1, f2], biases, g)
        ref = output_and_grads(unfused_text_cnn, table, ids, [f1, f2], biases, g)
        assert all(np.array_equal(a, b) for a, b in zip(fused, ref))
        assert fused[0].tolist() == [[30.0, 10.0]]
        # token 1 wins window 1; token 2 fills both offsets of window 2's winner
        assert fused[1][1:].tolist() == [[1.0], [-1.0]]
        assert fused[3].tolist() == [[[-10.0, -10.0]]]

    def test_huge_negative_windows_never_pick_the_tail(self):
        # tokens 1-3 share an embedding, so every valid window of a bank ties
        # near -1e300 per tap; window 2's tail (token 3 and a PAD) reads only
        # -1e300, above its valid -3e300, and must not win
        table = Tensor(np.array([[0.0], [1e300], [1e300], [1e300]]), requires_grad=True)
        f1 = Tensor(np.array([[[-1.0]]]), requires_grad=True)
        f2 = Tensor(np.array([[[-1.0, -2.0]]]), requires_grad=True)
        biases = [Tensor(np.zeros(1), requires_grad=True) for _ in range(2)]
        ids = np.array([[1, 2, 3]])
        g = np.ones((1, 2))
        fused = output_and_grads(text_cnn, table, ids, [f1, f2], biases, g)
        ref = output_and_grads(unfused_text_cnn, table, ids, [f1, f2], biases, g)
        assert all(np.array_equal(a, b) for a, b in zip(fused, ref))
        assert fused[0].tolist() == [[-1e300, -3e300]]
        # position 0 wins both banks: token 1 takes offset 0 of each, token 2
        # offset 1 of the width-2 filter, token 3 nothing
        assert fused[1][1:].tolist() == [[-2.0], [-2.0], [0.0]]

    def test_frozen_table_backward_memory_at_batch_size(self):
        # the scatter is sized by the batch's distinct tokens, not by |V|
        vocab_size, d = 1_000_000, 4
        rng = np.random.default_rng(8)
        table, filters, biases = text_cnn_params(rng, vocab_size=vocab_size, d=d,
                                                 trainable=False)
        out = text_cnn(table, rng.integers(0, vocab_size, size=(200, 40)),
                       filters, biases)
        tracemalloc.start()
        try:
            grads = out._backward(np.ones(out.shape))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert grads[0] is None
        assert peak < vocab_size * d * 8 // 10

    def test_bad_inputs(self):
        table, filters, biases = text_cnn_params(np.random.default_rng(0))
        with pytest.raises(DimensionError):
            text_cnn(table, np.array([1, 2, 3]), filters, biases)
        with pytest.raises(VocabMismatchError):
            text_cnn(table, np.array([[1, 2, 12]]), filters, biases)
        with pytest.raises(ConfigurationError):
            text_cnn(table, np.array([[1, 2]]), filters, biases)


# -- fused heads and losses ---------------------------------------------------
# The primitive-op composites each fused op must reproduce bit for bit.


def unfused_linear(x, w, b):
    return add(matmul(x, transpose(w)), b)


def unfused_detect(features, theta_y):
    return softmax_rows(unfused_linear(features, theta_y.w, theta_y.b))


def unfused_discriminator_head(features, theta):
    h = relu(unfused_linear(features, theta.w1, theta.b1))
    p = sigmoid(unfused_linear(h, theta.w2, theta.b2))
    return reshape(p, (p.shape[0],))


def unfused_loss_detection_weighted(probs, labels, weights):
    n = probs.shape[0]
    onehot = np.zeros((n, 2))
    onehot[np.arange(n), labels] = 1.0
    picked = total(mul(probs, onehot), axis=1)
    return neg(mean(mul(log(picked), weights)))


def unfused_loss_event_weighted(src_probs, tgt_probs, weights):
    src_term = mean(mul(log(src_probs), weights))
    tgt_term = mean(log(one_minus(tgt_probs)))
    return neg(add(src_term, tgt_term))


FUSED = {"linear": linear, "detect": detect, "head": model._discriminator_head,
         "detection_loss": loss_detection_weighted, "event_loss": loss_event_weighted}
UNFUSED = {"linear": unfused_linear, "detect": unfused_detect,
           "head": unfused_discriminator_head,
           "detection_loss": unfused_loss_detection_weighted,
           "event_loss": unfused_loss_event_weighted}


def leaf(rng, *shape, scale=1.0):
    return Tensor(rng.normal(scale=scale, size=shape), requires_grad=True)


def op_output_and_grads(op, args, g):
    """``op(*args)``'s values and each trained tensor argument's gradient
    of ``sum(op(*args) * g)``; a params dataclass counts by its fields."""
    leaves = [t for a in args for t in (vars(a).values() if is_dataclass(a) else [a])
              if isinstance(t, Tensor) and t.requires_grad]
    for t in leaves:
        t.grad = None
    out = op(*args)
    backward(total(mul(out, g)))
    return [out.data] + [t.grad.copy() for t in leaves]


def assert_fused_matches(name, args, g):
    fused = op_output_and_grads(FUSED[name], args, g)
    ref = op_output_and_grads(UNFUSED[name], args, g)
    assert len(fused) == len(ref)
    for a, b in zip(fused, ref):
        assert a.shape == b.shape and np.array_equal(a, b)


def graph_size(seed):
    """Distinct tensors reachable from ``seed``, as perfbench counts a tape."""
    seen, stack = {id(seed)}, [seed]
    while stack:
        for p in stack.pop()._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)


class TestFusedHeadsAndLosses:
    @pytest.mark.parametrize("x_trains", [True, False])
    def test_linear(self, x_trains):
        rng = np.random.default_rng(40)
        x = Tensor(rng.normal(size=(7, 5)), requires_grad=x_trains)
        args = (x, leaf(rng, 3, 5), leaf(rng, 3))
        assert_fused_matches("linear", args, rng.normal(size=(7, 3)))

    def test_detect(self):
        rng = np.random.default_rng(41)
        features = leaf(rng, 9, 6, scale=3.0)
        theta_y = DetectorParams(w=leaf(rng, 2, 6), b=leaf(rng, 2))
        assert_fused_matches("detect", (features, theta_y), rng.normal(size=(9, 2)))

    @pytest.mark.parametrize("x_trains", [True, False])
    def test_discriminator_head(self, x_trains):
        rng = np.random.default_rng(42)
        features = rng.normal(size=(8, 6))
        features[0] *= 1e3  # a row whose sigmoid saturates
        features = Tensor(features, requires_grad=x_trains)
        theta = DiscriminatorParams(leaf(rng, 5, 6), leaf(rng, 5), leaf(rng, 1, 5),
                                    leaf(rng, 1))
        assert_fused_matches("head", (features, theta), rng.normal(size=8))

    def test_detection_loss_with_clamped_probabilities(self):
        rng = np.random.default_rng(43)
        p = rng.uniform(0.05, 0.95, size=6)
        p[:2] = [0.0, 1.0]  # one label's probability clamps, one is exact
        probs = Tensor(np.stack([p, 1.0 - p], axis=1), requires_grad=True)
        labels = np.array([0, 0, 1, 0, 1, 1])
        weights = rng.uniform(0.0, 1.0, size=6)
        for g in (1.0, -0.7):
            assert_fused_matches("detection_loss", (probs, labels, weights), np.array(g))

    def test_event_loss_with_clamped_probabilities(self):
        rng = np.random.default_rng(44)
        src = rng.uniform(0.05, 0.95, size=5)
        tgt = rng.uniform(0.05, 0.95, size=7)
        src[:2] = [0.0, 1.0]  # log(0) clamps
        tgt[:2] = [1.0, 0.0]  # log(1 - 1) clamps
        src, tgt = Tensor(src, requires_grad=True), Tensor(tgt, requires_grad=True)
        weights = rng.uniform(0.0, 1.0, size=5)
        for g in (1.0, 0.7):
            assert_fused_matches("event_loss", (src, tgt, weights), np.array(g))

    @staticmethod
    def training_step(monkeypatch, ops, lam=0.5, mu=0.7):
        """``train``'s loop body on one batch, with the heads and losses of
        ``ops``; the total loss and every trained tensor's gradient."""
        monkeypatch.setattr(model, "linear", ops["linear"])  # inside extract_features
        params = build_tiny_model(w_max=4)
        ids_s, y_s, ids_t = random_batch(params, b_s=6, b_t=6)
        feats = extract_features(np.concatenate([ids_s, ids_t]), params.theta_f,
                                 rng=np.random.default_rng(5), dropout_rate=0.2)
        feats_s, feats_t = split_rows(feats, len(ids_s))
        head = ops["head"]
        pe_s = head(feats_s.detach(), params.theta_pe)
        l_pe = ops["event_loss"](pe_s, head(feats_t.detach(), params.theta_pe),
                                 np.ones(len(ids_s)))
        w = compute_weights(pe_s.data, gate_open=True)
        l_yw = ops["detection_loss"](ops["detect"](feats_s, params.theta_y), y_s, w)
        l_ew = ops["event_loss"](head(grl(feats_s, lam), params.theta_e),
                                 head(grl(feats_t, lam), params.theta_e), w)
        loss = total_loss(l_yw, l_pe, l_ew, mu)
        backward(loss)
        return loss, [t.grad.copy() for t in model.trained_tensors(params).values()]

    def test_training_step_gradients_are_bit_identical(self, monkeypatch):
        loss, grads = self.training_step(monkeypatch, FUSED)
        ref_loss, ref_grads = self.training_step(monkeypatch, UNFUSED)
        assert len(grads) == len(ref_grads) == 21
        assert np.array_equal(loss.data, ref_loss.data)
        assert all(np.array_equal(a, b) for a, b in zip(grads, ref_grads))

    def test_training_step_tape_size(self, monkeypatch):
        loss, _ = self.training_step(monkeypatch, FUSED)
        assert graph_size(loss) <= 40


def record_returns(seed):
    """Wrap every backward closure under ``seed`` to keep each array it
    returns with a copy of it; the list of (array, copy) pairs."""
    returned = []
    seen, stack = set(), [seed]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(node._parents)
        if node._backward is not None:
            def wrapped(g, bwd=node._backward):
                out = bwd(g)
                returned.extend((a, np.array(a, copy=True)) for a in out
                                if isinstance(a, np.ndarray))
                return out
            node._backward = wrapped
    return returned


class TestBackwardKeepsClosureArrays:
    def test_one_array_to_two_parents(self):
        # `shared` goes to p and to the leaf y; p then gets a second
        # contribution, which must not be added into `shared`
        x = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
        y = Tensor(np.array([0.5, 0.5, 0.5]), requires_grad=True)
        p = mul(x, 1.0)

        def bwd(g):
            shared = g * 2.0
            return shared, shared

        node = _op(p.data + y.data, (p, y), bwd)
        seed = add(total(mul(node, np.array([1.0, 2.0, 3.0]))), total(p))
        returned = record_returns(seed)
        backward(seed)
        assert y.grad.tolist() == [2.0, 4.0, 6.0]
        assert x.grad.tolist() == [3.0, 5.0, 7.0]
        assert returned and all(np.array_equal(a, c) for a, c in returned)

    def test_three_contributions(self):
        x = Tensor(np.array([[1.0, -1.0], [2.0, 0.5]]), requires_grad=True)
        h = mul(x, 1.0)
        seed = add(add(total(mul(h, 2.0)), total(mul(h, 3.0))), total(relu(h)))
        returned = record_returns(seed)
        backward(seed)
        assert x.grad.tolist() == [[6.0, 5.0], [6.0, 6.0]]
        assert returned and all(np.array_equal(a, c) for a, c in returned)


def test_split_rows_gradients():
    x = Tensor(np.arange(10.0).reshape(5, 2), requires_grad=True)
    head, tail = split_rows(x, 2)
    assert np.array_equal(head.data, x.data[:2])
    assert np.array_equal(tail.data, x.data[2:])
    backward(add(total(mul(head, 2.0)), total(mul(tail, 3.0))))
    assert x.grad.tolist() == [[2.0, 2.0]] * 2 + [[3.0, 3.0]] * 3
    with pytest.raises(DimensionError):
        split_rows(x, 6)


def test_only_leaves_hold_grad_buffers():
    x = Tensor(np.ones((2, 3)), requires_grad=True)
    hidden = relu(mul(x, 2.0))
    out = total(hidden)
    assert hidden.grad is None and out.grad is None
    # no tensor is made holding a gradient, a trained leaf included
    assert Tensor(np.ones(3)).grad is None and x.detach().grad is None
    assert x.grad is None
    backward(out)
    assert hidden.grad is None
    assert np.array_equal(x.grad, np.full((2, 3), 2.0))


class TestPrunedBackward:
    def test_op_requires_grad_iff_an_input_does(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        c = Tensor(rng.normal(size=(3, 2)))
        table, filters, biases = text_cnn_params(rng, trainable=False)
        fixed = [Tensor(t.data) for t in (*filters, *biases)]
        ids = np.array([[1, 2, 3, 4], [5, 0, 0, 0]])
        assert relu(x).requires_grad and not relu(c).requires_grad
        assert matmul(x, c).requires_grad and matmul(c, x).requires_grad
        assert not matmul(c, transpose(c)).requires_grad
        assert text_cnn(table, ids, filters, biases).requires_grad
        frozen_cnn = text_cnn(table, ids, fixed[:3], fixed[3:])
        assert not frozen_cnn.requires_grad
        assert not x.detach().requires_grad

        # a seed that no trainable input reaches hands no leaf a gradient
        seed = add(add(total(relu(c)), total(mul(x.detach(), 2.0))), total(frozen_cnn))
        assert not seed.requires_grad
        backward(seed)
        for leaf in (x, *filters, *biases, c, table, *fixed):
            assert leaf.grad is None

    def test_frozen_table_skips_lookup_backward(self, monkeypatch):
        from helpers import analytic_model_grads, build_tiny_model, random_batch
        from metadetector import model

        calls = []  # one per table gradient the extractor op computes
        fused = model.text_cnn

        def counted_text_cnn(table, ids, filters, biases):
            out = fused(table, ids, filters, biases)
            bwd = out._backward

            def counted_bwd(g):
                grads = bwd(g)
                if grads[0] is not None:
                    calls.append(1)
                return grads

            out._backward = counted_bwd
            return out

        monkeypatch.setattr(model, "text_cnn", counted_text_cnn)

        def grads(trainable_table):
            params = build_tiny_model()
            table = params.theta_f.embedding
            table.requires_grad = trainable_table
            ids_s, y_s, ids_t = random_batch(params)
            calls.clear()
            g = analytic_model_grads(params, ids_s, y_s, ids_t, lam=0.5, mu=0.7,
                                     weights=np.full(len(ids_s), 0.6))
            others = [t for t in model.trained_tensors(params).values() if t is not table]
            return [g[id(t)] for t in others], len(calls)

        trained, trained_calls = grads(True)
        frozen, frozen_calls = grads(False)
        assert trained_calls == 2 and frozen_calls == 0
        assert len(frozen) == len(trained)
        assert all(np.array_equal(a, b) for a, b in zip(frozen, trained))
