import hashlib
import json
import re

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from metadetector.autodiff import Tensor, backward
from metadetector.errors import CheckpointError, ConfigurationError
from metadetector.model import (
    detect,
    discriminate_event,
    extract_features,
    load_checkpoint,
    pseudo_discriminate,
    save_checkpoint,
    snapshot,
    trained_tensors,
    _array_shapes,
    _discriminator_head,
)
from metadetector.text import MAX_K
from metadetector.training import sgd_step, total_loss
from helpers import build_tiny_model, forward_losses, init_discriminator, random_batch, total


class TestExtractFeatures:
    def test_dimension_pipeline(self):
        params = build_tiny_model(n_filters=20, w_max=4, k=12)
        ids, _, _ = random_batch(params, b_s=5)
        feats = extract_features(ids, params.theta_f)
        assert feats.shape == (5, 32)
        # pooled intermediate is w_max * n_c wide
        assert params.theta_f.w_fc.shape == (32, 80)

    def test_zero_weights_zero_features(self):
        params = build_tiny_model()
        for name, t in trained_tensors(params).items():
            if name.startswith("f_"):
                t.data[...] = 0.0
        ids, _, _ = random_batch(params)
        feats = extract_features(ids, params.theta_f)
        assert np.array_equal(feats.data, np.zeros(feats.shape))

    def test_output_nonnegative(self):
        params = build_tiny_model(seed=3)
        ids, _, _ = random_batch(params, seed=5)
        feats = extract_features(ids, params.theta_f)
        assert (feats.data >= 0).all()

    def test_short_sequence_rejected(self):
        params = build_tiny_model(w_max=3)
        ids = np.ones((2, 2), dtype=np.int64)  # k = 2 < w_max
        with pytest.raises(ConfigurationError):
            extract_features(ids, params.theta_f)


class TestDetect:
    def test_zero_weights_uniform(self):
        params = build_tiny_model()
        params.theta_y.w.data[...] = 0.0
        feats = Tensor(np.random.default_rng(0).normal(size=(4, 32)))
        probs = detect(feats, params.theta_y)
        assert np.allclose(probs.data, 0.5)

    def test_rows_sum_to_one(self):
        params = build_tiny_model()
        feats = Tensor(np.random.default_rng(1).normal(size=(6, 32)))
        probs = detect(feats, params.theta_y)
        assert np.allclose(probs.data.sum(axis=1), 1.0, atol=1e-12)

    def test_argmax_tracks_higher_logit(self):
        params = build_tiny_model()
        feats = Tensor(np.random.default_rng(2).normal(size=(6, 32)))
        logits = feats.data @ params.theta_y.w.data.T + params.theta_y.b.data
        probs = detect(feats, params.theta_y)
        assert np.array_equal(probs.data.argmax(axis=1), logits.argmax(axis=1))


class TestDiscriminators:
    def test_zero_head_gives_half(self):
        disc = init_discriminator(np.random.default_rng(0))
        for t in (disc.w1, disc.b1, disc.w2, disc.b2):
            t.data[...] = 0.0
        feats = Tensor(np.random.default_rng(1).normal(size=(5, 32)))
        assert np.allclose(discriminate_event(feats, disc, 1.0).data, 0.5)
        assert np.allclose(pseudo_discriminate(feats, disc).data, 0.5)

    def test_outputs_strictly_in_unit_interval(self):
        disc = init_discriminator(np.random.default_rng(3))
        feats = Tensor(np.random.default_rng(4).normal(size=(20, 32)))
        p = pseudo_discriminate(feats, disc).data
        assert (p > 0).all() and (p < 1).all()

    def test_lambda_zero_leaves_features_gradient_free(self):
        disc = init_discriminator(np.random.default_rng(5))
        feats = Tensor(np.random.default_rng(6).normal(size=(4, 32)),
                       requires_grad=True)
        backward(total(discriminate_event(feats, disc, 0.0)))
        assert np.array_equal(feats.grad, np.zeros((4, 32)))

    def test_grl_flips_and_scales_feature_gradient(self):
        # same head with and without reversal: gradients differ by -lambda
        disc = init_discriminator(np.random.default_rng(7))
        base = Tensor(np.random.default_rng(8).normal(size=(4, 32)))
        lam = 0.7

        with_grl = Tensor(base.data.copy(), requires_grad=True)
        backward(total(discriminate_event(with_grl, disc, lam)))
        plain = Tensor(base.data.copy(), requires_grad=True)
        backward(total(_discriminator_head(plain, disc)))

        assert np.allclose(with_grl.grad, -lam * plain.grad, atol=1e-10)


def count_trained(params) -> int:
    return sum(t.size for t in trained_tensors(params).values())


class TestParameterCount:
    def test_count_is_pure_function_of_sizes(self):
        a = count_trained(build_tiny_model(seed=1))
        b = count_trained(build_tiny_model(seed=99))
        assert a == b

    def test_count_formula(self):
        vs, d, n_c, w_max = 50, 8, 4, 3
        params = build_tiny_model(vocab_size=vs, dim=d, n_filters=n_c, w_max=w_max)
        conv = sum(n_c * d * h + n_c for h in range(1, w_max + 1))
        fc = 32 * (w_max * n_c) + 32
        det = 2 * 32 + 2
        disc = (32 * 32 + 32) + (32 + 1)
        expected = vs * d + conv + fc + det + 2 * disc
        assert count_trained(params) == expected

    @pytest.mark.parametrize("frozen", [False, True])
    def test_trained_tensors_follow_the_layout(self, frozen):
        params = build_tiny_model()
        params.theta_f.embedding.requires_grad = not frozen
        f = params.theta_f
        layout = [name for name, _ in _array_shapes(*f.embedding.shape, f.w_max,
                                                    f.n_filters)]
        expected = [name for name in layout if not (frozen and name == "embedding")]
        assert list(trained_tensors(params)) == expected

    def test_theta_e_and_theta_pe_distinct(self):
        params = build_tiny_model()
        assert params.theta_e.w1 is not params.theta_pe.w1
        assert not np.array_equal(params.theta_e.w1.data,
                                  params.theta_pe.w1.data)


def _view_tensors(params) -> dict[str, Tensor]:
    """Each tensor the four heads show, under its layout name."""
    f, y, e, pe = params.theta_f, params.theta_y, params.theta_e, params.theta_pe
    shown = {}
    for i, (w, b) in enumerate(zip(f.filters, f.conv_biases)):
        shown[f"f_filter_{i}"], shown[f"f_bias_{i}"] = w, b
    shown.update(f_w_fc=f.w_fc, f_b_fc=f.b_fc, embedding=f.embedding, y_w=y.w, y_b=y.b)
    for head, disc in (("e", e), ("pe", pe)):
        shown.update({f"{head}_{part}": getattr(disc, part)
                      for part in ("w1", "b1", "w2", "b2")})
    return shown


class TestHeadViews:
    def test_tensors_follow_the_layout(self):
        params = build_tiny_model(vocab_size=50, dim=8, n_filters=4, w_max=3)
        assert list(params.tensors) == [name for name, _ in _array_shapes(50, 8, 3, 4)]

    @pytest.mark.parametrize("frozen", [False, True])
    def test_each_head_shows_the_held_tensor(self, frozen):
        params = build_tiny_model()
        params.tensors["embedding"].requires_grad = not frozen
        shown = _view_tensors(params)
        assert sorted(shown) == sorted(params.tensors)
        assert all(shown[name] is t for name, t in params.tensors.items())

    @pytest.mark.parametrize("frozen", [False, True])
    def test_snapshot_copies_what_trains_and_shares_the_rest(self, frozen):
        params = build_tiny_model()
        params.tensors["embedding"].requires_grad = not frozen
        copy = snapshot(params)
        assert list(copy.tensors) == list(params.tensors)
        for name, t in params.tensors.items():
            if t.requires_grad:
                assert np.array_equal(copy.tensors[name].data, t.data)
                assert not np.shares_memory(copy.tensors[name].data, t.data)
            else:
                assert copy.tensors[name] is t
        assert (copy.vocab, copy.k, copy.seed) == (params.vocab, params.k, params.seed)

    def test_a_step_on_the_original_leaves_the_snapshot(self):
        params = build_tiny_model()
        copy = snapshot(params)
        before = {name: t.data.copy() for name, t in copy.tensors.items()}
        ids_s, y_s, ids_t = random_batch(params)
        l_yw, l_pe, l_ew = forward_losses(params, ids_s, y_s, ids_t, 0.5, np.ones(len(y_s)))
        backward(total_loss(l_yw, l_pe, l_ew, 0.5))
        sgd_step(trained_tensors(params).values(), lr=0.1)
        assert not np.array_equal(params.tensors["y_w"].data, before["y_w"])
        assert all(np.array_equal(copy.tensors[n].data, a) for n, a in before.items())


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        params = build_tiny_model()
        path = str(tmp_path / "model.npz")
        save_checkpoint(params, path)
        loaded = load_checkpoint(path)
        assert loaded.k == params.k
        assert loaded.vocab.token_to_id == params.vocab.token_to_id
        for a, b in zip(trained_tensors(params).values(),
                        trained_tensors(loaded).values()):
            assert np.array_equal(a.data, b.data)

    @pytest.mark.parametrize("frozen", [False, True])
    def test_loaded_tensors_hold_no_gradient(self, frozen, tmp_path):
        params = build_tiny_model()
        params.theta_f.embedding.requires_grad = not frozen
        path = str(tmp_path / "model.npz")
        save_checkpoint(params, path)
        loaded = load_checkpoint(path).tensors
        assert loaded["embedding"].requires_grad != frozen
        assert all(t.grad is None for t in loaded.values())

    def test_corrupt_vocab_rejected(self, tmp_path):
        params = build_tiny_model()
        path = str(tmp_path / "model.npz")
        save_checkpoint(params, path)
        import json
        # tamper with the stored vocabulary
        with np.load(path) as npz:
            arrays = {k: npz[k] for k in npz.files}
        meta = json.loads(str(arrays["__meta__"]))
        meta["vocab_tokens"][-1] = "tampered"
        arrays["__meta__"] = np.array(json.dumps(meta))
        np.savez(path, **arrays)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_shape_mismatch_rejected(self, tmp_path):
        params = build_tiny_model()
        path = str(tmp_path / "model.npz")
        save_checkpoint(params, path)
        with np.load(path) as npz:
            arrays = {k: npz[k] for k in npz.files}
        arrays["f_filter_0"] = arrays["f_filter_0"][:, :, :0]
        np.savez(path, **arrays)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)


@pytest.fixture(scope="module")
def saved_checkpoint(tmp_path_factory):
    """A tiny model's checkpoint (k = 12, w_max = 3, 4 filters), as saved."""
    path = str(tmp_path_factory.mktemp("ckpt") / "model.npz")
    save_checkpoint(build_tiny_model(), path)
    with np.load(path) as npz:
        arrays = {name: npz[name] for name in npz.files}
    return arrays, json.loads(str(arrays.pop("__meta__")))


def json_values():
    return st.one_of(st.none(), st.booleans(), st.integers(),
                     st.floats(allow_nan=False, allow_infinity=False),
                     st.text(max_size=3), st.lists(st.integers(), max_size=2),
                     st.dictionaries(st.text(max_size=2), st.integers(), max_size=1))


def bad_meta_values(meta):
    """For each metadata field of ``meta``, values that spoil the checkpoint."""
    def not_(kind):
        return json_values().filter(lambda v: type(v) is not kind)
    return {
        "version": json_values().filter(lambda v: type(v) is not int or v != 1),
        "seed": st.one_of(not_(int), st.integers(max_value=-1)),
        "k": st.one_of(not_(int), st.integers(max_value=0),
                       st.integers(1, meta["w_max"] - 1), st.integers(min_value=MAX_K + 1)),
        "w_max": st.one_of(not_(int), st.integers().filter(lambda v: v != meta["w_max"])),
        "n_filters": st.one_of(not_(int),
                               st.integers().filter(lambda v: v != meta["n_filters"])),
        "embedding_trainable": not_(bool),
        "vocab_tokens": st.one_of(
            not_(list),
            st.lists(json_values(), min_size=1).filter(
                lambda v: v != meta["vocab_tokens"])),
        "vocab_min_count": st.one_of(not_(int), st.integers(max_value=0)),
        "vocab_hash": json_values().filter(lambda v: v != meta["vocab_hash"]),
        "config": not_(dict),
    }


ARRAY_TAMPERS = {
    "int": lambda a: a.astype(np.int64),
    "bool": lambda a: a.astype(bool),
    "str": lambda a: a.astype(str),
    "complex": lambda a: a.astype(complex),
    "extra axis": lambda a: a[..., None],
    "first row dropped": lambda a: a[1:],
    "flattened": lambda a: a.ravel() if a.ndim > 1 else a[None],
    "nan": lambda a: np.where(np.arange(a.size).reshape(a.shape) == 0, np.nan, a),
    "inf": lambda a: np.full(a.shape, -np.inf),
}


@st.composite
def tampered_checkpoints(draw, saved):
    """A saved checkpoint with one metadata field or one array spoilt."""
    arrays, meta = dict(saved[0]), dict(saved[1])
    if draw(st.booleans()):
        field = draw(st.sampled_from(sorted(meta)))
        if draw(st.integers(0, 9)) == 0:
            del meta[field]
        else:
            meta[field] = draw(bad_meta_values(saved[1])[field])
    else:
        name = draw(st.sampled_from(sorted(arrays)))
        if draw(st.integers(0, 9)) == 0:
            del arrays[name]
        else:
            arrays[name] = ARRAY_TAMPERS[draw(st.sampled_from(sorted(ARRAY_TAMPERS)))](
                arrays[name])
    return arrays, meta


def test_array_shapes_match_saved_arrays():
    """The shapes a checkpoint is checked against are those a model saves."""
    params = build_tiny_model(vocab_size=50, dim=8, n_filters=4, w_max=3)
    saved = {name: t.shape for name, t in params.tensors.items()}
    assert dict(_array_shapes(50, 8, 3, 4)) == saved


def test_init_values_are_pinned():
    """init_model's draw order: the tiny model's initial arrays, hashed."""
    digest = hashlib.sha256()
    for name, a in {n: t.data for n, t in build_tiny_model().tensors.items()}.items():
        digest.update(name.encode() + repr(a.shape).encode() + a.tobytes())
    assert digest.hexdigest() == (
        "0d17e9fb43795e44da5d0f9f28e5bcb9a1f69c3518f992d44f323ce2a1bca9a0")


def test_k_below_w_max_rejected(saved_checkpoint, tmp_path):
    arrays, meta = saved_checkpoint
    path = str(tmp_path / "model.npz")
    np.savez(path, __meta__=np.array(json.dumps({**meta, "k": meta["w_max"] - 1})),
             **arrays)
    with pytest.raises(CheckpointError, match="below w_max"):
        load_checkpoint(path)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_tampered_checkpoint_raises_checkpoint_error(data, saved_checkpoint,
                                                      tmp_path_factory):
    arrays, meta = data.draw(tampered_checkpoints(saved_checkpoint))
    path = str(tmp_path_factory.mktemp("tampered") / "model.npz")
    np.savez(path, __meta__=np.array(json.dumps(meta)), **arrays)
    with pytest.raises(CheckpointError, match=re.escape(path)):
        load_checkpoint(path)
