import json
import math
import re
import string
import tracemalloc
import unicodedata
from collections import Counter
from unittest import mock

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from metadetector import text
from metadetector.autodiff import backward
from metadetector.errors import ContractError, ParseError
from metadetector.mmd import corpus_representations
from metadetector.text import (
    MAX_DIM,
    MAX_K,
    PAD_TOKEN,
    PAD_ID,
    UNK_ID,
    UNK_TOKEN,
    EventCorpus,
    Post,
    build_vocab,
    choose_k,
    embed,
    encode,
    load_corpus,
    load_pretrained_vectors,
    random_table,
    save_corpus,
    token_ids,
    tokenize,
)
from helpers import post_tokens, total


def corpus_of(texts, event="ev1", role="source", label=1):
    posts = [Post(id=f"p{i}", text=t, label=label, event_id=event)
             for i, t in enumerate(texts)]
    return EventCorpus(event_id=event, posts=posts, role=role)


class TestTokenize:
    def test_case_and_punctuation(self):
        assert tokenize("Fake NEWS!") == ["fake", "news"]

    def test_empty(self):
        assert tokenize("") == []

    def test_cjk_char_split(self):
        assert tokenize("疫情 spreads") == ["疫", "情", "spreads"]

    def test_cjk_mixed_run(self):
        assert tokenize("covid疫情abc") == ["covid", "疫", "情", "abc"]

    def test_inner_punctuation_kept(self):
        assert tokenize("it's (done).") == ["it's", "done"]

    def test_only_punctuation(self):
        assert tokenize("!!! ... (?) -- \"'") == []

    def test_edge_symbols_kept(self):
        # $ + | are Unicode symbols (S*), not punctuation
        assert tokenize("$5 +1 a| |b.") == ["$5", "+1", "a|", "|b"]


def per_char_tokenize(text):
    """The per-character tokenizer, kept as the reference for ``tokenize``."""
    tokens = []
    for raw in text.lower().split():
        start, end = 0, len(raw)
        while start < end and unicodedata.category(raw[start]).startswith("P"):
            start += 1
        while end > start and unicodedata.category(raw[end - 1]).startswith("P"):
            end -= 1
        word = raw[start:end]
        if not word:
            continue
        if word.isascii():
            tokens.append(word)
            continue
        buf = ""
        for ch in word:
            if 0x4E00 <= ord(ch) <= 0x9FFF or 0x3400 <= ord(ch) <= 0x4DBF \
                    or 0xF900 <= ord(ch) <= 0xFAFF:
                if buf:
                    tokens.append(buf)
                    buf = ""
                tokens.append(ch)
            else:
                buf += ch
        if buf:
            tokens.append(buf)
    return tokens


ASCII_WORD = string.ascii_letters + string.digits
ASCII_MARKS = "".join(ch for ch in map(chr, range(33, 127))
                      if not ch.isalnum())  # punctuation and symbols
WHITESPACE = " \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f\u3000"
# CJK (with the first and last code point of each range, and neighbours),
# fullwidth punctuation, casing specials, combining marks
OTHER = ("疫情谣言\u4e00\u9fff\u3400\u4dbf\uf900\ufaff\u33ff\ufb00"
         "，。«»—’İßǅ\u0301\u0308")


# one unbroken word of CJK characters and CJK punctuation
LONG_CJK = "「疫情谣言」，官方辟谣：新冠病毒在武汉传播？！《人民日报》——转发、评论…" * 40


@pytest.mark.parametrize("text", ["«Hello», 疫情。", "İstanbul ǅemal", "ß—ok’ a.b",
                                  pytest.param(LONG_CJK, id="long-cjk-run")])
def test_tokenize_matches_per_char_reference(text):
    assert tokenize(text) == per_char_tokenize(text)


@settings(max_examples=500, deadline=None)
@given(text=st.one_of(
    st.text(alphabet=ASCII_WORD + ASCII_MARKS + " \t\n\x1c\x1f"),
    st.text(alphabet=ASCII_WORD + ASCII_MARKS + WHITESPACE + OTHER)))
def test_tokenize_matches_per_char_property(text):
    assert tokenize(text) == per_char_tokenize(text)


class TestBuildVocab:
    def test_min_count_filters(self):
        vocab = build_vocab([corpus_of(["a a b"])], min_count=2)
        assert set(vocab.token_to_id) == {"<pad>", "<unk>", "a"}

    def test_min_count_one_keeps_all(self):
        vocab = build_vocab([corpus_of(["a a b"])], min_count=1)
        assert "b" in vocab.token_to_id

    def test_frequency_tie_lexicographic(self):
        vocab = build_vocab([corpus_of(["y x"])], min_count=1)
        assert vocab.token_to_id["x"] < vocab.token_to_id["y"]

    def test_ids_dense_bijection(self):
        vocab = build_vocab([corpus_of(["a b c d e"])])
        ids = sorted(vocab.token_to_id.values())
        assert ids == list(range(len(vocab)))

    def test_reserved_spellings_keep_reserved_ids(self):
        corpus = corpus_of(["<pad> a <unk>", "<unk> <pad> b"])
        vocab = build_vocab([corpus])
        assert vocab.token_to_id["<pad>"] == PAD_ID
        assert vocab.token_to_id["<unk>"] == UNK_ID
        assert sorted(vocab.token_to_id.values()) == list(range(len(vocab)))
        assert encode(corpus, vocab, 3)[0].tolist() == [PAD_ID, vocab.token_to_id["a"], UNK_ID]

    def test_empty_corpora_rejected(self):
        with pytest.raises(ContractError):
            build_vocab([])


def per_row_encode(corpus, vocab, k):
    """The per-row encoder, kept as the reference for ``encode``."""
    ids = np.full((len(corpus), k), PAD_ID, dtype=np.int64)
    lookup = vocab.token_to_id.get
    for row, tokens in zip(ids, post_tokens(corpus)):
        head = tokens[:k]
        row[:len(head)] = [lookup(t, UNK_ID) for t in head]
    return ids


class TestEncode:
    POSTS = ["", "a b c d e f g h", "zzz yyy xxx", "<pad> a <unk> b", "<pad>",
             "b " * 40, "c a zzz b", "疫情 a 谣言"]

    @pytest.mark.parametrize("k", [1, 3, 8, 50])
    def test_matches_per_row_reference(self, k):
        vocab = build_vocab([corpus_of(["a a b c 疫 情"])])
        corpus = corpus_of(self.POSTS)
        got = encode(corpus, vocab, k)
        assert got.dtype == np.int64
        assert np.array_equal(got, per_row_encode(corpus, vocab, k))

    def test_token_ids_without_k_keeps_every_token(self):
        vocab = build_vocab([corpus_of(["a b"])])
        corpus = corpus_of(self.POSTS)
        ids, lengths = token_ids(corpus, vocab)
        assert lengths.tolist() == [len(t) for t in post_tokens(corpus)]
        lookup = vocab.token_to_id.get
        assert ids.tolist() == [lookup(t, UNK_ID) for tokens in post_tokens(corpus)
                                for t in tokens]

    def test_padding(self):
        vocab = build_vocab([corpus_of(["a b"])])
        ids = encode(corpus_of(["a b"]), vocab, 4)[0]
        assert len(ids) == 4
        assert list(ids[2:]) == [PAD_ID, PAD_ID]

    def test_truncation(self):
        vocab = build_vocab([corpus_of(["a b c d e f"])])
        corpus = corpus_of(["a b c d e f"])
        assert len(encode(corpus, vocab, 4)[0]) == 4
        assert PAD_ID not in encode(corpus, vocab, 4)[0]

    def test_unseen_maps_to_unk(self):
        vocab = build_vocab([corpus_of(["a"])])
        assert encode(corpus_of(["zzz"]), vocab, 2)[0][0] == UNK_ID

    def test_roundtrip_in_vocab(self):
        vocab = build_vocab([corpus_of(["alpha beta"])])
        ids = encode(corpus_of(["alpha beta"]), vocab, 2)[0]
        tokens = vocab.tokens_by_id
        assert [tokens[i] for i in ids] == ["alpha", "beta"]


class TestChooseK:
    def test_clamp_floor(self):
        c = corpus_of(["a b c"] * 19 + [" ".join(["w"] * 100)])
        assert choose_k([c]) == 4

    def test_all_equal(self):
        c = corpus_of([" ".join(["w"] * 20)] * 5)
        assert choose_k([c]) == 20

    def test_uniform_quantile(self):
        c = corpus_of([" ".join(["w"] * n) for n in range(1, 101)])
        assert choose_k([c]) == 95


# -- the flat token record against a per-post reference ------------------------

# the Greek sigmas lower by context, İ lowers to two characters, and ``\x00`` is
# neither whitespace nor punctuation
HAZARDS = "\x00Σςσİ"
SPECIAL_TEXTS = ["", "<pad>", "<unk>", "\x00", " \x00 ", "aΣ bΣc Σ", "İİ 疫情谣言", "a\x00b c"]


def reference_vocab(per_post, min_count):
    """``build_vocab``'s rule over per-post token lists."""
    counts = Counter(t for tokens in per_post for t in tokens)
    kept = sorted((t for t, c in counts.items()
                   if c >= min_count and t not in (PAD_TOKEN, UNK_TOKEN)),
                  key=lambda t: (-counts[t], t))
    return {PAD_TOKEN: PAD_ID, UNK_TOKEN: UNK_ID, **{t: i + 2 for i, t in enumerate(kept)}}


def check_against_per_post_tokenize(texts, k, min_count):
    """Every reader of the flat record equals the same reader built from
    ``tokenize(p.text)`` of each post."""
    corpus = corpus_of(texts)
    per_post = [tokenize(p.text) for p in corpus.posts]
    assert post_tokens(corpus) == per_post
    vocab = build_vocab([corpus], min_count=min_count)
    assert vocab.token_to_id == reference_vocab(per_post, min_count)
    lookup = vocab.token_to_id.get
    ids, lengths = token_ids(corpus, vocab)
    assert ids.tolist() == [lookup(t, UNK_ID) for tokens in per_post for t in tokens]
    assert lengths.tolist() == list(map(len, per_post))
    ids, lengths = token_ids(corpus, vocab, k)
    assert ids.tolist() == [lookup(t, UNK_ID) for tokens in per_post for t in tokens[:k]]
    assert lengths.tolist() == [min(len(tokens), k) for tokens in per_post]
    rows = np.full((len(texts), k), PAD_ID, dtype=np.int64)
    for row, tokens in zip(rows, per_post):
        row[:min(len(tokens), k)] = [lookup(t, UNK_ID) for t in tokens[:k]]
    assert np.array_equal(encode(corpus, vocab, k), rows)
    lengths = sorted(map(len, per_post))
    assert choose_k([corpus]) == min(MAX_K, max(4, lengths[math.ceil(0.95 * len(lengths)) - 1]))
    table = random_table(len(vocab), 3, np.random.default_rng(len(texts)))
    means = []
    for tokens in per_post:
        row_ids = np.array([lookup(t, UNK_ID) for t in tokens], dtype=np.int64)
        row_ids = row_ids[row_ids != PAD_ID]
        means.append(table.data[row_ids].mean(axis=0) if len(row_ids) else np.zeros(3))
    assert np.array_equal(corpus_representations(corpus, vocab, table), np.stack(means))


@settings(max_examples=300, deadline=None)
@given(texts=st.lists(st.one_of(
           st.text(alphabet=ASCII_WORD + ASCII_MARKS + WHITESPACE + OTHER + HAZARDS),
           st.text(alphabet=ASCII_WORD[:6] + " " + HAZARDS, max_size=12),
           st.sampled_from(SPECIAL_TEXTS)), min_size=1, max_size=14),
       block=st.sampled_from([1, 2, 3, 5, text.TOKENIZE_BLOCK]),
       sample=st.sampled_from([1, 2, text.REPEAT_SAMPLE]),
       per_post=st.sampled_from([-1, 0, 1, text.VOCAB_PER_POST, 10**9]),
       k=st.integers(1, 6), min_count=st.integers(1, 2))
def test_flat_record_matches_per_post_tokenize(texts, block, sample, per_post, k, min_count):
    """A VOCAB_PER_POST of 10**9 takes every block's words as its units and -1
    every block's texts; the others mix the two."""
    with mock.patch.multiple(text, TOKENIZE_BLOCK=block, REPEAT_SAMPLE=sample,
                             VOCAB_PER_POST=per_post):
        check_against_per_post_tokenize(texts, k, min_count)


def edge_corpus():
    """Repeating posts for one block, hazards on both sides of its edge, then
    posts of distinct words."""
    n = text.TOKENIZE_BLOCK
    texts = [f"w{i % 7} Word{i % 3}, 疫{i % 2}" for i in range(n)]
    texts[n - 2:] = ["aΣ", "Σb"]
    return texts + ["疫情 x", "<pad> <unk>", "a\x00b", "\x00"] + [
        f"u{i} v{i}. 疫{i}" for i in range(text.REPEAT_SAMPLE)]


@pytest.mark.parametrize("per_post", [
    pytest.param(10**9, id="words-then-words"),
    pytest.param(text.VOCAB_PER_POST, id="words-then-texts"),
    pytest.param(-1, id="texts-then-texts"),
])
def test_flat_record_across_a_real_block_edge(per_post, monkeypatch):
    """Posts on both sides of the first TOKENIZE_BLOCK edge; by default the
    first block's words repeat and the second block's do not."""
    calls = []
    tokenize_unit = text.tokenize
    monkeypatch.setattr(text, "tokenize", lambda unit: calls.append(unit) or tokenize_unit(unit))
    monkeypatch.setattr(text, "VOCAB_PER_POST", per_post)
    texts = edge_corpus()
    check_against_per_post_tokenize(texts, k=3, min_count=2)
    n = text.TOKENIZE_BLOCK
    blocks = [texts[:n], texts[n:]]
    words = [len({w for t in block for w in t.lower().split()}) for block in blocks]
    posts = list(map(len, blocks))
    expected = {10**9: words, -1: posts}.get(per_post, [words[0], posts[1]])
    assert len(calls) == sum(expected)


def test_encode_keeps_no_object_per_token_occurrence():
    """Encoding a fresh corpus whose words repeat (3,003 words, 40 a post, so
    every block is read by word) keeps a few bytes per token occurrence on
    it, where a Python object per occurrence (a list slot and a str) takes
    over 60, and peaks below 40 bytes per occurrence. Measured on the
    per-post token lists these replace: 63 bytes kept and 77 at the peak. A
    block read by text keeps a str per token occurrence, as those lists did."""
    rng = np.random.default_rng(0)
    words = np.array([f"w{i}" for i in range(3000)] + ["ok,", "(see)", "--"])
    texts = [" ".join(row) for row in rng.choice(words, size=(20_000, 40))]
    vocab = build_vocab([corpus_of(texts[:100])])
    corpus = corpus_of(texts)
    occurrences = 40 * len(texts)
    tracemalloc.start()
    try:
        ids = encode(corpus, vocab, 32)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert current - ids.nbytes < 16 * occurrences
    assert peak < 40 * occurrences


class TestEmbed:
    def test_all_pad_zero_matrix(self):
        table = random_table(6, 4, np.random.default_rng(0))
        out = embed(np.zeros((1, 3), dtype=np.int64), table)
        assert np.array_equal(out.data, np.zeros((1, 4, 3)))

    def test_repeated_id_identical_columns(self):
        table = random_table(6, 4, np.random.default_rng(0))
        out = embed(np.array([[2, 2, 2]]), table)
        assert np.array_equal(out.data[0, :, 0], out.data[0, :, 1])

    def test_gradient_reaches_only_used_rows(self):
        table = random_table(6, 4, np.random.default_rng(0))
        backward(total(embed(np.array([[2, 3]]), table)))
        g = table.grad
        assert np.array_equal(g[2], np.ones(4))
        assert np.array_equal(g[3], np.ones(4))
        for row in (0, 1, 4, 5):
            assert np.array_equal(g[row], np.zeros(4))


class TestPretrainedVectors:
    def test_exact_vectors_loaded(self, tmp_path):
        vocab = build_vocab([corpus_of(["a b"])])
        path = tmp_path / "vec.txt"
        # plain, then a space ending each vector line (as word2vec's C tool
        # and fastText write them), then CRLF line ends
        for data in (b"2 3\na 1 2 3\nb 4 5 6\n", b"2 3\na 1 2 3 \nb 4 5 6 \n",
                     b"2 3\r\na 1 2 3\r\nb 4 5 6\r\n"):
            path.write_bytes(data)
            table = load_pretrained_vectors(str(path), vocab,
                                            np.random.default_rng(0))
            assert table.data[vocab.token_to_id["a"]].tolist() == [1, 2, 3]
            assert table.data[vocab.token_to_id["b"]].tolist() == [4, 5, 6]
            assert np.array_equal(table.data[PAD_ID], np.zeros(3))

    @pytest.mark.parametrize("trainable", [True, False])
    def test_trainable_sets_requires_grad(self, tmp_path, trainable):
        vocab = build_vocab([corpus_of(["a b"])])
        path = tmp_path / "vec.txt"
        path.write_text("1 3\na 1 2 3\n")
        table = load_pretrained_vectors(str(path), vocab, np.random.default_rng(0),
                                        trainable=trainable)
        assert table.requires_grad is trainable
        assert table.weights is table

    def test_malformed_line_reports_number(self, tmp_path):
        vocab = build_vocab([corpus_of(["a"])])
        path = tmp_path / "vec.txt"
        path.write_text("2 3\na 1 2 3\nb 4 5\n")
        with pytest.raises(ParseError, match="line 3"):
            load_pretrained_vectors(str(path), vocab, np.random.default_rng(0))

    def test_empty_overlap_matches_random_init_distribution(self, tmp_path):
        vocab = build_vocab([corpus_of([" ".join(f"t{i}" for i in range(400))])])
        path = tmp_path / "vec.txt"
        path.write_text("1 8\nzzz 1 2 3 4 5 6 7 8\n")
        table = load_pretrained_vectors(str(path), vocab,
                                        np.random.default_rng(1))
        vals = table.data[2:]  # skip PAD/UNK rows
        bound = 0.25 / np.sqrt(8)
        assert vals.min() >= -bound and vals.max() <= bound
        # uniform(-b, b) has mean 0 and sd b/sqrt(3)
        assert abs(vals.mean()) < bound / np.sqrt(3 * vals.size) * 5
        assert abs(vals.std() - bound / np.sqrt(3)) < 0.01


def _finite_number(field):
    try:
        return math.isfinite(float(field))
    except ValueError:
        return False


# components no vector file may hold: not numbers, or not finite
bad_components = st.one_of(
    st.sampled_from(["", "x", "1.2.3", "0x10", "1,5", "--1", "nan", "-inf",
                     "Infinity", "1e400", "-1e999"]),
    st.text(st.characters(codec="utf-8", exclude_characters=" \n"),
            min_size=1, max_size=6).filter(lambda f: not _finite_number(f)))


@st.composite
def spoiled_vector_files(draw):
    """A word2vec text file with one fault: its bytes, and the line the
    loader must name."""
    dim, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    component = st.floats(-10, 10).map(repr)
    lines = [" ".join([f"t{i}"] + [draw(component) for _ in range(dim)])
             for i in range(n)]
    header = f"{n} {dim}"
    at = draw(st.integers(0, n - 1))
    fault = draw(st.sampled_from(["component", "short-line", "missing-lines", "header"]))
    if fault == "component":  # wrongly typed or non-finite
        fields = lines[at].split(" ")
        fields[draw(st.integers(1, dim))] = draw(bad_components)
        lines[at] = " ".join(fields)
    elif fault == "short-line":  # cut after a whole field
        lines[at] = " ".join(lines[at].split(" ")[:draw(st.integers(0, dim))])
    elif fault == "missing-lines":  # the file ends early
        lines = lines[:at]
    else:
        header = draw(st.sampled_from(["", f"{n}", f"{n} {dim} 1", f"{n} x", f"{n}.0 {dim}",
                                       f"-1 {dim}", f"{n} 0", f"{n} {MAX_DIM + 1}",
                                       f"{n} 1e3", f"{n} 1000000000000"]))
        at = -1
    data = "\n".join([header, *lines]) + "\n"
    return data.encode(), at + 2


@settings(max_examples=200, deadline=None)
@given(spoiled=spoiled_vector_files())
def test_spoiled_vector_file_names_its_line(spoiled, tmp_path_factory):
    data, line = spoiled
    path = tmp_path_factory.mktemp("vectors") / "vec.txt"
    path.write_bytes(data)
    vocab = build_vocab([corpus_of(["t0 t1 t2 t3"])])
    with pytest.raises(ParseError, match=re.escape(f"{path}, line {line}:")):
        load_pretrained_vectors(str(path), vocab, np.random.default_rng(0))


class TestPadFrozen:
    def test_pad_row_zero_after_updates(self):
        table = random_table(6, 4, np.random.default_rng(0))
        for _ in range(3):
            backward(total(embed(np.array([[0, 2, 3]]), table)))
            table.data -= 0.1 * table.grad
            table.grad = None
        assert np.array_equal(table.data[PAD_ID], np.zeros(4))


class TestCorpusIO:
    def test_roundtrip(self, tmp_path):
        corpus = corpus_of(["hello world", "another post"])
        path = tmp_path / "c.jsonl"
        save_corpus(corpus, str(path))
        loaded = load_corpus(str(path), role="source")
        assert [p.text for p in loaded.posts] == ["hello world", "another post"]
        assert loaded.event_id == "ev1"

    def test_bad_label_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"id": "1", "text": "x", "label": 2, "event": "e"}\n')
        with pytest.raises(ParseError, match="line 1"):
            load_corpus(str(path), role="source")

    @pytest.mark.parametrize("post_id", [None, True, 1.5, [1, 2], {"a": 1}])
    def test_id_neither_string_nor_integer_rejected(self, tmp_path, post_id):
        path = tmp_path / "c.jsonl"
        post = {"id": "0", "text": "x", "label": 1, "event": "e"}
        path.write_text(json.dumps(post) + "\n" + json.dumps({**post, "id": post_id}) + "\n")
        with pytest.raises(ParseError, match=re.escape(f"{path}, line 2: id must be")):
            load_corpus(str(path), role="source")

    def test_integer_id_loads_as_its_decimal_string(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text("".join(json.dumps({"id": i, "text": "x", "label": 1, "event": "e"})
                                + "\n" for i in (7, -3, 0, 10 ** 30)))
        ids = [p.id for p in load_corpus(str(path), role="source").posts]
        assert ids == ["7", "-3", "0", str(10 ** 30)]

    def test_integer_too_long_to_convert_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"id": "1", "text": "x", "label": 1' + "0" * 5000 + ', "event": "e"}\n')
        with pytest.raises(ParseError, match=re.escape(f"{path}, line 1: invalid JSON")):
            load_corpus(str(path), role="source")

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"id": "1", "text": "x"}\n')
        with pytest.raises(ParseError, match="label"):
            load_corpus(str(path), role="source")
