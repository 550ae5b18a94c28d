import math
import re
import string
import unicodedata

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from metadetector.autodiff import backward
from metadetector.errors import ContractError, ParseError
from metadetector.text import (
    MAX_DIM,
    PAD_ID,
    UNK_ID,
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
    for row, tokens in zip(ids, corpus.tokens):
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
        assert lengths.tolist() == [len(t) for t in corpus.tokens]
        lookup = vocab.token_to_id.get
        assert ids.tolist() == [lookup(t, UNK_ID) for tokens in corpus.tokens for t in tokens]

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


class TestEmbed:
    def test_all_pad_zero_matrix(self):
        table = random_table(6, 4, np.random.default_rng(0))
        out = embed(np.zeros(3, dtype=np.int64), table)
        assert np.array_equal(out.data, np.zeros((4, 3)))

    def test_repeated_id_identical_columns(self):
        table = random_table(6, 4, np.random.default_rng(0))
        out = embed(np.array([2, 2, 2]), table)
        assert np.array_equal(out.data[:, 0], out.data[:, 1])

    def test_gradient_reaches_only_used_rows(self):
        table = random_table(6, 4, np.random.default_rng(0))
        backward(embed(np.array([2, 3]), table).sum())
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
            backward(embed(np.array([0, 2, 3]), table).sum())
            table.data -= 0.1 * table.grad
            table.zero_grad()
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

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"id": "1", "text": "x"}\n')
        with pytest.raises(ParseError, match="label"):
            load_corpus(str(path), role="source")
