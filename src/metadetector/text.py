"""Tokenization, vocabulary, fixed-length encoding, and word embeddings.

Corpus interchange format: UTF-8 JSON Lines, one object per post with
fields ``id``, ``text``, ``label`` (0 fake / 1 real / null), ``event``.
"""

from __future__ import annotations

import json
import math
import re
import unicodedata
from collections import Counter, defaultdict, namedtuple
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, count, repeat
from typing import Iterable, Optional

import numpy as np

from .autodiff import Tensor, embedding_lookup
from .errors import ConfigurationError, ContractError, ParseError

PAD_ID = 0
UNK_ID = 1
PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"
# the longest sequence length k: choose_k's cap, and the bound on a set or saved k
MAX_K = 256
# the widest embedding a vector file may declare, checked before the table is made
MAX_DIM = 4096
# the most filters per window size a config may set, checked before the model is made
MAX_FILTERS = 1024
# EventCorpus.tokens reads TOKENIZE_BLOCK posts at a time, by word if Chao1's estimate of the
# block's vocabulary from REPEAT_SAMPLE posts is at most VOCAB_PER_POST a post, else by text
TOKENIZE_BLOCK, REPEAT_SAMPLE, VOCAB_PER_POST = 2048, 128, 2
Tokens = namedtuple("Tokens", "words index offsets")

# CJK ideographs (unified, extension A, compatibility): a word splits into single
# CJK characters and runs of anything else but a space, so joined words split alone
_CJK = "\u4e00-\u9fff\u3400-\u4dbf\uf900-\ufaff"
_CJK_CHAR_OR_RUN = re.compile(f"[{_CJK}]|[^{_CJK} ]+")

# the 23 ASCII characters of category P*; string.punctuation's $+<=>^`|~ are S*, kept
_ASCII_PUNCT = "".join(ch for ch in map(chr, range(128))
                       if unicodedata.category(ch).startswith("P"))


@dataclass
class Post:
    id: str
    text: str
    label: Optional[int]  # 0 = fake, 1 = real, None = unlabeled
    event_id: str


@dataclass
class EventCorpus:
    event_id: str
    posts: list[Post]
    role: str  # "source" | "target"

    def __post_init__(self):
        if not self.posts:
            raise ContractError(f"corpus {self.event_id!r} is empty")
        for p in self.posts:
            if p.event_id != self.event_id:
                raise ContractError(
                    f"post {p.id!r} has event {p.event_id!r}, corpus is {self.event_id!r}")

    def __len__(self) -> int:
        return len(self.posts)

    @cached_property
    def tokens(self) -> Tokens:
        """Post i's tokens are ``words[j]`` for j in ``index[offsets[i]:offsets[i + 1]]``,
        kept from first use, so ``posts`` must not change."""
        words, index, offsets = [], [], [np.zeros(1, np.int64)]
        for b in range(0, len(self.posts), TOKENIZE_BLOCK):
            texts = [p.text for p in self.posts[b:b + TOKENIZE_BLOCK]]
            f = Counter(Counter(" ".join(texts[:REPEAT_SAMPLE]).lower().split()).values())
            if sum(f.values()) + f[1] * (f[1] - 1) / (2 * f[2] + 2) <= VOCAB_PER_POST * len(texts):
                units = list(map(str.split, map(str.lower, texts)))  # each post's words
                memo = defaultdict(count().__next__)  # word -> its place among the distinct
                rix = np.fromiter(map(memo.__getitem__, chain.from_iterable(units)), np.int64)
                sizes = list(map(len, units))  # units per post
            else:  # each text is one unit
                memo, rix, sizes = texts, np.arange(len(texts)), [1] * len(texts)
            per = list(map(tokenize, memo))  # through the module, so a wrapper sees each call
            n_tok = np.fromiter(map(len, per), np.int64, len(per))
            counts, ends = n_tok[rix], np.cumsum(n_tok[rix])  # by unit occurrence, in the block
            shift = np.cumsum(n_tok)[rix] - ends + len(words)  # its tokens' index minus place
            index.append(np.repeat(shift, counts) + np.arange(counts.sum()))
            words += chain.from_iterable(per)
            offsets.append(offsets[-1][-1] + np.append(0, ends)[np.cumsum(sizes)])
        return Tokens(words, np.concatenate(index), np.concatenate(offsets))


def tokenize(text: str) -> list[str]:
    """Lowercase, split on whitespace, strip edge punctuation, CJK to chars.

    Punctuation is Unicode category P*. An ASCII text is split and stripped
    by ``str`` methods alone; other texts strip per character, split by regex.
    """
    words = text.lower().split()
    if text.isascii():  # fast path: no CJK, and P* is _ASCII_PUNCT
        return list(filter(None, map(str.strip, words, repeat(_ASCII_PUNCT))))
    stripped = []
    for raw in words:
        start, end = 0, len(raw)
        while start < end and unicodedata.category(raw[start]).startswith("P"):
            start += 1
        while end > start and unicodedata.category(raw[end - 1]).startswith("P"):
            end -= 1
        stripped.append(raw[start:end])
    return _CJK_CHAR_OR_RUN.findall(" ".join(stripped))


@dataclass
class Vocabulary:
    token_to_id: dict[str, int]
    min_count: int

    def __len__(self) -> int:
        return len(self.token_to_id)

    @property
    def tokens_by_id(self) -> list[str]:
        out = [""] * len(self.token_to_id)
        for tok, i in self.token_to_id.items():
            out[i] = tok
        return out


def build_vocab(corpora: Iterable[EventCorpus], min_count: int = 1) -> Vocabulary:
    """Frequency-ordered vocabulary over all corpora; ties lexicographic.

    Ids are dense: PAD and UNK hold 0 and 1, and the kept tokens follow. A
    corpus token spelled like a reserved one gets no id of its own, so a
    literal ``<pad>`` in a post reads as padding and ``<unk>`` as UNK.
    """
    if min_count < 1:
        raise ConfigurationError(f"min_count must be >= 1, got {min_count}")
    records = [corpus.tokens for corpus in corpora]
    if not records:
        raise ContractError("build_vocab requires at least one corpus")
    counts = Counter(chain.from_iterable(chain.from_iterable(  # each entry of words, its count
        map(repeat, words, np.bincount(index).tolist())) for words, index, _ in records))
    kept = sorted((tok for tok, c in counts.items()
                   if c >= min_count and tok not in (PAD_TOKEN, UNK_TOKEN)),
                  key=lambda t: (-counts[t], t))
    mapping = {PAD_TOKEN: PAD_ID, UNK_TOKEN: UNK_ID}
    for i, tok in enumerate(kept):
        mapping[tok] = i + 2
    return Vocabulary(token_to_id=mapping, min_count=min_count)


def token_ids(corpus: EventCorpus, vocab: Vocabulary,
              k: Optional[int] = None) -> tuple[np.ndarray, np.ndarray]:
    """Ids of each post's first ``k`` tokens (all if ``k`` is None), post after
    post, and each post's count: the one token-to-id map, UNK if unknown."""
    words, index, offsets = corpus.tokens
    lengths = np.diff(offsets)
    if k is not None and lengths.max() > k:  # keep a token iff its place in its post is < k
        index = index[np.arange(len(index)) - np.repeat(offsets[:-1], lengths) < k]
        lengths = np.minimum(lengths, k)
    by_word = np.fromiter(map(vocab.token_to_id.get, words, repeat(UNK_ID)), np.int64, len(words))
    return by_word[index], lengths


def encode(corpus: EventCorpus, vocab: Vocabulary, k: int) -> np.ndarray:
    """(n, k) token ids, one row per post, truncated/right-padded to ``k``."""
    if k < 1:
        raise ConfigurationError(f"sequence length k must be >= 1, got {k}")
    ids, lengths = token_ids(corpus, vocab, k)
    out = np.full((len(corpus), k), PAD_ID, dtype=np.int64)
    out[np.arange(k) < lengths[:, None]] = ids  # row-major: post after post
    return out


def choose_k(corpora: Iterable[EventCorpus]) -> int:
    """Smallest length covering 95% of post lengths, in [4, MAX_K]."""
    lengths = np.sort(np.concatenate([np.diff(c.tokens.offsets) for c in corpora] or [[]]))
    if not len(lengths):
        raise ContractError("choose_k requires non-empty corpora")
    idx = max(0, math.ceil(0.95 * len(lengths)) - 1)
    return min(MAX_K, max(4, int(lengths[idx])))


def random_table(vocab_size: int, dim: int, rng: np.random.Generator) -> Tensor:
    """A |V| x d embedding table drawn uniform in +-0.25/sqrt(d); row 0 (PAD) is zero."""
    scale = 0.25 / math.sqrt(dim)
    w = rng.uniform(-scale, scale, size=(vocab_size, dim))
    w[PAD_ID] = 0.0
    return Tensor(w, requires_grad=True)


def embed(ids: np.ndarray, table: Tensor) -> Tensor:
    """Columns are the embeddings of ``(B, k)`` ``ids``: shape (B, d, k)."""
    return embedding_lookup(table, ids)


class _PretrainedTable(Tensor):
    """A Tensor whose ``weights`` is itself, for callers of the earlier wrapper."""

    @property
    def weights(self) -> Tensor:
        return self


def load_pretrained_vectors(path: str, vocab: Vocabulary, rng: np.random.Generator,
                            trainable: bool = True) -> Tensor:
    """Textual word2vec format: header "N d", then lines "token v1 .. vd",
    each of which may end in whitespace. Vocabulary tokens found in the file
    take the file vectors; the rest are random-initialized; PAD is forced to
    zero. Errors name ``path, line N``. ``trainable`` is the table's
    ``requires_grad``.
    """
    lineno = 1
    with open(path, "rb") as fh:
        try:
            header = _decode(fh.readline())
            parts = header.split()
            if len(parts) != 2:
                raise ParseError(f"expected header 'N d', got {header.strip()!r}")
            try:
                n, dim = int(parts[0]), int(parts[1])
            except ValueError:
                raise ParseError(f"non-integer header {header.strip()!r}") from None
            if n < 0 or not 1 <= dim <= MAX_DIM:
                raise ParseError(
                    f"header needs N >= 0 and 1 <= d <= {MAX_DIM}, got {header.strip()!r}")
            table = _PretrainedTable(random_table(len(vocab), dim, rng).data, trainable)
            for lineno in range(2, n + 2):
                raw = fh.readline()
                if not raw:
                    raise ParseError(f"file ends before {n} vectors read")
                fields = _decode(raw).rstrip().split(" ")
                if len(fields) != dim + 1:
                    raise ParseError(
                        f"expected token + {dim} values, got {len(fields)} fields")
                token = fields[0]
                try:
                    vec = np.array([float(v) for v in fields[1:]])
                except ValueError:
                    raise ParseError("non-numeric vector component") from None
                if not np.isfinite(vec).all():
                    raise ParseError("non-finite vector component")
                idx = vocab.token_to_id.get(token)
                if idx is not None and idx != PAD_ID:
                    table.data[idx] = vec
        except ParseError as exc:
            raise ParseError(f"{path}, line {lineno}: {exc}") from None
    table.data[PAD_ID] = 0.0
    return table


def _decode(raw: bytes) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError:
        raise ParseError("not valid UTF-8") from None


# -- corpus file I/O ----------------------------------------------------------


def _parse_post(raw: bytes) -> Optional[Post]:
    """One JSONL line as a post; None for a blank line."""
    line = _decode(raw).strip()
    if not line:
        return None
    try:
        obj = json.loads(line)
    except ValueError as exc:  # bad JSON, or an integer too long to convert
        raise ParseError(f"invalid JSON ({getattr(exc, 'msg', exc)})") from None
    if not isinstance(obj, dict):
        raise ParseError(f"expected a JSON object, got {type(obj).__name__}")
    try:
        post = Post(id=obj["id"], text=obj["text"],
                    label=obj["label"], event_id=obj["event"])
    except KeyError as exc:
        raise ParseError(f"missing field {exc.args[0]!r}") from None
    # an integer id loads as its decimal string; bool is an int subclass
    if type(post.id) is not int and not isinstance(post.id, str):
        raise ParseError(f"id must be a string or an integer, got {json.dumps(post.id)}")
    post.id = str(post.id)
    if not isinstance(post.text, str):
        raise ParseError("text must be a string")
    if not isinstance(post.event_id, str):
        raise ParseError("event must be a string")
    # JSON allows a lone surrogate ("\ud800"), which UTF-8 cannot encode
    for name, value in (("id", post.id), ("text", post.text), ("event", post.event_id)):
        try:
            value.encode("utf-8")
        except UnicodeEncodeError:
            raise ParseError(f"{name} holds a lone surrogate") from None
    # bool is an int subclass: true would pass a plain ``in (0, 1)``
    if post.label is not None and (type(post.label) is not int
                                   or post.label not in (0, 1)):
        raise ParseError("label must be 0, 1, or null")
    return post


def load_corpus(path: str, role: str) -> EventCorpus:
    """Read a JSONL corpus of one event; errors name ``path, line N``."""
    posts: list[Post] = []
    event_id = None
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                post = _parse_post(raw)
                if post is None:
                    continue
                if event_id is None:
                    event_id = post.event_id
                elif post.event_id != event_id:
                    raise ParseError(
                        f"event {post.event_id!r}, but earlier posts are {event_id!r}")
            except ParseError as exc:
                raise ParseError(f"{path}, line {lineno}: {exc}") from None
            posts.append(post)
    if not posts:
        raise ParseError(f"corpus file {path!r} contains no posts")
    return EventCorpus(event_id=event_id, posts=posts, role=role)


def save_corpus(corpus: EventCorpus, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for p in corpus.posts:
            fh.write(json.dumps({"id": p.id, "text": p.text,
                                 "label": p.label, "event": p.event_id},
                                ensure_ascii=False) + "\n")
