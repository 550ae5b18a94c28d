"""Tokenization, vocabulary, fixed-length encoding, and word embeddings.

Corpus interchange format: UTF-8 JSON Lines, one object per post with
fields ``id``, ``text``, ``label`` (0 fake / 1 real / null), ``event``.
"""

from __future__ import annotations

import json
import math
import re
import unicodedata
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, islice, repeat
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

# CJK ideographs (unified, extension A, compatibility): a word splits into
# single CJK characters and runs of anything else
_CJK = "\u4e00-\u9fff\u3400-\u4dbf\uf900-\ufaff"
_CJK_CHAR_OR_RUN = re.compile(f"[{_CJK}]|[^{_CJK}]+")

# The ASCII characters of Unicode category P*: 23 of them. Not
# ``string.punctuation``, whose ``$+<=>^`|~`` are symbols (S*) and are kept.
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
    def tokens(self) -> list[list[str]]:
        """``tokenize(post.text)`` of each post, computed on first use.

        The result is kept, so ``posts`` must not change after that.
        """
        return [tokenize(p.text) for p in self.posts]


def tokenize(text: str) -> list[str]:
    """Lowercase, split on whitespace, strip edge punctuation, CJK to chars.

    Punctuation is Unicode category P*. An ASCII text is split and stripped
    by ``str`` methods alone; other texts strip per character, split by regex.
    """
    words = text.lower().split()
    if text.isascii():  # fast path: no CJK, and P* is _ASCII_PUNCT
        return [w for w in (raw.strip(_ASCII_PUNCT) for raw in words) if w]
    tokens: list[str] = []
    for raw in words:
        start, end = 0, len(raw)
        while start < end and unicodedata.category(raw[start]).startswith("P"):
            start += 1
        while end > start and unicodedata.category(raw[end - 1]).startswith("P"):
            end -= 1
        tokens += _CJK_CHAR_OR_RUN.findall(raw[start:end])
    return tokens


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
    counts: Counter[str] = Counter()
    seen = False
    for corpus in corpora:
        seen = True
        for tokens in corpus.tokens:
            counts.update(tokens)
    if not seen:
        raise ContractError("build_vocab requires at least one corpus")
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
    tokens = corpus.tokens
    lengths = np.fromiter(map(len, tokens), dtype=np.int64, count=len(tokens))
    if k is not None:  # islice, not a slice: no copy of each post's list
        tokens = map(islice, tokens, repeat(k))
        np.minimum(lengths, k, out=lengths)
    ids = np.fromiter(map(vocab.token_to_id.get, chain.from_iterable(tokens), repeat(UNK_ID)),
                      dtype=np.int64, count=int(lengths.sum()))
    return ids, lengths


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
    lengths = sorted(len(tokens) for corpus in corpora for tokens in corpus.tokens)
    if not lengths:
        raise ContractError("choose_k requires non-empty corpora")
    idx = max(0, math.ceil(0.95 * len(lengths)) - 1)
    return min(MAX_K, max(4, lengths[idx]))


def random_table(vocab_size: int, dim: int, rng: np.random.Generator) -> Tensor:
    """A |V| x d embedding table drawn uniform in +-0.25/sqrt(d); row 0 (PAD) is zero."""
    scale = 0.25 / math.sqrt(dim)
    w = rng.uniform(-scale, scale, size=(vocab_size, dim))
    w[PAD_ID] = 0.0
    return Tensor(w, requires_grad=True)


def embed(ids: np.ndarray, table: Tensor) -> Tensor:
    """Columns are the embeddings of ``ids``; shape (d, k) or (B, d, k)."""
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
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON ({exc.msg})") from None
    if not isinstance(obj, dict):
        raise ParseError(f"expected a JSON object, got {type(obj).__name__}")
    try:
        post = Post(id=str(obj["id"]), text=obj["text"],
                    label=obj["label"], event_id=obj["event"])
    except KeyError as exc:
        raise ParseError(f"missing field {exc.args[0]!r}") from None
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
