"""Sparse TF-IDF rows, assembled as CSR matrices, and the dense-embedding client.

The TF-IDF recipe is pinned for reproducibility: lowercase text, tokens are
maximal runs of two or more word characters, idf(t) = ln((1+N)/(1+df(t))) + 1,
term values are raw count times idf, rows l2-normalized. Dense vectors are
always fetched from an external embedding service, never computed locally.
"""

from __future__ import annotations

import hashlib
import json
import re
from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import chain, count
from pathlib import Path
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from .errors import DataError
from .llm_client import check_retry_settings, post_json
from .serialize import atomic_open, typed

_TOKEN_RE = re.compile(r"\w{2,}")


def tokenize(text: str) -> list[str]:
    """Lowercase and split into maximal runs of >= 2 word characters."""
    return _TOKEN_RE.findall(text.lower())


@dataclass
class TfidfModel:
    """Fitted vocabulary and idf weights; immutable after fit."""

    vocabulary: dict[str, int]
    idf: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.vocabulary)


@dataclass(frozen=True)
class TokenIds:
    """Tokenized texts as integer ids into one shared token list.

    ``docs[i]`` holds text i's token ids in text order; id j stands for
    ``tokens[j]``. Rows taken from one ``encode`` share its token list, so a
    cell tokenizes each of its texts once and fits and transforms rows of it.
    """

    tokens: list[str]
    docs: list[list[int]]

    def __len__(self) -> int:
        return len(self.docs)

    def take(self, rows) -> "TokenIds":
        return TokenIds(self.tokens, [self.docs[i] for i in rows])

    def counts(self, columns: np.ndarray, n_columns: int) -> sp.csr_matrix:
        """Per text, how often each column occurs among its tokens, as canonical
        CSR (sorted, no duplicates). Token id j counts in column ``columns[j]``,
        or nowhere when that is -1."""
        lengths = [len(doc) for doc in self.docs]
        rows = np.repeat(np.arange(len(self.docs)), lengths)
        cols = columns[np.fromiter(chain.from_iterable(self.docs), dtype=np.intp,
                                   count=len(rows))]
        known = cols >= 0
        matrix = sp.csr_matrix((np.ones(np.count_nonzero(known)), (rows[known], cols[known])),
                               shape=(len(self.docs), n_columns))
        matrix.sum_duplicates()
        return matrix


def encode(texts: Sequence[str]) -> TokenIds:
    """Tokenize each text once, numbering tokens in order of first appearance."""
    index: defaultdict[str, int] = defaultdict(count().__next__)
    docs = [[index[tok] for tok in tokenize(text)] for text in texts]
    return TokenIds(list(index), docs)


def _token_ids(texts: Sequence[str] | TokenIds) -> TokenIds:
    return texts if isinstance(texts, TokenIds) else encode(texts)


def fit_tfidf(corpus: Sequence[str] | TokenIds) -> TfidfModel:
    """Fit vocabulary and smoothed idf weights on a training corpus.

    idf(t) = ln((1+N)/(1+df(t))) + 1 with N the corpus size and df the
    document frequency, so idf >= 1 for every token. Vocabulary indices are
    assigned in sorted token order.
    """
    if not len(corpus):
        raise ValueError("cannot fit TF-IDF on an empty corpus")
    docs = _token_ids(corpus)
    n_tokens = len(docs.tokens)
    # a token's document frequency is the number of count rows it has an entry in
    df = np.bincount(docs.counts(np.arange(n_tokens), n_tokens).indices, minlength=n_tokens)
    used = sorted(np.flatnonzero(df).tolist(), key=docs.tokens.__getitem__)
    if not used:
        raise ValueError("empty vocabulary: no token of >= 2 word characters in the corpus")
    vocabulary = {docs.tokens[i]: col for col, i in enumerate(used)}
    n_docs = len(docs)
    # the scalar log of each distinct df, exactly as a per-token loop computes it
    dfs, inverse = np.unique(df[used], return_inverse=True)
    idf = np.array([np.log((1.0 + n_docs) / (1.0 + d)) + 1.0 for d in dfs.tolist()])[inverse]
    return TfidfModel(vocabulary=vocabulary, idf=idf)


def transform(model: TfidfModel, text: str) -> tuple[np.ndarray, np.ndarray]:
    """One text's unit-norm tf-idf row as (ascending int32 columns, values).

    Out-of-vocabulary tokens drop out; a text with none left is an empty row.
    This is the per-text reference that ``transform_many`` reproduces.
    """
    counts: Counter[int] = Counter()
    vocab = model.vocabulary
    for tok in tokenize(text):
        col = vocab.get(tok)
        if col is not None:
            counts[col] += 1
    if not counts:
        return np.empty(0, dtype=np.int32), np.empty(0)
    indices = np.array(sorted(counts), dtype=np.int32)
    values = np.array([counts[i] for i in indices], dtype=float) * model.idf[indices]
    values /= np.sqrt(np.dot(values, values))
    return indices, values


def transform_many(model: TfidfModel, texts: Sequence[str] | TokenIds) -> sp.csr_matrix:
    """One CSR row per text, each exactly ``transform(model, text)``."""
    docs = _token_ids(texts)
    columns = np.array([model.vocabulary.get(tok, -1) for tok in docs.tokens], dtype=np.intp)
    matrix = docs.counts(columns, model.dim)
    matrix.data *= model.idf[matrix.indices]
    # one np.dot per row, as transform computes each row's norm
    for start, end in zip(matrix.indptr[:-1].tolist(), matrix.indptr[1:].tolist()):
        values = matrix.data[start:end]
        values /= np.sqrt(np.dot(values, values))
    return matrix


def stack(rows: list[tuple[np.ndarray, np.ndarray]], dim: int) -> sp.csr_matrix:
    """Assemble (columns, values) rows into a CSR matrix with ``dim`` columns."""
    indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum([len(cols) for cols, _ in rows], out=indptr[1:])
    indices = np.concatenate([cols for cols, _ in rows] + [np.empty(0, dtype=np.int32)])
    data = np.concatenate([values for _, values in rows] + [np.empty(0)])
    return sp.csr_matrix((data, indices, indptr), shape=(len(rows), dim))


@dataclass
class EmbeddingConfig:
    """Connection settings for the external dense-embedding service."""

    endpoint: str
    cache_dir: str | None = None
    batch_size: int = 64
    timeout: float = 30.0
    max_retries: int = 2
    backoff: float = 0.5

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        check_retry_settings(self)


class EmbeddingClient:
    """HTTP client for a dense sentence-embedding service with a disk cache.

    Wire format: POST {"texts": [...]} -> {"vectors": [[...], ...], "dim": d}.
    Results are cached per (endpoint, text hash); cache writes go through an
    atomic rename so concurrent writers of the same key cannot interleave.
    """

    def __init__(self, config: EmbeddingConfig):
        self.config = config
        self._dim: int | None = None

    def _cache_path(self, text: str) -> Path | None:
        if not self.config.cache_dir:
            return None
        key = hashlib.sha256(f"{self.config.endpoint}\n{text}".encode("utf-8")).hexdigest()
        return Path(self.config.cache_dir) / f"{key}.npy"

    def _checked(self, vector, source: str) -> np.ndarray:
        """``vector`` as a finite 1-d float array of the client's one dimension,
        for a cached and a fresh vector alike; ``source`` names it in errors."""
        v = np.asarray(vector, dtype=float)
        if v.ndim != 1 or not np.all(np.isfinite(v)):
            raise DataError(f"{source} holds a non-finite or non-1d vector")
        if self._dim is None:
            self._dim = len(v)
        elif len(v) != self._dim:
            raise DataError(f"embedding dimension drift: {source} holds {len(v)} dimensions, "
                            f"expected {self._dim}")
        return v

    def _cache_get(self, text: str) -> np.ndarray | None:
        path = self._cache_path(text)
        if path is None or not path.exists():
            return None
        try:
            vector = np.load(path)
        except (OSError, ValueError, EOFError) as exc:
            raise DataError(f"cannot read embedding cache file {path}: {exc}") from None
        return self._checked(vector, f"embedding cache file {path}")

    def _cache_put(self, text: str, vector: np.ndarray) -> None:
        path = self._cache_path(text)
        if path is not None:
            with atomic_open(path, binary=True) as fh:
                np.save(fh, vector)

    def _post_batch(self, batch: list[str]) -> list[np.ndarray]:
        body, _ = post_json(self.config, {"texts": batch}, "embedding service")
        try:
            reply = json.loads(body)
        except ValueError:
            raise DataError("embedding service returned a reply that is not JSON") from None
        typed(dict, reply, "embedding service reply")
        vectors = typed(list, reply.get("vectors", []), "embedding service reply vectors")
        if len(vectors) != len(batch):
            raise DataError(f"embedding service returned {len(vectors)} vectors for "
                            f"{len(batch)} texts")
        return [self._checked(v, "embedding service reply") for v in vectors]

    def embed(self, texts: list[str]) -> list[np.ndarray]:
        """Embed texts in order; duplicates and cached entries cost no remote calls."""
        if not texts:
            return []
        resolved: dict[str, np.ndarray] = {}
        missing: list[str] = []
        seen: set[str] = set()
        for text in texts:
            if text in seen:
                continue
            seen.add(text)
            cached = self._cache_get(text)
            if cached is not None:
                resolved[text] = cached
            else:
                missing.append(text)
        for start in range(0, len(missing), self.config.batch_size):
            batch = missing[start:start + self.config.batch_size]
            for text, vector in zip(batch, self._post_batch(batch)):
                self._cache_put(text, vector)
                resolved[text] = vector
        return [resolved[t] for t in texts]
