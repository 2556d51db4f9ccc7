"""Sparse TF-IDF rows, assembled as CSR matrices.

The TF-IDF recipe is pinned for reproducibility: lowercase text, tokens are
maximal runs of two or more word characters, idf(t) = ln((1+N)/(1+df(t))) + 1,
term values are raw count times idf, rows l2-normalized.
"""

from __future__ import annotations

import re
from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import chain, count
from typing import Sequence

import numpy as np
import scipy.sparse as sp

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


def fit_tfidf(docs: TokenIds) -> TfidfModel:
    """Fit vocabulary and smoothed idf weights on a training corpus.

    idf(t) = ln((1+N)/(1+df(t))) + 1 with N the corpus size and df the
    document frequency, so idf >= 1 for every token. Vocabulary indices are
    assigned in sorted token order.
    """
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


def transform_many(model: TfidfModel, docs: TokenIds) -> sp.csr_matrix:
    """One CSR row per text, each exactly ``transform(model, text)``."""
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
