"""Few-shot example selection: random and sparse-similarity.

Every strategy selects for a batch of queries at once and picks up to k shots
per class for each query, preserving that query's class order exactly: the
conformal pipeline passes classes in descending base-probability order, the
plain few-shot baselines pass label order. Similarity ties go to the lower pool
index. No query is a pool item, as ``corpus.load_frozen`` rejects a repeated id.
"""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np
import scipy.sparse as sp

from .corpus import LabeledText

log = logging.getLogger(__name__)

# Query rows per block of sparse similarities: the dense block is at most
# SIM_CHUNK_ROWS x pool size floats, so a whole test set never sits in memory.
SIM_CHUNK_ROWS = 32

_NO_INDICES = np.empty(0, dtype=np.intp)


@dataclass
class ShotSet:
    """Per-class shot lists, in the caller's class order."""

    per_class: list[tuple[str, list[LabeledText]]]

    def classes(self) -> list[str]:
        return [c for c, _ in self.per_class]

    def shot_count(self) -> int:
        return sum(len(items) for _, items in self.per_class)


class ShotPool:
    """A shot pool grouped once: label -> ascending pool indices."""

    def __init__(self, items: Sequence[LabeledText]):
        self.items = list(items)
        grouped: dict[str, list[int]] = {}
        for i, item in enumerate(self.items):
            grouped.setdefault(item.label, []).append(i)
        self._by_label = {label: np.array(idxs, dtype=np.intp) for label, idxs in grouped.items()}

    def __len__(self) -> int:
        return len(self.items)

    def candidates(self, label: str) -> np.ndarray:
        """Ascending pool indices of ``label``."""
        return self._by_label.get(label, _NO_INDICES)


def _warn_short(pool: ShotPool, classes: Sequence[Sequence[str]], k: int) -> None:
    """Log once per requested class with fewer than k pool items, in first-request order."""
    for cls in dict.fromkeys(c for order in classes for c in order):
        available = len(pool.candidates(cls))
        if available == 0:
            log.warning("class %r has no pool items; selecting zero shots", cls)
        elif available < k:
            log.warning("class %r has only %d pool items for k=%d; taking all", cls, available, k)


def select_random(pool: ShotPool, classes: Sequence[Sequence[str]], k: int,
                  seeds: Sequence[int]) -> list[ShotSet]:
    """Per query, a uniform without-replacement sample of min(k, available) shots per class.

    Query q draws from ``random.Random(seeds[q])``, class by class in its own order.
    """
    shot_sets = []
    for order, seed in zip(classes, seeds, strict=True):
        rng = random.Random(seed)
        per_class: list[tuple[str, list[LabeledText]]] = []
        for cls in order:
            idxs = pool.candidates(cls)
            # sampling positions draws exactly what sampling the index list would
            chosen = rng.sample(range(len(idxs)), min(k, len(idxs)))
            per_class.append((cls, [pool.items[idxs[j]] for j in chosen]))
        shot_sets.append(ShotSet(per_class=per_class))
    _warn_short(pool, classes, k)
    return shot_sets


def sparse_similarities(pool_vectors: sp.csr_matrix,
                        queries: sp.csr_matrix) -> Iterator[np.ndarray]:
    """Cosine similarity of query rows to every pool row, one (rows x pool) block
    per SIM_CHUNK_ROWS queries.

    Each block is ``chunk @ pool_vectors.T``. Each dot product sums the same
    nonzero products in the same ascending-column order as the one-query
    product ``pool_vectors @ q``, and the norms are computed the same way, so
    a row's similarities do not depend on the rows batched with it. A
    zero-norm row or query scores 0.0.
    """
    pool_norms = np.sqrt(np.asarray(pool_vectors.multiply(pool_vectors).sum(axis=1)).ravel())
    pool_t = pool_vectors.T.tocsr()
    for start in range(0, queries.shape[0], SIM_CHUNK_ROWS):
        chunk = queries[start:start + SIM_CHUNK_ROWS]
        dots = (chunk @ pool_t).toarray()
        query_norms = np.array([
            np.sqrt(np.dot(chunk.data[s:e], chunk.data[s:e]))
            for s, e in zip(chunk.indptr[:-1], chunk.indptr[1:])])[:, None]
        with np.errstate(invalid="ignore", divide="ignore"):
            sims = np.where((pool_norms > 0) & (query_norms > 0),
                            dots / (pool_norms * query_norms), 0.0)
        yield sims


def _top_k(sims: np.ndarray, idxs: np.ndarray, k: int) -> list[list[int]]:
    """Per row, the k of the candidates ``idxs`` (ascending pool indices) most
    similar, ties to the lower index; ``sims[row, j]`` is the similarity of
    ``idxs[j]``. Each row is exactly ``idxs[np.argsort(-sims[row], kind="stable")[:k]]``."""
    neg = -sims
    if len(idxs) <= k:
        return idxs[np.argsort(neg, axis=1, kind="stable")].tolist()
    kth = np.partition(neg, k - 1, axis=1)[:, k - 1:k]
    keep = neg <= kth
    crowded = np.flatnonzero(keep.sum(axis=1) > k)
    if len(crowded):
        # ties at the k-th place: every strictly better candidate, then the
        # lowest-index ties up to k
        ties = neg[crowded] == kth[crowded]
        better = keep[crowded] & ~ties
        fill = k - better.sum(axis=1, keepdims=True)
        keep[crowded] = better | (ties & (np.cumsum(ties, axis=1) <= fill))
    cols = np.nonzero(keep)[1].reshape(len(neg), k)
    order = np.argsort(np.take_along_axis(neg, cols, axis=1), axis=1, kind="stable")
    return idxs[np.take_along_axis(cols, order, axis=1)].tolist()


def select_sparse(pool: ShotPool, pool_vectors: sp.csr_matrix, queries: sp.csr_matrix,
                  classes: Sequence[Sequence[str]], k: int) -> list[ShotSet]:
    """Per query row and class, the k pool items most cosine-similar in tf-idf space.

    ``pool_vectors`` has one row per pool item and ``queries`` one row per
    query, both under the same fitted tf-idf model; ``classes[q]`` belongs to
    query row q.
    """
    shot_sets: list[ShotSet] = []
    for block in sparse_similarities(pool_vectors, queries):
        start = len(shot_sets)
        orders = classes[start:start + len(block)]
        ranked: dict[tuple[int, str], list[int]] = {}
        for cls in dict.fromkeys(c for order in orders for c in order):
            rows = [r for r, order in enumerate(orders) if cls in order]
            idxs = pool.candidates(cls)
            picks = _top_k(block[:, idxs][rows], idxs, k)
            ranked.update(((r, cls), p) for r, p in zip(rows, picks))
        for r, order in enumerate(orders):
            per_class: list[tuple[str, list[LabeledText]]] = []
            for cls in order:
                per_class.append((cls, [pool.items[i] for i in ranked[r, cls]]))
            shot_sets.append(ShotSet(per_class=per_class))
    _warn_short(pool, classes, k)
    return shot_sets
