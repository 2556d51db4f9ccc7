"""Few-shot example selection: random, sparse-similarity, dense-similarity.

Every strategy selects for a batch of queries at once and picks up to k shots
per class for each query, preserving that query's class order exactly: the
conformal pipeline passes classes in descending base-probability order, the
plain few-shot baselines pass label order. A query's own item (matched by id)
is never selected. Similarity ties go to the lower pool index.
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

    def last_shot_label(self) -> str | None:
        for cls, items in reversed(self.per_class):
            if items:
                return cls
        return None


class ShotPool:
    """A shot pool grouped once: label -> ascending pool indices, id -> pool index."""

    def __init__(self, items: Sequence[LabeledText]):
        self.items = list(items)
        grouped: dict[str, list[int]] = {}
        self._by_id: dict[str, int] = {}
        for i, item in enumerate(self.items):
            if item.id in self._by_id:
                raise ValueError(f"shot pool contains duplicate id {item.id!r}")
            self._by_id[item.id] = i
            grouped.setdefault(item.label, []).append(i)
        self._by_label = {label: np.array(idxs, dtype=np.intp) for label, idxs in grouped.items()}

    def __len__(self) -> int:
        return len(self.items)

    def position(self, item_id: str | None) -> int:
        """Pool index of the item with this id, or -1."""
        return self._by_id.get(item_id, -1)

    def candidates(self, label: str, exclude_id: str | None = None) -> np.ndarray:
        """Ascending pool indices of ``label``, without the item whose id is ``exclude_id``."""
        idxs = self._by_label.get(label, _NO_INDICES)
        excluded = self._by_id.get(exclude_id)
        if excluded is not None and self.items[excluded].label == label:
            idxs = idxs[idxs != excluded]
        return idxs


def _check_k(k: int) -> None:
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")


def _warn_short(pool: ShotPool, shot_sets: list[ShotSet], k: int) -> None:
    """Log once per class that some query got fewer than k shots of, naming the
    class's pool size, and the fewest shots a query got when excluding its own
    item cost it one."""
    fewest: dict[str, int] = {}
    for shots in shot_sets:
        for cls, items in shots.per_class:
            if len(items) < k:
                fewest[cls] = min(fewest.get(cls, k), len(items))
    for cls, n in fewest.items():
        available = len(pool.candidates(cls))
        if available == 0:
            log.warning("class %r has no pool items; selecting zero shots", cls)
        elif n == available:
            log.warning("class %r has only %d pool items for k=%d; taking all", cls, n, k)
        else:
            log.warning("class %r has %d pool items for k=%d; a query that is one of them "
                        "gets %d", cls, available, k, n)


def select_random(pool: ShotPool, classes: Sequence[Sequence[str]], k: int,
                  seeds: Sequence[int], exclude_ids: Sequence[str | None]) -> list[ShotSet]:
    """Per query, a uniform without-replacement sample of min(k, available) shots per class.

    Query q draws from ``random.Random(seeds[q])``, class by class in its own
    class order, excluding the pool item with id ``exclude_ids[q]``.
    """
    _check_k(k)
    shot_sets = []
    for order, seed, exclude_id in zip(classes, seeds, exclude_ids, strict=True):
        rng = random.Random(seed)
        per_class: list[tuple[str, list[LabeledText]]] = []
        for cls in order:
            idxs = pool.candidates(cls, exclude_id)
            # sampling positions draws exactly what sampling the index list would
            chosen = rng.sample(range(len(idxs)), min(k, len(idxs)))
            per_class.append((cls, [pool.items[idxs[j]] for j in chosen]))
        shot_sets.append(ShotSet(per_class=per_class))
    _warn_short(pool, shot_sets, k)
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
    if queries.shape[1] != pool_vectors.shape[1]:
        raise ValueError(f"dimension mismatch: {pool_vectors.shape[1]} != {queries.shape[1]}")
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


def _dense_similarities(pool_embeddings,
                        query_embeddings) -> Iterator[np.ndarray]:
    m = np.asarray(pool_embeddings, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"dimension mismatch: pool embeddings have shape {m.shape}")
    row_norms = np.linalg.norm(m, axis=1)

    def similarities(query) -> np.ndarray:
        q = np.asarray(query, dtype=float)
        if q.shape != (m.shape[1],):
            raise ValueError(f"dimension mismatch: pool {m.shape} vs query {q.shape}")
        qn = np.linalg.norm(q)
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where((row_norms > 0) & (qn > 0), (m @ q) / (row_norms * qn), 0.0)

    for start in range(0, len(query_embeddings), SIM_CHUNK_ROWS):
        chunk = query_embeddings[start:start + SIM_CHUNK_ROWS]
        yield np.array([similarities(q) for q in chunk])


def _top_k(sims: np.ndarray, idxs: np.ndarray, excluded: np.ndarray,
           k: int) -> list[list[int]]:
    """Per row, the k of the candidates ``idxs`` (ascending pool indices) most
    similar, ties to the lower index; ``sims[row, j]`` is the similarity of
    ``idxs[j]``. Each row is exactly ``idxs[np.argsort(-sims[row], kind="stable")[:k]]``
    over the candidates other than that row's ``excluded`` pool index."""
    neg = -sims
    if len(idxs) <= k:
        ranked = idxs[np.argsort(neg, axis=1, kind="stable")]
        return [row[row != ex].tolist() for row, ex in zip(ranked, excluded)]
    # with more than k candidates, an excluded one ranks below k others
    neg[idxs[None, :] == excluded[:, None]] = np.inf
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


def _select_by_similarity(pool: ShotPool, n_rows: int, blocks: Iterator[np.ndarray],
                          classes: Sequence[Sequence[str]], k: int,
                          exclude_ids: Sequence[str | None]) -> list[ShotSet]:
    _check_k(k)
    if n_rows != len(pool):
        raise ValueError(f"{n_rows} similarities for {len(pool)} pool items")
    if len(classes) != len(exclude_ids):
        raise ValueError(f"{len(classes)} class orders for {len(exclude_ids)} excluded ids")
    excluded = np.array([pool.position(i) for i in exclude_ids], dtype=np.intp)
    shot_sets: list[ShotSet] = []
    for block in blocks:
        start = len(shot_sets)
        orders = classes[start:start + len(block)]
        if len(orders) != len(block):
            raise ValueError(f"more query rows than the {len(classes)} class orders")
        ranked: dict[tuple[int, str], list[int]] = {}
        for cls in dict.fromkeys(c for order in orders for c in order):
            rows = [r for r, order in enumerate(orders) if cls in order]
            idxs = pool.candidates(cls)
            picks = _top_k(block[:, idxs][rows], idxs, excluded[start:][rows], k)
            ranked.update(((r, cls), p) for r, p in zip(rows, picks))
        for r, order in enumerate(orders):
            per_class: list[tuple[str, list[LabeledText]]] = []
            for cls in order:
                per_class.append((cls, [pool.items[i] for i in ranked[r, cls]]))
            shot_sets.append(ShotSet(per_class=per_class))
    if len(shot_sets) != len(classes):
        raise ValueError(f"{len(shot_sets)} query rows for {len(classes)} class orders")
    _warn_short(pool, shot_sets, k)
    return shot_sets


def select_sparse(pool: ShotPool, pool_vectors: sp.csr_matrix, queries: sp.csr_matrix,
                  classes: Sequence[Sequence[str]], k: int,
                  exclude_ids: Sequence[str | None]) -> list[ShotSet]:
    """Per query row and class, the k pool items most cosine-similar in tf-idf space.

    ``pool_vectors`` has one row per pool item and ``queries`` one row per
    query, both under the same fitted tf-idf model; ``classes[q]`` and
    ``exclude_ids[q]`` belong to query row q.
    """
    return _select_by_similarity(pool, pool_vectors.shape[0],
                                 sparse_similarities(pool_vectors, queries),
                                 classes, k, exclude_ids)


def select_dense(pool: ShotPool, pool_embeddings, query_embeddings,
                 classes: Sequence[Sequence[str]], k: int,
                 exclude_ids: Sequence[str | None]) -> list[ShotSet]:
    """As select_sparse, over dense embedding vectors (one query per entry)."""
    return _select_by_similarity(pool, len(pool_embeddings),
                                 _dense_similarities(pool_embeddings, query_embeddings),
                                 classes, k, exclude_ids)
