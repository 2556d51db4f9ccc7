"""Tests for few-shot example selection strategies."""

import random

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from cicle.corpus import LabeledText
from cicle.selection import (
    SIM_CHUNK_ROWS,
    ShotPool,
    ShotSet,
    select_dense,
    select_random,
    select_sparse,
    sparse_similarities,
)
from cicle.vectorize import fit_tfidf, stack, transform_many

from conftest import make_items


def small_pool():
    return [
        LabeledText(id="a0", text="apple orange pear", label="fruit"),
        LabeledText(id="a1", text="banana apple melon", label="fruit"),
        LabeledText(id="a2", text="grape kiwi plum", label="fruit"),
        LabeledText(id="b0", text="carrot potato onion", label="veg"),
        LabeledText(id="b1", text="leek celery carrot", label="veg"),
    ]


def ids(shots: ShotSet) -> list[list[str]]:
    return [[it.id for it in items] for _, items in shots.per_class]


def one_random(pool, classes, k, seed, exclude_id=None) -> ShotSet:
    return select_random(ShotPool(pool), [classes], k, [seed], [exclude_id])[0]


def one_sparse(pool, pool_vectors, query, classes, k, exclude_id=None) -> ShotSet:
    """Select for one query, a one-row CSR matrix."""
    return select_sparse(ShotPool(pool), pool_vectors, query, [classes], k, [exclude_id])[0]


def test_config_validation():
    pool = ShotPool(small_pool())
    with pytest.raises(ValueError, match="k"):
        select_random(pool, [["fruit"]], 0, [0], [None])
    with pytest.raises(ValueError, match="k"):
        select_dense(pool, np.ones((5, 2)), np.ones((1, 2)), [["fruit"]], 0, [None])


def test_shot_pool_rejects_duplicate_ids():
    items = small_pool()
    with pytest.raises(ValueError, match="duplicate id"):
        ShotPool(items + [items[0]])


def test_shot_set_helpers():
    items = small_pool()
    shots = ShotSet(per_class=[("fruit", items[:2]), ("veg", [items[3]])])
    assert shots.classes() == ["fruit", "veg"]
    assert shots.shot_count() == 3
    assert shots.last_shot_label() == "veg"


def test_last_shot_label_skips_empty_tail():
    items = small_pool()
    shots = ShotSet(per_class=[("fruit", [items[0]]), ("veg", [])])
    assert shots.last_shot_label() == "fruit"
    assert ShotSet(per_class=[("fruit", []), ("veg", [])]).last_shot_label() is None


def test_random_counts_and_class_order():
    pool = make_items(40, n_classes=4, seed=1)
    classes = ["charlie", "alpha", "delta", "bravo"]
    shots = one_random(pool, classes, 2, 5)
    assert shots.classes() == classes
    for cls, chosen in shots.per_class:
        assert len(chosen) == 2
        assert all(item.label == cls for item in chosen)


def test_random_is_seed_deterministic():
    pool = make_items(40, n_classes=4, seed=1)
    classes = ["alpha", "bravo", "charlie", "delta"]
    a, b, c = select_random(ShotPool(pool), [classes] * 3, 2, [5, 5, 6], [None] * 3)
    assert ids(a) == ids(b)
    assert ids(a) != ids(c)


def test_random_matches_sampling_the_index_list():
    pool = make_items(60, n_classes=3, seed=2)
    classes = ["charlie", "alpha", "bravo"]
    shots = one_random(pool, classes, 3, 11, exclude_id=pool[4].id)
    rng = random.Random(11)
    expected = []
    for cls in classes:
        idxs = [i for i, it in enumerate(pool) if it.label == cls and it.id != pool[4].id]
        expected.append([pool[i].id for i in rng.sample(idxs, 3)])
    assert ids(shots) == expected


def test_random_excludes_query_item():
    shots = one_random(small_pool(), ["fruit"], 3, 0, exclude_id="a1")
    picked = [it.id for _, items in shots.per_class for it in items]
    assert "a1" not in picked
    assert sorted(picked) == ["a0", "a2"]


def test_short_class_takes_all_and_warns(caplog):
    with caplog.at_level("WARNING", logger="cicle.selection"):
        shots = one_random(small_pool(), ["veg", "meat"], 3, 0)
    by_class = dict(shots.per_class)
    assert sorted(it.id for it in by_class["veg"]) == ["b0", "b1"]
    assert by_class["meat"] == []
    messages = [rec.message for rec in caplog.records]
    assert any("only 2" in m for m in messages)
    assert any("no pool items" in m for m in messages)


def one_item_veg_selectors(n):
    """select_random and select_sparse over n queries and a pool with one "veg" item."""
    pool = ShotPool(small_pool()[:4])
    tfidf = fit_tfidf([it.text for it in pool.items])
    pool_vectors = transform_many(tfidf, [it.text for it in pool.items])
    queries = transform_many(tfidf, ["carrot apple"] * n)
    classes = [["fruit", "veg"]] * n
    return {
        "random": lambda exclude: select_random(pool, classes, 2, range(n), exclude),
        "sparse": lambda exclude: select_sparse(pool, pool_vectors, queries, classes, 2, exclude),
    }


@pytest.mark.parametrize("selector", ["random", "sparse"])
@pytest.mark.parametrize("exclude_first,expected", [
    (False, "class 'veg' has only 1 pool items for k=2; taking all"),
    (True, "class 'veg' has 1 pool items for k=2; a query that is one of them gets 0"),
], ids=["every-query-short", "one-query-empty"])
def test_a_short_class_warns_once_per_call(caplog, selector, exclude_first, expected):
    # when the one veg item is the first query's own, that query gets no veg shot
    n = 1000
    select = one_item_veg_selectors(n)[selector]
    exclude = ["b0" if exclude_first else None] + [None] * (n - 1)
    with caplog.at_level("WARNING", logger="cicle.selection"):
        shot_sets = select(exclude)
    assert [len(dict(s.per_class)["veg"]) for s in shot_sets[:2]] == [1 - exclude_first, 1]
    assert [rec.message for rec in caplog.records] == [expected]


def sparse_fixture():
    pool = small_pool()
    tfidf = fit_tfidf([it.text for it in pool])
    vectors = transform_many(tfidf, [it.text for it in pool])
    return pool, tfidf, vectors


def test_sparse_picks_most_similar():
    pool, tfidf, vectors = sparse_fixture()
    query = transform_many(tfidf, ["apple orange pear"])
    shots = one_sparse(pool, vectors, query, ["fruit"], 2)
    assert ids(shots)[0][0] == "a0"


def test_sparse_batch_matches_single_queries():
    pool, tfidf, vectors = sparse_fixture()
    texts = ["carrot banana", "apple", "kiwi leek", "nothing known", "pear onion"]
    n = 2 * SIM_CHUNK_ROWS + 3
    queries = transform_many(tfidf, [texts[i % len(texts)] for i in range(n)])
    classes = [["veg", "fruit"] if i % 2 else ["fruit", "veg"] for i in range(n)]
    excluded = [pool[i % len(pool)].id if i % 3 else None for i in range(n)]
    batch = select_sparse(ShotPool(pool), vectors, queries, classes, 2, excluded)
    assert len(batch) == n
    for i, (cls, ex, shots) in enumerate(zip(classes, excluded, batch)):
        assert ids(shots) == ids(one_sparse(pool, vectors, queries[i], cls, 2, exclude_id=ex))


def test_sparse_tie_falls_back_to_pool_order():
    pool = [
        LabeledText(id="x0", text="zzz yyy", label="c"),
        LabeledText(id="x1", text="zzz yyy", label="c"),
        LabeledText(id="x2", text="zzz yyy", label="c"),
    ]
    tfidf = fit_tfidf([it.text for it in pool])
    vectors = transform_many(tfidf, [it.text for it in pool])
    shots = one_sparse(pool, vectors, transform_many(tfidf, ["zzz yyy"]), ["c"], 2)
    assert ids(shots) == [["x0", "x1"]]


def test_sparse_zero_query_vector_is_safe():
    pool, tfidf, vectors = sparse_fixture()
    query = transform_many(tfidf, ["nonsensetoken anothermiss"])
    assert query.nnz == 0
    shots = one_sparse(pool, vectors, query, ["fruit"], 2)
    # zero query means all similarities are zero; pool order wins
    assert ids(shots) == [["a0", "a1"]]


def test_sparse_excludes_query_item():
    pool, tfidf, vectors = sparse_fixture()
    query = transform_many(tfidf, [pool[0].text])
    shots = one_sparse(pool, vectors, query, ["fruit"], 3, exclude_id="a0")
    picked = ids(shots)[0]
    assert "a0" not in picked and len(picked) == 2


def test_sparse_dimension_mismatch_rejected():
    pool, tfidf, vectors = sparse_fixture()
    other = fit_tfidf(["completely different words here"])
    query = transform_many(other, ["different words"])
    with pytest.raises(ValueError, match="dimension"):
        one_sparse(pool, vectors, query, ["fruit"], 1)


def test_sparse_similarity_count_mismatch_rejected():
    pool, tfidf, vectors = sparse_fixture()
    query = transform_many(tfidf, ["apple"])
    with pytest.raises(ValueError, match="pool items"):
        one_sparse(pool, vectors[:3], query, ["fruit"], 1)


def test_three_way_tie_at_kth_place_with_the_excluded_item_tied():
    # x1, x2, x3 share one vector, so they tie for second place behind x0
    pool = [LabeledText(id=f"x{i}", text="", label="c") for i in range(5)]
    pool.insert(2, LabeledText(id="o0", text="", label="other"))
    diagonal = (np.array([0, 1], dtype=np.int32), np.array([1.0, 1.0]) / np.sqrt(2.0))
    x_axis = (np.array([0], dtype=np.int32), np.array([1.0]))
    y_axis = (np.array([1], dtype=np.int32), np.array([1.0]))
    vectors = stack([x_axis, diagonal, x_axis, diagonal, diagonal, y_axis], 2)
    queries = stack([x_axis] * 4, 2)
    batch = select_sparse(ShotPool(pool), vectors, queries, [["c"]] * 4, 2,
                          [None, "x1", "x2", "x0"])
    assert [ids(shots) for shots in batch] == [
        [["x0", "x1"]], [["x0", "x2"]], [["x0", "x1"]], [["x1", "x2"]]]
    [wider] = select_sparse(ShotPool(pool), vectors, queries[:1], [["c", "other"]], 3, ["x2"])
    assert ids(wider) == [["x0", "x1", "x3"], ["o0"]]


def test_dense_picks_most_similar():
    pool = small_pool()
    embeddings = np.array([
        [1.0, 0.0],
        [0.9, 0.1],
        [0.0, 1.0],
        [-1.0, 0.0],
        [0.5, 0.5],
    ])
    query = np.array([1.0, 0.05])
    shots = select_dense(ShotPool(pool), embeddings, [query], [["fruit", "veg"]], 2, [None])[0]
    by_class = dict((c, [it.id for it in items]) for c, items in shots.per_class)
    assert by_class["fruit"] == ["a0", "a1"]
    assert by_class["veg"] == ["b1", "b0"]


def test_dense_zero_norm_rows_score_zero():
    pool = small_pool()[:2]
    embeddings = np.array([[0.0, 0.0], [1.0, 0.0]])
    shots = select_dense(ShotPool(pool), embeddings, [np.array([1.0, 0.0])], [["fruit"]], 1,
                         [None])[0]
    assert ids(shots) == [["a1"]]


def test_dense_dimension_mismatch_rejected():
    pool = ShotPool(small_pool()[:2])
    with pytest.raises(ValueError, match="dimension"):
        select_dense(pool, np.ones((2, 3)), [np.ones(4)], [["fruit"]], 1, [None])


# -- properties of the batched sparse path ---------------------------------


def reference_similarities(pool_vectors: sp.csr_matrix, query) -> np.ndarray:
    """One (columns, values) query at a time, as an unbatched selection computes it."""
    m = pool_vectors.tocsr()
    indices, values = query
    q = np.zeros(DIM)
    q[indices] = values
    dots = np.asarray(m @ q).ravel()
    row_norms = np.sqrt(np.asarray(m.multiply(m).sum(axis=1)).ravel())
    qn = float(np.sqrt(np.dot(values, values)))
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where((row_norms > 0) & (qn > 0), dots / (row_norms * qn), 0.0)


DIM = 6
LABELS = ("a", "b", "c", "d")


def unit_vector(weights: list[int]) -> tuple[np.ndarray, np.ndarray]:
    idx = np.array([i for i, w in enumerate(weights) if w], dtype=np.int32)
    vals = np.array([w for w in weights if w], dtype=float)
    if len(vals):
        vals /= np.sqrt(np.dot(vals, vals))
    return idx, vals


# small integer weights make duplicate rows (exact ties) and all-zero rows common
weights = st.lists(st.sampled_from([0, 0, 0, 1, 2, 3]), min_size=DIM, max_size=DIM)


@st.composite
def selection_cases(draw):
    n_pool = draw(st.integers(1, 30))
    pool = [LabeledText(id=f"p{i}", text="", label=draw(st.sampled_from(LABELS)))
            for i in range(n_pool)]
    pool_vectors = [unit_vector(draw(weights)) for _ in range(n_pool)]
    n_queries = draw(st.integers(1, 2 * SIM_CHUNK_ROWS + 6))
    queries = [unit_vector(draw(weights)) for _ in range(n_queries)]
    # classes in any order, possibly one with no pool items at all
    orders = [draw(st.lists(st.sampled_from(LABELS + ("none",)), min_size=1, max_size=5,
                            unique=True)) for _ in range(n_queries)]
    excluded = [draw(st.sampled_from([None, "absent"] + [it.id for it in pool]))
                for _ in range(n_queries)]
    k = draw(st.integers(1, 4))
    return pool, pool_vectors, queries, orders, excluded, k


@settings(max_examples=60, deadline=None)
@given(selection_cases())
def test_batched_top_k_matches_brute_force(case):
    pool, pool_vectors, queries, orders, excluded, k = case
    matrix = stack(pool_vectors, DIM)
    batch = select_sparse(ShotPool(pool), matrix, stack(queries, DIM), orders, k, excluded)
    assert len(batch) == len(queries)
    for query, order, exclude_id, shots in zip(queries, orders, excluded, batch):
        cos = reference_similarities(matrix, query)
        expected = []
        for cls in order:
            idxs = [i for i, it in enumerate(pool) if it.label == cls and it.id != exclude_id]
            expected.append((cls, [pool[i] for i in sorted(idxs, key=lambda i: (-cos[i], i))[:k]]))
        assert shots.per_class == expected


@settings(max_examples=60, deadline=None)
@given(selection_cases())
def test_chunked_similarities_equal_single_query_reference(case):
    _, pool_vectors, queries, _, _, _ = case
    matrix = stack(pool_vectors, DIM)
    rows = [row for block in sparse_similarities(matrix, stack(queries, DIM)) for row in block]
    assert len(rows) == len(queries)
    for row, query in zip(rows, queries):
        reference = reference_similarities(matrix, query)
        assert row.shape == reference.shape
        assert (row == reference).all()
