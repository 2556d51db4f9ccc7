import math
import random

import numpy as np
import pytest

from cicle.errors import DataError, TransportError
from cicle.selection import sparse_similarities
from cicle.vectorize import (EmbeddingClient, EmbeddingConfig, SparseVector, fit_tfidf, stack,
                             tokenize, transform, transform_many)

from conftest import embedding_app, hash_embedding, make_items


def test_tokenize_lowercases_and_drops_single_chars():
    assert tokenize("Hi, a BB ccc_d 9to5!") == ["hi", "bb", "ccc_d", "9to5"]
    assert tokenize("! ?") == []


def test_fit_tfidf_hand_idf():
    model = fit_tfidf(["aa bb", "aa cc"])
    assert model.vocabulary == {"aa": 0, "bb": 1, "cc": 2}
    assert model.idf[0] == pytest.approx(1.0, abs=1e-12)
    assert model.idf[1] == pytest.approx(math.log(3 / 2) + 1, abs=1e-12)
    assert model.idf[2] == pytest.approx(math.log(3 / 2) + 1, abs=1e-12)


def test_fit_tfidf_single_document():
    model = fit_tfidf(["aa"])
    assert model.idf[model.vocabulary["aa"]] == pytest.approx(1.0, abs=1e-12)


def test_fit_tfidf_idf_at_least_one():
    model = fit_tfidf([it.text for it in make_items(50)])
    assert np.all(model.idf >= 1.0)


def test_fit_tfidf_rejects_tokenless_corpus():
    with pytest.raises(ValueError):
        fit_tfidf([])
    with pytest.raises(ValueError):
        fit_tfidf(["! ?", "."])


def test_transform_hand_vector():
    model = fit_tfidf(["aa bb", "aa cc"])
    vec = transform(model, "aa bb")
    w0, w1 = 1.0, math.log(3 / 2) + 1
    norm = math.hypot(w0, w1)
    dense = vec.to_dense()
    assert abs(dense[0] - w0 / norm) < 1e-9
    assert abs(dense[1] - w1 / norm) < 1e-9
    assert dense[2] == 0.0
    assert round(dense[0], 4) == 0.5797 and round(dense[1], 4) == 0.8148


def test_transform_scales_with_counts():
    model = fit_tfidf(["aa bb", "aa cc"])
    vec = transform(model, "aa bb aa")
    w0, w1 = 2.0, math.log(3 / 2) + 1
    norm = math.hypot(w0, w1)
    assert vec.to_dense()[0] == pytest.approx(w0 / norm, abs=1e-12)
    assert vec.to_dense()[1] == pytest.approx(w1 / norm, abs=1e-12)


def test_transform_unknown_tokens_dropped():
    model = fit_tfidf(["aa bb", "aa cc"])
    vec = transform(model, "zz qq")
    assert vec.nnz == 0
    assert vec.norm() == 0.0
    single = transform(model, "aa aa zz")
    assert single.nnz == 1
    assert single.to_dense()[0] == pytest.approx(1.0, abs=1e-12)


def test_transform_unit_norm_property():
    texts = [it.text for it in make_items(80, overlap=0.4, seed=3)]
    model = fit_tfidf(texts)
    for vec in transform_many(model, texts):
        if vec.nnz:
            assert abs(vec.norm() - 1.0) < 1e-9
        indices = list(vec.indices)
        assert indices == sorted(indices)


def test_transform_independent_of_corpus_order():
    texts = [it.text for it in make_items(40, seed=9)]
    a = fit_tfidf(texts)
    b = fit_tfidf(list(reversed(texts)))
    assert a.vocabulary == b.vocabulary
    assert np.allclose(a.idf, b.idf)
    va, vb = transform(a, texts[0]), transform(b, texts[0])
    assert np.allclose(va.to_dense(), vb.to_dense())


def test_stack_matches_dense_rows():
    texts = [it.text for it in make_items(30)]
    model = fit_tfidf(texts)
    vectors = transform_many(model, texts)
    matrix = stack(vectors)
    assert matrix.shape == (30, len(model.vocabulary))
    for i, vec in enumerate(vectors):
        assert np.allclose(matrix[i].toarray().ravel(), vec.to_dense())


def cosine(a, b):
    """Cosine similarity as shot selection computes it: one pool row, one query."""
    [row] = sparse_similarities(stack([a]), stack([b]))
    return float(row[0])


def test_cosine_hand_cases():
    model = fit_tfidf(["aa bb", "cc dd"])
    a = transform(model, "aa bb")
    assert cosine(a, a) == pytest.approx(1.0, abs=1e-12)
    assert cosine(a, transform(model, "cc dd")) == 0.0
    assert cosine(a, transform(model, "aa")) == pytest.approx(1 / math.sqrt(2), abs=1e-12)


def test_cosine_zero_norm_is_zero():
    model = fit_tfidf(["aa bb"])
    zero = transform(model, "zz")
    assert cosine(zero, transform(model, "aa")) == 0.0
    assert cosine(transform(model, "aa"), zero) == 0.0


def test_cosine_errors():
    a = SparseVector(indices=np.array([0], dtype=np.int32), values=np.array([1.0]), dim=2)
    b = SparseVector(indices=np.array([0], dtype=np.int32), values=np.array([1.0]), dim=3)
    with pytest.raises(ValueError, match="dimension"):
        cosine(a, b)


def test_cosine_symmetry():
    texts = [it.text for it in make_items(20, overlap=0.5, seed=7)]
    model = fit_tfidf(texts)
    vectors = transform_many(model, texts)
    rng = random.Random(1)
    for _ in range(50):
        a, b = rng.choice(vectors), rng.choice(vectors)
        assert cosine(a, b) == pytest.approx(cosine(b, a), rel=1e-12, abs=1e-15)
        assert -1.0 - 1e-12 <= cosine(a, b) <= 1.0 + 1e-12


def test_embed_order_dedupe_and_values(serve, tmp_path):
    calls = []
    url = serve(embedding_app(dim=8, calls=calls))
    client = EmbeddingClient(EmbeddingConfig(endpoint=url, cache_dir=str(tmp_path / "cache")))
    texts = ["aa bb", "cc", "aa bb"]
    vectors = client.embed(texts)
    assert len(vectors) == 3
    assert np.allclose(vectors[0], vectors[2])
    assert np.allclose(vectors[0], hash_embedding("aa bb", 8))
    assert np.allclose(vectors[1], hash_embedding("cc", 8))
    assert sum(len(batch) for batch in calls) == 2
    assert client.dim == 8


def test_embed_cache_survives_new_client(serve, tmp_path):
    calls = []
    url = serve(embedding_app(calls=calls))
    cfg = EmbeddingConfig(endpoint=url, cache_dir=str(tmp_path / "cache"))
    first = EmbeddingClient(cfg).embed(["one", "two"])
    before = sum(len(b) for b in calls)
    second = EmbeddingClient(cfg).embed(["one", "two"])
    assert sum(len(b) for b in calls) == before
    assert np.allclose(first, second)


def test_embed_empty_list_makes_no_calls():
    client = EmbeddingClient(EmbeddingConfig(endpoint="http://127.0.0.1:9/unreachable"))
    assert client.embed([]) == []


def test_embed_batching(serve, tmp_path):
    calls = []
    url = serve(embedding_app(calls=calls))
    client = EmbeddingClient(EmbeddingConfig(endpoint=url, batch_size=2))
    client.embed([f"text {i}" for i in range(5)])
    assert [len(b) for b in calls] == [2, 2, 1]


def test_embed_wrong_count_is_data_error(serve):
    def app(handler):
        from conftest import read_json, respond_json
        read_json(handler)
        respond_json(handler, 200, {"vectors": [[0.0, 1.0]], "dim": 2})

    url = serve(app)
    client = EmbeddingClient(EmbeddingConfig(endpoint=url))
    with pytest.raises(DataError, match="vectors for"):
        client.embed(["a", "b"])


def test_embed_dimension_drift_is_data_error(serve):
    state = {"n": 0}

    def app(handler):
        from conftest import read_json, respond_json
        body = read_json(handler)
        state["n"] += 1
        dim = 4 if state["n"] == 1 else 6
        respond_json(handler, 200,
                     {"vectors": [[0.5] * dim for _ in body["texts"]], "dim": dim})

    url = serve(app)
    client = EmbeddingClient(EmbeddingConfig(endpoint=url, batch_size=1))
    with pytest.raises(DataError, match="drift"):
        client.embed(["a", "b"])


def test_embed_retries_5xx_then_succeeds(serve):
    calls = []
    url = serve(embedding_app(calls=calls, fail_first=1))
    client = EmbeddingClient(EmbeddingConfig(endpoint=url, max_retries=1, backoff=0.01))
    vectors = client.embed(["hello"])
    assert len(vectors) == 1
    assert len(calls) == 2


def test_embed_exhausted_retries_is_transport_error(serve):
    url = serve(embedding_app(fail_first=99))
    client = EmbeddingClient(EmbeddingConfig(endpoint=url, max_retries=1, backoff=0.01))
    with pytest.raises(TransportError) as err:
        client.embed(["hello"])
    assert err.value.attempts == 2
